//! Cluster-level multi-tenant simulation: the contention-off independence
//! baseline. With `ClusterSpec::contention = false` every admitted tenant
//! gets the same private substrate a solo run would build, so each
//! [`TenantReport`] must be **byte-identical** (via `Debug`) to a solo run
//! of the tenant's own `(spec, ckpt)` pair — for arbitrary tenant mixes.
//!
//! This is the load-bearing invariant behind fig10's goodput metric: the
//! solo baselines it divides by are exactly the contention-off cluster
//! projections, so any divergence is attributable to contention alone.

use gbcr_core::cluster::{run_cluster, ClusterSpec, ClusterTenant, TenantReport};
use gbcr_core::{CkptSchedule, CoordinatorCfg, StoreBackend};
use gbcr_des::{time, SimError};
use gbcr_storage::{StorageConfig, MB};
use gbcr_workloads::{GroupLayout, MicroBench};
use proptest::prelude::*;

/// One randomized tenant's knobs, kept plain-old-data so proptest can
/// shrink them independently.
#[derive(Debug, Clone)]
struct TenantKnobs {
    n: u32,
    steps: u64,
    footprint_mb: u64,
    interval_ms: u64,
    offset_ms: u64,
    epochs: u32,
    group_size: u32,
    replicated: bool,
}

/// The raw tuple shape the (vendored, map-less) proptest draws; folded
/// into [`TenantKnobs`] by [`knobs`] inside the test body.
type RawKnobs = ((u32, u64, u64, u64), (u64, u32, usize, bool));

fn raw_knobs() -> impl Strategy<Value = RawKnobs> {
    (
        (prop::sample::select(vec![2u32, 4]), 40u64..120, 1u64..4, 400u64..900),
        (0u64..400, 1u32..3, 0usize..3, any::<bool>()),
    )
}

fn knobs(raw: &RawKnobs) -> TenantKnobs {
    let ((n, steps, fp, interval), (offset, epochs, gidx, replicated)) = *raw;
    TenantKnobs {
        n,
        steps,
        footprint_mb: fp,
        interval_ms: interval,
        offset_ms: offset,
        epochs,
        group_size: [1, 2, n][gidx],
        replicated,
    }
}

fn tenant(i: usize, k: &TenantKnobs) -> ClusterTenant {
    let mut spec = MicroBench {
        n: k.n,
        comm_group_size: 2,
        footprint: k.footprint_mb * MB,
        step_compute: time::ms(10),
        steps: k.steps,
        msg_size: 16 * 1024,
        layout: GroupLayout::Blocked,
    }
    .job();
    spec.name = format!("t{i}");
    if k.replicated {
        spec.backend = StoreBackend::Replicated { replicas: 1 };
    }
    let at = (0..k.epochs).map(|e| time::ms(k.offset_ms + u64::from(e) * k.interval_ms)).collect();
    let ckpt = CoordinatorCfg::new(spec.name.clone(), k.group_size, CkptSchedule { at });
    ClusterTenant { spec, ckpt }
}

/// What the tenant reports when it runs alone: its own `(spec, ckpt)`
/// through the solo runner, projected to the per-tenant view.
fn solo(t: &ClusterTenant) -> TenantReport {
    let report = t.spec.runner().ckpt(t.ckpt.clone()).run().unwrap();
    TenantReport::from_run(&t.ckpt.job, &report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary tenant mixes through the cluster scheduler with
    /// contention off are byte-identical, tenant by tenant, to solo runs
    /// of the same `(spec, ckpt)` pairs.
    #[test]
    fn contention_off_cluster_matches_solo_runs(mix in prop::collection::vec(raw_knobs(), 1..4)) {
        let tenants: Vec<ClusterTenant> =
            mix.iter().enumerate().map(|(i, raw)| tenant(i, &knobs(raw))).collect();
        let cluster = ClusterSpec { contention: false, ..ClusterSpec::new(tenants.clone()) };
        let report = run_cluster(&cluster, None).unwrap();
        prop_assert_eq!(report.tenants.len(), tenants.len());
        for (t, got) in tenants.iter().zip(&report.tenants) {
            prop_assert_eq!(format!("{:?}", solo(t)), format!("{got:?}"));
        }
    }
}

/// A fixed three-tenant mix spanning both backends and all three
/// formation shapes.
fn fixed_mix() -> Vec<ClusterTenant> {
    let mixes = [
        TenantKnobs {
            n: 4,
            steps: 80,
            footprint_mb: 2,
            interval_ms: 500,
            offset_ms: 0,
            epochs: 2,
            group_size: 4,
            replicated: false,
        },
        TenantKnobs {
            n: 2,
            steps: 60,
            footprint_mb: 1,
            interval_ms: 700,
            offset_ms: 150,
            epochs: 1,
            group_size: 1,
            replicated: true,
        },
        TenantKnobs {
            n: 4,
            steps: 100,
            footprint_mb: 3,
            interval_ms: 600,
            offset_ms: 300,
            epochs: 2,
            group_size: 2,
            replicated: false,
        },
    ];
    mixes.iter().enumerate().map(|(i, k)| tenant(i, k)).collect()
}

/// The same identity, deterministic and cheap enough for `--smoke`-level
/// CI, on [`fixed_mix`].
#[test]
fn contention_off_fixed_mix_matches_solo() {
    let tenants = fixed_mix();
    let cluster = ClusterSpec { contention: false, ..ClusterSpec::new(tenants.clone()) };
    let report = run_cluster(&cluster, None).unwrap();
    for (t, got) in tenants.iter().zip(&report.tenants) {
        assert_eq!(format!("{:?}", solo(t)), format!("{got:?}"), "tenant {}", t.spec.name);
    }
}

/// With contention on, a lone tenant's substrate is the shared paper-testbed
/// array and a fabric shared among one, which is what its solo run gets
/// when its spec says so: each tenant of [`fixed_mix`], admitted alone,
/// reports exactly what that solo run does, and the array records the same
/// transfers the solo run's private store does.
#[test]
fn a_lone_contended_tenant_matches_its_solo_run() {
    for t in fixed_mix() {
        let report = run_cluster(&ClusterSpec::new(vec![t.clone()]), None).unwrap();
        let mut spec = t.spec.clone();
        spec.storage = StorageConfig::paper_testbed();
        spec.mpi.net = spec.mpi.net.shared_among(1);
        let alone = spec.runner().ckpt(t.ckpt.clone()).run().unwrap();
        let want = TenantReport::from_run(&t.ckpt.job, &alone);
        assert_eq!(format!("{want:?}"), format!("{:?}", report.tenants[0]), "tenant {}", spec.name);
        if matches!(spec.backend, StoreBackend::Central) {
            let (got, want) = (&report.storage_stats[0].records, &alone.storage_stats.records);
            assert_eq!(format!("{want:?}"), format!("{got:?}"), "tenant {}", spec.name);
        }
    }
}

/// The cluster has one shared array: `storage_stats` has exactly one entry
/// with contention on, carrying every image of the tenants whose spec names
/// the central backend and none of the replicated one's, and no entry with
/// contention off.
#[test]
fn one_shared_array_with_contention_and_none_without() {
    let mut tenants = fixed_mix();
    let sizes = |tenants: &[ClusterTenant]| {
        let shared = run_cluster(&ClusterSpec::new(tenants.to_vec()), None).unwrap();
        assert_eq!(shared.storage_stats.len(), 1);
        let mut sizes: Vec<u64> = shared.storage_stats[0].records.iter().map(|r| r.bytes).collect();
        sizes.sort_unstable();
        sizes
    };
    // Two epochs of four 2 MB images and two of four 3 MB images; the
    // replicated tenant's 1 MB images stay on its own nodes.
    assert_eq!(sizes(&tenants), [&[2 * MB; 8][..], &[3 * MB; 8]].concat());
    let private = ClusterSpec { contention: false, ..ClusterSpec::new(tenants.clone()) };
    assert!(run_cluster(&private, None).unwrap().storage_stats.is_empty());
    // The backend is the spec's alone: made central, the second tenant's
    // one epoch of two 1 MB images joins the array.
    tenants[1].spec.backend = StoreBackend::Central;
    assert_eq!(sizes(&tenants), [&[MB; 2][..], &[2 * MB; 8], &[3 * MB; 8]].concat());
}

/// A tenant admitted twice would write its checkpoint objects under the
/// same names on the array: admission rejects the cluster with a typed
/// error naming the duplicate, instead of panicking.
#[test]
fn duplicate_tenant_names_are_a_typed_error() {
    let mut tenants = fixed_mix();
    tenants.push(tenants[0].clone());
    let err = run_cluster(&ClusterSpec::new(tenants), None).unwrap_err();
    assert!(
        matches!(&err, SimError::InvalidCluster { detail } if detail.contains("\"t0\"")),
        "{err}"
    );
}

/// The namespace on the array is the coordinator's job name, not the
/// spec's: two tenants with distinct spec names but one `ckpt.job` are
/// rejected too, and the error names the job.
#[test]
fn a_shared_checkpoint_namespace_is_a_typed_error() {
    let mut tenants = fixed_mix();
    tenants[0].ckpt.job = "shared".into();
    tenants[2].ckpt.job = "shared".into();
    assert_ne!(tenants[0].spec.name, tenants[2].spec.name);
    let err = run_cluster(&ClusterSpec::new(tenants), None).unwrap_err();
    assert!(
        matches!(&err, SimError::InvalidCluster { detail } if detail.contains("\"shared\"")),
        "{err}"
    );
}
