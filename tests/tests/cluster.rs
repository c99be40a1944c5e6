//! Cluster-level multi-tenant simulation: the contention-off independence
//! baseline. With `ClusterSpec::contention = false` every admitted tenant
//! gets the same private substrate a solo run would build, so each
//! [`TenantReport`] must be **byte-identical** (via `Debug`) to the same
//! workload run solo under the same policy — for arbitrary tenant mixes.
//!
//! This is the load-bearing invariant behind fig10's goodput metric: the
//! solo baselines it divides by are exactly the contention-off cluster
//! projections, so any divergence is attributable to contention alone.

use gbcr_core::cluster::{run_cluster, ClusterSpec, ClusterTenant, TenantPolicy, TenantReport};
use gbcr_core::StoreBackend;
use gbcr_des::{time, SimError};
use gbcr_storage::MB;
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
    let policy = TenantPolicy {
        interval: time::ms(k.interval_ms),
        offset: time::ms(k.offset_ms),
        epochs: k.epochs,
        group_size: k.group_size,
        backend: if k.replicated {
            StoreBackend::Replicated { replicas: 1 }
        } else {
            StoreBackend::Central
        },
    };
    ClusterTenant { spec, policy }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary tenant mixes through the cluster scheduler with
    /// contention off are byte-identical, tenant by tenant, to solo runs
    /// under the same policy expansion.
    #[test]
    fn contention_off_cluster_matches_solo_runs(mix in prop::collection::vec(raw_knobs(), 1..4)) {
        let tenants: Vec<ClusterTenant> =
            mix.iter().enumerate().map(|(i, raw)| tenant(i, &knobs(raw))).collect();
        let cluster = ClusterSpec { contention: false, ..ClusterSpec::new(tenants.clone()) };
        let report = run_cluster(&cluster, None).unwrap();
        prop_assert_eq!(report.tenants.len(), tenants.len());
        for (t, got) in tenants.iter().zip(&report.tenants) {
            // Mirror run_cluster's per-tenant substrate override: the
            // policy's backend wins over the spec's.
            let mut solo_spec = t.spec.clone();
            solo_spec.backend = t.policy.backend;
            let solo = solo_spec
                .runner()
                .ckpt(t.policy.ckpt_cfg(&t.spec.name))
                .run()
                .unwrap();
            let want = TenantReport::from_run(&t.spec.name, &solo);
            prop_assert_eq!(format!("{want:?}"), format!("{got:?}"));
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
        let mut solo_spec = t.spec.clone();
        solo_spec.backend = t.policy.backend;
        let solo =
            solo_spec.runner().ckpt(t.policy.ckpt_cfg(&t.spec.name)).run().unwrap();
        let want = TenantReport::from_run(&t.spec.name, &solo);
        assert_eq!(format!("{want:?}"), format!("{got:?}"), "tenant {}", t.spec.name);
    }
}

/// The cluster has one shared array: `storage_stats` has exactly one entry
/// with contention on, carrying every image of both central tenants and
/// none of the replicated one's, and no entry with contention off.
#[test]
fn one_shared_array_with_contention_and_none_without() {
    let tenants = fixed_mix();
    let shared = run_cluster(&ClusterSpec::new(tenants.clone()), None).unwrap();
    assert_eq!(shared.storage_stats.len(), 1);
    // Two epochs of four 2 MB images and two of four 3 MB images; the
    // replicated tenant's 1 MB images stay on its own nodes.
    let mut sizes: Vec<u64> = shared.storage_stats[0].records.iter().map(|r| r.bytes).collect();
    sizes.sort_unstable();
    assert_eq!(sizes, [[2 * MB; 8], [3 * MB; 8]].concat());
    let private = ClusterSpec { contention: false, ..ClusterSpec::new(tenants) };
    assert!(run_cluster(&private, None).unwrap().storage_stats.is_empty());
}

/// Two tenants sharing a name would share checkpoint object names on the
/// array: admission rejects the cluster with a typed error naming the
/// duplicate, instead of panicking.
#[test]
fn duplicate_tenant_names_are_a_typed_error() {
    let mut tenants = fixed_mix();
    tenants[2].spec.name = tenants[0].spec.name.clone();
    let err = run_cluster(&ClusterSpec::new(tenants), None).unwrap_err();
    assert!(
        matches!(&err, SimError::InvalidCluster { detail } if detail.contains("\"t0\"")),
        "{err}"
    );
}
