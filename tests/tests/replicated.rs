//! The diskless peer-replicated checkpoint store, end to end: remote
//! recovery after node kills, typed failure when every copy is lost,
//! byte-level determinism, and cross-backend result agreement.

use gbcr_core::{
    CkptMode, CkptSchedule, CoordinatorCfg, Formation, JobSpec, StoreBackend, SupervisePolicy,
};
use gbcr_des::{time, SimError, Time};
use gbcr_faults::rng::{draw_u64, Domain};
use gbcr_faults::{FaultConfig, FaultKind, FaultPlan, StochasticFaults};
use gbcr_storage::replica_nodes;
use gbcr_workloads::random::ResultsSink;
use gbcr_workloads::RandomTraffic;
use proptest::prelude::*;

const JOB: &str = "random-traffic";

fn cfg(at: Vec<Time>) -> CoordinatorCfg {
    CoordinatorCfg {
        job: JOB.into(),
        mode: CkptMode::Buffering,
        formation: Formation::Static { group_size: 4 },
        schedule: CkptSchedule { at },
        incremental: false,
        deadlines: gbcr_core::PhaseDeadlines::none(),
        election: Default::default(),
    }
}

fn replicated(mut spec: JobSpec) -> JobSpec {
    spec.backend = StoreBackend::Replicated { replicas: 2 };
    spec
}

/// Same seeds, same backend, same bytes: the replicated store's fan-out,
/// placement draw and remote recovery are all deterministic, so two
/// identically-seeded supervised runs produce byte-identical reports.
#[test]
fn identical_seeds_give_byte_identical_replicated_reports() {
    let w = RandomTraffic { steps: 220, ..Default::default() };
    let seed = (0u64..10_000)
        .find(|&s| {
            let f = StochasticFaults::kills(s, time::secs(60));
            let (at, _) = f.first_kill(0, w.n);
            at > time::secs(2) && at < time::secs(5)
        })
        .expect("some seed kills mid-run");
    let faults = StochasticFaults::kills(seed, time::secs(60));
    let ckpt = cfg(vec![time::secs(1), time::secs(3), time::secs(5)]);
    let policy = SupervisePolicy::default();

    let a = replicated(w.job(None))
        .runner()
        .ckpt(ckpt.clone())
        .supervised(policy.clone())
        .stochastic(&faults)
        .unwrap();
    let b = replicated(w.job(None))
        .runner()
        .ckpt(ckpt)
        .supervised(policy.clone())
        .stochastic(&faults)
        .unwrap();

    assert!(a.attempts.len() >= 2, "the seeded kill must force at least one restart");
    assert!(a.attempts.last().unwrap().finished);
    assert!(a.counters.replicas_written > 0, "fan-out must have happened");
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seeds, different reports");
}

/// A node kill destroys the victim's local copies, yet the supervised run
/// recovers: the replacement node reads the dead rank's image from a
/// surviving remote replica (every other rank restores locally), and the
/// final results match a failure-free run exactly.
#[test]
fn node_kill_recovers_from_remote_replica() {
    let w = RandomTraffic { steps: 220, ..Default::default() };
    let truth = ResultsSink::default();
    w.job(Some(truth.clone())).runner().run().unwrap();
    let mut want = truth.lock().clone();
    want.sort();

    let seed = (0u64..10_000)
        .find(|&s| {
            let f = StochasticFaults::kills(s, time::secs(60));
            let (at, _) = f.first_kill(0, w.n);
            at > time::secs(2) && at < time::secs(5)
        })
        .expect("some seed kills mid-run");
    let faults = StochasticFaults::kills(seed, time::secs(60));
    let results = ResultsSink::default();
    let report = replicated(w.job(Some(results.clone())))
        .runner()
        .ckpt(cfg(vec![time::secs(1), time::secs(3), time::secs(5)]))
        .supervised(SupervisePolicy::default())
        .stochastic(&faults)
        .unwrap();

    assert!(report.failures_survived() >= 1);
    assert!(
        report.counters.replica_losses > 0,
        "the kill must have taken co-located replica copies down with it"
    );
    assert!(
        report.counters.remote_recoveries >= 1,
        "the dead rank's image must have been served from a remote replica"
    );
    assert!(
        report.counters.local_recoveries >= 1,
        "surviving ranks must restore from their own node's copy"
    );
    let mut got = results.lock().clone();
    got.sort();
    assert_eq!(got, want, "replicated recovery diverged from the truth");
}

/// Killing a rank's owner node AND both of its replica nodes destroys all
/// k+1 copies of its image: the epoch is no longer restartable and image
/// extraction fails with the typed [`SimError::NoRestartPoint`] — never a
/// panic, so supervisors can degrade to a cold restart.
#[test]
fn losing_every_copy_is_a_typed_no_restart_point() {
    let w = RandomTraffic { steps: 220, ..Default::default() };
    let spec = replicated(w.job(None));
    // Reproduce the harness's placement draw to aim the kills: rank 0's
    // image lives on node 0 plus these two ring peers.
    let shift = draw_u64(spec.seed, Domain::Replica, u64::from(w.n));
    let peers = replica_nodes(0, w.n, 2, shift);
    let mut plan = FaultPlan::node_kill_at(time::ms(3500), 0);
    plan.push(time::ms(3501), FaultKind::NodeKill { rank: peers[0] });
    plan.push(time::ms(3502), FaultKind::NodeKill { rank: peers[1] });
    let faults = FaultConfig { plan, ..FaultConfig::none() };

    let report =
        spec.runner().ckpt(cfg(vec![time::secs(1), time::secs(3)])).faults(&faults).run().unwrap();
    let mut killed = report.killed_ranks.clone();
    killed.sort_unstable();
    let mut expect = vec![0, peers[0], peers[1]];
    expect.sort_unstable();
    assert_eq!(killed, expect, "all three kills must land before the abort");

    // Epoch 0 was committed (its manifest is on every surviving node), but
    // every copy of rank 0's image died with the three nodes.
    let err = report.restart_spec(JOB, 0, w.n).unwrap_err();
    assert!(matches!(err, SimError::NoRestartPoint { .. }), "expected NoRestartPoint, got {err:?}");
    assert!(report.latest_restart_spec(JOB, w.n).is_none(), "the lossy epoch must be demoted");
    // A rank whose owner survived still has its image (replication never
    // *reduces* durability).
    let survivor = (0..w.n).find(|r| !report.killed_ranks.contains(r)).unwrap();
    let name = gbcr_blcr::ProcessImage::object_name(JOB, 0, survivor);
    assert!(report.images.iter().any(|(k, _)| *k == name));
}

/// A whole-cluster power failure takes every node's memory with it, so a
/// diskless job crashed after its first committed epoch has nothing to
/// restart from: the supervisor cold-restarts it to the fault-free result
/// where the policy allows, and reports the typed `NoRestartPoint` where it
/// does not — it must never "restore" from node memory that no longer
/// exists.
#[test]
fn cluster_crash_leaves_a_replicated_job_no_restart_point() {
    let w = RandomTraffic { steps: 220, ..Default::default() };
    let truth = ResultsSink::default();
    w.job(Some(truth.clone())).runner().run().unwrap();
    let mut want = truth.lock().clone();
    want.sort();
    let ckpt = cfg(vec![time::secs(1), time::secs(3), time::secs(5)]);
    // Epoch 0 (requested at 1 s) is committed by 3.5 s: a central-store job
    // crashed here restores from it (tests/supervised.rs).
    let crash = [time::ms(3500)];

    let results = ResultsSink::default();
    let report = replicated(w.job(Some(results.clone())))
        .runner()
        .ckpt(ckpt.clone())
        .supervised(SupervisePolicy::default())
        .crashes(&crash)
        .unwrap();
    assert_eq!(report.attempts.len(), 2);
    assert!(report.attempts[0].epochs_completed >= 1, "the crash must follow a commit");
    assert_eq!(report.attempts[1].restored_from, None, "nothing survived to restore from");
    assert!(report.attempts[1].finished);
    assert_eq!(report.counters.local_recoveries + report.counters.remote_recoveries, 0);
    let mut got = results.lock().clone();
    got.sort();
    assert_eq!(got, want, "the cold restart diverged from the truth");

    let err = replicated(w.job(None))
        .runner()
        .ckpt(ckpt)
        .supervised(SupervisePolicy::immediate())
        .crashes(&crash)
        .unwrap_err();
    assert!(matches!(err, SimError::NoRestartPoint { .. }), "expected NoRestartPoint, got {err:?}");
}

/// Without faults the two backends are interchangeable: the baseline
/// (no checkpoints, no storage traffic) is byte-identical, and
/// checkpointed runs commit the same epochs and compute identical results
/// (only the checkpoint write latencies legitimately differ).
#[test]
fn fault_free_runs_agree_across_backends() {
    let w = RandomTraffic { steps: 220, ..Default::default() };

    // Baseline: no checkpoint schedule, so the store is never touched and
    // the backend choice must be invisible down to the last byte.
    let base_central = w.job(None).runner().run().unwrap();
    let base_replicated = replicated(w.job(None)).runner().run().unwrap();
    assert_eq!(format!("{base_central:?}"), format!("{base_replicated:?}"));

    // Checkpointed: same epochs, same manifests, same computed results.
    let mut results = Vec::new();
    for spec in [w.job(None), replicated(w.job(None))] {
        let sink = ResultsSink::default();
        let mut spec = spec;
        spec.body = w.job(Some(sink.clone())).body;
        let report = spec.runner().ckpt(cfg(vec![time::secs(1), time::secs(3)])).run().unwrap();
        assert_eq!(report.epochs.len(), 2);
        assert_eq!(report.manifest_commits, 2);
        assert_eq!(report.finished_ranks, w.n);
        let mut got = sink.lock().clone();
        got.sort();
        results.push(got);
    }
    assert_eq!(results[0], results[1], "replicated results diverged from central");
}

proptest! {
    /// The ring placement never puts a replica on the owning node, never
    /// duplicates a peer, never exceeds the world, and always yields
    /// min(k, n-1) copies — for any rotation.
    #[test]
    fn ring_placement_never_targets_the_owner(
        n in 1u32..64,
        owner_raw in 0u32..64,
        k in 0u32..8,
        shift in any::<u64>(),
    ) {
        let owner = owner_raw % n;
        let peers = replica_nodes(owner, n, k, shift);
        prop_assert_eq!(peers.len(), k.min(n.saturating_sub(1)) as usize);
        prop_assert!(peers.iter().all(|&p| p != owner && p < n));
        let mut uniq = peers.clone();
        uniq.sort_unstable();
        uniq.dedup();
        prop_assert_eq!(uniq.len(), peers.len());
    }
}
