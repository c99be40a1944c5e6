//! Crash-consistent commit integration: manifest-only restart selection,
//! torn-manifest demotion, and phase-targeted kills escalating to the
//! supervisor.

use gbcr_core::{proto, CkptMode, CkptSchedule, CoordinatorCfg, Formation, PhaseDeadlines};
use gbcr_des::{time, SimError, Time};
use gbcr_faults::{FaultConfig, FaultPlan, PhaseAction, PhaseFault, ProtocolPhase, TornWrites};
use gbcr_workloads::RandomTraffic;
use parking_lot::Mutex;
use std::sync::Arc;

const JOB: &str = "random-traffic";

fn cfg(at: Vec<Time>, deadlines: PhaseDeadlines) -> CoordinatorCfg {
    CoordinatorCfg {
        job: JOB.into(),
        mode: CkptMode::Buffering,
        formation: Formation::Static { group_size: 4 },
        schedule: CkptSchedule { at },
        incremental: false,
        deadlines,
        election: Default::default(),
    }
}

/// A rank killed inside its checkpoint phase takes the epoch down with it:
/// the dead node is confirmed by the failure detector (not papered over by
/// an abort-and-retry), the supervisor-facing report pins the last
/// *manifested* epoch, and a restart from that manifest finishes with
/// results identical to a failure-free run.
#[test]
fn phase_kill_escalates_and_restarts_from_last_manifest() {
    let w = RandomTraffic { steps: 220, ..Default::default() };
    let truth = Arc::new(Mutex::new(Vec::new()));
    w.job(Some(truth.clone())).runner().run().unwrap();
    let mut want = truth.lock().clone();
    want.sort();

    // Rank 2 dies on entry to its epoch-1 checkpoint phase. The 500 ms
    // detector confirms the death long before the 5 s group deadline, so
    // this must escalate to a job abort, not an epoch retry.
    let faults = FaultConfig {
        detect_latency: time::ms(500),
        phase_faults: vec![PhaseFault {
            epoch: 1,
            phase: ProtocolPhase::Checkpoint,
            rank: 2,
            action: PhaseAction::Kill,
        }],
        ..FaultConfig::none()
    };
    let results = Arc::new(Mutex::new(Vec::new()));
    let deadlines = PhaseDeadlines::new(time::secs(2), time::secs(5));
    let crashed = w
        .job(Some(results.clone()))
        .runner()
        .ckpt(cfg(vec![time::secs(1), time::secs(3)], deadlines))
        .faults(&faults)
        .run()
    .unwrap();

    assert_eq!(crashed.killed_ranks, vec![2]);
    assert!(crashed.finished_ranks < w.n, "no rank may outlive the abort");
    assert_eq!(crashed.protocol_aborts, 0, "a confirmed death is not a deadline abort");
    // Epoch 0's manifest committed before the kill; epoch 1 never commits.
    assert_eq!(crashed.manifest_commits, 1);
    let restart = crashed.latest_restart_spec(JOB, w.n).expect("epoch 0 committed");
    assert_eq!(restart.epoch, 0);
    assert_eq!(restart.lost_nodes, vec![2], "the spec carries the attempt's dead nodes");
    let restarted = w.job(Some(results.clone())).runner().restart(restart).run().unwrap();
    assert_eq!(restarted.finished_ranks, w.n);

    let mut got = results.lock().clone();
    got.sort();
    assert_eq!(got, want, "phase-kill + manifest restart diverged from failure-free run");
}

/// A torn manifest commit demotes its epoch: every image survives, but
/// without its commit record the epoch is not a restart point and the
/// selector falls back to the previous committed epoch.
#[test]
fn torn_manifest_epochs_are_demoted_to_the_previous_manifest() {
    let w = RandomTraffic { steps: 220, ..Default::default() };
    // Pick (pure probe, no simulation) a seed that commits epoch 0's
    // manifest but tears epoch 1's.
    let torn = (0u64..10_000)
        .map(|seed| TornWrites { seed, prob: 0.5 })
        .find(|t| {
            !t.tears(&proto::manifest_name(JOB, 0)) && t.tears(&proto::manifest_name(JOB, 1))
        })
        .expect("some seed tears epoch 1's manifest but not epoch 0's");

    // Cluster-kill at 6 s: late enough that epoch 1 (issued 3 s) has fully
    // run its protocol, early enough that the job has not finished.
    let faults = FaultConfig {
        plan: FaultPlan::cluster_at(time::secs(6)),
        detect_latency: time::ms(500),
        torn_manifests: Some(torn),
        ..FaultConfig::none()
    };
    let crashed = w
        .job(None)
        .runner()
        .ckpt(cfg(vec![time::secs(1), time::secs(3)], PhaseDeadlines::none()))
        .faults(&faults)
        .run()
    .unwrap();

    assert_eq!(crashed.epochs.len(), 2);
    assert_eq!(crashed.manifest_commits, 1);
    assert_eq!(crashed.torn_manifests, 1);
    // All of epoch 1's images are intact …
    for r in 0..w.n {
        let name = gbcr_blcr::ProcessImage::object_name(JOB, 1, r);
        assert!(crashed.images.iter().any(|(k, _)| *k == name), "missing {name}");
    }
    // … but without a committed manifest the epoch is not a restart point.
    let err = crashed.restart_spec(JOB, 1, w.n).unwrap_err();
    assert!(
        matches!(&err, SimError::NoRestartPoint { job, detail }
            if job == JOB && detail.contains("no committed manifest")),
        "expected NoRestartPoint for the torn-manifest epoch, got {err:?}"
    );

    let restart = crashed.latest_restart_spec(JOB, w.n).expect("epoch 0 committed");
    assert_eq!(restart.epoch, 0);
    let restarted = w.job(None).runner().restart(restart).run().unwrap();
    assert_eq!(restarted.finished_ranks, w.n);
}
