//! Supervised execution: multiple injected cluster failures, automatic
//! restart from the newest surviving checkpoint each time, final result
//! identical to a failure-free run.

use gbcr_core::{
    CkptMode, CkptSchedule, CoordinatorCfg, Formation, SupervisePolicy,
};
use gbcr_des::{time, TraceLevel};
use gbcr_workloads::RandomTraffic;
use parking_lot::Mutex;
use std::sync::Arc;

fn cfg(at: Vec<gbcr_des::Time>) -> CoordinatorCfg {
    CoordinatorCfg {
        job: "random-traffic".into(),
        mode: CkptMode::Buffering,
        formation: Formation::Static { group_size: 4 },
        schedule: CkptSchedule { at },
        incremental: false,
        deadlines: gbcr_core::PhaseDeadlines::none(),
        election: Default::default(),
    }
}

#[test]
fn survives_two_cluster_failures_and_finishes_exactly() {
    let w = RandomTraffic { steps: 220, ..Default::default() };
    let truth = Arc::new(Mutex::new(Vec::new()));
    w.job(Some(truth.clone())).runner().run().unwrap();
    let mut want = truth.lock().clone();
    want.sort();

    let results = Arc::new(Mutex::new(Vec::new()));
    let report = w
        .job(Some(results.clone()))
        .runner()
        .ckpt(cfg(vec![time::secs(1), time::secs(3), time::secs(5)]))
        .supervised(SupervisePolicy::immediate())
        // Crash twice: once after epoch 0 completed (~3 s), once in the
        // restored attempt after its own first epochs.
        .crashes(&[time::ms(3500), time::ms(4800)])
        .unwrap();

    assert_eq!(report.failures_survived(), 2);
    assert_eq!(report.attempts.len(), 3);
    assert!(report.attempts[0].crashed_at.is_some());
    assert_eq!(report.attempts[0].restored_from, None);
    assert!(report.attempts[1].restored_from.is_some());
    assert!(report.attempts.last().unwrap().finished);

    // Only the final attempt's ranks push results (earlier attempts died
    // before their bodies completed).
    let mut got = results.lock().clone();
    got.sort();
    assert_eq!(got, want, "supervised recovery diverged from the truth");
}

/// `.traced()` survives `.supervised()`: every attempt is traced, and the
/// final report carries the last attempt's trace.
#[test]
fn supervised_runs_keep_the_trace_level() {
    let w = RandomTraffic { steps: 220, ..Default::default() };
    let report = w
        .job(None)
        .runner()
        .ckpt(cfg(vec![time::secs(1), time::secs(3), time::secs(5)]))
        .traced(TraceLevel::Phases)
        .supervised(SupervisePolicy::immediate())
        .crashes(&[time::ms(3500)])
        .unwrap();
    assert_eq!(report.attempts.len(), 2);
    let last = &report.final_report;
    let trace = last.trace.as_deref().expect("the final attempt is traced");
    assert!(!last.phase_stats.is_empty());
    assert_eq!(trace.spans_named("blcr.restart").len(), w.n as usize, "a restored attempt");
    assert!(trace.instants_named("crash").is_empty(), "the crashed attempt's trace is not kept");
}

/// The running loop charges `SupervisePolicy::backoff_after_failure`: 5 s
/// after the first failure, doubled after each further one.
#[test]
fn default_policy_backs_off_5_10_20_s_over_three_crashes() {
    let w = RandomTraffic { steps: 220, ..Default::default() };
    let report = w
        .job(None)
        .runner()
        .ckpt(cfg(vec![time::secs(1), time::secs(3), time::secs(5)]))
        .supervised(SupervisePolicy::default())
        .crashes(&[time::ms(3500), time::ms(4800), time::ms(4800)])
        .unwrap();
    assert_eq!(report.failures_survived(), 3);
    assert_eq!(report.total_backoff, time::secs(5 + 10 + 20));
    let attempts: gbcr_des::Time = report.attempts.iter().map(|a| a.wall).sum();
    assert_eq!(report.total_wall, attempts + report.total_backoff);
}

#[test]
fn crash_before_any_checkpoint_is_fatal() {
    let w = RandomTraffic { steps: 220, ..Default::default() };
    let err = w
        .job(None)
        .runner()
        .ckpt(cfg(vec![time::secs(3)]))
        .supervised(SupervisePolicy::immediate())
        .crashes(&[time::ms(500)]) // long before epoch 0 completes
        .unwrap_err();
    assert!(
        matches!(&err, gbcr_des::SimError::NoRestartPoint { detail, .. }
            if detail.contains("preceded the first complete checkpoint")),
        "expected NoRestartPoint, got {err:?}"
    );
}

/// Chandy-Lamport and uncoordinated epochs never commit a manifest (their
/// image sets are not consistent cuts without the channel logs), so a
/// supervisor never restores from them: a crash after a full image set is
/// on storage is still `NoRestartPoint`, or a cold restart per policy.
#[test]
fn unmanifested_modes_are_never_restart_points() {
    let w = RandomTraffic { steps: 900, ..Default::default() };
    for mode in [CkptMode::Uncoordinated, CkptMode::ChandyLamport] {
        let ckpt = CoordinatorCfg { mode, ..cfg(vec![time::secs(1)]) };
        // 20 s: epoch 0 finished (15.5 s uncoordinated, 2.4 s CL), the job
        // (27–31 s) has not.
        let crash = [time::secs(20)];
        let crashed =
            w.job(None).runner().ckpt(ckpt.clone()).crash_at(crash[0]).run().unwrap();
        assert_eq!(crashed.epochs.len(), 1, "{mode:?}: epoch 0 must have run");
        assert_eq!(crashed.manifest_commits, 0);
        assert!(crashed.latest_restart_spec("random-traffic", w.n).is_none());

        let err = w
            .job(None)
            .runner()
            .ckpt(ckpt.clone())
            .supervised(SupervisePolicy::immediate())
            .crashes(&crash)
            .unwrap_err();
        assert!(
            matches!(err, gbcr_des::SimError::NoRestartPoint { .. }),
            "{mode:?}: expected NoRestartPoint, got {err:?}"
        );

        let cold = SupervisePolicy { cold_restart: true, ..SupervisePolicy::immediate() };
        let report = w.job(None).runner().ckpt(ckpt).supervised(cold).crashes(&crash).unwrap();
        assert_eq!(report.attempts.len(), 2);
        assert!(report.attempts.iter().all(|a| a.restored_from.is_none()), "{mode:?}");
        assert!(report.attempts[1].finished);
    }
}
