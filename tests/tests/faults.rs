//! Fault-injection integration: single-node kills, torn checkpoint
//! images, byte-level determinism of supervised faulted runs, the firing
//! order of timed faults, and the rejection of configs that name ranks
//! the job does not have.

use gbcr_blcr::ProcessImage;
use gbcr_core::{
    CkptMode, CkptSchedule, CoordinatorCfg, Formation, JobSpec, RankCtx, SupervisePolicy,
};
use gbcr_des::trace::arg;
use gbcr_des::{time, ArgValue, SimError, Time, TraceLevel, Track};
use gbcr_faults::{
    FaultConfig, FaultKind, FaultPlan, PhaseAction, PhaseFault, ProtocolPhase, StochasticFaults,
    TornWrites, DETECT_LATENCY,
};
use gbcr_workloads::RandomTraffic;
use parking_lot::Mutex;
use std::sync::Arc;

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

/// A mid-epoch node kill aborts the run, the report pins the victim and
/// the last complete epoch, and a restart from that epoch finishes with
/// results identical to a failure-free run.
#[test]
fn node_kill_mid_epoch_restarts_from_last_committed_epoch() {
    let w = RandomTraffic { steps: 220, ..Default::default() };
    let truth = Arc::new(Mutex::new(Vec::new()));
    w.job(Some(truth.clone())).runner().run().unwrap();
    let mut want = truth.lock().clone();
    want.sort();

    // Kill rank 2 at 3.5 s: epoch 0 (issued 1 s) is durable, epoch 1
    // (issued 3 s) is still in flight.
    let faults = FaultConfig {
        plan: FaultPlan::node_kill_at(time::ms(3500), 2),
        torn: None,
        ..FaultConfig::none()
    };
    let results = Arc::new(Mutex::new(Vec::new()));
    let crashed = w
        .job(Some(results.clone()))
        .runner()
        .ckpt(cfg(vec![time::secs(1), time::secs(3), time::secs(5)]))
        .faults(&faults)
        .run()
        .unwrap();

    assert_eq!(crashed.killed_ranks, vec![2]);
    assert!(crashed.finished_ranks < w.n, "no rank may outlive the abort");
    // The kill + detection bound the aborted run's extent.
    assert!(crashed.sim_end >= time::ms(3500) && crashed.sim_end < time::secs(6));
    let restart = crashed.latest_restart_spec(JOB, w.n).expect("epoch 0 committed");
    assert_eq!(restart.epoch, 0);
    let restarted = w.job(Some(results.clone())).runner().restart(restart).run().unwrap();
    assert_eq!(restarted.finished_ranks, w.n);

    // Only the restarted attempt's ranks pushed results.
    let mut got = results.lock().clone();
    got.sort();
    assert_eq!(got, want, "kill + restart diverged from the failure-free run");
}

/// A torn image write leaves its epoch incomplete: the epoch is reported
/// by the coordinator but restart skips it and falls back to the previous
/// complete one.
#[test]
fn torn_image_epochs_are_skipped_on_restart() {
    let w = RandomTraffic { steps: 220, ..Default::default() };
    // Pick (pure probe, no simulation) a torn-write seed that leaves every
    // epoch-0 image intact but tears at least one epoch-1 image.
    let torn = (0u64..10_000)
        .map(|seed| TornWrites { seed, prob: 0.3 })
        .find(|t| {
            (0..w.n).all(|r| !t.tears(&ProcessImage::object_name(JOB, 0, r)))
                && (0..w.n).any(|r| t.tears(&ProcessImage::object_name(JOB, 1, r)))
        })
        .expect("some seed tears epoch 1 but not epoch 0");

    // Cluster-kill at 6 s: late enough that epoch 1 (issued 3 s) has fully
    // run its protocol, early enough that the job has not finished.
    let faults = FaultConfig {
        plan: FaultPlan::cluster_at(time::secs(6)),
        torn: Some(torn),
        ..FaultConfig::none()
    };
    let crashed = w
        .job(None)
        .runner()
        .ckpt(cfg(vec![time::secs(1), time::secs(3)]))
        .faults(&faults)
        .run()
        .unwrap();

    // Both epochs ran protocol-wise, but the torn write keeps epoch 1 from
    // ever becoming a restart point.
    assert_eq!(crashed.epochs.len(), 2);
    let err = crashed.restart_spec(JOB, 1, w.n).unwrap_err();
    assert!(
        matches!(&err, SimError::NoRestartPoint { job, detail }
            if job == JOB && detail.contains("epoch 1 has no committed manifest")),
        "expected NoRestartPoint for the torn epoch, got {err:?}"
    );

    let restart = crashed.latest_restart_spec(JOB, w.n).expect("epoch 0 committed");
    assert_eq!(restart.epoch, 0);
    let restarted = w.job(None).runner().restart(restart).run().unwrap();
    assert_eq!(restarted.finished_ranks, w.n);
}

/// The full supervised faulted loop is deterministic: identical seeds give
/// byte-identical reports, and the scenario actually exercises a restart.
#[test]
fn identical_seeds_give_byte_identical_supervised_reports() {
    let w = RandomTraffic { steps: 220, ..Default::default() };
    // Pure probe: find a fault seed whose first kill lands mid-run, so the
    // determinism check covers kill → abort → restart, not a clean finish.
    // The per-node MTBF of 60 s (cluster MTBF 7.5 s) keeps later attempts
    // likely to outrun their kill draws, so the loop converges well within
    // the default retry budget.
    let seed = (0u64..10_000)
        .find(|&s| {
            let f = StochasticFaults::kills(s, time::secs(60));
            let (at, _) = f.first_kill(0, w.n);
            at > time::secs(2) && at < time::secs(5)
        })
        .expect("some seed kills mid-run");
    let faults = StochasticFaults {
        link_flap_mtbf: Some(time::secs(5)),
        torn_write_prob: 0.05,
        ..StochasticFaults::kills(seed, time::secs(60))
    };
    let ckpt = cfg(vec![time::secs(1), time::secs(3), time::secs(5)]);
    let policy = SupervisePolicy::default();

    let a = w
        .job(None)
        .runner()
        .ckpt(ckpt.clone())
        .supervised(policy.clone())
        .stochastic(&faults)
        .unwrap();
    let b = w.job(None).runner().ckpt(ckpt).supervised(policy.clone()).stochastic(&faults).unwrap();

    assert!(a.attempts.len() >= 2, "the seeded kill must force at least one restart");
    assert!(a.attempts.last().unwrap().finished);
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seeds, different reports");
}

/// Four ranks that compute for 50 ms and do nothing else: alive, and the
/// job not yet over, for every fault below.
fn idle_job() -> JobSpec {
    JobSpec::new("idle", 4, Arc::new(|ctx: RankCtx| ctx.mpi.compute(ctx.p, time::ms(50))))
}

/// Timed faults fire in time order whatever order they were planned in,
/// and faults planned for one instant fire in plan order.
#[test]
fn timed_faults_fire_in_time_then_plan_order() {
    let mut plan = FaultPlan::none();
    plan.push(time::ms(30), FaultKind::LinkFlap { a: 0, b: 1 });
    plan.push(time::ms(10), FaultKind::LinkFlap { a: 2, b: 3 });
    plan.push(time::ms(20), FaultKind::LinkFlap { a: 1, b: 2 });
    plan.push(time::ms(20), FaultKind::LinkFlap { a: 3, b: 0 });
    let faults = FaultConfig { plan, ..FaultConfig::none() };
    let report = idle_job().runner().faults(&faults).traced(TraceLevel::Phases).run().unwrap();
    let flaps: Vec<(Time, Track, u64)> = report
        .trace
        .expect("traced run records data")
        .instants
        .iter()
        .filter(|i| i.name == "fault.link_flap")
        .map(|i| match arg(&i.args, "peer") {
            Some(&ArgValue::U64(peer)) => (i.time, i.track, peer),
            other => panic!("link flap without a peer: {other:?}"),
        })
        .collect();
    assert_eq!(
        flaps,
        vec![
            (time::ms(10), Track::Node(2), 3),
            (time::ms(20), Track::Node(1), 2),
            (time::ms(20), Track::Node(3), 0),
            (time::ms(30), Track::Node(0), 1),
        ]
    );
}

/// A node kill armed through `FaultConfig::none()`'s defaults aborts the
/// survivors once the failure detector notices, `DETECT_LATENCY` after the
/// kill, not at the kill's own instant; the report names the victims in
/// the order they died.
#[test]
fn a_node_kill_aborts_the_survivors_after_the_detection_latency() {
    let mut plan = FaultPlan::node_kill_at(time::ms(10), 3);
    plan.push(time::ms(11), FaultKind::NodeKill { rank: 1 });
    let faults = FaultConfig { plan, ..FaultConfig::none() };
    let report = idle_job().runner().faults(&faults).traced(TraceLevel::Phases).run().unwrap();
    assert_eq!(report.killed_ranks, vec![3, 1]);
    let aborts: Vec<(Time, Track)> = report
        .trace
        .expect("traced run records data")
        .instants
        .iter()
        .filter(|i| i.name == "fault.abort")
        .map(|i| (i.time, i.track))
        .collect();
    assert_eq!(
        aborts,
        vec![
            (time::ms(10) + DETECT_LATENCY, Track::Rank(3)),
            (time::ms(11) + DETECT_LATENCY, Track::Rank(1)),
        ]
    );
}

/// A node kill of a rank that is already dead does nothing: the victim is
/// killed, named and mourned once, and the run ends when the single kill's
/// abort lands, not a detection latency after the second kill.
#[test]
fn a_node_kill_of_a_dead_rank_does_nothing() {
    let mut plan = FaultPlan::node_kill_at(time::ms(10), 3);
    plan.push(time::ms(12), FaultKind::NodeKill { rank: 3 });
    let faults = FaultConfig { plan, ..FaultConfig::none() };
    let report = idle_job().runner().faults(&faults).traced(TraceLevel::Phases).run().unwrap();
    assert_eq!(report.killed_ranks, vec![3]);
    assert_eq!(report.sim_end, time::ms(10) + DETECT_LATENCY);
    let faults: Vec<(&str, Time)> = report
        .trace
        .as_ref()
        .expect("traced run records data")
        .instants
        .iter()
        .filter(|i| i.name.starts_with("fault."))
        .map(|i| (i.name, i.time))
        .collect();
    assert_eq!(
        faults,
        vec![("fault.node_kill", time::ms(10)), ("fault.abort", time::ms(10) + DETECT_LATENCY)]
    );
}

/// Run `idle_job` under `faults`, which must be rejected before anything
/// is simulated.
fn rejected(faults: FaultConfig) -> String {
    match idle_job().runner().faults(&faults).run() {
        Err(SimError::InvalidFaults { detail }) => detail,
        other => panic!("malformed faults accepted: {other:?}"),
    }
}

fn plan_of(kind: FaultKind) -> FaultConfig {
    let mut plan = FaultPlan::none();
    plan.push(time::ms(5), kind);
    FaultConfig { plan, ..FaultConfig::none() }
}

#[test]
fn a_node_kill_past_the_last_rank_is_rejected() {
    let detail = rejected(plan_of(FaultKind::NodeKill { rank: 4 }));
    assert_eq!(detail, "node kill of rank 4 in a 4-rank job");
}

#[test]
fn a_link_flap_from_a_rank_to_itself_is_rejected() {
    let detail = rejected(plan_of(FaultKind::LinkFlap { a: 1, b: 1 }));
    assert_eq!(detail, "link flap 1-1 in a 4-rank job");
}

#[test]
fn a_link_flap_past_the_last_rank_is_rejected() {
    let detail = rejected(plan_of(FaultKind::LinkFlap { a: 4, b: 0 }));
    assert_eq!(detail, "link flap 4-0 in a 4-rank job");
}

#[test]
fn a_phase_fault_past_the_last_rank_is_rejected() {
    let detail = rejected(FaultConfig {
        phase_faults: vec![PhaseFault {
            epoch: 0,
            phase: ProtocolPhase::Begin,
            rank: 4,
            action: PhaseAction::Kill,
        }],
        ..FaultConfig::none()
    });
    assert_eq!(detail, "phase fault on rank 4 in a 4-rank job");
}
