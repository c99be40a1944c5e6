//! Golden tests for the structured tracing pipeline: the 4-rank smoke's
//! exported Chrome/Perfetto JSON must be schema-valid with properly
//! nested spans and full protocol-phase coverage, and tracing must be a
//! pure observer — a traced run's simulation results are identical to an
//! untraced run of the same job.

use gbcr_bench::trace::{check_chrome_json, trace_smoke, COORDINATOR_PHASES};
use gbcr_core::{
    CkptMode, CkptSchedule, CoordinatorCfg, ElectionCfg, Formation, JobRunner, JobSpec,
    PhaseDeadlines, StoreBackend,
};
use gbcr_des::trace::perfetto;
use gbcr_des::{time, TraceData, TraceLevel, Track};
use gbcr_faults::{FaultConfig, FaultKind, FaultPlan};
use gbcr_storage::MB;
use gbcr_workloads::{MicroBench, RandomTraffic};
use std::sync::Arc;

fn smoke_spec() -> (JobSpec, CoordinatorCfg) {
    let mb = MicroBench {
        n: 4,
        comm_group_size: 2,
        footprint: 40 * MB,
        steps: 60,
        ..Default::default()
    };
    let cfg = CoordinatorCfg {
        job: "micro".into(),
        mode: CkptMode::Buffering,
        formation: Formation::Static { group_size: 2 },
        schedule: CkptSchedule::once(time::secs(3)),
        incremental: false,
        deadlines: PhaseDeadlines::none(),
        election: Default::default(),
    };
    (mb.job(), cfg)
}

/// The exported smoke trace is valid Perfetto JSON: it parses back, every
/// span row nests, all five coordinator phases are present and covered by
/// the epoch span, and connection/storage activity has spans.
#[test]
fn smoke_trace_exports_valid_perfetto_json() {
    let report = trace_smoke();
    let data = report.trace.as_deref().expect("traced run records data");
    let json = perfetto::to_chrome_json(data);

    let trace = perfetto::parse_chrome_json(&json).expect("exported JSON parses back");
    assert!(trace.well_nested(), "span rows must nest or be disjoint");

    // One epoch span on the coordinator row, covering every phase span.
    let epochs: Vec<_> = trace.spans_named("epoch").collect();
    assert_eq!(epochs.len(), 1, "one checkpoint epoch in the smoke");
    let (e0, e1) = (epochs[0].ts_ns, epochs[0].ts_ns + epochs[0].dur_ns);
    for phase in COORDINATOR_PHASES {
        let spans: Vec<_> = trace.spans_named(phase).collect();
        assert!(!spans.is_empty(), "missing coordinator phase {phase}");
        for s in spans {
            assert!(
                s.ts_ns >= e0 && s.ts_ns + s.dur_ns <= e1,
                "{phase} span [{}, {}] escapes epoch [{e0}, {e1}]",
                s.ts_ns,
                s.ts_ns + s.dur_ns
            );
        }
    }
    // Two groups of two ranks -> two phase.checkpoint windows, and every
    // rank writes one image through the storage model.
    assert_eq!(trace.spans_named("phase.checkpoint").count(), 2);
    assert_eq!(trace.spans_named("storage.write").count(), 4);
    assert!(trace.spans_named("net.connect").next().is_some());
    assert!(trace.spans_named("net.teardown").next().is_some());
    assert!(trace.spans_named("rank.checkpoint").count() == 4);

    // The bundled checker agrees with the explicit assertions above.
    let chk = check_chrome_json(&json).expect("valid");
    assert!(chk.ok(), "{chk:?}");
}

/// Run `runner` untraced and traced at `Full` and demand the same
/// `RunReport` apart from the two fields only a traced run fills
/// (`WallNanos` host timings print as `..`). Returns the trace.
fn traced_matches_untraced(runner: JobRunner<'_>) -> Arc<TraceData> {
    let plain = runner.clone().run().expect("untraced run");
    let mut traced = runner.traced(TraceLevel::Full).run().expect("traced run");
    assert!(plain.trace.is_none() && plain.phase_stats.is_empty());
    assert!(!traced.phase_stats.is_empty());
    traced.phase_stats.clear();
    let trace = traced.trace.take().expect("traced run records data");
    assert_eq!(format!("{plain:?}"), format!("{traced:?}"), "tracing changed the report");
    trace
}

/// Tracing is a pure observer: a run traced at `Full` produces exactly
/// the same report as an untraced run of the same job.
#[test]
fn traced_run_is_identical_to_untraced() {
    let (spec, cfg) = smoke_spec();
    traced_matches_untraced(spec.runner().ckpt(cfg));
}

/// The same at `Full` through every instrumented layer: a failover, a
/// node kill and replicated images put scheduler, fabric, MPI,
/// control-plane, fault and storage instants into one trace.
#[test]
fn faulted_replicated_run_traces_every_layer_without_changing_it() {
    let n = 4;
    let mut spec = RandomTraffic { n, steps: 150, ..RandomTraffic::default() }.job(None);
    spec.backend = StoreBackend::Replicated { replicas: 2 };
    let cfg = CoordinatorCfg {
        job: "traced-faults".into(),
        mode: CkptMode::Buffering,
        formation: Formation::Static { group_size: 2 },
        schedule: CkptSchedule { at: vec![time::secs(1), time::secs(3)] },
        incremental: false,
        deadlines: PhaseDeadlines::none(),
        election: ElectionCfg::failover(7),
    };
    let mut plan = FaultPlan::coordinator_kill_at(time::ms(1_500));
    plan.push(time::secs(4), FaultKind::NodeKill { rank: 2 });
    let faults = FaultConfig { plan, ..FaultConfig::none() };
    let trace = traced_matches_untraced(spec.runner().ckpt(cfg).faults(&faults));
    for name in [
        "sched.wake",
        "net.deliver",
        "net.flap",
        "mpi.node_failed",
        "fault.node_kill",
        "storage.commit",
        "fault.coordinator_kill",
        "election.won",
        "storage.replicate",
        "storage.node_lost",
    ] {
        assert!(!trace.instants_named(name).is_empty(), "no {name} instant");
    }
}

/// With a static control plane a coordinator kill aborts the job from
/// the coordinator's row, and no record lands on a rank row past the
/// world (the kill's victim is no rank).
#[test]
fn coordinator_abort_stays_on_the_coordinator_row() {
    let n = 4;
    let spec = RandomTraffic { n, steps: 150, ..RandomTraffic::default() }.job(None);
    let (_, mut cfg) = smoke_spec();
    cfg.election = ElectionCfg::disabled();
    let faults = FaultConfig {
        plan: FaultPlan::coordinator_kill_at(time::ms(1_500)),
        ..FaultConfig::none()
    };
    let r = spec.runner().ckpt(cfg).faults(&faults).traced(TraceLevel::Phases).run().unwrap();
    assert!(r.finished_ranks < n, "a static control plane cannot survive the kill");
    let data = r.trace.as_deref().expect("trace recorded");
    let aborts = data.instants_named("fault.abort");
    assert_eq!(aborts.len(), 1);
    assert_eq!(aborts[0].track, Track::Coordinator);
    let tracks = data.spans.iter().map(|s| s.track).chain(data.instants.iter().map(|i| i.track));
    for track in tracks {
        assert!(!matches!(track, Track::Rank(r) if r >= n), "record on phantom row {track:?}");
    }
}

/// `Phases` level keeps protocol spans but drops the per-message MPI and
/// scheduler detail `Full` adds.
#[test]
fn phases_level_drops_per_message_detail() {
    let (spec, cfg) = smoke_spec();
    let r = spec.runner().ckpt(cfg).traced(TraceLevel::Phases).run().expect("traced run");
    let data = r.trace.as_deref().expect("trace recorded");
    assert!(!data.spans_named("rank.checkpoint").is_empty());
    assert!(data.spans_named("mpi.send").is_empty(), "no per-message spans at Phases");
    assert!(data.spans_named("mpi.recv").is_empty());
    assert!(data.instants_named("sched.wake").is_empty(), "no scheduler detail at Phases");
}
