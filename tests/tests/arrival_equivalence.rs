//! Arrival-time handling is an elision, not a model change (DESIGN.md
//! §3.1): with every gate broadcast forced down the rank-thread path the
//! same job produces the same everything, for more events.
//!
//! Nothing selects the path but state, so the test forces it through
//! state: a phase fault aimed at an epoch that never runs installs the
//! phase hook on every controller — which has the listener stand down —
//! and never fires.

use gbcr_core::{
    CkptMode, CkptSchedule, CoordinatorCfg, Formation, JobSpec, PhaseDeadlines, RankCtx, RunReport,
};
use gbcr_des::{time, Time};
use gbcr_faults::{FaultConfig, PhaseAction, PhaseFault, ProtocolPhase};
use gbcr_mpi::{EndpointStats, Mpi};
use gbcr_workloads::MicroBench;
use parking_lot::Mutex;
use std::sync::Arc;

const N: u32 = 32;

/// Communication groups of eight, a checkpoint at 3 s into a 10 s run.
fn micro() -> JobSpec {
    MicroBench { n: N, comm_group_size: 8, steps: 50, ..Default::default() }.job()
}

fn ckpt(mode: CkptMode, group_size: u32) -> CoordinatorCfg {
    CoordinatorCfg {
        job: "micro".into(),
        mode,
        formation: Formation::Static { group_size },
        schedule: CkptSchedule::once(time::secs(3)),
        incremental: false,
        deadlines: PhaseDeadlines::none(),
        election: Default::default(),
    }
}

/// What one run produced, per rank: when its body finished and its
/// runtime's final counters.
type PerRank = Vec<(u32, Time, EndpointStats)>;

fn run(spec: &JobSpec, ckpt: &CoordinatorCfg, thread_only: bool) -> (RunReport, PerRank) {
    let ends: Arc<Mutex<Vec<Time>>> = Arc::new(Mutex::new(vec![0; N as usize]));
    let (body, sink) = (spec.body.clone(), ends.clone());
    let mut spec = spec.clone();
    spec.body = Arc::new(move |ctx: RankCtx<'_>| {
        let (p, rank) = (ctx.p, ctx.mpi.rank());
        body(ctx);
        sink.lock()[rank as usize] = p.now();
    });
    let never = FaultConfig {
        phase_faults: vec![PhaseFault {
            epoch: 99,
            phase: ProtocolPhase::GroupStart,
            rank: 0,
            action: PhaseAction::Kill,
        }],
        ..FaultConfig::none()
    };
    let runner = spec.runner().ckpt(ckpt.clone());
    let runner = if thread_only { runner.faults(&never) } else { runner };
    // Read after the run: the protocol outlives the bodies.
    let mut stats = Vec::new();
    let report = runner.run_with(|mpis| stats = mpis.iter().map(Mpi::stats).collect()).unwrap();
    assert_eq!(report.finished_ranks, N);
    assert!(report.killed_ranks.is_empty());
    let ends = ends.lock().clone();
    let per_rank = (0..N).zip(ends).zip(stats).map(|((r, end), s)| (r, end, s)).collect();
    (report, per_rank)
}

/// Run `spec` both ways, hold them to agree, and return `(events saved,
/// messages the listeners answered, the report)`.
fn saved(spec: &JobSpec, ckpt: &CoordinatorCfg) -> (u64, u64, RunReport) {
    let (plain, mut plain_ranks) = run(spec, ckpt, false);
    let (forced, forced_ranks) = run(spec, ckpt, true);
    assert_eq!(plain.completion, forced.completion);
    assert_eq!(plain.sim_end, forced.sim_end);
    // Every `EpochReport` field — instants, plan, `individuals` — and every
    // rank's record of the epoch.
    assert_eq!(format!("{:?}", plain.epochs), format!("{:?}", forced.epochs));
    assert_eq!(plain.rank_records, forced.rank_records);
    assert_eq!(plain.net_stats, forced.net_stats);
    assert_eq!(plain.defer_stats, forced.defer_stats);
    assert_eq!(plain.logged_bytes, forced.logged_bytes);
    assert_eq!(plain.elided_wakes, forced.elided_wakes);
    assert_eq!(format!("{:?}", plain.storage_stats), format!("{:?}", forced.storage_stats));
    assert_eq!(plain.procs_spawned, forced.procs_spawned);
    // The one thing that differs is how many messages the listeners took.
    assert!(forced_ranks.iter().all(|(.., s)| s.arrival_handled == 0), "the hook stands them down");
    let answered: u64 = plain_ranks.iter().map(|(.., s)| s.arrival_handled).sum();
    plain_ranks.iter_mut().for_each(|(.., s)| s.arrival_handled = 0);
    assert_eq!(plain_ranks, forced_ranks);
    assert!(plain.events < forced.events, "{} vs {}", plain.events, forced.events);
    (forced.events - plain.events, answered, plain)
}

/// Checkpoint groups aligned with the communication groups: no rank ever
/// holds a deferred send or is caught mid-reconnect when a gate broadcast
/// lands, so the listeners answer every one of them — one resume saved
/// per rank per `GROUP_START` and per `GROUP_DONE`.
#[test]
fn aligned_groups_every_gate_delivery_is_answered_on_arrival() {
    let (events_saved, answered, report) = saved(&micro(), &ckpt(CkptMode::Buffering, 8));
    let groups = report.epochs[0].plan.group_count() as u64;
    assert_eq!(groups, 4);
    assert_eq!(answered, 2 * u64::from(N) * groups);
    assert_eq!(events_saved, answered);
    assert_eq!(report.defer_stats.msg_buffered + report.defer_stats.req_buffered, 0);
}

/// Checkpoint groups of four cut every communication group in two: ring
/// traffic across the cut is deferred, and the `GROUP_DONE` that releases
/// it is the thread's (it sends, and reconnects first). Both paths in one
/// run.
#[test]
fn straddling_groups_some_gate_deliveries_decline() {
    // A fine, odd slice lattice: where an answered message re-anchors it
    // decides which boundaries flush requests serve and how many pass by.
    let mut spec = micro();
    spec.mpi.progress_interval = time::ms(7);
    let (events_saved, answered, report) = saved(&spec, &ckpt(CkptMode::Buffering, 4));
    let groups = report.epochs[0].plan.group_count() as u64;
    assert!(report.defer_stats.released > 0, "the cut defers traffic: {:?}", report.defer_stats);
    assert!(answered > 0 && answered < 2 * u64::from(N) * groups, "{answered}");
    assert_eq!(events_saved, answered);
}

/// Without the helper thread compute is not sliced: no demand wake is
/// ever armed and there is no lattice to move.
#[test]
fn helper_thread_off() {
    let mut spec = micro();
    spec.mpi.helper_thread = false;
    for group_size in [8, 4] {
        let (_, answered, report) = saved(&spec, &ckpt(CkptMode::Buffering, group_size));
        assert!(answered > 0);
        assert_eq!(report.elided_wakes, 0);
    }
}

/// The logging ablation runs the same grouped protocol with every gate
/// open: nothing is ever deferred, so a broadcast is the listener's unless
/// it catches the rank away from its mailbox (copying into the log,
/// reconnecting after its checkpoint).
#[test]
fn logging_mode() {
    let (events_saved, answered, report) = saved(&micro(), &ckpt(CkptMode::Logging, 4));
    assert!(report.logged_bytes > 0);
    assert_eq!(report.defer_stats.msg_buffered + report.defer_stats.req_buffered, 0);
    assert!(answered > 0 && answered <= 2 * u64::from(N) * 8, "{answered}");
    assert_eq!(events_saved, answered);
}
