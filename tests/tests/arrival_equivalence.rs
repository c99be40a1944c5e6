//! Arrival-time handling is an elision, not a model change (DESIGN.md
//! §3.1): with every gate broadcast, or every rendezvous handshake, forced
//! down the rank-thread path the same job produces the same everything,
//! for more resumes of the rank's coroutine (`RunReport::des`).
//!
//! Nothing selects the path but state, so the tests force it through
//! state. A phase fault aimed at an epoch that never runs installs the
//! phase hook on every controller — which has the out-of-band listener
//! stand down — and never fires. A rank that polls its request instead of
//! calling `Mpi::wait` never parks where the data-plane listener answers.

use gbcr_core::{
    CkptMode, CkptSchedule, CoordinatorCfg, Formation, JobSpec, PhaseDeadlines, RankCtx, RunReport,
};
use gbcr_des::{time, Time};
use gbcr_faults::{FaultConfig, PhaseAction, PhaseFault, ProtocolPhase};
use gbcr_mpi::{EndpointStats, Mpi, Msg};
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

/// Hold two runs of one job to the same model outputs and the same
/// callbacks, and return the resumes the first saved.
fn agree(plain: &RunReport, forced: &RunReport) -> u64 {
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
    let (plain, forced) = (plain.des, forced.des);
    assert_eq!(plain.callbacks, forced.callbacks);
    assert!(plain.resumes < forced.resumes, "{plain:?} vs {forced:?}");
    forced.resumes - plain.resumes
}

/// Run `spec` both ways, hold them to agree, and return `(resumes saved,
/// messages the listeners answered, the report)`.
fn saved(spec: &JobSpec, ckpt: &CoordinatorCfg) -> (u64, u64, RunReport) {
    let (plain, mut plain_ranks) = run(spec, ckpt, false);
    let (forced, forced_ranks) = run(spec, ckpt, true);
    let resumes_saved = agree(&plain, &forced);
    // The one thing that differs is how many messages the listeners took.
    assert!(forced_ranks.iter().all(|(.., s)| s.listener.oob == 0), "the hook stands them down");
    let answered: u64 = plain_ranks.iter().map(|(.., s)| s.listener.oob).sum();
    plain_ranks.iter_mut().for_each(|(.., s)| s.listener.oob = 0);
    assert_eq!(plain_ranks, forced_ranks);
    (resumes_saved, answered, plain)
}

/// Checkpoint groups aligned with the communication groups: no rank ever
/// holds a deferred send or is caught mid-reconnect when a gate broadcast
/// lands, so the listeners answer every one of them — one resume saved
/// per rank per `GROUP_START` and per `GROUP_DONE`.
#[test]
fn aligned_groups_every_gate_delivery_is_answered_on_arrival() {
    let (resumes_saved, answered, report) = saved(&micro(), &ckpt(CkptMode::Buffering, 8));
    let groups = report.epochs[0].plan.group_count() as u64;
    assert_eq!(groups, 4);
    assert_eq!(answered, 2 * u64::from(N) * groups);
    assert_eq!(resumes_saved, answered);
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
    let (resumes_saved, answered, report) = saved(&spec, &ckpt(CkptMode::Buffering, 4));
    let groups = report.epochs[0].plan.group_count() as u64;
    assert!(report.defer_stats.released > 0, "the cut defers traffic: {:?}", report.defer_stats);
    assert!(answered > 0 && answered < 2 * u64::from(N) * groups, "{answered}");
    assert_eq!(resumes_saved, answered);
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
    let (resumes_saved, answered, report) = saved(&micro(), &ckpt(CkptMode::Logging, 4));
    assert!(report.logged_bytes > 0);
    assert_eq!(report.defer_stats.msg_buffered + report.defer_stats.req_buffered, 0);
    assert!(answered > 0 && answered <= 2 * u64::from(N) * 8, "{answered}");
    assert_eq!(resumes_saved, answered);
}

/// The micro-benchmark's ring of 64 KB (rendezvous) messages in
/// communication groups of eight, each request completed by `Mpi::wait`
/// or, `polled`, by a loop of `Mpi::test` and `Mpi::wait_event` — the same
/// progress and the same parks, none of them `wait`'s.
fn ring(polled: bool) -> JobSpec {
    let body = Arc::new(move |ctx: RankCtx<'_>| {
        let RankCtx { p, mpi, client, .. } = ctx;
        client.set_footprint(180 << 20);
        let rank = mpi.rank();
        let (base, at) = (rank / 8 * 8, rank % 8);
        let (right, left) = (base + (at + 1) % 8, base + (at + 7) % 8);
        let complete = |req| {
            if !polled {
                return mpi.wait(p, req);
            }
            loop {
                if let Some(done) = mpi.test(p, req) {
                    break done;
                }
                mpi.wait_event(p);
            }
        };
        for step in 0..50u32 {
            client.set_state(step.to_le_bytes().to_vec().into());
            client.mark_dirty(180 << 14);
            mpi.compute(p, time::ms(200));
            let s = mpi.isend(p, right, step, Msg::bulk(64 << 10));
            let r = mpi.irecv(p, Some(left), step);
            assert_eq!(complete(r).expect("a receive").size, 64 << 10);
            complete(s);
        }
    });
    JobSpec::new("ring", N, body)
}

/// Run the ring both ways under a checkpoint in groups of `group_size`,
/// hold them to agree, and return `(resumes saved, handshakes answered, the
/// report)`.
fn handshakes_saved(group_size: u32) -> (u64, u64, RunReport) {
    let ckpt = ckpt(CkptMode::Buffering, group_size);
    let (waited, mut waited_ranks) = run(&ring(false), &ckpt, false);
    let (polled, polled_ranks) = run(&ring(true), &ckpt, false);
    let resumes_saved = agree(&waited, &polled);
    assert!(polled_ranks.iter().all(|(.., s)| s.listener.handshakes == 0), "nobody waits");
    let answered: u64 = waited_ranks.iter().map(|(.., s)| s.listener.handshakes).sum();
    waited_ranks.iter_mut().for_each(|(.., s)| s.listener.handshakes = 0);
    assert_eq!(waited_ranks, polled_ranks);
    (resumes_saved, answered, waited)
}

/// Checkpoint groups aligned with the communication groups: the gate never
/// holds ring traffic back, and every handshake answered is a resume saved.
#[test]
fn handshakes_answered_in_wait_aligned_groups() {
    let (resumes_saved, answered, report) = handshakes_saved(8);
    assert_eq!(report.defer_stats.msg_buffered + report.defer_stats.req_buffered, 0);
    assert_eq!(resumes_saved, answered);
}

/// Checkpoint groups of four cut every ring in two: the gate defers RTS,
/// CTS and DATA across the cut, and an answered handshake can be one.
/// Deferred traffic is released in bursts, and three times a rank's RTS
/// and CTS land in the same nanosecond: the thread, woken once, takes both
/// in one resume, so those six answers save three resumes.
#[test]
fn handshakes_answered_in_wait_straddling_groups() {
    let (resumes_saved, answered, report) = handshakes_saved(4);
    assert!(
        report.defer_stats.req_buffered > 0,
        "the cut defers traffic: {:?}",
        report.defer_stats
    );
    assert_eq!(answered - resumes_saved, 3, "{answered} answered, {resumes_saved} resumes saved");
}
