//! Survivable control plane: lease-based coordinator liveness and a
//! deterministic failover election.
//!
//! The paper's global C/R coordinator (the `mpirun` console) is a single
//! point of failure: §2.2's framework restarts the *job* when a compute
//! node dies, but nothing in the original design survives the death of the
//! console node itself. This module adds the standard engineering answer —
//! leases plus leader election — rebuilt on the simulated out-of-band
//! plane so its cost and its failure windows are measurable:
//!
//! * Every rank hosts a lightweight **standby** agent at
//!   [`gbcr_mpi::standby_node`]`(r)`. The current leader renews a lease by
//!   heartbeating all standbys from a dedicated emitter process.
//! * A standby whose lease lapses contests the next **term**. Expiries are
//!   staggered by rank (plus a small deterministic jitter from the
//!   [`Domain::Election`](gbcr_faults::rng::Domain) stream), so the lowest
//!   surviving rank campaigns first and wins — elections are
//!   deterministic, not raced.
//! * A candidate needs a **majority of the surviving ranks** (vote-once
//!   per term), so two leaders can never coexist in one term.
//! * The winner binds the [`gbcr_mpi::COORDINATOR_NODE`] service address,
//!   runs a `RECONCILE` round to rebuild the dead coordinator's
//!   bookkeeping (finished set, half-open epoch), aborts any half-open
//!   epoch attempt through the existing `ABORT_EPOCH` machinery, and
//!   resumes the checkpoint schedule past the newest committed manifest —
//!   **without** escalating to the supervisor.
//!
//! With [`ElectionCfg::disabled`] (the default) none of this machinery is
//! even spawned, so existing runs stay byte-identical.

use crate::coordinator::{CoordBody, CoordCtx};
use crate::proto;
use gbcr_des::{time, ArgValue, Proc, ProcId, SimHandle, Time, Track};
use gbcr_faults::rng::{draw_u64, Domain};
use gbcr_mpi::{standby_node, OobMsg, COORDINATOR_NODE};
use gbcr_net::Endpoint;
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;

/// Lease renewal period of the heartbeat emitter.
pub(crate) const HEARTBEAT_EVERY: Time = time::ms(250);
/// How long a standby tolerates heartbeat silence before its lease lapses.
pub(crate) const LEASE_TIMEOUT: Time = time::secs(1);
/// Extra silence rank `r`'s standby adds per rank (`r · STAGGER`) before
/// contesting, so the lowest surviving rank always campaigns first and
/// elections are deterministic.
pub(crate) const STAGGER: Time = time::ms(100);
/// Hard ceiling on the term number: a standby whose candidacy would exceed
/// it stands down for good, leaving recovery to the supervisor's failure
/// detector.
pub(crate) const MAX_TERMS: u64 = 8;

// A lease must survive at least one lost heartbeat, a stagger slot must
// leave room for the jitter, and a failover needs a term past the first.
const _: () = assert!(LEASE_TIMEOUT >= 2 * HEARTBEAT_EVERY);
const _: () = assert!(STAGGER > 0);
const _: () = assert!(MAX_TERMS > 1);

/// Whether the survivable control plane runs, and the seed of its jitter.
///
/// The lease timing is fixed: 250 ms heartbeats, a 1 s lease, a 100 ms
/// per-rank stagger and at most 8 terms. All jitter comes from a
/// stream-isolated RNG keyed by the seed, so two runs with the same
/// configuration elect the same leaders at the same instants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElectionCfg {
    /// With a seed, the failover machinery (standbys, heartbeats,
    /// elections) runs, and each standby's expiry jitter is drawn from the
    /// [`Domain::Election`](gbcr_faults::rng::Domain) stream of that seed.
    /// `None` (the default) reproduces the historical static coordinator
    /// byte-for-byte.
    pub jitter_seed: Option<u64>,
}

impl ElectionCfg {
    /// No failover: the historical single static coordinator. Nothing is
    /// spawned and no message, timer, or trace event differs from a build
    /// without this module.
    pub fn disabled() -> Self {
        ElectionCfg { jitter_seed: None }
    }

    /// Failover enabled, its expiry jitter drawn from `jitter_seed`.
    pub fn failover(jitter_seed: u64) -> Self {
        ElectionCfg { jitter_seed: Some(jitter_seed) }
    }
}

/// The control plane's failover counters: one run's, or many folded with
/// [`ElectionStats::merge`]. Reports carry this struct, not its fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElectionStats {
    /// Coordinator-node kills injected.
    pub coordinator_kills: u64,
    /// Leader elections contested by standbys (candidacies, not wins).
    pub elections_held: u64,
    /// The final term: 1 for a run that never lost its coordinator, +1 per
    /// successful failover election; the highest one across folded runs.
    pub terms: u64,
    /// Lease expiries observed by standbys (heartbeat silence).
    pub heartbeats_missed: u64,
    /// Successful leadership migrations (elections won and taken over).
    pub leader_migrations: u64,
    /// Summed virtual time between a coordinator kill and its successor
    /// taking over (0 when no migration happened).
    pub time_to_new_leader: Time,
}

impl ElectionStats {
    /// Fold `other` into `self`: every counter summed, except `terms`,
    /// which keeps the higher of the two.
    pub fn merge(&mut self, other: &ElectionStats) {
        self.coordinator_kills += other.coordinator_kills;
        self.elections_held += other.elections_held;
        self.terms = self.terms.max(other.terms);
        self.heartbeats_missed += other.heartbeats_missed;
        self.leader_migrations += other.leader_migrations;
        self.time_to_new_leader += other.time_to_new_leader;
    }
}

/// Shared control-plane state: who leads, which term we are in, and the
/// failover counters the run report exposes. One per job run, part of
/// the [`CoordCtx`] the leader, the heartbeat emitter, every standby and
/// the fault sink share.
pub(crate) struct ControlPlane {
    pub(crate) cfg: ElectionCfg,
    /// Current term: 1 under the boot leader, +1 per successful election.
    pub(crate) term: Cell<u64>,
    /// The process currently playing coordinator (kill target for
    /// control-plane faults). Taken on kill, restored by the next winner.
    pub(crate) leader_pid: Cell<Option<ProcId>>,
    /// The current term's heartbeat emitter process.
    pub(crate) hb_pid: Cell<Option<ProcId>>,
    /// Standby processes by rank (for cleanup when the job dies wholesale).
    pub(crate) standby_pids: RefCell<Vec<ProcId>>,
    /// When the most recent coordinator kill landed (None once a successor
    /// took over) — the start point of `time_to_new_leader`.
    pub(crate) lost_at: Cell<Option<Time>>,
    /// Set by the leader once every rank finished: late control-plane
    /// kills are non-events and the lease machinery stands down.
    pub(crate) done: Cell<bool>,
    /// The failover counters; `terms` stays 0 here, [`Self::stats`] fills
    /// it from `term`.
    counts: RefCell<ElectionStats>,
    /// `(term, epochs completed)` at the most recent coordinator kill;
    /// surfaced as [`crate::RunReport::coordinator_lost`] when the run
    /// dies without recovering.
    pub(crate) coordinator_lost: Cell<Option<(u64, u64)>>,
    /// Epoch attempts discarded: a phase deadline tripped (the coordinator
    /// broadcast `ABORT_EPOCH`) or a failover found the epoch half-open.
    pub(crate) protocol_aborts: Cell<u64>,
    /// Epoch attempts that were re-runs after an abort.
    pub(crate) epoch_retries: Cell<u64>,
}

impl ControlPlane {
    pub(crate) fn new(cfg: ElectionCfg) -> Self {
        ControlPlane {
            cfg,
            term: Cell::new(1),
            leader_pid: Cell::new(None),
            hb_pid: Cell::new(None),
            standby_pids: RefCell::new(Vec::new()),
            lost_at: Cell::new(None),
            done: Cell::new(false),
            counts: RefCell::default(),
            coordinator_lost: Cell::new(None),
            protocol_aborts: Cell::new(0),
            epoch_retries: Cell::new(0),
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.cfg.jitter_seed.is_some()
    }

    pub(crate) fn is_done(&self) -> bool {
        self.done.get()
    }

    pub(crate) fn finish(&self) {
        self.done.set(true);
    }

    /// The failover counters so far, `terms` read off the live term.
    pub(crate) fn stats(&self) -> ElectionStats {
        ElectionStats { terms: self.term.get(), ..*self.counts.borrow() }
    }

    /// Record an injected coordinator kill (called by the fault sink).
    pub(crate) fn note_kill(&self, now: Time, term: u64, epochs_done: u64) {
        self.lost_at.set(Some(now));
        self.counts.borrow_mut().coordinator_kills += 1;
        self.coordinator_lost.set(Some((term, epochs_done)));
    }

    /// Kill whoever currently plays coordinator, and its lease stream.
    /// Both pids are taken, so nothing is killed twice however the fault
    /// sink's kills interleave; the next winner restores them.
    pub(crate) fn kill_leader(&self, h: &SimHandle) {
        for pid in [self.leader_pid.take(), self.hb_pid.take()].into_iter().flatten() {
            h.kill(pid);
        }
    }

    /// Tear the control plane down with its job: stand the lease machinery
    /// down, then kill the leader, its heartbeat stream and the standbys.
    pub(crate) fn teardown(&self, h: &SimHandle) {
        self.finish();
        self.kill_leader(h);
        for pid in self.standby_pids.take() {
            h.kill(pid);
        }
    }
}

/// Spawn the failover machinery: the term-1 heartbeat emitter plus one
/// standby per rank. Called by [`crate::Coordinator::spawn`] when (and only
/// when) the election is enabled.
pub(crate) fn install(handle: &SimHandle, ctx: &Rc<CoordCtx>) {
    spawn_heartbeat(handle, ctx, 1);
    let pids = (0..ctx.world.size())
        .map(|r| {
            let ctx = ctx.clone();
            handle.spawn(format!("standby{r}"), move |p| {
                Standby { r, ep: ctx.world.oob_endpoint(standby_node(r)), ctx }.run(p);
            })
        })
        .collect();
    *ctx.control.standby_pids.borrow_mut() = pids;
}

/// Spawn the heartbeat emitter for `term`: a dedicated process sending
/// `HEARTBEAT` from the coordinator's service address to every standby
/// each `HEARTBEAT_EVERY`, until the job is done or it is killed together
/// with its leader.
pub(crate) fn spawn_heartbeat(handle: &SimHandle, ctx: &Rc<CoordCtx>, term: u64) {
    let ctx2 = ctx.clone();
    let pid = handle.spawn(format!("coord-hb-{term}"), move |p| {
        let world = &ctx2.world;
        let ep = world.oob_endpoint(COORDINATOR_NODE);
        // One link per standby, resolved here: the lease stream below
        // sends on them for the rest of the term.
        let standbys: Vec<_> = (0..world.size()).map(|q| ep.link(standby_node(q))).collect();
        for link in &standbys {
            link.connect(p);
        }
        let mut seq = 0u64;
        while !ctx2.control.is_done() {
            // Every standby gets the renewal — a dead rank's standby died
            // with its node, and an undelivered heartbeat to its mailbox is
            // harmless, whereas *skipping* a live standby would let its
            // lease lapse under a healthy leader (split brain).
            for link in &standbys {
                link.send(OobMsg::new(proto::HEARTBEAT, term, seq), 64);
            }
            seq += 1;
            p.sleep(HEARTBEAT_EVERY);
        }
    });
    ctx.control.hb_pid.set(Some(pid));
}

/// Outcome of one candidacy.
enum Campaign {
    /// Majority reached: this standby is the new leader.
    Won,
    /// A leader for `term >= ours` is alive (heartbeat/announce seen).
    Deposed(u64),
    /// We granted our vote to a higher-term candidate instead.
    Granted(u64),
    /// The vote budget lapsed without a majority; retry a later term.
    TimedOut,
    /// `STANDBY_STOP` arrived mid-campaign: the job is over.
    Stop,
}

/// The standby agent for rank `r`: watch the lease, vote, and — when this
/// rank's staggered expiry fires first — campaign and take over.
struct Standby {
    r: u32,
    ep: Endpoint<OobMsg>,
    ctx: Rc<CoordCtx>,
}

impl Standby {
    fn run(&self, p: &Proc) {
        let (r, cp) = (self.r, &self.ctx.control);
        // Deterministic per-standby jitter, well under one stagger slot: rank
        // order of expiries is never reordered, but identical configurations
        // still break ties identically run to run.
        let seed = cp.cfg.jitter_seed.expect("standbys run only under failover");
        let jitter = draw_u64(seed, Domain::Election, 0x1000 + u64::from(r)) % (STAGGER / 4).max(1);
        let slot = |now: Time| now + LEASE_TIMEOUT + u64::from(r) * STAGGER + jitter;
        let mut term = 1u64; // highest term we have heard a leader for
        let mut voted = 1u64; // highest term we have granted a vote in
        let mut deadline = slot(p.now());
        loop {
            if cp.is_done() {
                return;
            }
            match self.ep.recv_match(p, Some(deadline), |_, _| true) {
                Some((_, msg)) => match msg.kind {
                    proto::HEARTBEAT | proto::LEADER_ANNOUNCE if msg.a >= term => {
                        term = msg.a;
                        deadline = slot(p.now());
                    }
                    proto::ELECT_REQ if msg.a > voted => {
                        voted = msg.a;
                        self.grant_vote(p, msg.a, msg.b as u32);
                        // Granting also extends our own patience: the winner
                        // needs a quiet lease's worth of time to take over and
                        // start heartbeating before we contest.
                        deadline = slot(p.now());
                    }
                    proto::STANDBY_STOP => return,
                    _ => {} // stale heartbeats, duplicate requests, late votes
                },
                None => {
                    // Lease lapsed: as far as this standby can tell the
                    // coordinator is dead. Contest the next term.
                    cp.counts.borrow_mut().heartbeats_missed += 1;
                    p.handle().trace_instant(Track::Rank(r), "election.heartbeat_missed", || {
                        vec![("term", ArgValue::U64(term))]
                    });
                    let new_term = term.max(voted) + 1;
                    if new_term > MAX_TERMS {
                        // Election budget spent: stand down for good and leave
                        // escalation to the supervisor's failure detector.
                        return;
                    }
                    voted = new_term; // self-vote
                    match self.campaign(p, new_term) {
                        Campaign::Won => return self.take_over(p, new_term),
                        Campaign::Deposed(t) => {
                            term = t;
                            deadline = slot(p.now());
                        }
                        Campaign::Granted(t) => {
                            voted = t;
                            deadline = slot(p.now());
                        }
                        Campaign::TimedOut => deadline = slot(p.now()),
                        Campaign::Stop => return,
                    }
                }
            }
        }
    }

    /// Send `msg` to every other standby whose rank survives.
    fn tell_survivors(&self, p: &Proc, msg: OobMsg) {
        let world = &self.ctx.world;
        for q in (0..world.size()).filter(|&q| q != self.r && !world.is_failed(q)) {
            self.ep.link(standby_node(q)).connect_send(p, msg.clone(), 64);
        }
    }

    fn grant_vote(&self, p: &Proc, term: u64, candidate: u32) {
        let vote = OobMsg::new(proto::ELECT_VOTE, term, u64::from(self.r));
        self.ep.link(standby_node(candidate)).connect_send(p, vote, 64);
    }

    /// One candidacy for `new_term`: request votes from every surviving
    /// standby and wait (bounded by one lease timeout) for a majority of the
    /// surviving ranks, counting our own vote.
    fn campaign(&self, p: &Proc, new_term: u64) -> Campaign {
        let (r, cp, world) = (self.r, &self.ctx.control, &self.ctx.world);
        cp.counts.borrow_mut().elections_held += 1;
        p.handle().trace_instant(Track::Rank(r), "election.start", || {
            vec![("term", ArgValue::U64(new_term))]
        });
        let n = world.size();
        let mut votes: HashSet<u32> = HashSet::new();
        votes.insert(r);
        self.tell_survivors(p, OobMsg::new(proto::ELECT_REQ, new_term, u64::from(r)));
        let by = p.now() + LEASE_TIMEOUT;
        loop {
            let live = n - world.failed_ranks().len() as u32;
            if votes.len() as u32 * 2 > live {
                return Campaign::Won;
            }
            match self.ep.recv_match(p, Some(by), |_, _| true) {
                Some((_, msg)) => match msg.kind {
                    proto::ELECT_VOTE if msg.a == new_term => {
                        votes.insert(msg.b as u32);
                    }
                    proto::HEARTBEAT | proto::LEADER_ANNOUNCE if msg.a >= new_term => {
                        return Campaign::Deposed(msg.a);
                    }
                    proto::ELECT_REQ if msg.a > new_term => {
                        // A higher-term candidate outranks us: grant and stand
                        // down (vote-once still holds — our self-vote was for a
                        // strictly lower term).
                        self.grant_vote(p, msg.a, msg.b as u32);
                        return Campaign::Granted(msg.a);
                    }
                    proto::STANDBY_STOP => return Campaign::Stop,
                    _ => {}
                },
                None => return Campaign::TimedOut,
            }
        }
    }

    /// The winner's transition from standby to coordinator: record the
    /// migration, settle the other standbys, restart the lease stream, then
    /// bind the service address and resume the schedule (reconcile + abort of
    /// any half-open epoch happen inside [`CoordBody::takeover_and_run`]).
    fn take_over(&self, p: &Proc, term: u64) {
        let (r, cp) = (self.r, &self.ctx.control);
        let now = p.now();
        cp.term.set(term);
        cp.counts.borrow_mut().leader_migrations += 1;
        cp.counts.borrow_mut().time_to_new_leader += cp.lost_at.take().map_or(0, |t0| now - t0);
        cp.leader_pid.set(Some(p.id()));
        p.handle().trace_instant(Track::Coordinator, "election.won", || {
            vec![("term", ArgValue::U64(term)), ("leader", ArgValue::U64(u64::from(r)))]
        });
        // Settle the other standbys before any of them reaches its own
        // staggered expiry: adopt the term, refresh the lease.
        self.tell_survivors(p, OobMsg::new(proto::LEADER_ANNOUNCE, term, u64::from(r)));
        // The new term's lease stream.
        spawn_heartbeat(p.handle(), &self.ctx, term);
        // Become the coordinator: bind the service address and resume.
        CoordBody::new(self.ctx.clone()).takeover_and_run(p, term);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_deterministic_and_under_a_quarter_slot() {
        let seed = ElectionCfg::failover(0xBEEF).jitter_seed.unwrap();
        for r in 0..32u32 {
            let j = draw_u64(seed, Domain::Election, 0x1000 + u64::from(r)) % (STAGGER / 4).max(1);
            let j2 = draw_u64(seed, Domain::Election, 0x1000 + u64::from(r)) % (STAGGER / 4).max(1);
            assert_eq!(j, j2, "jitter must replay exactly");
            assert!(j < STAGGER / 4, "jitter must never reorder rank expiries");
        }
    }

    /// A control plane over four processes that park until killed — leader,
    /// heartbeat emitter, two standbys — driven through `script` at t = 1,
    /// 2 and 3; returns the events the simulation dispatched, one per
    /// `SimHandle::kill` on top of the fixed spawns and calls.
    fn events_under(script: impl Fn(u64, &ControlPlane, &SimHandle, &[ProcId]) + 'static) -> u64 {
        let mut sim = gbcr_des::Sim::new(0);
        let h = sim.handle();
        let pids: Vec<ProcId> =
            (0..4).map(|i| h.spawn(format!("proc{i}"), |p| loop { p.park() })).collect();
        let cp = ControlPlane::new(ElectionCfg::failover(1));
        cp.leader_pid.set(Some(pids[0]));
        cp.hb_pid.set(Some(pids[1]));
        *cp.standby_pids.borrow_mut() = pids[2..].to_vec();
        let shared = Rc::new((cp, pids, script));
        for step in 1..=3 {
            let shared = shared.clone();
            h.call_at(step, move |h| (shared.2)(step, &shared.0, h, &shared.1));
        }
        sim.run().expect("every process was killed");
        sim.events_processed()
    }

    #[test]
    fn teardown_is_idempotent_and_kills_nothing_twice() {
        // A coordinator kill, then a node-kill abort, then both again once
        // the plane has already stood down ...
        let torn_down = events_under(|step, cp, h, pids| match step {
            1 => {
                cp.kill_leader(h);
                assert!(h.is_killed(pids[0]) && h.is_killed(pids[1]));
                assert!(!h.is_killed(pids[2]) && !cp.is_done());
            }
            2 => {
                cp.teardown(h);
                assert!(cp.is_done() && pids.iter().all(|&pid| h.is_killed(pid)));
            }
            _ => {
                cp.kill_leader(h);
                cp.teardown(h);
            }
        });
        // ... dispatch exactly the events of killing each process once.
        let each_once = events_under(|step, _, h, pids| match step {
            1 => pids[..2].iter().for_each(|&pid| h.kill(pid)),
            2 => pids[2..].iter().for_each(|&pid| h.kill(pid)),
            _ => {}
        });
        assert_eq!(torn_down, each_once);
    }

    #[test]
    fn control_plane_records_kills() {
        let cp = ControlPlane::new(ElectionCfg::failover(1));
        assert_eq!(cp.term.get(), 1);
        assert!(!cp.is_done());
        cp.note_kill(42, 1, 3);
        let want = ElectionStats { coordinator_kills: 1, terms: 1, ..Default::default() };
        assert_eq!(cp.stats(), want);
        assert_eq!(cp.coordinator_lost.get(), Some((1, 3)));
        assert_eq!(cp.lost_at.get(), Some(42));
        cp.finish();
        assert!(cp.is_done());
    }
}
