//! The global C/R coordinator (the `mpirun` console process).

use crate::controller::CkptMode;
use crate::election::{self, ElectionCfg};
use crate::group::{Formation, GroupPlan};
use crate::job::Job;
use crate::proto;
use gbcr_blcr::ProcessImage;
use gbcr_des::{Arg, ArgValue, Proc, SimHandle, Time, Track};
use gbcr_mpi::{OobMsg, Rank, COORDINATOR_NODE};
use gbcr_net::{Endpoint, Link, NodeId};
use gbcr_storage::StoredObject;
use std::collections::HashSet;
use std::rc::Rc;

/// When checkpoints are requested (issuance/placement times, §5).
#[derive(Debug, Clone, Default)]
pub struct CkptSchedule {
    /// Absolute virtual times at which to take a global checkpoint.
    pub at: Vec<Time>,
}

impl CkptSchedule {
    /// No checkpoints (baseline runs).
    pub fn none() -> Self {
        Self::default()
    }

    /// One checkpoint at `t`.
    pub fn once(t: Time) -> Self {
        CkptSchedule { at: vec![t] }
    }
}

/// Per-phase protocol deadlines. `None` disables the deadline for that
/// phase: the coordinator parks unboundedly exactly as it did before
/// deadlines existed, so a default config arms no timers and changes no
/// events — fault-free runs stay byte-identical.
///
/// A tripped deadline makes the coordinator broadcast `ABORT_EPOCH`: ranks
/// roll back to running state, the previous manifest stays authoritative,
/// and the epoch is retried. Only a *confirmed-dead* node (the failure
/// detector's job) escalates to the supervisor — the abort-acknowledgement
/// collection deliberately has no deadline, so a dead rank leaves the
/// coordinator parked until the detector kills the job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseDeadlines {
    /// Budget for each of the two acknowledgement phases, step 1 (traffic
    /// query under dynamic formation, `EPOCH_BEGIN` broadcast, every rank's
    /// `EPOCH_BEGIN_ACK`) and step 3 (every rank's `EPOCH_END_ACK`).
    pub ack: Option<Time>,
    /// Budget for one group's turn in step 2: gate closure ACKs plus every
    /// member's `RANK_DONE` (the local checkpoints — size this to the
    /// expected image-write time, not the OOB round-trip).
    pub group: Option<Time>,
}

impl PhaseDeadlines {
    /// No deadlines (the pre-existing park-forever behavior).
    pub fn none() -> Self {
        Self::default()
    }

    /// `ack_budget` on the begin and end phases with a separate, larger
    /// one for the checkpoint-carrying group phase.
    pub fn new(ack_budget: Time, group_budget: Time) -> Self {
        PhaseDeadlines { ack: Some(ack_budget), group: Some(group_budget) }
    }
}

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorCfg {
    /// Job name (namespaces the checkpoint images).
    pub job: String,
    /// Buffering (the paper) or Logging (ablation).
    pub mode: CkptMode,
    /// Group formation policy.
    pub formation: Formation,
    /// Issuance times.
    pub schedule: CkptSchedule,
    /// Incremental checkpointing (§8 future work, implemented as an
    /// extension): after a rank's first full image in a job, later images
    /// only write the bytes the application reported dirty since the
    /// previous checkpoint; restores read the image plus its chain.
    pub incremental: bool,
    /// Per-phase protocol deadlines (grouped modes only); the default arms
    /// nothing.
    pub deadlines: PhaseDeadlines,
    /// Survivable-control-plane configuration. The default
    /// ([`ElectionCfg::disabled`]) spawns no standby/lease machinery and
    /// reproduces the static coordinator byte-for-byte.
    pub election: ElectionCfg,
}

impl CoordinatorCfg {
    /// The unconfigured coordinator for `job`: the paper's buffering
    /// protocol over static groups of `group_size`, full (not incremental)
    /// images, no phase deadlines, no election. Everything else is a
    /// struct update over this.
    pub fn new(job: impl Into<String>, group_size: u32, schedule: CkptSchedule) -> Self {
        CoordinatorCfg {
            job: job.into(),
            mode: CkptMode::Buffering,
            formation: Formation::Static { group_size },
            schedule,
            incremental: false,
            deadlines: PhaseDeadlines::none(),
            election: ElectionCfg::disabled(),
        }
    }
}

/// Outcome of one global checkpoint epoch.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Epoch number (0-based).
    pub epoch: u64,
    /// When the checkpoint was requested.
    pub requested_at: Time,
    /// When the coordinator began orchestrating (after any traffic query).
    pub started_at: Time,
    /// When the last member reported its image durable — the end point of
    /// the paper's *Total Checkpoint Time*.
    pub all_ranks_done_at: Time,
    /// When the epoch-end acknowledgements completed.
    pub finished_at: Time,
    /// `(rank, Individual Checkpoint Time)` sorted by rank.
    pub individuals: Vec<(Rank, Time)>,
    /// The group plan used.
    pub plan: GroupPlan,
}

impl EpochReport {
    /// The paper's *Total Checkpoint Time*: request issue → all processes
    /// finished taking their checkpoints.
    pub fn total_time(&self) -> Time {
        self.all_ranks_done_at - self.requested_at
    }

    /// Mean of the per-rank *Individual Checkpoint Times*.
    pub fn mean_individual(&self) -> Time {
        if self.individuals.is_empty() {
            return 0;
        }
        self.individuals.iter().map(|(_, t)| t).sum::<Time>() / self.individuals.len() as Time
    }

    /// Smallest per-rank *Individual Checkpoint Time*.
    pub fn min_individual(&self) -> Time {
        self.individuals.iter().map(|(_, t)| *t).min().unwrap_or(0)
    }

    /// Largest per-rank *Individual Checkpoint Time*.
    pub fn max_individual(&self) -> Time {
        self.individuals.iter().map(|(_, t)| *t).max().unwrap_or(0)
    }
}

/// Spawn `job`'s coordinator process into the simulation. It connects to
/// every rank's out-of-band endpoint, executes the configured schedule,
/// and shuts the ranks' service loops down once all have finished; with
/// the election enabled, the failover machinery is spawned after it.
pub(crate) fn spawn(h: &SimHandle, job: &Rc<Job>) {
    let body_job = job.clone();
    let pid = h.spawn("cr-coordinator", move |p| CoordBody::new(body_job).run(p));
    job.control.leader_pid.set(Some(pid));
    if job.control.enabled() {
        election::install(h, job);
    }
}

/// One epoch in flight: what every driver accumulates between opening an
/// epoch and [`CoordBody::close_epoch`].
struct OpenEpoch {
    epoch: u64,
    requested_at: Time,
    /// Start of the `epoch` trace span (before any traffic query).
    opened_at: Time,
    started_at: Time,
    individuals: Vec<(Rank, Time)>,
    all_ranks_done_at: Time,
}

impl OpenEpoch {
    /// An epoch whose orchestration starts (and whose span opens) `now`.
    fn new(epoch: u64, requested_at: Time, now: Time) -> Self {
        OpenEpoch {
            epoch,
            requested_at,
            opened_at: now,
            started_at: now,
            individuals: Vec::new(),
            all_ranks_done_at: now,
        }
    }
}

pub(crate) struct CoordBody {
    ctx: Rc<Job>,
    ep: Endpoint<OobMsg>,
    /// Every rank's out-of-band link, by rank: a broadcast looks nothing up.
    links: Rc<[Link<OobMsg>]>,
    n: u32,
    finished: HashSet<Rank>,
}

impl CoordBody {
    /// Build a coordinator body bound to the service address. Used both by
    /// the boot coordinator and by every failover winner.
    pub(crate) fn new(ctx: Rc<Job>) -> Self {
        let ep = ctx.world.oob_endpoint(COORDINATOR_NODE);
        let n = ctx.world.size();
        let links = (0..n).map(|r| ep.link(NodeId(r))).collect();
        CoordBody { ctx, ep, links, n, finished: HashSet::new() }
    }

    /// Send a copy of `msg` to each rank of `to`, black-holing the copy of a
    /// rank whose node has failed: the RC send to a dead HCA completes in
    /// error and the message is lost — the coordinator only learns of the
    /// death when the failure detector aborts the job. Each stretch of
    /// consecutive live ranks goes to the fabric at once
    /// ([`Link::broadcast`]): the copies that land at one instant are one
    /// batch post, one dispatch step of the event loop.
    fn fan_out(&self, to: impl IntoIterator<Item = Rank>, msg: &OobMsg) {
        let size = msg.wire_size();
        let send =
            |run: &std::ops::Range<usize>| Link::broadcast(&self.links, run.clone(), msg, size);
        let mut run = 0..0;
        for r in to.into_iter().map(|r| r as usize) {
            if self.ctx.world.is_failed(r as Rank) {
                send(&run);
                run = r + 1..r + 1;
                self.ctx.world.note_dropped_send();
            } else if r == run.end {
                run.end += 1;
            } else {
                send(&run);
                run = r..r + 1;
            }
        }
        send(&run);
    }

    pub(crate) fn run(&mut self, p: &Proc) {
        // Connect to every rank's OOB endpoint up front (job launch cost).
        for link in self.links.iter() {
            link.connect(p);
        }
        self.run_from(p, 0, 0);
    }

    /// Execute the schedule from entry `start` onward (`start > 0` after a
    /// failover resumed past already-committed epochs). `pending_tries`
    /// seeds the first epoch's attempt counter so a takeover that aborted
    /// attempt `t` of a half-open epoch reruns it under the fresh word
    /// `t + 1`.
    fn run_from(&mut self, p: &Proc, start: usize, mut pending_tries: u64) {
        let schedule = self.ctx.cfg.schedule.at.clone();
        for (i, &t) in schedule.iter().enumerate().skip(start) {
            self.wait_until(p, t);
            if self.finished.len() as u32 == self.n {
                break; // job already over; nothing to checkpoint
            }
            let first_tries = std::mem::take(&mut pending_tries);
            let report = match self.ctx.cfg.mode {
                CkptMode::ChandyLamport => self.run_cl_epoch(p, i as u64, t),
                CkptMode::Uncoordinated => self.run_uncoordinated_epoch(p, i as u64, t),
                _ => self.run_epoch(p, i as u64, t, first_tries),
            };
            self.ctx.reports.borrow_mut().push(report);
        }
        // Wait for every rank to finish, then release their service loops.
        while self.finished.len() as u32 != self.n {
            self.recv(p, None, |m| m.kind == proto::FINISHED);
        }
        // Without failover the control plane stays inert (the static
        // coordinator's behavior, byte-identical).
        let failover = self.ctx.control.enabled();
        if failover {
            // From here on a control-plane kill is a non-event: the job is
            // over, so the lease machinery stands down rather than electing
            // a successor for nothing.
            self.ctx.control.finish();
        }
        self.broadcast(proto::SHUTDOWN, 0, 0);
        if failover {
            self.stop_standbys(p);
        }
    }

    /// Resume the schedule as a freshly-elected coordinator (term
    /// `term`). The dead leader's bookkeeping is reconstructed from two
    /// sources of truth that survived it: the ranks (finished flags and
    /// any half-open epoch word, via a `RECONCILE` round) and storage (the
    /// newest committed epoch manifest). A half-open attempt is aborted
    /// through the ordinary `ABORT_EPOCH` machinery and retried under a
    /// fresh attempt word; fully-committed epochs are skipped.
    pub(crate) fn takeover_and_run(&mut self, p: &Proc, term: u64) {
        // Adopt the service mailbox. Anything already queued there was
        // addressed to the dead coordinator; only FINISHED notices are
        // still meaningful (protocol replies belong to an attempt whose
        // collections died with their collector).
        while let Some((from, msg)) = self.ep.try_recv() {
            if msg.kind == proto::FINISHED {
                self.finished.insert(from.0);
            }
        }
        let failed = self.ctx.world.failed_ranks();
        let live: Vec<Rank> = (0..self.n).filter(|r| !failed.contains(r)).collect();
        for &r in &live {
            self.links[r as usize].connect(p);
        }
        self.fan_out(live.iter().copied(), &OobMsg::new(proto::RECONCILE, term, 0));
        let mut open: Option<u64> = None;
        for _ in &live {
            let (from, msg) = self
                .recv(p, None, |m| m.kind == proto::RECONCILE_ACK && m.a == term)
                .expect("no deadline, so a reply");
            if msg.b == 1 {
                self.finished.insert(from.0);
            }
            if let Some(w) = proto::decode_reconcile_ack(msg.data).expect("valid reconcile ack") {
                open = Some(open.map_or(w, |o: u64| o.max(w)));
            }
        }
        // Storage is the other half of the truth: the newest committed
        // manifest bounds how far the schedule definitely got.
        let committed = (0..self.ctx.cfg.schedule.at.len() as u64)
            .filter(|&e| self.ctx.store.peek(&proto::manifest_name(&self.ctx.cfg.job, e)).is_some())
            .max();
        let mut start = committed.map_or(0, |c| c + 1) as usize;
        let mut pending_tries = 0u64;
        if let Some(word) = open {
            let (epoch, tries) = proto::split_epoch(word);
            self.note_abort(p, epoch, format_args!("coordinator failover (term {term})"));
            self.abort_word(p, word, live.len() as u32);
            self.purge_epoch(epoch);
            start = epoch as usize;
            pending_tries = tries + 1;
        }
        self.run_from(p, start, pending_tries);
    }

    /// Release every surviving standby and the heartbeat emitter at the
    /// end of a failover-enabled run.
    fn stop_standbys(&mut self, p: &Proc) {
        for q in 0..self.n {
            if !self.ctx.world.is_failed(q) {
                let stop = OobMsg::new(proto::STANDBY_STOP, 0, 0);
                self.ep.link(gbcr_mpi::standby_node(q)).connect_send(p, stop, 64);
            }
        }
        if let Some(hb) = self.ctx.control.hb_pid.take() {
            p.handle().kill(hb);
        }
    }

    /// One Chandy-Lamport epoch: announce, snapshot everyone at once
    /// (non-blocking), collect completions. No groups, no gates.
    fn run_cl_epoch(&mut self, p: &Proc, epoch: u64, requested_at: Time) -> EpochReport {
        let plan = GroupPlan::by_size(self.n, self.n);
        let mut open = OpenEpoch::new(epoch, requested_at, p.now());
        let (b, data) = (plan.group_count() as u64, plan.map().payload());
        self.fan_out(0..self.n, &OobMsg { kind: proto::EPOCH_BEGIN, a: epoch, b, data });
        self.collect(p, proto::EPOCH_BEGIN_ACK, epoch, self.n);
        self.broadcast(proto::CL_SNAPSHOT, epoch, 0);
        self.collect_done(p, &mut open, epoch, self.n, None);
        self.broadcast(proto::EPOCH_END, epoch, 0);
        self.collect(p, proto::EPOCH_END_ACK, epoch, self.n);
        self.close_epoch(p, open, plan, None)
    }

    /// One "epoch" of uncoordinated checkpointing: each rank snapshots
    /// independently at a staggered offset (emulating per-rank local
    /// timers). No gates, no consistency — the images do NOT form a
    /// consistent global checkpoint; this mode exists for the §2.1
    /// failure-free-overhead comparison.
    fn run_uncoordinated_epoch(&mut self, p: &Proc, epoch: u64, requested_at: Time) -> EpochReport {
        let plan = GroupPlan::by_size(self.n, 1);
        let mut open = OpenEpoch::new(epoch, requested_at, p.now());
        // Rank r's "local timer" fires at requested_at + r·stagger.
        let stagger = gbcr_des::time::secs(2);
        for r in 0..self.n {
            self.wait_until(p, requested_at + u64::from(r) * stagger);
            self.fan_out([r], &OobMsg::new(proto::UNCOORD_GO, epoch, 0));
        }
        self.collect_done(p, &mut open, epoch, self.n, None);
        self.close_epoch(p, open, plan, None)
    }

    /// One global checkpoint epoch (§3.2's three steps), retried through
    /// `ABORT_EPOCH` whenever a phase deadline trips. Each attempt tags its
    /// messages with a distinct epoch word so stale replies from aborted
    /// attempts can never satisfy a later attempt's collection.
    fn run_epoch(
        &mut self,
        p: &Proc,
        epoch: u64,
        requested_at: Time,
        start_tries: u64,
    ) -> EpochReport {
        let mut tries = start_tries;
        loop {
            if let Some(report) = self.try_epoch(p, epoch, requested_at, tries) {
                return report;
            }
            self.note_abort(p, epoch, format_args!("phase deadline tripped (try {tries})"));
            self.abort_epoch(p, epoch, tries);
            tries += 1;
        }
    }

    /// One attempt at an epoch. Returns `None` if any configured phase
    /// deadline trips before its collection completes.
    fn try_epoch(
        &mut self,
        p: &Proc,
        epoch: u64,
        requested_at: Time,
        tries: u64,
    ) -> Option<EpochReport> {
        if tries > 0 {
            let retries = &self.ctx.control.epoch_retries;
            retries.set(retries.get() + 1);
        }
        let word = proto::epoch_word(epoch, tries);
        let deadlines = self.ctx.cfg.deadlines;
        let t_epoch = p.now();
        // Under failover, groups re-form over the survivors: dead ranks
        // are carved out into singleton groups nobody gates on or waits
        // for, and every collection expects replies from the living only.
        let failed = self.failed_ranks();
        let expect = self.n - failed.len() as u32;

        // Step 1: divide processes into groups and decide the order.
        let begin_by = deadlines.ack.map(|d| p.now() + d);
        let plan = match &self.ctx.cfg.formation {
            Formation::Dynamic { .. } => {
                self.broadcast(proto::TRAFFIC_QUERY, word, 0);
                let mut traffic: Vec<crate::group::TrafficRows> = vec![Vec::new(); self.n as usize];
                for _ in 0..expect {
                    let (from, msg) =
                        self.recv(p, begin_by, |m| m.kind == proto::TRAFFIC_REPLY && m.a == word)?;
                    traffic[from.0 as usize] =
                        proto::decode_traffic(msg.data).expect("valid traffic payload");
                }
                GroupPlan::from_formation(self.n, &self.ctx.cfg.formation, Some(&traffic))
            }
            f => GroupPlan::from_formation(self.n, f, None),
        };
        let plan = if failed.is_empty() { plan } else { plan.reform(&failed) };
        let mut open =
            OpenEpoch { opened_at: t_epoch, ..OpenEpoch::new(epoch, requested_at, p.now()) };
        let (b, data) = (plan.group_count() as u64, plan.map().payload());
        self.fan_out(0..self.n, &OobMsg { kind: proto::EPOCH_BEGIN, a: word, b, data });
        self.collect_by(p, proto::EPOCH_BEGIN_ACK, word, expect, begin_by)?;
        self.span(p, "phase.begin", t_epoch, || {
            vec![("epoch", ArgValue::U64(epoch)), ("try", ArgValue::U64(tries))]
        });

        // Step 2: the groups take checkpoints in turn.
        for (g, members) in plan.groups().iter().enumerate() {
            let group_by = deadlines.group.map(|d| p.now() + d);
            let t_gate = p.now();
            // Close every rank's gate toward (and from) this group before
            // any member freezes.
            self.broadcast(proto::GROUP_START, word, g as u64);
            self.collect_by(p, proto::GROUP_START_ACK, word, expect, group_by)?;
            self.span(p, "phase.group_start", t_gate, || vec![("group", ArgValue::U64(g as u64))]);
            let t_ckpt = p.now();
            let live_members: Vec<Rank> =
                members.iter().copied().filter(|m| !failed.contains(m)).collect();
            self.fan_out(
                live_members.iter().copied(),
                &OobMsg::new(proto::GROUP_GO, word, g as u64),
            );
            self.collect_done(p, &mut open, word, live_members.len() as u32, group_by)?;
            self.span(p, "phase.checkpoint", t_ckpt, || {
                vec![
                    ("group", ArgValue::U64(g as u64)),
                    ("members", ArgValue::U64(members.len() as u64)),
                ]
            });
            let t_done = p.now();
            self.broadcast(proto::GROUP_DONE, word, g as u64);
            self.span(p, "phase.group_done", t_done, || vec![("group", ArgValue::U64(g as u64))]);
        }

        // Step 3: mark the global checkpoint complete.
        let end_by = deadlines.ack.map(|d| p.now() + d);
        let t_end = p.now();
        self.broadcast(proto::EPOCH_END, word, 0);
        self.collect_by(p, proto::EPOCH_END_ACK, word, expect, end_by)?;
        self.span(p, "phase.end", t_end, || vec![("epoch", ArgValue::U64(epoch))]);

        // Two-phase commit, phase 2: every rank has ACKed its image
        // durable, so atomically publish the epoch's manifest. Zero
        // simulated time, and no park between here and the caller pushing
        // the report — a kill can never separate "manifest visible" from
        // "epoch reported".
        let t_commit = p.now();
        self.commit_manifest(p, epoch);
        self.span(p, "manifest.commit", t_commit, || vec![("epoch", ArgValue::U64(epoch))]);

        Some(self.close_epoch(p, open, plan, Some(tries)))
    }

    /// Collect `count` members' `RANK_DONE` for epoch word `word` into
    /// `open`; `None` if the absolute deadline `by` passes first. The one
    /// point where a rank's image is known durable, whatever the mode.
    fn collect_done(
        &mut self,
        p: &Proc,
        open: &mut OpenEpoch,
        word: u64,
        count: u32,
        by: Option<Time>,
    ) -> Option<()> {
        for _ in 0..count {
            let (from, msg) = self.recv(p, by, |m| m.kind == proto::RANK_DONE && m.a == word)?;
            open.individuals.push((from.0, msg.b));
            open.all_ranks_done_at = p.now();
        }
        Some(())
    }

    /// Every driver's closing block: the `epoch` span (carrying the attempt
    /// number where the driver has attempts) and the report with its
    /// individuals sorted by rank.
    fn close_epoch(
        &self,
        p: &Proc,
        mut open: OpenEpoch,
        plan: GroupPlan,
        tries: Option<u64>,
    ) -> EpochReport {
        open.individuals.sort_by_key(|(r, _)| *r);
        let epoch = open.epoch;
        let groups = plan.group_count() as u64;
        self.span(p, "epoch", open.opened_at, || {
            let mut args = vec![("epoch", ArgValue::U64(epoch)), ("groups", ArgValue::U64(groups))];
            args.extend(tries.map(|t| ("try", ArgValue::U64(t))));
            args
        });
        EpochReport {
            epoch,
            requested_at: open.requested_at,
            started_at: open.started_at,
            all_ranks_done_at: open.all_ranks_done_at,
            finished_at: p.now(),
            individuals: open.individuals,
            plan,
        }
    }

    /// Record a coordinator span from `start` to now whose last argument
    /// names this job.
    fn span(&self, p: &Proc, name: &'static str, start: Time, args: impl FnOnce() -> Vec<Arg>) {
        p.handle().trace_span(Track::Coordinator, name, start, || {
            let mut args = args();
            args.push(("job", ArgValue::Str(self.ctx.cfg.job.clone())));
            args
        });
    }

    /// The ranks an epoch works around: the failed ones under failover.
    /// With the election disabled, none, so every count is the historical
    /// `n`.
    fn failed_ranks(&self) -> Vec<Rank> {
        if self.ctx.control.enabled() {
            self.ctx.world.failed_ranks()
        } else {
            Vec::new()
        }
    }

    /// Count a discarded epoch attempt and say why in the trace.
    fn note_abort(&self, p: &Proc, epoch: u64, reason: std::fmt::Arguments<'_>) {
        let aborts = &self.ctx.control.protocol_aborts;
        aborts.set(aborts.get() + 1);
        p.handle().trace_instant(Track::Coordinator, "ckpt.abort", || {
            vec![("epoch", ArgValue::U64(epoch)), ("reason", ArgValue::Str(reason.to_string()))]
        });
    }

    /// Roll every rank back to running state after a tripped deadline.
    /// Collecting the abort ACKs has **no deadline**: every live rank will
    /// eventually answer (stalls are finite), and a dead one parks us here
    /// until the failure detector escalates to the supervisor — exactly
    /// the escalation split the protocol wants.
    fn abort_epoch(&mut self, p: &Proc, epoch: u64, tries: u64) {
        let word = proto::epoch_word(epoch, tries);
        let expect = self.n - self.failed_ranks().len() as u32;
        self.abort_word(p, word, expect);
        // Drop stale replies of the aborted attempt: nothing matching this
        // epoch may leak into the next attempt's collections.
        self.purge_epoch(epoch);
    }

    /// Broadcast `ABORT_EPOCH` for one attempt word and collect `expect`
    /// acknowledgements (the live ranks). Shared by deadline-tripped
    /// aborts and the failover takeover's half-open-epoch abort.
    fn abort_word(&mut self, p: &Proc, word: u64, expect: u32) {
        self.broadcast(proto::ABORT_EPOCH, word, 0);
        self.collect(p, proto::ABORT_ACK, word, expect);
    }

    /// Discard queued protocol replies belonging to any attempt of `epoch`.
    fn purge_epoch(&self, epoch: u64) {
        self.ep.retain(|_, m| {
            let protocol_reply = matches!(
                m.kind,
                proto::EPOCH_BEGIN_ACK
                    | proto::GROUP_START_ACK
                    | proto::RANK_DONE
                    | proto::EPOCH_END_ACK
                    | proto::TRAFFIC_REPLY
                    | proto::ABORT_ACK
            );
            !(protocol_reply && proto::split_epoch(m.a).0 == epoch)
        });
    }

    /// Two-phase commit, phase 2: write the epoch's manifest (rank → image
    /// name/size/checksum — the one the image's frame ends in, which
    /// `ProcessImage::encode` computed, not a second pass over its bytes)
    /// through storage. Skipped silently if any image
    /// is missing (torn or lost write): the epoch then simply never
    /// becomes a restart point.
    fn commit_manifest(&mut self, p: &Proc, epoch: u64) {
        let mut entries: Vec<proto::ManifestEntry> = Vec::with_capacity(self.n as usize);
        for r in 0..self.n {
            let name = ProcessImage::object_name(&self.ctx.cfg.job, epoch, r);
            match self.ctx.store.peek(&name) {
                Some(obj) => {
                    let sum = ProcessImage::frame_checksum(&obj.payload).unwrap_or(0);
                    entries.push((r, obj.virtual_size, sum));
                }
                None => {
                    p.handle().trace_instant(Track::Coordinator, "ckpt.manifest_skip", || {
                        vec![("epoch", ArgValue::U64(epoch))]
                    });
                    return;
                }
            }
        }
        let payload = proto::encode_manifest(epoch, &entries);
        let virtual_size = payload.len() as u64;
        self.ctx.store.commit_meta(
            u32::MAX, // the coordinator is not a rank
            &proto::manifest_name(&self.ctx.cfg.job, epoch),
            StoredObject::new(payload, virtual_size),
        );
    }

    fn broadcast(&mut self, kind: u32, a: u64, b: u64) {
        self.fan_out(0..self.n, &OobMsg::new(kind, a, b));
    }

    /// Collect `count` messages of `kind` for epoch `a`, however long
    /// that takes.
    fn collect(&mut self, p: &Proc, kind: u32, a: u64, count: u32) {
        self.collect_by(p, kind, a, count, None);
    }

    /// Collect `count` messages of `kind` for epoch word `a`; `None` if the
    /// absolute deadline `by` passes first.
    fn collect_by(
        &mut self,
        p: &Proc,
        kind: u32,
        a: u64,
        count: u32,
        by: Option<Time>,
    ) -> Option<()> {
        let mut left = count;
        while left > 0 {
            // Take the queued replies in one pass, in arrival order, folding
            // the `FINISHED` notices read past and stopping at the last one
            // needed, as `recv` would without parking; park only for more.
            let finished = &mut self.finished;
            self.ep.retain(|from, m| {
                if left == 0 {
                    return true;
                }
                if m.kind == proto::FINISHED {
                    finished.insert(from.0);
                    return false;
                }
                let hit = m.kind == kind && m.a == a;
                left -= u32::from(hit);
                !hit
            });
            if left > 0 {
                self.recv(p, by, |m| m.kind == kind && m.a == a)?;
                left -= 1;
            }
        }
        Some(())
    }

    /// The coordinator's one receive: the first queued message `pred`
    /// accepts ([`Endpoint::recv_match`]: what it skips stays queued for a
    /// later receive), or `None` once the absolute deadline `by` has
    /// passed. A `FINISHED` notice is taken too and folded into `finished`
    /// as the receive reads past it — never sooner, whatever the phase —
    /// and returned only if `pred` wants it (the schedule and shutdown
    /// waits).
    fn recv(
        &mut self,
        p: &Proc,
        by: Option<Time>,
        mut pred: impl FnMut(&OobMsg) -> bool,
    ) -> Option<(NodeId, OobMsg)> {
        loop {
            let (from, msg) =
                self.ep.recv_match(p, by, |_, m| m.kind == proto::FINISHED || pred(m))?;
            if msg.kind == proto::FINISHED {
                self.finished.insert(from.0);
                if !pred(&msg) {
                    continue;
                }
            }
            return Some((from, msg));
        }
    }

    /// Wait until the schedule's instant `t`, folding every `FINISHED`
    /// notice that arrives meanwhile.
    fn wait_until(&mut self, p: &Proc, t: Time) {
        while self.recv(p, Some(t), |m| m.kind == proto::FINISHED).is_some() {}
    }
}
