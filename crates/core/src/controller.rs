//! The local C/R controller: one per MPI process, registered as its
//! runtime's [`CrHook`].

use crate::client::CkptClient;
use crate::proto;
use gbcr_blcr::{LocalCheckpointer, ProcessImage};
use gbcr_des::{ArgValue, Proc, Time, Track};
use gbcr_faults::ProtocolPhase;
use gbcr_mpi::{CrHook, CtrlWire, Gate, GateState, Mpi, OobMsg, Rank, COORDINATOR_NODE};
use gbcr_net::{Link, NodeId};
use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};

/// Callback invoked when this rank enters a protocol phase of an epoch:
/// `(process, real epoch number, phase)`. Installed by the job harness to
/// deliver phase-targeted faults (kills/stalls); absent in fault-free runs,
/// where the lookup is a borrow-and-clone with no simulation-visible effect.
pub type PhaseHook = Rc<dyn Fn(&Proc, u64, ProtocolPhase)>;

/// Minimum bytes an incremental image writes (page tables, registers,
/// metadata — never free even when nothing was dirtied).
const MB_FLOOR: u64 = 1_000_000;

/// How global consistency is maintained during an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptMode {
    /// The paper's design: defer cross-line communication with message and
    /// request buffering. No payload is ever written to a log.
    Buffering,
    /// The alternative the paper argues against (§2.1/§7): let everything
    /// flow but copy+log every outgoing message, which also forfeits
    /// zero-copy rendezvous. Implemented for the failure-free-overhead
    /// ablation; log-replay restart is out of scope.
    Logging,
    /// Uncoordinated checkpointing (§2.1's first category): every process
    /// checkpoints independently on its own schedule with **message
    /// logging enabled for the entire run** (sender-based pessimistic
    /// logging is what prevents cascade rollback). No coordination, no
    /// gates, no global consistency — the epoch machinery merely triggers
    /// per-rank snapshots at staggered times. Implemented for the
    /// failure-free-overhead comparison; log-based recovery is out of
    /// scope, as in the paper (§2.1 argues the logging volume alone is
    /// prohibitive on high-bandwidth interconnects).
    Uncoordinated,
    /// Non-blocking Chandy-Lamport coordinated checkpointing (§2.1),
    /// implemented as an *idealized* comparator: snapshots are written in
    /// the background without stopping computation or tearing down
    /// connections (infeasible on real InfiniBand — the paper's §2.2
    /// point), markers flow on every channel, and messages arriving
    /// between a rank's snapshot and the channel's marker are counted as
    /// channel-state log bytes. Demonstrates that even ideal CL leaves all
    /// processes writing to storage at the same time. Restart via channel
    /// logs is out of scope.
    ChandyLamport,
}

/// One rank's record of one checkpoint epoch (for reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankCkptRecord {
    /// Epoch number.
    pub epoch: u64,
    /// The rank.
    pub rank: Rank,
    /// The paper's *Individual Checkpoint Time*: downtime from entering the
    /// local checkpoint procedure to resuming execution.
    pub individual: Time,
    /// Connections torn down (== rebuilt lazily afterwards).
    pub connections_torn: usize,
}

/// One epoch as a rank sees it. The groups checkpoint one at a time in
/// plan order and the rank hears their broadcasts in send order, so the
/// done groups are always the plan's first `turn`: the group whose turn it
/// is, and whether it is in progress, are the rank's [`GateState`], which
/// the runtime keeps ([`Mpi::gate`]).
struct EpochState {
    epoch: u64,
    /// `rank → group` and the group count, read in place out of the
    /// `EPOCH_BEGIN` every rank shares: with the gate position, all the
    /// gate needs.
    groups: proto::PlanMap,
}

struct ClState {
    epoch: u64,
    /// The peers we still expect a marker from, sorted, each with its
    /// received-bytes baseline taken at our snapshot.
    pending: Vec<(Rank, u64)>,
    /// Whether the background image write has completed.
    write_done: bool,
    /// Whether RANK_DONE has been sent.
    reported: bool,
    /// When the snapshot began (for the individual-time report).
    started: Time,
}

struct CtlState {
    epoch: Option<EpochState>,
    /// Boxed: only the Chandy-Lamport comparator has one, and every other
    /// rank would carry its bytes inline.
    cl: Option<Box<ClState>>,
    records: Vec<RankCkptRecord>,
    /// Channel-state bytes logged across all CL epochs.
    cl_logged: u64,
    /// Incremental-chain accounting: bytes a restore of the latest image
    /// must read in addition to that image (last full + increments).
    chain_bytes: u64,
    /// Whether a full image has been taken in this job yet.
    has_full: bool,
}

/// The per-process local C/R controller (paper §2.2's "local C/R
/// controller", extended with the group-based protocol of §3–4).
///
/// Consistency gate: during an epoch, rank `p` may send user-plane traffic
/// to rank `q` iff `group(p)` and `group(q)` are both done or both not yet
/// done, and neither is in progress. Both directions between a
/// checkpointed and a not-yet-checkpointed group are thereby deferred — a
/// message crossing the recovery line in either direction would be lost or
/// duplicated at restart (§3.2).
pub struct Controller {
    self_ref: Weak<Controller>,
    rank: Rank,
    /// The job's name, one copy shared by every rank.
    job: Rc<str>,
    mode: CkptMode,
    incremental: bool,
    blcr: LocalCheckpointer,
    client: CkptClient,
    /// The turn and whether it started, where the runtime keeps them.
    gate: Gate,
    st: RefCell<CtlState>,
    shutdown: Cell<bool>,
    /// Whether this rank's application body has finished. Set just before
    /// the `FINISHED` send so a failover coordinator's `RECONCILE` round
    /// can rebuild the finished set even when the original message died
    /// with the old coordinator.
    finished: Cell<bool>,
    phase_hook: RefCell<Option<PhaseHook>>,
}

impl Controller {
    /// Build a controller for `rank`, whose runtime `client` was made for.
    /// Register it with [`Mpi::set_hook`] before the application body
    /// starts.
    pub fn new(
        rank: Rank,
        job: impl Into<Rc<str>>,
        mode: CkptMode,
        incremental: bool,
        blcr: LocalCheckpointer,
        client: CkptClient,
    ) -> Rc<Self> {
        let gate = client.mpi().expect("a client of a live runtime").gate();
        Rc::new_cyclic(|self_ref| Controller {
            self_ref: self_ref.clone(),
            rank,
            job: job.into(),
            mode,
            incremental,
            blcr,
            client,
            gate,
            st: RefCell::new(CtlState {
                epoch: None,
                cl: None,
                records: Vec::new(),
                cl_logged: 0,
                chain_bytes: 0,
                has_full: false,
            }),
            shutdown: Cell::new(false),
            finished: Cell::new(false),
            phase_hook: RefCell::new(None),
        })
    }

    /// Install the phase-entry callback (fault injection). `None` clears.
    pub fn set_phase_hook(&self, hook: Option<PhaseHook>) {
        *self.phase_hook.borrow_mut() = hook;
        // The listener's answer to a gate broadcast depends on it.
        self.gate.void_listener();
    }

    /// Announce entry into a protocol phase to the installed hook. Called
    /// with no controller borrow held: a `Kill` action unwinds right here.
    fn phase_point(&self, p: &Proc, epoch_word: u64, phase: ProtocolPhase) {
        let hook = self.phase_hook.borrow().clone();
        if let Some(hook) = hook {
            let (epoch, _) = proto::split_epoch(epoch_word);
            hook(p, epoch, phase);
        }
    }

    fn rc(&self) -> Rc<Controller> {
        self.self_ref.upgrade().expect("controller alive")
    }

    /// Whether the coordinator has told this rank to leave its service loop.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.get()
    }

    /// Record that this rank's application body has finished (called by the
    /// job harness just before it sends `FINISHED`).
    pub fn mark_finished(&self) {
        self.finished.set(true);
    }

    /// Per-epoch records accumulated so far.
    pub fn records(&self) -> Vec<RankCkptRecord> {
        self.st.borrow().records.clone()
    }

    /// Channel-state bytes this rank logged across Chandy-Lamport epochs.
    pub fn cl_logged_bytes(&self) -> u64 {
        self.st.borrow().cl_logged
    }

    fn handle_epoch_begin(&self, p: &Proc, mpi: &Mpi, msg: &OobMsg) {
        self.phase_point(p, msg.a, ProtocolPhase::Begin);
        let groups = proto::PlanMap::read(msg.data.clone(), msg.b).expect("valid plan payload");
        {
            let mut st = self.st.borrow_mut();
            assert!(st.epoch.is_none(), "rank {}: overlapping epochs", self.rank);
            st.epoch = Some(EpochState { epoch: msg.a, groups });
            self.gate.set(GateState { word: msg.a, turn: 0, started: false });
        }
        // Passive coordination (helper thread) active for the whole epoch:
        // sliced compute arms the rank's demand wake, so it only wakes at
        // slice boundaries the data plane actually delivers into. In
        // Logging mode turn on the copy+log path instead of any gating.
        mpi.set_passive(true);
        if self.mode == CkptMode::Logging {
            mpi.set_log_mode(true);
        }
        mpi.oob_send(p, COORDINATOR_NODE, OobMsg::new(proto::EPOCH_BEGIN_ACK, msg.a, 0));
    }

    /// The whole protocol step of a gate broadcast, written once for both
    /// takers — the rank's own thread ([`CrHook::on_oob`]) and its listener
    /// ([`CrHook::on_oob_arrival`]): `GROUP_START(g)` closes the gate
    /// toward and from group `g` and owes the coordinator the returned
    /// ACK; `GROUP_DONE(g)` lets it reopen and owes nothing.
    fn gate_step(&self, msg: &OobMsg) -> Option<OobMsg> {
        assert!(self.st.borrow().epoch.is_some(), "gate broadcast outside epoch");
        Self::step(self.rank, self.gate.get(), |g| self.gate.set(g), msg)
    }

    /// [`gate_step`](Controller::gate_step) on the gate position alone:
    /// what a batch member runs ([`CrHook::on_oob_batch`]), the epoch being
    /// the one the position belongs to.
    fn step(
        rank: Rank,
        gate: GateState,
        set: impl FnOnce(GateState),
        msg: &OobMsg,
    ) -> Option<OobMsg> {
        let starting = msg.kind == proto::GROUP_START;
        assert_eq!(gate.word, msg.a);
        // A start, then its done, for each group in plan order.
        let in_turn = msg.b == u64::from(gate.turn) && starting != gate.started;
        assert!(in_turn, "rank {rank}: gate broadcast out of turn");
        set(GateState { started: starting, turn: gate.turn + u32::from(!starting), ..gate });
        starting.then(|| OobMsg::new(proto::GROUP_START_ACK, msg.a, msg.b))
    }

    /// `GROUP_START` / `GROUP_DONE` on the rank's own thread.
    fn handle_gate(&self, p: &Proc, mpi: &Mpi, msg: &OobMsg) {
        let starting = msg.kind == proto::GROUP_START;
        let phase = if starting { ProtocolPhase::GroupStart } else { ProtocolPhase::GroupDone };
        self.phase_point(p, msg.a, phase);
        match self.gate_step(msg) {
            Some(ack) => mpi.oob_send(p, COORDINATOR_NODE, ack),
            // Pairs of Done groups may communicate again.
            None => mpi.release_deferred(p),
        }
    }

    /// The member-side local checkpoint procedure: drain → per-connection
    /// teardown → snapshot (app state + MPI library state) → report.
    fn handle_group_go(&self, p: &Proc, mpi: &Mpi, msg: &OobMsg) {
        self.phase_point(p, msg.a, ProtocolPhase::Checkpoint);
        let t0 = p.now();
        // The wire carries an epoch *word* (epoch + retry counter); state
        // matching and replies echo the word, while image naming and
        // records use the real epoch — a retried epoch overwrites the same
        // image names.
        let word = msg.a;
        let (epoch, _) = proto::split_epoch(word);
        {
            let st = self.st.borrow();
            let ep = st.epoch.as_ref().expect("GROUP_GO outside epoch");
            assert_eq!(ep.epoch, word);
            // Only the group whose gate just closed may freeze.
            let gate = self.gate.get();
            let in_turn = msg.b == u64::from(gate.turn) && gate.started;
            assert!(in_turn, "rank {}: GROUP_GO out of turn", self.rank);
            assert_eq!(
                ep.groups.group_of(self.rank),
                msg.b as usize,
                "GROUP_GO sent to non-member"
            );
        }
        // 1. Flush, per connection (§4.2's client/server connection
        //    manager): ask every connected peer to acknowledge that it has
        //    stopped sending. Peers outside the group answer from their
        //    progress engines — while computing, that reply latency is
        //    bounded only by the §4.4 helper thread. Members of the same
        //    group are inside this same handler, so their FLUSH_REQs are
        //    consumed inline below (avoiding a mutual-wait deadlock).
        let peers = mpi.connected_peers();
        for &peer in &peers {
            mpi.ctrl_send(p, peer, CtrlWire { kind: proto::FLUSH_REQ, a: word, b: 0 });
        }
        let mut acks = 0usize;
        while acks < peers.len() {
            let (from, cw) = mpi.ctrl_recv_match(p, |_, c| {
                c.kind == proto::FLUSH_ACK || c.kind == proto::FLUSH_REQ
            });
            match cw.kind {
                proto::FLUSH_ACK => acks += 1,
                proto::FLUSH_REQ => {
                    mpi.ctrl_send(p, from, CtrlWire { kind: proto::FLUSH_ACK, a: cw.a, b: 0 })
                }
                _ => unreachable!(),
            }
        }
        p.handle().trace_span(Track::Rank(self.rank), "rank.flush", t0, || {
            vec![("peers", ArgValue::U64(peers.len() as u64))]
        });
        // With every peer quiesced, wait for in-flight traffic to land.
        let t_drain = p.now();
        for &peer in &peers {
            mpi.conn_wait_drained(p, peer);
        }
        // Fold anything the drain delivered into the library queues so the
        // snapshot below captures it.
        mpi.progress(p);
        p.handle().trace_span(Track::Rank(self.rank), "rank.drain", t_drain, Vec::new);
        // 2. Tear down every established connection: the NIC context cannot
        //    ride inside a process image (§2.2). Peers outside the group
        //    participate passively (the fabric charges only this side).
        let t_tear = p.now();
        for &peer in &peers {
            mpi.conn_teardown(p, peer);
        }
        p.handle().trace_span(Track::Rank(self.rank), "rank.teardown", t_tear, || {
            vec![("connections", ArgValue::U64(peers.len() as u64))]
        });
        // 3. Local snapshot via the BLCR-equivalent: registered application
        //    state plus the checkpointable MPI library state, charged to
        //    central storage at the processor-shared rate (this is where
        //    group size buys bandwidth).
        let mut image = self.snapshot_image(mpi, epoch, p.now());
        // Incremental checkpointing: after the first full image, write only
        // the dirty bytes (plus a small metadata floor) and record the
        // chain a restore must additionally read.
        {
            let mut st = self.st.borrow_mut();
            let dirty = self.client.take_dirty();
            if self.incremental && st.has_full {
                image.restore_extra = st.chain_bytes;
                image.footprint = dirty.max(MB_FLOOR).min(image.footprint);
                st.chain_bytes += image.footprint;
            } else {
                st.has_full = true;
                st.chain_bytes = image.footprint;
            }
        }
        self.blcr.checkpoint(p, &self.job, image);
        self.report_done(p, mpi, word, p.now() - t0, peers.len());
        p.handle().trace_span(Track::Rank(self.rank), "rank.checkpoint", t0, || {
            vec![("epoch", ArgValue::U64(epoch))]
        });
    }

    /// The one place a process image is built: the registered application
    /// state plus the checkpointable MPI library state, at full footprint.
    fn snapshot_image(&self, mpi: &Mpi, epoch: u64, taken_at: Time) -> ProcessImage {
        let (app_state, footprint) = self.client.snapshot();
        let payload = proto::encode_image_payload(&app_state, &mpi.export_cr_state());
        ProcessImage {
            rank: self.rank,
            epoch,
            taken_at,
            footprint,
            restore_extra: 0,
            app_state: payload,
        }
    }

    /// The one place an image is reported durable: record the epoch's
    /// *Individual Checkpoint Time*, then tell the coordinator. `word` is
    /// whatever the coordinator tagged the epoch's messages with.
    fn report_done(&self, p: &Proc, mpi: &Mpi, word: u64, individual: Time, torn: usize) {
        let (epoch, _) = proto::split_epoch(word);
        {
            let records = &mut self.st.borrow_mut().records;
            // One record an epoch: grow from one, not from four.
            if records.len() == records.capacity() {
                records.reserve_exact(records.len().max(1));
            }
            let rank = self.rank;
            records.push(RankCkptRecord { epoch, rank, individual, connections_torn: torn });
        }
        mpi.oob_send(p, COORDINATOR_NODE, OobMsg::new(proto::RANK_DONE, word, individual));
    }

    fn handle_epoch_end(&self, p: &Proc, mpi: &Mpi, msg: &OobMsg) {
        self.phase_point(p, msg.a, ProtocolPhase::End);
        {
            let mut st = self.st.borrow_mut();
            let ep = st.epoch.take().expect("EPOCH_END outside epoch");
            assert_eq!(ep.epoch, msg.a);
            if self.mode != CkptMode::ChandyLamport {
                let turn = self.gate.get().turn as usize;
                assert_eq!(turn, ep.groups.group_count(), "EPOCH_END with unfinished groups");
            }
            st.cl = None;
        }
        self.leave_epoch(p, mpi);
        mpi.oob_send(p, COORDINATOR_NODE, OobMsg::new(proto::EPOCH_END_ACK, msg.a, 0));
    }

    /// Undo [`Controller::handle_epoch_begin`]: back to the running-state
    /// data plane. Out of passive mode compute arms no demand wake, so
    /// data-plane arrivals go back to never waking a computing rank.
    fn leave_epoch(&self, p: &Proc, mpi: &Mpi) {
        mpi.set_passive(false);
        if self.mode == CkptMode::Logging {
            mpi.set_log_mode(false);
        }
        mpi.release_deferred(p);
    }

    /// A coordinator phase deadline tripped: discard whatever epoch attempt
    /// is installed and roll back to running state. Idempotent — a rank the
    /// abort reaches before the attempt's `EPOCH_BEGIN` (or after its own
    /// stale replies) just ACKs. Any image already written stays on storage
    /// but is unreachable: the epoch never manifests, so restart treats it
    /// exactly like a torn write, and a successful retry overwrites it.
    fn handle_abort(&self, p: &Proc, mpi: &Mpi, msg: &OobMsg) {
        let had_epoch = {
            let mut st = self.st.borrow_mut();
            st.cl = None;
            st.epoch.take().is_some()
        };
        if had_epoch {
            self.leave_epoch(p, mpi);
        }
        let (epoch, _) = proto::split_epoch(msg.a);
        p.handle().trace_instant(Track::Rank(self.rank), "ckpt.rank_abort", || {
            vec![("epoch", ArgValue::U64(epoch))]
        });
        mpi.oob_send(p, COORDINATOR_NODE, OobMsg::new(proto::ABORT_ACK, msg.a, 0));
    }
}

impl Controller {
    /// Chandy-Lamport snapshot: record state, start a *background* image
    /// write, and send markers on every channel. Triggered by the
    /// coordinator's CL_SNAPSHOT or by the first marker to arrive,
    /// whichever comes first — exactly the CL rule.
    fn cl_snapshot(&self, p: &Proc, mpi: &Mpi, epoch: u64) {
        {
            let st = self.st.borrow();
            if st.cl.is_some() {
                return; // already snapshotted this epoch
            }
        }
        let started = p.now();
        let peers = mpi.connected_peers();
        let image = self.snapshot_image(mpi, epoch, started);
        let name = ProcessImage::object_name(&self.job, epoch, self.rank);
        let footprint = image.footprint;
        let obj = gbcr_storage::StoredObject::new(image.encode(), footprint);
        let ticket = self.blcr.store().begin_write_image(p, self.rank, &name, obj);
        {
            let mut st = self.st.borrow_mut();
            st.cl = Some(Box::new(ClState {
                epoch,
                pending: {
                    let stats = mpi.stats();
                    peers.iter().map(|&q| (q, stats.recv_bytes_from(q))).collect()
                },
                write_done: false,
                reported: false,
                started,
            }));
        }
        // Markers on every channel (in-band, never gated).
        for &q in &peers {
            mpi.ctrl_send(p, q, CtrlWire { kind: proto::CL_MARKER, a: epoch, b: 0 });
        }
        // Background writer: computation continues while the image drains
        // to storage (the idealized non-blocking property).
        let ctl = self.rc();
        let store = self.blcr.store().clone();
        let rank = self.rank;
        let mpi2 = mpi.clone();
        p.handle().spawn(format!("cl-writer-{}", self.rank), move |hp| {
            store.finish_write_image(hp, rank, ticket);
            {
                let mut st = ctl.st.borrow_mut();
                if let Some(cl) = st.cl.as_mut() {
                    cl.write_done = true;
                }
            }
            ctl.cl_maybe_report(hp, &mpi2);
        });
        self.cl_maybe_report(p, mpi);
    }

    /// Marker received from `q`: everything that arrived on that channel
    /// since our snapshot is channel state and must be logged.
    fn cl_on_marker(&self, p: &Proc, mpi: &Mpi, q: Rank, epoch: u64) {
        self.cl_snapshot(p, mpi, epoch); // first marker triggers the snapshot
        {
            let mut st = self.st.borrow_mut();
            let Some(cl) = st.cl.as_mut() else { return };
            let at = cl.pending.binary_search_by_key(&q, |&(r, _)| r);
            let Some(at) = at.ok().filter(|_| cl.epoch == epoch) else {
                return; // stale or duplicate marker
            };
            let (_, base) = cl.pending.remove(at);
            let delta = mpi.stats().recv_bytes_from(q).saturating_sub(base);
            st.cl_logged += delta;
        }
        self.cl_maybe_report(p, mpi);
    }

    /// Report RANK_DONE once the image is durable and every channel's
    /// marker has arrived.
    fn cl_maybe_report(&self, p: &Proc, mpi: &Mpi) {
        let done = {
            let mut st = self.st.borrow_mut();
            let Some(cl) = st.cl.as_mut() else { return };
            if cl.reported || !cl.write_done || !cl.pending.is_empty() {
                return;
            }
            cl.reported = true;
            (cl.epoch, p.now() - cl.started)
        };
        // CL never tears connections down.
        self.report_done(p, mpi, done.0, done.1, 0);
    }
}

impl Controller {
    /// Uncoordinated local snapshot: no drain, no teardown, no gates —
    /// just freeze-and-write on this rank's own schedule. Message logging
    /// runs for the whole job in this mode (enabled at attach time by the
    /// job harness), so the snapshot itself is the only extra cost here.
    fn uncoordinated_snapshot(&self, p: &Proc, mpi: &Mpi, epoch: u64) {
        let t0 = p.now();
        self.blcr.checkpoint(p, &self.job, self.snapshot_image(mpi, epoch, t0));
        self.report_done(p, mpi, epoch, p.now() - t0, 0);
    }
}

impl CrHook for Controller {
    fn user_send_allowed(&self, peer: Rank) -> bool {
        if matches!(
            self.mode,
            CkptMode::Logging | CkptMode::ChandyLamport | CkptMode::Uncoordinated
        ) {
            return true;
        }
        let st = self.st.borrow();
        let Some(ep) = st.epoch.as_ref() else {
            return true;
        };
        let (mine, theirs) = (ep.groups.group_of(self.rank), ep.groups.group_of(peer));
        let GateState { turn, started, .. } = self.gate.get();
        let turn = turn as usize;
        let in_progress = |g| started && g == turn;
        (mine < turn) == (theirs < turn) && !in_progress(mine) && !in_progress(theirs)
    }

    fn on_ctrl(&self, p: &Proc, mpi: &Mpi, from: Rank, msg: CtrlWire) {
        match msg.kind {
            proto::CL_MARKER => self.cl_on_marker(p, mpi, from, msg.a),
            proto::FLUSH_REQ => {
                // Passive side of the per-connection manager: confirm we
                // have stopped sending (our gate toward the requester is
                // already closed by GROUP_START).
                mpi.ctrl_send(p, from, CtrlWire { kind: proto::FLUSH_ACK, a: msg.a, b: 0 });
            }
            // A FLUSH_ACK arriving here (not consumed by a member's wait
            // loop) would be a protocol error.
            other => panic!(
                "rank {}: unexpected in-band control message {} ({})",
                self.rank,
                other,
                proto::kind_name(other)
            ),
        }
    }

    /// The gate broadcasts — every rank hears of every group, 2·n²/g
    /// messages an epoch, and all but the group's own members have nothing
    /// to do but note it — are answered by the listener whenever the
    /// rank's own thread would do no more than `gate_step`:
    /// no phase-fault hook to consult on entry (it may kill or stall), a
    /// coordinator link — the one the broadcast landed on — that takes the
    /// ACK as it stands (no reconnect), and no deferred send a reopening
    /// gate would release (and perhaps reconnect for). Anything else waits
    /// for the thread.
    fn on_oob_arrival(&self, mpi: &Mpi, link: &Link<OobMsg>, msg: OobMsg) -> Option<OobMsg> {
        if !matches!(msg.kind, proto::GROUP_START | proto::GROUP_DONE)
            || self.phase_hook.borrow().is_some()
            || mpi.has_deferred()
            || !link.is_active()
        {
            return Some(msg);
        }
        debug_assert_eq!(link.peer(), COORDINATOR_NODE, "a gate broadcast from a rank");
        if let Some(ack) = self.gate_step(&msg) {
            let size = ack.wire_size();
            let sent = link.try_send(ack, size);
            assert!(sent.is_ok(), "rank {}: coordinator link went down mid-event", self.rank);
        }
        None
    }

    /// A gate broadcast in a batch, while the listener's last verdict for
    /// this rank stands: every row `on_oob_arrival` checks — no phase-fault
    /// hook (installing one drops the verdict), no deferred send, the
    /// coordinator link `Active` — stands with it, since what the listener
    /// took was a gate broadcast (it takes nothing else), so what is left
    /// is the message's kind. The step reads and moves the gate position
    /// where the runtime keeps it, and nothing of this controller.
    fn on_oob_batch(
        &self,
        rank: Rank,
        gate: &Cell<GateState>,
        msg: &OobMsg,
    ) -> Option<Option<OobMsg>> {
        if !matches!(msg.kind, proto::GROUP_START | proto::GROUP_DONE) {
            return None;
        }
        Some(Self::step(rank, gate.get(), |g| gate.set(g), msg))
    }

    fn on_oob(&self, p: &Proc, mpi: &Mpi, from: NodeId, msg: OobMsg) {
        debug_assert_eq!(from, COORDINATOR_NODE, "protocol messages come from the coordinator");
        match msg.kind {
            proto::EPOCH_BEGIN => self.handle_epoch_begin(p, mpi, &msg),
            proto::GROUP_START | proto::GROUP_DONE => self.handle_gate(p, mpi, &msg),
            proto::GROUP_GO => self.handle_group_go(p, mpi, &msg),
            proto::CL_SNAPSHOT => self.cl_snapshot(p, mpi, msg.a),
            proto::UNCOORD_GO => self.uncoordinated_snapshot(p, mpi, msg.a),
            proto::EPOCH_END => self.handle_epoch_end(p, mpi, &msg),
            proto::ABORT_EPOCH => self.handle_abort(p, mpi, &msg),
            proto::TRAFFIC_QUERY => {
                let data = proto::encode_traffic(&mpi.stats().traffic.per_peer);
                mpi.oob_send(
                    p,
                    COORDINATOR_NODE,
                    OobMsg { kind: proto::TRAFFIC_REPLY, a: msg.a, b: 0, data },
                );
            }
            proto::RECONCILE => {
                // A failover coordinator is rebuilding its predecessor's
                // bookkeeping: echo the term, report whether our body
                // finished, and carry our half-open epoch word (if any) so
                // the new leader can abort the attempt cleanly.
                let open = self.st.borrow().epoch.as_ref().map(|ep| ep.epoch);
                mpi.oob_send(
                    p,
                    COORDINATOR_NODE,
                    OobMsg {
                        kind: proto::RECONCILE_ACK,
                        a: msg.a,
                        b: u64::from(self.finished.get()),
                        data: proto::encode_reconcile_ack(open),
                    },
                );
            }
            proto::SHUTDOWN => self.shutdown.set(true),
            other => panic!(
                "rank {}: unexpected OOB message {} ({})",
                self.rank,
                other,
                proto::kind_name(other)
            ),
        }
    }
}
