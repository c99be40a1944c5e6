//! The per-rank runtime: its state ([`Rt`]) and every operation on it —
//! protocol state machine, matching, deferral, the progress engine and the
//! checkpoint layer's surface — defined once, on [`Mpi`].
//!
//! Every runtime is owned by exactly one simulated process (its rank's
//! thread); the blocking hook callbacks and all blocking helpers run on
//! that same thread, and the two things that do not — the listeners,
//! `Mpi::oob_arrival` and `Mpi::data_arrival` — run inside a delivery
//! event while that thread is parked, so the state cell is never borrowed
//! twice, provided no borrow is held across a park point.

use crate::api::Mpi;
use crate::config::{MpiConfig, EAGER_THRESHOLD, LOGGING_COPY_BW};
use crate::hook::{CrHook, CtrlWire, OobMsg};
use crate::types::{Msg, Rank, Request, Tag};
use crate::wake::DemandWake;
use crate::world::{Gate, ListenerSlot, Listeners, World};
use gbcr_des::{Proc, ProcId, Time, TimerHandle};
use gbcr_net::{Endpoint, Link, NodeId};
use std::cell::{Cell, RefCell, RefMut};
use std::collections::VecDeque;
use std::rc::Rc;

/// Fixed per-message header bytes charged on the wire.
pub(crate) const WIRE_HEADER: u64 = 64;

/// Data-plane wire messages (the simulated MVAPICH2 packet types).
#[derive(Debug, Clone)]
pub(crate) enum WireMsg {
    /// Small message, payload travels immediately (copied to a comm buffer).
    Eager { tag: Tag, useq: u64, msg: Msg },
    /// Rendezvous request-to-send for a large message.
    Rts { tag: Tag, size: u64, sreq: u64, useq: u64 },
    /// Receiver grants the rendezvous; sender may start the RDMA transfer.
    Cts { sreq: u64, rreq: u64 },
    /// The rendezvous bulk data (zero-copy RDMA write in the real system).
    Data { rreq: u64, msg: Msg },
    /// Checkpoint-protocol control message riding in-band.
    Ctrl(CtrlWire),
}

impl WireMsg {
    fn wire_size(&self) -> u64 {
        match self {
            WireMsg::Eager { msg, .. } => WIRE_HEADER + msg.size,
            WireMsg::Data { msg, .. } => WIRE_HEADER + msg.size,
            WireMsg::Rts { .. } | WireMsg::Cts { .. } | WireMsg::Ctrl(_) => WIRE_HEADER,
        }
    }
}

/// Counters for the buffering machinery (feeds the §4.3 ablation bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeferStats {
    /// Operations deferred under message buffering.
    pub msg_buffered: u64,
    /// Payload bytes held under message buffering.
    pub msg_buffered_bytes: u64,
    /// Operations deferred under request buffering.
    pub req_buffered: u64,
    /// User-payload bytes whose transfer was postponed by request buffering
    /// (bytes *not* copied — the saving vs. message logging).
    pub req_buffered_bytes: u64,
    /// Deferred operations later released to the network.
    pub released: u64,
    /// High-water mark of the deferred queue length.
    pub max_queue: usize,
    /// Replay duplicates suppressed by the receive watermark (restart runs
    /// only; always 0 in failure-free operation).
    pub dups_dropped: u64,
}

impl DeferStats {
    /// Fold another rank's counters into a job-wide total: everything
    /// sums except the queue high-water mark, which is the largest seen.
    pub fn merge(&mut self, other: &DeferStats) {
        self.msg_buffered += other.msg_buffered;
        self.msg_buffered_bytes += other.msg_buffered_bytes;
        self.req_buffered += other.req_buffered;
        self.req_buffered_bytes += other.req_buffered_bytes;
        self.released += other.released;
        self.max_queue = self.max_queue.max(other.max_queue);
        self.dups_dropped += other.dups_dropped;
    }
}

/// Per-peer user-plane traffic counters (input to dynamic group formation).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// `(peer, messages, payload bytes)` for every peer this rank has sent
    /// user messages to, sorted by peer rank.
    pub per_peer: Vec<(Rank, u64, u64)>,
}

/// One coherent snapshot of a rank's endpoint telemetry, taken under a
/// single state borrow by [`crate::Mpi::stats`]: one call, one consistent
/// view (no per-field getter can observe a torn update).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Per-peer *sent* user traffic (input to dynamic group formation).
    pub traffic: TrafficStats,
    /// Per-source *received* user-message `(peer, count, bytes)`, sorted
    /// by peer (Chandy-Lamport channel accounting).
    pub recv_per_peer: Vec<(Rank, u64, u64)>,
    /// Deferral machinery counters (§4.3 ablation).
    pub defer: DeferStats,
    /// Operations currently queued in the deferral buffer.
    pub deferred_len: usize,
    /// Peers with an `Active` data-plane connection, sorted.
    pub connected_peers: Vec<Rank>,
    /// User bytes copied into message logs so far (logging ablation).
    pub logged_bytes: u64,
    /// What this rank's listeners answered without resuming it.
    pub listener: ListenerStats,
}

/// Messages a rank's listeners answered in its stead, without resuming it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ListenerStats {
    /// Out-of-band messages the hook answered at arrival
    /// ([`CrHook::on_oob_arrival`]): the gate broadcasts on the fast path.
    pub oob: u64,
    /// Rendezvous RTS and CTS packets the data-plane listener answered
    /// while the rank was blocked in [`Mpi::wait`].
    pub handshakes: u64,
}

impl EndpointStats {
    /// Cumulative user bytes received from `peer`.
    pub fn recv_bytes_from(&self, peer: Rank) -> u64 {
        self.recv_per_peer.iter().find(|(r, _, _)| *r == peer).map_or(0, |(_, _, b)| *b)
    }
}

/// The checkpointable slice of a rank's MPI-library state (what BLCR
/// captures from the process image in the real system): delivered-but-
/// unconsumed receive data plus eager messages held in the deferral queues
/// (*message buffers*). Rendezvous bookkeeping is deliberately excluded —
/// an incomplete rendezvous means the application-level send/receive had
/// not completed, so deterministic replay reissues it (see DESIGN.md §3).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MpiCrState {
    /// `(src, tag, msg)` receive data present in the library at freeze
    /// time, in matchable order.
    pub inbound: Vec<(Rank, Tag, Msg)>,
    /// `(dst, tag, msg, useq)` eager messages sitting in the message
    /// buffers whose send precedes the application's registered state
    /// boundary (later ones are re-executed by the application itself).
    pub deferred_eager: Vec<(Rank, Tag, Msg, u64)>,
    /// Per-destination next send sequence number **as of the application's
    /// registered state boundary**, so replayed sends reuse their original
    /// sequence numbers.
    pub send_seqs: Vec<(Rank, u64)>,
    /// Per-source receive watermark at freeze: everything below it was
    /// delivered pre-freeze and must be suppressed if replayed.
    pub recv_watermarks: Vec<(Rank, u64)>,
    /// Per-communicator collective sequence counters **at the boundary**,
    /// so replayed collectives reuse their original tags.
    pub coll_seqs: Vec<(u32, u32)>,
}

/// Where one request stands. A request is born by `isend`/`irecv` (or, for
/// `Sink`, by a stale RTS), moves only through the transitions drawn in
/// DESIGN.md §3.2, and leaves the table when the application claims it
/// (`Recvd`, `Sent`) or its DATA is discarded (`Sink`).
enum Req {
    /// Receive posted, nothing matched yet.
    Posted { src: Option<Rank>, tag: Tag },
    /// Rendezvous receive whose CTS went out (or sits deferred); `tag` and
    /// `useq` are the matched RTS's, so the DATA completion carries full
    /// metadata and bumps the watermark.
    AwaitData { tag: Tag, useq: u64 },
    /// Receive complete, not yet claimed: `(src, tag, msg)`.
    Recvd(Rank, Tag, Msg),
    /// Rendezvous send whose RTS went out (or sits deferred).
    AwaitCts { dst: Rank, msg: Msg },
    /// Rendezvous send between CTS and wire: the DATA is gate-deferred or
    /// reconnecting.
    Sending,
    /// Send complete (the user buffer is reusable), not yet claimed.
    Sent,
    /// CTS was granted for a stale replayed RTS; the arriving DATA is
    /// discarded.
    Sink,
}

enum Unexpected {
    Eager { src: Rank, tag: Tag, msg: Msg },
    Rts { src: Rank, tag: Tag, sreq: u64, useq: u64 },
}

struct Deferred {
    dst: Rank,
    wire: WireMsg,
    /// Send-request id to complete when this actually reaches the wire.
    on_sent: Option<u64>,
}

/// Everything a rank keeps about one peer, created on first contact in
/// either direction: one ordered lookup per message reaches all of it.
/// Sixty-four bytes: the peer's rank is the link's.
struct Peer {
    /// This rank's end of the data-plane connection, resolved once.
    link: Link<WireMsg>,
    /// User messages and payload bytes sent to the peer (input to dynamic
    /// group formation).
    sent: (u64, u64),
    /// User messages and payload bytes received from the peer — consumed
    /// by the Chandy-Lamport channel-state logging accounting.
    recvd: (u64, u64),
    /// Next user-message sequence number toward the peer.
    next_useq: u64,
    /// Lowest sequence number from the peer that would be *new*
    /// (everything below was delivered before the last checkpoint freeze).
    /// [`NO_WATERMARK`] until the peer's first user message or an imported
    /// watermark: exported state lists exactly the peers that have one.
    recv_watermark: u64,
}

const _: () = assert!(std::mem::size_of::<Peer>() == 64);

/// `Peer::recv_watermark` before the peer has one. A watermark is one past
/// a sequence number the peer sent, so it never reaches this.
const NO_WATERMARK: u64 = u64::MAX;

impl Peer {
    fn rank(&self) -> Rank {
        self.link.peer().0
    }

    /// The receive watermark, set to 0 if the peer had none: a user
    /// message from it is arriving.
    fn watermark(&mut self) -> &mut u64 {
        if self.recv_watermark == NO_WATERMARK {
            self.recv_watermark = 0;
        }
        &mut self.recv_watermark
    }
}

pub(crate) struct RtState {
    /// Sorted by rank and searched by bisection: a rank has few peers, and
    /// one with one or two holds exactly that many records
    /// (`room_for_one`).
    peers: Vec<Peer>,
    /// Every live request, by id, in allocation (= id) order — which for
    /// `Posted` entries is post order, the order MPI matches in. A rank
    /// has a handful in flight (EXPERIMENTS.md "How many requests does a
    /// rank have in flight?"), so the table is scanned, not indexed.
    reqs: Vec<(u64, Req)>,
    unexpected: VecDeque<Unexpected>,
    /// Receive data claimed by the application since its last registered
    /// state boundary. Replay after restart re-executes those receives, so
    /// their data must ride in the image (piecewise-deterministic replay).
    /// Emptied at every boundary ([`Mpi::mark_boundary`]), buffer and all:
    /// between a boundary and the step's first receive a rank holds none.
    replay_log: Vec<(Rank, Tag, Msg)>,
    /// The per-destination send sequence counters (peers sent to only) and
    /// the collective counters as of the last boundary: what a replay from
    /// the registered state resumes at. Empty until the first boundary.
    boundary_seqs: Vec<(Rank, u64)>,
    boundary_coll_seqs: Vec<(u32, u32)>,
    deferred: VecDeque<Deferred>,
    /// Unsolicited control traffic, in-band and out-of-band. It comes in
    /// bursts an epoch apart, so each queue gives its buffer back when it
    /// is emptied (`take_control`) instead of idling on it in between.
    ctrl_in: VecDeque<(Rank, CtrlWire)>,
    oob_in: VecDeque<(NodeId, OobMsg)>,
    next_req: u64,
    /// `(communicator id, next collective sequence number)`, sorted by id.
    coll_seq: Vec<(u32, u32)>,
    passive: bool,
    dispatching: bool,
    /// The request [`Mpi::wait`] is parked on; `None` outside that park.
    /// Only such a park may be answered for by the data-plane listener.
    awaiting: Option<u64>,
    log_mode: bool,
    logged_bytes: u64,
    /// The hook, as the rank's own thread reads it (its listener slot
    /// holds it too, for the batch listener).
    hook: Option<Rc<dyn CrHook>>,
    defer_stats: DeferStats,
}

impl RtState {
    /// Enter a new request into the table in state `req`.
    fn alloc_req(&mut self, req: Req) -> u64 {
        let id = self.next_req;
        self.next_req += 1;
        room_for_one(&mut self.reqs);
        self.reqs.push((id, req));
        id
    }

    /// Request `id`'s state; a wire message naming a request this rank
    /// does not hold is a protocol bug.
    fn req(&mut self, id: u64) -> &mut Req {
        match self.reqs.iter_mut().find(|(i, _)| *i == id) {
            Some((_, req)) => req,
            None => panic!("wire message for unknown request {id}"),
        }
    }

    /// First posted receive matching `(from, tag)`, in post order.
    fn match_posted(&mut self, from: Rank, tag: Tag) -> Option<&mut (u64, Req)> {
        self.reqs.iter_mut().find(|(_, req)| {
            matches!(req, Req::Posted { src, tag: t } if *t == tag && src.is_none_or(|want| want == from))
        })
    }

    /// Take a completed request out of the table: `Some(Some(msg))` for a
    /// receive (logged for replay), `Some(None)` for a send, `None` while
    /// it is incomplete.
    fn claim(&mut self, id: u64) -> Option<Option<Msg>> {
        let done = |(i, req): &(u64, Req)| *i == id && matches!(req, Req::Recvd(..) | Req::Sent);
        let at = self.reqs.iter().position(done)?;
        match self.reqs.remove(at).1 {
            Req::Recvd(src, tag, msg) => {
                room_for_one(&mut self.replay_log);
                self.replay_log.push((src, tag, msg.clone()));
                Some(Some(msg))
            }
            _ => Some(None),
        }
    }

    /// The collective sequence counter of communicator `comm_id`, created
    /// at 0 on first use.
    fn coll_seq(&mut self, comm_id: u32) -> &mut u32 {
        let at = self.coll_seq.binary_search_by_key(&comm_id, |e| e.0).unwrap_or_else(|at| {
            self.coll_seq.insert(at, (comm_id, 0));
            at
        });
        &mut self.coll_seq[at].1
    }
}

/// The state borrow, held: the send path threads it through instead of
/// re-taking it at every step.
type St<'a> = RefMut<'a, RtState>;

/// One rank's runtime state, owned by its [`Mpi`] handles: the world it
/// lives in, its two endpoints, and the protocol state behind one cell.
pub(crate) struct Rt {
    pub(crate) world: World,
    pub(crate) rank: Rank,
    pub(crate) ep: Endpoint<WireMsg>,
    pub(crate) oob_ep: Endpoint<OobMsg>,
    /// The world's listener table, where this rank's slot is.
    listeners: Rc<Listeners>,
    st: RefCell<RtState>,
    /// [`ListenerStats::handshakes`] (the out-of-band count lives in the
    /// world's listener slot).
    handshakes: Cell<u64>,
    /// The rank's process, once it parks on its out-of-band mailbox: the
    /// owner a listener's verdict is about.
    owner: Cell<Option<ProcId>>,
}

impl Rt {
    /// Demand-driven progress wake, armed across a passive `compute` park
    /// and poked by the data-plane listener (`World::attach`); it lives in
    /// the rank's listener slot, which the batch listener reanchors.
    pub(crate) fn demand(&self) -> &DemandWake {
        &self.slot().demand
    }

    /// The rank's slot in the world's listener table: its hook, demand
    /// wake and out-of-band listener verdict.
    fn slot(&self) -> &ListenerSlot {
        self.listeners.slot(self.rank)
    }

    pub(crate) fn new(world: World, rank: Rank) -> Self {
        let ep = world.shared.data.endpoint(NodeId(rank));
        let oob_ep = world.shared.oob.endpoint(NodeId(rank));
        let listeners = world.shared.listeners.clone();
        Rt {
            world,
            rank,
            ep,
            oob_ep,
            listeners,
            st: RefCell::new(RtState {
                peers: Vec::new(),
                reqs: Vec::new(),
                unexpected: VecDeque::new(),
                replay_log: Vec::new(),
                boundary_seqs: Vec::new(),
                boundary_coll_seqs: Vec::new(),
                deferred: VecDeque::new(),
                ctrl_in: VecDeque::new(),
                oob_in: VecDeque::new(),
                next_req: 0,
                coll_seq: Vec::new(),
                passive: false,
                dispatching: false,
                awaiting: None,
                log_mode: false,
                logged_bytes: 0,
                hook: None,
                defer_stats: DeferStats::default(),
            }),
            handshakes: Cell::default(),
            owner: Cell::default(),
        }
    }
}

impl Mpi {
    fn cfg(&self) -> &MpiConfig {
        &self.rt.world.shared.cfg
    }

    /// The record for `rank`, created (and its link resolved) on first
    /// contact.
    fn peer<'a>(&self, st: &'a mut RtState, rank: Rank) -> &'a mut Peer {
        let at = st.peers.binary_search_by_key(&rank, Peer::rank).unwrap_or_else(|at| {
            let link = self.rt.ep.link(NodeId(rank));
            let (sent, recvd) = ((0, 0), (0, 0));
            let new = Peer { link, sent, recvd, next_useq: 0, recv_watermark: NO_WATERMARK };
            room_for_one(&mut st.peers);
            st.peers.insert(at, new);
            at
        });
        &mut st.peers[at]
    }

    pub(crate) fn next_coll_seq(&self, comm_id: u32) -> u32 {
        let mut st = self.rt.st.borrow_mut();
        let c = st.coll_seq(comm_id);
        let v = *c;
        *c = c.wrapping_add(1);
        v
    }

    // ------------------------------------------------------------------
    // Send path
    // ------------------------------------------------------------------

    /// Nonblocking send on any tag (collectives use the reserved ones),
    /// and whether it went eagerly. Eager messages complete immediately
    /// (buffer copied); rendezvous sends complete when the data leaves the
    /// NIC.
    pub(crate) fn post_send(&self, p: &Proc, dst: Rank, tag: Tag, msg: Msg) -> (Request, bool) {
        assert!(dst < self.size(), "isend to rank {dst} out of range");
        assert_ne!(dst, self.rt.rank, "self-sends are not supported; use local state");
        let mut st = self.rt.st.borrow_mut();
        let peer = self.peer(&mut st, dst);
        peer.sent.0 += 1;
        peer.sent.1 += msg.size;
        let useq = peer.next_useq;
        peer.next_useq += 1;
        let logged = st.log_mode;
        if logged {
            // Message-logging ablation (paper §2.1/§7): every outgoing
            // message is fully copied and logged, and zero-copy rendezvous
            // cannot be used. Charge the copy+log memcpy time and ship the
            // payload eagerly regardless of size.
            let copy_time = gbcr_des::time::transfer_time(msg.size, LOGGING_COPY_BW);
            drop(st);
            p.sleep(copy_time);
            st = self.rt.st.borrow_mut();
            st.logged_bytes += msg.size;
        }
        if logged || msg.size <= EAGER_THRESHOLD {
            // Eager: the payload is copied into a comm buffer, so the user
            // buffer is immediately reusable regardless of deferral (this
            // is precisely what makes *message buffering* possible).
            let id = st.alloc_req(Req::Sent);
            self.enqueue_send(Some(p), st, dst, WireMsg::Eager { tag, useq, msg }, None);
            (Request(id), true)
        } else {
            let size = msg.size;
            let sreq = st.alloc_req(Req::AwaitCts { dst, msg });
            self.enqueue_send(Some(p), st, dst, WireMsg::Rts { tag, size, sreq, useq }, None);
            (Request(sreq), false)
        }
    }

    /// Route a wire message to the network, or defer it if the hook's gate
    /// is closed for `dst` (or earlier deferred traffic to `dst` exists —
    /// FIFO per destination is part of MPI's non-overtaking guarantee).
    /// `p` is `None` on the listener's path, which never reconnects.
    fn enqueue_send(
        &self,
        p: Option<&Proc>,
        mut st: St,
        dst: Rank,
        wire: WireMsg,
        on_sent: Option<u64>,
    ) {
        let allowed = st.hook.as_ref().is_none_or(|h| h.user_send_allowed(dst));
        if allowed && !st.deferred.iter().any(|d| d.dst == dst) {
            self.raw_send(p, st, dst, wire, on_sent);
        } else {
            let ds = &mut st.defer_stats;
            match wire {
                WireMsg::Eager { ref msg, .. } => {
                    ds.msg_buffered += 1;
                    ds.msg_buffered_bytes += msg.size;
                }
                WireMsg::Rts { size, .. } => {
                    ds.req_buffered += 1;
                    ds.req_buffered_bytes += size;
                }
                WireMsg::Cts { .. } => ds.req_buffered += 1,
                WireMsg::Data { ref msg, .. } => {
                    ds.req_buffered += 1;
                    ds.req_buffered_bytes += msg.size;
                }
                WireMsg::Ctrl(_) => unreachable!("ctrl messages are never gated"),
            }
            st.deferred.push_back(Deferred { dst, wire, on_sent });
            let len = st.deferred.len();
            let ds = &mut st.defer_stats;
            ds.max_queue = ds.max_queue.max(len);
        }
    }

    /// Put a wire message on the fabric, (re)connecting on demand. The
    /// state borrow is released around a connect: connecting parks, so it
    /// takes the sending rank's `p` — which the listener, answering only
    /// over an active link, never needs.
    fn raw_send<'a>(
        &'a self,
        p: Option<&Proc>,
        mut st: St<'a>,
        dst: Rank,
        wire: WireMsg,
        on_sent: Option<u64>,
    ) {
        // Destination's node died (fault injection): black-hole the message
        // instead of touching the torn-down connection. The send still
        // "completes" locally — on real hardware the HCA accepts the work
        // request and only an async error event later reports the QP broken.
        if self.rt.world.is_failed(dst) {
            self.rt.world.note_dropped_send();
        } else {
            let size = wire.wire_size();
            let link = &self.peer(&mut st, dst).link;
            if let Err(wire) = link.try_send(wire, size) {
                let p = p.expect("the data-plane listener answers over active links only");
                let link = link.clone();
                drop(st);
                link.connect_send(p, wire, size);
                st = self.rt.st.borrow_mut();
            }
        }
        if let Some(id) = on_sent {
            *st.req(id) = Req::Sent;
        }
    }

    /// Retry deferred operations whose destination gate has re-opened,
    /// preserving per-destination FIFO order. Called by the checkpoint
    /// controller after every gate change.
    pub fn release_deferred(&self, p: &Proc) {
        let t0 = p.now();
        let mut released: u64 = 0;
        loop {
            // Pop one releasable operation per pass (the head for some
            // destination whose gate is open), keeping order.
            let next = {
                let mut st = self.rt.st.borrow_mut();
                if st.deferred.is_empty() {
                    break;
                }
                let hook = st.hook.clone();
                let gate = |dst: Rank| hook.as_ref().is_none_or(|h| h.user_send_allowed(dst));
                let mut blocked_dsts: Vec<Rank> = Vec::new();
                let mut pick = None;
                for (i, d) in st.deferred.iter().enumerate() {
                    if blocked_dsts.contains(&d.dst) {
                        continue;
                    }
                    if gate(d.dst) {
                        pick = Some(i);
                        break;
                    }
                    blocked_dsts.push(d.dst);
                }
                match pick {
                    Some(i) => {
                        let d = st.deferred.remove(i).expect("index valid");
                        st.defer_stats.released += 1;
                        Some(d)
                    }
                    None => None,
                }
            };
            match next {
                Some(d) => {
                    released += 1;
                    self.raw_send(Some(p), self.rt.st.borrow_mut(), d.dst, d.wire, d.on_sent);
                }
                None => break,
            }
        }
        if released > 0 {
            p.handle().trace_span(
                gbcr_des::Track::Rank(self.rt.rank),
                "mpi.release_deferred",
                t0,
                || vec![("released", gbcr_des::ArgValue::U64(released))],
            );
        }
    }

    /// Whether any operation is deferred at all.
    pub fn has_deferred(&self) -> bool {
        !self.rt.st.borrow().deferred.is_empty()
    }

    /// Whether any deferred operation targets `peer`.
    pub fn has_deferred_to(&self, peer: Rank) -> bool {
        self.rt.st.borrow().deferred.iter().any(|d| d.dst == peer)
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    /// Nonblocking receive post on any tag (collectives use the reserved
    /// ones).
    pub(crate) fn post_recv(&self, p: &Proc, src: Option<Rank>, tag: Tag) -> Request {
        let mut st = self.rt.st.borrow_mut();
        // Try to satisfy from the unexpected queue first (arrival order).
        let pos = st.unexpected.iter().position(|u| match u {
            Unexpected::Eager { src: s, tag: t, .. } | Unexpected::Rts { src: s, tag: t, .. } => {
                *t == tag && src.is_none_or(|want| want == *s)
            }
        });
        let Some(i) = pos else {
            return Request(st.alloc_req(Req::Posted { src, tag }));
        };
        match st.unexpected.remove(i).expect("index valid") {
            Unexpected::Eager { src: s, tag: t, msg } => {
                Request(st.alloc_req(Req::Recvd(s, t, msg)))
            }
            Unexpected::Rts { src: s, tag: t, sreq, useq } => {
                let rreq = st.alloc_req(Req::AwaitData { tag: t, useq });
                // Grant the rendezvous: CTS back to the sender (gated).
                self.enqueue_send(Some(p), st, s, WireMsg::Cts { sreq, rreq }, None);
                Request(rreq)
            }
        }
    }

    /// Block until `req` completes; receives yield `Some(msg)`. While
    /// parked here the rank's rendezvous handshakes that do not complete
    /// `req` are answered at arrival (see `data_arrival`).
    pub fn wait(&self, p: &Proc, req: Request) -> Option<Msg> {
        loop {
            if let Some(done) = self.test(p, req) {
                return done;
            }
            self.rt.st.borrow_mut().awaiting = Some(req.0);
            self.wait_event(p);
            self.rt.st.borrow_mut().awaiting = None;
        }
    }

    /// Poll `req`; `Some(..)` if it completed (receives carry the message).
    pub fn test(&self, p: &Proc, req: Request) -> Option<Option<Msg>> {
        self.progress(p);
        self.rt.st.borrow_mut().claim(req.0)
    }

    // ------------------------------------------------------------------
    // Progress engine
    // ------------------------------------------------------------------

    /// Run the progress engine once without blocking (an `MPI_Iprobe`-ish
    /// library entry): drain both fabrics, run protocol handling, then
    /// dispatch unsolicited control traffic to the hook (unless a dispatch
    /// is already running on this rank — protocol code consumes follow-up
    /// messages explicitly). Returns whether anything was handled at all —
    /// `compute` uses this to anchor its slice lattice at the last instant
    /// progress did work.
    pub fn progress(&self, p: &Proc) -> bool {
        let mut worked = false;
        loop {
            let (mut st, mut any) = self.receive(p);
            // Hook dispatch: one unsolicited message at a time.
            let dispatch = if st.dispatching || st.hook.is_none() {
                None
            } else if let Some((from, cw)) = take_control(&mut st.ctrl_in, 0) {
                Some(DispatchItem::Ctrl(from, cw))
            } else {
                take_control(&mut st.oob_in, 0).map(|(from, om)| DispatchItem::Oob(from, om))
            };
            if let Some(item) = dispatch {
                st.dispatching = true;
                let hook = st.hook.clone().expect("hook present");
                drop(st);
                match item {
                    DispatchItem::Ctrl(from, cw) => hook.on_ctrl(p, self, from, cw),
                    DispatchItem::Oob(from, om) => hook.on_oob(p, self, from, om),
                }
                self.rt.st.borrow_mut().dispatching = false;
                any = true;
            }
            if !any {
                return worked;
            }
            worked = true;
        }
    }

    /// Receive, the first half of a `progress` iteration: run protocol
    /// handling on each data-plane arrival, then take the out-of-band
    /// queue under one borrow. Returns the state borrow, still held, and
    /// whether anything had arrived. Out of line because `progress`'s own
    /// frame stays on the rank's coroutine stack across hook dispatch — a
    /// whole local checkpoint — and stack pages, once touched, are resident
    /// memory: it must not carry the handlers' locals.
    #[inline(never)]
    fn receive(&self, p: &Proc) -> (St<'_>, bool) {
        let mut st = self.rt.st.borrow_mut();
        let mut any = false;
        // Popped one at a time, so the data-plane queue keeps its buffer
        // from message to message. A handler that parks (a CTS that must
        // reconnect) lets more arrive; they are handled too before the
        // out-of-band plane is looked at, as ever.
        while let Some((from, wire)) = self.rt.ep.try_recv() {
            any = true;
            st = self.handle_wire(Some(p), st, from.0, wire);
        }
        let queued = st.oob_in.len();
        self.rt.oob_ep.drain_into(&mut st.oob_in);
        any |= st.oob_in.len() > queued;
        (st, any)
    }

    /// Run the protocol step for one arrived wire message — on the rank's
    /// thread, or (`p` = `None`) in the listener. Takes and returns the
    /// state borrow: a step that answers on the wire gives it up (the send
    /// may park to reconnect) and re-takes it.
    fn handle_wire<'a>(
        &'a self,
        p: Option<&Proc>,
        mut st: St<'a>,
        from: Rank,
        wire: WireMsg,
    ) -> St<'a> {
        match wire {
            WireMsg::Eager { tag, useq, msg } => {
                let peer = self.peer(&mut st, from);
                let wm = peer.watermark();
                if useq < *wm {
                    // A replayed duplicate of a message delivered before the
                    // checkpoint this run restarted from.
                    st.defer_stats.dups_dropped += 1;
                    return st;
                }
                *wm = useq + 1;
                peer.recvd.0 += 1;
                peer.recvd.1 += msg.size;
                match st.match_posted(from, tag) {
                    Some((_, req)) => *req = Req::Recvd(from, tag, msg),
                    None => st.unexpected.push_back(Unexpected::Eager { src: from, tag, msg }),
                }
            }
            WireMsg::Rts { tag, size: _, sreq, useq } => {
                let rreq = if useq < *self.peer(&mut st, from).watermark() {
                    // Stale replayed rendezvous: the data was already
                    // consumed before the restored checkpoint. Complete
                    // the sender by granting a sink CTS and discarding
                    // the data on arrival.
                    st.defer_stats.dups_dropped += 1;
                    st.alloc_req(Req::Sink)
                } else if let Some((id, req)) = st.match_posted(from, tag) {
                    *req = Req::AwaitData { tag, useq };
                    *id
                } else {
                    st.unexpected.push_back(Unexpected::Rts { src: from, tag, sreq, useq });
                    return st;
                };
                self.enqueue_send(p, st, from, WireMsg::Cts { sreq, rreq }, None);
                return self.rt.st.borrow_mut();
            }
            WireMsg::Cts { sreq, rreq } => {
                let Req::AwaitCts { dst, msg } = std::mem::replace(st.req(sreq), Req::Sending)
                else {
                    panic!("rank {}: CTS for send request {sreq}, which awaits none", self.rt.rank)
                };
                debug_assert_eq!(dst, from);
                self.enqueue_send(p, st, from, WireMsg::Data { rreq, msg }, Some(sreq));
                return self.rt.st.borrow_mut();
            }
            WireMsg::Data { rreq, msg } => {
                let req = st.req(rreq);
                match *req {
                    Req::AwaitData { tag, useq } => {
                        let size = msg.size;
                        *req = Req::Recvd(from, tag, msg);
                        let peer = self.peer(&mut st, from);
                        let wm = peer.watermark();
                        *wm = (*wm).max(useq + 1);
                        peer.recvd.0 += 1;
                        peer.recvd.1 += size;
                    }
                    // Discarded duplicate rendezvous payload.
                    Req::Sink => st.reqs.retain(|(id, _)| *id != rreq),
                    _ => {
                        panic!("rank {}: DATA for request {rreq}, which awaits none", self.rt.rank)
                    }
                }
            }
            WireMsg::Ctrl(cw) => st.ctrl_in.push_back((from, cw)),
        }
        st
    }

    /// Park until anything arrives on either the data or the out-of-band
    /// plane (may wake spuriously). Service loops pair this with
    /// [`Mpi::progress`] and their own exit predicate. Registrations are
    /// withdrawn on return so that later deliveries can never wake this
    /// rank outside a genuine wait (OS-bypass fidelity).
    pub fn wait_event(&self, p: &Proc) {
        // "Nothing queued" and the registration are one step per endpoint.
        if !self.rt.ep.register_waiter_if_empty(p.id()) {
            return;
        }
        if self.rt.oob_ep.register_waiter_if_empty(p.id()) {
            self.rt.owner.set(Some(p.id()));
            p.park();
            self.rt.oob_ep.unregister_waiter(p.id());
        }
        self.rt.ep.unregister_waiter(p.id());
    }

    // ------------------------------------------------------------------
    // Compute with bounded-progress slicing
    // ------------------------------------------------------------------

    /// Perform `dt` of local computation. Data-plane arrivals do **not**
    /// interrupt computation (OS-bypass); out-of-band messages do (socket +
    /// listener thread). In passive coordination mode with the helper
    /// thread enabled, the progress engine additionally runs on every
    /// crossed slice boundary `anchor + k·progress_interval` (paper §4.4;
    /// the anchor is the last instant progress did work). Time spent
    /// coordinating extends the compute deadline: coordination steals the
    /// CPU, it does not do the application's work.
    ///
    /// No boundary wake is pre-scheduled (DESIGN.md §3.1): [`DemandWake`]
    /// is armed across a sliced park, and each message the data-plane
    /// listener queues schedules the wake at the *next* boundary after it.
    /// Boundaries with no traffic are elided. The pending deadline wake is
    /// cancelled and rescheduled when the deadline moves, so no stale wake
    /// chains survive an out-of-band interruption.
    pub fn compute(&self, p: &Proc, dt: Time) {
        let mut deadline = p.now().saturating_add(dt);
        let mut anchor = p.now();
        let interval = self.cfg().progress_interval;
        let mut wake: Option<(Time, TimerHandle)> = None;
        loop {
            let t0 = p.now();
            let did = self.progress(p);
            let now = p.now();
            deadline += now - t0;
            if did {
                anchor = now;
            }
            if now >= deadline {
                break;
            }
            if !self.rt.oob_ep.register_waiter_if_empty(p.id()) {
                continue;
            }
            match &wake {
                Some((t, _)) if *t == deadline => {}
                _ => {
                    if let Some((_, h)) = wake.take() {
                        h.cancel();
                    }
                    wake = Some((deadline, p.handle().schedule_wake_cancellable(deadline, p.id())));
                }
            }
            if self.cfg().helper_thread && self.rt.st.borrow().passive {
                self.rt.demand().arm(p.id(), anchor, interval, deadline);
            }
            self.rt.owner.set(Some(p.id()));
            p.park();
            // The listener re-anchors the lattice when it answers for this
            // rank mid-park (`oob_arrival`): resume on the anchor in force.
            if let Some(in_force) = self.rt.demand().disarm() {
                anchor = in_force;
            }
            self.rt.oob_ep.unregister_waiter(p.id());
        }
        if let Some((_, h)) = wake.take() {
            h.cancel();
        }
    }

    // ------------------------------------------------------------------
    // Control plane (the checkpoint layer's surface, not the application's)
    // ------------------------------------------------------------------

    /// Send an in-band control message to a peer rank. Never gated, but
    /// requires (and will establish) an active data-plane connection.
    pub fn ctrl_send(&self, p: &Proc, peer: Rank, cw: CtrlWire) {
        self.raw_send(Some(p), self.rt.st.borrow_mut(), peer, WireMsg::Ctrl(cw), None);
    }

    /// Send an out-of-band message to an arbitrary node (a rank's OOB
    /// endpoint or the coordinator).
    pub fn oob_send(&self, p: &Proc, node: NodeId, msg: OobMsg) {
        let size = msg.wire_size();
        self.rt.oob_ep.link(node).connect_send(p, msg, size);
    }

    /// Block until an in-band control message matching `pred` is available
    /// and consume it. Non-matching messages stay queued in order.
    pub fn ctrl_recv_match(
        &self,
        p: &Proc,
        mut pred: impl FnMut(Rank, &CtrlWire) -> bool,
    ) -> (Rank, CtrlWire) {
        loop {
            self.progress(p);
            {
                let mut st = self.rt.st.borrow_mut();
                if let Some(i) = st.ctrl_in.iter().position(|(r, c)| pred(*r, c)) {
                    return take_control(&mut st.ctrl_in, i).expect("index valid");
                }
            }
            self.wait_event(p);
        }
    }

    /// Establish the data-plane connection to `peer` (initiator pays).
    pub fn conn_connect(&self, p: &Proc, peer: Rank) {
        self.rt.ep.connect(p, NodeId(peer));
    }

    /// Flush (wait for in-flight both ways) and tear down the connection to
    /// `peer`. Caller must have stopped traffic in both directions.
    pub fn conn_teardown(&self, p: &Proc, peer: Rank) {
        self.rt.ep.teardown(p, NodeId(peer));
    }

    /// Wait until the channel to `peer` is empty in both directions.
    pub fn conn_wait_drained(&self, p: &Proc, peer: Rank) {
        self.rt.ep.wait_drained(p, NodeId(peer));
    }

    /// Peers with an `Active` data-plane connection, sorted: read off the
    /// endpoint's own peer index, not probed rank by rank.
    pub fn connected_peers(&self) -> Vec<Rank> {
        self.rt.ep.connected_peers().into_iter().map(|n| n.0).collect()
    }

    // ------------------------------------------------------------------
    // Checkpoint-support state
    // ------------------------------------------------------------------

    /// Register the checkpoint/restart hook for this rank. The out-of-band
    /// listener `World::attach` installed reads it at each arrival.
    pub fn set_hook(&self, hook: Rc<dyn CrHook>) {
        self.rt.slot().set_hook(hook.clone());
        self.rt.st.borrow_mut().hook = Some(hook);
    }

    /// This rank's [`Gate`]: the hook's gate position, kept in the world's
    /// dense per-rank table so a gate broadcast in a batch steps it without
    /// the hook's own state ([`CrHook::on_oob_batch`]).
    pub fn gate(&self) -> Gate {
        Gate { board: self.rt.listeners.clone(), rank: self.rt.rank }
    }

    /// The decline rows the two listeners share: whether the rank, woken
    /// for the offered message, would find nothing else to do first — it
    /// is not marked failed, no dispatch is in flight (the park would be a
    /// hook's own receive, and dispatch is suppressed until it returns),
    /// `oob_in` and `ctrl_in` are empty, and so is `other`, the mailbox of
    /// the plane the message did not arrive on. The offered plane's own
    /// mailbox and waiter are the fabric's to check (`alone`).
    fn nothing_else_pending<M: 'static>(&self, st: &RtState, other: &Endpoint<M>) -> bool {
        !st.dispatching
            && st.oob_in.is_empty()
            && st.ctrl_in.is_empty()
            && other.pending() == 0
            && !self.rt.world.is_failed(self.rt.rank)
    }

    /// The listener thread, as a function: the out-of-band listener offers
    /// a message here when it lands on an empty queue with this rank parked
    /// on the endpoint. Woken, the rank would run `progress` and park
    /// again; the message may be answered in its stead only if that
    /// `progress` would do exactly one thing — dispatch this message to
    /// the hook — which takes a hook and nothing else pending
    /// (`nothing_else_pending`). Whether the hook's own step can run here
    /// is the hook's call ([`CrHook::on_oob_arrival`]).
    pub(crate) fn oob_arrival(&self, link: &Link<OobMsg>, msg: OobMsg) -> Option<OobMsg> {
        let slot = self.rt.slot();
        let hook = {
            let st = self.rt.st.borrow();
            match &st.hook {
                Some(hook) if self.nothing_else_pending(&st, &self.rt.ep) => Some(hook.clone()),
                _ => None,
            }
        };
        let declined = match hook {
            Some(hook) => hook.on_oob_arrival(self, link, msg),
            None => Some(msg),
        };
        match declined {
            // Queued: the verdict no longer stands (`Listeners::take`).
            Some(_) => slot.void(),
            None => {
                // `compute` would have found that progress did work and
                // moved its slice lattice here.
                slot.demand.reanchor();
                slot.taken.set(slot.taken.get() + 1);
                // The same verdict stands for the next message until the
                // rank runs or something is queued for it.
                if let Some(owner) = self.rt.owner.get() {
                    slot.certify(self.rt.world.handle(), owner);
                }
            }
        }
        declined
    }

    /// The progress engine of a rank blocked in [`Mpi::wait`], as a
    /// function: the data-plane listener offers a message here when it
    /// lands on an empty queue with this rank parked on the endpoint. Woken
    /// for a rendezvous RTS or CTS, the rank would run that one protocol
    /// step — send the CTS or the DATA — find its request still incomplete
    /// and park again; the step runs here in its stead when nothing else
    /// could happen: the rank parked by `wait` (not in a hook's receive or
    /// a polling loop), a CTS that does not complete the awaited send (that
    /// one wakes the rank), a reply that goes out on `link` as it stands,
    /// and nothing else pending (`nothing_else_pending`). Anything else is
    /// handed back, and the rank is woken as ever.
    pub(crate) fn data_arrival(&self, link: &Link<WireMsg>, wire: WireMsg) -> Option<WireMsg> {
        let from = link.peer().0;
        let st = self.rt.st.borrow_mut();
        let step = match (&wire, st.awaiting) {
            (WireMsg::Rts { .. }, Some(_)) => true,
            // This CTS completes the wait: the rank must wake.
            (WireMsg::Cts { sreq, .. }, Some(req)) => *sreq != req,
            _ => false,
        };
        if !step
            || !self.nothing_else_pending(&st, &self.rt.oob_ep)
            || !(link.is_active() || self.rt.world.is_failed(from))
        {
            return Some(wire);
        }
        drop(self.handle_wire(None, st, from, wire));
        self.rt.handshakes.set(self.rt.handshakes.get() + 1);
        None
    }

    /// Enter/leave passive coordination (activates the helper-thread
    /// progress slicing during compute). Runtime-mutable by design: the
    /// checkpoint controller brackets every epoch with it, on the rank's
    /// own thread (everything fixed at construction is a field of
    /// [`crate::MpiConfig`]). Only that thread calls it, so the
    /// [`DemandWake`] — armed only across a passive `compute` park — is
    /// never armed here: outside passive mode the data-plane listener's
    /// pokes find nothing to wake.
    pub fn set_passive(&self, passive: bool) {
        debug_assert!(!self.rt.demand().is_armed(), "set_passive with the demand wake armed");
        self.rt.st.borrow_mut().passive = passive;
    }

    /// Enable/disable sender-based message logging on this rank — the
    /// runtime's one logging switch. The checkpoint layer drives it: the
    /// logging mode flips it around each epoch, and the uncoordinated mode
    /// turns it on for the whole run right after attach. Every rank starts
    /// with it off.
    pub fn set_log_mode(&self, on: bool) {
        self.rt.st.borrow_mut().log_mode = on;
    }

    /// One consistent snapshot of this rank's endpoint telemetry: sent and
    /// received per-peer traffic, deferral counters and queue depth,
    /// connected peers, and logged bytes — every state-guarded counter read
    /// under a single borrow, so cross-field invariants
    /// (`defer.msg_buffered + defer.req_buffered - defer.released ==
    /// deferred_len`) hold in
    /// the result. This is *the* telemetry entry point.
    pub fn stats(&self) -> EndpointStats {
        let connected_peers = self.connected_peers();
        let st = self.rt.st.borrow();
        // A record also exists for peers only ever sent control traffic
        // (or only heard from): list a direction once it carried a message.
        let sent = st.peers.iter().filter(|q| q.sent.0 > 0);
        let per_peer = sent.map(|q| (q.rank(), q.sent.0, q.sent.1)).collect();
        let recvd = st.peers.iter().filter(|q| q.recvd.0 > 0);
        let recv_per_peer = recvd.map(|q| (q.rank(), q.recvd.0, q.recvd.1)).collect();
        EndpointStats {
            traffic: TrafficStats { per_peer },
            recv_per_peer,
            defer: st.defer_stats,
            deferred_len: st.deferred.len(),
            connected_peers,
            logged_bytes: st.logged_bytes,
            listener: ListenerStats {
                oob: u64::from(self.rt.slot().taken.get()),
                handshakes: self.rt.handshakes.get(),
            },
        }
    }

    /// Mark a restartable boundary: keep the per-destination send sequence
    /// counters (so replayed sends reuse their original sequence numbers)
    /// and the per-communicator collective counters as they are now, and
    /// clear the receive replay log (everything consumed before this
    /// boundary is committed in the registered state). Call exactly when
    /// registering application state (the checkpoint client does).
    pub fn mark_boundary(&self) {
        let st = &mut *self.rt.st.borrow_mut();
        st.replay_log = Vec::new();
        let sent_to = st.peers.iter().filter(|peer| peer.next_useq > 0);
        st.boundary_seqs.clear();
        st.boundary_seqs.extend(sent_to.map(|peer| (peer.rank(), peer.next_useq)));
        st.boundary_coll_seqs.clear();
        st.boundary_coll_seqs.extend_from_slice(&st.coll_seq);
    }

    /// Snapshot the checkpointable slice of this rank's library state
    /// (non-destructive; the process keeps running in the failure-free
    /// case) as of its last boundary ([`Mpi::mark_boundary`]): deferred
    /// eager sends at or beyond it are *not* exported (the application
    /// re-executes them on replay).
    pub fn export_cr_state(&self) -> MpiCrState {
        let st = self.rt.st.borrow();
        let boundary = |dst: Rank| -> u64 {
            st.boundary_seqs.iter().find(|(r, _)| *r == dst).map_or(0, |(_, s)| *s)
        };
        let mut inbound: Vec<(Rank, Tag, Msg)> = Vec::new();
        // Receives the application already claimed since its boundary come
        // first (replay will re-execute them), then completed-but-unclaimed
        // receives (matched before anything still sitting unexpected with
        // the same src/tag) in request-allocation order, then unexpected.
        inbound.extend(st.replay_log.iter().cloned());
        inbound.extend(st.reqs.iter().filter_map(|(_, req)| match req {
            Req::Recvd(src, tag, msg) => Some((*src, *tag, msg.clone())),
            _ => None,
        }));
        inbound.extend(st.unexpected.iter().filter_map(|u| match u {
            Unexpected::Eager { src, tag, msg } => Some((*src, *tag, msg.clone())),
            Unexpected::Rts { .. } => None, // replay reissues the rendezvous
        }));
        let deferred_eager = st
            .deferred
            .iter()
            .filter_map(|d| match &d.wire {
                WireMsg::Eager { tag, useq, msg } if *useq < boundary(d.dst) => {
                    Some((d.dst, *tag, msg.clone(), *useq))
                }
                _ => None, // incomplete or post-boundary: replayed by the app
            })
            .collect();
        let recv_watermarks: Vec<(Rank, u64)> = st
            .peers
            .iter()
            .filter(|peer| peer.recv_watermark != NO_WATERMARK)
            .map(|peer| (peer.rank(), peer.recv_watermark))
            .collect();
        MpiCrState {
            inbound,
            deferred_eager,
            send_seqs: st.boundary_seqs.clone(),
            recv_watermarks,
            coll_seqs: st.boundary_coll_seqs.clone(),
        }
    }

    /// Re-inject saved library state into a fresh runtime at restart, before
    /// the application body runs: sequence counters and watermarks are
    /// restored, inbound data becomes unexpected messages, and buffered
    /// eager messages are put back on the wire with their original sequence
    /// numbers (gates are open in a fresh world). It marks no boundary:
    /// until the application registers again, an export carries no counters.
    pub fn import_cr_state(&self, p: &Proc, state: MpiCrState) {
        {
            let mut st = self.rt.st.borrow_mut();
            assert!(
                st.reqs.is_empty() && st.unexpected.is_empty(),
                "import_cr_state must run before any MPI activity"
            );
            for (r, seq) in &state.send_seqs {
                self.peer(&mut st, *r).next_useq = *seq;
            }
            for (r, wm) in &state.recv_watermarks {
                self.peer(&mut st, *r).recv_watermark = *wm;
            }
            for (c, seq) in &state.coll_seqs {
                *st.coll_seq(*c) = *seq;
            }
            for (src, tag, msg) in state.inbound {
                st.unexpected.push_back(Unexpected::Eager { src, tag, msg });
            }
        }
        for (dst, tag, msg, useq) in state.deferred_eager {
            let st = self.rt.st.borrow_mut();
            self.enqueue_send(Some(p), st, dst, WireMsg::Eager { tag, useq, msg }, None);
        }
    }
}

enum DispatchItem {
    Ctrl(Rank, CtrlWire),
    Oob(NodeId, OobMsg),
}

/// Make room for one more entry, growing from one and doubling rather than
/// from the four a first push reserves: a rank's tables mostly hold one or
/// two entries, and it keeps them for the whole run.
fn room_for_one<T>(table: &mut Vec<T>) {
    let len = table.len();
    if len == table.capacity() {
        table.reserve_exact(len.max(1));
    }
}

/// Remove entry `i` of a control queue; one this empties gives its buffer
/// back (see `RtState::ctrl_in`).
fn take_control<T>(queue: &mut VecDeque<T>, i: usize) -> Option<T> {
    let item = queue.remove(i)?;
    if queue.is_empty() {
        *queue = VecDeque::new();
    }
    Some(item)
}
