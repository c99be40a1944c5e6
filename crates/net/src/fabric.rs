//! The fabric: endpoints, connections, and the transfer engine.

use crate::config::NetConfig;
use crate::stats::NetStats;
use gbcr_des::{Arg, ArgValue, Land, Proc, ProcId, SimHandle, Time, TimerHandle, Track};
use std::cell::{RefCell, RefMut};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

/// Identifier of a network endpoint (for MPI, equal to the global rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Life-cycle state of one connection (queue pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConnState {
    /// No connection exists (initial, or after teardown).
    #[default]
    Disconnected,
    /// One side is performing the out-of-band parameter exchange.
    Connecting,
    /// Fully established; sends are permitted.
    Active,
    /// Being flushed and torn down; no new sends, in-flight may still land.
    Draining,
}

#[derive(Default)]
struct ConnInner {
    state: ConnState,
    /// While `Connecting`: the virtual time at which setup completes and
    /// the connection becomes `Active`. A concurrent connector sleeps
    /// until this instant and the first arrival flips the state.
    active_at: Time,
    /// In-flight message counts per direction; index 0 is low→high rank.
    in_flight: [u32; 2],
    /// Messages landed per direction (wrapping): each lands in send order.
    #[cfg(debug_assertions)]
    landed: [u32; 2],
    /// Link serialization horizon per direction (FIFO per direction).
    busy_until: [Time; 2],
    /// Processes parked waiting for a state change or a drain.
    waiters: Vec<ProcId>,
    /// A forced disconnect (fault injection) hit this connection while
    /// messages were in flight: the delivery engine completes the
    /// transition to `Disconnected` once both directions drain.
    flap_pending: bool,
}

/// One connection (queue pair). Self-contained: whoever holds the `Rc` —
/// a [`Link`], an endpoint's peer index, a delivery event in flight — can
/// drive the state machine and reach both mailboxes without the fabric's
/// registry.
struct Conn<M> {
    net: Rc<Net<M>>,
    /// The two ends, low node id first; direction `d` is `nodes[d]` →
    /// `nodes[1 - d]`.
    nodes: [NodeId; 2],
    /// The ends' cells, indexed like `nodes`.
    ends: [Rc<EpCells<M>>; 2],
    st: RefCell<ConnInner>,
}

/// One node's state on the fabric, shared by every [`Endpoint`] handle for
/// the node and by its connections: one allocation, two cells. They are
/// separate because a listener runs under the mailbox's borrow and may
/// resolve a link through the peer index.
struct EpCells<M> {
    mbox: RefCell<Mailbox<M>>,
    /// The node's connections by peer, sorted by peer and searched by
    /// bisection: O(log degree) for a coordinator that talks to every
    /// rank, and nothing model-visible depends on hash order. This is the
    /// fabric's only connection index: [`Fabric::conn`] enters a new
    /// connection in both ends' indexes, whoever named the other.
    peers: RefCell<Vec<(NodeId, Rc<Conn<M>>)>>,
}

impl<M> EpCells<M> {
    fn new() -> Self {
        let mbox = Mailbox { queue: VecDeque::new(), waiters: Waiters::default(), arrival: None };
        EpCells { mbox: RefCell::new(mbox), peers: RefCell::default() }
    }

    /// The connection to `peer`, if either end ever named the other.
    fn conn_to(&self, peer: NodeId) -> Option<Rc<Conn<M>>> {
        let peers = self.peers.borrow();
        let at = peers.binary_search_by_key(&peer, |(n, _)| *n).ok()?;
        Some(peers[at].1.clone())
    }

    fn add_peer(&self, peer: NodeId, conn: Rc<Conn<M>>) {
        let mut peers = self.peers.borrow_mut();
        let at = peers.binary_search_by_key(&peer, |(n, _)| *n).unwrap_err();
        // A rank has one or two peers: grow from one entry, doubling,
        // rather than from the four a first push reserves.
        let len = peers.len();
        if len == peers.capacity() {
            peers.reserve_exact(len.max(1));
        }
        peers.insert(at, (peer, conn));
    }
}

struct Mailbox<M> {
    queue: VecDeque<(NodeId, M)>,
    waiters: Waiters,
    /// The owner's listener (see [`Endpoint::set_arrival_handler`]).
    arrival: Option<ArrivalHandler<M>>,
}

/// The processes parked on a mailbox, in registration order. Almost always
/// its owner alone: the first is kept in place, and only a second
/// allocates.
#[derive(Default)]
struct Waiters {
    /// `None` only while `rest` is empty too.
    first: Option<ProcId>,
    rest: Vec<ProcId>,
}

impl Waiters {
    /// Register `pid` unless it already is.
    fn add(&mut self, pid: ProcId) {
        if self.first.is_none() {
            self.first = Some(pid);
        } else if !self.iter().any(|w| w == pid) {
            self.rest.push(pid);
        }
    }

    fn remove(&mut self, pid: ProcId) {
        if self.first == Some(pid) {
            self.first = (!self.rest.is_empty()).then(|| self.rest.remove(0));
        } else {
            self.rest.retain(|&w| w != pid);
        }
    }

    fn iter(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.first.into_iter().chain(self.rest.iter().copied())
    }

    /// Wake everyone, in registration order, and forget them.
    fn wake_all(&mut self, h: &SimHandle) {
        if let Some(w) = self.first.take() {
            h.wake(w);
        }
        wake_all(h, &mut self.rest);
    }
}

/// A mailbox's listener: offered `(link, msg, alone)` for every delivery —
/// `link` is the receiver's end of the connection the message came on, so
/// `link.peer()` is the sender and an answer goes back on it without a
/// lookup — it either consumes the message (`None`) or hands it back to be
/// queued and the waiters woken as ever. `alone` says the queue is empty and a
/// live process is parked on the endpoint: only then would the woken
/// process see exactly this one message, so only then can a listener
/// stand in for it. Runs inside the delivery event, so it can schedule and
/// send but never block, and it must not touch the mailbox it is installed
/// on: the delivery holds that mailbox's borrow, and a second one panics.
pub type ArrivalHandler<M> = Rc<dyn Fn(&Link<M>, M, bool) -> Option<M>>;

/// What every connection needs from the fabric (no registry, so no cycle).
struct Net<M> {
    handle: SimHandle,
    cfg: NetConfig,
    /// The messages on the wire, each under the key its delivery carries.
    wire: RefCell<Wire<M>>,
    /// The fabric's counters, bumped where each thing happens.
    stats: RefCell<NetStats>,
}

/// Slots in a [`Wire`]'s first chunk (all an idle fabric keeps) and in
/// each later one, and the end of its free list.
const WIRE_FIRST: usize = 8;
const WIRE_CHUNK: usize = 128;
const NO_SLOT: u32 = u32::MAX;

/// One message on the wire, and in a debug build its place in its direction.
struct Flight<M> {
    msg: M,
    wire_size: u64,
    #[cfg(debug_assertions)]
    seq: u32,
}

enum Slot<M> {
    /// The next free slot, or `NO_SLOT`.
    Free(u32),
    Full(Flight<M>),
}

/// Every message a fabric has on the wire, each in a slot whose key its
/// delivery event carries instead of a boxed closure. A freed slot goes on
/// a free list; with none freed, the next never-used slot is handed out,
/// from a chunk grown a fixed size at a time and filled in key order, so
/// no slot moves and none is written before it is used. Chunks go back
/// whenever the wire empties. It holds no connection (no cycle).
struct Wire<M> {
    chunks: Vec<Vec<Slot<M>>>,
    /// The head of the free list: the slot freed last.
    free: u32,
    /// Slots handed out since the chunks were last given back: the key of
    /// the next never-used one.
    used: u32,
    /// Full slots.
    live: u32,
}

impl<M> Wire<M> {
    /// The first chunk is the tail of a full one: keys count from its start.
    fn slot(&mut self, key: u32) -> &mut Slot<M> {
        let at = key as usize + WIRE_CHUNK - WIRE_FIRST;
        let skip = if at < WIRE_CHUNK { WIRE_CHUNK - WIRE_FIRST } else { 0 };
        &mut self.chunks[at / WIRE_CHUNK][at % WIRE_CHUNK - skip]
    }

    /// Put `flight` on the wire; its key.
    fn put(&mut self, flight: Flight<M>) -> u32 {
        self.live += 1;
        if self.free != NO_SLOT {
            let key = self.free;
            let Slot::Free(next) = std::mem::replace(self.slot(key), Slot::Full(flight)) else {
                unreachable!("the free list holds a full slot")
            };
            self.free = next;
            return key;
        }
        // The chunks are full once `used` reaches their end.
        let end = (self.chunks.len() * WIRE_CHUNK + WIRE_FIRST).saturating_sub(WIRE_CHUNK);
        if self.used as usize == end {
            let size = if end == 0 { WIRE_FIRST } else { WIRE_CHUNK };
            // A key is twice its slot, plus the direction.
            assert!(end + size <= 1 << 31, "over 2^31 slots on the wire");
            self.chunks.push(Vec::with_capacity(size));
        }
        self.chunks.last_mut().expect("a chunk with room").push(Slot::Full(flight));
        self.used += 1;
        self.used - 1
    }

    /// Take the message under `key` off the wire.
    fn take(&mut self, key: u32) -> Flight<M> {
        let free = Slot::Free(self.free);
        let Slot::Full(flight) = std::mem::replace(self.slot(key), free) else {
            unreachable!("a delivery landed on a free slot")
        };
        (self.free, self.live) = (key, self.live - 1);
        if self.live == 0 && self.chunks.len() > 1 {
            self.chunks.clear();
            (self.free, self.used) = (NO_SLOT, 0);
        }
        flight
    }
}

/// The node registry: `endpoint()`, first contact with a peer and the
/// fabric-level queries consult it; the message path runs on the handles
/// it hands out. A connection is reached through its ends' peer indexes.
struct Inner<M> {
    net: Rc<Net<M>>,
    nodes: RefCell<HashMap<NodeId, Rc<EpCells<M>>>>,
}

impl<M> Drop for Inner<M> {
    /// A node's peer index holds its connections, and a connection holds
    /// both its nodes' cells: the registry, going, unlinks them. No cell
    /// can be borrowed here, since every [`Endpoint`] holds the fabric.
    fn drop(&mut self) {
        for node in self.nodes.get_mut().values() {
            node.peers.borrow_mut().clear();
        }
    }
}

/// The simulated interconnect. Clone freely; all clones are the same fabric
/// — on the thread that drives its simulation: like the [`SimHandle`] it is
/// built from, a fabric is not `Send`.
///
/// ```compile_fail,E0277
/// use gbcr_net::{Fabric, NetConfig};
/// let sim = gbcr_des::Sim::new(0);
/// let fabric: Fabric<u64> = Fabric::new(sim.handle(), NetConfig::infiniband_ddr());
/// std::thread::spawn(move || fabric.stats()); // `Rc<…>` cannot be sent between threads
/// ```
///
/// ```
/// use gbcr_des::Sim;
/// use gbcr_net::{Fabric, NetConfig, NodeId};
///
/// let mut sim = Sim::new(0);
/// let fabric: Fabric<&'static str> = Fabric::new(sim.handle(), NetConfig::infiniband_ddr());
/// let f = fabric.clone();
/// sim.spawn("a", move |p| {
///     let ep = f.endpoint(NodeId(0));
///     ep.connect(p, NodeId(1)); // initiator pays the out-of-band setup
///     ep.send(NodeId(1), "hello", 64);
///     ep.teardown(p, NodeId(1)); // waits for the channel to drain
/// });
/// let f = fabric.clone();
/// sim.spawn("b", move |p| {
///     let ep = f.endpoint(NodeId(1));
///     assert_eq!(ep.recv_wait(p).1, "hello");
/// });
/// sim.run().unwrap();
/// assert_eq!(fabric.stats().teardowns, 1);
/// ```
pub struct Fabric<M> {
    inner: Rc<Inner<M>>,
}

impl<M> Clone for Fabric<M> {
    fn clone(&self) -> Self {
        Fabric { inner: self.inner.clone() }
    }
}

fn wake_all(h: &SimHandle, waiters: &mut Vec<ProcId>) {
    for w in waiters.drain(..) {
        h.wake(w);
    }
}

impl<M: 'static> Fabric<M> {
    /// Create a fabric bound to a simulation.
    pub fn new(handle: SimHandle, cfg: NetConfig) -> Self {
        Fabric {
            inner: Rc::new(Inner {
                net: Rc::new(Net {
                    handle,
                    cfg,
                    wire: RefCell::new(Wire {
                        chunks: Vec::new(),
                        free: NO_SLOT,
                        used: 0,
                        live: 0,
                    }),
                    stats: RefCell::default(),
                }),
                nodes: RefCell::default(),
            }),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> NetStats {
        self.inner.net.stats.borrow().clone()
    }

    /// Obtain (creating if necessary) the endpoint for `node`. Every handle
    /// for one node — clones and repeated calls alike — shares one queue,
    /// waiter list, listener and peer index.
    pub fn endpoint(&self, node: NodeId) -> Endpoint<M> {
        Endpoint { fabric: self.clone(), node, cells: self.cells(node) }
    }

    /// Connection state between two nodes.
    pub fn conn_state(&self, a: NodeId, b: NodeId) -> ConnState {
        self.existing(a, b).map_or(ConnState::Disconnected, |c| c.st.borrow().state)
    }

    /// The connection between `a` and `b`, if either ever named the other:
    /// looked up in `a`'s peer index, so asking about strangers creates
    /// nothing.
    fn existing(&self, a: NodeId, b: NodeId) -> Option<Rc<Conn<M>>> {
        self.inner.nodes.borrow().get(&a)?.conn_to(b)
    }

    /// First contact: create the connection between `a` and `b`, which
    /// neither has named before, and enter it in both ends' peer indexes.
    fn conn(&self, a: NodeId, b: NodeId) -> Rc<Conn<M>> {
        let (lo, hi) = (a.min(b), a.max(b));
        let ends = [self.cells(lo), self.cells(hi)];
        let conn = Rc::new(Conn {
            net: self.inner.net.clone(),
            nodes: [lo, hi],
            ends: ends.clone(),
            st: RefCell::default(),
        });
        ends[0].add_peer(hi, conn.clone());
        ends[1].add_peer(lo, conn.clone());
        conn
    }

    /// Registry entry (created if necessary) for `node`'s shared state.
    fn cells(&self, node: NodeId) -> Rc<EpCells<M>> {
        self.inner.nodes.borrow_mut().entry(node).or_insert_with(|| Rc::new(EpCells::new())).clone()
    }

    /// Forcibly take down the connection between `a` and `b` — the fault
    /// injector's entry point for link flaps and dead-node teardowns. Unlike
    /// [`Endpoint::teardown`] this never blocks (it runs from an event
    /// callback, not a process) and charges no teardown cost: the cable was
    /// yanked, nobody executed a disconnect protocol.
    ///
    /// An idle `Active` connection drops to `Disconnected` immediately; one
    /// with traffic in flight moves to `Draining` with a flap marker and the
    /// delivery engine completes the drop once both directions drain (the
    /// wire already carries those bytes — they still land, matching how a
    /// real HCA completes posted work before reporting the QP broken).
    /// Connections that are `Disconnected`, mid-setup, or already being torn
    /// down by a process are left alone. Returns whether a transition was
    /// initiated; parked waiters are woken so they re-observe the state.
    pub fn force_disconnect(&self, a: NodeId, b: NodeId) -> bool {
        let Some(conn) = self.existing(a, b) else {
            return false;
        };
        let h = &self.inner.net.handle;
        let mut c = conn.st.borrow_mut();
        if c.state != ConnState::Active {
            return false;
        }
        let stage = if c.in_flight == [0, 0] {
            c.state = ConnState::Disconnected;
            self.inner.net.stats.borrow_mut().forced_down += 1;
            "idle"
        } else {
            c.state = ConnState::Draining;
            c.flap_pending = true;
            "draining"
        };
        let mut ws = std::mem::take(&mut c.waiters);
        drop(c);
        wake_all(h, &mut ws);
        h.trace_instant(Track::Node(a.0), "net.flap", || flap_args(b, stage));
        true
    }
}

/// One node's attachment to the fabric. All blocking operations take the
/// calling [`Proc`]. The handle owns its node's state: receiving, waiting
/// and the per-peer operations below never consult the fabric's node
/// registry (a stranger is resolved through it once, on first contact).
pub struct Endpoint<M> {
    fabric: Fabric<M>,
    node: NodeId,
    cells: Rc<EpCells<M>>,
}

impl<M> Clone for Endpoint<M> {
    fn clone(&self) -> Self {
        Endpoint { fabric: self.fabric.clone(), node: self.node, cells: self.cells.clone() }
    }
}

/// One end of one connection: what [`Endpoint::link`] resolves a peer to.
/// A sender that keeps it pays no per-message lookup at all; the
/// per-peer methods on [`Endpoint`] are this, behind one ordered lookup in
/// the endpoint's own peer index. Two words: the peer's id rides in the
/// padding beside the direction, so a holder needs no id of its own.
pub struct Link<M> {
    conn: Rc<Conn<M>>,
    peer: NodeId,
    /// Index of this end in `conn.nodes` — also its sending direction.
    me: u8,
}

impl<M> Clone for Link<M> {
    fn clone(&self) -> Self {
        Link { conn: self.conn.clone(), peer: self.peer, me: self.me }
    }
}

impl<M: 'static> Link<M> {
    fn node(&self) -> NodeId {
        self.conn.nodes[usize::from(self.me)]
    }

    /// The node at the other end.
    pub fn peer(&self) -> NodeId {
        self.peer
    }

    /// Establish (or re-establish) the connection, blocking the caller for
    /// the out-of-band setup cost. Idempotent: returns immediately if
    /// already active; if another process is mid-setup or mid-teardown,
    /// waits for it and retries.
    pub fn connect(&self, p: &Proc) {
        let (conn, net) = (&self.conn, &self.conn.net);
        loop {
            let sleep_for: Time;
            {
                let mut c = conn.st.borrow_mut();
                match c.state {
                    ConnState::Active => return,
                    ConnState::Connecting => {
                        // Another process is mid-setup. Sleep until its
                        // recorded completion instant and re-observe
                        // instead of parking on the waiter list.
                        // Whoever reaches `active_at` first performs the
                        // flip (normally the initiator; a concurrent
                        // connector completes an initiator that died
                        // mid-setup).
                        if p.now() >= c.active_at {
                            self.activate(c);
                            return;
                        }
                        sleep_for = c.active_at - p.now();
                    }
                    ConnState::Draining => {
                        c.waiters.push(p.id());
                        drop(c);
                        p.park();
                        continue;
                    }
                    ConnState::Disconnected => {
                        c.state = ConnState::Connecting;
                        c.active_at = p.now() + net.cfg.conn_setup_time;
                        drop(c);
                        let t0 = p.now();
                        p.sleep(net.cfg.conn_setup_time);
                        let c = conn.st.borrow_mut();
                        if c.state == ConnState::Connecting {
                            self.activate(c);
                        }
                        let (me, peer) = (self.node().0, self.peer().0);
                        let peer_arg = || vec![("peer", ArgValue::U64(u64::from(peer)))];
                        net.handle.trace_span(Track::Node(me), "net.connect", t0, peer_arg);
                        return;
                    }
                }
            }
            p.sleep(sleep_for);
        }
    }

    /// `Connecting` → `Active`: count the connect and wake the waiters.
    fn activate(&self, mut c: RefMut<'_, ConnInner>) {
        c.state = ConnState::Active;
        self.conn.net.stats.borrow_mut().connects += 1;
        let mut ws = std::mem::take(&mut c.waiters);
        drop(c);
        wake_all(&self.conn.net.handle, &mut ws);
    }

    /// Flush and tear down the connection: waits until both directions are
    /// drained, then charges the teardown cost. Idempotent on
    /// already-disconnected connections. The caller is responsible for
    /// having stopped new sends on both sides (the checkpoint protocols in
    /// `gbcr-core` guarantee this).
    pub fn teardown(&self, p: &Proc) {
        let (conn, net) = (&self.conn, &self.conn.net);
        let (me, peer) = (self.node(), self.peer());
        let t0 = p.now();
        loop {
            {
                let mut c = conn.st.borrow_mut();
                match c.state {
                    ConnState::Disconnected => return,
                    ConnState::Active => {
                        c.state = ConnState::Draining;
                        break;
                    }
                    // The peer (e.g. another member of the same checkpoint
                    // group) is already tearing this connection down: wait
                    // for it to finish and return.
                    ConnState::Draining => c.waiters.push(p.id()),
                    ConnState::Connecting => {
                        panic!("teardown {me}<->{peer} raced with connection setup")
                    }
                }
            }
            p.park();
        }
        // Wait for both directions to drain.
        let t_drain = p.now();
        self.wait_drained(p);
        let peer_arg = || vec![("peer", ArgValue::U64(u64::from(peer.0)))];
        net.handle.trace_span(Track::Node(me.0), "net.drain", t_drain, peer_arg);
        p.sleep(net.cfg.conn_teardown_time);
        let mut c = conn.st.borrow_mut();
        debug_assert_eq!(c.state, ConnState::Draining);
        c.state = ConnState::Disconnected;
        net.stats.borrow_mut().teardowns += 1;
        let mut ws = std::mem::take(&mut c.waiters);
        drop(c);
        wake_all(&net.handle, &mut ws);
        net.handle.trace_span(Track::Node(me.0), "net.teardown", t0, peer_arg);
    }

    /// Send `msg` to the peer, charging `wire_size` bytes on the link. Never
    /// blocks: delivery is scheduled (FIFO per direction, serialized by link
    /// bandwidth, plus wire latency). Panics if the connection is not
    /// active — higher layers must buffer instead of sending during
    /// checkpoint coordination; reaching this panic means the consistency
    /// protocol is broken.
    pub fn send(&self, msg: M, wire_size: u64) {
        if self.try_send(msg, wire_size).is_err() {
            panic!("send {} -> {} on non-active connection", self.node(), self.peer());
        }
    }

    /// [`send`](Link::send), except that a connection that is not `Active`
    /// hands the message back instead of panicking — the state check and
    /// the send are one step for a caller that reconnects on demand.
    pub fn try_send(&self, msg: M, wire_size: u64) -> Result<(), M> {
        let (net, d) = (&self.conn.net, usize::from(self.me));
        let mut c = self.conn.st.borrow_mut();
        if c.state != ConnState::Active {
            return Err(msg);
        }
        // Serialized behind whatever this direction already carries, and in
        // flight until its delivery.
        let start = c.busy_until[d].max(net.handle.now()) + net.cfg.per_message_overhead;
        c.busy_until[d] = start + net.cfg.serialize_time(wire_size);
        #[cfg(debug_assertions)]
        let seq = c.landed[d].wrapping_add(c.in_flight[d]);
        c.in_flight[d] += 1;
        let arrival = c.busy_until[d] + net.cfg.latency;
        drop(c);
        // The message waits on the wire and the event holds the connection, so
        // a teardown or flap meanwhile still sees it land and drain. Never
        // cancelled, it takes no timer slot; its fingerprint tag is `(from, to)`.
        #[rustfmt::skip]
        let slot = net.wire.borrow_mut().put(Flight { msg, wire_size, #[cfg(debug_assertions)] seq });
        let tag = u64::from(self.node().0) << 32 | u64::from(self.peer.0);
        net.handle.post_at(arrival, tag, slot << 1 | u32::from(self.me), self.conn.clone());
        Ok(())
    }

    /// Whether the connection is currently `Active` (a
    /// [`try_send`](Link::try_send) now would go out).
    pub fn is_active(&self) -> bool {
        self.conn.st.borrow().state == ConnState::Active
    }

    /// [`send`](Link::send), (re)connecting first when the connection is
    /// not `Active`: the lazily connected send.
    pub fn connect_send(&self, p: &Proc, msg: M, wire_size: u64) {
        if let Err(msg) = self.try_send(msg, wire_size) {
            self.connect(p);
            self.send(msg, wire_size);
        }
    }

    /// In-flight message counts: `(outbound, inbound)`.
    pub fn in_flight(&self) -> (usize, usize) {
        let c = self.conn.st.borrow();
        let d = usize::from(self.me);
        (c.in_flight[d] as usize, c.in_flight[1 - d] as usize)
    }

    /// Block until both directions of the connection are drained. Only
    /// meaningful once both sides have stopped sending.
    pub fn wait_drained(&self, p: &Proc) {
        loop {
            {
                let mut c = self.conn.st.borrow_mut();
                if c.in_flight == [0, 0] {
                    return;
                }
                c.waiters.push(p.id());
            }
            p.park();
        }
    }
}

impl<M: 'static> Endpoint<M> {
    /// This endpoint's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The fabric this endpoint belongs to.
    pub fn fabric(&self) -> &Fabric<M> {
        &self.fabric
    }

    /// This end of the connection to `peer`, resolved once (first contact
    /// creates the `Disconnected` connection) so the holder can send
    /// without any further lookup.
    pub fn link(&self, peer: NodeId) -> Link<M> {
        assert_ne!(self.node, peer, "no connection to self at the fabric level");
        let known = self.cells.conn_to(peer);
        let conn = known.unwrap_or_else(|| self.fabric.conn(self.node, peer));
        Link { conn, peer, me: u8::from(self.node > peer) }
    }

    /// [`Link::connect`] on the connection to `peer`.
    pub fn connect(&self, p: &Proc, peer: NodeId) {
        self.link(peer).connect(p);
    }

    /// Whether the connection to `peer` is currently `Active`.
    pub fn is_connected(&self, peer: NodeId) -> bool {
        // A stranger is simply not connected: asking creates nothing.
        self.cells.conn_to(peer).is_some_and(|c| c.st.borrow().state == ConnState::Active)
    }

    /// Peers with an `Active` connection, sorted: answered from this
    /// endpoint's own peer index, O(degree).
    pub fn connected_peers(&self) -> Vec<NodeId> {
        let peers = self.cells.peers.borrow();
        peers
            .iter()
            .filter(|(_, c)| c.st.borrow().state == ConnState::Active)
            .map(|(n, _)| *n)
            .collect()
    }

    /// [`Link::teardown`] on the connection to `peer`.
    pub fn teardown(&self, p: &Proc, peer: NodeId) {
        self.link(peer).teardown(p);
    }

    /// [`Link::send`] on the connection to `peer`.
    pub fn send(&self, peer: NodeId, msg: M, wire_size: u64) {
        self.link(peer).send(msg, wire_size);
    }

    /// Pop the next delivered message, if any.
    pub fn try_recv(&self) -> Option<(NodeId, M)> {
        self.cells.mbox.borrow_mut().queue.pop_front()
    }

    /// Move every delivered message to the back of `into`, in arrival
    /// order, under one borrow (a progress engine's batch receive). The
    /// queue's buffer goes too — an empty `into` takes it whole, dropping
    /// its own — so the queue holds none until its next delivery
    /// allocates one.
    pub fn drain_into(&self, into: &mut VecDeque<(NodeId, M)>) {
        let queue = std::mem::take(&mut self.cells.mbox.borrow_mut().queue);
        if into.is_empty() {
            *into = queue;
        } else {
            into.extend(queue);
        }
    }

    /// Block until a message is available, then pop it.
    pub fn recv_wait(&self, p: &Proc) -> (NodeId, M) {
        self.recv_match(p, None, |_, _| true).expect("no deadline, so a message")
    }

    /// The endpoint's one blocking receive: take the first queued message,
    /// in arrival order, that `pred` accepts, parking until one arrives.
    /// Rejected messages stay queued where they are, in arrival order, for
    /// a later matcher. The queue is checked before the
    /// clock: with `by = Some(t)` the call returns `None` only once `t` has
    /// passed and nothing queued was accepted. It arms at most one
    /// cancellable wake, on its first park, and on every return cancels it
    /// and withdraws its waiter registration — a finished receive must
    /// never be woken by a later delivery or a stale timer (OS-bypass
    /// hardware never interrupts the host CPU that way).
    pub fn recv_match(
        &self,
        p: &Proc,
        by: Option<Time>,
        mut pred: impl FnMut(NodeId, &M) -> bool,
    ) -> Option<(NodeId, M)> {
        let mut timer: Option<TimerHandle> = None;
        let out = loop {
            {
                let mut e = self.cells.mbox.borrow_mut();
                if let Some(i) = e.queue.iter().position(|(n, m)| pred(*n, m)) {
                    break e.queue.remove(i);
                }
                if by.is_some_and(|t| p.now() >= t) {
                    break None;
                }
                e.waiters.add(p.id());
            }
            if let (Some(t), None) = (by, &timer) {
                timer = Some(p.handle().schedule_wake_cancellable(t, p.id()));
            }
            p.park();
        };
        if let Some(t) = timer {
            t.cancel();
        }
        self.unregister_waiter(p.id());
        out
    }

    /// Drop every queued message `pred` rejects, keeping the rest in
    /// arrival order.
    pub fn retain(&self, mut pred: impl FnMut(NodeId, &M) -> bool) {
        self.cells.mbox.borrow_mut().queue.retain(|(n, m)| pred(*n, m));
    }

    /// Register the calling process to be woken on the next delivery to
    /// this endpoint, without consuming anything. Used to park on several
    /// endpoints at once (e.g. an MPI rank waiting on both its data-plane
    /// and out-of-band endpoints). The registration is one-shot and may
    /// produce spurious wakes; pair with a predicate loop.
    pub fn register_waiter(&self, pid: ProcId) {
        self.cells.mbox.borrow_mut().waiters.add(pid);
    }

    /// [`register_waiter`](Endpoint::register_waiter) unless a message is
    /// already queued — the "anything pending?" check and the registration
    /// are one step. Returns whether it registered.
    pub fn register_waiter_if_empty(&self, pid: ProcId) -> bool {
        let mut e = self.cells.mbox.borrow_mut();
        if !e.queue.is_empty() {
            return false;
        }
        e.waiters.add(pid);
        true
    }

    /// Remove a previously registered waiter that was not consumed by a
    /// delivery (e.g. the wait ended via a timer). Keeping the lists clean
    /// matters for fidelity: a stale registration would let a data-plane
    /// delivery wake a *computing* rank, which OS-bypass hardware never
    /// does.
    pub fn unregister_waiter(&self, pid: ProcId) {
        self.cells.mbox.borrow_mut().waiters.remove(pid);
    }

    /// Install this endpoint's *listener*: every delivery offers it the
    /// message, with whether the owner would see it alone (see
    /// [`ArrivalHandler`]), before queueing it. A message the handler hands
    /// back is queued and the waiters woken, as if no handler existed.
    /// Replaces any previous handler.
    pub fn set_arrival_handler(&self, handler: ArrivalHandler<M>) {
        self.cells.mbox.borrow_mut().arrival = Some(handler);
    }

    /// Number of delivered-but-unconsumed messages.
    pub fn pending(&self) -> usize {
        self.cells.mbox.borrow().queue.len()
    }

    /// [`Link::wait_drained`] on the connection to `peer`.
    pub fn wait_drained(&self, p: &Proc, peer: NodeId) {
        self.link(peer).wait_drained(p);
    }
}

/// The delivery event of the message under key `slot << 1 | d`, sent in
/// direction `d`: take it off the wire and retire it from the connection
/// (completing a drain or a pending flap), queue it at the destination and
/// wake whoever waits there — unless the destination's listener takes it
/// on the spot.
impl<M: 'static> Land for Conn<M> {
    fn land(self: Rc<Self>, h: &SimHandle, key: u32) {
        let flight = self.net.wire.borrow_mut().take(key >> 1);
        let (conn, d, msg, wire_size) = (self, key as usize & 1, flight.msg, flight.wire_size);
        let (from, to) = (conn.nodes[d], conn.nodes[1 - d]);
        {
            let mut c = conn.st.borrow_mut();
            debug_assert!(
                matches!(c.state, ConnState::Active | ConnState::Draining),
                "delivery on {:?} connection {from}->{to}",
                c.state
            );
            #[cfg(debug_assertions)]
            {
                assert_eq!(flight.seq, c.landed[d], "{from}->{to} landed out of FIFO order");
                c.landed[d] = c.landed[d].wrapping_add(1);
            }
            c.in_flight[d] -= 1;
            let mut stats = conn.net.stats.borrow_mut();
            stats.messages += 1;
            stats.bytes += wire_size;
            if c.in_flight == [0, 0] {
                // A forced disconnect hit this connection mid-transfer:
                // finish the drop now that the wire is empty.
                let flapped = c.flap_pending;
                if flapped {
                    debug_assert_eq!(c.state, ConnState::Draining);
                    c.state = ConnState::Disconnected;
                    c.flap_pending = false;
                    stats.forced_down += 1;
                }
                let mut ws = std::mem::take(&mut c.waiters);
                drop((c, stats));
                if flapped {
                    h.trace_instant(Track::Node(from.0), "net.flap", || flap_args(to, "drained"));
                }
                wake_all(h, &mut ws);
            }
        }
        {
            // The receiver's end: what the listener answers on.
            let link = Link { conn, peer: from, me: 1 - d as u8 };
            let mut e = link.conn.ends[1 - d].mbox.borrow_mut();
            let msg = match &e.arrival {
                Some(listener) => {
                    // A killed waiter never runs again: nobody is listening.
                    let alone = e.queue.is_empty() && e.waiters.iter().any(|w| !h.is_killed(w));
                    listener(&link, msg, alone)
                }
                None => Some(msg),
            };
            if let Some(msg) = msg {
                // A queue mostly holds one message: it grows from room for one,
                // doubling, not from the four a first push reserves.
                let len = e.queue.len();
                if len == e.queue.capacity() {
                    e.queue.reserve_exact(len.max(1));
                }
                e.queue.push_back((from, msg));
                // Waking only appends to the event queue, so it is done under
                // the borrow and the waiter list keeps its allocation.
                e.waiters.wake_all(h);
            }
        }
        h.trace_instant_detail(Track::Node(to.0), "net.deliver", || {
            vec![("from", ArgValue::U64(u64::from(from.0))), ("bytes", ArgValue::U64(wire_size))]
        });
    }
}

/// A `net.flap` instant's args: the other end, and how far the forced
/// drop got when observed (`idle`, `draining` or `drained`).
fn flap_args(peer: NodeId, stage: &'static str) -> Vec<Arg> {
    vec![("peer", ArgValue::U64(u64::from(peer.0))), ("stage", ArgValue::Str(stage.into()))]
}
