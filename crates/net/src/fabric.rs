//! The fabric: endpoints, connections, and the transfer engine.

use crate::config::NetConfig;
use crate::stats::NetStats;
use gbcr_des::{Arg, ArgValue, DemandWake, Proc, ProcId, SimHandle, Time, TimerHandle, Track};
use std::cell::{RefCell, RefMut};
use std::collections::{BTreeMap, HashMap, VecDeque};
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
    in_flight: [usize; 2],
    /// Link serialization horizon per direction (FIFO per direction).
    busy_until: [Time; 2],
    /// Processes parked waiting for a state change or a drain.
    waiters: Vec<ProcId>,
    /// A forced disconnect (fault injection) hit this connection while
    /// messages were in flight: the delivery engine completes the
    /// transition to `Disconnected` once both directions drain.
    flap_pending: bool,
    /// This connection's share of the fabric counters, bumped under the
    /// borrow the transition already holds; [`Fabric::stats`] sums them.
    stats: NetStats,
}

/// One connection (queue pair). Self-contained: whoever holds the `Rc` —
/// a [`Link`], an endpoint's peer table, a delivery event in flight — can
/// drive the state machine and reach both mailboxes without the fabric's
/// maps.
struct Conn<M> {
    net: Rc<Net>,
    /// The two ends, low node id first; direction `d` is `nodes[d]` →
    /// `nodes[1 - d]`.
    nodes: [NodeId; 2],
    /// The ends' mailboxes, indexed like `nodes`.
    mbox: [Mailbox<M>; 2],
    st: RefCell<ConnInner>,
}

struct EpState<M> {
    queue: VecDeque<(NodeId, M)>,
    waiters: Vec<ProcId>,
    /// Demand-driven compute wake: poked on every delivery so a rank in
    /// sliced `compute()` runs progress at the next slice boundary instead
    /// of polling (see [`gbcr_des::DemandWake`]). Installed only while the
    /// owning rank is under passive coordination.
    hook: Option<DemandWake>,
    /// The owner's listener (see [`Endpoint::set_arrival_handler`]).
    arrival: Option<ArrivalHandler<M>>,
}

/// A mailbox's listener: offered `(from, msg)` at arrival, it either
/// consumes the message (`None`) or hands it back to be queued as ever.
/// Runs inside the delivery event, so it can schedule and send but never
/// block, and it must not touch the mailbox it is installed on: the
/// delivery holds that mailbox's borrow, and a second one panics.
pub type ArrivalHandler<M> = Rc<dyn Fn(NodeId, M) -> Option<M>>;

type Mailbox<M> = Rc<RefCell<EpState<M>>>;
/// An endpoint's connections by peer: ordered, so nothing model-visible
/// ever depends on hash order, and O(log degree) for a coordinator that
/// talks to every rank.
type PeerTable<M> = Rc<RefCell<BTreeMap<NodeId, Rc<Conn<M>>>>>;

/// What every connection needs from the fabric (no maps, so no cycle).
struct Net {
    handle: SimHandle,
    cfg: NetConfig,
}

/// The fabric-wide maps are a creation-time registry: `endpoint()`, first
/// contact with a peer and `force_disconnect` consult them; the message
/// path runs on the handles they hand out.
struct Inner<M> {
    net: Rc<Net>,
    eps: RefCell<EpMap<M>>,
    conns: RefCell<ConnMap<M>>,
}
type EpMap<M> = HashMap<NodeId, (Mailbox<M>, PeerTable<M>)>;
type ConnMap<M> = HashMap<(NodeId, NodeId), Rc<Conn<M>>>;

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

fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
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
                net: Rc::new(Net { handle, cfg }),
                eps: RefCell::default(),
                conns: RefCell::default(),
            }),
        }
    }

    /// Counter snapshot: the sum of every connection's share.
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::default();
        for conn in self.inner.conns.borrow().values() {
            let s = &conn.st.borrow().stats;
            total.messages += s.messages;
            total.bytes += s.bytes;
            total.connects += s.connects;
            total.teardowns += s.teardowns;
            total.forced_down += s.forced_down;
        }
        total
    }

    /// Obtain (creating if necessary) the endpoint for `node`. Every handle
    /// for one node — clones and repeated calls alike — shares one queue,
    /// waiter list, compute hook and peer table.
    pub fn endpoint(&self, node: NodeId) -> Endpoint<M> {
        let (mbox, peers) = self.ep(node);
        Endpoint { fabric: self.clone(), node, mbox, peers }
    }

    /// Connection state between two nodes.
    pub fn conn_state(&self, a: NodeId, b: NodeId) -> ConnState {
        self.inner
            .conns
            .borrow()
            .get(&key(a, b))
            .map_or(ConnState::Disconnected, |c| c.st.borrow().state)
    }

    /// First-contact resolution: the connection between `a` and `b`,
    /// created — and entered in both ends' peer tables — the first time
    /// either side names the other.
    fn conn(&self, a: NodeId, b: NodeId) -> Rc<Conn<M>> {
        let (lo, hi) = key(a, b);
        self.inner
            .conns
            .borrow_mut()
            .entry((lo, hi))
            .or_insert_with(|| {
                let ((mbox_lo, peers_lo), (mbox_hi, peers_hi)) = (self.ep(lo), self.ep(hi));
                let conn = Rc::new(Conn {
                    net: self.inner.net.clone(),
                    nodes: [lo, hi],
                    mbox: [mbox_lo, mbox_hi],
                    st: RefCell::default(),
                });
                peers_lo.borrow_mut().insert(hi, conn.clone());
                peers_hi.borrow_mut().insert(lo, conn.clone());
                conn
            })
            .clone()
    }

    /// Registry entry (created if necessary) for `node`'s shared state.
    fn ep(&self, node: NodeId) -> (Mailbox<M>, PeerTable<M>) {
        self.inner
            .eps
            .borrow_mut()
            .entry(node)
            .or_insert_with(|| {
                let mbox = EpState {
                    queue: VecDeque::new(),
                    waiters: Vec::new(),
                    hook: None,
                    arrival: None,
                };
                (Rc::new(RefCell::new(mbox)), PeerTable::default())
            })
            .clone()
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
        let Some(conn) = self.inner.conns.borrow().get(&key(a, b)).cloned() else {
            return false;
        };
        let h = &self.inner.net.handle;
        let mut c = conn.st.borrow_mut();
        if c.state != ConnState::Active {
            return false;
        }
        let stage = if c.in_flight == [0, 0] {
            c.state = ConnState::Disconnected;
            c.stats.forced_down += 1;
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
/// and the per-peer operations below never consult the fabric-wide maps
/// (a peer is resolved through them once, on first contact).
pub struct Endpoint<M> {
    fabric: Fabric<M>,
    node: NodeId,
    mbox: Mailbox<M>,
    peers: PeerTable<M>,
}

impl<M> Clone for Endpoint<M> {
    fn clone(&self) -> Self {
        Endpoint {
            fabric: self.fabric.clone(),
            node: self.node,
            mbox: self.mbox.clone(),
            peers: self.peers.clone(),
        }
    }
}

/// One end of one connection: what [`Endpoint::link`] resolves a peer to.
/// A sender that keeps it pays no per-message lookup at all; the
/// per-peer methods on [`Endpoint`] are this, behind one ordered lookup in
/// the endpoint's own peer table.
pub struct Link<M> {
    conn: Rc<Conn<M>>,
    /// Index of this end in `conn.nodes` — also its sending direction.
    me: usize,
}

impl<M> Clone for Link<M> {
    fn clone(&self) -> Self {
        Link { conn: self.conn.clone(), me: self.me }
    }
}

impl<M: 'static> Link<M> {
    fn node(&self) -> NodeId {
        self.conn.nodes[self.me]
    }

    fn peer(&self) -> NodeId {
        self.conn.nodes[1 - self.me]
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
        c.stats.connects += 1;
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
        c.stats.teardowns += 1;
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
        let Some(arrival) = self.charge(wire_size) else { return Err(msg) };
        // The event owns everything delivery touches: a teardown or flap
        // that starts meanwhile still sees this message land and drain.
        // Deliveries are never cancelled, so it takes no timer slot.
        let (conn, d) = (self.conn.clone(), self.me);
        self.conn.net.handle.post_at(arrival, move |h| deliver(h, &conn, d, msg, wire_size));
        Ok(())
    }

    /// Put `wire_size` bytes on this end's sending direction — serialized
    /// behind whatever the link already carries, counted in flight — and
    /// return when they land at the peer; `None`, and nothing charged, if
    /// the connection is not `Active`. The caller owes the delivery event.
    fn charge(&self, wire_size: u64) -> Option<Time> {
        let net = &self.conn.net;
        let d = self.me;
        let mut c = self.conn.st.borrow_mut();
        if c.state != ConnState::Active {
            return None;
        }
        let start = c.busy_until[d].max(net.handle.now()) + net.cfg.per_message_overhead;
        let done_serializing = start + net.cfg.serialize_time(wire_size);
        c.busy_until[d] = done_serializing;
        c.in_flight[d] += 1;
        Some(done_serializing + net.cfg.latency)
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
        (c.in_flight[self.me], c.in_flight[1 - self.me])
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
    /// goes through the fabric's registry and creates the `Disconnected`
    /// record) so the holder can send without any further lookup.
    pub fn link(&self, peer: NodeId) -> Link<M> {
        assert_ne!(self.node, peer, "no connection to self at the fabric level");
        let known = self.peers.borrow().get(&peer).cloned();
        let conn = known.unwrap_or_else(|| self.fabric.conn(self.node, peer));
        Link { conn, me: usize::from(self.node > peer) }
    }

    /// [`Link::connect`] on the connection to `peer`.
    pub fn connect(&self, p: &Proc, peer: NodeId) {
        self.link(peer).connect(p);
    }

    /// Whether the connection to `peer` is currently `Active`.
    pub fn is_connected(&self, peer: NodeId) -> bool {
        // A stranger is simply not connected: asking creates nothing.
        self.peers.borrow().get(&peer).is_some_and(|c| c.st.borrow().state == ConnState::Active)
    }

    /// Peers with an `Active` connection, sorted: answered from this
    /// endpoint's own peer table, O(degree).
    pub fn connected_peers(&self) -> Vec<NodeId> {
        let peers = self.peers.borrow();
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

    /// [`send`](Endpoint::send) each `(peer, msg, wire_size)` in turn, as
    /// one fan-out: every link is charged exactly as its own `send` would
    /// charge it, but messages landing at the same instant share one
    /// delivery event, which delivers them in argument order. Same arrival
    /// times and same order at every receiver as the loop of `send`s — the
    /// events that loop schedules carry consecutive sequence numbers, so
    /// nothing could have run between two of them — for one event per
    /// distinct arrival time instead of one per message.
    pub fn send_each(&self, items: impl IntoIterator<Item = (NodeId, M, u64)>) {
        let mut landing: Vec<(Time, Landing<M>)> = items
            .into_iter()
            .map(|(peer, msg, wire_size)| {
                let link = self.link(peer);
                let Some(at) = link.charge(wire_size) else {
                    panic!("send {} -> {peer} on non-active connection", self.node);
                };
                (at, Landing { conn: link.conn, d: link.me, msg, wire_size })
            })
            .collect();
        // Stable: equal arrival times keep argument order.
        landing.sort_by_key(|(at, _)| *at);
        let h = &self.fabric.inner.net.handle;
        let mut rest = landing.into_iter().peekable();
        while let Some((at, first)) = rest.next() {
            let mut batch = vec![first];
            while let Some((_, next)) = rest.next_if(|(t, _)| *t == at) {
                batch.push(next);
            }
            h.post_at(at, move |h| {
                for l in batch {
                    deliver(h, &l.conn, l.d, l.msg, l.wire_size);
                }
            });
        }
    }

    /// Pop the next delivered message, if any.
    pub fn try_recv(&self) -> Option<(NodeId, M)> {
        self.mbox.borrow_mut().queue.pop_front()
    }

    /// Move every delivered message to the back of `into`, in arrival
    /// order, under one borrow (a progress engine's batch receive). An empty
    /// `into` trades buffers with the queue instead of copying, so draining
    /// into a scratch queue costs no second allocation.
    pub fn drain_into(&self, into: &mut VecDeque<(NodeId, M)>) {
        let queue = &mut self.mbox.borrow_mut().queue;
        if into.is_empty() {
            std::mem::swap(into, queue);
        } else {
            into.append(queue);
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
                let mut e = self.mbox.borrow_mut();
                if let Some(i) = e.queue.iter().position(|(n, m)| pred(*n, m)) {
                    break e.queue.remove(i);
                }
                if by.is_some_and(|t| p.now() >= t) {
                    break None;
                }
                if !e.waiters.contains(&p.id()) {
                    e.waiters.push(p.id());
                }
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
        self.mbox.borrow_mut().queue.retain(|(n, m)| pred(*n, m));
    }

    /// Register the calling process to be woken on the next delivery to
    /// this endpoint, without consuming anything. Used to park on several
    /// endpoints at once (e.g. an MPI rank waiting on both its data-plane
    /// and out-of-band endpoints). The registration is one-shot and may
    /// produce spurious wakes; pair with a predicate loop.
    pub fn register_waiter(&self, pid: ProcId) {
        let mut e = self.mbox.borrow_mut();
        if !e.waiters.contains(&pid) {
            e.waiters.push(pid);
        }
    }

    /// [`register_waiter`](Endpoint::register_waiter) unless a message is
    /// already queued — the "anything pending?" check and the registration
    /// are one step. Returns whether it registered.
    pub fn register_waiter_if_empty(&self, pid: ProcId) -> bool {
        let mut e = self.mbox.borrow_mut();
        if !e.queue.is_empty() {
            return false;
        }
        if !e.waiters.contains(&pid) {
            e.waiters.push(pid);
        }
        true
    }

    /// Remove a previously registered waiter that was not consumed by a
    /// delivery (e.g. the wait ended via a timer). Keeping the lists clean
    /// matters for fidelity: a stale registration would let a data-plane
    /// delivery wake a *computing* rank, which OS-bypass hardware never
    /// does.
    pub fn unregister_waiter(&self, pid: ProcId) {
        self.mbox.borrow_mut().waiters.retain(|&w| w != pid);
    }

    /// Install a demand-driven compute wake: every delivery to this
    /// endpoint pokes `hook` (see [`gbcr_des::DemandWake`]). Replaces any
    /// previous hook. Installed on passive-coordination entry by the MPI
    /// runtime; the hook itself only acts while its owner is parked.
    pub fn set_compute_hook(&self, hook: DemandWake) {
        self.mbox.borrow_mut().hook = Some(hook);
    }

    /// Remove the demand-driven compute wake (passive-coordination exit).
    pub fn clear_compute_hook(&self) {
        self.mbox.borrow_mut().hook = None;
    }

    /// Install this endpoint's *listener*: a delivery that finds the queue
    /// empty and a live process parked on the endpoint offers the message
    /// to `handler` instead of queueing it and waking that process. Only
    /// then would the woken process see exactly this one message, so only
    /// then can a handler stand in for it; a message the handler hands back
    /// is queued and the waiters woken, as if no handler existed. Replaces
    /// any previous handler.
    pub fn set_arrival_handler(&self, handler: ArrivalHandler<M>) {
        self.mbox.borrow_mut().arrival = Some(handler);
    }

    /// Number of delivered-but-unconsumed messages.
    pub fn pending(&self) -> usize {
        self.mbox.borrow().queue.len()
    }

    /// [`Link::in_flight`] on the connection to `peer`.
    pub fn in_flight(&self, peer: NodeId) -> (usize, usize) {
        self.link(peer).in_flight()
    }

    /// [`Link::wait_drained`] on the connection to `peer`.
    pub fn wait_drained(&self, p: &Proc, peer: NodeId) {
        self.link(peer).wait_drained(p);
    }
}

/// One message of a [`Endpoint::send_each`] fan-out, charged and in the
/// air: what its share of the delivery event hands to [`deliver`].
struct Landing<M> {
    conn: Rc<Conn<M>>,
    d: usize,
    msg: M,
    wire_size: u64,
}

/// The delivery event of one message sent in direction `d` of `conn`:
/// retire it from the wire (completing a drain or a pending flap), queue it
/// at the destination and wake whoever waits there — unless the
/// destination's listener takes it on the spot.
fn deliver<M>(h: &SimHandle, conn: &Conn<M>, d: usize, msg: M, wire_size: u64) {
    let (from, to) = (conn.nodes[d], conn.nodes[1 - d]);
    {
        let mut c = conn.st.borrow_mut();
        debug_assert!(
            matches!(c.state, ConnState::Active | ConnState::Draining),
            "delivery on {:?} connection {from}->{to}",
            c.state
        );
        c.in_flight[d] -= 1;
        c.stats.messages += 1;
        c.stats.bytes += wire_size;
        if c.in_flight == [0, 0] {
            // A forced disconnect hit this connection mid-transfer:
            // finish the drop now that the wire is empty.
            let flapped = c.flap_pending;
            if flapped {
                debug_assert_eq!(c.state, ConnState::Draining);
                c.state = ConnState::Disconnected;
                c.flap_pending = false;
                c.stats.forced_down += 1;
            }
            let mut ws = std::mem::take(&mut c.waiters);
            drop(c);
            if flapped {
                h.trace_instant(Track::Node(from.0), "net.flap", || flap_args(to, "drained"));
            }
            wake_all(h, &mut ws);
        }
    }
    let hook = {
        let mut e = conn.mbox[1 - d].borrow_mut();
        let msg = match &e.arrival {
            // A killed waiter never runs again: nobody is listening.
            Some(listener)
                if e.queue.is_empty() && e.waiters.iter().any(|&w| !h.is_killed(w)) =>
            {
                listener(from, msg)
            }
            _ => Some(msg),
        };
        msg.and_then(|msg| {
            e.queue.push_back((from, msg));
            // Waking only appends to the event queue, so it is done under
            // the borrow and the waiter list keeps its allocation.
            wake_all(h, &mut e.waiters);
            e.hook.clone()
        })
    };
    if let Some(hook) = hook {
        hook.poke();
    }
    h.trace_instant_detail(Track::Node(to.0), "net.deliver", || {
        vec![("from", ArgValue::U64(u64::from(from.0))), ("bytes", ArgValue::U64(wire_size))]
    });
}

/// A `net.flap` instant's args: the other end, and how far the forced
/// drop got when observed (`idle`, `draining` or `drained`).
fn flap_args(peer: NodeId, stage: &'static str) -> Vec<Arg> {
    vec![("peer", ArgValue::U64(u64::from(peer.0))), ("stage", ArgValue::Str(stage.into()))]
}
