//! The user-facing MPI facade.

use crate::comm::Comm;
use crate::config::EAGER_THRESHOLD;
use crate::engine::{EndpointStats, MpiCrState, Rt};
use crate::hook::{CrHook, CtrlWire, OobMsg};
use crate::types::{BoundarySnapshot, Msg, Rank, Request, Tag, MAX_USER_TAG};
use gbcr_des::{ArgValue, Proc, Time, Track};
use gbcr_net::{Link, NodeId};
use std::rc::{Rc, Weak};

/// One rank's MPI library handle. All blocking calls take the owning
/// simulated process's [`Proc`]; calling them from any other process is a
/// programming error (the runtime is single-threaded per rank, like a
/// funneled MPI).
#[derive(Clone)]
pub struct Mpi {
    pub(crate) rt: Rc<Rt>,
}

/// A non-owning reference to a rank's runtime (see [`Mpi::downgrade`]).
/// Lets checkpoint-layer objects that the runtime itself owns — the hook
/// and what hangs off it — reach back to the rank without keeping the
/// whole world alive in a reference cycle.
pub struct WeakMpi {
    rt: Weak<Rt>,
}

impl WeakMpi {
    /// The rank's handle, if any [`Mpi`] for it is still alive.
    pub fn upgrade(&self) -> Option<Mpi> {
        self.rt.upgrade().map(Mpi::from_rt)
    }
}

impl Mpi {
    pub(crate) fn from_rt(rt: Rc<Rt>) -> Self {
        Mpi { rt }
    }

    /// A non-owning reference to this rank's runtime.
    pub fn downgrade(&self) -> WeakMpi {
        WeakMpi { rt: Rc::downgrade(&self.rt) }
    }

    /// This rank.
    pub fn rank(&self) -> Rank {
        self.rt.rank
    }

    /// World size.
    pub fn size(&self) -> u32 {
        self.rt.cfg().n
    }

    /// Record a [`gbcr_des::TraceLevel::Full`]-only span for a blocking
    /// collective on this rank's track.
    fn coll_span(&self, p: &Proc, name: &'static str, t0: Time, comm: &Comm) {
        let n = comm.size() as u64;
        p.handle().trace_span_detail(Track::Rank(self.rank()), name, t0, || {
            vec![("comm", ArgValue::U64(n))]
        });
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Blocking send (completes when the user buffer is reusable: eager →
    /// immediately after the copy; rendezvous → when the data has left).
    pub fn send(&self, p: &Proc, dst: Rank, tag: Tag, msg: Msg) {
        assert!(tag <= MAX_USER_TAG, "tag {tag} is in the reserved range");
        let t0 = p.now();
        let bytes = msg.size;
        let eager = bytes <= EAGER_THRESHOLD;
        let req = self.rt.isend(p, dst, tag, msg);
        self.rt.wait(p, req);
        p.handle().trace_span_detail(Track::Rank(self.rank()), "mpi.send", t0, || {
            vec![
                ("peer", ArgValue::U64(u64::from(dst))),
                ("bytes", ArgValue::U64(bytes)),
                ("proto", ArgValue::Str(if eager { "eager" } else { "rdv" }.to_owned())),
            ]
        });
    }

    /// Nonblocking send.
    pub fn isend(&self, p: &Proc, dst: Rank, tag: Tag, msg: Msg) -> Request {
        assert!(tag <= MAX_USER_TAG, "tag {tag} is in the reserved range");
        self.rt.isend(p, dst, tag, msg)
    }

    /// Blocking receive. `src = None` receives from any source.
    pub fn recv(&self, p: &Proc, src: Option<Rank>, tag: Tag) -> Msg {
        assert!(tag <= MAX_USER_TAG, "tag {tag} is in the reserved range");
        let t0 = p.now();
        let req = self.rt.irecv(p, src, tag);
        let msg = self.rt.wait(p, req).expect("recv request yields a message");
        let bytes = msg.size;
        p.handle().trace_span_detail(Track::Rank(self.rank()), "mpi.recv", t0, || {
            vec![("bytes", ArgValue::U64(bytes))]
        });
        msg
    }

    /// Nonblocking receive.
    pub fn irecv(&self, p: &Proc, src: Option<Rank>, tag: Tag) -> Request {
        assert!(tag <= MAX_USER_TAG, "tag {tag} is in the reserved range");
        self.rt.irecv(p, src, tag)
    }

    /// Block until `req` completes; receives yield `Some(msg)`.
    pub fn wait(&self, p: &Proc, req: Request) -> Option<Msg> {
        self.rt.wait(p, req)
    }

    /// Poll `req`; `Some(..)` if it completed (receives carry the message).
    pub fn test(&self, p: &Proc, req: Request) -> Option<Option<Msg>> {
        self.rt.test(p, req)
    }

    // ------------------------------------------------------------------
    // Computation
    // ------------------------------------------------------------------

    /// Perform `dt` of local computation (see the progress-engine rules in
    /// [`crate`] docs: data-plane traffic does not interrupt compute; OOB
    /// does; passive coordination slices at the helper-thread interval).
    pub fn compute(&self, p: &Proc, dt: Time) {
        self.rt.compute(p, dt);
    }

    /// Run the progress engine once without blocking (an `MPI_Iprobe`-ish
    /// library entry).
    pub fn poke(&self, p: &Proc) {
        self.rt.progress(p);
    }

    /// Park until anything arrives on either the data or the out-of-band
    /// plane (may wake spuriously). Service loops pair this with
    /// [`Mpi::poke`] and their own exit predicate.
    pub fn wait_any_event(&self, p: &Proc) {
        self.rt.wait_event(p);
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    /// Barrier over `comm` (dissemination algorithm: ⌈log₂ n⌉ rounds).
    pub fn barrier(&self, p: &Proc, comm: &Comm) {
        let n = comm.size();
        if n <= 1 {
            return;
        }
        let t0 = p.now();
        let me = comm.index_of(self.rank()).expect("caller not in communicator");
        let tag = comm.coll_tag(self.rt.next_coll_seq(comm.id()));
        let mut k = 1usize;
        while k < n {
            let to = comm.member((me + k) % n);
            let from = comm.member((me + n - (k % n)) % n);
            let sreq = self.rt.isend(p, to, tag, Msg::empty());
            let rreq = self.rt.irecv(p, Some(from), tag);
            self.rt.wait(p, rreq);
            self.rt.wait(p, sreq);
            k <<= 1;
        }
        self.coll_span(p, "mpi.barrier", t0, comm);
    }

    /// Broadcast from `root` (communicator index) over a binomial tree.
    /// The root passes `Some(msg)`; everyone receives the message.
    pub fn bcast(&self, p: &Proc, comm: &Comm, root: usize, msg: Option<Msg>) -> Msg {
        let t0 = p.now();
        let n = comm.size();
        let me = comm.index_of(self.rank()).expect("caller not in communicator");
        assert!(root < n, "bcast root out of range");
        let tag = comm.coll_tag(self.rt.next_coll_seq(comm.id()));
        let rel = (me + n - root) % n;
        let mut have = if rel == 0 {
            Some(msg.expect("bcast root must supply the message"))
        } else {
            None
        };
        // Receive from the parent: the highest set bit of `rel`.
        if rel != 0 {
            let parent_rel = rel & (rel - 1); // clear lowest set bit? no:
            // For a binomial bcast we receive from rel - 2^floor(log2(rel)).
            let _ = parent_rel;
            let top = 1usize << (usize::BITS - 1 - rel.leading_zeros());
            let parent = (rel - top + root) % n;
            let m = {
                let req = self.rt.irecv(p, Some(comm.member(parent)), tag);
                self.rt.wait(p, req).expect("bcast recv")
            };
            have = Some(m);
        }
        let m = have.expect("message present");
        // Forward to children: rel + 2^k for each k with 2^k > rel's top bit.
        let start = if rel == 0 {
            1usize
        } else {
            (1usize << (usize::BITS - 1 - rel.leading_zeros())) << 1
        };
        let mut k = start;
        let mut pending = Vec::new();
        while rel + k < n {
            let child = (rel + k + root) % n;
            pending.push(self.rt.isend(p, comm.member(child), tag, m.clone()));
            k <<= 1;
        }
        for r in pending {
            self.rt.wait(p, r);
        }
        self.coll_span(p, "mpi.bcast", t0, comm);
        m
    }

    /// Ring allgather: returns every member's contribution, indexed by
    /// communicator index. `n − 1` steps of neighbor traffic, like real
    /// MPI ring allgathers (MotifMiner's exchange pattern).
    pub fn allgather(&self, p: &Proc, comm: &Comm, mine: Msg) -> Vec<Msg> {
        let t0 = p.now();
        let n = comm.size();
        let me = comm.index_of(self.rank()).expect("caller not in communicator");
        let mut blocks: Vec<Option<Msg>> = vec![None; n];
        blocks[me] = Some(mine.clone());
        if n == 1 {
            return blocks.into_iter().map(|b| b.expect("filled")).collect();
        }
        let tag = comm.coll_tag(self.rt.next_coll_seq(comm.id()));
        let right = comm.member((me + 1) % n);
        let left = comm.member((me + n - 1) % n);
        let mut cur = mine;
        for step in 1..n {
            let sreq = self.rt.isend(p, right, tag, cur);
            let rreq = self.rt.irecv(p, Some(left), tag);
            let got = self.rt.wait(p, rreq).expect("allgather recv");
            self.rt.wait(p, sreq);
            let idx = (me + n - step) % n;
            blocks[idx] = Some(got.clone());
            cur = got;
        }
        self.coll_span(p, "mpi.allgather", t0, comm);
        blocks.into_iter().map(|b| b.expect("filled")).collect()
    }

    /// Allreduce (sum) of one `f64` via allgather (fine at these scales).
    pub fn allreduce_sum(&self, p: &Proc, comm: &Comm, x: f64) -> f64 {
        self.allgather(p, comm, Msg::f64(x)).iter().map(Msg::as_f64).sum()
    }

    // ------------------------------------------------------------------
    // Checkpoint-layer surface (not part of the application API)
    // ------------------------------------------------------------------

    /// Register the checkpoint/restart hook for this rank.
    pub fn set_hook(&self, hook: Rc<dyn CrHook>) {
        self.rt.set_hook(hook);
    }

    /// Enter/leave passive coordination (activates the helper-thread
    /// progress slicing during compute). Runtime-mutable by design: the
    /// coordinator brackets every epoch with it (everything fixed at
    /// construction is a field of [`crate::MpiConfig`]).
    pub fn set_passive(&self, passive: bool) {
        self.rt.set_passive(passive);
    }

    /// Whether this rank is in passive coordination.
    pub fn is_passive(&self) -> bool {
        self.rt.is_passive()
    }

    /// Send an in-band control message (never gated).
    pub fn ctrl_send(&self, p: &Proc, peer: Rank, cw: CtrlWire) {
        self.rt.ctrl_send(p, peer, cw);
    }

    /// Consume the next in-band control message matching `pred`.
    pub fn ctrl_recv_match(
        &self,
        p: &Proc,
        pred: impl FnMut(Rank, &CtrlWire) -> bool,
    ) -> (Rank, CtrlWire) {
        self.rt.ctrl_recv_match(p, pred)
    }

    /// Send an out-of-band message to `node`.
    pub fn oob_send(&self, p: &Proc, node: NodeId, msg: OobMsg) {
        self.rt.oob_send(p, node, msg);
    }

    /// This rank's end of the out-of-band connection to `node`: the
    /// non-blocking way out ([`Link::try_send`], [`Link::is_active`]) for
    /// [`CrHook::on_oob_arrival`], which has no [`Proc`] to connect with.
    pub fn oob_link(&self, node: NodeId) -> Link<OobMsg> {
        self.rt.oob_ep.link(node)
    }

    /// Consume the next out-of-band message matching `pred`.
    pub fn oob_recv_match(
        &self,
        p: &Proc,
        pred: impl FnMut(NodeId, &OobMsg) -> bool,
    ) -> (NodeId, OobMsg) {
        self.rt.oob_recv_match(p, pred)
    }

    /// Retry deferred sends after a gate change.
    pub fn release_deferred(&self, p: &Proc) {
        self.rt.release_deferred(p);
    }

    /// Whether any deferred traffic is queued at all.
    pub fn has_deferred(&self) -> bool {
        self.rt.has_deferred()
    }

    /// Whether deferred traffic to `peer` is queued.
    pub fn has_deferred_to(&self, peer: Rank) -> bool {
        self.rt.has_deferred_to(peer)
    }

    /// One consistent snapshot of this rank's endpoint telemetry: sent and
    /// received per-peer traffic, deferral counters and queue depth,
    /// connected peers, and logged bytes — all state-guarded fields read
    /// under a single borrow. This is *the* telemetry entry point.
    pub fn stats(&self) -> EndpointStats {
        self.rt.stats()
    }

    /// Snapshot the checkpointable slice of this rank's library state.
    /// `boundary_seqs` comes from [`crate::MpiCrState::send_seqs`] captured at the
    /// application's last registered state boundary.
    pub fn export_cr_state(
        &self,
        boundary_seqs: &[(Rank, u64)],
        boundary_coll_seqs: &[(u32, u32)],
    ) -> MpiCrState {
        self.rt.export_cr_state(boundary_seqs, boundary_coll_seqs)
    }

    /// Capture a restartable boundary: returns the per-destination send
    /// sequence counters plus the per-communicator collective sequence
    /// counters, and clears the receive replay log. Call exactly when
    /// registering application state (the checkpoint client does).
    pub fn boundary_snapshot(&self) -> BoundarySnapshot {
        self.rt.boundary_snapshot()
    }

    /// Re-inject saved library state at restart (before the app body runs).
    pub fn import_cr_state(&self, p: &Proc, state: MpiCrState) {
        self.rt.import_cr_state(p, state);
    }

    /// Enable/disable sender-based message logging on this rank.
    ///
    /// This is one of the two runtime-mutable mode switches (the other is
    /// [`Mpi::set_passive`]); both are driven by the checkpoint protocol
    /// itself, never by user configuration. Whole-run logging (the
    /// uncoordinated mode) is instead selected up front via
    /// [`crate::MpiConfig::message_logging`].
    pub fn set_log_mode(&self, on: bool) {
        self.rt.set_log_mode(on);
    }

    /// Whether the data-plane connection to `peer` is active.
    pub fn conn_is_active(&self, peer: Rank) -> bool {
        self.rt.ep.is_connected(NodeId(peer))
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
}
