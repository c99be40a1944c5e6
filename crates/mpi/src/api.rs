//! The application-facing calls: tag-checked, traced point-to-point and
//! the collectives. Every other runtime operation is defined once, in
//! [`crate::engine`].

use crate::comm::Comm;
use crate::config::EAGER_THRESHOLD;
use crate::engine::Rt;
use crate::types::{Msg, Rank, Request, Tag, MAX_USER_TAG};
use gbcr_des::{ArgValue, Proc, Time, Track};
use std::rc::{Rc, Weak};

/// One rank's MPI library: the handle is the runtime. All blocking calls
/// take the owning simulated process's [`Proc`]; calling them from any
/// other process is a programming error (the runtime is single-threaded
/// per rank, like a funneled MPI).
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
        self.rt.upgrade().map(|rt| Mpi { rt })
    }
}

impl Mpi {
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
        self.rt.world.size()
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
        let req = self.post_send(p, dst, tag, msg);
        self.wait(p, req);
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
        self.post_send(p, dst, tag, msg)
    }

    /// Blocking receive. `src = None` receives from any source.
    pub fn recv(&self, p: &Proc, src: Option<Rank>, tag: Tag) -> Msg {
        assert!(tag <= MAX_USER_TAG, "tag {tag} is in the reserved range");
        let t0 = p.now();
        let req = self.post_recv(p, src, tag);
        let msg = self.wait(p, req).expect("recv request yields a message");
        let bytes = msg.size;
        p.handle().trace_span_detail(Track::Rank(self.rank()), "mpi.recv", t0, || {
            vec![("bytes", ArgValue::U64(bytes))]
        });
        msg
    }

    /// Nonblocking receive.
    pub fn irecv(&self, p: &Proc, src: Option<Rank>, tag: Tag) -> Request {
        assert!(tag <= MAX_USER_TAG, "tag {tag} is in the reserved range");
        self.post_recv(p, src, tag)
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
        let tag = comm.coll_tag(self.next_coll_seq(comm.id()));
        let mut k = 1usize;
        while k < n {
            let to = comm.member((me + k) % n);
            let from = comm.member((me + n - (k % n)) % n);
            let sreq = self.post_send(p, to, tag, Msg::empty());
            let rreq = self.post_recv(p, Some(from), tag);
            self.wait(p, rreq);
            self.wait(p, sreq);
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
        let tag = comm.coll_tag(self.next_coll_seq(comm.id()));
        let rel = (me + n - root) % n;
        let m = if rel == 0 {
            msg.expect("bcast root must supply the message")
        } else {
            // Receive from the parent, rel - 2^floor(log2(rel)).
            let top = 1usize << (usize::BITS - 1 - rel.leading_zeros());
            let parent = (rel - top + root) % n;
            let req = self.post_recv(p, Some(comm.member(parent)), tag);
            self.wait(p, req).expect("bcast recv")
        };
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
            pending.push(self.post_send(p, comm.member(child), tag, m.clone()));
            k <<= 1;
        }
        for r in pending {
            self.wait(p, r);
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
        let tag = comm.coll_tag(self.next_coll_seq(comm.id()));
        let right = comm.member((me + 1) % n);
        let left = comm.member((me + n - 1) % n);
        let mut cur = mine;
        for step in 1..n {
            let sreq = self.post_send(p, right, tag, cur);
            let rreq = self.post_recv(p, Some(left), tag);
            let got = self.wait(p, rreq).expect("allgather recv");
            self.wait(p, sreq);
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
}
