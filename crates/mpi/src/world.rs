//! The MPI world: fabrics, communicator registry, rank attachment.

use crate::api::Mpi;
use crate::comm::Comm;
use crate::config::{MpiConfig, OOB_NET};
use crate::engine::{Rt, WireMsg};
use crate::hook::OobMsg;
use crate::types::Rank;
use gbcr_des::{SimHandle, Track};
use gbcr_net::{Endpoint, Fabric, NodeId};
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;

/// Out-of-band node id of the global checkpoint coordinator (the `mpirun`
/// console in MVAPICH2 terms). This is a *service address*: whichever
/// process currently holds the coordinator role binds an endpoint here, so
/// rank-side protocol code addresses "the coordinator" without knowing
/// which node is playing it after a failover.
pub const COORDINATOR_NODE: NodeId = NodeId(u32::MAX);

/// Out-of-band node id of rank `r`'s election standby — the lightweight
/// agent that watches the coordinator's lease and runs the failover
/// election for its rank. Standbys get their own addresses (descending
/// from just below [`COORDINATOR_NODE`]) so lease/election traffic never
/// mixes into the rank protocol mailboxes.
pub fn standby_node(rank: Rank) -> NodeId {
    NodeId(u32::MAX - 1 - rank)
}

pub(crate) struct WorldShared {
    pub(crate) handle: SimHandle,
    pub(crate) cfg: MpiConfig,
    pub(crate) data: Fabric<WireMsg>,
    pub(crate) oob: Fabric<OobMsg>,
    comms: RefCell<Vec<Rc<Vec<Rank>>>>,
    /// Ranks attached so far (a rank has exactly one runtime).
    attached: RefCell<HashSet<Rank>>,
    /// Ranks whose node has died (fault injection), in the order they
    /// died. Sends to these ranks are black-holed by the engine until the
    /// job is torn down.
    failed: RefCell<Vec<Rank>>,
    /// Messages black-holed because their destination was failed.
    dropped_sends: Cell<u64>,
}

/// An MPI job of `cfg.n` ranks sharing a data fabric and an out-of-band
/// fabric. Clone freely.
///
/// ```
/// use gbcr_des::Sim;
/// use gbcr_mpi::{MpiConfig, Msg, World};
///
/// let mut sim = Sim::new(0);
/// let world = World::new(sim.handle(), MpiConfig::new(4));
/// for r in 0..4 {
///     let mpi = world.attach(r);
///     let comm = world.world_comm();
///     sim.spawn(format!("rank{r}"), move |p| {
///         let sum = mpi.allreduce_sum(p, &comm, f64::from(mpi.rank()));
///         assert_eq!(sum, 6.0); // 0+1+2+3
///     });
/// }
/// sim.run().unwrap();
/// ```
#[derive(Clone)]
pub struct World {
    pub(crate) shared: Rc<WorldShared>,
}

impl World {
    /// Create a world attached to a simulation.
    pub fn new(handle: SimHandle, cfg: MpiConfig) -> Self {
        assert!(cfg.n >= 1, "world needs at least one rank");
        let data = Fabric::new(handle.clone(), cfg.net.clone());
        let oob = Fabric::new(handle.clone(), OOB_NET);
        World {
            shared: Rc::new(WorldShared {
                handle,
                cfg,
                data,
                oob,
                comms: RefCell::default(),
                attached: RefCell::default(),
                failed: RefCell::default(),
                dropped_sends: Cell::new(0),
            }),
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> u32 {
        self.shared.cfg.n
    }

    /// The simulation handle this world lives in.
    pub fn handle(&self) -> &SimHandle {
        &self.shared.handle
    }

    /// Create this rank's runtime, with the listener that answers its
    /// rendezvous handshakes while it waits (`Mpi::data_arrival`). Call
    /// exactly once per rank, from (or before) the rank's own simulated
    /// process.
    pub fn attach(&self, rank: Rank) -> Mpi {
        assert!(rank < self.shared.cfg.n, "rank {rank} out of range");
        assert!(self.shared.attached.borrow_mut().insert(rank), "rank {rank} attached twice");
        let mpi = Mpi { rt: Rc::new(Rt::new(self.clone(), rank)) };
        // Weak: the mailbox belongs to this world's fabric, which the
        // runtime owns.
        let me = mpi.downgrade();
        mpi.rt.ep.set_arrival_handler(Rc::new(move |from, wire| match me.upgrade() {
            Some(mpi) => mpi.data_arrival(from.0, wire),
            None => Some(wire),
        }));
        mpi
    }

    /// Intern a communicator over `members` (must be non-empty, unique,
    /// in-range). Every rank calling with the same member list receives a
    /// communicator with the same id — mirroring collectively-created MPI
    /// communicators.
    pub fn comm(&self, members: Vec<Rank>) -> Comm {
        assert!(!members.is_empty(), "empty communicator");
        for &m in &members {
            assert!(m < self.shared.cfg.n, "member {m} out of range");
        }
        let mut sorted = members.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), members.len(), "duplicate communicator member");
        let mut comms = self.shared.comms.borrow_mut();
        let id = match comms.iter().position(|c| ***c == members) {
            Some(i) => i,
            None => {
                comms.push(Rc::new(members.clone()));
                comms.len() - 1
            }
        };
        assert!(id < 32_768, "communicator id space exhausted");
        Comm::new(id as u32, comms[id].clone())
    }

    /// The communicator over all ranks.
    pub fn world_comm(&self) -> Comm {
        self.comm((0..self.shared.cfg.n).collect())
    }

    /// Raw out-of-band endpoint for a non-rank participant (the global
    /// coordinator).
    pub fn oob_endpoint(&self, node: NodeId) -> Endpoint<OobMsg> {
        self.shared.oob.endpoint(node)
    }

    /// Data-fabric statistics (messages, bytes, connects, teardowns).
    pub fn net_stats(&self) -> gbcr_net::NetStats {
        self.shared.data.stats()
    }

    // ------------------------------------------------------------------
    // Fault injection (driven by `gbcr-faults` through the core sink)
    // ------------------------------------------------------------------

    /// Record that `rank`'s node has died: its data-plane links to every
    /// peer and its out-of-band links (peers + coordinator) are forcibly
    /// torn down, and all future sends addressed to it are black-holed.
    /// This is the "detection" half of the fail-stop model — survivors
    /// observe broken connections and lost messages, never a half-alive
    /// peer. Idempotent.
    pub fn mark_failed(&self, rank: Rank) {
        assert!(rank < self.shared.cfg.n, "rank {rank} out of range");
        {
            let mut f = self.shared.failed.borrow_mut();
            if f.contains(&rank) {
                return;
            }
            f.push(rank);
        }
        for peer in 0..self.shared.cfg.n {
            if peer != rank {
                self.shared.data.force_disconnect(NodeId(rank), NodeId(peer));
                self.shared.oob.force_disconnect(NodeId(rank), NodeId(peer));
            }
        }
        self.shared.oob.force_disconnect(NodeId(rank), COORDINATOR_NODE);
        self.shared.handle.trace_instant(Track::Rank(rank), "mpi.node_failed", Vec::new);
    }

    /// Record that the node hosting the checkpoint coordinator has died:
    /// its out-of-band links to every rank are forcibly torn down. The
    /// ranks themselves keep running — this is a control-plane loss, not a
    /// data-plane one, so nothing is black-holed and no rank is marked
    /// failed. The next OOB send a rank makes toward [`COORDINATOR_NODE`]
    /// lazily re-establishes the link — reaching whichever process has
    /// bound the coordinator service address by then (the elected
    /// successor, under failover).
    pub fn mark_coordinator_failed(&self) {
        for r in 0..self.shared.cfg.n {
            self.shared.oob.force_disconnect(COORDINATOR_NODE, NodeId(r));
            self.shared.oob.force_disconnect(COORDINATOR_NODE, standby_node(r));
        }
    }

    /// Ranks marked failed so far, in the order they died.
    pub fn failed_ranks(&self) -> Vec<Rank> {
        self.shared.failed.borrow().clone()
    }

    /// Whether `rank` has been marked failed.
    pub fn is_failed(&self, rank: Rank) -> bool {
        self.shared.failed.borrow().contains(&rank)
    }

    /// Transiently flap the data-plane link between two live ranks: the
    /// connection is forcibly dropped (in-flight traffic still lands) and
    /// the next send across it pays connection setup again. Returns whether
    /// a teardown was actually initiated.
    pub fn flap_link(&self, a: Rank, b: Rank) -> bool {
        assert!(a < self.shared.cfg.n && b < self.shared.cfg.n && a != b);
        self.shared.data.force_disconnect(NodeId(a), NodeId(b))
    }

    /// Messages black-holed because their destination had failed.
    pub fn dropped_sends(&self) -> u64 {
        self.shared.dropped_sends.get()
    }

    /// Record one message black-holed because its destination node failed
    /// (by the engine, and by senders outside it, e.g. the C/R
    /// coordinator).
    pub fn note_dropped_send(&self) {
        self.shared.dropped_sends.set(self.shared.dropped_sends.get() + 1);
    }
}
