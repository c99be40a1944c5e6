//! The MPI world: fabrics, communicator registry, rank attachment.

use crate::api::Mpi;
use crate::comm::Comm;
use crate::config::{MpiConfig, OOB_NET};
use crate::engine::{Rt, WireMsg};
use crate::hook::{CrHook, GateState, OobMsg};
use crate::types::Rank;
use crate::wake::DemandWake;
use gbcr_des::{ProcId, SimHandle, Track};
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
    /// Every rank's out-of-band listener state, dense by rank.
    pub(crate) listeners: Rc<Listeners>,
}

/// What the out-of-band fabric's batch listener reads for a broadcast
/// member, one slot per rank in one array: the whole test a member takes
/// before its gate step (DESIGN.md §3.1).
pub(crate) struct Listeners {
    handle: SimHandle,
    slots: Vec<ListenerSlot>,
}

pub(crate) struct ListenerSlot {
    /// `(owner, stamp)`: the rank's listener took a message for its parked
    /// process `owner` when `owner`'s stamp (`SimHandle::stamp`) read
    /// `stamp`, and nothing has been queued for the rank on either plane
    /// since, nor the rank marked failed. While the stamp holds, the rank
    /// has not run, so every row of the listener's verdict stands.
    certified: Cell<Option<(ProcId, u32)>>,
    /// Out-of-band messages answered at arrival ([`ListenerStats::oob`]).
    ///
    /// [`ListenerStats::oob`]: crate::ListenerStats::oob
    pub(crate) taken: Cell<u32>,
    /// The hook's gate position ([`crate::Mpi::gate`]).
    pub(crate) gate: Cell<GateState>,
    /// The runtime's hook (`Mpi::set_hook`), for the batch listener; the
    /// rank's own thread reads its runtime's copy.
    pub(crate) hook: RefCell<Option<Rc<dyn CrHook>>>,
    /// The runtime's demand-driven progress wake, its state inline here.
    pub(crate) demand: DemandWake,
}

impl Listeners {
    pub(crate) fn slot(&self, rank: Rank) -> &ListenerSlot {
        &self.slots[rank as usize]
    }

    /// A broadcast member lands at `node`: answer it as the rank's listener
    /// would, from this slot and the hook's own state, or decline.
    fn take(&self, node: NodeId, msg: &OobMsg) -> Option<Option<(OobMsg, u64)>> {
        let rank = node.0;
        let slot = self.slots.get(rank as usize)?;
        let (owner, stamp) = slot.certified.get()?;
        if self.handle.stamp(owner) != stamp {
            return None;
        }
        let reply = slot.hook.borrow().as_ref()?.on_oob_batch(rank, &slot.gate, msg)?;
        slot.demand.reanchor();
        slot.taken.set(slot.taken.get() + 1);
        Some(reply.map(|r| {
            let size = r.wire_size();
            (r, size)
        }))
    }
}

/// A rank's entry in its world's listener table, as its hook holds it
/// ([`crate::Mpi::gate`]): the [`GateState`] the hook keeps there, and the
/// listener's standing verdict, which the hook drops when its answer to
/// the next gate broadcast may differ from its last.
#[derive(Clone)]
pub struct Gate {
    pub(crate) board: Rc<Listeners>,
    pub(crate) rank: Rank,
}

impl Gate {
    fn slot(&self) -> &ListenerSlot {
        self.board.slot(self.rank)
    }

    /// The gate position.
    pub fn get(&self) -> GateState {
        self.slot().gate.get()
    }

    /// Move the gate position.
    pub fn set(&self, state: GateState) {
        self.slot().gate.set(state);
    }

    /// Drop the listener's standing verdict for this rank: the next gate
    /// broadcast takes the listener's whole path
    /// ([`CrHook::on_oob_batch`]).
    pub fn void_listener(&self) {
        self.slot().void();
    }
}

impl Drop for WorldShared {
    /// The listener table holds each rank's hook, and a hook may hold its
    /// rank's [`Gate`], which holds the table: the world, going, takes the
    /// hooks out so that neither keeps the other alive.
    fn drop(&mut self) {
        for slot in &self.listeners.slots {
            slot.hook.take();
        }
    }
}

impl ListenerSlot {
    /// The listener just took a message for the parked `owner`.
    pub(crate) fn certify(&self, h: &SimHandle, owner: ProcId) {
        self.certified.set(Some((owner, h.stamp(owner))));
    }

    /// Something was queued for the rank, it failed, or its hook changed.
    pub(crate) fn void(&self) {
        self.certified.set(None);
    }

    pub(crate) fn set_hook(&self, hook: Rc<dyn CrHook>) {
        *self.hook.borrow_mut() = Some(hook);
        self.void();
    }
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
        let slots = (0..cfg.n)
            .map(|_| ListenerSlot {
                certified: Cell::default(),
                taken: Cell::default(),
                gate: Cell::default(),
                hook: RefCell::default(),
                demand: DemandWake::new(handle.clone()),
            })
            .collect();
        let listeners = Rc::new(Listeners { handle: handle.clone(), slots });
        let board = listeners.clone();
        oob.set_batch_listener(Rc::new(move |node, msg| board.take(node, msg)));
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
                listeners,
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

    /// Create this rank's runtime with both its listeners, the only ones
    /// (DESIGN.md §3.1): the data plane's answers the handshakes of a rank
    /// blocked in `wait` (`Mpi::data_arrival`) and pokes its demand wake
    /// for every message it queues; the out-of-band one hands arrivals to
    /// the hook (`Mpi::oob_arrival`). Call exactly once per rank, from (or
    /// before) the rank's own simulated process.
    pub fn attach(&self, rank: Rank) -> Mpi {
        assert!(rank < self.shared.cfg.n, "rank {rank} out of range");
        assert!(self.shared.attached.borrow_mut().insert(rank), "rank {rank} attached twice");
        let mpi = Mpi { rt: Rc::new(Rt::new(self.clone(), rank)) };
        let listeners = &self.shared.listeners;
        // Weak, as the runtime owns the fabrics; upgraded only for a
        // message seen alone, so a busy rank costs no `Rc` traffic.
        let (me, board) = (mpi.downgrade(), listeners.clone());
        mpi.rt.ep.set_arrival_handler(Rc::new(move |link, wire, alone| {
            // Answered or queued, it changes what the rank has pending.
            let slot = board.slot(rank);
            slot.void();
            let wire = match alone.then(|| me.upgrade()).flatten() {
                Some(mpi) => mpi.data_arrival(link, wire)?,
                None => wire,
            };
            slot.demand.poke(); // queued: a passive `compute` wakes at its next boundary
            Some(wire)
        }));
        // While the verdict stands the message is seen alone (nothing was
        // queued, the owner has not run), so `oob_arrival` voids it when
        // the message is queued after all.
        let me = mpi.downgrade();
        mpi.rt.oob_ep.set_arrival_handler(Rc::new(move |link, msg, alone| {
            match alone.then(|| me.upgrade()).flatten() {
                Some(mpi) => mpi.oob_arrival(link, msg),
                None => Some(msg),
            }
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

    /// Out-of-band fabric statistics: the coordinator's protocol traffic
    /// and the election's, which [`World::net_stats`] does not count.
    pub fn oob_stats(&self) -> gbcr_net::NetStats {
        self.shared.oob.stats()
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
        self.shared.listeners.slot(rank).void();
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
