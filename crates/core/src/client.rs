//! The application-facing checkpoint client.

use bytes::Bytes;
use gbcr_mpi::{Mpi, WeakMpi};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Handle through which the application keeps the checkpoint system
/// informed of its restartable state and memory footprint.
///
/// A real BLCR snapshot captures the whole address space; this simulated
/// reproduction instead captures (a) the *registered state* — whatever the
/// application last passed to [`CkptClient::set_state`], typically its
/// iteration counters and accumulators, refreshed at each natural boundary
/// — and (b) the declared *footprint*, which is what the storage transfer
/// is charged for. See DESIGN.md for the replay model this supports.
#[derive(Clone)]
pub struct CkptClient {
    inner: Rc<ClientInner>,
}

struct ClientInner {
    state: RefCell<Bytes>,
    footprint: Cell<u64>,
    dirty: Cell<u64>,
    /// Weak: the runtime owns its hook, the hook (the controller) owns
    /// this client — a strong handle here would close the cycle.
    mpi: WeakMpi,
}

impl CkptClient {
    /// A client for `mpi`'s rank, with no state registered and a zero
    /// footprint. Each state registration marks the rank's replay boundary
    /// at the same instant.
    pub fn new(mpi: &Mpi) -> Self {
        CkptClient {
            inner: Rc::new(ClientInner {
                state: RefCell::default(),
                footprint: Cell::new(0),
                dirty: Cell::new(0),
                mpi: mpi.downgrade(),
            }),
        }
    }

    /// Register the application's current restartable state. The runtime
    /// marks its boundary ([`Mpi::mark_boundary`]) at the same instant, so
    /// replay after a restart re-executes exactly the sends past this
    /// boundary with their original sequence numbers. Cheap: the bytes are
    /// reference-counted, not copied, and the runtime reuses its buffers.
    pub fn set_state(&self, state: Bytes) {
        if let Some(mpi) = self.inner.mpi.upgrade() {
            mpi.mark_boundary();
        }
        *self.inner.state.borrow_mut() = state;
    }

    /// Declare the current memory footprint (the simulated image size).
    /// Applications whose resident set varies over time (HPL) update this
    /// as they run; the paper notes checkpoint delay varies accordingly.
    pub fn set_footprint(&self, bytes: u64) {
        self.inner.footprint.set(bytes);
    }

    /// Current declared footprint.
    pub fn footprint(&self) -> u64 {
        self.inner.footprint.get()
    }

    /// Report `bytes` of memory written since the last report. Feeds
    /// incremental checkpointing (the paper's §8 future work): an
    /// incremental image only writes the bytes dirtied since the previous
    /// checkpoint. Saturates at the declared footprint.
    pub fn mark_dirty(&self, bytes: u64) {
        self.inner.dirty.set(self.inner.dirty.get() + bytes);
    }

    /// Dirty bytes accumulated since the last [`CkptClient::take_dirty`],
    /// clamped to the footprint; resets the counter (controller use).
    pub fn take_dirty(&self) -> u64 {
        self.inner.dirty.replace(0).min(self.footprint())
    }

    /// Snapshot `(state, footprint)` — called by the controller at freeze.
    pub fn snapshot(&self) -> (Bytes, u64) {
        (self.inner.state.borrow().clone(), self.footprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbcr_des::Sim;
    use gbcr_mpi::{MpiConfig, Msg, World};

    /// Run `check` on rank 0 of a two-rank world, with a client bound to
    /// the rank's runtime that registered `iter=3` right after the rank's
    /// one send.
    fn registered_after_one_send(check: impl FnOnce(&CkptClient, &Mpi) + 'static) {
        let mut sim = Sim::new(0);
        let world = World::new(sim.handle(), MpiConfig::new(2));
        let (m0, m1) = (world.attach(0), world.attach(1));
        sim.spawn("rank0", move |p| {
            let c = CkptClient::new(&m0);
            assert_eq!(c.snapshot(), (Bytes::new(), 0));
            m0.send(p, 1, 7, Msg::u64(1));
            // No boundary is marked before the first registration.
            assert!(m0.export_cr_state().send_seqs.is_empty());
            c.set_state(Bytes::from_static(b"iter=3"));
            // The send to rank 1 took sequence number 0: a replay from this
            // boundary resumes at 1.
            let exported = m0.export_cr_state();
            assert_eq!((exported.send_seqs, exported.coll_seqs), (vec![(1, 1)], Vec::new()));
            check(&c, &m0);
        });
        sim.spawn("rank1", move |p| {
            m1.recv(p, Some(0), 7);
        });
        sim.run().expect("both ranks finish");
    }

    #[test]
    fn snapshot_reflects_latest_registration() {
        registered_after_one_send(|c, mpi| {
            c.set_footprint(2000);
            assert_eq!(c.snapshot(), (Bytes::from_static(b"iter=3"), 2000));
            // Clones share the same cell, and mark the same runtime.
            let c2 = c.clone();
            c2.set_state(Bytes::from_static(b"iter=4"));
            assert_eq!(c.snapshot().0, Bytes::from_static(b"iter=4"));
            assert_eq!(mpi.export_cr_state().send_seqs, vec![(1, 1)]);
        });
    }

    #[test]
    fn dirty_accumulates_clamps_and_resets() {
        registered_after_one_send(|c, _| {
            c.set_footprint(1000);
            c.mark_dirty(300);
            c.mark_dirty(400);
            assert_eq!(c.take_dirty(), 700);
            assert_eq!(c.take_dirty(), 0, "take resets");
            c.mark_dirty(5000);
            assert_eq!(c.take_dirty(), 1000, "clamped to footprint");
        });
    }
}
