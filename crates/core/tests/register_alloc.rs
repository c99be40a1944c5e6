//! A state registration allocates nothing: `CkptClient::set_state` stores
//! the application's reference-counted bytes and has the runtime mark its
//! replay boundary into buffers it keeps, so the registration a rank makes
//! every step costs no heap traffic once the rank has sent. Counted by this
//! test binary's allocator; the binary holds this one test, so nothing else
//! allocates while it runs.

use bytes::Bytes;
use gbcr_core::CkptClient;
use gbcr_des::Sim;
use gbcr_mpi::{MpiConfig, Msg, World};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

/// Allocations made, reallocations included.
static MADE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` unchanged, under the same
// contract it was made with; the counter is bookkeeping beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        MADE.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds this method's contract, which is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds this method's contract, which is `System`'s.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        MADE.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds this method's contract, which is `System`'s.
        unsafe { System.realloc(p, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn a_registration_allocates_nothing_once_the_rank_has_sent() {
    const N: usize = 1_000;
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(2));
    let (m0, m1) = (world.attach(0), world.attach(1));
    let comm = world.world_comm();
    let comm1 = comm.clone();
    sim.spawn("rank0", move |p| {
        let client = CkptClient::new(&m0);
        // A boundary with a send counter and a collective counter in it.
        m0.send(p, 1, 7, Msg::u64(1));
        m0.barrier(p, &comm);
        client.set_state(Bytes::from_static(b"step=0"));
        // Built outside the count: this workspace's `Bytes` copies even a
        // static slice. A clone shares it.
        let state = Bytes::from_static(b"step=1");
        let made = MADE.load(Relaxed);
        for _ in 0..N {
            client.set_state(state.clone());
        }
        assert_eq!(MADE.load(Relaxed) - made, 0, "{N} registrations allocated");
    });
    sim.spawn("rank1", move |p| {
        m1.recv(p, Some(0), 7);
        m1.barrier(p, &comm1);
    });
    sim.run().expect("both ranks finish");
}
