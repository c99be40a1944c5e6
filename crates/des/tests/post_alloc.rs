//! A post allocates nothing: `SimHandle::post_at` queues a key on a shared
//! target, so the only allocations N posts cost are the event queue's own
//! amortised growth, and dispatching them costs none. Counted by this test
//! binary's allocator; the binary holds this one test, so nothing else
//! allocates while it runs.

use gbcr_des::{Land, Sim, SimHandle};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
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

/// Sums the keys that land.
#[derive(Default)]
struct Sum(Cell<u64>);

impl Land for Sum {
    fn land(self: Rc<Self>, _: &SimHandle, key: u32) {
        self.0.set(self.0.get() + u64::from(key));
    }
}

#[test]
fn posts_allocate_nothing_beyond_the_queues_amortised_growth() {
    const N: u32 = 100_000;
    let mut sim = Sim::new(0);
    let (h, sum) = (sim.handle(), Rc::new(Sum::default()));
    let made = MADE.load(Relaxed);
    // One post an instant: every push closes a run into the heap, whose
    // buffer doubles — about log2(N) times.
    for key in 0..N {
        h.post_at(u64::from(key), u64::from(key), key, sum.clone());
    }
    let pushed = MADE.load(Relaxed) - made;
    assert!(pushed <= 2 * N.ilog2() as usize, "{N} posts made {pushed} allocations");
    let made = MADE.load(Relaxed);
    sim.run().unwrap();
    assert_eq!(MADE.load(Relaxed) - made, 0, "dispatching {N} posts allocated");
    assert_eq!(sum.0.get(), u64::from(N) * u64::from(N - 1) / 2);
}
