//! Cancelable timer handles for scheduler callbacks, backed by a slab of
//! generation-checked slots.
//!
//! Arming a timer takes one slot from a free list inside the shared
//! [`TimerTable`] — no per-timer flag or extra allocation
//! once the slab has warmed up. The queued event records `(slot, gen)`;
//! when it pops, the callback fires only if the slot's generation still
//! matches. Cancelling (or firing) bumps the generation and returns the
//! slot to the free list immediately, so a later timer may reuse the slot
//! while the stale event is still queued — the generation check makes
//! that reuse safe: the stale event can never fire the new timer's
//! callback.

use std::cell::RefCell;
use std::rc::Rc;

/// One slab slot. A timer armed on this slot is live exactly while its
/// recorded generation equals the slot's current generation.
#[derive(Default)]
struct Slot {
    gen: u64,
}

#[derive(Default)]
struct Slab {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

/// The per-simulation table of armed timers. Shared (behind `Rc`) by the
/// engine and every [`TimerHandle`]; deliberately *not* part of the
/// engine's `Inner` so handles captured inside queued callbacks can never
/// form a reference cycle with the event queue.
#[derive(Default)]
pub(crate) struct TimerTable {
    slab: RefCell<Slab>,
}

impl TimerTable {
    pub(crate) fn new() -> Rc<Self> {
        Rc::default()
    }

    /// Reserve a slot for a new timer; returns its `(slot, gen)` identity.
    pub(crate) fn arm(&self) -> (u32, u64) {
        let mut slab = self.slab.borrow_mut();
        match slab.free.pop() {
            Some(slot) => (slot, slab.slots[slot as usize].gen),
            None => {
                let slot = u32::try_from(slab.slots.len()).expect("too many live timers");
                slab.slots.push(Slot::default());
                (slot, 0)
            }
        }
    }

    /// Retire `(slot, gen)` if it is still live, making its slot reusable.
    /// Returns whether the caller won the retirement — used both by cancel
    /// (winner suppresses the callback) and by the engine when the event
    /// pops (winner runs the callback).
    pub(crate) fn retire(&self, slot: u32, gen: u64) -> bool {
        let mut slab = self.slab.borrow_mut();
        let s = &mut slab.slots[slot as usize];
        if s.gen == gen {
            s.gen += 1;
            slab.free.push(slot);
            true
        } else {
            false
        }
    }

    fn is_live(&self, slot: u32, gen: u64) -> bool {
        self.slab.borrow().slots[slot as usize].gen == gen
    }
}

/// Handle returned by [`crate::SimHandle::call_at`] /
/// [`crate::SimHandle::call_after`]. Dropping the handle does *not* cancel
/// the callback; call [`TimerHandle::cancel`] explicitly.
///
/// Cancellation is how event-driven models with changing rates (the storage
/// processor-sharing model, rendezvous transfer completions) invalidate
/// stale completion events instead of trying to remove them from the event
/// queue.
#[derive(Clone)]
pub struct TimerHandle {
    table: Rc<TimerTable>,
    slot: u32,
    gen: u64,
}

impl TimerHandle {
    pub(crate) fn new(table: Rc<TimerTable>, slot: u32, gen: u64) -> Self {
        TimerHandle { table, slot, gen }
    }

    /// Prevent the callback from firing. Idempotent; a timer that already
    /// fired is unaffected.
    pub fn cancel(&self) {
        self.table.retire(self.slot, self.gen);
    }

    /// Whether this timer can no longer fire — because [`cancel`] was
    /// called or because it has already fired.
    ///
    /// [`cancel`]: TimerHandle::cancel
    pub fn is_cancelled(&self) -> bool {
        !self.table.is_live(self.slot, self.gen)
    }
}

impl std::fmt::Debug for TimerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerHandle")
            .field("slot", &self.slot)
            .field("gen", &self.gen)
            .field("live", &self.table.is_live(self.slot, self.gen))
            .finish()
    }
}
