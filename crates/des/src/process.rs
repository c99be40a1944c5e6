//! Simulated processes and their blocking context handle.
//!
//! Every simulated process is a coroutine in a [`TaskCell`] — the
//! scheduler↔process handoff that guarantees at most one simulated
//! process runs at any instant: the scheduler resumes a process and gets
//! control back only when the process either *parks* (yields) or
//! finishes. All simulation state is therefore plain `RefCell` state; the
//! one rule is that code never parks while holding a borrow — the next
//! process to touch the cell would panic (an invariant all crates in this
//! workspace follow).

use crate::engine::SimHandle;
use crate::pool::TaskCell;
use crate::time::Time;
use std::rc::Rc;

/// Identifier of a simulated process, dense from zero in spawn order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub(crate) u32);

impl ProcId {
    /// The dense index of this process (spawn order).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Marker payload used to unwind a killed process out of its user closure.
/// Treated as a normal termination, not a panic.
pub(crate) struct KillSignal;

/// The context handle passed to every simulated process closure.
///
/// All blocking primitives (`sleep`, `park`, an endpoint's `recv`) are
/// methods here or take a `&Proc`, which statically prevents code running on
/// the scheduler (timer callbacks) from blocking.
pub struct Proc {
    pub(crate) handle: SimHandle,
    pub(crate) id: ProcId,
    pub(crate) cell: Rc<TaskCell>,
}

impl Proc {
    /// This process's id.
    #[inline]
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// This process's name (as given to `spawn`).
    #[inline]
    pub fn name(&self) -> &str {
        &self.cell.name
    }

    /// The current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.handle.now()
    }

    /// A cloneable handle to the simulation usable from anywhere (including
    /// timer callbacks); it can schedule and wake but never block.
    #[inline]
    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }

    /// Yield without a scheduled wake-up: some other process or timer must
    /// call [`SimHandle::wake`] for this process, or the
    /// simulation will report a deadlock.
    ///
    /// May return spuriously (e.g. a stale wake from an earlier sleep), so
    /// callers must re-check their predicate in a loop.
    pub fn park(&self) {
        self.cell.park();
        self.check_killed();
    }

    /// Advance this process's local activity by `dt` of virtual time.
    ///
    /// Robust to spurious wakes: re-parks until the deadline has truly been
    /// reached.
    pub fn sleep(&self, dt: Time) {
        let deadline = self.now().saturating_add(dt);
        self.handle.schedule_wake(deadline, self.id);
        loop {
            self.cell.park();
            self.check_killed();
            if self.now() >= deadline {
                return;
            }
        }
    }

    /// True once [`SimHandle::kill`] has been called on this process. User
    /// code rarely needs this; the kill unwind happens automatically at the
    /// next yield point.
    pub fn is_killed(&self) -> bool {
        self.cell.killed.get()
    }

    fn check_killed(&self) {
        if self.is_killed() {
            install_quiet_kill_hook();
            KILL_UNWINDING.with(|f| f.set(true));
            std::panic::panic_any(KillSignal);
        }
    }
}

thread_local! {
    static KILL_UNWINDING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Reset this OS thread's kill-unwind flag. The task entry calls this when
/// a task's unwind has been caught: the hosting thread goes on to run
/// other tasks and the caller's own code, and a stale flag would silently
/// swallow the next real panic's output.
pub(crate) fn clear_kill_unwind_flag() {
    KILL_UNWINDING.with(|f| f.set(false));
}

/// Whether this OS thread currently carries the kill-unwind flag.
/// Test-only introspection for `tests/executors.rs`.
#[doc(hidden)]
pub fn kill_unwind_flag_set() -> bool {
    KILL_UNWINDING.with(|f| f.get())
}

/// Kill unwinds are implemented with `panic_any(KillSignal)`; without this
/// hook every kill would print a spurious "thread panicked" line. The hook
/// installs once per program and suppresses output only for threads that are
/// mid-kill, delegating everything else to the previous hook.
fn install_quiet_kill_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if KILL_UNWINDING.with(|f| f.get()) {
                return;
            }
            prev(info);
        }));
    });
}

impl std::fmt::Debug for Proc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Proc").field("id", &self.id).field("name", &self.cell.name).finish()
    }
}
