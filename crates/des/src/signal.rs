//! Simulation condition variables.

use crate::engine::SimHandle;
use crate::process::{Proc, ProcId};
use std::cell::RefCell;
use std::rc::Rc;

/// A condition-variable-like wait point for simulated processes.
///
/// `Signal::wait` registers the calling process and parks it;
/// `Signal::notify_all` wakes every registered waiter at the current virtual
/// time. Like a real condvar, **waits can return spuriously** (a stale wake
/// from an earlier sleep, or a notify racing with re-registration), so
/// callers must always wrap waits in a predicate loop:
///
/// ```ignore
/// while !predicate() {
///     signal.wait(p);
/// }
/// ```
#[derive(Clone)]
pub struct Signal {
    name: Rc<str>,
    waiters: Rc<RefCell<Vec<ProcId>>>,
}

impl Signal {
    pub(crate) fn new(name: String) -> Self {
        Signal { name: name.into(), waiters: Rc::default() }
    }

    /// The name given at creation (for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Park the calling process until some notifier wakes it. May return
    /// spuriously; re-check your predicate.
    pub fn wait(&self, p: &Proc) {
        self.waiters.borrow_mut().push(p.id());
        p.park();
        // Drop our registration if it is still there (spurious wake): a
        // later notify must not wake us for a wait we already abandoned.
        self.waiters.borrow_mut().retain(|&w| w != p.id());
    }

    /// Wake all currently registered waiters at the present virtual time.
    /// Callable from processes and from scheduler callbacks alike.
    pub fn notify_all(&self, ctx: impl AsSimHandle) {
        let h = ctx.as_sim_handle();
        let drained: Vec<ProcId> = std::mem::take(&mut *self.waiters.borrow_mut());
        for pid in drained {
            h.wake(pid);
        }
    }
}

impl std::fmt::Debug for Signal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Signal")
            .field("name", &self.name)
            .field("waiters", &self.waiters.borrow().len())
            .finish()
    }
}

/// Anything that can produce a [`SimHandle`]: a `&Proc` inside a simulated
/// process or a `&SimHandle` inside a scheduler callback.
pub trait AsSimHandle {
    /// Borrow the underlying simulation handle.
    fn as_sim_handle(&self) -> &SimHandle;
}

impl AsSimHandle for &Proc {
    fn as_sim_handle(&self) -> &SimHandle {
        self.handle()
    }
}

impl AsSimHandle for &SimHandle {
    fn as_sim_handle(&self) -> &SimHandle {
        self
    }
}
