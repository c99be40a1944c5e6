//! The coroutine executor: simulated processes as resumable tasks hosted
//! by whichever thread dispatches them.
//!
//! Each simulated process owns a [`TaskCell`] — the handoff cell the
//! scheduler resumes and the process parks through — plus a coroutine
//! stack, taken from the thread's spare stacks at its first slice. `resume` switches onto that stack *on the
//! calling thread* (the event loop or `Sim::shutdown`) and returns when
//! the process parks or finishes: a rank switch is a register swap inside
//! one OS thread, never a trip through the kernel. No thread is ever
//! created here, so the one-runnable-process-at-a-time invariant is
//! structural — the dispatching thread *is* the process until the slice
//! ends.
//!
//! Determinism is untouched: a slice executes its closed-over state and
//! nothing thread-identifying; virtual time, RNG draws and event order
//! all come from the scheduler. The one thread-keyed piece of state, the
//! kill-unwind TLS flag, is reset at the end of every slice-terminating
//! unwind (see [`task_entry`]), so the hosting thread — the caller of
//! `Sim::run` itself — never carries it past the slice that set it.
//!
//! A stack's lowest page is a `PROT_NONE` guard (see [`crate::coro`]): a
//! process that runs off its stack dies by SIGSEGV in that page, and the
//! fix is a larger [`STACK_BYTES`].
//!
//! A cell is neither `Send` nor `Sync` — it belongs, like the rest of its
//! simulation, to the one thread that drives it — so its slice-local
//! fields are plain `Cell`s. The coroutine and its host are the same
//! thread taking turns, and `st` says whose turn it is.

use crate::coro::{init_stack, prefetch, switch_stacks, Stack};
use crate::exec::ExecStats;
use crate::process::{clear_kill_unwind_flag, KillSignal};
use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;

/// Every coroutine's stack: 1 MiB of address space, committed lazily, so
/// the size costs virtual memory, not resident memory (a reused stack keeps
/// the pages its earlier tasks touched: [`crate::coro`]). Its lowest page is
/// the guard ([`Stack`]): a simulated process that dies by SIGSEGV with
/// the faulting address in the lowest page of a coroutine mapping has
/// overflowed its stack, and the fix is to raise this constant.
pub(crate) const STACK_BYTES: usize = 1024 * 1024;

// Scheduler-visible state of one task (the `st` word).
/// Spawned, body not yet started.
const NEW: u8 = 0;
/// Suspended at a park point; the scheduler may resume it.
const PARKED: u8 = 1;
/// The current slice is executing.
const RUNNING: u8 = 2;
/// Finished: normally, by kill (a normal end), or by panic.
const DONE: u8 = 3;

/// A process name, kept in its cell: one that fits — every name this
/// workspace gives, `rank10239` and `cr-coordinator` among them — is no
/// allocation of its own.
pub(crate) enum Name {
    Inline(u8, [u8; INLINE_NAME]),
    Heap(Box<str>),
}

/// The longest name a [`Name`] holds in place: what fits beside its length
/// and tag in the three words the `Heap` form needs anyway.
const INLINE_NAME: usize = 22;

impl Name {
    pub(crate) fn new(name: String) -> Name {
        let mut bytes = [0; INLINE_NAME];
        match bytes.get_mut(..name.len()) {
            Some(head) => {
                head.copy_from_slice(name.as_bytes());
                Name::Inline(name.len() as u8, bytes)
            }
            None => Name::Heap(name.into_boxed_str()),
        }
    }
}

impl std::ops::Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        match self {
            Name::Inline(len, bytes) => {
                std::str::from_utf8(&bytes[..usize::from(*len)]).expect("copied from a str")
            }
            Name::Heap(name) => name,
        }
    }
}

/// Why a [`TaskCell::resume`] did not return normally.
#[derive(Debug)]
pub(crate) enum ResumeError {
    /// The process's slice ended in a (non-kill) panic, rendered to a
    /// string.
    Panicked(String),
    /// The process was already running when resumed again — a scheduler
    /// bug, reported per-cell instead of aborting the process.
    DoubleResume,
    /// The process's first slice could not map or guard its stack; the
    /// body never ran.
    StackMap(std::io::Error),
}

/// How soon the scheduler expects to resume a cell it is hinting about
/// (see [`TaskCell::prefetch`]).
#[derive(Clone, Copy)]
pub(crate) enum Prefetch {
    /// A few events from now: fetch what the near stage will read.
    Far,
    /// Next: fetch what `resume` and the resumed slice touch first.
    Near,
}

/// One simulated process: handoff cell + coroutine context. `resume` hands
/// control to the process and returns once it parks or finishes; `park` is
/// the process side handing control back. Exactly one simulated process
/// runs at any instant because the scheduler only ever resumes one cell at
/// a time and stays inside `resume` until the slice is over.
pub(crate) struct TaskCell {
    /// The name given to `spawn`.
    pub(crate) name: Name,
    /// Set by `SimHandle::kill`: the process unwinds at its next yield.
    pub(crate) killed: Cell<bool>,
    stats: Rc<ExecStats>,
    st: Cell<u8>,
    /// Present from the first slice until the task is terminal.
    stack: Cell<Option<Stack>>,
    task_sp: Cell<usize>,
    host_sp: Cell<usize>,
    body: Cell<Option<Box<dyn FnOnce()>>>,
    /// How the task ended; written by the coroutine just before its final
    /// switch out, absent while it is merely parked.
    outcome: Cell<Option<Result<(), String>>>,
}

impl TaskCell {
    /// A live task with no body yet: [`bind`](TaskCell::bind) gives it the
    /// one that parks through it.
    pub(crate) fn new(name: Name, stats: Rc<ExecStats>) -> Rc<TaskCell> {
        stats.task_spawned();
        Rc::new(TaskCell {
            name,
            killed: Cell::new(false),
            stats,
            st: Cell::new(NEW),
            stack: Cell::new(None),
            task_sp: Cell::new(0),
            host_sp: Cell::new(0),
            body: Cell::new(None),
            outcome: Cell::new(None),
        })
    }

    /// The task's body: the user closure with its `Proc` — which holds this
    /// cell — already bound. The cycle ends when the body is dropped: run
    /// to its end, or unrun after a kill before start.
    pub(crate) fn bind(&self, body: impl FnOnce() + 'static) {
        self.body.set(Some(Box::new(body)));
    }

    /// Scheduler side: run one slice of this process on the calling thread.
    /// `Ok` on park or normal finish (stale wakes on finished processes are
    /// no-ops). `Sim::shutdown` drives kill-flagged processes to their end
    /// through this same call.
    pub(crate) fn resume(&self) -> Result<(), ResumeError> {
        match self.st.get() {
            prev @ (NEW | PARKED) => {
                self.st.set(RUNNING);
                self.run_slice(prev == NEW)
            }
            DONE => Ok(()),
            _ => Err(ResumeError::DoubleResume),
        }
    }

    /// Process side: yield back to the scheduler; returns when resumed.
    pub(crate) fn park(&self) {
        // SAFETY: called from the coroutine, which its host entered through
        // `run_slice`: `host_sp` holds the host's saved context.
        unsafe { switch_stacks(self.task_sp.as_ptr(), self.host_sp.as_ptr()) };
    }

    /// Whether the process has terminated (normally, by panic, or by kill).
    pub(crate) fn is_done(&self) -> bool {
        self.st.get() == DONE
    }

    /// Scheduler side: this cell's `resume` is a few queue entries away — a
    /// pure cache hint. With ranks in lock-step the scheduler resumes a
    /// thousand cells round robin, and each resume starts with first
    /// touches of cold memory: the cell (`killed`, which `Proc::park`
    /// reads, included), then the stack top `switch_stacks` pops. Each
    /// stage reads only what the one before it asked for.
    pub(crate) fn prefetch(&self, stage: Prefetch) {
        const LINE: usize = 64;
        match stage {
            Prefetch::Far => {
                // The cell is not line-aligned: ask for its last byte too.
                let cell = std::ptr::from_ref(self).cast::<u8>();
                let size = std::mem::size_of::<TaskCell>();
                for off in (0..size).step_by(LINE).chain([size - 1]) {
                    prefetch(cell.wrapping_add(off));
                }
            }
            Prefetch::Near => {
                let sp = self.task_sp.get() as *const u8;
                for line in 0..4 {
                    prefetch(sp.wrapping_add(line * LINE));
                }
            }
        }
    }

    /// Host side: execute one slice (first entry, resumption, or the
    /// kill-before-start shortcut) on the calling thread and record the
    /// resulting state.
    fn run_slice(&self, first: bool) -> Result<(), ResumeError> {
        if first {
            if self.killed.get() {
                // Killed before ever running (a failure injection, or
                // `Sim::shutdown` of a never-started task): terminate in
                // place without a stack or invoking the body. Dropping it
                // also breaks the body→Proc→cell Rc cycle.
                self.body.set(None);
                return self.finish(Ok(()));
            }
            let stack = match Stack::new() {
                Ok(stack) => stack,
                Err(e) => {
                    // Nothing ran: end the task as if killed before start.
                    self.body.set(None);
                    return self.finish(Err(ResumeError::StackMap(e)));
                }
            };
            // SAFETY: the stack lives in the cell until the task is
            // terminal, and the cell (behind the process table's Rc)
            // outlives the coroutine.
            self.task_sp.set(unsafe { init_stack(&stack, std::ptr::from_ref(self).cast()) });
            self.stack.set(Some(stack));
        }
        // SAFETY: `task_sp` is a context forged by `init_stack` or saved by
        // a previous `park`, on a stack nothing is currently running on.
        unsafe { switch_stacks(self.host_sp.as_ptr(), self.task_sp.as_ptr()) };
        match self.outcome.take() {
            None => {
                self.st.set(PARKED);
                Ok(())
            }
            Some(outcome) => self.finish(outcome.map_err(ResumeError::Panicked)),
        }
    }

    /// Record a terminal state. The coroutine stack goes back to the
    /// thread's spare stacks first: the coroutine (if it ever ran) has
    /// switched out for good — its entry function never returns to this
    /// stack after writing `outcome`.
    fn finish(&self, outcome: Result<(), ResumeError>) -> Result<(), ResumeError> {
        self.stack.set(None);
        self.stats.task_done();
        self.st.set(DONE);
        outcome
    }
}

/// Map a `catch_unwind` result to a task outcome: kill unwinds are normal
/// terminations, anything else is a real panic, its payload rendered.
fn outcome_from(result: Result<(), Box<dyn std::any::Any + Send>>) -> Result<(), String> {
    let Err(payload) = result else { return Ok(()) };
    if payload.is::<KillSignal>() {
        Ok(())
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        Err((*s).to_owned())
    } else if let Some(s) = payload.downcast_ref::<String>() {
        Err(s.clone())
    } else {
        Err("<non-string panic payload>".to_owned())
    }
}

/// Coroutine entry point, reached through the trampoline on the task's own
/// stack. Runs the body under `catch_unwind` (so no unwind ever crosses
/// the forged trampoline frame), resets the kill-unwind TLS flag of the
/// *hosting thread* before it dispatches anything else, and switches out
/// for good. Every local with a destructor is scoped to drop before that
/// final switch — the abandoned stack holds only dead bytes.
pub(crate) extern "C" fn task_entry(cell: *const ()) -> ! {
    let cell = cell.cast::<TaskCell>();
    let (task_sp, host_sp) = {
        // SAFETY: the cell is kept alive by the `Rc` in the scheduler's
        // process table for at least as long as the task can run.
        let c = unsafe { &*cell };
        let body = c.body.take().expect("task body present");
        let result = std::panic::catch_unwind(AssertUnwindSafe(body));
        // The hosting thread goes on to run other tasks and, eventually,
        // the caller's own code: a kill-unwind's quiet flag left set would
        // swallow the output of the next real panic there.
        clear_kill_unwind_flag();
        c.outcome.set(Some(outcome_from(result)));
        (c.task_sp.as_ptr(), c.host_sp.as_ptr().cast_const())
    };
    // SAFETY: hands control back to the hosting thread's saved context;
    // the save slot is never read again (`finish` hands the stack on).
    unsafe { switch_stacks(task_sp, host_sp) };
    unreachable!("finished coroutine resumed")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cell whose body sets `ran` when invoked and `dropped` when its
    /// captured state is destroyed.
    struct Probe {
        cell: Rc<TaskCell>,
        ran: Rc<Cell<bool>>,
        dropped: Rc<Cell<bool>>,
    }

    struct DropFlag(Rc<Cell<bool>>);
    impl Drop for DropFlag {
        fn drop(&mut self) {
            self.0.set(true);
        }
    }

    fn probe() -> Probe {
        let cell = TaskCell::new(Name::new("t".into()), Rc::default());
        let (ran, dropped) = (Rc::new(Cell::new(false)), Rc::new(Cell::new(false)));
        let (ran2, flag, park) = (ran.clone(), DropFlag(dropped.clone()), cell.clone());
        cell.bind(move || {
            let _keep = &flag;
            ran2.set(true);
            park.park();
        });
        Probe { cell, ran, dropped }
    }

    /// A name that fits is kept in place; a longer one is kept whole.
    #[test]
    fn names_read_back_as_given() {
        let fits = "cl-writer-4294967295"; // the longest name a u32 rank gives
        assert!(matches!(Name::new(fits.into()), Name::Inline(..)));
        let long = "x".repeat(INLINE_NAME + 1);
        assert!(matches!(Name::new(long.clone()), Name::Heap(_)));
        for name in ["", "rank0", "cr-coordinator", "ränk", fits, &long] {
            assert_eq!(&*Name::new(name.into()), name);
        }
    }

    /// Resuming a running cell is a scheduler bug; it must surface as the
    /// typed error (not `unreachable!`, not a hang).
    #[test]
    fn task_cell_double_resume_is_typed_error() {
        let p = probe();
        p.cell.st.set(RUNNING);
        assert!(matches!(p.cell.resume(), Err(ResumeError::DoubleResume)));
        assert_eq!(p.cell.st.get(), RUNNING, "failed claim altered the state");
        // Terminal states keep absorbing stale resumes.
        p.cell.st.set(DONE);
        assert!(p.cell.resume().is_ok());
        assert!(!p.ran.get());
    }

    /// A slice runs on the calling thread: `resume` returns at the park
    /// point with the coroutine's state intact, and the slice that
    /// finishes the body gives the stack back.
    #[test]
    fn task_cell_slices_run_inline_until_park_then_finish() {
        let p = probe();
        assert!(p.cell.resume().is_ok());
        assert!(p.ran.get(), "first slice did not run the body inline");
        assert_eq!(p.cell.st.get(), PARKED);
        assert!(!p.dropped.get(), "parked body lost its state");
        assert!(p.cell.resume().is_ok());
        assert!(p.cell.is_done());
        assert!(p.dropped.get(), "finished body not dropped");
        assert!(p.cell.stack.take().is_none(), "terminal cell kept its stack");
    }

    /// A kill-flagged task that never started is terminated in place —
    /// no stack, body dropped unrun — which is what `Sim::shutdown` relies
    /// on for processes spawned after the last run.
    #[test]
    fn task_cell_killed_before_start_ends_in_place() {
        let p = probe();
        assert!(!p.cell.is_done());
        p.cell.killed.set(true);
        assert!(p.cell.resume().is_ok());
        assert!(p.cell.is_done());
        assert!(!p.ran.get(), "killed-before-start body ran");
        assert!(p.dropped.get(), "body not dropped");
        // Idempotent.
        assert!(p.cell.resume().is_ok());
        assert!(p.cell.is_done());
    }
}
