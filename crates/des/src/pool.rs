//! The pooled coroutine executor: simulated processes as resumable tasks
//! hosted by whichever thread dispatches them.
//!
//! Each simulated process owns a [`TaskCell`] — the task-handoff cell the
//! scheduler resumes through the [`Gate`] contract — plus a lazily
//! allocated coroutine stack. `resume` switches onto that stack *on the
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
//! unwind (see [`task_entry`]), so the hosting thread — now the caller of
//! `Sim::run` itself — never carries it past the slice that set it.
//!
//! Memory-safety protocol for the `UnsafeCell` fields: `stack`,
//! `task_sp`, `host_sp`, `body` and `outcome` are only touched (a) by the
//! thread that holds the `RUNNING` claim on `st` — which includes the
//! coroutine itself, since it runs *on* that thread — or (b) by
//! `Executor::spawn` before the cell is shared. The claim is taken with an
//! acquire read-modify-write and given up with a release store, which is
//! the whole cross-thread hand-over: a second thread driving the same
//! `Sim` that claims a cell observes everything the previous host wrote
//! before it published `PARKED`.

use crate::coro::{init_stack, switch_stacks, Stack};
use crate::exec::{
    outcome_from, ExecKind, ExecStats, Executor, Gate, ResumeError, SpawnedTask, TaskBody,
};
use crate::process::clear_kill_unwind_flag;
use std::cell::UnsafeCell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

// Scheduler-visible state of one pooled task (the `st` word).
/// Spawned, body not yet started.
const NEW: u8 = 0;
/// Suspended at a park point; the scheduler may resume it.
const PARKED: u8 = 1;
/// Some thread is executing the current slice.
const RUNNING: u8 = 2;
/// Finished: normally, by kill (a normal end), or by panic.
const DONE: u8 = 3;

/// One pooled task: handoff cell + coroutine context.
pub(crate) struct TaskCell {
    name: Arc<str>,
    killed: Arc<AtomicBool>,
    stats: Arc<ExecStats>,
    stack_bytes: usize,
    st: AtomicU8,
    // Slice-local fields; see the module-level safety protocol.
    stack: UnsafeCell<Option<Stack>>,
    task_sp: UnsafeCell<usize>,
    host_sp: UnsafeCell<usize>,
    body: UnsafeCell<Option<TaskBody>>,
    /// How the task ended; written by the coroutine just before its final
    /// switch out, absent while it is merely parked.
    outcome: UnsafeCell<Option<Result<(), String>>>,
}

// SAFETY: the `UnsafeCell` fields are confined to the thread holding the
// `RUNNING` claim, with cross-slice ordering through the acquire/release
// pair on `st` (see the module docs); `body` is `Send`, `stack` is owned
// memory, and everything else is Sync on its own.
unsafe impl Send for TaskCell {}
unsafe impl Sync for TaskCell {}

impl Gate for TaskCell {
    fn resume(&self) -> Result<(), ResumeError> {
        let claim = self.st.fetch_update(Ordering::Acquire, Ordering::Acquire, |s| {
            matches!(s, NEW | PARKED).then_some(RUNNING)
        });
        match claim {
            Ok(_) => self.run_slice(),
            Err(DONE) => Ok(()),
            Err(_) => Err(ResumeError::DoubleResume),
        }
    }

    fn park(&self) {
        // SAFETY: called from the coroutine, i.e. on the thread currently
        // hosting the slice; `task_sp`/`host_sp` are valid, and the host
        // side of the switch re-checks the stack canary.
        unsafe { switch_stacks(self.task_sp.get(), self.host_sp.get()) };
    }

    fn is_done(&self) -> bool {
        self.st.load(Ordering::Acquire) == DONE
    }
}

impl TaskCell {
    /// Host side: execute one slice (first entry, resumption, or the
    /// kill-before-start shortcut) on the calling thread, which holds the
    /// `RUNNING` claim, and publish the resulting state.
    fn run_slice(&self) -> Result<(), ResumeError> {
        // SAFETY for all blocks below: the claim makes this thread the
        // sole owner of the slice-local fields until it stores a new `st`.
        let started = unsafe { (*self.stack.get()).is_some() };
        if !started {
            if self.killed.load(Ordering::Relaxed) {
                // Killed before ever running (a failure injection, or
                // `Sim::shutdown` of a never-started task): terminate in
                // place without a stack or invoking the body. Dropping it
                // also breaks the body→Proc→gate Arc cycle.
                unsafe { *self.body.get() = None };
                return self.finish(Ok(()));
            }
            let stack = Stack::new(self.stack_bytes);
            // SAFETY: the stack lives in the cell until the task is
            // terminal, and the cell (behind the process table's Arc)
            // outlives the coroutine.
            let sp = unsafe { init_stack(&stack, std::ptr::from_ref(self).cast()) };
            unsafe {
                *self.stack.get() = Some(stack);
                *self.task_sp.get() = sp;
            }
        }
        // SAFETY: `task_sp` is a context forged by `init_stack` or saved by
        // a previous `park`, on a stack no thread is currently running on.
        unsafe { switch_stacks(self.host_sp.get(), self.task_sp.get()) };
        let canary_ok = unsafe { (*self.stack.get()).as_ref().is_none_or(Stack::canary_ok) };
        if !canary_ok {
            eprintln!(
                "fatal: simulated process '{}' overflowed its {} KiB coroutine stack; \
                 raise GBCR_STACK_KB",
                self.name,
                self.stack_bytes / 1024
            );
            std::process::abort();
        }
        match unsafe { (*self.outcome.get()).take() } {
            None => {
                self.st.store(PARKED, Ordering::Release);
                Ok(())
            }
            Some(outcome) => self.finish(outcome),
        }
    }

    /// Publish a terminal state. The coroutine stack is freed first —
    /// nothing will ever switch into it again.
    fn finish(&self, outcome: Result<(), String>) -> Result<(), ResumeError> {
        // SAFETY: still under the claim; the coroutine (if it ever ran)
        // has switched out for good — its entry function never returns to
        // this stack after writing `outcome` — so the stack is dead.
        unsafe { *self.stack.get() = None };
        self.stats.task_done();
        self.st.store(DONE, Ordering::Release);
        outcome.map_err(ResumeError::Panicked)
    }
}

/// Coroutine entry point, reached through the architecture trampoline on
/// the task's own stack. Runs the body under `catch_unwind` (so no unwind
/// ever crosses the forged trampoline frame), resets the kill-unwind TLS
/// flag of the *hosting thread* before it dispatches anything else, and
/// switches out for good. Every local with a destructor is scoped to drop
/// before that final switch — the abandoned stack holds only dead bytes.
pub(crate) extern "C" fn task_entry(cell: *const ()) -> ! {
    let cell = cell.cast::<TaskCell>();
    let (task_sp, host_sp) = {
        // SAFETY: the cell is kept alive by the `Arc` in the scheduler's
        // process table for at least as long as the task can run.
        let c = unsafe { &*cell };
        let body = unsafe { (*c.body.get()).take() }.expect("pooled task body present");
        let result = std::panic::catch_unwind(AssertUnwindSafe(body));
        // The hosting thread goes on to run other tasks and, eventually,
        // the caller's own code: a kill-unwind's quiet flag left set would
        // swallow the output of the next real panic there.
        clear_kill_unwind_flag();
        // SAFETY: slice-local field, and this coroutine *is* the slice.
        unsafe { *c.outcome.get() = Some(outcome_from(result)) };
        (c.task_sp.get(), c.host_sp.get().cast_const())
    };
    // SAFETY: hands control back to the hosting thread's saved context;
    // the save slot is never read again (the stack is freed by `finish`).
    unsafe { switch_stacks(task_sp, host_sp) };
    unreachable!("finished coroutine resumed")
}

/// The pooled executor: builds [`TaskCell`]s; owns no threads.
pub(crate) struct PooledExecutor {
    pub(crate) stack_bytes: usize,
}

impl Executor for PooledExecutor {
    fn spawn(
        &self,
        name: Arc<str>,
        killed: Arc<AtomicBool>,
        stats: Arc<ExecStats>,
        make_body: Box<dyn FnOnce(Arc<dyn Gate>) -> TaskBody + '_>,
    ) -> SpawnedTask {
        let cell = Arc::new(TaskCell {
            name,
            killed,
            stats,
            stack_bytes: self.stack_bytes,
            st: AtomicU8::new(NEW),
            stack: UnsafeCell::new(None),
            task_sp: UnsafeCell::new(0),
            host_sp: UnsafeCell::new(0),
            body: UnsafeCell::new(None),
            outcome: UnsafeCell::new(None),
        });
        let body = make_body(cell.clone());
        // SAFETY: the cell is not yet shared with any scheduler.
        unsafe { *cell.body.get() = Some(body) };
        SpawnedTask { gate: cell, join: None }
    }

    fn kind(&self) -> ExecKind {
        ExecKind::Pooled
    }

    fn exec_threads(&self, _stats: &ExecStats) -> u64 {
        // Slices run on the thread driving the scheduler.
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cell whose body sets `ran` when invoked and `dropped` when its
    /// captured state is destroyed.
    struct Probe {
        cell: Arc<TaskCell>,
        killed: Arc<AtomicBool>,
        ran: Arc<AtomicBool>,
        dropped: Arc<AtomicBool>,
    }

    struct DropFlag(Arc<AtomicBool>);
    impl Drop for DropFlag {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    fn probe() -> Probe {
        let ex = PooledExecutor { stack_bytes: 64 * 1024 };
        let stats = Arc::new(ExecStats::default());
        stats.task_spawned();
        let killed = Arc::new(AtomicBool::new(false));
        let ran = Arc::new(AtomicBool::new(false));
        let dropped = Arc::new(AtomicBool::new(false));
        let (ran2, flag) = (ran.clone(), DropFlag(dropped.clone()));
        let task = ex.spawn(
            "t".into(),
            killed.clone(),
            stats,
            Box::new(move |gate| {
                Box::new(move || {
                    let _keep = &flag;
                    ran2.store(true, Ordering::Relaxed);
                    gate.park();
                })
            }),
        );
        // The concrete cell type is ours; recover it from the spawn path.
        // SAFETY: PooledExecutor::spawn only ever builds TaskCells.
        let cell = unsafe { Arc::from_raw(Arc::into_raw(task.gate).cast::<TaskCell>()) };
        Probe { cell, killed, ran, dropped }
    }

    /// Resuming a running cell is a scheduler bug; it must surface as the
    /// typed error (not `unreachable!`, not a hang).
    #[test]
    fn task_cell_double_resume_is_typed_error() {
        let p = probe();
        p.cell.st.store(RUNNING, Ordering::Relaxed);
        assert!(matches!(p.cell.resume(), Err(ResumeError::DoubleResume)));
        assert_eq!(p.cell.st.load(Ordering::Relaxed), RUNNING, "failed claim altered the state");
        // Terminal states keep absorbing stale resumes.
        p.cell.st.store(DONE, Ordering::Relaxed);
        assert!(p.cell.resume().is_ok());
        assert!(!p.ran.load(Ordering::Relaxed));
    }

    /// A slice runs on the calling thread: `resume` returns at the park
    /// point with the coroutine's state intact, and the slice that
    /// finishes the body frees the stack.
    #[test]
    fn task_cell_slices_run_inline_until_park_then_finish() {
        let p = probe();
        assert!(p.cell.resume().is_ok());
        assert!(p.ran.load(Ordering::Relaxed), "first slice did not run the body inline");
        assert_eq!(p.cell.st.load(Ordering::Relaxed), PARKED);
        assert!(!p.dropped.load(Ordering::Relaxed), "parked body lost its state");
        assert!(p.cell.resume().is_ok());
        assert!(p.cell.is_done());
        assert!(p.dropped.load(Ordering::Relaxed), "finished body not dropped");
        // SAFETY: no slice is running; the test thread is the only user.
        assert!(unsafe { (*p.cell.stack.get()).is_none() }, "terminal cell kept its stack");
    }

    /// A kill-flagged task that never started is terminated in place —
    /// no stack, body dropped unrun — which is what `Sim::shutdown` relies
    /// on for processes spawned after the last run.
    #[test]
    fn task_cell_killed_before_start_ends_in_place() {
        let p = probe();
        assert!(!p.cell.is_done());
        p.killed.store(true, Ordering::Relaxed);
        assert!(p.cell.resume().is_ok());
        assert!(p.cell.is_done());
        assert!(!p.ran.load(Ordering::Relaxed), "killed-before-start body ran");
        assert!(p.dropped.load(Ordering::Relaxed), "body not dropped");
        // Idempotent.
        assert!(p.cell.resume().is_ok());
        assert!(p.cell.is_done());
    }
}
