//! Executor abstraction: how simulated processes get something to run on.
//!
//! The scheduler does not care whether a simulated process is backed by a
//! dedicated OS thread or by a coroutine; it only needs the [`Gate`]
//! handoff contract (resume a process, return when it parks or
//! finishes). This module defines that contract, the [`Executor`] factory
//! behind [`crate::Sim::spawn`], and the legacy thread-per-process
//! implementation; the pooled coroutine implementation lives in
//! [`crate::pool`].

use crate::process::{clear_kill_unwind_flag, KillSignal};
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// Which execution backend a [`crate::Sim`] uses for its simulated
/// processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecKind {
    /// Resumable tasks (stackful coroutines) hosted by the thread that
    /// dispatches them: no OS thread per rank, no thread handoff per
    /// event. The default wherever the architecture supports it.
    Pooled,
    /// One OS thread per simulated process with a mutex+condvar baton —
    /// the only backend on architectures without a coroutine context
    /// switch, and the reference the executor tests compare `Pooled`
    /// against (per `Sim`, via [`DesConfig::threaded`]).
    Threaded,
}

impl ExecKind {
    /// Stable lower-case name, as emitted in benchmark JSON.
    pub fn name(self) -> &'static str {
        match self {
            ExecKind::Pooled => "pooled",
            ExecKind::Threaded => "threaded",
        }
    }
}

/// Per-[`crate::Sim`] execution configuration; pass to
/// [`crate::Sim::with_config`].
#[derive(Debug, Clone)]
pub struct DesConfig {
    /// The execution backend.
    pub executor: ExecKind,
    /// Coroutine stack size in bytes (pooled mode only). Stacks are
    /// lazily committed, so generous sizes cost virtual address space,
    /// not resident memory. Default 1 MiB, overridable with
    /// `GBCR_STACK_KB`.
    pub stack_bytes: usize,
}

impl DesConfig {
    /// The pooled-coroutine backend (falls back to threaded on
    /// architectures without a context switch).
    pub fn pooled() -> Self {
        DesConfig { executor: executor_default(), ..Self::base() }
    }

    /// The thread-per-process backend.
    pub fn threaded() -> Self {
        DesConfig { executor: ExecKind::Threaded, ..Self::base() }
    }

    fn base() -> Self {
        // Read once per process: a sweep builds thousands of `Sim`s, and a
        // rejected value should be reported once, not once per simulation.
        static STACK_KB: OnceLock<usize> = OnceLock::new();
        let stack_kb = *STACK_KB.get_or_init(|| env_positive("GBCR_STACK_KB", 1024, 1024));
        DesConfig { executor: ExecKind::Threaded, stack_bytes: stack_kb * 1024 }
    }

    pub(crate) fn build_executor(&self) -> Box<dyn Executor> {
        match clamp_supported(self.executor) {
            ExecKind::Pooled => {
                Box::new(crate::pool::PooledExecutor { stack_bytes: self.stack_bytes })
            }
            ExecKind::Threaded => Box::new(ThreadedExecutor),
        }
    }
}

impl Default for DesConfig {
    /// The platform's backend, i.e. [`DesConfig::pooled`].
    fn default() -> Self {
        Self::pooled()
    }
}

/// Environment variable `var` as a positive integer; `default` if unset. A
/// value that is set but unusable is reported on stderr together with the
/// value used instead: `zero` for `0`, `default` for anything unparsable.
fn env_positive(var: &str, default: usize, zero: usize) -> usize {
    let Ok(raw) = std::env::var(var) else { return default };
    parse_positive(&raw, default, zero).unwrap_or_else(|used| {
        eprintln!("{var}={raw:?} is not a positive integer; using {used}");
        used
    })
}

/// `Ok` for a positive integer, else `Err` of the value to use instead.
fn parse_positive(raw: &str, garbage: usize, zero: usize) -> Result<usize, usize> {
    match raw.trim().parse() {
        Ok(0) => Err(zero),
        Ok(n) => Ok(n),
        Err(_) => Err(garbage),
    }
}

fn clamp_supported(kind: ExecKind) -> ExecKind {
    if matches!(kind, ExecKind::Pooled) && !crate::coro::supported() {
        ExecKind::Threaded
    } else {
        kind
    }
}

/// The backend [`DesConfig::default`] resolves to: pooled where the
/// architecture has a coroutine context switch, threaded elsewhere.
pub fn executor_default() -> ExecKind {
    clamp_supported(ExecKind::Pooled)
}

/// The event scheduler. There is one (DESIGN §3.8); this type,
/// [`sched_default`] and [`pool_threads`] exist only because
/// `benchmark/src/child.rs` prints them as host-description fields, and go
/// when a `benchmark` PR drops those fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// The one `(time, seq)` loop of `Sim::run`.
    Serial,
}

impl SchedKind {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        "serial"
    }
}

/// The scheduler every run uses.
pub fn sched_default() -> SchedKind {
    SchedKind::Serial
}

/// OS threads that host a simulation's process slices: the one driving
/// `Sim::run`.
pub fn pool_threads() -> usize {
    1
}

/// Why a [`Gate::resume`] did not return normally.
#[derive(Debug)]
pub(crate) enum ResumeError {
    /// The process's slice ended in a (non-kill) panic, rendered to a
    /// string.
    Panicked(String),
    /// The process was already running when resumed again — a scheduler
    /// bug, reported per-cell instead of aborting the process.
    DoubleResume,
}

/// How soon the scheduler expects to resume a gate it is hinting about
/// (see [`Gate::prefetch`]).
#[derive(Clone, Copy)]
pub(crate) enum Prefetch {
    /// A few events from now: fetch what the near stage will read.
    Far,
    /// Next: fetch what `resume` and the resumed slice touch first.
    Near,
}

/// The scheduler↔process handoff contract. `resume` hands control to the
/// process and returns once it parks or finishes; `park` is the process
/// side handing control back. Exactly one simulated process runs at any
/// instant because the scheduler thread only ever resumes one gate at a
/// time and stays inside `resume` until the slice is over.
pub(crate) trait Gate {
    /// Scheduler side: run one slice of this process. `Ok` on park or
    /// normal finish (stale wakes on finished processes are no-ops).
    /// The pooled backend hosts the slice on the calling thread.
    /// `Sim::shutdown` drives kill-flagged processes to their end
    /// through this same call.
    fn resume(&self) -> Result<(), ResumeError>;
    /// Process side: yield back to the scheduler; returns when resumed.
    fn park(&self);
    /// Scheduler side: this gate's `resume` is a few queue entries away. A
    /// pure cache hint — an implementation may only prefetch, and the
    /// default does nothing.
    fn prefetch(&self, _stage: Prefetch) {}
    /// Whether the process has terminated (normally, by panic, or by
    /// kill).
    fn is_done(&self) -> bool;
}

/// The ready-to-run closure for one simulated process: the user closure
/// with its [`crate::Proc`] context already bound.
pub(crate) type TaskBody = Box<dyn FnOnce() + 'static>;

/// Factory for simulated-process run contexts. `make_body` closes the
/// gate↔process-context cycle: the executor creates the gate first, the
/// caller builds the `Proc` around it and returns the bound body.
pub(crate) trait Executor {
    fn spawn(
        &self,
        name: Arc<str>,
        killed: Rc<Cell<bool>>,
        stats: Arc<ExecStats>,
        make_body: Box<dyn FnOnce(Rc<dyn Gate>) -> TaskBody + '_>,
    ) -> Rc<dyn Gate>;
    fn kind(&self) -> ExecKind;
}

/// Execution counters for one simulation: spawn/teardown cost and
/// process-liveness high-water marks, reported next to the engine's
/// event/elision counters. Atomic, unlike the rest of a simulation's state:
/// a threaded-backend process thread counts itself done after it has given
/// the baton back for the last time.
#[derive(Default)]
pub(crate) struct ExecStats {
    spawned: AtomicU64,
    live: AtomicU64,
    peak_live: AtomicU64,
    spawn_ns: AtomicU64,
    teardown_ns: AtomicU64,
}

impl ExecStats {
    pub(crate) fn task_spawned(&self) {
        self.spawned.fetch_add(1, Ordering::Relaxed);
        let live = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_live.fetch_max(live, Ordering::Relaxed);
    }

    pub(crate) fn task_done(&self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn add_spawn_ns(&self, ns: u64) {
        self.spawn_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn add_teardown_ns(&self, ns: u64) {
        self.teardown_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn spawned(&self) -> u64 {
        self.spawned.load(Ordering::Relaxed)
    }

    pub(crate) fn peak_live(&self) -> u64 {
        self.peak_live.load(Ordering::Relaxed)
    }

    pub(crate) fn spawn_ns(&self) -> u64 {
        self.spawn_ns.load(Ordering::Relaxed)
    }

    pub(crate) fn teardown_ns(&self) -> u64 {
        self.teardown_ns.load(Ordering::Relaxed)
    }
}

pub(crate) fn panic_payload_to_string(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Map a `catch_unwind` result to a task outcome: kill unwinds are normal
/// terminations, anything else is a real panic.
pub(crate) fn outcome_from(
    result: Result<(), Box<dyn std::any::Any + Send>>,
) -> Result<(), String> {
    match result {
        Ok(()) => Ok(()),
        Err(payload) if payload.is::<KillSignal>() => Ok(()),
        Err(payload) => Err(panic_payload_to_string(payload.as_ref())),
    }
}

// ---------------------------------------------------------------------------
// Threaded backend: one OS thread per process, mutex+condvar baton.
// ---------------------------------------------------------------------------

/// Who currently holds the baton for one process thread.
#[derive(Debug)]
enum Baton {
    /// The process thread is parked; the scheduler may resume it.
    Parked,
    /// The process thread is running; the scheduler is waiting.
    Running,
    /// The process finished normally (or was killed, which is a normal end).
    DoneOk,
    /// The process panicked with the given rendered payload.
    DonePanic(String),
}

/// The per-process handoff cell shared by the scheduler and the process
/// thread: the one piece of real synchronisation in the engine.
struct ThreadGate {
    state: Mutex<Baton>,
    cv: Condvar,
}

impl ThreadGate {
    fn new() -> Arc<Self> {
        Arc::new(ThreadGate { state: Mutex::new(Baton::Parked), cv: Condvar::new() })
    }

    /// Process side: block until the scheduler first resumes us. The state
    /// starts out `Parked`, so this is just the waiting half of `park`.
    fn wait_first_resume(&self) {
        let mut st = self.state.lock();
        while matches!(*st, Baton::Parked) {
            self.cv.wait(&mut st);
        }
    }

    /// Process side: terminal hand-back.
    fn finish(&self, outcome: Result<(), String>) {
        let mut st = self.state.lock();
        *st = match outcome {
            Ok(()) => Baton::DoneOk,
            Err(msg) => Baton::DonePanic(msg),
        };
        self.cv.notify_all();
    }
}

/// The scheduler's and the `Proc`'s handle on one process thread.
struct ThreadTask {
    gate: Arc<ThreadGate>,
    /// Taken and joined by the `resume` that sees the process end.
    thread: Cell<Option<JoinHandle<()>>>,
}

impl Gate for ThreadTask {
    /// A single lock acquisition covers the whole handoff: the condvar wait
    /// releases the mutex atomically, so the process thread (blocked on the
    /// same condvar) acquires it, observes `Running`, and runs — there is no
    /// unlock/relock gap between publishing `Running` and starting to wait.
    ///
    /// The slice that ends the process also ends its thread: `resume` joins
    /// it before returning, so the thread's exit — its thread-local
    /// destructors included — is over before the scheduler moves on.
    fn resume(&self) -> Result<(), ResumeError> {
        let mut st = self.gate.state.lock();
        match *st {
            Baton::Parked => {
                *st = Baton::Running;
                self.gate.cv.notify_all();
            }
            Baton::DoneOk | Baton::DonePanic(_) => return Ok(()),
            Baton::Running => return Err(ResumeError::DoubleResume),
        }
        while matches!(*st, Baton::Running) {
            self.gate.cv.wait(&mut st);
        }
        let outcome = match &*st {
            Baton::DonePanic(msg) => Err(ResumeError::Panicked(msg.clone())),
            Baton::DoneOk => Ok(()),
            _ => return Ok(()),
        };
        drop(st);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        outcome
    }

    fn park(&self) {
        let mut st = self.gate.state.lock();
        *st = Baton::Parked;
        self.gate.cv.notify_all();
        while matches!(*st, Baton::Parked) {
            self.gate.cv.wait(&mut st);
        }
    }

    fn is_done(&self) -> bool {
        matches!(*self.gate.state.lock(), Baton::DoneOk | Baton::DonePanic(_))
    }
}

/// A task on its way to the OS thread that will host it.
struct BatonOrdered {
    body: TaskBody,
    killed: Rc<Cell<bool>>,
}

// SAFETY: `body` and `killed` share `Rc`s and `RefCell`s with the rest of
// the simulation, which stays behind on the scheduler thread — but the two
// threads never touch that state concurrently. A process thread runs only
// between `wait_first_resume`/`park` returning and its next `park`, or its
// exit, and that is exactly the span the scheduler thread spends inside
// `resume`: a slice that parks hands over through `ThreadGate::state`'s
// mutex, and the slice that ends the process is over only once `resume` has
// joined the thread. So every access on one side happens-before every later
// access on the other, including whatever the thread's exit runs: a body may
// leave an `Rc` into the simulation in a thread-local, and its destructor
// still runs while the scheduler waits. The task is built by the scheduler
// before the thread exists (`thread::spawn` orders that end). `Rc`, `Cell`
// and `RefCell` have no affinity to the thread that created them: ordered
// access is all they need.
unsafe impl Send for BatonOrdered {}

impl BatonOrdered {
    /// Process side, holding the baton: run the body to its end (or drop
    /// it unrun if the process was killed before it ever started).
    fn run(self) -> Result<(), String> {
        if self.killed.get() {
            return Ok(());
        }
        let result = std::panic::catch_unwind(AssertUnwindSafe(self.body));
        // The thread dies right after, but clearing keeps the TLS
        // contract identical across backends.
        clear_kill_unwind_flag();
        outcome_from(result)
    }
}

/// The legacy executor: a dedicated OS thread per simulated process.
pub(crate) struct ThreadedExecutor;

impl Executor for ThreadedExecutor {
    fn spawn(
        &self,
        name: Arc<str>,
        killed: Rc<Cell<bool>>,
        stats: Arc<ExecStats>,
        make_body: Box<dyn FnOnce(Rc<dyn Gate>) -> TaskBody + '_>,
    ) -> Rc<dyn Gate> {
        let gate = ThreadGate::new();
        let task = Rc::new(ThreadTask { gate: gate.clone(), thread: Cell::new(None) });
        let body = BatonOrdered { body: make_body(task.clone()), killed };
        let thread = std::thread::Builder::new()
            .name(format!("sim-{name}"))
            .spawn(move || {
                gate.wait_first_resume();
                let outcome = body.run();
                gate.finish(outcome);
                stats.task_done();
            })
            .expect("failed to spawn simulation thread");
        task.thread.set(Some(thread));
        task
    }

    fn kind(&self) -> ExecKind {
        ExecKind::Threaded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Resuming a gate whose process is mid-slice is a scheduler bug; it
    /// must surface as the typed error, not hang or abort.
    #[test]
    fn thread_gate_double_resume_is_typed_error() {
        let task = ThreadTask { gate: ThreadGate::new(), thread: Cell::new(None) };
        *task.gate.state.lock() = Baton::Running;
        assert!(matches!(task.resume(), Err(ResumeError::DoubleResume)));
        // Terminal states keep absorbing stale resumes.
        *task.gate.state.lock() = Baton::DoneOk;
        assert!(task.resume().is_ok());
    }

    #[test]
    fn parse_positive_rejects_empty_garbage_and_zero() {
        assert_eq!(parse_positive("", 8, 1), Err(8));
        assert_eq!(parse_positive("abc", 8, 1), Err(8));
        assert_eq!(parse_positive("0", 8, 1), Err(1));
        assert_eq!(parse_positive(" 4 ", 8, 1), Ok(4));
    }

    #[test]
    fn executor_kind_names_are_stable() {
        assert_eq!(ExecKind::Pooled.name(), "pooled");
        assert_eq!(ExecKind::Threaded.name(), "threaded");
    }
}
