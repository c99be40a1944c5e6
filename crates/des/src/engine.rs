//! The event queue and scheduler loop.
//!
//! The queue is split in two for speed. Producers (processes, callbacks,
//! anything holding a [`SimHandle`]) push into a small mutex-protected
//! *injector* vector — an amortized-allocation-free append. The scheduler
//! owns the actual priority heap privately (no lock), and at the top of
//! each dispatch round swaps the injector's vector for an empty one and
//! bulk-loads it into the heap. Sequence numbers are allocated globally at
//! push time, so an event sitting in the injector is always ordered after
//! every event already in the heap and the split preserves the exact
//! `(time, seq)` total order of a single shared heap.
//!
//! Events with the same timestamp are dispatched as one batch: the
//! scheduler pops the entire equal-time run of the heap before returning
//! to the injector. Any event pushed *during* the batch carries a larger
//! sequence number than everything already popped, so batching cannot
//! reorder same-time events either.

use crate::error::{SimError, SimResult};
use crate::exec::{DesConfig, ExecKind, ExecStats, Executor, Gate, ResumeError};
use crate::process::{Proc, ProcId};
use crate::signal::Signal;
use crate::time::Time;
use crate::timer::{TimerHandle, TimerTable};
use gbcr_trace::{Arg, Event, Span, Tracer, Track};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Events dispatched across every simulation in this process, ever.
/// Flushed once per [`Sim::run`]/[`Sim::run_until`] call, not per event.
static TOTAL_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Progress wakes elided across every simulation in this process, ever
/// (see [`crate::DemandWake`]): slice boundaries a polled progress engine
/// would have woken at that the demand-driven engine never scheduled.
static TOTAL_ELIDED: AtomicU64 = AtomicU64::new(0);

/// Simulated processes spawned across every simulation in this process,
/// ever (the sibling of [`total_events_processed`] for executor work).
static TOTAL_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Total events dispatched by all simulations in this process so far.
/// Monotonic; used by the benchmark harness to report aggregate engine
/// work alongside wall-clock numbers.
pub fn total_events_processed() -> u64 {
    TOTAL_EVENTS.load(Ordering::Relaxed)
}

/// Total progress wakes elided by all simulations in this process so far
/// (the demand-driven counterpart of [`total_events_processed`]).
pub fn total_wakes_elided() -> u64 {
    TOTAL_ELIDED.load(Ordering::Relaxed)
}

/// Total simulated processes spawned by all simulations in this process
/// so far.
pub fn total_procs_spawned() -> u64 {
    TOTAL_SPAWNED.load(Ordering::Relaxed)
}

/// A callback executed on the scheduler thread. Must not block.
type Callback = Box<dyn FnOnce(&SimHandle) + Send + 'static>;

enum EventKind {
    Wake(ProcId),
    /// A wake that can be invalidated before it fires (same slab-slot
    /// generation check as `Call`, but with no boxed callback).
    CancellableWake { slot: u32, gen: u64, pid: ProcId },
    Call { slot: u32, gen: u64, f: Callback },
    /// A callback nobody can cancel: no slab slot, no generation check.
    Post(Callback),
}

struct QueuedEvent {
    time: Time,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Producer side of the event queue: an append-only vector the scheduler
/// periodically swaps out. Two vectors ping-pong between the injector and
/// the scheduler's drain buffer, so steady-state pushes reuse capacity and
/// never allocate. The `nonempty` flag lets the scheduler skip the lock
/// entirely on empty rounds.
#[derive(Default)]
struct Injector {
    nonempty: AtomicBool,
    pending: Mutex<Vec<QueuedEvent>>,
}

impl Injector {
    fn push(&self, ev: QueuedEvent) {
        let mut v = self.pending.lock();
        v.push(ev);
        self.nonempty.store(true, Ordering::Release);
    }

    /// Swap the pending batch into `into` (which must be empty); clears
    /// the nonempty flag. Lock-free when nothing is pending.
    fn drain_into(&self, into: &mut Vec<QueuedEvent>) {
        debug_assert!(into.is_empty());
        if !self.nonempty.load(Ordering::Acquire) {
            return;
        }
        let mut v = self.pending.lock();
        std::mem::swap(&mut *v, into);
        self.nonempty.store(false, Ordering::Release);
    }
}

struct ProcSlot {
    name: Arc<str>,
    gate: Arc<dyn Gate>,
    killed: Arc<AtomicBool>,
    /// Present only under the threaded executor, which owns one OS thread
    /// per process; pooled tasks have nothing to join.
    join: Option<JoinHandle<()>>,
}

struct Inner {
    now: AtomicU64,
    seq: AtomicU64,
    injector: Injector,
    timers: Arc<TimerTable>,
    procs: Mutex<Vec<ProcSlot>>,
    rng: Mutex<SmallRng>,
    tracer: Tracer,
    /// Progress wakes elided in this simulation (see [`SimHandle::note_elided_wakes`]).
    elided: AtomicU64,
    /// The execution backend for simulated processes.
    exec: Box<dyn Executor>,
    /// Spawn/teardown cost and liveness high-water marks.
    stats: Arc<ExecStats>,
}

/// A cloneable, `Send + Sync` handle onto a running simulation.
///
/// Unlike [`Proc`], a `SimHandle` can never block, so it is safe to use from
/// scheduler-side timer callbacks as well as from inside processes. It is the
/// channel through which signals, networks and storage models schedule work.
#[derive(Clone)]
pub struct SimHandle {
    inner: Arc<Inner>,
}

impl SimHandle {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.inner.now.load(Ordering::Relaxed)
    }

    fn push(&self, time: Time, kind: EventKind) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        self.inner.injector.push(QueuedEvent { time, seq, kind });
    }

    /// Schedule a wake-up for `pid` at absolute time `at` (clamped to now).
    pub fn schedule_wake(&self, at: Time, pid: ProcId) {
        self.push(at.max(self.now()), EventKind::Wake(pid));
    }

    /// Like [`schedule_wake`](SimHandle::schedule_wake), but returns a
    /// handle that can cancel the wake before it fires. A cancelled wake
    /// still pops from the queue but resumes nobody. This is the primitive
    /// under sliced `compute()`: a slice timer superseded by an earlier
    /// resume is cancelled instead of firing stale.
    pub fn schedule_wake_cancellable(&self, at: Time, pid: ProcId) -> TimerHandle {
        let (slot, gen) = self.inner.timers.arm();
        self.push(at.max(self.now()), EventKind::CancellableWake { slot, gen, pid });
        TimerHandle::new(self.inner.timers.clone(), slot, gen)
    }

    /// Wake `pid` at the current virtual time (after already-queued events
    /// at this instant).
    pub fn wake(&self, pid: ProcId) {
        self.schedule_wake(self.now(), pid);
    }

    /// Credit `n` elided progress wakes (slice boundaries a polled engine
    /// would have dispatched that the demand-driven engine never
    /// scheduled) to this simulation and the process-wide total.
    pub fn note_elided_wakes(&self, n: u64) {
        self.inner.elided.fetch_add(n, Ordering::Relaxed);
        TOTAL_ELIDED.fetch_add(n, Ordering::Relaxed);
    }

    /// Run `f` on the scheduler thread at absolute time `at`. Returns a
    /// handle that can cancel the callback before it fires. `f` must not
    /// block (it has no `Proc`, so it *cannot* call any blocking primitive).
    pub fn call_at(
        &self,
        at: Time,
        f: impl FnOnce(&SimHandle) + Send + 'static,
    ) -> TimerHandle {
        let (slot, gen) = self.inner.timers.arm();
        self.push(at.max(self.now()), EventKind::Call { slot, gen, f: Box::new(f) });
        TimerHandle::new(self.inner.timers.clone(), slot, gen)
    }

    /// [`call_at`](SimHandle::call_at) for a callback that is never
    /// cancelled (a fabric delivery): the event carries no timer slot, so
    /// scheduling and firing it skip the slab altogether. Takes its place
    /// in the `(time, seq)` order exactly as `call_at` would.
    pub fn post_at(&self, at: Time, f: impl FnOnce(&SimHandle) + Send + 'static) {
        self.push(at.max(self.now()), EventKind::Post(Box::new(f)));
    }

    /// Run `f` on the scheduler thread after `dt` of virtual time.
    pub fn call_after(
        &self,
        dt: Time,
        f: impl FnOnce(&SimHandle) + Send + 'static,
    ) -> TimerHandle {
        self.call_at(self.now().saturating_add(dt), f)
    }

    /// Mark `pid` killed and wake it so the kill unwinds at its next yield
    /// point. Used for failure injection. No-op on finished processes.
    pub fn kill(&self, pid: ProcId) {
        // Single lock acquisition; the wake goes through the injector and
        // touches no per-process state.
        self.inner.procs.lock()[pid.index()].killed.store(true, Ordering::Relaxed);
        self.wake(pid);
    }

    /// Whether [`kill`](SimHandle::kill) has been called on `pid` — from
    /// that instant on the process runs no more of its own code, even
    /// while the wake that unwinds it is still queued.
    pub fn is_killed(&self, pid: ProcId) -> bool {
        self.inner.procs.lock()[pid.index()].killed.load(Ordering::Relaxed)
    }

    /// Whether the given process has terminated (normally, by panic, or by
    /// kill).
    pub fn is_done(&self, pid: ProcId) -> bool {
        self.inner.procs.lock()[pid.index()].gate.is_done()
    }

    /// Access the simulation's seeded RNG.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut SmallRng) -> T) -> T {
        f(&mut self.inner.rng.lock())
    }

    /// The simulation's structured tracer (off by default; see
    /// [`gbcr_trace::Tracer`]). New simulations start at the process-wide
    /// [`gbcr_trace::capture_default`] level.
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// Whether anything is being captured — the one-relaxed-load fast
    /// path every instrumentation point pays when tracing is off.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.inner.tracer.enabled()
    }

    /// Whether per-message / scheduler detail is being captured
    /// ([`gbcr_trace::TraceLevel::Full`]).
    #[inline]
    pub fn trace_detailed(&self) -> bool {
        self.inner.tracer.detailed()
    }

    /// Record a typed instant event; the closure is only evaluated when
    /// tracing is enabled.
    #[inline]
    pub fn trace_instant(&self, event: impl FnOnce() -> Event) {
        if self.trace_enabled() {
            self.inner.tracer.record_instant(self.now(), event());
        }
    }

    /// Like [`trace_instant`](SimHandle::trace_instant) but only at the
    /// `Full` capture level (per-message detail).
    #[inline]
    pub fn trace_instant_detail(&self, event: impl FnOnce() -> Event) {
        if self.trace_detailed() {
            self.inner.tracer.record_instant(self.now(), event());
        }
    }

    /// Record a completed span ending *now*; the args closure is only
    /// evaluated when tracing is enabled. The caller captured `t_start`
    /// with [`now`](SimHandle::now) before doing the work — recording
    /// after the fact means there is no begin/end pairing state and an
    /// instrumentation point can never alter simulation behaviour.
    #[inline]
    pub fn trace_span(
        &self,
        track: Track,
        name: &'static str,
        t_start: Time,
        args: impl FnOnce() -> Vec<Arg>,
    ) {
        if self.trace_enabled() {
            self.inner.tracer.record_span(Span {
                track,
                name,
                t_start,
                t_end: self.now(),
                args: args(),
            });
        }
    }

    /// Like [`trace_span`](SimHandle::trace_span) but only at the `Full`
    /// capture level (per-message detail).
    #[inline]
    pub fn trace_span_detail(
        &self,
        track: Track,
        name: &'static str,
        t_start: Time,
        args: impl FnOnce() -> Vec<Arg>,
    ) {
        if self.trace_detailed() {
            self.inner.tracer.record_span(Span {
                track,
                name,
                t_start,
                t_end: self.now(),
                args: args(),
            });
        }
    }

    /// Spawn a new simulated process; it becomes runnable at the current
    /// virtual time. See [`Sim::spawn`].
    pub fn spawn(&self, name: impl Into<String>, f: impl FnOnce(&Proc) + Send + 'static) -> ProcId {
        spawn_impl(self, name.into(), f)
    }

    /// Create a named [`Signal`] bound to this simulation.
    pub fn signal(&self, name: impl Into<String>) -> Signal {
        Signal::new(name.into())
    }
}

fn spawn_impl(
    handle: &SimHandle,
    name: String,
    f: impl FnOnce(&Proc) + Send + 'static,
) -> ProcId {
    let t0 = std::time::Instant::now();
    let name: Arc<str> = name.into();
    let mut procs = handle.inner.procs.lock();
    let id = ProcId(u32::try_from(procs.len()).expect("too many processes"));
    let killed = Arc::new(AtomicBool::new(false));
    handle.inner.stats.task_spawned();
    TOTAL_SPAWNED.fetch_add(1, Ordering::Relaxed);
    // The executor creates the gate; the Proc context is built around it
    // and bound into the task body in one step.
    let ctx_handle = handle.clone();
    let ctx_name = name.clone();
    let ctx_killed = killed.clone();
    let task = handle.inner.exec.spawn(
        name.clone(),
        killed.clone(),
        handle.inner.stats.clone(),
        Box::new(move |gate| {
            let proc_ctx =
                Proc { handle: ctx_handle, id, name: ctx_name, killed: ctx_killed, gate };
            Box::new(move || f(&proc_ctx))
        }),
    );
    procs.push(ProcSlot { name, gate: task.gate, killed, join: task.join });
    drop(procs);
    handle.inner.stats.add_spawn_ns(t0.elapsed().as_nanos() as u64);
    handle.wake(id);
    id
}

/// The simulation: owns the clock, the event queue, and all simulated
/// processes. Create one, [`spawn`](Sim::spawn) processes into it, then
/// [`run`](Sim::run) it to completion.
pub struct Sim {
    handle: SimHandle,
    /// The scheduler-private priority heap; fed from the injector.
    heap: BinaryHeap<Reverse<QueuedEvent>>,
    /// Spare vector ping-ponged with the injector's pending vector.
    drain_buf: Vec<QueuedEvent>,
    /// Cache of process gates indexed by `ProcId`, refreshed from
    /// `Inner::procs` only when a wake references a process spawned since
    /// the last refresh. Keeps the wake hot path free of locks and
    /// `Arc` clones.
    gates: Vec<Arc<dyn Gate>>,
    /// Events dispatched by this simulation across all `run*` calls.
    events: u64,
    /// Whether [`shutdown`](Sim::shutdown) already ran.
    shut_down: bool,
}

impl Sim {
    /// Create a simulation whose RNG is seeded with `seed`, using the
    /// default execution backend (see [`DesConfig::default`]). Two
    /// simulations built identically with the same seed produce identical
    /// traces — on either backend.
    pub fn new(seed: u64) -> Self {
        Self::with_config(seed, DesConfig::default())
    }

    /// Create a simulation with an explicit execution configuration.
    pub fn with_config(seed: u64, config: DesConfig) -> Self {
        let inner = Arc::new(Inner {
            now: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            injector: Injector::default(),
            timers: TimerTable::new(),
            procs: Mutex::new(Vec::new()),
            rng: Mutex::new(SmallRng::seed_from_u64(seed)),
            tracer: Tracer::new(gbcr_trace::capture_default()),
            elided: AtomicU64::new(0),
            exec: config.build_executor(),
            stats: Arc::new(ExecStats::default()),
        });
        Sim {
            handle: SimHandle { inner },
            heap: BinaryHeap::new(),
            drain_buf: Vec::new(),
            gates: Vec::new(),
            events: 0,
            shut_down: false,
        }
    }

    /// A cloneable handle onto this simulation.
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// Spawn a simulated process running `f`. The process becomes runnable
    /// at the current virtual time (time 0 before `run`).
    pub fn spawn(&mut self, name: impl Into<String>, f: impl FnOnce(&Proc) + Send + 'static) -> ProcId {
        self.handle.spawn(name, f)
    }

    /// Create a named [`Signal`] bound to this simulation.
    pub fn signal(&self, name: impl Into<String>) -> Signal {
        self.handle.signal(name)
    }

    /// Run until the event queue drains. Returns the final virtual time.
    ///
    /// Errors with [`SimError::Deadlock`] if the queue drains while some
    /// process is still blocked, and [`SimError::ProcessPanicked`] if any
    /// simulated process panics.
    pub fn run(&mut self) -> SimResult<Time> {
        self.run_inner(Time::MAX)
    }

    /// Run until the event queue drains or virtual time would exceed
    /// `horizon`, whichever comes first.
    pub fn run_until(&mut self, horizon: Time) -> SimResult<Time> {
        self.run_inner(horizon)
    }

    /// Events this simulation has dispatched so far (all `run*` calls).
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Progress wakes this simulation elided so far (demand-driven compute
    /// slicing; see [`crate::DemandWake`]).
    pub fn wakes_elided(&self) -> u64 {
        self.handle.inner.elided.load(Ordering::Relaxed)
    }

    /// Processes this simulation has spawned so far.
    pub fn procs_spawned(&self) -> u64 {
        self.handle.inner.stats.spawned()
    }

    /// High-water mark of simultaneously live (spawned, not yet finished)
    /// processes.
    pub fn peak_live_procs(&self) -> u64 {
        self.handle.inner.stats.peak_live()
    }

    /// Cumulative wall-clock nanoseconds spent inside `spawn` calls.
    pub fn spawn_cost_ns(&self) -> u64 {
        self.handle.inner.stats.spawn_ns()
    }

    /// Wall-clock nanoseconds spent tearing processes down; populated by
    /// [`shutdown`](Sim::shutdown) (explicitly or via `Drop`).
    pub fn teardown_cost_ns(&self) -> u64 {
        self.handle.inner.stats.teardown_ns()
    }

    /// Peak OS threads that hosted simulated-process slices: 1 (the
    /// thread driving `run`) under the pooled executor, the peak live
    /// process count under the threaded one.
    pub fn exec_threads(&self) -> u64 {
        self.handle.inner.exec.exec_threads(&self.handle.inner.stats)
    }

    /// Which execution backend this simulation runs on.
    pub fn executor_kind(&self) -> ExecKind {
        self.handle.inner.exec.kind()
    }

    /// The cached gate for `pid`, extending the cache from the shared
    /// process table on a miss (i.e. once per spawn, not once per wake).
    fn gate(&mut self, pid: ProcId) -> &dyn Gate {
        if pid.index() >= self.gates.len() {
            let procs = self.handle.inner.procs.lock();
            self.gates.extend(procs[self.gates.len()..].iter().map(|s| s.gate.clone()));
        }
        &*self.gates[pid.index()]
    }

    /// Render a [`ResumeError`] into the public error type, resolving the
    /// process name.
    fn resume_error(&self, pid: ProcId, err: ResumeError) -> SimError {
        let name = self.handle.inner.procs.lock()[pid.index()].name.to_string();
        match err {
            ResumeError::Panicked(message) => SimError::ProcessPanicked { name, message },
            ResumeError::DoubleResume => SimError::DoubleResume { name },
        }
    }

    fn run_inner(&mut self, horizon: Time) -> SimResult<Time> {
        let mut dispatched: u64 = 0;
        let inner = Arc::clone(&self.handle.inner);
        let result = 'outer: loop {
            // Bulk-load everything pushed since the last round.
            inner.injector.drain_into(&mut self.drain_buf);
            for ev in self.drain_buf.drain(..) {
                self.heap.push(Reverse(ev));
            }
            let batch_time = match self.heap.peek() {
                Some(Reverse(e)) if e.time > horizon => {
                    break 'outer Err(SimError::HorizonReached { at: horizon });
                }
                Some(Reverse(e)) => e.time,
                None => {
                    let now = self.handle.now();
                    let blocked: Vec<String> = inner
                        .procs
                        .lock()
                        .iter()
                        .filter(|p| !p.gate.is_done())
                        .map(|p| p.name.to_string())
                        .collect();
                    break 'outer if blocked.is_empty() {
                        Ok(now)
                    } else {
                        Err(SimError::Deadlock { at: now, blocked })
                    };
                }
            };
            debug_assert!(batch_time >= self.handle.now(), "time went backwards");
            inner.now.store(batch_time, Ordering::Relaxed);
            // Scheduler-dispatch instants are Full-level detail; load the
            // level once per same-timestamp batch, not once per event.
            let detail = inner.tracer.detailed();
            // Dispatch the entire same-timestamp batch without returning to
            // the injector: anything pushed mid-batch has a larger sequence
            // number than every event popped here, so it sorts after them.
            loop {
                let ev = match self.heap.peek() {
                    Some(Reverse(e)) if e.time == batch_time => {
                        self.heap.pop().expect("peeked event").0
                    }
                    _ => break,
                };
                dispatched += 1;
                match ev.kind {
                    EventKind::Wake(pid) => {
                        if detail {
                            inner
                                .tracer
                                .record_instant(batch_time, Event::SchedWake { pid: pid.0 });
                        }
                        if let Err(e) = self.gate(pid).resume() {
                            break 'outer Err(self.resume_error(pid, e));
                        }
                    }
                    EventKind::CancellableWake { slot, gen, pid } => {
                        // `retire` wins only if nobody cancelled the wake.
                        if self.handle.inner.timers.retire(slot, gen) {
                            if detail {
                                inner
                                    .tracer
                                    .record_instant(batch_time, Event::SchedTimer { pid: pid.0 });
                            }
                            if let Err(e) = self.gate(pid).resume() {
                                break 'outer Err(self.resume_error(pid, e));
                            }
                        }
                    }
                    EventKind::Call { slot, gen, f } => {
                        // `retire` wins only if the timer was not cancelled
                        // (and no stale generation reuses the slot).
                        if self.handle.inner.timers.retire(slot, gen) {
                            if detail {
                                inner.tracer.record_instant(batch_time, Event::SchedCall);
                            }
                            f(&self.handle);
                        }
                    }
                    EventKind::Post(f) => {
                        if detail {
                            inner.tracer.record_instant(batch_time, Event::SchedCall);
                        }
                        f(&self.handle);
                    }
                }
            }
        };
        self.events += dispatched;
        TOTAL_EVENTS.fetch_add(dispatched, Ordering::Relaxed);
        result
    }

    /// Number of processes ever spawned.
    pub fn process_count(&self) -> usize {
        self.handle.inner.procs.lock().len()
    }

    /// Tear down every still-live process: mark it killed, run it to its
    /// kill-unwind, and (under the threaded backend) join its thread.
    /// Idempotent; called automatically on drop, but callable explicitly
    /// so teardown cost lands in the stats before a report is assembled.
    pub fn shutdown(&mut self) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        let t0 = std::time::Instant::now();
        let mut procs = self.handle.inner.procs.lock();
        for slot in procs.iter_mut() {
            if !slot.gate.is_done() {
                slot.killed.store(true, Ordering::Relaxed);
                // Resuming hands control over; the kill check unwinds the
                // user closure and the gate comes back as Done. (Pooled
                // tasks that never started are terminated in place.)
                let _ = slot.gate.resume();
            }
            if let Some(j) = slot.join.take() {
                let _ = j.join();
            }
        }
        drop(procs);
        self.handle.inner.stats.add_teardown_ns(t0.elapsed().as_nanos() as u64);
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        self.shutdown();
    }
}
