//! The event queue and scheduler loop.
//!
//! One loop, one `(time, seq)` order, a run-length queue under it (see
//! [`Queue`]), living in the shared [`Inner`]. Producers (processes,
//! callbacks, anything holding a [`SimHandle`]) push straight into it and
//! the scheduler pops from it; the two never run at the same time — a
//! producer is either a callback the scheduler is in the middle of
//! dispatching or a process slice it is waiting on — so the queue is a
//! `RefCell`, borrowed for one push or one pop and never across a
//! dispatch. Sequence numbers are allocated at push time, so an event
//! pushed while a same-timestamp run of events is being dispatched sorts
//! behind every one of them that is still queued: `(time, seq)` is a total
//! order and nothing can reorder it.
//!
//! An *event*, as the loop counts them, is one dispatch step: a pop, except
//! that a maximal stretch of consecutive posts within one run is one step
//! (DESIGN.md §3.1). What the loop *did* is its [`Dispatch`].

use crate::error::{SimError, SimResult};
use crate::exec::{add, ExecStats};
use crate::pool::{Name, Prefetch, ResumeError, TaskCell};
use crate::process::{Proc, ProcId};
use crate::time::Time;
use crate::timer::{TimerHandle, TimerTable};
use gbcr_trace::{Arg, ArgValue, Instant, Span, Tracer, Track};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Events dispatched across every simulation in this process, ever.
/// Flushed once per [`Sim::run`]/[`Sim::run_until`] call, not per event.
static TOTAL_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Progress wakes elided across every simulation in this process, ever
/// (see [`SimHandle::note_elided_wakes`]): slice boundaries a polled
/// progress engine would have woken at that the demand-driven one never
/// scheduled.
static TOTAL_ELIDED: AtomicU64 = AtomicU64::new(0);

/// Simulated processes spawned across every simulation in this process,
/// ever (the sibling of [`total_events_processed`] for executor work).
static TOTAL_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// See [`total_fingerprint`].
static TOTAL_FINGERPRINT: AtomicU64 = AtomicU64::new(0);

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

/// The wrapping sum of every simulation's [`Dispatch::fingerprint`] so far:
/// blind to the order simulations ran in, so the same on any worker count.
pub fn total_fingerprint() -> u64 {
    TOTAL_FINGERPRINT.load(Ordering::Relaxed)
}

/// What a simulation's dispatch loop did, however it grouped it into
/// events (DESIGN.md §7). An action is a resume or a callback run; a
/// cancelled wake or call is not one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dispatch {
    /// A mix of one `(time, process id or post tag, kind)` per action.
    pub fingerprint: u64,
    /// Processes resumed.
    pub resumes: u64,
    /// Callbacks run: `call_at` timers that fired, and posts.
    pub callbacks: u64,
}

impl Dispatch {
    /// Fold in one action of `kind` — 1 a wake, 2 a timer wake, 3 a
    /// `call_at` callback, 4 a post: a rotate, an xor and an odd multiply.
    fn fold(&mut self, time: Time, id: u64, kind: u64) {
        const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
        let entry = time ^ id.rotate_left(24) ^ kind << 61;
        self.fingerprint = (self.fingerprint.rotate_left(23) ^ entry).wrapping_mul(MIX);
        *if kind < 3 { &mut self.resumes } else { &mut self.callbacks } += 1;
    }
}

/// A callback executed on the scheduler thread. Must not block.
type Callback = Box<dyn FnOnce(&SimHandle) + 'static>;

/// The shared target of [`SimHandle::post_at`]s: it keeps what each post
/// carries under a `u32` key of its own (a fabric, its messages on the
/// wire) and gets the key back when the post fires. Must not block.
pub trait Land {
    /// The post under `key` fires now.
    fn land(self: Rc<Self>, h: &SimHandle, key: u32);
}

enum EventKind {
    Wake(ProcId),
    /// A wake that can be invalidated before it fires (same slab-slot
    /// generation check as `Call`, but with no boxed callback).
    CancellableWake {
        slot: u32,
        gen: u64,
        pid: ProcId,
    },
    Call {
        slot: u32,
        gen: u64,
        f: Callback,
    },
    /// A callback nobody can cancel: no slab slot, no generation check, no box.
    Post {
        tag: u64,
        key: u32,
        to: Rc<dyn Land>,
    },
}

/// The buffer of a multi-event run. Boxed so that a [`Run`] is no larger
/// than the one-event heap entry it replaces (48 bytes; with the deque
/// inline it is 56, and heap sifting cost sparse workloads +6 % per timer
/// event); box and buffer are recycled together.
#[allow(clippy::box_collection)]
type RunBuf = Box<VecDeque<EventKind>>;

/// The members of a [`Run`]. A one-event run — most runs of a workload
/// with sparse timestamps — is stored inline and allocates nothing.
enum RunEvents {
    One(EventKind),
    Many(RunBuf),
}

impl RunEvents {
    /// Append `kind`, moving a one-event run into a buffer from `spare`.
    fn push(&mut self, kind: EventKind, spare: &mut Vec<RunBuf>) {
        if let RunEvents::Many(buf) = self {
            return buf.push_back(kind);
        }
        let buf = spare.pop().unwrap_or_default();
        let RunEvents::One(first) = std::mem::replace(self, RunEvents::Many(buf)) else {
            unreachable!("a multi-event run returned above")
        };
        let RunEvents::Many(buf) = self else { unreachable!("just stored") };
        buf.extend([first, kind]);
    }

    fn len(&self) -> usize {
        match self {
            RunEvents::One(_) => 1,
            RunEvents::Many(buf) => buf.len(),
        }
    }
}

/// A maximal sequence of *consecutive pushes* with one timestamp. Its
/// members hold consecutive `seq`s, so no other event can sort between
/// them and the whole run is one entry of the queue, keyed by its time
/// and the `seq` of its first member. Two runs with the same time cover
/// disjoint `seq` intervals, so comparing first members orders every
/// member of one before every member of the other.
struct Run {
    time: Time,
    /// `seq` of the first member; member `i` holds `seq + i`.
    seq: u64,
    events: RunEvents,
}

// A post must fit beside a timer callback: the heap sifts 48-byte entries.
const _: () = assert!(std::mem::size_of::<Run>() == 48);

impl Run {
    fn key(&self) -> (Time, u64) {
        (self.time, self.seq)
    }
}

impl PartialEq for Run {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Run {}
impl PartialOrd for Run {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Run {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// What [`Queue::pop`] found.
enum Next {
    /// The least pending event, its time, and whether it continues the run
    /// taken last (it comes from `cur`).
    Event(Time, EventKind, bool),
    /// The least pending event lies beyond the horizon; it stays queued.
    Horizon,
    Empty,
}

/// Emptied multi-event buffers kept for the next run that needs one.
const SPARE_BUFFERS: usize = 4;

/// How far behind the head of the run being dispatched the scheduler looks
/// for a process to warm: the far stage fetches what the near stage reads,
/// and the near stage what the resume reads.
const NEAR_AHEAD: usize = 1;
const FAR_AHEAD: usize = 3;

/// A simulation with fewer processes than this gets no hints: its cells
/// and stack tops stay cached from one resume to the next, and the lookup
/// and prefetches are then pure overhead (+8 % wall on the 32-rank
/// `p2p_sweep`; level at 64 and 128 ranks, −8 % at 256, −13 % at 512).
const WARM_MIN_PROCS: usize = 128;

/// The pending events in `(time, seq)` order, run-length encoded: lock-step
/// ranks push, and therefore pop, long stretches of events with one
/// timestamp, and a [`Run`] of them needs no sorting. Three places hold
/// runs, and the least pending event is always the head of `cur` or, with
/// `cur` drained, the head of the lesser of `open` and the heap's top:
///
/// * `cur`, the run being dispatched — a FIFO at the current time. It only
///   shrinks: a push at the current time starts a new run, because an older
///   run with the same time may still be waiting in the heap and goes first.
/// * `open`, the run being built — held beside the heap until a push with
///   another time closes it or the scheduler takes it.
/// * the heap of closed runs.
#[derive(Default)]
struct Queue {
    /// `seq` of the next push.
    seq: u64,
    /// Key of the run `cur` came from, i.e. of the run taken last.
    cur_key: (Time, u64),
    cur: VecDeque<EventKind>,
    open: Option<Run>,
    heap: BinaryHeap<Reverse<Run>>,
    spare: Vec<RunBuf>,
}

impl Queue {
    fn push(&mut self, time: Time, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        match &mut self.open {
            Some(run) if run.time == time => {
                debug_assert_eq!(run.seq + run.events.len() as u64, seq, "a run's seqs are dense");
                run.events.push(kind, &mut self.spare);
            }
            open => {
                let run = Run { time, seq, events: RunEvents::One(kind) };
                if let Some(closed) = open.replace(run) {
                    self.heap.push(Reverse(closed));
                }
            }
        }
    }

    /// Remove and return the least pending event unless it lies beyond
    /// `horizon`.
    fn pop(&mut self, horizon: Time) -> Next {
        if !self.cur.is_empty() && self.cur_key.0 > horizon {
            return Next::Horizon;
        }
        if let Some(kind) = self.cur.pop_front() {
            return Next::Event(self.cur_key.0, kind, true);
        }
        let (open_first, time) = match (&self.open, self.heap.peek()) {
            (Some(open), Some(Reverse(top))) if open < top => (true, open.time),
            (Some(open), None) => (true, open.time),
            (_, Some(Reverse(top))) => (false, top.time),
            (None, None) => return Next::Empty,
        };
        if time > horizon {
            return Next::Horizon;
        }
        let run = if open_first { self.open.take() } else { self.heap.pop().map(|r| r.0) }
            .expect("the run chosen above");
        debug_assert!(run.key() >= self.cur_key, "runs taken out of (time, seq) order");
        self.cur_key = run.key();
        match run.events {
            RunEvents::One(kind) => Next::Event(run.time, kind, false),
            RunEvents::Many(mut buf) => {
                let first = buf.pop_front().expect("a multi-event run has members");
                std::mem::swap(&mut self.cur, &mut *buf);
                if self.spare.len() < SPARE_BUFFERS {
                    self.spare.push(buf);
                }
                Next::Event(run.time, first, false)
            }
        }
    }
}

struct Inner {
    now: Cell<Time>,
    queue: RefCell<Queue>,
    timers: Rc<TimerTable>,
    /// Every process ever spawned, indexed by `ProcId`.
    procs: RefCell<Vec<Rc<TaskCell>>>,
    rng: RefCell<SmallRng>,
    tracer: Tracer,
    /// Progress wakes elided in this simulation (see [`SimHandle::note_elided_wakes`]).
    elided: Cell<u64>,
    /// Spawn/teardown cost and liveness high-water marks.
    stats: Rc<ExecStats>,
}

/// A cloneable handle onto a running simulation.
///
/// Unlike [`Proc`], a `SimHandle` can never block, so it is safe to use from
/// scheduler-side timer callbacks as well as from inside processes. It is the
/// channel through which timers, networks and storage models schedule work.
///
/// A simulation belongs to the thread that drives it: the handle, and with
/// it everything built from one (fabrics, worlds, stores, controllers), is
/// neither `Send` nor `Sync`, which is what lets all of that state live in
/// plain `Rc<RefCell<…>>` (DESIGN.md §3.4).
///
/// ```compile_fail,E0277
/// fn send<T: Send>(_: T) {}
/// let sim = gbcr_des::Sim::new(0);
/// send(sim.handle()); // `Rc<…>` cannot be sent between threads
/// ```
#[derive(Clone)]
pub struct SimHandle {
    inner: Rc<Inner>,
}

impl SimHandle {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.inner.now.get()
    }

    fn push(&self, time: Time, kind: EventKind) {
        self.inner.queue.borrow_mut().push(time, kind);
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
        self.inner.elided.set(self.inner.elided.get() + n);
        TOTAL_ELIDED.fetch_add(n, Ordering::Relaxed);
    }

    /// Run `f` on the scheduler thread at absolute time `at`. Returns a
    /// handle that can cancel the callback before it fires. `f` must not
    /// block (it has no `Proc`, so it *cannot* call any blocking primitive).
    pub fn call_at(&self, at: Time, f: impl FnOnce(&SimHandle) + 'static) -> TimerHandle {
        let (slot, gen) = self.inner.timers.arm();
        self.push(at.max(self.now()), EventKind::Call { slot, gen, f: Box::new(f) });
        TimerHandle::new(self.inner.timers.clone(), slot, gen)
    }

    /// Call `to.land(key)` on the scheduler thread at absolute time `at`: a
    /// callback that is never cancelled (a fabric delivery), so it skips
    /// the timer slab, and that allocates nothing. It takes its place in
    /// the `(time, seq)` order exactly as [`call_at`](SimHandle::call_at)
    /// would. `tag` names it in the [`Dispatch`] fingerprint (0 for `call_at`).
    pub fn post_at(&self, at: Time, tag: u64, key: u32, to: Rc<dyn Land>) {
        self.push(at.max(self.now()), EventKind::Post { tag, key, to });
    }

    /// Run `f` on the scheduler thread after `dt` of virtual time.
    pub fn call_after(&self, dt: Time, f: impl FnOnce(&SimHandle) + 'static) -> TimerHandle {
        self.call_at(self.now().saturating_add(dt), f)
    }

    /// Mark `pid` killed and wake it so the kill unwinds at its next yield
    /// point. Used for failure injection. No-op on finished processes.
    pub fn kill(&self, pid: ProcId) {
        self.inner.procs.borrow()[pid.index()].killed.set(true);
        self.wake(pid);
    }

    /// Whether [`kill`](SimHandle::kill) has been called on `pid` — from
    /// that instant on the process runs no more of its own code, even
    /// while the wake that unwinds it is still queued.
    pub fn is_killed(&self, pid: ProcId) -> bool {
        self.inner.procs.borrow()[pid.index()].killed.get()
    }

    /// Whether the given process has terminated (normally, by panic, or by
    /// kill).
    pub fn is_done(&self, pid: ProcId) -> bool {
        self.inner.procs.borrow()[pid.index()].is_done()
    }

    /// Access the simulation's seeded RNG.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut SmallRng) -> T) -> T {
        f(&mut self.inner.rng.borrow_mut())
    }

    /// The simulation's structured tracer (off by default; see
    /// [`gbcr_trace::Tracer`]). New simulations start at the process-wide
    /// [`gbcr_trace::capture_default`] level.
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// Whether anything is being captured — the one-read fast path every
    /// instrumentation point pays when tracing is off.
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

    /// Record an instant at *now*; the args closure is only evaluated
    /// when tracing is enabled.
    #[inline]
    pub fn trace_instant(&self, track: Track, name: &'static str, args: impl FnOnce() -> Vec<Arg>) {
        if self.trace_enabled() {
            let time = self.now();
            self.inner.tracer.record_instant(Instant { time, track, name, args: args() });
        }
    }

    /// Like [`trace_instant`](SimHandle::trace_instant) but only at the
    /// `Full` capture level (per-message detail).
    #[inline]
    pub fn trace_instant_detail(
        &self,
        track: Track,
        name: &'static str,
        args: impl FnOnce() -> Vec<Arg>,
    ) {
        if self.trace_detailed() {
            self.trace_instant(track, name, args);
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
            self.trace_span(track, name, t_start, args);
        }
    }

    /// Spawn a new simulated process; it becomes runnable at the current
    /// virtual time. See [`Sim::spawn`].
    pub fn spawn(&self, name: impl Into<String>, f: impl FnOnce(&Proc) + 'static) -> ProcId {
        spawn_impl(self, name.into(), f)
    }
}

fn spawn_impl(handle: &SimHandle, name: String, f: impl FnOnce(&Proc) + 'static) -> ProcId {
    let t0 = std::time::Instant::now();
    let inner = &handle.inner;
    let id = ProcId(u32::try_from(inner.procs.borrow().len()).expect("too many processes"));
    TOTAL_SPAWNED.fetch_add(1, Ordering::Relaxed);
    let cell = TaskCell::new(Name::new(name), inner.stats.clone());
    let proc_ctx = Proc { handle: handle.clone(), id, cell: cell.clone() };
    cell.bind(move || f(&proc_ctx));
    inner.procs.borrow_mut().push(cell);
    add(&inner.stats.spawn_ns, t0.elapsed().as_nanos() as u64);
    handle.wake(id);
    id
}

/// The simulation: owns the clock, the event queue, and all simulated
/// processes. Create one, [`spawn`](Sim::spawn) processes into it, then
/// [`run`](Sim::run) it to completion.
pub struct Sim {
    handle: SimHandle,
    /// Cache of `Inner::procs`, refreshed only when a wake references a
    /// process spawned since the last refresh: a resumed slice may spawn,
    /// so the process table cannot stay borrowed across a resume.
    cells: Vec<Rc<TaskCell>>,
    /// Events dispatched by this simulation across all `run*` calls.
    events: u64,
    /// What the loop did across all `run*` calls.
    dispatch: Dispatch,
    /// Whether [`shutdown`](Sim::shutdown) already ran.
    shut_down: bool,
}

impl Sim {
    /// Create a simulation whose RNG is seeded with `seed`. Two
    /// simulations built identically with the same seed produce identical
    /// traces.
    pub fn new(seed: u64) -> Self {
        let inner = Rc::new(Inner {
            now: Cell::new(0),
            queue: RefCell::default(),
            timers: TimerTable::new(),
            procs: RefCell::default(),
            rng: RefCell::new(SmallRng::seed_from_u64(seed)),
            tracer: Tracer::new(gbcr_trace::capture_default()),
            elided: Cell::new(0),
            stats: Rc::default(),
        });
        let (handle, dispatch) = (SimHandle { inner }, Dispatch::default());
        Sim { handle, cells: Vec::new(), events: 0, dispatch, shut_down: false }
    }

    /// A cloneable handle onto this simulation.
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// Spawn a simulated process running `f`. The process becomes runnable
    /// at the current virtual time (time 0 before `run`).
    pub fn spawn(&mut self, name: impl Into<String>, f: impl FnOnce(&Proc) + 'static) -> ProcId {
        self.handle.spawn(name, f)
    }

    /// Run until the event queue drains. Returns the final virtual time.
    ///
    /// Errors with [`SimError::Deadlock`] if the queue drains while some
    /// process is still blocked, [`SimError::ProcessPanicked`] if any
    /// simulated process panics, and [`SimError::StackMapFailed`] if a
    /// process's first slice cannot get a stack.
    pub fn run(&mut self) -> SimResult<Time> {
        self.run_inner(Time::MAX)
    }

    /// Run until the event queue drains or virtual time would exceed
    /// `horizon`, whichever comes first.
    pub fn run_until(&mut self, horizon: Time) -> SimResult<Time> {
        self.run_inner(horizon)
    }

    /// Events (dispatch steps) taken so far, over all `run*` calls.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// What this simulation's dispatch loop did so far (all `run*` calls).
    pub fn dispatch(&self) -> Dispatch {
        self.dispatch
    }

    /// Progress wakes this simulation elided so far (demand-driven compute
    /// slicing; see [`SimHandle::note_elided_wakes`]).
    pub fn wakes_elided(&self) -> u64 {
        self.handle.inner.elided.get()
    }

    /// Processes this simulation has spawned so far.
    pub fn procs_spawned(&self) -> u64 {
        self.handle.inner.stats.spawned.get()
    }

    /// High-water mark of simultaneously live (spawned, not yet finished)
    /// processes.
    pub fn peak_live_procs(&self) -> u64 {
        self.handle.inner.stats.peak_live.get()
    }

    /// Cumulative wall-clock nanoseconds spent inside `spawn` calls.
    pub fn spawn_cost_ns(&self) -> u64 {
        self.handle.inner.stats.spawn_ns.get()
    }

    /// Wall-clock nanoseconds spent tearing processes down; populated by
    /// [`shutdown`](Sim::shutdown) (explicitly or via `Drop`).
    pub fn teardown_cost_ns(&self) -> u64 {
        self.handle.inner.stats.teardown_ns.get()
    }

    /// The cached cell of `pid`, extending the cache from the shared
    /// process table on a miss (i.e. once per spawn, not once per wake).
    fn cell(&mut self, pid: ProcId) -> &TaskCell {
        if pid.index() >= self.cells.len() {
            let procs = self.handle.inner.procs.borrow();
            self.cells.extend_from_slice(&procs[self.cells.len()..]);
        }
        &self.cells[pid.index()]
    }

    /// Hint that `ev`, still queued behind the event about to be dispatched,
    /// will resume a process soon. Changes nothing the simulation observes.
    fn warm(&self, ev: Option<&EventKind>, stage: Prefetch) {
        if let Some(EventKind::Wake(pid) | EventKind::CancellableWake { pid, .. }) = ev {
            // A process spawned since the cache was last extended is not
            // in it yet; its first resume is cold either way.
            if let Some(cell) = self.cells.get(pid.index()) {
                cell.prefetch(stage);
            }
        }
    }

    /// Render a [`ResumeError`] into the public error type, resolving the
    /// process name.
    fn resume_error(&self, pid: ProcId, err: ResumeError) -> SimError {
        let name = self.handle.inner.procs.borrow()[pid.index()].name.to_string();
        match err {
            ResumeError::Panicked(message) => SimError::ProcessPanicked { name, message },
            ResumeError::DoubleResume => SimError::DoubleResume { name },
            ResumeError::StackMap(e) => {
                SimError::StackMapFailed { name, errno: e.raw_os_error().unwrap_or(0) }
            }
        }
    }

    fn run_inner(&mut self, horizon: Time) -> SimResult<Time> {
        let mut dispatched: u64 = 0;
        // Whether the event dispatched last was a post.
        let mut posted = false;
        let inner = Rc::clone(&self.handle.inner);
        let fingerprint = self.dispatch.fingerprint;
        let result = loop {
            // The queue is borrowed for the pop alone: whatever the event
            // dispatches pushes into it.
            let (time, kind, in_run) = {
                let mut queue = inner.queue.borrow_mut();
                // Looked up before the pop, so nothing is held across it,
                // and only inside a run: a sparse queue pays one compare.
                if queue.cur.len() > NEAR_AHEAD && self.cells.len() >= WARM_MIN_PROCS {
                    self.warm(queue.cur.get(NEAR_AHEAD), Prefetch::Near);
                    self.warm(queue.cur.get(FAR_AHEAD), Prefetch::Far);
                }
                match queue.pop(horizon) {
                    Next::Event(time, kind, in_run) => (time, kind, in_run),
                    Next::Horizon => break Err(SimError::HorizonReached { at: horizon }),
                    Next::Empty => {
                        let now = self.handle.now();
                        let blocked: Vec<String> = inner
                            .procs
                            .borrow()
                            .iter()
                            .filter(|p| !p.is_done())
                            .map(|p| p.name.to_string())
                            .collect();
                        break if blocked.is_empty() {
                            Ok(now)
                        } else {
                            Err(SimError::Deadlock { at: now, blocked })
                        };
                    }
                }
            };
            debug_assert!(time >= self.handle.now(), "time went backwards");
            inner.now.set(time);
            // A post right behind a post of its own run is the same step.
            let post = matches!(kind, EventKind::Post { .. });
            if !(post && posted && in_run) {
                dispatched += 1;
            }
            posted = post;
            // Scheduler-dispatch instants are Full-level detail.
            let pid_arg = |pid: ProcId| vec![("pid", ArgValue::U64(u64::from(pid.0)))];
            match kind {
                EventKind::Wake(pid) => {
                    self.dispatch.fold(time, u64::from(pid.0), 1);
                    self.handle.trace_instant_detail(Track::Sim, "sched.wake", || pid_arg(pid));
                    if let Err(e) = self.cell(pid).resume() {
                        break Err(self.resume_error(pid, e));
                    }
                }
                EventKind::CancellableWake { slot, gen, pid } => {
                    // `retire` wins only if nobody cancelled the wake.
                    if inner.timers.retire(slot, gen) {
                        self.dispatch.fold(time, u64::from(pid.0), 2);
                        self.handle
                            .trace_instant_detail(Track::Sim, "sched.timer", || pid_arg(pid));
                        if let Err(e) = self.cell(pid).resume() {
                            break Err(self.resume_error(pid, e));
                        }
                    }
                }
                EventKind::Call { slot, gen, f } => {
                    // `retire` wins only if the timer was not cancelled
                    // (and no stale generation reuses the slot).
                    if inner.timers.retire(slot, gen) {
                        self.dispatch.fold(time, 0, 3);
                        self.handle.trace_instant_detail(Track::Sim, "sched.call", Vec::new);
                        f(&self.handle);
                    }
                }
                EventKind::Post { tag, key, to } => {
                    self.dispatch.fold(time, tag, 4);
                    self.handle.trace_instant_detail(Track::Sim, "sched.call", Vec::new);
                    to.land(&self.handle, key);
                }
            }
        };
        self.events += dispatched;
        TOTAL_EVENTS.fetch_add(dispatched, Ordering::Relaxed);
        let share = self.dispatch.fingerprint.wrapping_sub(fingerprint); // telescopes
        TOTAL_FINGERPRINT.fetch_add(share, Ordering::Relaxed);
        result
    }

    /// Number of processes ever spawned.
    pub fn process_count(&self) -> usize {
        self.handle.inner.procs.borrow().len()
    }

    /// Tear down every still-live process: mark it killed and run it to its
    /// kill-unwind, which drops what its stack holds. Idempotent; called
    /// automatically on drop, but callable explicitly so teardown cost
    /// lands in the stats before a report is assembled.
    pub fn shutdown(&mut self) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        let t0 = std::time::Instant::now();
        // A kill-unwind runs destructors, which may look at the process
        // table: it is borrowed per slot, never across a resume.
        let inner = &self.handle.inner;
        for i in 0..self.process_count() {
            let cell = inner.procs.borrow()[i].clone();
            if !cell.is_done() {
                cell.killed.set(true);
                // Resuming hands control over; the kill check unwinds the
                // user closure and the cell comes back as done. (Tasks
                // that never started are terminated in place.)
                let _ = cell.resume();
            }
        }
        add(&inner.stats.teardown_ns, t0.elapsed().as_nanos() as u64);
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        self.shutdown();
        // Events left queued (a horizon, an error) may capture handles onto
        // this simulation; dropping them here keeps that from being a cycle.
        let leftover = std::mem::take(&mut *self.handle.inner.queue.borrow_mut());
        drop(leftover);
    }
}
