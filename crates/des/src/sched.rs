//! Conservative-window parallel scheduler (YAWNS / null-message family).
//!
//! The serial scheduler dispatches one global `(time, seq)` heap. This
//! module partitions the simulated processes into *shards* (one per
//! simulated node block), each with its own event heap and clock, and
//! executes the shards concurrently inside conservative windows: given
//! the minimum pending timestamp `T_min` across all shards and the
//! fabric-derived *lookahead* `L` (the minimum cross-shard link latency),
//! every event with `t < T_min + L` can be executed without
//! synchronization, because any message a shard emits while executing at
//! time `t ≥ T_min` arrives at least `L` later — i.e. at or beyond the
//! window horizon `H = T_min + L`.
//!
//! Cross-shard event traffic goes through per-shard inbound *mailboxes*
//! and is merged into the destination heap in deterministic
//! `(time, lane, lane_seq)` order, where `lane` is the pushing shard and
//! `lane_seq` a per-lane counter: each lane's pushes are themselves a
//! deterministic stream (shards execute their heaps serially), so the
//! merged order — and therefore the simulation outcome — is reproducible
//! run to run. Result tables are additionally gated byte-identical
//! against the serial backend (the A/B oracle, `GBCR_SCHED=serial`) by
//! the benchmark harness, exactly like the pooled-vs-threaded executor
//! identity check.
//!
//! Two situations force a *degenerate* (fenced) window that executes only
//! the global `t == T_min` batch serially on the control thread, merged
//! across shards in `(lane, lane_seq)` order:
//!
//! * a raised [`crate::SimHandle::fence_raise`] fence — the checkpoint
//!   coordinator raises it around each epoch, whose protocol (connection
//!   teardown storms, shared storage processor-sharing state) has
//!   cross-shard interactions at sub-lookahead distance;
//! * a zero lookahead, where no window wider than a single timestamp is
//!   ever safe. Progress is still guaranteed: every window executes at
//!   least the `T_min` batch, so zero lookahead degrades to a lockstep
//!   simulation rather than deadlocking.
//!
//! A *causality assert* at every mailbox merge verifies `t ≥` the
//! destination shard's clock, so any interaction the lookahead analysis
//! missed aborts the run loudly instead of silently diverging.

use crate::engine::{resume_error_for, EventKind, Inner, QueuedEvent, Sim, SimHandle};
use crate::error::{SimError, SimResult};
use crate::exec::Gate;
use crate::process::ProcId;
use crate::time::Time;
use parking_lot::{Condvar, Mutex};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// Which scheduler backend a [`crate::Sim`] run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// The single-heap sequential scheduler — the determinism oracle and
    /// the fallback for configurations the parallel scheduler does not
    /// cover (fault injection, tracing, the threaded executor).
    Serial,
    /// The conservative-window sharded scheduler defined in this module.
    Parallel,
}

impl SchedKind {
    /// Stable lower-case name, as used by `GBCR_SCHED` and emitted in
    /// benchmark JSON.
    pub fn name(self) -> &'static str {
        match self {
            SchedKind::Serial => "serial",
            SchedKind::Parallel => "parallel",
        }
    }
}

/// Process-wide scheduler default: 0 = unset, 1 = serial, 2 = parallel.
static SCHED_DEFAULT: AtomicU8 = AtomicU8::new(0);

/// Force the scheduler backend for subsequently configured runs. Takes
/// precedence over `GBCR_SCHED`; used by the benchmark harness's
/// serial-vs-parallel identity check.
pub fn set_sched_default(kind: SchedKind) {
    let v = match kind {
        SchedKind::Serial => 1,
        SchedKind::Parallel => 2,
    };
    SCHED_DEFAULT.store(v, Ordering::Relaxed);
}

/// The scheduler backend new runs currently resolve to. Resolution order:
/// [`set_sched_default`] if set, else the `GBCR_SCHED` environment
/// variable (`serial`/`parallel`), else serial (the parallel scheduler is
/// opt-in while it matures).
pub fn sched_default() -> SchedKind {
    match SCHED_DEFAULT.load(Ordering::Relaxed) {
        1 => return SchedKind::Serial,
        2 => return SchedKind::Parallel,
        _ => {}
    }
    if let Ok(v) = std::env::var("GBCR_SCHED") {
        match v.to_ascii_lowercase().as_str() {
            "serial" | "seq" => return SchedKind::Serial,
            "parallel" | "par" => return SchedKind::Parallel,
            _ => {}
        }
    }
    SchedKind::Serial
}

/// Process-wide shard-count override: 0 = unset.
static SHARDS_DEFAULT: AtomicUsize = AtomicUsize::new(0);

/// Force the shard count for subsequently configured parallel runs
/// (`0` clears the override). Takes precedence over `GBCR_SHARDS`; the
/// tier-1 identity gate pins 2 shards so the merge path is exercised even
/// on single-core CI hosts.
pub fn set_shard_count_default(n: usize) {
    SHARDS_DEFAULT.store(n, Ordering::Relaxed);
}

/// The shard count parallel runs currently resolve to: the
/// [`set_shard_count_default`] override if set, else `GBCR_SHARDS`, else
/// the host's available parallelism.
pub fn shard_count_default() -> usize {
    let v = SHARDS_DEFAULT.load(Ordering::Relaxed);
    if v > 0 {
        return v;
    }
    if let Some(n) = std::env::var("GBCR_SHARDS").ok().and_then(|v| v.parse::<usize>().ok()) {
        if n >= 1 {
            return n;
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// OS threads that host simulated-process slices in runs configured from
/// the process-wide defaults: the one driving `Sim::run` under the serial
/// scheduler, one per shard under the parallel one.
pub fn pool_threads() -> usize {
    match sched_default() {
        SchedKind::Serial => 1,
        SchedKind::Parallel => shard_count_default(),
    }
}

/// Window/shard telemetry for one simulation run (all zeros under the
/// serial scheduler). Deterministic for a fixed configuration: every
/// counter is derived from the virtual-time window sequence, never from
/// wall-clock racing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedTelemetry {
    /// Shards the run was partitioned into (0 = serial).
    pub shards: u64,
    /// Conservative windows executed (including fenced ones).
    pub windows: u64,
    /// Windows forced degenerate by a raised fence or zero lookahead.
    pub fenced_windows: u64,
    /// Shard-windows in which a shard had pending events but none below
    /// the horizon (it sat the window out).
    pub horizon_stalls: u64,
    /// Sum over windows of the number of shards with work below the
    /// horizon; divide by `windows` for average occupancy.
    pub occupancy_sum: u64,
    /// Events routed to a different shard than the one that pushed them.
    pub cross_msgs: u64,
    /// Events routed back to the pushing shard.
    pub local_msgs: u64,
}

impl SchedTelemetry {
    /// Mean number of shards that had executable work per window.
    pub fn avg_occupancy(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.windows as f64
        }
    }

    /// Fraction of routed events that crossed a shard boundary.
    pub fn cross_ratio(&self) -> f64 {
        let total = self.cross_msgs + self.local_msgs;
        if total == 0 {
            0.0
        } else {
            self.cross_msgs as f64 / total as f64
        }
    }
}

/// Lane id for events routed from outside any shard (the control thread
/// between windows, or pre-run pushes drained from the injector).
pub(crate) const NO_SHARD: u32 = u32::MAX;

thread_local! {
    /// The shard whose clock and lane the current thread executes under;
    /// set by shard workers for a whole window and by the control thread
    /// per event in fenced windows.
    static CUR_SHARD: std::cell::Cell<u32> = const { std::cell::Cell::new(NO_SHARD) };
}

pub(crate) fn current_shard() -> u32 {
    CUR_SHARD.with(|c| c.get())
}

fn set_current_shard(s: u32) {
    CUR_SHARD.with(|c| c.set(s));
}

/// One cross- or intra-shard event with its deterministic merge key.
pub(crate) struct ParEvent {
    time: Time,
    lane: u32,
    lseq: u64,
    kind: EventKind,
}

impl PartialEq for ParEvent {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.lane, self.lseq) == (other.time, other.lane, other.lseq)
    }
}
impl Eq for ParEvent {}
impl PartialOrd for ParEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ParEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.lane, self.lseq).cmp(&(other.time, other.lane, other.lseq))
    }
}

/// One shard: a clock, an inbound mailbox, and a private event heap.
struct Shard {
    /// Virtual time of the last batch this shard executed.
    clock: AtomicU64,
    mailbox: Mutex<Vec<ParEvent>>,
    mb_nonempty: AtomicBool,
    heap: Mutex<BinaryHeap<Reverse<ParEvent>>>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            clock: AtomicU64::new(0),
            mailbox: Mutex::new(Vec::new()),
            mb_nonempty: AtomicBool::new(false),
            heap: Mutex::new(BinaryHeap::new()),
        }
    }

    /// Merge the mailbox into `heap`, checking causality: an event behind
    /// the shard's clock means some interaction escaped the lookahead
    /// analysis and the run can no longer be trusted.
    fn drain_mailbox_into(&self, heap: &mut BinaryHeap<Reverse<ParEvent>>) {
        if !self.mb_nonempty.load(Ordering::Acquire) {
            return;
        }
        let mut mb = self.mailbox.lock();
        let clock = self.clock.load(Ordering::Relaxed);
        for ev in mb.drain(..) {
            assert!(
                ev.time >= clock,
                "parallel scheduler causality violation: event at t={} arrived behind \
                 shard clock {} (lane {}); rerun with GBCR_SCHED=serial and report this",
                ev.time,
                clock,
                ev.lane,
            );
            heap.push(Reverse(ev));
        }
        self.mb_nonempty.store(false, Ordering::Release);
    }

    /// Control-thread variant (takes the heap lock itself).
    fn drain_mailbox(&self) {
        if !self.mb_nonempty.load(Ordering::Acquire) {
            return;
        }
        let mut heap = self.heap.lock();
        self.drain_mailbox_into(&mut heap);
    }

    fn peek_time(&self) -> Option<Time> {
        self.heap.lock().peek().map(|Reverse(e)| e.time)
    }
}

/// Shared state of one parallel-scheduled simulation; hangs off the
/// engine's `Inner` once [`crate::Sim::enable_parallel`] succeeds.
pub(crate) struct ParState {
    shards: Vec<Shard>,
    /// Per-lane push counters; index `shards.len()` is the external lane.
    lane_seq: Vec<AtomicU64>,
    /// Owning shard per `ProcId`; extended on spawn (under the engine's
    /// process-table lock, so indices stay aligned with `ProcId`s).
    proc_shard: Mutex<Vec<u32>>,
    /// Owning shard per routing key (simulated node id) for
    /// [`crate::SimHandle::call_at_keyed`] callbacks such as fabric
    /// deliveries.
    key_shard: HashMap<u64, u32>,
    /// The conservative window width: minimum cross-shard link latency.
    lookahead: Time,
    /// True while a parallel run is in progress — the routing points in
    /// the engine only divert to mailboxes inside a run.
    pub(crate) active: AtomicBool,
    /// Events dispatched by the current run (drained at run end).
    dispatched: AtomicU64,
    windows: AtomicU64,
    fenced_windows: AtomicU64,
    horizon_stalls: AtomicU64,
    occupancy_sum: AtomicU64,
    cross_msgs: AtomicU64,
    local_msgs: AtomicU64,
}

impl ParState {
    pub(crate) fn new(
        shards: usize,
        lookahead: Time,
        proc_shard: Vec<u32>,
        key_shard: HashMap<u64, u32>,
    ) -> Self {
        assert!(shards >= 2, "parallel scheduling needs at least 2 shards");
        let in_range = |&s: &u32| (s as usize) < shards;
        assert!(proc_shard.iter().all(in_range), "process assigned to out-of-range shard");
        assert!(key_shard.values().all(in_range), "key assigned to out-of-range shard");
        ParState {
            shards: (0..shards).map(|_| Shard::new()).collect(),
            lane_seq: (0..=shards).map(|_| AtomicU64::new(0)).collect(),
            proc_shard: Mutex::new(proc_shard),
            key_shard,
            lookahead,
            active: AtomicBool::new(false),
            dispatched: AtomicU64::new(0),
            windows: AtomicU64::new(0),
            fenced_windows: AtomicU64::new(0),
            horizon_stalls: AtomicU64::new(0),
            occupancy_sum: AtomicU64::new(0),
            cross_msgs: AtomicU64::new(0),
            local_msgs: AtomicU64::new(0),
        }
    }

    /// The calling thread's shard clock, if it is executing a shard.
    pub(crate) fn local_now(&self) -> Option<Time> {
        let s = current_shard();
        if s == NO_SHARD {
            None
        } else {
            Some(self.shards[s as usize].clock.load(Ordering::Relaxed))
        }
    }

    /// Record a newly spawned process on the calling shard (shard 0 when
    /// spawned from outside any shard). Called under the engine's process
    /// table lock so the index matches the new `ProcId`.
    pub(crate) fn note_spawn(&self) {
        let s = current_shard();
        self.proc_shard.lock().push(if s == NO_SHARD { 0 } else { s });
    }

    fn shard_of_proc(&self, pid: ProcId) -> u32 {
        self.proc_shard.lock()[pid.index()]
    }

    fn call_dest(&self) -> u32 {
        let s = current_shard();
        if s == NO_SHARD {
            0
        } else {
            s
        }
    }

    /// Destination shard for an event, from its kind (wakes follow the
    /// process, un-keyed calls run on the pushing shard).
    fn dest_of(&self, kind: &EventKind) -> u32 {
        match kind {
            EventKind::Wake(pid) | EventKind::CancellableWake { pid, .. } => {
                self.shard_of_proc(*pid)
            }
            EventKind::Call { .. } => self.call_dest(),
        }
    }

    /// Route an event to `dest`'s mailbox with the pushing lane's next
    /// merge key.
    pub(crate) fn route(&self, dest: u32, time: Time, kind: EventKind) {
        let lane = current_shard();
        let lane_idx = if lane == NO_SHARD { self.shards.len() } else { lane as usize };
        let lseq = self.lane_seq[lane_idx].fetch_add(1, Ordering::Relaxed);
        if lane == dest {
            self.local_msgs.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cross_msgs.fetch_add(1, Ordering::Relaxed);
        }
        let sh = &self.shards[dest as usize];
        sh.mailbox.lock().push(ParEvent { time, lane, lseq, kind });
        sh.mb_nonempty.store(true, Ordering::Release);
    }

    pub(crate) fn route_by_kind(&self, time: Time, kind: EventKind) {
        let dest = self.dest_of(&kind);
        self.route(dest, time, kind);
    }

    /// Route a keyed callback (used by fabric deliveries) to the shard
    /// owning `key`, falling back to the pushing shard for unknown keys.
    pub(crate) fn route_keyed(&self, key: u64, time: Time, kind: EventKind) {
        let dest = self.key_shard.get(&key).copied().unwrap_or_else(|| self.call_dest());
        self.route(dest, time, kind);
    }

    pub(crate) fn telemetry(&self) -> SchedTelemetry {
        SchedTelemetry {
            shards: self.shards.len() as u64,
            windows: self.windows.load(Ordering::Relaxed),
            fenced_windows: self.fenced_windows.load(Ordering::Relaxed),
            horizon_stalls: self.horizon_stalls.load(Ordering::Relaxed),
            occupancy_sum: self.occupancy_sum.load(Ordering::Relaxed),
            cross_msgs: self.cross_msgs.load(Ordering::Relaxed),
            local_msgs: self.local_msgs.load(Ordering::Relaxed),
        }
    }
}

/// What the control thread asks the shard workers to do next.
#[derive(Clone, Copy)]
enum Job {
    /// Execute your shard up to (exclusive) the horizon.
    Run { horizon: Time },
    Exit,
}

/// Generation-stamped window barrier between the control thread and the
/// shard workers.
struct WindowCtl {
    m: Mutex<WindowState>,
    worker_cv: Condvar,
    control_cv: Condvar,
}

struct WindowState {
    gen: u64,
    job: Job,
    remaining: usize,
}

impl WindowCtl {
    fn new() -> Self {
        WindowCtl {
            m: Mutex::new(WindowState { gen: 0, job: Job::Exit, remaining: 0 }),
            worker_cv: Condvar::new(),
            control_cv: Condvar::new(),
        }
    }

    /// Publish a window to all workers and block until they all finish.
    fn run_window(&self, horizon: Time, workers: usize) {
        let mut st = self.m.lock();
        st.gen += 1;
        st.job = Job::Run { horizon };
        st.remaining = workers;
        self.worker_cv.notify_all();
        while st.remaining > 0 {
            self.control_cv.wait(&mut st);
        }
    }

    fn shutdown(&self) {
        let mut st = self.m.lock();
        st.gen += 1;
        st.job = Job::Exit;
        self.worker_cv.notify_all();
    }
}

/// Resolve `pid`'s gate through a thread-local cache of the shared
/// process table (one lock per spawn, not per wake).
fn gate_of(
    gates: &mut Vec<Arc<dyn Gate>>,
    inner: &Inner,
    pid: ProcId,
) -> Arc<dyn Gate> {
    if pid.index() >= gates.len() {
        let procs = inner.procs.lock();
        gates.extend(procs[gates.len()..].iter().map(|s| s.gate.clone()));
    }
    gates[pid.index()].clone()
}

/// Execute one event on the calling thread (which has its shard context
/// set). Mirrors the serial dispatch arms minus tracing — parallel runs
/// never trace (the engine guards enablement).
fn dispatch_event(
    inner: &Arc<Inner>,
    handle: &SimHandle,
    gates: &mut Vec<Arc<dyn Gate>>,
    kind: EventKind,
) -> SimResult<()> {
    match kind {
        EventKind::Wake(pid) => {
            if let Err(e) = gate_of(gates, inner, pid).resume() {
                return Err(resume_error_for(inner, pid, e));
            }
        }
        EventKind::CancellableWake { slot, gen, pid } => {
            if inner.timers.retire(slot, gen) {
                if let Err(e) = gate_of(gates, inner, pid).resume() {
                    return Err(resume_error_for(inner, pid, e));
                }
            }
        }
        EventKind::Call { slot, gen, f } => {
            if inner.timers.retire(slot, gen) {
                f(handle);
            }
        }
    }
    Ok(())
}

/// Worker body: execute `shard` for every published window until told to
/// exit. The first error anywhere abandons the current window (remaining
/// workers still finish theirs; the control thread returns the error).
fn worker_loop(
    shard: u32,
    inner: &Arc<Inner>,
    par: &ParState,
    ctl: &WindowCtl,
    first_err: &Mutex<Option<SimError>>,
) {
    set_current_shard(shard);
    let handle = SimHandle { inner: Arc::clone(inner) };
    let mut gates: Vec<Arc<dyn Gate>> = Vec::new();
    let mut my_gen = 0u64;
    loop {
        let job = {
            let mut st = ctl.m.lock();
            while st.gen == my_gen {
                ctl.worker_cv.wait(&mut st);
            }
            my_gen = st.gen;
            st.job
        };
        let horizon = match job {
            Job::Exit => break,
            Job::Run { horizon } => horizon,
        };
        run_shard_window(shard, inner, &handle, par, &mut gates, horizon, first_err);
        let mut st = ctl.m.lock();
        st.remaining -= 1;
        if st.remaining == 0 {
            ctl.control_cv.notify_one();
        }
    }
    set_current_shard(NO_SHARD);
}

/// Execute every event of one shard strictly below `horizon`, including
/// events that land in the shard's mailbox mid-window (self wakes, and
/// cross-shard traffic — which the lookahead guarantees is at or beyond
/// the horizon, so it merely queues for the next window).
fn run_shard_window(
    shard: u32,
    inner: &Arc<Inner>,
    handle: &SimHandle,
    par: &ParState,
    gates: &mut Vec<Arc<dyn Gate>>,
    horizon: Time,
    first_err: &Mutex<Option<SimError>>,
) {
    let sh = &par.shards[shard as usize];
    let mut heap = sh.heap.lock();
    let mut dispatched: u64 = 0;
    'window: loop {
        sh.drain_mailbox_into(&mut heap);
        let batch_time = match heap.peek() {
            Some(Reverse(e)) if e.time < horizon => e.time,
            _ => break,
        };
        debug_assert!(batch_time >= sh.clock.load(Ordering::Relaxed), "shard time reversed");
        sh.clock.store(batch_time, Ordering::Relaxed);
        loop {
            let ev = match heap.peek() {
                Some(Reverse(e)) if e.time == batch_time => heap.pop().expect("peeked").0,
                _ => break,
            };
            dispatched += 1;
            if let Err(e) = dispatch_event(inner, handle, gates, ev.kind) {
                let mut slot = first_err.lock();
                if slot.is_none() {
                    *slot = Some(e);
                }
                break 'window;
            }
        }
    }
    par.dispatched.fetch_add(dispatched, Ordering::Relaxed);
}

/// Degenerate window: merge the global `t == t_min` batch across all
/// shards in `(lane, lane_seq)` order and execute it serially on the
/// control thread, with the executing shard's context set per event.
/// Used while a fence is raised and under zero lookahead.
fn run_fenced_batch(
    inner: &Arc<Inner>,
    handle: &SimHandle,
    par: &ParState,
    gates: &mut Vec<Arc<dyn Gate>>,
    t_min: Time,
) -> SimResult<()> {
    let mut occupied: Vec<bool> = vec![false; par.shards.len()];
    let mut dispatched: u64 = 0;
    let result = 'batch: loop {
        let mut batch: Vec<(u32, ParEvent)> = Vec::new();
        for (i, s) in par.shards.iter().enumerate() {
            s.drain_mailbox();
            let mut heap = s.heap.lock();
            while matches!(heap.peek(), Some(Reverse(e)) if e.time == t_min) {
                batch.push((i as u32, heap.pop().expect("peeked").0));
            }
        }
        if batch.is_empty() {
            break Ok(());
        }
        batch.sort_by_key(|(_, e)| (e.lane, e.lseq));
        for (shard, ev) in batch {
            occupied[shard as usize] = true;
            let sh = &par.shards[shard as usize];
            if t_min > sh.clock.load(Ordering::Relaxed) {
                sh.clock.store(t_min, Ordering::Relaxed);
            }
            set_current_shard(shard);
            dispatched += 1;
            let r = dispatch_event(inner, handle, gates, ev.kind);
            set_current_shard(NO_SHARD);
            if let Err(e) = r {
                break 'batch Err(e);
            }
        }
    };
    par.dispatched.fetch_add(dispatched, Ordering::Relaxed);
    par.occupancy_sum.fetch_add(occupied.iter().filter(|&&o| o).count() as u64, Ordering::Relaxed);
    result
}

/// The parallel analogue of the serial `run_inner` loop. Returns exactly
/// the serial result surface: final time on drain, `Deadlock` with the
/// blocked process list, `HorizonReached` past `horizon`, or the first
/// process error.
pub(crate) fn run_parallel(sim: &mut Sim, horizon: Time) -> SimResult<Time> {
    let inner = Arc::clone(&sim.handle.inner);
    let par = Arc::clone(inner.par.get().expect("parallel state configured"));
    let nshards = par.shards.len();
    par.active.store(true, Ordering::Release);
    // Anything a previous serial run left in the scheduler-private heap
    // migrates to the shards, preserving its `(time, seq)` order.
    let mut leftovers: Vec<QueuedEvent> = Vec::new();
    while let Some(Reverse(ev)) = sim.heap.pop() {
        leftovers.push(ev);
    }
    leftovers.sort_by_key(|e| (e.time, e.seq));
    for ev in leftovers {
        par.route_by_kind(ev.time, ev.kind);
    }
    let ctl = WindowCtl::new();
    let first_err: Mutex<Option<SimError>> = Mutex::new(None);
    let result = std::thread::scope(|scope| {
        for i in 0..nshards {
            let (inner, par, ctl, first_err) = (&inner, &*par, &ctl, &first_err);
            scope.spawn(move || worker_loop(i as u32, inner, par, ctl, first_err));
        }
        let r = control_loop(&inner, &par, &ctl, &first_err, horizon);
        ctl.shutdown();
        r
    });
    par.active.store(false, Ordering::Release);
    let dispatched = par.dispatched.swap(0, Ordering::Relaxed);
    sim.events += dispatched;
    crate::engine::note_total_events(dispatched);
    result
}

fn control_loop(
    inner: &Arc<Inner>,
    par: &ParState,
    ctl: &WindowCtl,
    first_err: &Mutex<Option<SimError>>,
    horizon: Time,
) -> SimResult<Time> {
    let handle = SimHandle { inner: Arc::clone(inner) };
    let mut gates: Vec<Arc<dyn Gate>> = Vec::new();
    let mut drain_buf: Vec<QueuedEvent> = Vec::new();
    loop {
        // Injector traffic (pre-run pushes, spawns from outside the run)
        // migrates to the shards in its global `(time, seq)` order.
        inner.injector.drain_into(&mut drain_buf);
        drain_buf.sort_by_key(|e| (e.time, e.seq));
        for ev in drain_buf.drain(..) {
            par.route_by_kind(ev.time, ev.kind);
        }
        for s in &par.shards {
            s.drain_mailbox();
        }
        let peeks: Vec<Option<Time>> = par.shards.iter().map(Shard::peek_time).collect();
        let Some(t_min) = peeks.iter().flatten().copied().min() else {
            let now = inner.now.load(Ordering::Relaxed);
            let blocked: Vec<String> = inner
                .procs
                .lock()
                .iter()
                .filter(|p| !p.gate.is_done())
                .map(|p| p.name.to_string())
                .collect();
            return if blocked.is_empty() {
                Ok(now)
            } else {
                Err(SimError::Deadlock { at: now, blocked })
            };
        };
        if t_min > horizon {
            return Err(SimError::HorizonReached { at: horizon });
        }
        let fenced = inner.fence.load(Ordering::Acquire) > 0 || par.lookahead == 0;
        par.windows.fetch_add(1, Ordering::Relaxed);
        if fenced {
            par.fenced_windows.fetch_add(1, Ordering::Relaxed);
            run_fenced_batch(inner, &handle, par, &mut gates, t_min)?;
            if t_min > inner.now.load(Ordering::Relaxed) {
                inner.now.store(t_min, Ordering::Relaxed);
            }
            continue;
        }
        let h = t_min.saturating_add(par.lookahead).min(horizon.saturating_add(1));
        let mut occupied = 0u64;
        let mut stalled = 0u64;
        for p in &peeks {
            match p {
                Some(t) if *t < h => occupied += 1,
                Some(_) => stalled += 1,
                None => {}
            }
        }
        par.occupancy_sum.fetch_add(occupied, Ordering::Relaxed);
        par.horizon_stalls.fetch_add(stalled, Ordering::Relaxed);
        ctl.run_window(h, par.shards.len());
        if let Some(e) = first_err.lock().take() {
            return Err(e);
        }
        let max_clock =
            par.shards.iter().map(|s| s.clock.load(Ordering::Relaxed)).max().unwrap_or(0);
        if max_clock > inner.now.load(Ordering::Relaxed) {
            inner.now.store(max_clock, Ordering::Relaxed);
        }
    }
}
