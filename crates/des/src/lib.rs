//! # gbcr-des — deterministic discrete-event simulation engine
//!
//! The substrate every other crate in this workspace runs on. It provides a
//! virtual clock with nanosecond resolution, an event queue with a total
//! deterministic order, and *blocking simulated processes*: each simulated
//! entity (an MPI rank, a storage server, the checkpoint coordinator) is
//! written as ordinary straight-line blocking code — exactly like a real
//! MPI program — while a handoff protocol guarantees **exactly one**
//! simulated process executes at any instant, keeping the whole run
//! bit-for-bit reproducible for a given seed.
//!
//! This mirrors the classic process-oriented simulation style (SimPy,
//! OMNeT++ "activities"): a process runs until it *yields* — by sleeping,
//! by parking until another process wakes it, or by finishing — and the scheduler then
//! dispatches the next event in `(time, sequence)` order. There is one
//! loop and one such order; the queue under it stores a run of consecutive
//! same-time pushes as one entry, which no other event can sort into
//! (DESIGN.md §3.1).
//!
//! ## Why blocking processes and not async?
//!
//! The workloads we simulate (HPL, MotifMiner, the paper's micro-benchmarks)
//! are most naturally expressed as blocking MPI programs, so the
//! user-facing API stays free of combinators and lifetimes. Underneath,
//! each process is a stackful coroutine resumed on the thread that
//! dispatches its event: no OS thread per rank and no thread handoff per
//! event, which is what makes 10k-rank simulations affordable. The stack
//! switch and the guarded stacks are written for x86-64 Linux; on any
//! other target this crate does not build. Determinism is a property of
//! the scheduler's total event order, and `tests/executors.rs` pins one
//! event table to it.
//!
//! ## One simulation, one thread
//!
//! Because one simulated process runs at a time, nothing a simulation owns
//! is ever accessed concurrently, and none of it is synchronised: a
//! [`Sim`], its [`SimHandle`]s and whatever is built from them hold their
//! state in `Rc`, `RefCell` and `Cell`, and are therefore neither `Send`
//! nor `Sync`. The rule for code written against this crate is *never park
//! while holding a borrow* — the next process to touch that cell panics,
//! and [`Sim::run`] reports it as [`SimError::ProcessPanicked`]. To use
//! several cores, build and run each simulation on a thread of its own
//! (`gbcr_metrics::run_cells` does); specs go in and reports come out,
//! handles never cross.
//!
//! ## Quick example
//!
//! ```
//! use gbcr_des::{Sim, time};
//!
//! let mut sim = Sim::new(42);
//! let consumer = sim.spawn("consumer", |p| {
//!     p.park();
//!     assert_eq!(p.now(), time::ms(10));
//! });
//! sim.spawn("producer", move |p| {
//!     p.sleep(time::ms(10));
//!     p.handle().wake(consumer);
//! });
//! let end = sim.run().unwrap();
//! assert_eq!(end, time::ms(10));
//! ```

#![warn(missing_docs)]

mod coro;
mod engine;
mod error;
mod exec;
mod pool;
mod process;
pub mod time;
mod timer;
mod wake;

/// The structured tracing subsystem (re-exported so downstream crates
/// reach span/instant types through the engine they already depend on).
pub use gbcr_trace as trace;

pub use engine::{
    total_events_processed, total_procs_spawned, total_wakes_elided, Sim, SimHandle,
};
pub use error::{SimError, SimResult};
pub use exec::{executor_default, pool_threads, sched_default, ExecKind, SchedKind};
pub use gbcr_trace::{Arg, ArgValue, Instant, Span, TraceData, TraceLevel, Tracer, Track};
#[doc(hidden)]
pub use process::kill_unwind_flag_set;
pub use process::{Proc, ProcId};
pub use time::Time;
pub use timer::TimerHandle;
pub use wake::DemandWake;
