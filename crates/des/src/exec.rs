//! What a simulation runs its processes on, as the host sees it.
//!
//! There is one executor — every simulated process is a stackful coroutine
//! ([`crate::pool`]) resumed inline by the thread that drives its
//! simulation — and one scheduler, the `(time, seq)` loop of `Sim::run`
//! (DESIGN §3.1, §3.8). This module holds the names the benchmark prints
//! for them, the one environment knob (the coroutine stack size) and a
//! simulation's execution counters.

use std::cell::Cell;
use std::sync::OnceLock;

/// The executor simulated processes run on. There is one; this type and
/// [`executor_default`] exist only because `benchmark/src/child.rs` prints
/// the name as a host-description field, and go when a `benchmark` PR
/// drops it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecKind {
    /// Resumable tasks (stackful coroutines) hosted by the thread that
    /// dispatches them: no OS thread per rank, no thread handoff per event.
    Pooled,
}

impl ExecKind {
    /// Stable lower-case name, as emitted in benchmark JSON.
    pub fn name(self) -> &'static str {
        "pooled"
    }
}

/// The executor every simulation uses; printed by `benchmark/src/child.rs`.
pub fn executor_default() -> ExecKind {
    ExecKind::Pooled
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

/// The scheduler every run uses; printed by `benchmark/src/child.rs`.
pub fn sched_default() -> SchedKind {
    SchedKind::Serial
}

/// OS threads that host a simulation's process slices: the one driving
/// `Sim::run`. Printed by `benchmark/src/child.rs`.
pub fn pool_threads() -> usize {
    1
}

/// Coroutine stack KiB when `GBCR_STACK_KB` is unset or unusable.
const STACK_KB: usize = 1024;

/// Coroutine stack size in bytes: `GBCR_STACK_KB` KiB, 1 MiB by default.
/// Stacks are lazily committed, so generous sizes cost virtual address
/// space, not resident memory. Read once per process: a sweep builds
/// thousands of `Sim`s, and a rejected value should be reported once, not
/// once per simulation.
pub(crate) fn stack_bytes() -> usize {
    static BYTES: OnceLock<usize> = OnceLock::new();
    *BYTES.get_or_init(|| {
        let Ok(raw) = std::env::var("GBCR_STACK_KB") else { return STACK_KB * 1024 };
        stack_bytes_from(&raw).unwrap_or_else(|kb| {
            eprintln!("GBCR_STACK_KB={raw:?} is not a usable stack size in KiB; using {kb}");
            kb * 1024
        })
    })
}

/// `raw` KiB in bytes, or `Err` of the KiB to use instead: for anything
/// that is not a positive integer, and for a count whose bytes overflow.
fn stack_bytes_from(raw: &str) -> Result<usize, usize> {
    parse_positive(raw, STACK_KB, STACK_KB)?.checked_mul(1024).ok_or(STACK_KB)
}

/// `Ok` for a positive integer, else `Err` of the value to use instead.
fn parse_positive(raw: &str, garbage: usize, zero: usize) -> Result<usize, usize> {
    match raw.trim().parse() {
        Ok(0) => Err(zero),
        Ok(n) => Ok(n),
        Err(_) => Err(garbage),
    }
}

/// Execution counters for one simulation: spawn/teardown cost and
/// process-liveness high-water marks, reported next to the engine's
/// event/elision counters.
#[derive(Default)]
pub(crate) struct ExecStats {
    pub(crate) spawned: Cell<u64>,
    live: Cell<u64>,
    pub(crate) peak_live: Cell<u64>,
    pub(crate) spawn_ns: Cell<u64>,
    pub(crate) teardown_ns: Cell<u64>,
}

impl ExecStats {
    pub(crate) fn task_spawned(&self) {
        add(&self.spawned, 1);
        add(&self.live, 1);
        self.peak_live.set(self.peak_live.get().max(self.live.get()));
    }

    pub(crate) fn task_done(&self) {
        self.live.set(self.live.get() - 1);
    }
}

/// `*counter += n`.
pub(crate) fn add(counter: &Cell<u64>, n: u64) {
    counter.set(counter.get() + n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_positive_rejects_empty_garbage_and_zero() {
        assert_eq!(parse_positive("", 8, 1), Err(8));
        assert_eq!(parse_positive("abc", 8, 1), Err(8));
        assert_eq!(parse_positive("0", 8, 1), Err(1));
        assert_eq!(parse_positive(" 4 ", 8, 1), Ok(4));
    }

    /// 2^54 KiB is 2^64 bytes: unchecked, that wrapped to a 0-byte request
    /// and every process silently ran on the 16 KiB minimum stack.
    #[test]
    fn stack_size_whose_bytes_overflow_falls_back_like_garbage() {
        assert_eq!(stack_bytes_from("18014398509481984"), Err(STACK_KB));
        assert_eq!(stack_bytes_from("abc"), Err(STACK_KB));
        assert_eq!(stack_bytes_from("0"), Err(STACK_KB));
        assert_eq!(stack_bytes_from(" 64 "), Ok(64 * 1024));
    }

    /// `benchmark/src/child.rs` prints these as host-description fields.
    #[test]
    fn executor_kind_names_are_stable() {
        assert_eq!(executor_default().name(), "pooled");
        assert_eq!(sched_default().name(), "serial");
        assert_eq!(pool_threads(), 1);
    }
}
