//! What a simulation runs its processes on, as the host sees it.
//!
//! There is one executor — every simulated process is a stackful coroutine
//! ([`crate::pool`]) resumed inline by the thread that drives its
//! simulation — and one scheduler, the `(time, seq)` loop of `Sim::run`
//! (DESIGN §3.1, §3.8). This module holds the names the benchmark prints
//! for them and a simulation's execution counters.

use std::cell::Cell;

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

    /// `benchmark/src/child.rs` prints these as host-description fields.
    #[test]
    fn executor_kind_names_are_stable() {
        assert_eq!(executor_default().name(), "pooled");
        assert_eq!(sched_default().name(), "serial");
        assert_eq!(pool_threads(), 1);
    }
}
