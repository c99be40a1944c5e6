//! The parallel sweep runner.
//!
//! Every figure in the paper's evaluation is a sweep of independent
//! `(JobSpec, CoordinatorCfg)` simulations plus one bare baseline run per
//! spec. [`run_sweep`] fans those cells over a scoped worker pool: each
//! cell is a self-contained deterministic [`Sim`](gbcr_des::Sim), so the
//! results are bit-for-bit identical whatever the thread count — only the
//! wall-clock time changes. Results are assembled in cell-index order, so
//! output ordering (and which error is reported first) is deterministic
//! too.

use gbcr_core::{CoordinatorCfg, JobSpec, RunReport};
use gbcr_des::SimResult;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// One workload spec plus every coordinator configuration to run on it.
///
/// [`run_sweep`] runs the spec bare exactly once per group (the shared
/// baseline is deduplicated across the group's cells) and once per config.
#[derive(Clone)]
pub struct SweepGroup {
    /// The workload to simulate.
    pub spec: JobSpec,
    /// The checkpoint configurations to measure on it, in output order.
    pub cfgs: Vec<CoordinatorCfg>,
}

impl SweepGroup {
    /// Convenience constructor.
    pub fn new(spec: JobSpec, cfgs: Vec<CoordinatorCfg>) -> Self {
        SweepGroup { spec, cfgs }
    }
}

/// All reports produced for one [`SweepGroup`], in the group's cfg order.
#[derive(Debug, Clone)]
pub struct GroupReports {
    /// The bare (no-checkpoint) run of the group's spec.
    pub baseline: RunReport,
    /// One checkpointed run per config, aligned with [`SweepGroup::cfgs`].
    pub runs: Vec<RunReport>,
}

/// Resolve the worker count for [`run_sweep`]: an explicit argument, else
/// the machine's available parallelism. Never less than 1: a zero clamps
/// to one worker.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    match explicit {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Run `count` independent cells over a pool of `threads` workers
/// (resolved via [`resolve_threads`] when `None`), assembling results in
/// cell-index order. Workers take cells in index order too.
///
/// The generic engine underneath [`run_sweep`], exposed for sweeps whose
/// cells are not `(spec, cfg)` pairs — e.g. the fault sweep, where one
/// cell is an entire supervised multi-attempt run. Each cell must be
/// self-contained and deterministic in its index; then the output is
/// byte-identical whatever the worker count.
pub fn run_cells<T, F>(count: usize, threads: Option<usize>, run: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    let workers = resolve_threads(threads).min(count.max(1));
    if workers <= 1 {
        return (0..count).map(run).collect();
    }
    let slots: Vec<OnceLock<T>> = (0..count).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let _ = slots[i].set(run(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every dispensed cell stored a result"))
        .collect()
}

/// Run every cell of `groups` — one baseline per group plus one run per
/// config — over a pool of `threads` workers (resolved via
/// [`resolve_threads`] when `None`).
///
/// Each cell is an independent deterministic simulation, so the returned
/// reports are identical to a serial run; with more than one worker only
/// the wall-clock time changes. On error, the first failing cell in task
/// order is reported, regardless of which worker hit it first.
pub fn run_sweep(groups: &[SweepGroup], threads: Option<usize>) -> SimResult<Vec<GroupReports>> {
    // Flatten to (group, cfg-or-baseline) tasks: index order is output order.
    let mut tasks: Vec<(usize, Option<usize>)> = Vec::new();
    for (g, group) in groups.iter().enumerate() {
        tasks.push((g, None));
        for c in 0..group.cfgs.len() {
            tasks.push((g, Some(c)));
        }
    }
    let results = run_cells(tasks.len(), threads, |i| {
        let (g, c) = tasks[i];
        let group = &groups[g];
        group.spec.runner().ckpt_opt(c.map(|j| group.cfgs[j].clone())).run()
    });

    // Reassemble in task order; `?` surfaces the first error deterministically.
    let mut results = results.into_iter();
    groups
        .iter()
        .map(|group| {
            let baseline = results.next().expect("task list covers every group")?;
            let runs = results.by_ref().take(group.cfgs.len()).collect::<SimResult<_>>()?;
            Ok(GroupReports { baseline, runs })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbcr_core::CkptSchedule;
    use gbcr_workloads::MicroBench;

    /// The same sweep must produce byte-identical reports on 1 worker and
    /// on many; run_sweep's parallelism can only change wall time.
    #[test]
    fn sweep_is_thread_count_invariant() {
        let specs = [
            MicroBench { n: 8, comm_group_size: 4, steps: 40, ..Default::default() },
            MicroBench { n: 4, comm_group_size: 2, steps: 40, ..Default::default() },
        ];
        let groups: Vec<SweepGroup> = specs
            .iter()
            .map(|mb| {
                let cfgs = [4u32, 2]
                    .iter()
                    .map(|&g| {
                        CoordinatorCfg::new("micro", g, CkptSchedule::once(gbcr_des::time::secs(5)))
                    })
                    .collect();
                SweepGroup::new(mb.job(), cfgs)
            })
            .collect();
        let serial = run_sweep(&groups, Some(1)).unwrap();
        let parallel = run_sweep(&groups, Some(4)).unwrap();
        // Reports elide host-time counters from `Debug`, so the dumps
        // compare every model output at once.
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }

    #[test]
    fn resolve_threads_prefers_explicit() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1, "zero clamps to one worker");
        assert!(resolve_threads(None) >= 1);
    }
}
