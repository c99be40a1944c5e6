//! # gbcr-bench — regenerators for every figure in the paper's evaluation
//!
//! One module per figure (the paper has no numbered tables; Figures 1 and
//! 3–7 carry the evaluation; Figure 2 is a protocol diagram). Each module
//! exposes a `run(.., threads)` returning structured rows plus a `table()`
//! rendering the same series the paper plots. [`figures::FIGURES`] lists
//! every section once; the `gbcr` binary is a lookup in that table.
//!
//! Paper-reported anchor values are kept alongside in [`paper`] so every
//! table can print the measured-vs-paper comparison.

#![warn(missing_docs)]

pub mod ablations;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig10;
pub mod fig8;
pub mod fig9;
pub mod figures;
pub mod paper;
pub mod scale;
pub mod taxonomy;
pub mod trace;

use gbcr_core::{CkptSchedule, CoordinatorCfg};
use gbcr_des::Time;
use gbcr_metrics::{run_sweep, GroupReports, SweepGroup};

/// Checkpoint group sizes swept in Figures 3, 5, 6, 7 (`32` = the regular
/// coordinated baseline, "All").
pub const GROUP_SIZES: [u32; 6] = [32, 16, 8, 4, 2, 1];

/// A static-formation coordinator config with one checkpoint at `at`.
pub fn static_cfg(job: &str, group_size: u32, at: Time) -> CoordinatorCfg {
    CoordinatorCfg::new(job, group_size, CkptSchedule::once(at))
}

/// Label used for a checkpoint group size in the tables.
pub fn size_label(n: u32, g: u32) -> String {
    if g >= n {
        format!("All({n})")
    } else if g == 1 {
        "Individual(1)".to_owned()
    } else {
        format!("Group({g})")
    }
}

/// One measured cell of a (issuance time × group size) sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Checkpoint issuance time, seconds.
    pub at_secs: f64,
    /// Checkpoint group size.
    pub group_size: u32,
    /// Effective Checkpoint Delay, seconds.
    pub effective: f64,
    /// Mean Individual Checkpoint Time, seconds.
    pub individual: f64,
    /// Min/max Individual across ranks, seconds.
    pub individual_min: f64,
    /// Max Individual across ranks, seconds.
    pub individual_max: f64,
    /// Total Checkpoint Time, seconds.
    pub total: f64,
}

/// A full sweep over issuance points × group sizes for one workload.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// World size.
    pub n: u32,
    /// Baseline (no-checkpoint) completion, seconds.
    pub baseline_secs: f64,
    /// Measured cells, in `points × sizes` order.
    pub cells: Vec<Cell>,
}

impl Sweep {
    /// All cells for one group size, ordered by issuance point.
    pub fn series(&self, group_size: u32) -> Vec<&Cell> {
        self.cells.iter().filter(|c| c.group_size == group_size).collect()
    }

    /// Mean effective delay for one group size.
    pub fn avg_effective(&self, group_size: u32) -> f64 {
        let s = self.series(group_size);
        s.iter().map(|c| c.effective).sum::<f64>() / s.len() as f64
    }

    /// Min/max effective delay for one group size.
    pub fn min_max_effective(&self, group_size: u32) -> (f64, f64) {
        let s = self.series(group_size);
        let min = s.iter().map(|c| c.effective).fold(f64::INFINITY, f64::min);
        let max = s.iter().map(|c| c.effective).fold(0.0, f64::max);
        (min, max)
    }

    /// Average reduction of a group size relative to the regular (`All`)
    /// baseline, as a fraction in `[0, 1]`.
    pub fn avg_reduction(&self, group_size: u32) -> f64 {
        1.0 - self.avg_effective(group_size) / self.avg_effective(self.n)
    }

    /// Largest single-point reduction for a group size.
    pub fn max_reduction(&self, group_size: u32) -> f64 {
        self.series(group_size)
            .iter()
            .zip(self.series(self.n))
            .map(|(g, all)| 1.0 - g.effective / all.effective)
            .fold(0.0, f64::max)
    }
}

/// The coordinator configs of a `points × sizes` sweep, in cell order.
fn sweep_cfgs(job: &str, points: &[Time], sizes: &[u32]) -> Vec<CoordinatorCfg> {
    let mut cfgs = Vec::with_capacity(points.len() * sizes.len());
    for &at in points {
        for &g in sizes {
            cfgs.push(static_cfg(job, g, at));
        }
    }
    cfgs
}

/// Turn one group's reports back into the `points × sizes` cell matrix,
/// preserving the exact serial cell order.
fn sweep_from_reports(n: u32, points: &[Time], sizes: &[u32], gr: GroupReports) -> Sweep {
    let baseline = gr.baseline;
    let mut runs = gr.runs.into_iter();
    let mut cells = Vec::with_capacity(points.len() * sizes.len());
    for &at in points {
        for &g in sizes {
            let ck = runs.next().expect("one checkpointed run per cell");
            let ep = ck.epochs.first().unwrap_or_else(|| {
                panic!("checkpoint at {} never ran", gbcr_des::time::fmt(at))
            });
            cells.push(Cell {
                at_secs: gbcr_des::time::as_secs_f64(at),
                group_size: g,
                effective: gbcr_des::time::as_secs_f64(
                    ck.completion.saturating_sub(baseline.completion),
                ),
                individual: gbcr_des::time::as_secs_f64(ep.mean_individual()),
                individual_min: gbcr_des::time::as_secs_f64(
                    ep.individuals.iter().map(|(_, t)| *t).min().unwrap_or(0),
                ),
                individual_max: gbcr_des::time::as_secs_f64(ep.max_individual()),
                total: gbcr_des::time::as_secs_f64(ep.total_time()),
            });
        }
    }
    Sweep {
        n,
        baseline_secs: gbcr_des::time::as_secs_f64(baseline.completion),
        cells,
    }
}

/// Run several sweeps — one per `(spec, job)` workload — through the
/// parallel harness in a single fan-out: every baseline and checkpointed
/// run across all workloads becomes one pool task.
pub fn sweep_many(
    workloads: &[(gbcr_core::JobSpec, &str)],
    points: &[Time],
    sizes: &[u32],
    threads: Option<usize>,
) -> Vec<Sweep> {
    let groups: Vec<SweepGroup> = workloads
        .iter()
        .map(|(spec, job)| SweepGroup::new(spec.clone(), sweep_cfgs(job, points, sizes)))
        .collect();
    let reports = run_sweep(&groups, threads).expect("sweep runs");
    workloads
        .iter()
        .zip(reports)
        .map(|((spec, _), gr)| sweep_from_reports(spec.mpi.n, points, sizes, gr))
        .collect()
}

/// Run one spec bare and under each of `cfgs` through the parallel
/// harness: the shape of every ablation, the taxonomy and a scale point.
pub(crate) fn sweep_one(
    spec: &gbcr_core::JobSpec,
    cfgs: Vec<CoordinatorCfg>,
    threads: Option<usize>,
) -> GroupReports {
    run_sweep(&[SweepGroup::new(spec.clone(), cfgs)], threads)
        .expect("sweep runs")
        .pop()
        .expect("one group in, one out")
}

/// Run one workload's sweep: one baseline run plus one checkpointed run
/// per (point, size) pair, fanned over the [`run_sweep`] worker pool
/// (`threads: None` = all available cores). `job` must
/// match the spec's image namespace.
pub fn sweep(
    spec: &gbcr_core::JobSpec,
    job: &str,
    points: &[Time],
    sizes: &[u32],
    threads: Option<usize>,
) -> Sweep {
    sweep_many(&[(spec.clone(), job)], points, sizes, threads).pop().expect("one sweep")
}
