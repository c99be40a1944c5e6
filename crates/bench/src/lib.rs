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
mod json;
pub mod paper;
pub mod scale;
pub mod taxonomy;
pub mod trace;

use gbcr_core::{CkptSchedule, CoordinatorCfg, RunReport};
use gbcr_des::{time, Time};
use gbcr_metrics::{run_sweep, GroupReports, SweepGroup, Table};

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

/// The paper's three §5 metrics of one checkpointed run, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Effective Checkpoint Delay.
    pub effective: f64,
    /// Mean Individual Checkpoint Time.
    pub individual: f64,
    /// Min Individual across ranks.
    pub individual_min: f64,
    /// Max Individual across ranks.
    pub individual_max: f64,
    /// Total Checkpoint Time.
    pub total: f64,
}

impl Cell {
    /// Measure `ck`'s first checkpoint against `baseline`, the same job
    /// run bare. Every figure, `gbcr run` and the examples read the §5
    /// metrics from here; the definitions themselves are
    /// [`RunReport::effective_delay`] and the [`gbcr_core::EpochReport`]
    /// methods.
    ///
    /// Panics if the checkpoint never ran (issued after job completion).
    pub fn measure(baseline: &RunReport, ck: &RunReport) -> Cell {
        let ep = ck.epochs.first().unwrap_or_else(|| {
            panic!(
                "checkpoint never ran: the job finished at {} (job too short?)",
                time::fmt(ck.completion)
            )
        });
        Cell {
            effective: time::as_secs_f64(ck.effective_delay(baseline)),
            individual: time::as_secs_f64(ep.mean_individual()),
            individual_min: time::as_secs_f64(ep.min_individual()),
            individual_max: time::as_secs_f64(ep.max_individual()),
            total: time::as_secs_f64(ep.total_time()),
        }
    }
}

/// One group's checkpointed runs measured against its baseline, in cfg
/// order.
pub(crate) fn cells(gr: &GroupReports) -> Vec<Cell> {
    gr.runs.iter().map(|ck| Cell::measure(&gr.baseline, ck)).collect()
}

/// A full sweep over issuance points × group sizes for one workload.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// World size.
    pub n: u32,
    /// Issuance points swept, seconds: the rows of the matrix.
    pub points: Vec<f64>,
    /// Checkpoint group sizes swept: the columns of the matrix.
    pub sizes: Vec<u32>,
    /// Measured cells, in `points × sizes` (row-major) order.
    pub cells: Vec<Cell>,
}

impl Sweep {
    /// The column of `group_size`. Panics, naming the column, if it was
    /// not swept.
    fn column(&self, group_size: u32) -> usize {
        self.sizes.iter().position(|&g| g == group_size).unwrap_or_else(|| {
            panic!(
                "the sweep has no {} column (sizes swept: {:?})",
                size_label(self.n, group_size),
                self.sizes
            )
        })
    }

    /// The cell at row `point` (an index into [`points`](Sweep::points))
    /// of the `group_size` column.
    pub fn cell(&self, point: usize, group_size: u32) -> &Cell {
        &self.cells[point * self.sizes.len() + self.column(group_size)]
    }

    /// All cells for one group size, ordered by issuance point.
    pub fn series(&self, group_size: u32) -> Vec<&Cell> {
        let col = self.column(group_size);
        self.cells.iter().skip(col).step_by(self.sizes.len()).collect()
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
    /// baseline, as a fraction in `[0, 1]`. Panics if the `All(n)` column
    /// was not swept.
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

    /// The per-point matrix Figures 5 and 7 print: one row per issuance
    /// point, one Effective Checkpoint Delay column per swept group size.
    pub fn matrix(&self, title: &str) -> Table {
        let mut header: Vec<String> = vec!["issuance (s)".into()];
        header.extend(self.sizes.iter().map(|&g| size_label(self.n, g)));
        let mut t = Table::new(title, &header);
        for (at, row) in self.points.iter().zip(self.cells.chunks(self.sizes.len())) {
            let mut cells = vec![format!("{at:.0}")];
            cells.extend(row.iter().map(|c| format!("{:.1}", c.effective)));
            t.row(&cells);
        }
        t
    }
}

/// The coordinator configs of a `points × sizes` sweep, in cell order.
fn sweep_cfgs(job: &str, points: &[Time], sizes: &[u32]) -> Vec<CoordinatorCfg> {
    points.iter().flat_map(|&at| sizes.iter().map(move |&g| static_cfg(job, g, at))).collect()
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
        .map(|((spec, _), gr)| Sweep {
            n: spec.mpi.n,
            points: points.iter().map(|&at| time::as_secs_f64(at)).collect(),
            sizes: sizes.to_vec(),
            cells: cells(&gr),
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use gbcr_workloads::MicroBench;

    #[test]
    #[should_panic(expected = "never ran")]
    fn checkpoint_after_completion_panics() {
        let mb = MicroBench { n: 4, comm_group_size: 2, steps: 4, ..Default::default() };
        sweep(&mb.job(), "micro", &[time::secs(9999)], &[2], None);
    }
}
