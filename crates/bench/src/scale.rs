//! Petascale scale study: group-based vs whole-cluster checkpointing from
//! 256 to 10 240 ranks.
//!
//! The paper demonstrates its central claim — group-based checkpointing's
//! advantage grows with job size — only up to the 32–128 ranks a
//! thread-per-rank engine could afford. The pooled coroutine executor
//! (see `gbcr-des`) lifts that ceiling: every rank is a resumable task on
//! the thread that drives its simulation, so this module
//! sweeps the same fixed-footprint micro-benchmark out to the
//! petascale-study regime of Cao et al. Each sweep point also records
//! simulator-cost telemetry (wall time, events, processes, spawn cost) so
//! the executor's scaling shows up next to the model outputs
//! (`gbcr scale --json PATH`).

use crate::{cells, json, static_cfg, sweep_one};
use gbcr_des::time;
use gbcr_metrics::Table;
use gbcr_storage::MB;
use gbcr_workloads::MicroBench;
use std::time::Instant;

/// The full sweep: up through the 10k+ regime.
pub const SIZES_FULL: [u32; 4] = [256, 1024, 4096, 10_240];

/// Tier-1 smoke sizes (wall-clock budgeted in CI).
pub const SIZES_SMOKE: [u32; 2] = [256, 1024];

/// One job size of the scale sweep: the model outputs (effective delays)
/// plus the simulator-cost telemetry for that size's three runs
/// (baseline, whole-cluster, group-based).
#[derive(Debug, Clone)]
pub struct ScaleCell {
    /// World size.
    pub ranks: u32,
    /// Whole-cluster (`All(n)`) effective checkpoint delay, seconds.
    pub eff_all: f64,
    /// Group-based (g=8) effective checkpoint delay, seconds.
    pub eff_group: f64,
    /// Wall milliseconds for this size's three runs.
    pub wall_ms: f64,
    /// Simulated events dispatched across the three runs.
    pub events: u64,
    /// Progress wakes elided across the three runs.
    pub elided_wakes: u64,
    /// Simulated processes spawned across the three runs.
    pub procs_spawned: u64,
    /// Wall milliseconds spent spawning processes, summed over the runs.
    pub spawn_ms: f64,
}

impl ScaleCell {
    /// Delay reduction of group-based over whole-cluster, in `[0, 1]`.
    pub fn reduction(&self) -> f64 {
        1.0 - self.eff_group / self.eff_all
    }
}

/// The sweep workload: the paper's §6.1 micro-benchmark shape
/// (communication groups of eight, 180 MB/process) with a step count
/// short enough that a 10k-rank run stays tier-2 affordable.
pub fn workload(n: u32) -> MicroBench {
    MicroBench {
        n,
        comm_group_size: 8,
        footprint: 180 * MB,
        steps: 40,
        step_compute: time::ms(500),
        ..Default::default()
    }
}

/// Run the sweep: per size, one baseline plus whole-cluster and
/// group-based checkpointed runs. Sizes are run one at a time (not one
/// big fan-out) so each gets its own wall-clock attribution.
pub fn run(sizes: &[u32], threads: Option<usize>) -> Vec<ScaleCell> {
    sizes
        .iter()
        .map(|&n| {
            let mb = workload(n);
            let cfgs =
                vec![static_cfg("micro", n, time::secs(5)), static_cfg("micro", 8, time::secs(5))];
            let t0 = Instant::now();
            let gr = sweep_one(&mb.job(), cfgs, threads);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let eff = cells(&gr);
            let all = std::iter::once(&gr.baseline).chain(&gr.runs);
            let mut events = 0;
            let mut elided_wakes = 0;
            let mut procs_spawned = 0;
            let mut spawn_ns = 0;
            for r in all {
                events += r.events;
                elided_wakes += r.elided_wakes;
                procs_spawned += r.procs_spawned;
                spawn_ns += r.spawn_cost_ns.0;
            }
            ScaleCell {
                ranks: n,
                eff_all: eff[0].effective,
                eff_group: eff[1].effective,
                wall_ms,
                events,
                elided_wakes,
                procs_spawned,
                spawn_ms: spawn_ns as f64 / 1e6,
            }
        })
        .collect()
}

/// The model-output table (the delays the paper's claim is about).
/// Deterministic — byte-identical across executors and thread counts.
pub fn table(cells: &[ScaleCell]) -> Table {
    let mut t = Table::new(
        "Scale study — effective delay (s) vs job size (180 MB/proc, 140 MB/s storage)",
        &["ranks", "regular All(n)", "group-based g=8", "reduction"],
    );
    for c in cells {
        t.row(&[
            c.ranks.to_string(),
            format!("{:.1}", c.eff_all),
            format!("{:.1}", c.eff_group),
            format!("{:.0}%", c.reduction() * 100.0),
        ]);
    }
    t
}

/// The simulator-cost table (wall time, events, spawn telemetry).
/// *Not* deterministic — never part of the byte-identity checks.
pub fn cost_table(cells: &[ScaleCell]) -> Table {
    let mut t = Table::new(
        "Scale study — simulator cost per job size (3 runs each)",
        &["ranks", "wall ms", "events", "procs", "spawn ms"],
    );
    for c in cells {
        t.row(&[
            c.ranks.to_string(),
            format!("{:.0}", c.wall_ms),
            c.events.to_string(),
            c.procs_spawned.to_string(),
            format!("{:.1}", c.spawn_ms),
        ]);
    }
    t
}

/// The `scale` array `gbcr scale --json PATH` writes (schema in
/// EXPERIMENTS.md).
pub fn json_block(cells: &[ScaleCell]) -> String {
    let cell = |c: &ScaleCell| {
        json::row(&[
            ("ranks", c.ranks.to_string()),
            ("wall_ms", format!("{:.1}", c.wall_ms)),
            ("events", c.events.to_string()),
            ("elided_wakes", c.elided_wakes.to_string()),
            ("procs_spawned", c.procs_spawned.to_string()),
            ("spawn_ms", format!("{:.1}", c.spawn_ms)),
            ("eff_all_s", format!("{:.1}", c.eff_all)),
            ("eff_group_s", format!("{:.1}", c.eff_group)),
        ])
    };
    json::array(2, cells.iter().map(cell))
}
