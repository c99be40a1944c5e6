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
//! simulator-cost telemetry (wall time, events, messages, callbacks,
//! processes, spawn cost) so the executor's scaling shows up next to the
//! model outputs (`gbcr scale --json PATH`).

use crate::{cells, json, static_cfg, sweep_one};
use gbcr_core::RunReport;
use gbcr_des::{time, SimResult};
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
    /// Dispatch steps of the event loop across the three runs.
    pub events: u64,
    /// Data-plane messages delivered across the three runs.
    pub messages: u64,
    /// Callbacks run across the three runs: a timer that fired, or a message
    /// delivered on either fabric — the gate traffic's n²/g term among them.
    pub callbacks: u64,
    /// Progress wakes elided across the three runs.
    pub elided_wakes: u64,
    /// Simulated processes spawned across the three runs.
    pub procs_spawned: u64,
    /// Wall milliseconds spent spawning processes, summed over the runs.
    pub spawn_ms: f64,
    /// The wrapping sum of the three runs' dispatch fingerprints
    /// ([`gbcr_des::Dispatch::fingerprint`]): exact, and blind to the order
    /// the runs ran in.
    pub fingerprint: u64,
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
/// big fan-out) so each gets its own wall-clock attribution. The first
/// size whose runs fail ends the sweep with that error.
pub fn run(sizes: &[u32], threads: Option<usize>) -> SimResult<Vec<ScaleCell>> {
    sizes
        .iter()
        .map(|&n| {
            let mb = workload(n);
            let cfgs =
                vec![static_cfg("micro", n, time::secs(5)), static_cfg("micro", 8, time::secs(5))];
            let t0 = Instant::now();
            let gr = sweep_one(&mb.job(), cfgs, threads)?;
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let eff = cells(&gr);
            let all = || std::iter::once(&gr.baseline).chain(&gr.runs);
            let sum = |f: fn(&RunReport) -> u64| all().map(f).sum::<u64>();
            Ok(ScaleCell {
                ranks: n,
                eff_all: eff[0].effective,
                eff_group: eff[1].effective,
                wall_ms,
                events: sum(|r| r.events),
                messages: sum(|r| r.net_stats.messages),
                callbacks: sum(|r| r.des.callbacks),
                elided_wakes: sum(|r| r.elided_wakes),
                procs_spawned: sum(|r| r.procs_spawned),
                spawn_ms: sum(|r| r.spawn_cost_ns.0) as f64 / 1e6,
                fingerprint: all().fold(0, |f, r| f.wrapping_add(r.des.fingerprint)),
            })
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

/// The simulator-cost table: its wall and spawn columns are host time, its
/// counts (events, messages, callbacks, procs) exact.
pub fn cost_table(cells: &[ScaleCell]) -> Table {
    let mut t = Table::new(
        "Scale study — simulator cost per job size (3 runs each)",
        &["ranks", "wall ms", "events", "messages", "callbacks", "procs", "spawn ms"],
    );
    for c in cells {
        t.row(&[
            c.ranks.to_string(),
            format!("{:.0}", c.wall_ms),
            c.events.to_string(),
            c.messages.to_string(),
            c.callbacks.to_string(),
            c.procs_spawned.to_string(),
            format!("{:.1}", c.spawn_ms),
        ]);
    }
    t
}

/// One line naming each size's dispatch fingerprint, `scale fingerprints:
/// 256=… 1024=…`: what the cost table's counts sum up, the order of every
/// action the event loop took, which `scripts/tier1.sh` and CI diff against
/// `scale_results.txt`.
pub fn fingerprint_line(cells: &[ScaleCell]) -> String {
    let prints: String =
        cells.iter().map(|c| format!(" {}={:016x}", c.ranks, c.fingerprint)).collect();
    format!("scale fingerprints:{prints}")
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
