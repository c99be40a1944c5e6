//! Figure 4: checkpoint placement — Effective / Individual / Total
//! checkpoint time versus the issuance time relative to a global
//! synchronization line (§6.1; comm group = ckpt group = 8, global
//! barrier every minute).

use crate::{sweep, Sweep};
use gbcr_des::{time, SimResult};
use gbcr_metrics::Table;
use gbcr_workloads::PlacementBench;

/// The table's title, as `bench_results.txt` records it.
pub const TITLE: &str =
    "Figure 4 — Checkpoint Placement (comm group 8, ckpt group 8, barrier every 60 s)";

/// Issuance times the paper sweeps (seconds); the barrier sits at 60 s and
/// 120 s.
pub const POINTS: [u64; 11] = [15, 25, 35, 45, 55, 65, 75, 85, 95, 105, 115];

/// Run the placement sweep at group size 8 over the given issuance points
/// (seconds; the paper's are [`POINTS`]).
pub fn run(points_secs: &[u64], threads: Option<usize>) -> SimResult<Sweep> {
    let pb = PlacementBench::default();
    let points: Vec<_> = points_secs.iter().map(|&s| time::secs(s)).collect();
    sweep(&pb.job(), "placement", &points, &[8], threads)
}

/// Render the three series of the figure.
pub fn table(sw: &Sweep) -> Table {
    let mut t =
        Table::new(TITLE, &["issuance (s)", "effective (s)", "individual (s)", "total (s)"]);
    for (at, c) in sw.points.iter().zip(&sw.cells) {
        t.row(&[
            format!("{at:.0}"),
            format!("{:.1}", c.effective),
            format!("{:.1}", c.individual),
            format!("{:.1}", c.total),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_lies_between_individual_and_total_and_peaks_near_barrier() -> SimResult<()> {
        // Two points suffice for the shape: far from the barrier the delay
        // approaches Individual; just before it, Total.
        let sw = run(&[15, 55], None)?;
        let far = &sw.cells[0];
        let near = &sw.cells[1];
        for c in [far, near] {
            assert!(c.effective >= c.individual_min - 0.5, "{c:?}");
            assert!(c.effective <= c.total + 1.0, "{c:?}");
        }
        assert!(
            near.effective > far.effective * 1.5,
            "delay near the barrier ({}) must exceed far ({})",
            near.effective,
            far.effective
        );
        assert!(
            far.effective < 0.5 * far.total,
            "far placement should be well below Total: {} vs {}",
            far.effective,
            far.total
        );
        Ok(())
    }
}
