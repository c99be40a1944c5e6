//! Figures 5 and 6: HPL Effective Checkpoint Delay at eight issuance
//! points for each checkpoint group size (Fig. 5), and its
//! average/min/max summary per group size (Fig. 6).

use crate::{size_label, sweep, Sweep};
use gbcr_des::time;
use gbcr_metrics::Table;
use gbcr_workloads::HplWorkload;

/// Figure 5's title ([`Sweep::matrix`] over the sweep), as
/// `bench_results.txt` records it.
pub const TITLE: &str = "Figure 5 — HPL Effective Checkpoint Delay (s) at 8 issuance points";

/// Figure 6's title ([`summary_table`] over the Figure 5 sweep).
pub const FIG6_TITLE: &str =
    "Figure 6 — HPL Effective Checkpoint Delay per group size (avg with min/max)";

/// The eight issuance points (seconds), evenly placed across the run as in
/// the paper.
pub const POINTS: [u64; 8] = [50, 100, 150, 200, 250, 300, 350, 400];

/// Run the Figure 5 sweep (also feeds Figure 6); the paper's grid is
/// [`POINTS`] × [`GROUP_SIZES`](crate::GROUP_SIZES).
pub fn run(points_secs: &[u64], sizes: &[u32], threads: Option<usize>) -> Sweep {
    let w = HplWorkload::default();
    let points: Vec<_> = points_secs.iter().map(|&s| time::secs(s)).collect();
    sweep(&w.job(None), "hpl", &points, sizes, threads)
}

/// Figure 6: average with min/max whiskers per checkpoint group size, and
/// the reduction against the regular protocol — so the sweep must include
/// the `All(n)` column.
pub fn summary_table(sw: &Sweep, title: &str) -> Table {
    let mut t = Table::new(
        title,
        &["ckpt group", "avg effective (s)", "min (s)", "max (s)", "reduction vs All"],
    );
    for &g in &sw.sizes {
        let (min, max) = sw.min_max_effective(g);
        t.row(&[
            size_label(sw.n, g),
            format!("{:.1}", sw.avg_effective(g)),
            format!("{min:.1}"),
            format!("{max:.1}"),
            format!("{:.0}%", sw.avg_reduction(g) * 100.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    /// Reduced sweep (3 points × 3 sizes) checking the headline shape:
    /// groups of 4 clearly beat the regular protocol, with a large
    /// best-point reduction.
    #[test]
    fn grouped_hpl_beats_regular_with_large_best_point_reduction() {
        let sw = run(&[50, 150, 300], &[32, 4, 1], None);
        assert!(
            sw.avg_reduction(4) > 0.30,
            "avg reduction for g=4 too small: {:.2}",
            sw.avg_reduction(4)
        );
        assert!(
            sw.max_reduction(4) > paper::fig56::MAX_REDUCTION_G4 - 0.10,
            "best-point reduction {:.2} below paper's {:.2} band",
            sw.max_reduction(4),
            paper::fig56::MAX_REDUCTION_G4
        );
        // Size 1 clearly worse than 4 (storage under-utilization).
        assert!(sw.avg_effective(1) > 1.2 * sw.avg_effective(4));
    }
}
