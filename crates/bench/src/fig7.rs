//! Figure 7: MotifMiner Effective Checkpoint Delay at four issuance points
//! for each checkpoint group size (§6.3).

use crate::{sweep, Sweep};
use gbcr_des::time;
use gbcr_workloads::MotifMinerWorkload;

/// The title of the sweep's [`Sweep::matrix`], as `bench_results.txt`
/// records it.
pub const TITLE: &str = "Figure 7 — MotifMiner Effective Checkpoint Delay (s)";

/// Title of the per-group-size summary printed under the table.
pub const SUMMARY_TITLE: &str =
    "Figure 7 summary — MotifMiner average effective delay per group size";

/// The four issuance points (seconds).
pub const POINTS: [u64; 4] = [30, 60, 90, 120];

/// Run the Figure 7 sweep; the paper's grid is [`POINTS`] ×
/// [`GROUP_SIZES`](crate::GROUP_SIZES).
pub fn run(points_secs: &[u64], sizes: &[u32], threads: Option<usize>) -> Sweep {
    let w = MotifMinerWorkload::default();
    let points: Vec<_> = points_secs.iter().map(|&s| time::secs(s)).collect();
    sweep(&w.job(None), "motifminer", &points, sizes, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    /// Reduced run hitting the headline point: group size 4 at the 30 s
    /// point reduces the delay on the order of the paper's 70 %, even
    /// though MotifMiner communicates globally.
    #[test]
    fn global_communication_still_benefits_at_the_early_point() {
        let sw = run(&[30], &[32, 4], None);
        let red = sw.max_reduction(4);
        assert!(
            red > paper::fig7::MAX_REDUCTION_G4 - 0.10,
            "reduction at 30 s {:.2} well below paper's {:.2}",
            red,
            paper::fig7::MAX_REDUCTION_G4
        );
    }

    /// The matrix needs no particular column; the summary is relative to
    /// the regular protocol, and says so when `All(n)` was not swept
    /// (both used to divide by the length of that column).
    #[test]
    #[should_panic(expected = "no All(32) column")]
    fn matrix_renders_without_the_all_column_and_the_summary_names_it() {
        let sw = run(&[30], &[16, 4], Some(1));
        let rendered = sw.matrix(TITLE).render();
        let header = rendered.lines().nth(1).expect("header row");
        assert!(header.contains("Group(16)") && header.contains("Group(4)"), "{rendered}");
        assert_eq!(rendered.lines().count(), 4, "title, header, rule, one point:\n{rendered}");
        crate::fig5::summary_table(&sw, SUMMARY_TITLE);
    }
}
