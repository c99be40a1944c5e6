//! Figure 7: MotifMiner Effective Checkpoint Delay at four issuance points
//! for each checkpoint group size (§6.3).

use crate::{size_label, sweep, Sweep};
use gbcr_des::time;
use gbcr_metrics::Table;
use gbcr_workloads::MotifMinerWorkload;

/// The table's title, as `bench_results.txt` records it.
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

/// Render the per-point matrix.
pub fn table(sw: &Sweep) -> Table {
    let mut sizes: Vec<u32> = sw.cells.iter().map(|c| c.group_size).collect();
    sizes.dedup();
    sizes.truncate(sw.cells.len() / sw.series(sw.n).len());
    let mut header: Vec<String> = vec!["issuance (s)".into()];
    header.extend(sizes.iter().map(|&g| size_label(sw.n, g)));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(TITLE, &header_refs);
    let mut points: Vec<f64> = sw.series(sizes[0]).iter().map(|c| c.at_secs).collect();
    points.dedup();
    for at in points {
        let mut row = vec![format!("{at:.0}")];
        for &g in &sizes {
            let cell = sw
                .cells
                .iter()
                .find(|c| c.group_size == g && (c.at_secs - at).abs() < 1e-9)
                .expect("cell");
            row.push(format!("{:.1}", cell.effective));
        }
        t.row(&row);
    }
    t
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
}
