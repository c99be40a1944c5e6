//! Figure 3: Effective Checkpoint Delay versus checkpoint group size, for
//! several communication group sizes (§6.1 micro-benchmark; 32 ranks,
//! 180 MB/process).

use crate::{size_label, sweep_many, Sweep};
use gbcr_des::{time, SimResult};
use gbcr_metrics::Table;
use gbcr_workloads::MicroBench;

/// The table's title, as `bench_results.txt` records it.
pub const TITLE: &str = "Figure 3 — Effective Checkpoint Delay (s) vs Checkpoint Group Size";

/// Communication group sizes the paper sweeps (1 = embarrassingly
/// parallel).
pub const COMM_SIZES: [u32; 5] = [16, 8, 4, 2, 1];

/// The figure's data: one sweep per communication group size.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// `(comm_group_size, sweep at a single issuance point)`.
    pub by_comm: Vec<(u32, Sweep)>,
}

/// Micro-benchmark used for one communication group size.
pub fn bench(comm: u32, n: u32) -> MicroBench {
    MicroBench { n, comm_group_size: comm, ..Default::default() }
}

/// Run the figure. `n` is the world size (paper: 32, with [`COMM_SIZES`]
/// and [`GROUP_SIZES`](crate::GROUP_SIZES)). All `comm_sizes × ckpt_sizes`
/// runs (plus one baseline per comm size) go through the parallel harness
/// as one fan-out.
pub fn run(
    n: u32,
    comm_sizes: &[u32],
    ckpt_sizes: &[u32],
    threads: Option<usize>,
) -> SimResult<Fig3> {
    let at = [time::secs(30)];
    let workloads: Vec<_> = comm_sizes.iter().map(|&c| (bench(c, n).job(), "micro")).collect();
    let sweeps = sweep_many(&workloads, &at, ckpt_sizes, threads)?;
    Ok(Fig3 { by_comm: comm_sizes.iter().copied().zip(sweeps).collect() })
}

/// Render the figure's series.
pub fn table(fig: &Fig3) -> Table {
    let n = fig.by_comm[0].1.n;
    let mut header: Vec<String> = vec!["ckpt group".into()];
    header.extend(fig.by_comm.iter().map(|(c, _)| match c {
        1 => "embarrassingly-par".into(),
        c => format!("comm-group {c}"),
    }));
    let mut t = Table::new(TITLE, &header);
    for &g in &fig.by_comm[0].1.sizes {
        let mut row = vec![size_label(n, g)];
        for (_, sw) in &fig.by_comm {
            row.push(format!("{:.1}", sw.cell(0, g).effective));
        }
        t.row(&row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down figure run exercising the paper's three claims:
    /// halving above the comm-group size, flattening below it, and
    /// degradation at size 1.
    #[test]
    fn shape_matches_paper_claims_at_reduced_scale() -> SimResult<()> {
        let fig = run(16, &[4], &[16, 8, 4, 2, 1], None)?;
        let sw = &fig.by_comm[0].1;
        let eff = |g: u32| sw.cell(0, g).effective;
        // Halving while the checkpoint group covers >= 1 comm group.
        assert!(eff(8) < 0.62 * eff(16), "16→8: {} vs {}", eff(8), eff(16));
        assert!(eff(4) < 0.62 * eff(8), "8→4: {} vs {}", eff(4), eff(8));
        // Below the comm group size the delay flattens (or worsens).
        assert!(eff(2) > 0.85 * eff(4), "2 should not keep halving: {} vs {}", eff(2), eff(4));
        // Size 1 under-utilizes the parallel file system.
        assert!(eff(1) > eff(4), "1 should be worse than 4: {} vs {}", eff(1), eff(4));
        Ok(())
    }
}
