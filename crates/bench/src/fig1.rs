//! Figure 1: bandwidth per client (and aggregate throughput) versus the
//! number of clients concurrently writing checkpoint files.

use gbcr_des::Sim;
use gbcr_metrics::Table;
use gbcr_storage::{Storage, StorageConfig, StoredObject, MB};

/// One x-point of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Concurrent writers.
    pub clients: u32,
    /// Mean per-client bandwidth, MB/s.
    pub per_client_mbs: f64,
    /// Aggregate throughput over the whole span, MB/s.
    pub aggregate_mbs: f64,
}

/// The table's title, as `bench_results.txt` records it.
pub const TITLE: &str =
    "Figure 1 — Bandwidth per Client to Storage with Different Number of Clients";

/// Client counts the paper sweeps.
pub const CLIENT_COUNTS: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// Run one x-point: `clients` concurrent writers, each pushing
/// `mb_per_client` MB to the shared storage.
pub fn run_point(clients: u32, mb_per_client: u64) -> Row {
    let mut sim = Sim::new(0);
    let storage = Storage::new(sim.handle(), StorageConfig::paper_testbed());
    for c in 0..clients {
        let s = storage.clone();
        sim.spawn(format!("client{c}"), move |p| {
            s.write(p, c, &format!("file{c}"), StoredObject::bulk(mb_per_client * MB));
        });
    }
    sim.run().expect("storage benchmark runs to completion");
    let stats = storage.stats();
    Row {
        clients,
        per_client_mbs: stats.mean_client_bandwidth() / MB as f64,
        aggregate_mbs: stats.aggregate_throughput() / MB as f64,
    }
}

/// The full Figure 1 sweep.
pub fn run() -> Vec<Row> {
    CLIENT_COUNTS.iter().map(|&c| run_point(c, 500)).collect()
}

/// Render the sweep as the paper's series.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(TITLE, &["clients", "per-client MB/s", "aggregate MB/s"]);
    for r in rows {
        t.row(&[
            r.clients.to_string(),
            format!("{:.2}", r.per_client_mbs),
            format!("{:.1}", r.aggregate_mbs),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn per_client_bandwidth_decreases_with_clients() {
        let rows = run();
        for w in rows.windows(2) {
            assert!(
                w[1].per_client_mbs < w[0].per_client_mbs,
                "per-client bandwidth must fall: {w:?}"
            );
        }
    }

    #[test]
    fn matches_paper_anchors() {
        let rows = run();
        let at32 = rows.iter().find(|r| r.clients == 32).unwrap();
        assert!(
            (at32.per_client_mbs - paper::fig1::PER_CLIENT_AT_32).abs() < 0.6,
            "32-client per-client bandwidth {} vs paper {}",
            at32.per_client_mbs,
            paper::fig1::PER_CLIENT_AT_32
        );
        let at8 = rows.iter().find(|r| r.clients == 8).unwrap();
        assert!(
            (at8.aggregate_mbs - paper::fig1::AGGREGATE_MBS).abs() < 5.0,
            "aggregate at 8 clients {} vs paper ~{}",
            at8.aggregate_mbs,
            paper::fig1::AGGREGATE_MBS
        );
    }
}
