//! Transfer accounting for experiments (Figure 1 and checkpoint-time
//! breakdowns).

use crate::model::StreamKind;
use gbcr_des::{time, Time};

/// One completed transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferRecord {
    /// Client identifier supplied by the caller (usually an MPI rank).
    pub client: u32,
    /// Read or write.
    pub kind: StreamKind,
    /// Simulated bytes moved.
    pub bytes: u64,
    /// When the stream entered the server (after per-op latency).
    pub start: Time,
    /// When the last byte was transferred.
    pub end: Time,
}

impl TransferRecord {
    /// Mean bandwidth over the stream's lifetime, bytes/s.
    pub fn mean_bandwidth(&self) -> f64 {
        if self.end <= self.start {
            return 0.0;
        }
        self.bytes as f64 / time::as_secs_f64(self.end - self.start)
    }
}

/// Aggregated view over all completed transfers.
#[derive(Debug, Clone, Default)]
pub struct StorageStats {
    /// All completed transfers in completion order.
    pub records: Vec<TransferRecord>,
    /// Writes that ran to completion but were never published (fault
    /// injection: torn checkpoint images).
    pub torn_writes: u64,
    /// Epoch manifests published atomically via
    /// [`crate::CheckpointStore::commit_meta`].
    pub manifest_commits: u64,
    /// Manifest commits that tore: the commit was attempted but the record
    /// was never published, leaving the previous manifest authoritative.
    pub torn_manifests: u64,
    /// Remote replica copies fanned out by the replicated backend (one per
    /// peer copy, not per logical image). Always 0 on the central path.
    pub replicas_written: u64,
    /// Bytes carried by those replica copies.
    pub replica_bytes: u64,
    /// Restart reads served from a remote replica because the owner node's
    /// local copy was gone.
    pub remote_recoveries: u64,
    /// Restart reads served from the owner node's own in-memory copy.
    pub local_recoveries: u64,
    /// Replica copies destroyed because the node holding them crashed
    /// (objects whose owner was some *other* rank).
    pub replica_losses: u64,
}

impl StorageStats {
    /// Fold `other` into `self`: its transfers are appended and every
    /// counter summed. A backend's view is its own accumulator merged with
    /// those of its devices.
    pub(crate) fn merge(&mut self, other: StorageStats) {
        self.records.extend(other.records);
        self.torn_writes += other.torn_writes;
        self.manifest_commits += other.manifest_commits;
        self.torn_manifests += other.torn_manifests;
        self.replicas_written += other.replicas_written;
        self.replica_bytes += other.replica_bytes;
        self.remote_recoveries += other.remote_recoveries;
        self.local_recoveries += other.local_recoveries;
        self.replica_losses += other.replica_losses;
    }

    /// Total bytes across all completed transfers.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.bytes).sum()
    }

    /// Mean per-client bandwidth (bytes/s), i.e. the average of each
    /// record's own mean bandwidth — the quantity plotted per client in
    /// Figure 1.
    pub fn mean_client_bandwidth(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(TransferRecord::mean_bandwidth).sum::<f64>()
            / self.records.len() as f64
    }

    /// High-water mark of simultaneously active transfers on this device —
    /// the depth of the checkpoint storm the processor-sharing server
    /// absorbed. Sweep-line over `[start, end)` intervals (an end at `t`
    /// frees its slot before a start at `t` claims one), so back-to-back
    /// streams don't count as concurrent. The cluster interference study
    /// reports this per shared array.
    pub fn peak_concurrent_streams(&self) -> u64 {
        let mut edges: Vec<(Time, i64)> = Vec::with_capacity(self.records.len() * 2);
        for r in &self.records {
            if r.end > r.start {
                edges.push((r.start, 1));
                edges.push((r.end, -1));
            }
        }
        edges.sort_unstable_by_key(|&(t, d)| (t, d));
        let (mut live, mut peak) = (0i64, 0i64);
        for (_, d) in edges {
            live += d;
            peak = peak.max(live);
        }
        peak as u64
    }

    /// Aggregate throughput: total bytes divided by the wall-span from the
    /// first start to the last end — the "Aggregated Throughput" series in
    /// Figure 1.
    pub fn aggregate_throughput(&self) -> f64 {
        let Some(first) = self.records.iter().map(|r| r.start).min() else {
            return 0.0;
        };
        let last = self.records.iter().map(|r| r.end).max().unwrap();
        if last <= first {
            return 0.0;
        }
        self.total_bytes() as f64 / time::as_secs_f64(last - first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(client: u32, bytes: u64, start: Time, end: Time) -> TransferRecord {
        TransferRecord { client, kind: StreamKind::Write, bytes, start, end }
    }

    #[test]
    fn mean_bandwidth_per_record() {
        let r = rec(0, 100_000_000, 0, time::secs(1));
        assert!((r.mean_bandwidth() - 1e8).abs() < 1.0);
        let degenerate = rec(0, 5, time::secs(1), time::secs(1));
        assert_eq!(degenerate.mean_bandwidth(), 0.0);
    }

    #[test]
    fn aggregate_uses_global_span() {
        let stats = StorageStats {
            records: vec![rec(0, 50, 0, time::secs(1)), rec(1, 50, 0, time::secs(2))],
            ..StorageStats::default()
        };
        assert_eq!(stats.total_bytes(), 100);
        assert!((stats.aggregate_throughput() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn peak_streams_sweep_line() {
        let stats = StorageStats {
            records: vec![
                rec(0, 1, 0, 10),
                rec(1, 1, 5, 15),
                rec(2, 1, 10, 20),
                // Back-to-back with record 0: end-before-start at t=10 must
                // not count as overlap.
                rec(3, 1, 10, 11),
                // Zero-length stream never counts.
                rec(4, 1, 7, 7),
            ],
            ..StorageStats::default()
        };
        assert_eq!(stats.peak_concurrent_streams(), 3);
        assert_eq!(StorageStats::default().peak_concurrent_streams(), 0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = StorageStats::default();
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.mean_client_bandwidth(), 0.0);
        assert_eq!(s.aggregate_throughput(), 0.0);
    }
}
