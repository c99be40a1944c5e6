//! Storage system configuration and the bandwidth-sharing law.

use gbcr_des::{time, Time};

/// Parameters of the central storage model.
///
/// The default values reproduce the paper's testbed (four PVFS2 servers on
/// SATA disks, IPoIB transport): a single client obtains ≈115 MB/s and the
/// aggregate saturates at ≈140 MB/s (Figure 1). `Thunderbird`-style systems
/// (§3.1: 6 GB/s for 4480 nodes) can be modeled by changing two numbers.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Peak aggregate throughput in bytes/s when enough clients are active.
    pub aggregate_bw: f64,
    /// Maximum throughput a single client stream can drive, bytes/s.
    /// (A single client cannot saturate a parallel file system.)
    pub single_client_bw: f64,
    /// Mild congestion coefficient: with `k` active streams the deliverable
    /// aggregate is divided by `1 + congestion · (k − 1)`. Models the
    /// "system noise, network congestion, and unbalanced share" the paper
    /// mentions. `0.0` disables it.
    pub congestion: f64,
    /// Fixed per-operation latency (metadata round trip, file create).
    pub per_op_latency: Time,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            aggregate_bw: 140.0e6,
            single_client_bw: 115.0e6,
            congestion: 0.002,
            per_op_latency: time::ms(2),
        }
    }
}

impl StorageConfig {
    /// The paper's testbed (default): 4 PVFS2 servers, ≈140 MB/s aggregate.
    pub fn paper_testbed() -> Self {
        Self::default()
    }

    /// The Thunderbird-scale system quoted in §3.1: 6 GB/s aggregate for a
    /// 4480-node cluster (1.37 MB/s per node if all checkpoint at once).
    pub fn thunderbird() -> Self {
        StorageConfig {
            aggregate_bw: 6.0e9,
            single_client_bw: 400.0e6,
            congestion: 0.0005,
            per_op_latency: time::ms(5),
        }
    }

    /// One node's in-memory (diskless) checkpoint store: a ramdisk-speed
    /// device private to that node, so there is no cross-client contention
    /// to model (`congestion = 0`) and the per-op cost is a local mmap
    /// round-trip rather than a parallel-filesystem metadata RPC. Used per
    /// node by the ReStore-style replicated backend; writes land at memory
    /// bandwidth instead of queueing on the shared central array.
    pub fn node_local() -> Self {
        StorageConfig {
            aggregate_bw: 2.0e9,
            single_client_bw: 2.0e9,
            congestion: 0.0,
            per_op_latency: time::us(100),
        }
    }

    /// Deliverable aggregate rate (bytes/s) with `k` concurrent streams.
    pub fn aggregate_rate(&self, k: usize) -> f64 {
        if k == 0 {
            return 0.0;
        }
        let unconstrained = (k as f64 * self.single_client_bw).min(self.aggregate_bw);
        unconstrained / (1.0 + self.congestion * (k as f64 - 1.0))
    }

    /// Fair-share per-stream rate (bytes/s) with `k` concurrent streams.
    pub fn per_stream_rate(&self, k: usize) -> f64 {
        if k == 0 {
            return 0.0;
        }
        self.aggregate_rate(k) / k as f64
    }

    /// Idealized storage access time for `n` processes of footprint `s`
    /// bytes checkpointing concurrently — the paper's `T = N × S / B`
    /// estimate from §3.1 (ignores congestion and ramp effects).
    pub fn ideal_access_time(&self, n: u64, s: u64) -> Time {
        time::transfer_time(n * s, self.aggregate_bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_figure_1_anchors() {
        let c = StorageConfig::default();
        // 1 client: limited by the single-client ceiling.
        assert!((c.per_stream_rate(1) - 115.0e6).abs() < 1e3);
        // 2+ clients: aggregate saturates near 140 MB/s.
        assert!(c.aggregate_rate(2) > 138.0e6);
        // 32 clients: ~4.3 MB/s each (paper quotes 4.38 before congestion).
        let per32 = c.per_stream_rate(32);
        assert!(per32 > 4.0e6 && per32 < 4.5e6, "got {per32}");
    }

    #[test]
    fn per_stream_rate_is_monotone_nonincreasing() {
        let c = StorageConfig::default();
        let mut prev = f64::INFINITY;
        for k in 1..=128 {
            let r = c.per_stream_rate(k);
            assert!(r <= prev + 1e-9, "per-stream rate rose at k={k}");
            assert!(r > 0.0);
            prev = r;
        }
    }

    #[test]
    fn aggregate_rate_zero_clients_is_zero() {
        let c = StorageConfig::default();
        assert_eq!(c.aggregate_rate(0), 0.0);
        assert_eq!(c.per_stream_rate(0), 0.0);
    }

    #[test]
    fn ideal_access_time_matches_paper_example() {
        // §3.1: Thunderbird, 1 GB/process on 8960 CPUs at 6 GB/s ≈ 1493 s.
        let c = StorageConfig::thunderbird();
        let t = c.ideal_access_time(8960, crate::GB);
        let secs = gbcr_des::time::as_secs_f64(t);
        assert!((secs - 1493.0).abs() < 2.0, "got {secs}");
    }
}
