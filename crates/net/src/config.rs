//! Fabric timing parameters.

use gbcr_des::{time, Time};

/// Timing model of the simulated interconnect.
///
/// Defaults approximate the paper's testbed: Mellanox DDR InfiniBand HCAs
/// (≈1.5 GB/s per link, ≈2 µs latency) with out-of-band connection
/// establishment in the low milliseconds (§2.2: "the cost for connection
/// management is much higher as compared to using the TCP/IP protocol").
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// One-way wire latency per message.
    pub latency: Time,
    /// Per-direction link bandwidth, bytes/s.
    pub bandwidth: f64,
    /// Fixed CPU/NIC overhead charged on the sending link per message.
    pub per_message_overhead: Time,
    /// Cost for the *initiating* side to establish (or re-establish) a
    /// connection, covering the out-of-band parameter exchange and QP
    /// state transitions.
    pub conn_setup_time: Time,
    /// Cost to tear a connection down once the channel is drained.
    pub conn_teardown_time: Time,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            latency: time::us(2),
            bandwidth: 1.5e9,
            per_message_overhead: time::us(1) / 2,
            conn_setup_time: time::ms(2),
            conn_teardown_time: time::us(500),
        }
    }
}

impl NetConfig {
    /// The paper's testbed defaults.
    pub fn infiniband_ddr() -> Self {
        Self::default()
    }

    /// This fabric derated to a static fair share among `k` co-tenants:
    /// bandwidth drops to `1/k`, every other parameter (latency, per
    /// message overhead, connection costs) is per-endpoint and unchanged.
    /// The cluster harness's bandwidth-tax model of a fully-bisectional
    /// link carrying `k` jobs at once; `k = 0` or `1` is a no-op.
    pub fn shared_among(&self, k: u64) -> Self {
        NetConfig { bandwidth: self.bandwidth / (k.max(1) as f64), ..self.clone() }
    }

    /// Time to serialize `bytes` onto the link (excludes latency).
    pub fn serialize_time(&self, bytes: u64) -> Time {
        time::transfer_time(bytes, self.bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialize_time_scales_linearly() {
        let c = NetConfig::default();
        let t1 = c.serialize_time(1_500_000);
        assert_eq!(t1, time::ms(1)); // 1.5MB at 1.5GB/s = 1ms
        assert_eq!(c.serialize_time(0), 0);
    }
}
