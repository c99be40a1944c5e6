//! Runtime configuration.

use gbcr_des::{time, Time};
use gbcr_net::NetConfig;

/// Messages with `size <= EAGER_THRESHOLD` bytes use the eager protocol
/// (copied to a communication buffer, sent immediately); larger ones use
/// zero-copy rendezvous. MVAPICH2's default on IB is in the 8–16 KiB range.
pub const EAGER_THRESHOLD: u64 = 16 * 1024;

/// Memory bandwidth (bytes/s) charged for the copy+log cost per byte in
/// the message-logging ablation mode.
pub const LOGGING_COPY_BW: f64 = 2.5e9;

/// The out-of-band (PMI/mpirun socket mesh) fabric: slower per message
/// than the data plane, but cheaper to connect.
pub const OOB_NET: NetConfig = NetConfig {
    latency: time::us(40),
    bandwidth: 100.0e6,
    per_message_overhead: time::us(5),
    conn_setup_time: time::us(300),
    conn_teardown_time: time::us(50),
};

/// Configuration of an MPI world: what is fixed at construction. The two
/// runtime-mutable modes — passive coordination and message logging — are
/// switched per rank by the checkpoint layer ([`crate::Mpi::set_passive`],
/// [`crate::Mpi::set_log_mode`]); every rank starts with both off.
#[derive(Debug, Clone)]
pub struct MpiConfig {
    /// Number of ranks.
    pub n: u32,
    /// Data-plane (InfiniBand) fabric parameters.
    pub net: NetConfig,
    /// Bounded progress interval guaranteed by the helper thread while in
    /// passive coordination (paper §4.4 uses 100 ms).
    pub progress_interval: Time,
    /// Whether the passive-coordination helper thread exists at all.
    /// Disabling it is the §4.4 ablation: inter-group coordination then
    /// waits for the application's next MPI call.
    pub helper_thread: bool,
}

impl Default for MpiConfig {
    fn default() -> Self {
        MpiConfig::new(2)
    }
}

impl MpiConfig {
    /// A world of `n` ranks with the paper's testbed parameters.
    pub fn new(n: u32) -> Self {
        MpiConfig {
            n,
            net: NetConfig::infiniband_ddr(),
            progress_interval: time::ms(100),
            helper_thread: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oob_is_slower_but_cheaper_to_connect_than_data_plane() {
        let net = MpiConfig::new(4).net;
        assert!(OOB_NET.latency > net.latency);
        assert!(OOB_NET.conn_setup_time < net.conn_setup_time);
    }
}
