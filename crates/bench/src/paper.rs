//! The paper's reported numbers, kept next to our measurements so every
//! regenerated table can print a measured-vs-paper comparison.

/// Figure 1 anchors: 4 PVFS2 servers, ≈140 MB/s aggregate; per-client
/// bandwidth at 32 clients ≈ 4.38 MB/s (`140/32`); single client is
/// limited by its own path (≈115 MB/s in our calibration).
pub mod fig1 {
    /// Aggregate throughput the testbed saturated at (MB/s).
    pub const AGGREGATE_MBS: f64 = 140.0;
    /// Per-client bandwidth at 32 concurrent clients (MB/s).
    pub const PER_CLIENT_AT_32: f64 = 4.38;
}

/// Figure 3 anchors (32 ranks, 180 MB/process): the regular case takes
/// `32 × 180 / 140 ≈ 41 s`; halving the checkpoint group size halves the
/// delay while the group covers at least one communication group; below
/// that the delay flattens or rises.
pub mod fig3 {
    /// Ideal Effective Checkpoint Delay for All(32), seconds.
    pub const ALL32_SECS: f64 = 41.1;
}

/// Figure 5/6 anchors (HPL on an 8×4 grid).
pub mod fig56 {
    /// Headline: reduction for group size 4 at the 50 s point.
    pub const MAX_REDUCTION_G4: f64 = 0.78;
    /// Average reductions over the eight points for sizes 2, 4, 8, 16.
    pub const AVG_REDUCTIONS: [(u32, f64); 4] = [(2, 0.37), (4, 0.46), (8, 0.46), (16, 0.35)];
}

/// Figure 7 anchors (MotifMiner, 32 ranks).
pub mod fig7 {
    /// Headline: reduction for group size 4 at the 30 s point.
    pub const MAX_REDUCTION_G4: f64 = 0.70;
    /// Average reductions for sizes 16, 8, 4, 2.
    pub const AVG_REDUCTIONS: [(u32, f64); 4] = [(16, 0.28), (8, 0.32), (4, 0.27), (2, 0.14)];
}
