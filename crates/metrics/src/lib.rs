//! # gbcr-metrics — the paper's §5 metrics and the experiment harness
//!
//! Three metrics characterize the time overhead of checkpointing a
//! parallel application (paper §5):
//!
//! * **Individual Checkpoint Time** — the downtime each process observes
//!   while taking its own checkpoint. For regular coordinated
//!   checkpointing this is ≈ `footprint × N / B` (Eq. 2a); for group-based
//!   checkpointing it is ≈ `footprint × group_size / B` (Eq. 3a).
//! * **Total Checkpoint Time** — from checkpoint request to the last
//!   process finishing; ≈ `groups × Individual` for group-based (Eq. 3b).
//! * **Effective Checkpoint Delay** — the increase in the application's
//!   completion time caused by taking one checkpoint; the end goal, and
//!   always sandwiched `Individual ≤ Effective ≤ Total` (Eq. 3c).
//!
//! The definitions are methods of the reports
//! ([`gbcr_core::EpochReport::mean_individual`] and its neighbours,
//! [`gbcr_core::RunReport::effective_delay`]); `gbcr_bench::Cell::measure`
//! turns a (baseline, run) pair into all three.
//!
//! [`run_sweep`] fans whole sweeps of independent `(spec, cfg)` cells —
//! each workload once bare, once per checkpoint configuration — over a
//! worker pool with deterministic, cell-ordered results
//! ([`run_cells`] is the same pool for cells of any other shape),
//! [`account_replicas`] collapses a fault cell's supervised replicas into
//! availability / lost work / goodput, and [`Table`] renders the series.

#![warn(missing_docs)]

pub mod advisor;
mod availability;
mod harness;
mod table;
pub mod tenancy;
pub mod timeline;

pub use advisor::{daly_interval, placement_window, young_interval, Advice, AdvisorInputs};
pub use availability::{account_replicas, FaultAccounting};
pub use gbcr_core::RecoveryCounters;
pub use harness::{resolve_threads, run_cells, run_sweep, GroupReports, SweepGroup};
pub use table::Table;
pub use timeline::render_epoch_trace;
