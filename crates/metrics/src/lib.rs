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
//! [`run_sweep`] fans whole sweeps of independent `(spec, cfg)` cells —
//! each workload once bare, once per checkpoint configuration — over a
//! worker pool with deterministic, cell-ordered results, and
//! [`delay_from_reports`] extracts all three metrics from a matched pair.
//! [`format_series`]/[`Table`] format the sweeps the benches print for
//! each of the paper's figures.

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
pub use harness::{
    delay_from_reports, resolve_threads, run_cells, run_sweep,
    DelayMeasurement, GroupReports, SweepGroup,
};
pub use table::{format_series, Table};
pub use timeline::render_epoch_trace;
