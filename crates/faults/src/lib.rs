//! # gbcr-faults — deterministic, seed-driven fault injection
//!
//! Checkpointing only pays for itself when failures happen. This crate is
//! the workspace's fault model: a byte-reproducible event source that plugs
//! into the DES and drives
//!
//! * **stochastic node failures** — per-node exponential MTBF draws from
//!   isolated RNG streams (see [`rng`]), so adding a fault domain or
//!   resampling one node never perturbs another node's failure times;
//! * **single-node kills** — one rank dies, the surviving job is aborted
//!   after a detection latency (the launcher's failure detector), and the
//!   dead node's fabric connections are force-torn;
//! * **link flaps** — a connection is forced down and must be rebuilt
//!   through the normal teardown/re-setup path on next use;
//! * **torn writes** — a seeded per-name verdict tears an image or an
//!   epoch manifest: the write runs full-length but never becomes visible,
//!   leaving an *incomplete* checkpoint epoch the restart logic must skip;
//! * **phase faults** — a rank is killed or stalled exactly when it enters
//!   a given protocol phase of a given epoch (see [`PhaseFault`]).
//!
//! The crate deliberately depends only on `gbcr-des` (plus the vendored
//! `rand` shim): it schedules [`FaultPlan`] events onto the simulation and
//! delivers them through a [`FaultSink`] implemented by the harness layer
//! (`gbcr-core`), which owns the process ids, the fabrics, and the storage
//! device. Everything is a pure function of the configured seed: two runs
//! with the same seed produce byte-identical fault schedules regardless of
//! worker-thread count.

#![warn(missing_docs)]

mod inject;
mod phase;
mod plan;
pub mod rng;

pub use inject::{install, FaultConfig, FaultSink, TornWrites};
pub use phase::{PhaseAction, PhaseFault, PhaseFaults, ProtocolPhase};
pub use plan::{FaultEvent, FaultKind, FaultPlan, StochasticFaults, COORDINATOR_VICTIM};
