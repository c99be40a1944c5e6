//! # gbcr-storage — central parallel-filesystem model (PVFS2-like)
//!
//! The paper's whole motivation is the *storage bottleneck*: checkpoint
//! images must land on a reliable central storage system whose aggregate
//! throughput is fixed, so the more processes writing concurrently, the less
//! bandwidth each obtains (paper §3.1, Figure 1). This crate models that
//! system as a **processor-sharing** server:
//!
//! * the aggregate effective rate with `k` active streams is
//!   `min(k · single_client_bw, aggregate_bw) / (1 + congestion · (k − 1))`,
//! * every active stream receives an equal share of that rate,
//! * rates are recomputed event-wise whenever a stream starts or finishes
//!   (the classic event-driven PS-queue construction, using cancelable
//!   completion timers).
//!
//! The default [`StorageConfig`] is calibrated to the paper's testbed: four
//! PVFS2 servers over IPoIB with ≈140 MB/s aggregate throughput and
//! ≈115 MB/s for a single client, which reproduces Figure 1 by construction
//! — `gbcr fig 1` regenerates the curve.
//!
//! Checkpoint images are stored as named [`StoredObject`]s that carry a
//! small *real* payload (the serialized application state) plus a *virtual
//! size* (the process memory footprint). Transfer time is charged for the
//! virtual size while only the payload occupies host memory, so a simulated
//! 32 × 1 GB checkpoint costs nothing real.
//!
//! Checkpoint storage is reached through the [`CheckpointStore`] trait,
//! which has two backends: the paper's array, a [`Storage`] used as is,
//! and the diskless [`ReplicatedStore`]. The only storage fault is a tear
//! ([`WriteFaultFn`]), decided per image write and per manifest commit.

#![warn(missing_docs)]

mod backend;
mod config;
mod model;
mod object;
mod replicated;
mod stats;

pub use backend::{owner_rank, replica_nodes, CheckpointStore, WriteTicket};
pub use config::StorageConfig;
pub use model::{Storage, StreamId, StreamKind, WriteFaultFn};
pub use object::StoredObject;
pub use replicated::ReplicatedStore;
pub use stats::{StorageStats, TransferRecord};

/// One megabyte (10^6 bytes) — the unit used throughout the paper's figures.
pub const MB: u64 = 1_000_000;
/// One gigabyte (10^9 bytes).
pub const GB: u64 = 1_000_000_000;
