//! # gbcr-net — connection-oriented InfiniBand-like simulated fabric
//!
//! InfiniBand's properties that the paper's design depends on (§2.2):
//!
//! * **Connection-oriented**: most MPI implementations use the RC (reliable
//!   connection) model; every pair of communicating processes holds an
//!   explicit connection (queue pair).
//! * **Expensive connection management**: establishing a connection needs an
//!   out-of-band exchange of queue-pair parameters, far more costly than a
//!   TCP handshake; checkpointing therefore requires *explicitly tearing
//!   down* connections before a local snapshot and rebuilding them after
//!   (the NIC caches communication context that cannot be saved by a
//!   process-level checkpointer).
//! * **OS-bypass**: delivery happens without the remote CPU, so flushing
//!   in-transit messages is an explicit protocol step.
//!
//! This crate models exactly those properties: a [`Fabric`] of reliable,
//! FIFO, per-direction-serialized connections with configurable latency,
//! bandwidth, and connection setup/teardown costs; per-connection in-flight
//! tracking so a channel can be *drained* (flushed); and an
//! `Active / Connecting / TornDown` per-connection state machine where
//! either side may initiate reconnection (the paper's client/server
//! connection manager in `gbcr-core` builds on this).
//!
//! The fabric is generic over the message type `M`, so the MPI layer ships
//! typed wire messages without serialization. Every message carries a
//! `wire_size`: eager messages charge their buffer size, rendezvous (RDMA)
//! transfers charge the full user-buffer size — zero-copy is a time model,
//! not a memory model, here.

#![warn(missing_docs)]

mod config;
mod fabric;
mod stats;

pub use config::NetConfig;
pub use fabric::{ArrivalHandler, ConnState, Endpoint, Fabric, Link, NodeId};
pub use stats::NetStats;
