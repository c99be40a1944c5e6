//! # gbcr-core — group-based coordinated checkpointing for MPI
//!
//! The reference implementation of *Gao, Huang, Koop, Panda: "Group-based
//! Coordinated Checkpointing for MPI: A Case Study on InfiniBand"* (ICPP
//! 2007), rebuilt on the simulated substrates in this workspace
//! (`gbcr-des`, `gbcr-net`, `gbcr-storage`, `gbcr-blcr`, `gbcr-mpi`).
//!
//! ## The idea
//!
//! Blocking coordinated checkpointing is simple and logs nothing, but every
//! process writes its image to the central storage system *at the same
//! time*, so each gets `B/N` of the aggregate bandwidth — the **storage
//! bottleneck**. Group-based checkpointing splits the job into groups that
//! checkpoint **in turn**: each member of the active group sees `B/g`
//! bandwidth instead of `B/N`, while the other groups keep computing. A
//! consistent global snapshot still forms, with **no message logging**,
//! because communication between a group that has checkpointed and one that
//! has not is *deferred* (message/request buffering) until both are on the
//! same side of the recovery line.
//!
//! ## What is implemented
//!
//! * The global C/R coordinator (the `mpirun` console process),
//!   configured by [`CoordinatorCfg`] and orchestrating epochs over the out-of-band plane:
//!   `EPOCH_BEGIN → (GROUP_START → GROUP_GO → RANK_DONE* → GROUP_DONE)* →
//!   EPOCH_END`.
//! * [`Controller`]: the per-process local C/R controller, registered as
//!   the MPI runtime's [`gbcr_mpi::CrHook`]. It enforces the consistency
//!   gate (send from `p` to `q` allowed iff `group(p)` and `group(q)` are
//!   both done or both not, and neither is mid-checkpoint), performs the
//!   local checkpoint (drain → per-connection teardown → BLCR snapshot →
//!   report), and drives passive coordination with the §4.4 helper-thread
//!   slicing.
//! * [`GroupPlan`] formation: static (by rank, fixed size, §4.1), dynamic
//!   (transitive closure of frequently-communicating processes via
//!   union-find over measured traffic, with fallback to static for global
//!   patterns).
//! * [`CkptMode::Logging`]: the message-logging alternative (§2.1/§7) as an
//!   ablation — gates stay open, every message is copied+logged and
//!   zero-copy rendezvous is disabled, so its failure-free overhead can be
//!   compared against buffering.
//! * [`JobRunner`]: a builder-style harness that runs an MPI workload
//!   under a checkpoint schedule (optionally traced, crashed, faulted, or
//!   supervised) and can restart it ([`JobRunner::restart`]) from any
//!   committed epoch ([`RunReport::restart_spec`]), replaying to a provably
//!   identical result (see the integration tests).
//! * [`cluster`]: multi-tenant service mode — many concurrent jobs in one
//!   simulation, contending for a shared storage array and fabric
//!   bandwidth, each the `(JobSpec, CoordinatorCfg)` pair a solo run takes.
//!
//! Regular (non-group) coordinated checkpointing — the paper's baseline,
//! reference \[14] — is exactly this machinery with a single group of size
//! `N`; [`Formation::regular`] expresses that.

#![warn(missing_docs)]

mod client;
pub mod cluster;
mod controller;
mod coordinator;
mod election;
mod group;
mod job;
pub mod proto;
mod restart;
mod runner;
mod supervise;

pub use client::CkptClient;
pub use controller::{CkptMode, Controller, PhaseHook, RankCkptRecord};
pub use coordinator::{CkptSchedule, CoordinatorCfg, EpochReport, PhaseDeadlines};
pub use election::{ElectionCfg, ElectionStats};
pub use group::{Formation, GroupPlan};
pub use job::{JobSpec, RankBody, RankCtx, RunReport, StoreBackend};
pub use restart::RestartSpec;
pub use runner::{JobRunner, SupervisedRunner};
pub use supervise::{Attempt, RecoveryCounters, SupervisePolicy, SupervisedReport};
