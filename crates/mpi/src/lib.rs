//! # gbcr-mpi — an MPI-like runtime over the simulated fabric
//!
//! This crate rebuilds the slice of an MPI implementation (modeled on
//! MVAPICH2) that the paper's checkpointing design lives inside:
//!
//! * **Point-to-point** sends/receives with tags, blocking and nonblocking
//!   variants, an *eager* protocol for small messages (payload copied into a
//!   communication buffer and pushed immediately) and a *zero-copy
//!   rendezvous* protocol (RTS → CTS → RDMA data) for large ones — the
//!   distinction §4.3 of the paper builds its message-vs-request buffering
//!   split on.
//! * **Unexpected/posted queues** with MPI's non-overtaking matching rules.
//! * **Collectives** (barrier, bcast, allgather, allreduce) over
//!   sub-communicators, implemented on point-to-point like a real MPI.
//! * **A progress engine** that only runs when the application enters the
//!   library (or, in *passive coordination* mode, at a bounded interval
//!   while computing — the paper's §4.4 helper thread).
//! * **Interposition hooks** ([`CrHook`]) by which the checkpoint layer
//!   (`gbcr-core`) gates user-plane traffic per destination, defers it via
//!   *message buffering* (eager messages already copied to a send buffer)
//!   or *request buffering* (rendezvous requests kept incomplete), and
//!   receives control messages on both the in-band (data fabric) and
//!   out-of-band (TCP-like) channels.
//!
//! Two fabrics are used, mirroring MVAPICH2 over InfiniBand: the **data
//! plane** is the expensive connection-oriented IB fabric whose connections
//! must be torn down around local checkpoints; the **out-of-band plane**
//! models the always-up PMI/mpirun socket mesh used for global
//! coordination. Crucially — modeling OS-bypass — data-plane arrivals do
//! *not* wake a computing rank; they wait for the progress engine.
//! Out-of-band arrivals do wake it (kernel sockets + the framework's
//! listener thread).

#![warn(missing_docs)]

mod api;
mod comm;
mod config;
mod engine;
mod hook;
mod types;
mod wake;
mod world;

pub use api::{Mpi, WeakMpi};
pub use comm::Comm;
pub use config::{MpiConfig, EAGER_THRESHOLD, LOGGING_COPY_BW, OOB_NET};
pub use engine::{DeferStats, EndpointStats, ListenerStats, MpiCrState, TrafficStats};
pub use hook::{CrHook, CtrlWire, OobMsg};
pub use types::{Msg, Rank, Request, Tag, MAX_USER_TAG};
pub use wake::DemandWake;
pub use world::{standby_node, World, COORDINATOR_NODE};
