//! Simulation-level errors.

use crate::time::Time;
use std::fmt;

/// Result alias for simulation runs.
pub type SimResult<T> = Result<T, SimError>;

/// Errors surfaced by [`crate::Sim::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event queue drained while one or more processes were still
    /// blocked: nobody can ever wake them again. Carries the virtual time
    /// of the last processed event and the names of the stuck processes.
    Deadlock {
        /// Virtual time at which the queue drained.
        at: Time,
        /// Names of the processes that are parked forever.
        blocked: Vec<String>,
    },
    /// A simulated process panicked; the message is the panic payload
    /// rendered to a string.
    ProcessPanicked {
        /// Name of the panicking process.
        name: String,
        /// Stringified panic payload.
        message: String,
    },
    /// `run_until` reached its horizon before the event queue drained.
    HorizonReached {
        /// The horizon that was reached.
        at: Time,
    },
    /// The scheduler resumed a process that was already queued or running
    /// — a scheduler invariant violation. Surfaced as an error so that a
    /// bug in one simulation fails that run, not the whole harness
    /// process.
    DoubleResume {
        /// Name of the doubly-resumed process.
        name: String,
    },
    /// A process's coroutine stack could not be mapped or guarded when it
    /// first ran: the address space is exhausted, or the two mappings
    /// every live stack takes (the stack and its guard page) would pass
    /// the kernel's `vm.max_map_count` — about 32 k live processes per
    /// host process at the default 65 530.
    StackMapFailed {
        /// Name of the process that could not start.
        name: String,
        /// The OS error number from `mmap` or `mprotect`.
        errno: i32,
    },
    /// A recovery path needed a complete checkpoint epoch that does not
    /// exist — e.g. a crash preceded the first completed checkpoint, or a
    /// specific image of the requested epoch is missing (torn or never
    /// written). Callers can degrade (restart from scratch, pick an older
    /// epoch) instead of dying.
    NoRestartPoint {
        /// The checkpoint job namespace that was searched.
        job: String,
        /// Human-readable description of what exactly was missing.
        detail: String,
    },
    /// A supervised run gave up: the bounded retry budget was exhausted
    /// without the job ever completing.
    RetriesExhausted {
        /// How many attempts were made.
        attempts: usize,
    },
    /// Restart state existed but failed validation — e.g. an image that
    /// decodes to the wrong rank or epoch, or a manifest whose entries
    /// disagree with the images on disk. Unlike [`SimError::NoRestartPoint`]
    /// this is not "nothing to restart from" but "what is there cannot be
    /// trusted"; callers should fall back to an older epoch or give up
    /// rather than restore corrupt state.
    CorruptRestartState {
        /// The checkpoint job namespace being validated.
        job: String,
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// The checkpoint *control plane* was lost: the coordinator's node
    /// died and no surviving node took the role over (static coordinator,
    /// or a failover election that never converged). Distinct from
    /// [`SimError::NoRestartPoint`] — the data plane may hold perfectly
    /// good restart state; what failed is the authority that schedules
    /// epochs.
    CoordinatorLost {
        /// Election term in force when the coordinator was lost (1 for a
        /// static coordinator that never migrated).
        term: u64,
        /// The epoch the coordinator was orchestrating (or about to
        /// request) when it died.
        epoch: u64,
    },
    /// A fault configuration names a rank the job does not have (a node
    /// kill or phase fault past the last rank, a link flap with an end
    /// out of range or both ends on one rank). Rejected before the run
    /// starts, so nothing is simulated.
    InvalidFaults {
        /// Which fault is malformed, and why.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { at, blocked } => write!(
                f,
                "simulation deadlock at t={}: blocked processes: {}",
                crate::time::fmt(*at),
                blocked.join(", ")
            ),
            SimError::ProcessPanicked { name, message } => {
                write!(f, "simulated process '{name}' panicked: {message}")
            }
            SimError::HorizonReached { at } => {
                write!(f, "simulation horizon reached at t={}", crate::time::fmt(*at))
            }
            SimError::DoubleResume { name } => {
                write!(f, "scheduler resumed already-running process '{name}'")
            }
            SimError::StackMapFailed { name, errno } => write!(
                f,
                "cannot map the coroutine stack of simulated process '{name}': {}; \
                 each live process takes two mappings, so past about half of \
                 vm.max_map_count live processes that sysctl must be raised",
                std::io::Error::from_raw_os_error(*errno)
            ),
            SimError::NoRestartPoint { job, detail } => {
                write!(f, "no restart point for job '{job}': {detail}")
            }
            SimError::RetriesExhausted { attempts } => {
                write!(f, "supervised run gave up after {attempts} attempts")
            }
            SimError::CorruptRestartState { job, detail } => {
                write!(f, "corrupt restart state for job '{job}': {detail}")
            }
            SimError::CoordinatorLost { term, epoch } => write!(
                f,
                "checkpoint coordinator lost at term {term} (epoch {epoch}) \
                 with no surviving leader"
            ),
            SimError::InvalidFaults { detail } => write!(f, "invalid fault config: {detail}"),
        }
    }
}

impl std::error::Error for SimError {}
