//! Phase-targeted protocol faults: kill or stall a rank exactly when it
//! enters a given phase of a given checkpoint epoch.
//!
//! The coordinator's protocol is explicitly phased (suspend → flush →
//! teardown → local checkpoint → rebuild → resume), so "rank 2 dies while
//! flushing in epoch 1" is a precise, reproducible scenario rather than a
//! wall-clock race. The controller invokes the job harness's hook on entry
//! to each phase handler; a matching [`PhaseFault`] fires **once** and is
//! then consumed, so an aborted-and-retried epoch does not re-trip the
//! same fault (that is what lets abort-and-retry converge).

use gbcr_des::Time;

/// A point in the per-epoch checkpoint protocol, as seen by one rank's
/// controller (entry into the corresponding OOB handler).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolPhase {
    /// `EPOCH_BEGIN` received: the rank is about to suspend user sends.
    Begin,
    /// `GROUP_START` received: the rank's group is being suspended.
    GroupStart,
    /// `GROUP_GO` received: flush, teardown, and the local checkpoint.
    Checkpoint,
    /// `GROUP_DONE` received: the group resumes.
    GroupDone,
    /// `EPOCH_END` received: the epoch is finalized cluster-wide.
    End,
}

/// What happens when a phase fault fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseAction {
    /// The rank's node dies on phase entry (fail-stop mid-protocol).
    Kill,
    /// The rank stalls for the given duration before proceeding — a
    /// straggler that trips a coordinator deadline without dying.
    Stall(Time),
}

/// One phase-targeted fault: `action` fires when `rank` enters `phase` of
/// `epoch` (and never again).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseFault {
    /// The checkpoint epoch targeted (the real epoch number; retries of an
    /// aborted epoch do not re-match because the fault is consumed).
    pub epoch: u64,
    /// The protocol phase targeted.
    pub phase: ProtocolPhase,
    /// The rank targeted.
    pub rank: u32,
    /// Kill or stall.
    pub action: PhaseAction,
}
