//! Phase-targeted protocol faults: kill or stall a rank exactly when it
//! enters a given phase of a given checkpoint epoch.
//!
//! The coordinator's protocol is explicitly phased (suspend → flush →
//! teardown → local checkpoint → rebuild → resume), so "rank 2 dies while
//! flushing in epoch 1" is a precise, reproducible scenario rather than a
//! wall-clock race. The controller invokes the installed hook on entry to
//! each phase handler; a matching [`PhaseFault`] fires **once** and is then
//! consumed, so an aborted-and-retried epoch does not re-trip the same
//! fault (that is what lets abort-and-retry converge).

use gbcr_des::Time;
use std::cell::RefCell;
use std::rc::Rc;

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

/// A consumable set of phase faults shared by all rank controllers of one
/// run. `take` removes the matched fault so each fires exactly once.
#[derive(Debug, Default)]
pub struct PhaseFaults {
    pending: RefCell<Vec<PhaseFault>>,
}

impl PhaseFaults {
    /// Wrap a list of faults for sharing across controllers.
    pub fn new(faults: Vec<PhaseFault>) -> Rc<Self> {
        Rc::new(PhaseFaults { pending: RefCell::new(faults) })
    }

    /// Consume and return the first fault matching `(rank, epoch, phase)`.
    pub fn take(&self, rank: u32, epoch: u64, phase: ProtocolPhase) -> Option<PhaseAction> {
        let mut pending = self.pending.borrow_mut();
        let i = pending
            .iter()
            .position(|f| f.rank == rank && f.epoch == epoch && f.phase == phase)?;
        Some(pending.remove(i).action)
    }

    /// How many faults have not fired yet.
    pub fn remaining(&self) -> usize {
        self.pending.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbcr_des::time;

    #[test]
    fn faults_fire_once_and_only_on_exact_match() {
        let faults = PhaseFaults::new(vec![
            PhaseFault {
                epoch: 1,
                phase: ProtocolPhase::Checkpoint,
                rank: 2,
                action: PhaseAction::Stall(time::secs(3)),
            },
            PhaseFault { epoch: 0, phase: ProtocolPhase::Begin, rank: 0, action: PhaseAction::Kill },
        ]);
        assert_eq!(faults.take(2, 1, ProtocolPhase::Begin), None, "wrong phase");
        assert_eq!(faults.take(2, 0, ProtocolPhase::Checkpoint), None, "wrong epoch");
        assert_eq!(faults.take(1, 1, ProtocolPhase::Checkpoint), None, "wrong rank");
        assert_eq!(
            faults.take(2, 1, ProtocolPhase::Checkpoint),
            Some(PhaseAction::Stall(time::secs(3)))
        );
        assert_eq!(faults.take(2, 1, ProtocolPhase::Checkpoint), None, "consumed");
        assert_eq!(faults.take(0, 0, ProtocolPhase::Begin), Some(PhaseAction::Kill));
        assert_eq!(faults.remaining(), 0);
    }
}
