//! Sub-communicators.

use crate::types::{Rank, Tag};
use std::rc::Rc;

/// A communicator: an ordered group of world ranks with its own collective
/// tag namespace. HPL-style workloads use row/column communicators; the
/// paper's dynamic group formation uses "user-defined communicators" as a
/// grouping heuristic.
#[derive(Debug, Clone)]
pub struct Comm {
    id: u32,
    members: Rc<Vec<Rank>>,
}

impl Comm {
    pub(crate) fn new(id: u32, members: Rc<Vec<Rank>>) -> Self {
        Comm { id, members }
    }

    /// Communicator id (stable across ranks for congruent creations).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Member world ranks in communicator order.
    pub fn members(&self) -> &[Rank] {
        &self.members
    }

    /// World rank of the member at `index`.
    pub fn member(&self, index: usize) -> Rank {
        self.members[index]
    }

    /// This world rank's index within the communicator, if a member.
    pub fn index_of(&self, rank: Rank) -> Option<usize> {
        self.members.iter().position(|&m| m == rank)
    }

    /// Whether `rank` belongs to this communicator.
    pub fn contains(&self, rank: Rank) -> bool {
        self.index_of(rank).is_some()
    }

    /// Tag for collective operation number `seq` on this communicator.
    /// Bit 31 marks collectives; bits 30..16 carry the communicator id
    /// (32 768 ids — a 10k-rank job with group communicators needs
    /// thousands); bits 15..0 the per-communicator operation sequence
    /// (wrapping — tags only disambiguate concurrent collectives).
    pub(crate) fn coll_tag(&self, seq: u32) -> Tag {
        0x8000_0000 | ((self.id & 0x7FFF) << 16) | (seq & 0xFFFF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comm(id: u32, members: Vec<Rank>) -> Comm {
        Comm::new(id, Rc::new(members))
    }

    #[test]
    fn membership_and_indexing() {
        let c = comm(3, vec![4, 8, 15]);
        assert_eq!(c.size(), 3);
        assert_eq!(c.index_of(8), Some(1));
        assert_eq!(c.index_of(5), None);
        assert!(c.contains(15));
        assert_eq!(c.member(0), 4);
    }

    #[test]
    fn coll_tags_are_disjoint_across_comms_and_seqs() {
        let a = comm(1, vec![0, 1]);
        let b = comm(2, vec![0, 1]);
        assert_ne!(a.coll_tag(0), b.coll_tag(0));
        assert_ne!(a.coll_tag(0), a.coll_tag(1));
        // All collective tags are above the user tag space.
        assert!(a.coll_tag(0) > crate::types::MAX_USER_TAG);
    }
}
