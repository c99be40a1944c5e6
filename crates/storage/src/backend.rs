//! Pluggable checkpoint-store backends.
//!
//! Everything above the storage crate (BLCR image writes, the coordinator's
//! manifest commits, the supervisor's restart reads, fault injection) talks
//! to checkpoint storage through the [`CheckpointStore`] trait. Two
//! implementations ship here:
//!
//! * [`crate::Storage`] itself — the paper's shared PVFS2-like array. An
//!   image write is exactly [`crate::Storage::write`]: same events, same
//!   timing.
//! * [`crate::ReplicatedStore`] — a ReStore-style diskless backend: each
//!   rank's image lands in its own node's in-memory store plus `k` remote
//!   replicas, and restart reads from the nearest surviving copy.

use crate::model::{StreamId, WriteFaultFn};
use crate::object::StoredObject;
use crate::stats::StorageStats;
use gbcr_des::Proc;

/// Handle for a non-blocking image write started with
/// [`CheckpointStore::begin_write_image`]; redeem it (possibly from a
/// different simulated process) with [`CheckpointStore::finish_write_image`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteTicket {
    pub(crate) stream: StreamId,
}

/// The checkpoint storage abstraction: where epoch images and manifests
/// live, how they are written, and where restart finds them.
///
/// Contract highlights:
///
/// * `write_image` blocks until the image is as durable as the backend can
///   make it. A torn write still returns — the writer cannot tell, the
///   durability promise is what broke.
/// * `read_image` panics when no copy survives anywhere: restarting from a
///   checkpoint that the manifest did not validate is a caller bug.
/// * `commit_meta` is a zero-simulated-time manifest publish (it piggybacks
///   on the protocol round that proved the images durable).
pub trait CheckpointStore {
    /// Write a checkpoint image, blocking until durable: a
    /// [`CheckpointStore::begin_write_image`] redeemed at once.
    fn write_image(&self, p: &Proc, client: u32, name: &str, object: StoredObject) {
        let ticket = self.begin_write_image(p, client, name, object);
        self.finish_write_image(p, client, ticket);
    }

    /// Start an image write without blocking (the Chandy-Lamport
    /// copy-on-write path overlaps the transfer with computation); pair
    /// with [`CheckpointStore::finish_write_image`].
    fn begin_write_image(
        &self,
        p: &Proc,
        client: u32,
        name: &str,
        object: StoredObject,
    ) -> WriteTicket;

    /// Block until a write started with `begin_write_image` is durable
    /// (including any replica fan-out the backend performs).
    fn finish_write_image(&self, p: &Proc, client: u32, ticket: WriteTicket);

    /// Read an image back, charging transfer time at whichever copy serves
    /// it. Panics if no copy exists anywhere.
    fn read_image(&self, p: &Proc, client: u32, name: &str) -> StoredObject;

    /// Charge a bulk read of `bytes` anonymous bytes at the copy that
    /// holds `name` (incremental-checkpoint chain restores account their
    /// chain members in aggregate).
    fn read_chain(&self, p: &Proc, client: u32, name: &str, bytes: u64);

    /// Zero-time lookup of `name` on any copy.
    fn peek(&self, name: &str) -> Option<StoredObject>;

    /// Atomically publish a small metadata record (epoch manifest) with
    /// zero simulated time cost. Returns whether it became visible.
    fn commit_meta(&self, client: u32, name: &str, object: StoredObject) -> bool;

    /// Seed the namespace with an already-durable object (restart path);
    /// no simulated time cost.
    fn preload(&self, name: &str, object: StoredObject);

    /// Export the whole logical namespace, deduplicated and sorted by name
    /// (for carrying images across simulations).
    fn export_objects(&self) -> Vec<(String, StoredObject)>;

    /// Aggregated transfer/fault statistics across the backend's devices.
    fn storage_stats(&self) -> StorageStats;

    /// A compute node crashed: destroy whatever checkpoint state was
    /// co-located with it. No-op for backends with no per-node state.
    fn node_failed(&self, node: u32) {
        let _ = node;
    }

    /// Install (or clear) the image-write tear decider.
    fn set_write_fault_hook(&self, hook: Option<WriteFaultFn>);

    /// Install (or clear) the manifest-commit tear decider.
    fn set_meta_fault_hook(&self, hook: Option<WriteFaultFn>);
}

/// Deterministic ring placement for replica copies: the `k` nodes after
/// `owner` on the ring of `n` nodes, rotated by `shift` (drawn once per job
/// from the stream-isolated RNG so placement is reproducible but not
/// always "the next node"). Never includes `owner`; returns fewer than `k`
/// peers only when the cluster has fewer than `k + 1` nodes.
pub fn replica_nodes(owner: u32, n: u32, k: u32, shift: u64) -> Vec<u32> {
    if n <= 1 {
        return Vec::new();
    }
    let k = k.min(n - 1);
    (0..k as u64)
        .map(|j| {
            // Offsets land in [0, n-2], so owner + 1 + offset can never
            // wrap back onto owner, and k consecutive offsets mod (n-1)
            // are pairwise distinct.
            let offset = (shift + j) % (n as u64 - 1);
            ((owner as u64 + 1 + offset) % n as u64) as u32
        })
        .collect()
}

/// Parse the owning rank out of a checkpoint-image name: images are named
/// `ckpt/{job}/e{epoch}/r{rank}`, so the trailing `/r<digits>` component
/// identifies the owner. Names without one (epoch manifests,
/// `manifest/{job}/e{epoch}`) return `None` and are treated as global
/// metadata by placement-aware backends.
pub fn owner_rank(name: &str) -> Option<u32> {
    let idx = name.rfind("/r")?;
    let digits = &name[idx + 2..];
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_placement_skips_owner_and_wraps() {
        assert_eq!(replica_nodes(0, 4, 2, 0), vec![1, 2]);
        assert_eq!(replica_nodes(3, 4, 2, 0), vec![0, 1]);
        // Rotated by shift.
        assert_eq!(replica_nodes(0, 4, 2, 1), vec![2, 3]);
        // shift wraps within the n-1 non-owner offsets: offset 2 then 0.
        assert_eq!(replica_nodes(0, 4, 2, 2), vec![3, 1]);
    }

    #[test]
    fn ring_placement_clamps_k_to_cluster_size() {
        assert_eq!(replica_nodes(1, 3, 10, 0), vec![2, 0]);
        assert_eq!(replica_nodes(0, 1, 3, 7), Vec::<u32>::new());
        assert_eq!(replica_nodes(0, 2, 3, 5), vec![1]);
    }

    #[test]
    fn owner_rank_parses_image_names_only() {
        assert_eq!(owner_rank("ckpt/job/e3/r12"), Some(12));
        assert_eq!(owner_rank("ckpt/job/e0/r0"), Some(0));
        assert_eq!(owner_rank("manifest/job/e3"), None);
        assert_eq!(owner_rank("ckpt/job/e3/r"), None);
        assert_eq!(owner_rank("ckpt/job/e3/r1x"), None);
        assert_eq!(owner_rank("plain"), None);
    }
}
