//! Pluggable checkpoint-store backends.
//!
//! Everything above the storage crate (BLCR image writes, the coordinator's
//! manifest commits, the supervisor's restart reads, fault injection) talks
//! to checkpoint storage through the [`CheckpointStore`] trait. Two
//! implementations ship here:
//!
//! * [`CentralStore`] — the paper's shared PVFS2-like array: one or more
//!   [`Storage`] targets, primary first. An image write that hits an
//!   outage is retried with capped exponential backoff ([`RetryPolicy`])
//!   and then fails over to the next target; the epoch manifest follows
//!   the images to the first target that is up. With one healthy target a
//!   write is exactly [`Storage::write`] — same events, same timing.
//! * [`crate::ReplicatedStore`] — a ReStore-style diskless backend: each
//!   rank's image lands in its own node's in-memory store plus `k` remote
//!   replicas, and restart reads from the nearest surviving copy.

use crate::model::{Storage, StreamId, WriteFaultFn};
use crate::object::StoredObject;
use crate::stats::StorageStats;
use gbcr_des::{ArgValue, Proc, Time, Track};
use std::cell::RefCell;

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
///   make it; `Err(())` means *observably* nothing accepted the write
///   (every target/copy was inside an outage window). Silent fault modes
///   (torn/failed writes) still return `Ok` — the writer cannot tell, the
///   durability promise is what broke.
/// * `read_image` panics when no copy survives anywhere: restarting from a
///   checkpoint that the manifest did not validate is a caller bug.
/// * `commit_meta` is a zero-simulated-time manifest publish (it piggybacks
///   on the protocol round that proved the images durable).
pub trait CheckpointStore {
    /// Write a checkpoint image, blocking until durable. `Err(())` when no
    /// target accepted the write (outage windows everywhere).
    #[allow(clippy::result_unit_err)]
    fn write_image(&self, p: &Proc, client: u32, name: &str, object: StoredObject)
        -> Result<(), ()>;

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

    /// Whether any copy of `name` exists (no simulated time cost).
    fn contains(&self, name: &str) -> bool;

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

    /// Open (or extend) an outage window on storage target `target`
    /// (fault injection). Out-of-range targets are ignored.
    fn set_outage(&self, target: usize, until: Time);

    /// Apply a bandwidth derate to the backend's devices (fault injection:
    /// brown-out). 1.0 restores full health.
    fn set_derate(&self, derate: f64);

    /// Install (or clear) the per-image write-fault decider.
    fn set_write_fault_hook(&self, hook: Option<WriteFaultFn>);

    /// Install (or clear) the manifest-commit fault decider.
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

/// Capped exponential backoff for transient storage-write failures.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Retries per target before failing over (total attempts per target is
    /// `max_retries + 1`).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Time,
    /// Multiplier applied per subsequent retry.
    pub backoff_factor: f64,
    /// Ceiling on any single backoff.
    pub max_backoff: Time,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: gbcr_des::time::ms(200),
            backoff_factor: 2.0,
            max_backoff: gbcr_des::time::secs(2),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (0-based): `base · factor^retry`,
    /// capped at `max_backoff`.
    pub fn backoff(&self, retry: u32) -> Time {
        let mut b = self.base_backoff;
        for _ in 0..retry {
            b = ((b as f64 * self.backoff_factor) as Time).min(self.max_backoff);
        }
        b.min(self.max_backoff)
    }
}

/// The central-array backend: an ordered list of shared [`Storage`]
/// targets (primary first) with retry + failover on image writes. One
/// instance per job, shared by every rank, so its own counters (retries
/// and failovers) are job-wide totals.
pub struct CentralStore {
    targets: Vec<Storage>,
    policy: RetryPolicy,
    /// What the backend itself did, which no device saw.
    stats: RefCell<StorageStats>,
}

impl CentralStore {
    /// Build the backend over `targets` (primary first). Panics if empty.
    pub fn new(targets: Vec<Storage>, policy: RetryPolicy) -> Self {
        assert!(!targets.is_empty(), "central store needs at least one target");
        CentralStore { targets, policy, stats: RefCell::default() }
    }

    fn primary(&self) -> &Storage {
        &self.targets[0]
    }

    /// The first target holding `name`. Panics if none does (restart from
    /// a checkpoint the manifest did not validate is a caller bug).
    fn holder(&self, name: &str) -> &Storage {
        self.targets
            .iter()
            .find(|t| t.contains(name))
            .unwrap_or_else(|| panic!("storage object '{name}' does not exist on any target"))
    }
}

impl CheckpointStore for CentralStore {
    fn write_image(
        &self,
        p: &Proc,
        client: u32,
        name: &str,
        object: StoredObject,
    ) -> Result<(), ()> {
        // Retry each target with capped exponential backoff before failing
        // over to the next; `Err` when every target's budget is exhausted
        // (the image is lost; the epoch simply never manifests).
        for (i, target) in self.targets.iter().enumerate() {
            if i > 0 {
                self.stats.borrow_mut().failovers += 1;
                p.handle().trace_instant(Track::Storage(client), "storage.failover", || {
                    vec![("object", ArgValue::Str(name.into())), ("target", ArgValue::U64(i as u64))]
                });
            }
            let mut retry = 0u32;
            loop {
                if target.write_checked(p, client, name, object.clone()).is_ok() {
                    return Ok(());
                }
                if retry >= self.policy.max_retries {
                    break;
                }
                self.stats.borrow_mut().write_retries += 1;
                p.sleep(self.policy.backoff(retry));
                retry += 1;
            }
        }
        Err(())
    }

    fn begin_write_image(
        &self,
        p: &Proc,
        client: u32,
        name: &str,
        object: StoredObject,
    ) -> WriteTicket {
        WriteTicket { stream: self.primary().start_write(p, client, name, object) }
    }

    fn finish_write_image(&self, p: &Proc, _client: u32, ticket: WriteTicket) {
        self.primary().wait(p, ticket.stream);
    }

    fn read_image(&self, p: &Proc, client: u32, name: &str) -> StoredObject {
        self.holder(name).read(p, client, name)
    }

    fn read_chain(&self, p: &Proc, client: u32, name: &str, bytes: u64) {
        self.holder(name).read_bulk(p, client, bytes);
    }

    fn contains(&self, name: &str) -> bool {
        self.targets.iter().any(|t| t.contains(name))
    }

    fn peek(&self, name: &str) -> Option<StoredObject> {
        self.targets.iter().find_map(|t| t.peek(name))
    }

    fn commit_meta(&self, client: u32, name: &str, object: StoredObject) -> bool {
        // The manifest follows the images: it lands on the first target
        // that is up, in the order image writes fail over. With every
        // target down the primary records the rejected commit.
        let target = self.targets.iter().find(|t| !t.in_outage()).unwrap_or(self.primary());
        target.commit_meta(client, name, object)
    }

    fn preload(&self, name: &str, object: StoredObject) {
        self.primary().preload(name, object);
    }

    fn export_objects(&self) -> Vec<(String, StoredObject)> {
        // Primary wins on name collisions (it is authoritative; a standby
        // only holds copies the primary rejected during an outage).
        let mut out = self.primary().export_objects();
        for standby in &self.targets[1..] {
            for (name, obj) in standby.export_objects() {
                if !out.iter().any(|(n, _)| *n == name) {
                    out.push((name, obj));
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn storage_stats(&self) -> StorageStats {
        // Transfer records and fault counters describe the primary array
        // (the device the figures measure); a manifest is counted wherever
        // it landed.
        let mut out = self.primary().stats();
        out.merge(self.stats.borrow().clone());
        for standby in &self.targets[1..] {
            out.manifest_commits += standby.stats().manifest_commits;
        }
        out
    }

    fn set_outage(&self, target: usize, until: Time) {
        if let Some(t) = self.targets.get(target) {
            t.set_outage_until(until);
        }
    }

    fn set_derate(&self, derate: f64) {
        self.primary().set_derate(derate);
    }

    fn set_write_fault_hook(&self, hook: Option<WriteFaultFn>) {
        self.primary().set_write_fault_hook(hook);
    }

    fn set_meta_fault_hook(&self, hook: Option<WriteFaultFn>) {
        self.primary().set_meta_fault_hook(hook);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StorageConfig;
    use crate::MB;
    use gbcr_des::{time, Sim};
    use std::rc::Rc;

    /// Two zero-latency targets and a central store over them.
    fn two_targets(sim: &Sim, policy: RetryPolicy) -> (Storage, Storage, Rc<CentralStore>) {
        let cfg = StorageConfig { per_op_latency: 0, ..StorageConfig::default() };
        let primary = Storage::new(sim.handle(), cfg.clone());
        let secondary = Storage::new(sim.handle(), cfg);
        let store = CentralStore::new(vec![primary.clone(), secondary.clone()], policy);
        (primary, secondary, Rc::new(store))
    }

    #[test]
    fn backoff_schedule_is_capped_exponential() {
        let p = RetryPolicy {
            max_retries: 10,
            base_backoff: time::ms(100),
            backoff_factor: 2.0,
            max_backoff: time::ms(700),
        };
        assert_eq!(p.backoff(0), time::ms(100));
        assert_eq!(p.backoff(1), time::ms(200));
        assert_eq!(p.backoff(2), time::ms(400));
        assert_eq!(p.backoff(3), time::ms(700), "capped");
        assert_eq!(p.backoff(9), time::ms(700), "stays capped");
    }

    #[test]
    fn healthy_primary_never_retries() {
        let mut sim = Sim::new(0);
        let (primary, secondary, w) = two_targets(&sim, RetryPolicy::default());
        sim.spawn("w", {
            let w = w.clone();
            move |p| {
                assert_eq!(w.write_image(p, 0, "img", StoredObject::bulk(115 * MB)), Ok(()));
            }
        });
        sim.run().unwrap();
        assert!(primary.contains("img"));
        assert!(!secondary.contains("img"));
        assert_eq!(w.storage_stats().write_retries, 0);
        assert_eq!(w.storage_stats().failovers, 0);
    }

    #[test]
    fn outage_retries_then_fails_over_to_secondary() {
        let mut sim = Sim::new(0);
        let policy = RetryPolicy {
            max_retries: 2,
            base_backoff: time::ms(100),
            backoff_factor: 2.0,
            max_backoff: time::secs(1),
        };
        let (primary, secondary, w) = two_targets(&sim, policy);
        primary.set_outage_until(time::secs(3600)); // never recovers in-test
        sim.spawn("w", {
            let w = w.clone();
            move |p| {
                assert_eq!(w.write_image(p, 0, "img", StoredObject::bulk(115 * MB)), Ok(()));
            }
        });
        sim.run().unwrap();
        assert!(secondary.contains("img"));
        assert!(!primary.contains("img"));
        assert_eq!(w.storage_stats().write_retries, 2);
        assert_eq!(w.storage_stats().failovers, 1);
        assert_eq!(primary.stats().unavailable_writes, 3, "initial try + 2 retries");
    }

    #[test]
    fn short_outage_recovers_on_primary_without_failover() {
        let mut sim = Sim::new(0);
        let (primary, _secondary, w) = two_targets(&sim, RetryPolicy::default());
        primary.set_outage_until(time::ms(250));
        sim.spawn("w", {
            let w = w.clone();
            move |p| {
                // Fails at t=0, backs off 200ms, fails at 200ms, backs off
                // 400ms, succeeds at 600ms.
                assert_eq!(w.write_image(p, 0, "img", StoredObject::bulk(MB)), Ok(()));
            }
        });
        sim.run().unwrap();
        assert!(primary.contains("img"));
        assert_eq!(w.storage_stats().write_retries, 2);
        assert_eq!(w.storage_stats().failovers, 0);
    }

    #[test]
    fn all_targets_down_gives_up() {
        let mut sim = Sim::new(0);
        let cfg = StorageConfig { per_op_latency: 0, ..StorageConfig::default() };
        let primary = Storage::new(sim.handle(), cfg);
        primary.set_outage_until(time::secs(3600));
        let policy = RetryPolicy { max_retries: 1, ..RetryPolicy::default() };
        let w = Rc::new(CentralStore::new(vec![primary.clone()], policy));
        sim.spawn("w", {
            let w = w.clone();
            move |p| {
                assert!(w.write_image(p, 0, "img", StoredObject::bulk(MB)).is_err());
            }
        });
        sim.run().unwrap();
        assert!(!primary.contains("img"));
        assert_eq!(w.storage_stats().write_retries, 1);
    }

    #[test]
    fn read_finds_object_on_secondary() {
        let mut sim = Sim::new(0);
        let (primary, secondary, w) = two_targets(&sim, RetryPolicy::default());
        secondary.preload("img", StoredObject::bulk(MB));
        sim.spawn("r", move |p| {
            assert_eq!(w.read_image(p, 0, "img").virtual_size, MB);
        });
        sim.run().unwrap();
        // The read was served, and charged, by the secondary.
        assert_eq!(secondary.stats().records.len(), 1);
        assert!(primary.stats().records.is_empty());
    }

    #[test]
    fn manifest_commit_lands_on_the_first_target_that_is_up() {
        let sim = Sim::new(0);
        let (primary, secondary, w) = two_targets(&sim, RetryPolicy::default());
        assert!(w.commit_meta(0, "manifest/j/e0", StoredObject::bulk(8)));
        assert!(primary.contains("manifest/j/e0"));
        primary.set_outage_until(time::secs(1));
        assert!(w.commit_meta(0, "manifest/j/e1", StoredObject::bulk(8)));
        assert!(secondary.contains("manifest/j/e1") && !primary.contains("manifest/j/e1"));
        assert_eq!(w.storage_stats().manifest_commits, 2, "counted wherever it lands");
        // With every target down the commit is rejected, and says so.
        secondary.set_outage_until(time::secs(1));
        assert!(!w.commit_meta(0, "manifest/j/e2", StoredObject::bulk(8)));
        assert!(!w.contains("manifest/j/e2"));
        assert_eq!(primary.stats().unavailable_writes, 1);
    }

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
