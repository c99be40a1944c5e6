//! Diskless peer-replicated in-memory checkpoint store (ReStore-style).
//!
//! Instead of pushing every epoch image through one shared PVFS-like
//! array, each rank writes its image to its *own node's* in-memory store
//! (ramdisk speed, no cross-client contention) and fans out `k` remote
//! replica copies over the fabric to the ring peers chosen by
//! [`replica_nodes`]. A node crash destroys that node's store — the local
//! image *and* any replica copies it held for peers — so restart reads
//! each image from the nearest surviving copy: owner node first, then the
//! replicas in placement order. Only when all `k + 1` copies died is the
//! image gone (the manifest then fails validation and the supervisor
//! reports the existing typed `NoRestartPoint`).
//!
//! Determinism: replica placement is a pure function of
//! `(owner, n, k, shift)` with `shift` drawn once per job from the
//! stream-isolated fault RNG; fan-out and recovery probing iterate peers
//! in placement order; merged statistics sort records by
//! `(start, end, client, bytes)`. Two runs with the same seed are
//! byte-identical.

use crate::backend::{owner_rank, replica_nodes, CheckpointStore, WriteTicket};
use crate::config::StorageConfig;
use crate::model::{trace_object, Storage, StreamId, WriteFaultFn};
use crate::object::StoredObject;
use crate::stats::StorageStats;
use gbcr_des::{time, Arg, ArgValue, Proc, SimHandle, Time, Track};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};

/// One-way fabric cost charged per replica push / remote recovery read
/// (RDMA transfer setup to a peer's memory).
const REPLICA_RTT: Time = time::us(25);

struct PendingWrite {
    owner: u32,
    name: String,
    object: StoredObject,
}

/// The diskless replicated backend: `n` per-node in-memory stores
/// ([`StorageConfig::node_local`]), `k` remote replicas per image,
/// nearest-surviving-copy recovery.
pub struct ReplicatedStore {
    /// Remote replica copies per image (`k`); clamped to `n - 1`.
    replicas: u32,
    /// Ring-placement rotation, drawn once per job from the stream-isolated
    /// RNG (keeps placement reproducible without hardcoding "next node").
    shift: u64,
    handle: SimHandle,
    nodes: Vec<Storage>,
    /// Nodes that crashed: their *initial* image seeding is skipped on a
    /// restarted simulation (the replacement node comes up empty), but new
    /// writes and recovery re-seeding go through normally.
    lost: RefCell<HashSet<u32>>,
    write_fault: RefCell<Option<WriteFaultFn>>,
    meta_fault: RefCell<Option<WriteFaultFn>>,
    pending: RefCell<HashMap<(u32, StreamId), PendingWrite>>,
    /// What the backend itself did and no single node's device saw:
    /// replica traffic, recoveries, manifest commits.
    stats: RefCell<StorageStats>,
}

impl ReplicatedStore {
    /// Build the backend with one in-memory store per node, `replicas`
    /// remote copies per image and ring rotation `shift`.
    pub fn new(handle: SimHandle, n: u32, replicas: u32, shift: u64) -> Self {
        assert!(n > 0, "replicated store needs at least one node");
        let nodes =
            (0..n).map(|_| Storage::new(handle.clone(), StorageConfig::node_local())).collect();
        ReplicatedStore {
            replicas,
            shift,
            handle,
            nodes,
            lost: RefCell::default(),
            write_fault: RefCell::default(),
            meta_fault: RefCell::default(),
            pending: RefCell::default(),
            stats: RefCell::default(),
        }
    }

    /// Per-node device handles (tests poke at individual nodes).
    pub fn nodes(&self) -> &[Storage] {
        &self.nodes
    }

    fn owner_of(&self, client: u32, name: &str) -> u32 {
        let n = self.nodes.len() as u32;
        owner_rank(name).filter(|r| *r < n).unwrap_or(client % n)
    }

    fn peers_of(&self, owner: u32) -> Vec<u32> {
        replica_nodes(owner, self.nodes.len() as u32, self.replicas, self.shift)
    }

    /// Fan `object` out to the owner's ring peers, blocking until every
    /// copy is durable.
    fn push_replicas(&self, p: &Proc, client: u32, name: &str, object: &StoredObject, owner: u32) {
        let peers = self.peers_of(owner);
        if peers.is_empty() {
            return;
        }
        let fanout_start = p.now();
        let mut streams: Vec<(u32, StreamId)> = Vec::new();
        for peer in peers {
            p.sleep(REPLICA_RTT);
            let id = self.nodes[peer as usize].start_write(p, client, name, object.clone());
            self.handle.trace_instant(Track::Storage(client), "storage.replicate", || {
                peer_object(peer, name)
            });
            streams.push((peer, id));
        }
        for (peer, id) in &streams {
            self.nodes[*peer as usize].wait(p, *id);
        }
        let pushed = streams.len() as u64;
        let bytes = pushed * object.virtual_size;
        {
            let mut stats = self.stats.borrow_mut();
            stats.replicas_written += pushed;
            stats.replica_bytes += bytes;
        }
        self.handle.trace_span(Track::Storage(client), "storage.replicate", fanout_start, || {
            vec![("replicas", ArgValue::U64(pushed)), ("bytes", ArgValue::U64(bytes))]
        });
    }

    /// Whether `hook` (one of the two tear deciders) tears `name`.
    fn tears(hook: &RefCell<Option<WriteFaultFn>>, name: &str) -> bool {
        hook.borrow().as_ref().is_some_and(|h| h(name))
    }
}

/// The args of an instant about a copy of `name` on node `peer`.
fn peer_object(peer: u32, name: &str) -> Vec<Arg> {
    vec![("peer", ArgValue::U64(u64::from(peer))), ("object", ArgValue::Str(name.into()))]
}

impl CheckpointStore for ReplicatedStore {
    fn begin_write_image(
        &self,
        p: &Proc,
        client: u32,
        name: &str,
        object: StoredObject,
    ) -> WriteTicket {
        let owner = self.owner_of(client, name);
        // One tear draw per logical image, applied to the local copy only:
        // a torn local write is exactly what the remote replicas exist to
        // mask (the bytes being pushed come from the sender's own memory,
        // not the torn copy).
        let torn = Self::tears(&self.write_fault, name);
        let id =
            self.nodes[owner as usize].start_write_faulted(p, client, name, object.clone(), torn);
        self.pending
            .borrow_mut()
            .insert((client, id), PendingWrite { owner, name: name.to_owned(), object });
        WriteTicket { stream: id }
    }

    fn finish_write_image(&self, p: &Proc, client: u32, ticket: WriteTicket) {
        let pending = self
            .pending
            .borrow_mut()
            .remove(&(client, ticket.stream))
            .expect("finish_write_image without matching begin");
        self.nodes[pending.owner as usize].wait(p, ticket.stream);
        self.push_replicas(p, client, &pending.name, &pending.object, pending.owner);
    }

    fn read_image(&self, p: &Proc, client: u32, name: &str) -> StoredObject {
        let owner = self.owner_of(client, name);
        if self.nodes[owner as usize].contains(name) {
            self.stats.borrow_mut().local_recoveries += 1;
            return self.nodes[owner as usize].read(p, client, name);
        }
        for peer in self.peers_of(owner) {
            if self.nodes[peer as usize].contains(name) {
                let started = p.now();
                p.sleep(REPLICA_RTT);
                let obj = self.nodes[peer as usize].read(p, client, name);
                self.stats.borrow_mut().remote_recoveries += 1;
                let bytes = obj.virtual_size;
                self.handle.trace_span(
                    Track::Storage(client),
                    "storage.recover_remote",
                    started,
                    || vec![("peer", ArgValue::U64(peer as u64)), ("bytes", ArgValue::U64(bytes))],
                );
                // Re-seed the (replacement) owner node so subsequent chain
                // reads and epochs see a local copy; the object is already
                // durable, so this costs nothing.
                self.nodes[owner as usize].preload(name, obj.clone());
                return obj;
            }
        }
        panic!("storage object '{name}' does not exist on any target");
    }

    fn read_chain(&self, p: &Proc, client: u32, name: &str, bytes: u64) {
        let owner = self.owner_of(client, name);
        if self.nodes[owner as usize].contains(name) {
            self.nodes[owner as usize].read_bulk(p, client, bytes);
            return;
        }
        for peer in self.peers_of(owner) {
            if self.nodes[peer as usize].contains(name) {
                p.sleep(REPLICA_RTT);
                self.nodes[peer as usize].read_bulk(p, client, bytes);
                return;
            }
        }
        panic!("storage object '{name}' does not exist on any target");
    }

    fn contains(&self, name: &str) -> bool {
        self.nodes.iter().any(|s| s.contains(name))
    }

    fn peek(&self, name: &str) -> Option<StoredObject> {
        self.nodes.iter().find_map(|s| s.peek(name))
    }

    fn commit_meta(&self, client: u32, name: &str, object: StoredObject) -> bool {
        let torn = Self::tears(&self.meta_fault, name);
        if torn {
            self.stats.borrow_mut().torn_manifests += 1;
        } else {
            // The manifest is tiny control metadata: replicate it to every
            // node so it survives any single crash, exactly one logical
            // commit regardless of node count.
            for store in &self.nodes {
                store.preload(name, object.clone());
            }
            self.stats.borrow_mut().manifest_commits += 1;
        }
        let what = if torn { "storage.torn_meta" } else { "storage.commit" };
        trace_object(&self.handle, client, what, name);
        !torn
    }

    fn preload(&self, name: &str, object: StoredObject) {
        let lost = self.lost.borrow();
        let n = self.nodes.len() as u32;
        match owner_rank(name).filter(|r| *r < n) {
            Some(owner) => {
                let mut targets = vec![owner];
                targets.extend(self.peers_of(owner));
                for t in targets {
                    if !lost.contains(&t) {
                        self.nodes[t as usize].preload(name, object.clone());
                    }
                }
            }
            None => {
                for (i, store) in self.nodes.iter().enumerate() {
                    if !lost.contains(&(i as u32)) {
                        store.preload(name, object.clone());
                    }
                }
            }
        }
    }

    fn export_objects(&self) -> Vec<(String, StoredObject)> {
        let mut merged: BTreeMap<String, StoredObject> = BTreeMap::new();
        for store in &self.nodes {
            for (name, obj) in store.export_objects() {
                merged.entry(name).or_insert(obj);
            }
        }
        merged.into_iter().collect()
    }

    fn storage_stats(&self) -> StorageStats {
        let mut out = self.stats.borrow().clone();
        for store in &self.nodes {
            out.merge(store.stats());
        }
        out.records.sort_by(|a, b| {
            (a.start, a.end, a.client, a.bytes).cmp(&(b.start, b.end, b.client, b.bytes))
        });
        out
    }

    fn node_failed(&self, node: u32) {
        let Some(store) = self.nodes.get(node as usize) else { return };
        let dropped = store.wipe();
        let lost_replicas = dropped
            .iter()
            .filter(|(name, _)| matches!(owner_rank(name), Some(r) if r != node))
            .count() as u64;
        self.stats.borrow_mut().replica_losses += lost_replicas;
        self.lost.borrow_mut().insert(node);
        let objects = dropped.len() as u64;
        self.handle.trace_instant(Track::Storage(node), "storage.node_lost", || {
            vec![("objects", ArgValue::U64(objects))]
        });
    }

    fn set_write_fault_hook(&self, hook: Option<WriteFaultFn>) {
        *self.write_fault.borrow_mut() = hook;
    }

    fn set_meta_fault_hook(&self, hook: Option<WriteFaultFn>) {
        *self.meta_fault.borrow_mut() = hook;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MB;
    use gbcr_des::Sim;
    use std::rc::Rc;

    fn store(sim: &mut Sim, n: u32, k: u32) -> Rc<ReplicatedStore> {
        Rc::new(ReplicatedStore::new(sim.handle(), n, k, 0))
    }

    #[test]
    fn write_lands_on_owner_and_ring_peers() {
        let mut sim = Sim::new(0);
        let st = store(&mut sim, 4, 2);
        let s = st.clone();
        sim.spawn("w", move |p| {
            s.write_image(p, 1, "ckpt/j/e0/r1", StoredObject::bulk(10 * MB));
        });
        sim.run().unwrap();
        assert!(st.nodes()[1].contains("ckpt/j/e0/r1"), "owner copy");
        // shift 0, owner 1 -> peers 2, 3.
        assert!(st.nodes()[2].contains("ckpt/j/e0/r1"));
        assert!(st.nodes()[3].contains("ckpt/j/e0/r1"));
        assert!(!st.nodes()[0].contains("ckpt/j/e0/r1"));
        let stats = st.storage_stats();
        assert_eq!(stats.replicas_written, 2);
        assert_eq!(stats.replica_bytes, 2 * 10 * MB);
    }

    #[test]
    fn recovery_prefers_local_then_replica_order() {
        let mut sim = Sim::new(0);
        let st = store(&mut sim, 4, 2);
        let s = st.clone();
        sim.spawn("rw", move |p| {
            s.write_image(p, 1, "ckpt/j/e0/r1", StoredObject::bulk(MB));
            s.read_image(p, 1, "ckpt/j/e0/r1");
            // Kill the owner node: next read must come from a replica.
            s.node_failed(1);
            s.read_image(p, 1, "ckpt/j/e0/r1");
        });
        sim.run().unwrap();
        let stats = st.storage_stats();
        assert_eq!(stats.local_recoveries, 1);
        assert_eq!(stats.remote_recoveries, 1);
        // The remote read re-seeded the owner node.
        assert!(st.nodes()[1].contains("ckpt/j/e0/r1"));
    }

    #[test]
    fn node_failure_counts_lost_replica_copies() {
        let mut sim = Sim::new(0);
        let st = store(&mut sim, 4, 2);
        let s = st.clone();
        sim.spawn("w", move |p| {
            // Node 2 holds its own image plus replicas of ranks 0 and 1.
            s.write_image(p, 0, "ckpt/j/e0/r0", StoredObject::bulk(MB));
            s.write_image(p, 1, "ckpt/j/e0/r1", StoredObject::bulk(MB));
            s.write_image(p, 2, "ckpt/j/e0/r2", StoredObject::bulk(MB));
            s.node_failed(2);
        });
        sim.run().unwrap();
        let stats = st.storage_stats();
        assert_eq!(stats.replica_losses, 2, "r0 and r1 copies died with node 2");
        assert!(!st.nodes()[2].contains("ckpt/j/e0/r2"));
    }

    #[test]
    #[should_panic(expected = "does not exist on any target")]
    fn all_copies_dead_panics_on_read() {
        let mut sim = Sim::new(0);
        let st = store(&mut sim, 4, 1);
        let s = st.clone();
        sim.spawn("rw", move |p| {
            s.write_image(p, 0, "ckpt/j/e0/r0", StoredObject::bulk(MB));
            s.node_failed(0);
            s.node_failed(1); // shift 0: rank 0's only replica is node 1
            s.read_image(p, 0, "ckpt/j/e0/r0");
        });
        let err = sim.run().unwrap_err();
        panic!("{err}");
    }

    #[test]
    fn preload_skips_lost_nodes_until_reseeded() {
        let mut sim = Sim::new(0);
        let st = store(&mut sim, 4, 1);
        st.node_failed(0);
        CheckpointStore::preload(&*st, "ckpt/j/e0/r0", StoredObject::bulk(MB));
        assert!(!st.nodes()[0].contains("ckpt/j/e0/r0"), "lost node comes up empty");
        assert!(st.nodes()[1].contains("ckpt/j/e0/r0"), "replica preloaded");
        let s = st.clone();
        sim.spawn("r", move |p| {
            s.read_image(p, 0, "ckpt/j/e0/r0");
        });
        sim.run().unwrap();
        assert_eq!(st.storage_stats().remote_recoveries, 1);
        assert!(st.nodes()[0].contains("ckpt/j/e0/r0"), "recovery re-seeded the node");
    }

    #[test]
    fn manifests_replicate_to_every_node() {
        let mut sim = Sim::new(0);
        let st = store(&mut sim, 3, 1);
        assert!(st.commit_meta(u32::MAX, "manifest/j/e0", StoredObject::bulk(64)));
        for node in st.nodes() {
            assert!(node.contains("manifest/j/e0"));
        }
        let stats = st.storage_stats();
        assert_eq!(stats.manifest_commits, 1, "one logical commit");
        drop(sim);
    }

    #[test]
    fn deferred_write_fans_out_on_finish() {
        let mut sim = Sim::new(0);
        let st = store(&mut sim, 4, 2);
        let s = st.clone();
        sim.spawn("w", move |p| {
            let t = s.begin_write_image(p, 0, "ckpt/j/e0/r0", StoredObject::bulk(MB));
            assert_eq!(s.storage_stats().replicas_written, 0, "no fan-out before finish");
            s.finish_write_image(p, 0, t);
        });
        sim.run().unwrap();
        assert_eq!(st.storage_stats().replicas_written, 2);
        assert!(st.nodes()[1].contains("ckpt/j/e0/r0"));
        assert!(st.nodes()[2].contains("ckpt/j/e0/r0"));
    }
}
