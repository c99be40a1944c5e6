//! Event-driven processor-sharing transfer engine.
//!
//! Invariants maintained by [`Storage`]:
//!
//! 1. Between two membership changes, every active stream progresses at the
//!    same rate `aggregate_rate(k)/k`.
//! 2. On any change (stream added / completed), all streams are *settled*
//!    (their remaining byte counts updated for the elapsed interval) before
//!    the new rate takes effect.
//! 3. Exactly one completion timer is outstanding at a time; it is cancelled
//!    and re-issued on every change (stale-timer invalidation).

use crate::backend::{CheckpointStore, WriteTicket};
use crate::config::StorageConfig;
use crate::object::StoredObject;
use crate::stats::{StorageStats, TransferRecord};
use gbcr_des::{time, ArgValue, Proc, ProcId, SimHandle, Time, TimerHandle, Track};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Identifier of an in-flight or completed transfer stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(u64);

/// Direction of a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// Client pushes bytes to the storage system (checkpoint save).
    Write,
    /// Client pulls bytes from the storage system (restart load).
    Read,
}

/// Decides, per object name, whether its write tears: a torn image runs to
/// completion and charges full time but is never published, and a torn
/// manifest is never published. The writer itself never learns the
/// difference — exactly like a crashed filesystem server: the client's
/// syscalls return, the durability promise is what breaks. Must be
/// deterministic in its input for reproducible runs.
pub type WriteFaultFn = Rc<dyn Fn(&str) -> bool>;

/// Record the instant `what` about the object `name` on `client`'s track.
pub(crate) fn trace_object(h: &SimHandle, client: u32, what: &'static str, name: &str) {
    h.trace_instant(Track::Storage(client), what, || vec![("object", ArgValue::Str(name.into()))]);
}

struct Stream {
    id: StreamId,
    client: u32,
    kind: StreamKind,
    total: u64,
    remaining: f64,
    started: Time,
    waiters: Vec<ProcId>,
    /// For writes: object to publish on completion.
    publish: Option<(String, StoredObject)>,
}

struct State {
    streams: Vec<Stream>,
    next_id: u64,
    last_settle: Time,
    timer: Option<TimerHandle>,
    objects: HashMap<String, StoredObject>,
    stats: StorageStats,
    /// Image-write tear decider (fault injection); `None` = healthy.
    write_fault: Option<WriteFaultFn>,
    /// Tear decider for metadata commits (`commit_meta`). Separate slot
    /// from `write_fault` so image tearing and manifest tearing are
    /// independently injectable.
    meta_fault: Option<WriteFaultFn>,
}

/// The shared central storage system. Cheap to clone; all clones refer to
/// the same simulated device. It is also the paper's [`CheckpointStore`]
/// backend: one array, no wrapper.
///
/// ```
/// use gbcr_des::{time, Sim};
/// use gbcr_storage::{Storage, StorageConfig, StoredObject, MB};
///
/// let mut sim = Sim::new(0);
/// let storage = Storage::new(sim.handle(), StorageConfig::paper_testbed());
/// // Two concurrent writers share the ~140 MB/s aggregate fairly.
/// for c in 0..2u32 {
///     let s = storage.clone();
///     sim.spawn(format!("client{c}"), move |p| {
///         s.write(p, c, &format!("img{c}"), StoredObject::bulk(70 * MB));
///     });
/// }
/// let end = sim.run().unwrap();
/// assert!((time::as_secs_f64(end) - 1.0).abs() < 0.05); // 140 MB / 140 MB/s
/// ```
#[derive(Clone)]
pub struct Storage {
    cfg: Rc<StorageConfig>,
    handle: SimHandle,
    state: Rc<RefCell<State>>,
}

impl Storage {
    /// Attach a storage system with the given configuration to a simulation.
    pub fn new(handle: SimHandle, cfg: StorageConfig) -> Self {
        Storage {
            cfg: Rc::new(cfg),
            handle,
            state: Rc::new(RefCell::new(State {
                streams: Vec::new(),
                next_id: 0,
                last_settle: 0,
                timer: None,
                objects: HashMap::new(),
                stats: StorageStats::default(),
                write_fault: None,
                meta_fault: None,
            })),
        }
    }

    /// Number of currently active streams.
    pub fn active_streams(&self) -> usize {
        self.state.borrow().streams.len()
    }

    /// Snapshot of completed-transfer statistics.
    pub fn stats(&self) -> StorageStats {
        self.state.borrow().stats.clone()
    }

    /// Whether an object is stored under `name` (no simulated time cost).
    pub fn contains(&self, name: &str) -> bool {
        self.state.borrow().objects.contains_key(name)
    }

    /// Remove an object, returning it if present (no simulated time cost).
    pub fn remove(&self, name: &str) -> Option<StoredObject> {
        self.state.borrow_mut().objects.remove(name)
    }

    // ------------------------------------------------------------------
    // Blocking API (call from simulated processes)
    // ------------------------------------------------------------------

    /// Write `object` under `name`, blocking the calling simulated process
    /// until the last byte is on the server. Charges per-op latency plus
    /// the processor-shared transfer of `object.virtual_size` bytes.
    pub fn write(&self, p: &Proc, client: u32, name: &str, object: StoredObject) {
        let id = self.start_write(p, client, name, object);
        self.wait(p, id);
    }

    /// Read the object stored under `name`, blocking until the transfer
    /// completes. Panics if the object does not exist (restart from a
    /// missing checkpoint is a caller bug).
    pub fn read(&self, p: &Proc, client: u32, name: &str) -> StoredObject {
        let obj =
            self.peek(name).unwrap_or_else(|| panic!("storage object '{name}' does not exist"));
        p.sleep(self.cfg.per_op_latency);
        let id = self.add_stream(client, StreamKind::Read, obj.virtual_size, None);
        self.wait(p, id);
        obj
    }

    /// Charge a read of `bytes` anonymous bytes through the shared model
    /// (used for incremental-checkpoint chain restores, where the chain's
    /// members are accounted in aggregate).
    pub fn read_bulk(&self, p: &Proc, client: u32, bytes: u64) {
        p.sleep(self.cfg.per_op_latency);
        let id = self.add_stream(client, StreamKind::Read, bytes, None);
        self.wait(p, id);
    }

    /// Start a write without blocking; pair with [`Storage::wait`].
    ///
    /// Consults the image-write tear hook (if installed): a torn write
    /// charges full time but never publishes the object. The caller cannot
    /// observe the difference from a healthy write — that is the point.
    pub fn start_write(&self, p: &Proc, client: u32, name: &str, object: StoredObject) -> StreamId {
        let torn = self.state.borrow().write_fault.as_ref().is_some_and(|h| h(name));
        self.start_write_faulted(p, client, name, object, torn)
    }

    /// Start a write whose tear is already decided, bypassing this
    /// device's own hook. The replicated backend uses this to apply *one*
    /// tear draw per logical image while fanning copies out to several
    /// per-node devices; `start_write` delegates here.
    pub(crate) fn start_write_faulted(
        &self,
        p: &Proc,
        client: u32,
        name: &str,
        object: StoredObject,
        torn: bool,
    ) -> StreamId {
        p.sleep(self.cfg.per_op_latency);
        if torn {
            self.state.borrow_mut().stats.torn_writes += 1;
            trace_object(&self.handle, client, "storage.torn", name);
        }
        let bytes = object.virtual_size;
        let publish = (!torn).then(|| (name.to_owned(), object));
        self.add_stream(client, StreamKind::Write, bytes, publish)
    }

    /// Crash-stop this device: drop every stored object and annul the
    /// publish side-effect of any in-flight write stream (the bytes already
    /// moving keep charging time, but nothing they carried survives — a
    /// node's RAM disappeared with the node). Returns the dropped objects
    /// sorted by name, so callers can account the losses deterministically.
    pub fn wipe(&self) -> Vec<(String, StoredObject)> {
        let mut st = self.state.borrow_mut();
        for s in &mut st.streams {
            s.publish = None;
        }
        let mut dropped: Vec<(String, StoredObject)> = st.objects.drain().collect();
        dropped.sort_by(|a, b| a.0.cmp(&b.0));
        dropped
    }

    /// Block until the given stream has completed. Its record is the one
    /// [`Storage::stats`] lists; a stream that is no longer active is done.
    pub fn wait(&self, p: &Proc, id: StreamId) {
        loop {
            {
                let mut st = self.state.borrow_mut();
                assert!(id.0 < st.next_id, "waited on unknown stream");
                let Some(stream) = st.streams.iter_mut().find(|s| s.id == id) else {
                    return;
                };
                stream.waiters.push(p.id());
            }
            p.park();
        }
    }

    // ------------------------------------------------------------------
    // Engine internals
    // ------------------------------------------------------------------

    fn add_stream(
        &self,
        client: u32,
        kind: StreamKind,
        bytes: u64,
        publish: Option<(String, StoredObject)>,
    ) -> StreamId {
        let now = self.handle.now();
        let mut st = self.state.borrow_mut();
        self.settle(&mut st, now);
        let id = StreamId(st.next_id);
        st.next_id += 1;
        let stream = Stream {
            id,
            client,
            kind,
            total: bytes,
            remaining: bytes as f64,
            started: now,
            waiters: Vec::new(),
            publish,
        };
        if bytes == 0 {
            // Zero-byte transfers complete instantly.
            Self::complete_stream(&self.handle, &mut st, stream, now);
        } else {
            st.streams.push(stream);
        }
        self.reschedule(&mut st, now);
        self.handle.trace_instant_detail(Track::Storage(client), "storage.start", || {
            vec![
                ("kind", ArgValue::Str(format!("{kind:?}"))),
                ("bytes", ArgValue::U64(bytes)),
                ("id", ArgValue::U64(id.0)),
            ]
        });
        id
    }

    /// Advance all active streams to `now` at the rate that held since the
    /// last settle point, completing any that finished.
    fn settle(&self, st: &mut State, now: Time) {
        let k = st.streams.len();
        let dt = now.saturating_sub(st.last_settle);
        st.last_settle = now;
        if k == 0 || dt == 0 {
            return;
        }
        let rate = self.cfg.per_stream_rate(k);
        let progress = rate * time::as_secs_f64(dt);
        for s in &mut st.streams {
            s.remaining -= progress;
        }
        // Complete finished streams in id order (deterministic).
        let mut finished: Vec<Stream> = Vec::new();
        st.streams.retain_mut(|s| {
            if s.remaining <= 0.5 {
                finished.push(Stream {
                    id: s.id,
                    client: s.client,
                    kind: s.kind,
                    total: s.total,
                    remaining: 0.0,
                    started: s.started,
                    waiters: std::mem::take(&mut s.waiters),
                    publish: s.publish.take(),
                });
                false
            } else {
                true
            }
        });
        finished.sort_by_key(|s| s.id);
        for s in finished {
            Self::complete_stream(&self.handle, st, s, now);
        }
    }

    fn complete_stream(handle: &SimHandle, st: &mut State, mut s: Stream, now: Time) {
        let rec = TransferRecord {
            client: s.client,
            kind: s.kind,
            bytes: s.total,
            start: s.started,
            end: now,
        };
        if let Some((name, obj)) = s.publish.take() {
            st.objects.insert(name, obj);
        }
        st.stats.records.push(rec);
        for w in s.waiters.drain(..) {
            handle.wake(w);
        }
        handle.trace_span(
            Track::Storage(s.client),
            match s.kind {
                StreamKind::Write => "storage.write",
                StreamKind::Read => "storage.read",
            },
            s.started,
            || vec![("bytes", ArgValue::U64(s.total))],
        );
        handle.trace_instant_detail(Track::Storage(s.client), "storage.done", || {
            vec![("id", ArgValue::U64(s.id.0))]
        });
    }

    /// Re-issue the single outstanding completion timer for the earliest
    /// finishing stream.
    fn reschedule(&self, st: &mut State, now: Time) {
        if let Some(t) = st.timer.take() {
            t.cancel();
        }
        let k = st.streams.len();
        if k == 0 {
            return;
        }
        let rate = self.cfg.per_stream_rate(k);
        let min_remaining = st.streams.iter().map(|s| s.remaining).fold(f64::INFINITY, f64::min);
        // ceil so the earliest stream is guaranteed <= 0.5 remaining when
        // the timer fires (settle subtracts rate * dt with dt >= exact).
        let dt = ((min_remaining / rate) * time::NANOS_PER_SEC as f64).ceil().max(1.0) as Time;
        let this = self.clone();
        let timer = self.handle.call_at(now + dt, move |h| {
            let now = h.now();
            let mut st = this.state.borrow_mut();
            st.timer = None;
            this.settle(&mut st, now);
            this.reschedule(&mut st, now);
        });
        st.timer = Some(timer);
    }
}

impl CheckpointStore for Storage {
    fn begin_write_image(
        &self,
        p: &Proc,
        client: u32,
        name: &str,
        object: StoredObject,
    ) -> WriteTicket {
        WriteTicket { stream: self.start_write(p, client, name, object) }
    }

    fn finish_write_image(&self, p: &Proc, _client: u32, ticket: WriteTicket) {
        self.wait(p, ticket.stream);
    }

    fn read_image(&self, p: &Proc, client: u32, name: &str) -> StoredObject {
        self.read(p, client, name)
    }

    fn read_chain(&self, p: &Proc, client: u32, _name: &str, bytes: u64) {
        self.read_bulk(p, client, bytes);
    }

    fn peek(&self, name: &str) -> Option<StoredObject> {
        self.state.borrow().objects.get(name).cloned()
    }

    /// Publish with **zero simulated time cost**: the commit piggybacks on
    /// the protocol round that proved all images durable, so it adds no
    /// events, no transfer records, and no wire bytes — fault-free runs
    /// stay byte-identical. A tear from the meta hook suppresses
    /// publication, leaving any previous record authoritative.
    fn commit_meta(&self, client: u32, name: &str, object: StoredObject) -> bool {
        let torn = self.state.borrow().meta_fault.as_ref().is_some_and(|h| h(name));
        let mut st = self.state.borrow_mut();
        if torn {
            st.stats.torn_manifests += 1;
        } else {
            st.objects.insert(name.to_owned(), object);
            st.stats.manifest_commits += 1;
        }
        drop(st);
        let what = if torn { "storage.torn_meta" } else { "storage.commit" };
        trace_object(&self.handle, client, what, name);
        !torn
    }

    fn preload(&self, name: &str, object: StoredObject) {
        self.state.borrow_mut().objects.insert(name.to_owned(), object);
    }

    fn export_objects(&self) -> Vec<(String, StoredObject)> {
        let mut v: Vec<(String, StoredObject)> =
            self.state.borrow().objects.iter().map(|(k, o)| (k.clone(), o.clone())).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    fn storage_stats(&self) -> StorageStats {
        self.stats()
    }

    fn set_write_fault_hook(&self, hook: Option<WriteFaultFn>) {
        self.state.borrow_mut().write_fault = hook;
    }

    fn set_meta_fault_hook(&self, hook: Option<WriteFaultFn>) {
        self.state.borrow_mut().meta_fault = hook;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MB;
    use bytes::Bytes;
    use gbcr_des::Sim;

    fn write_blocking(st: &Storage, p: &Proc, client: u32, name: &str, size: u64) {
        st.write(p, client, name, StoredObject::bulk(size));
    }

    #[test]
    fn single_writer_gets_single_client_bandwidth() {
        let mut sim = Sim::new(0);
        let storage = Storage::new(sim.handle(), StorageConfig::default());
        let s = storage.clone();
        sim.spawn("w", move |p| {
            write_blocking(&s, p, 0, "img", 115 * MB);
        });
        let end = sim.run().unwrap();
        // 115 MB at 115 MB/s = 1s, plus 2ms per-op latency.
        let secs = time::as_secs_f64(end);
        assert!((secs - 1.002).abs() < 0.001, "got {secs}");
        assert!(storage.contains("img"));
        assert_eq!(storage.active_streams(), 0);
    }

    #[test]
    fn two_writers_share_fairly() {
        let mut sim = Sim::new(0);
        let storage = Storage::new(
            sim.handle(),
            StorageConfig { congestion: 0.0, per_op_latency: 0, ..StorageConfig::default() },
        );
        for i in 0..2 {
            let s = storage.clone();
            sim.spawn(format!("w{i}"), move |p| {
                write_blocking(&s, p, i, &format!("img{i}"), 70 * MB);
            });
        }
        let end = sim.run().unwrap();
        // 140 MB total at 140 MB/s aggregate = 1s.
        let secs = time::as_secs_f64(end);
        assert!((secs - 1.0).abs() < 0.01, "got {secs}");
        let stats = storage.stats();
        assert_eq!(stats.records.len(), 2);
        for r in &stats.records {
            // each ~70 MB/s
            assert!((r.mean_bandwidth() - 70.0e6).abs() < 1.0e6);
        }
    }

    #[test]
    fn late_joiner_slows_early_stream() {
        let mut sim = Sim::new(0);
        let cfg = StorageConfig {
            aggregate_bw: 100.0e6,
            single_client_bw: 100.0e6,
            congestion: 0.0,
            per_op_latency: 0,
        };
        let storage = Storage::new(sim.handle(), cfg);
        let s1 = storage.clone();
        sim.spawn("early", move |p| {
            write_blocking(&s1, p, 0, "a", 100 * MB);
            // Alone for 0.5s (50 MB done), then shares 50 MB/s for the rest:
            // remaining 50 MB at 50 MB/s = 1s. Total 1.5s.
            assert_eq!(time::as_secs_f64(p.now()), 1.5);
        });
        let s2 = storage.clone();
        sim.spawn("late", move |p| {
            p.sleep(time::ms(500));
            write_blocking(&s2, p, 1, "b", 100 * MB);
            // Shares 50 MB/s from 0.5 to 1.5 (50MB), then alone at 100 MB/s
            // for remaining 50 MB: 0.5s. Ends at 2.0s.
            assert_eq!(time::as_secs_f64(p.now()), 2.0);
        });
        let end = sim.run().unwrap();
        assert_eq!(time::as_secs_f64(end), 2.0);
    }

    #[test]
    fn read_returns_written_payload() {
        let mut sim = Sim::new(0);
        let storage = Storage::new(sim.handle(), StorageConfig::default());
        let s = storage.clone();
        sim.spawn("rw", move |p| {
            let obj = StoredObject::new(Bytes::from_static(b"state"), 10 * MB);
            s.write(p, 0, "ckpt/0", obj.clone());
            let back = s.read(p, 0, "ckpt/0");
            assert_eq!(back, obj);
        });
        sim.run().unwrap();
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn read_missing_object_panics() {
        let mut sim = Sim::new(0);
        let storage = Storage::new(sim.handle(), StorageConfig::default());
        sim.spawn("r", move |p| {
            storage.read(p, 0, "nope");
        });
        let err = sim.run().unwrap_err();
        panic!("{err}");
    }

    #[test]
    fn zero_byte_write_completes_immediately() {
        let mut sim = Sim::new(0);
        let storage = Storage::new(
            sim.handle(),
            StorageConfig { per_op_latency: 0, ..StorageConfig::default() },
        );
        let s = storage.clone();
        sim.spawn("w", move |p| {
            write_blocking(&s, p, 0, "empty", 0);
            assert_eq!(p.now(), 0);
        });
        sim.run().unwrap();
        assert!(storage.contains("empty"));
    }

    #[test]
    fn nonblocking_overlap_with_wait() {
        let mut sim = Sim::new(0);
        let cfg = StorageConfig {
            aggregate_bw: 100.0e6,
            single_client_bw: 100.0e6,
            congestion: 0.0,
            per_op_latency: 0,
        };
        let storage = Storage::new(sim.handle(), cfg);
        let s = storage.clone();
        sim.spawn("w", move |p| {
            let id = s.start_write(p, 0, "bg", StoredObject::bulk(100 * MB));
            p.sleep(time::ms(400)); // overlap compute with the transfer
            s.wait(p, id);
            assert_eq!(time::as_secs_f64(p.now()), 1.0);
        });
        sim.run().unwrap();
        let stats = storage.stats();
        assert_eq!(stats.records.len(), 1);
        assert_eq!((stats.records[0].bytes, stats.records[0].end), (100 * MB, time::secs(1)));
    }

    #[test]
    fn torn_write_charges_full_time_but_never_publishes() {
        let mut sim = Sim::new(0);
        let storage = Storage::new(
            sim.handle(),
            StorageConfig { per_op_latency: 0, ..StorageConfig::default() },
        );
        storage.set_write_fault_hook(Some(Rc::new(|name: &str| name == "torn")));
        let s = storage.clone();
        sim.spawn("w", move |p| {
            write_blocking(&s, p, 0, "torn", 115 * MB);
            // Torn write cost exactly what a healthy one would: 1s.
            assert_eq!(time::as_secs_f64(p.now()), 1.0);
            write_blocking(&s, p, 0, "good", 115 * MB);
        });
        sim.run().unwrap();
        assert!(!storage.contains("torn"), "torn image must not be visible");
        assert!(storage.contains("good"));
        let stats = storage.stats();
        assert_eq!(stats.torn_writes, 1);
        assert_eq!(stats.records.len(), 2, "torn transfer is still accounted");
    }

    #[test]
    fn commit_meta_is_zero_time_and_tears_independently() {
        let mut sim = Sim::new(0);
        let storage = Storage::new(
            sim.handle(),
            StorageConfig { per_op_latency: 0, ..StorageConfig::default() },
        );
        storage.set_meta_fault_hook(Some(Rc::new(|name: &str| name == "manifest/torn")));
        let s = storage.clone();
        sim.spawn("w", move |p| {
            assert!(s.commit_meta(u32::MAX, "manifest/good", StoredObject::bulk(64)));
            assert!(!s.commit_meta(u32::MAX, "manifest/torn", StoredObject::bulk(64)));
            assert_eq!(p.now(), 0, "metadata commits must not charge time");
            // The meta hook must not apply to bulk writes.
            write_blocking(&s, p, 0, "torn", 1);
        });
        sim.run().unwrap();
        assert!(storage.contains("manifest/good"));
        assert!(!storage.contains("manifest/torn"));
        assert!(storage.contains("torn"), "bulk writes ignore the meta hook");
        let stats = storage.stats();
        assert_eq!(stats.manifest_commits, 1);
        assert_eq!(stats.torn_manifests, 1);
        assert_eq!(stats.records.len(), 1, "commits leave no transfer records");
    }

    #[test]
    fn object_listing_is_sorted_and_removal_works() {
        let mut sim = Sim::new(0);
        let storage = Storage::new(
            sim.handle(),
            StorageConfig { per_op_latency: 0, ..StorageConfig::default() },
        );
        let s = storage.clone();
        sim.spawn("w", move |p| {
            write_blocking(&s, p, 0, "b", 1);
            write_blocking(&s, p, 0, "a", 1);
        });
        sim.run().unwrap();
        let names = |s: &Storage| -> Vec<String> {
            s.export_objects().into_iter().map(|(name, _)| name).collect()
        };
        assert_eq!(names(&storage), ["a", "b"]);
        assert!(storage.remove("a").is_some());
        assert!(storage.remove("a").is_none());
        assert_eq!(names(&storage), ["b"]);
    }
}
