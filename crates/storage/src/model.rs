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

use crate::config::StorageConfig;
use crate::object::StoredObject;
use crate::stats::{StorageStats, TransferRecord};
use gbcr_des::{time, ArgValue, Proc, ProcId, SimHandle, Time, TimerHandle, Track};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

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

/// A fault applied to one write, decided by the installed write-fault hook
/// (see [`Storage::set_write_fault_hook`]). The writer itself never learns
/// the difference — exactly like a crashed filesystem server: the client's
/// syscalls return, the durability promise is what breaks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WriteFault {
    /// The transfer moves `factor ×` the bytes through the shared server
    /// (degraded path, e.g. a failed-over PVFS2 server pair), so it takes
    /// `factor ×` as long under the same contention. Must be ≥ 1.
    Slow(f64),
    /// The transfer runs to completion and charges full time, but the
    /// object is never published: a torn image that restart must treat as
    /// missing.
    Torn,
    /// The write errors out immediately: no bytes move, nothing is
    /// published.
    Fail,
}

/// Decides, per write, whether a fault applies: `(client, object name)` →
/// fault. Must be deterministic in its inputs for reproducible runs.
pub type WriteFaultFn = Rc<dyn Fn(u32, &str) -> Option<WriteFault>>;

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
    completed: HashMap<StreamId, TransferRecord>,
    stats: StorageStats,
    /// Bandwidth derate applied on top of the configured rates (fault
    /// injection: a storage brown-out). 1.0 = healthy; multiplying by 1.0
    /// is IEEE-exact, so a healthy run is byte-identical to one built
    /// before this field existed.
    derate: f64,
    /// Per-write fault decider (fault injection); `None` = healthy.
    write_fault: Option<WriteFaultFn>,
    /// Fault decider for metadata commits ([`Storage::commit_meta`]).
    /// Separate slot from `write_fault` so image tearing and manifest
    /// tearing are independently injectable.
    meta_fault: Option<WriteFaultFn>,
    /// The server rejects new checked writes until this instant (fault
    /// injection: a storage-target outage). In-flight streams are not
    /// interrupted — the outage models losing the front-end, not the data
    /// already moving through the back-end.
    outage_until: Time,
}

/// The shared central storage system. Cheap to clone; all clones refer to
/// the same simulated device.
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
    cfg: Arc<StorageConfig>,
    handle: SimHandle,
    state: Rc<RefCell<State>>,
}

impl Storage {
    /// Attach a storage system with the given configuration to a simulation.
    pub fn new(handle: SimHandle, cfg: StorageConfig) -> Self {
        Storage {
            cfg: Arc::new(cfg),
            handle,
            state: Rc::new(RefCell::new(State {
                streams: Vec::new(),
                next_id: 0,
                last_settle: 0,
                timer: None,
                objects: HashMap::new(),
                completed: HashMap::new(),
                stats: StorageStats::default(),
                derate: 1.0,
                write_fault: None,
                meta_fault: None,
                outage_until: 0,
            })),
        }
    }

    /// The configuration this device was built with.
    pub fn config(&self) -> &StorageConfig {
        &self.cfg
    }

    /// Number of currently active streams.
    pub fn active_streams(&self) -> usize {
        self.state.borrow().streams.len()
    }

    /// Snapshot of completed-transfer statistics.
    pub fn stats(&self) -> StorageStats {
        self.state.borrow().stats.clone()
    }

    /// Look up a stored object by name (no simulated time cost; use
    /// [`Storage::read`] to charge transfer time).
    pub fn peek(&self, name: &str) -> Option<StoredObject> {
        self.state.borrow().objects.get(name).cloned()
    }

    /// Whether an object exists.
    pub fn contains(&self, name: &str) -> bool {
        self.state.borrow().objects.contains_key(name)
    }

    /// Remove an object, returning it if present (no simulated time cost).
    pub fn remove(&self, name: &str) -> Option<StoredObject> {
        self.state.borrow_mut().objects.remove(name)
    }

    /// Insert an object directly into the namespace with no simulated time
    /// cost. Used to seed a fresh simulation's storage with the checkpoint
    /// images of a previous run (the restart path) — the images are already
    /// durable; only reading them back costs time.
    pub fn preload(&self, name: &str, object: StoredObject) {
        self.state.borrow_mut().objects.insert(name.to_owned(), object);
    }

    /// Export the whole namespace (for carrying images across simulations).
    pub fn export_objects(&self) -> Vec<(String, StoredObject)> {
        let mut v: Vec<(String, StoredObject)> = self
            .state
            .borrow()
            .objects
            .iter()
            .map(|(k, o)| (k.clone(), o.clone()))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
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
        let obj = self
            .peek(name)
            .unwrap_or_else(|| panic!("storage object '{name}' does not exist"));
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
    /// Consults the write-fault hook (if installed): a `Slow` write moves
    /// proportionally more bytes through the shared server, a `Torn` write
    /// charges full time but never publishes the object, a `Fail` write
    /// completes instantly with nothing moved or published. The caller
    /// cannot observe the difference between `Torn` and a healthy write —
    /// that is the point.
    pub fn start_write(&self, p: &Proc, client: u32, name: &str, object: StoredObject) -> StreamId {
        let fault = {
            let st = self.state.borrow();
            st.write_fault.as_ref().and_then(|h| h(client, name))
        };
        self.start_write_faulted(p, client, name, object, fault)
    }

    /// Start a write with a fault verdict already decided, bypassing this
    /// device's own write-fault hook. The replicated backend uses this to
    /// apply *one* fault draw per logical image while fanning copies out to
    /// several per-node devices; `start_write` delegates here, so the
    /// central path's event sequence is unchanged.
    pub(crate) fn start_write_faulted(
        &self,
        p: &Proc,
        client: u32,
        name: &str,
        object: StoredObject,
        fault: Option<WriteFault>,
    ) -> StreamId {
        p.sleep(self.cfg.per_op_latency);
        match fault {
            None => self.add_stream(
                client,
                StreamKind::Write,
                object.virtual_size,
                Some((name.to_owned(), object)),
            ),
            Some(WriteFault::Slow(factor)) => {
                assert!(factor >= 1.0, "Slow factor must be >= 1, got {factor}");
                self.state.borrow_mut().stats.slowed_writes += 1;
                let bytes = (object.virtual_size as f64 * factor).ceil() as u64;
                self.add_stream(client, StreamKind::Write, bytes, Some((name.to_owned(), object)))
            }
            Some(WriteFault::Torn) => {
                self.state.borrow_mut().stats.torn_writes += 1;
                trace_object(&self.handle, client, "storage.torn", name);
                self.add_stream(client, StreamKind::Write, object.virtual_size, None)
            }
            Some(WriteFault::Fail) => {
                self.state.borrow_mut().stats.failed_writes += 1;
                trace_object(&self.handle, client, "storage.fail", name);
                self.add_stream(client, StreamKind::Write, 0, None)
            }
        }
    }

    /// Install (or clear, with `None`) the per-write fault decider. Applies
    /// to writes started after this call.
    pub fn set_write_fault_hook(&self, hook: Option<WriteFaultFn>) {
        self.state.borrow_mut().write_fault = hook;
    }

    /// Install (or clear) the fault decider consulted by
    /// [`Storage::commit_meta`]. Kept separate from the bulk-write hook so
    /// manifest tearing and image tearing are independent fault points.
    pub fn set_meta_fault_hook(&self, hook: Option<WriteFaultFn>) {
        self.state.borrow_mut().meta_fault = hook;
    }

    /// Like [`Storage::write`], but observable: returns `Err(())` instead of
    /// silently dropping the bytes when the server is inside an outage
    /// window (see [`Storage::set_outage_until`]). The caller still pays the
    /// per-op round-trip that discovers the dead server. With no outage
    /// configured this is exactly `write` — same events, same timing.
    #[allow(clippy::result_unit_err)]
    pub fn write_checked(
        &self,
        p: &Proc,
        client: u32,
        name: &str,
        object: StoredObject,
    ) -> Result<(), ()> {
        if self.in_outage() {
            p.sleep(self.cfg.per_op_latency);
            self.state.borrow_mut().stats.unavailable_writes += 1;
            trace_object(&self.handle, client, "storage.unavailable", name);
            return Err(());
        }
        self.write(p, client, name, object);
        Ok(())
    }

    /// Whether the server currently rejects new checked writes.
    pub fn in_outage(&self) -> bool {
        self.handle.now() < self.state.borrow().outage_until
    }

    /// Begin (or extend) an outage window: checked writes fail until
    /// `until`. In-flight streams keep draining. Windows only ever extend —
    /// overlapping injections do not shorten an outage.
    pub fn set_outage_until(&self, until: Time) {
        let mut st = self.state.borrow_mut();
        if until > st.outage_until {
            st.outage_until = until;
        }
        drop(st);
        self.handle.trace_instant(Track::Storage(u32::MAX), "storage.outage", || {
            vec![("until", ArgValue::U64(until))]
        });
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

    /// Atomically publish a small metadata record (an epoch manifest) with
    /// **zero simulated time cost**: the commit piggybacks on the protocol
    /// round that proved all images durable, so it adds no events, no
    /// transfer records, and no wire bytes — fault-free runs stay
    /// byte-identical. Returns whether the record became visible: a `Torn`
    /// or `Fail` verdict from the meta-fault hook (or an outage window)
    /// suppresses publication, leaving any previous record authoritative.
    pub fn commit_meta(&self, client: u32, name: &str, object: StoredObject) -> bool {
        if self.in_outage() {
            let mut st = self.state.borrow_mut();
            st.stats.unavailable_writes += 1;
            drop(st);
            trace_object(&self.handle, client, "storage.unavailable", name);
            return false;
        }
        let fault = {
            let st = self.state.borrow();
            st.meta_fault.as_ref().and_then(|h| h(client, name))
        };
        match fault {
            Some(WriteFault::Torn) | Some(WriteFault::Fail) => {
                self.state.borrow_mut().stats.torn_manifests += 1;
                trace_object(&self.handle, client, "storage.torn_meta", name);
                false
            }
            // Slow is meaningless for a zero-time commit; treat as healthy.
            None | Some(WriteFault::Slow(_)) => {
                let mut st = self.state.borrow_mut();
                st.objects.insert(name.to_owned(), object);
                st.stats.manifest_commits += 1;
                drop(st);
                trace_object(&self.handle, client, "storage.commit", name);
                true
            }
        }
    }

    /// Change the bandwidth derate (fault injection: storage brown-out).
    /// Active streams are settled at the old rate up to *now* before the
    /// new rate takes effect — invariant 2 of the PS engine. `1.0` restores
    /// full health.
    pub fn set_derate(&self, derate: f64) {
        assert!(
            derate.is_finite() && derate > 0.0 && derate <= 1.0,
            "derate must be in (0, 1], got {derate}"
        );
        let now = self.handle.now();
        let mut st = self.state.borrow_mut();
        self.settle(&mut st, now);
        st.derate = derate;
        self.reschedule(&mut st, now);
        self.handle.trace_instant(Track::Storage(u32::MAX), "storage.derate", || {
            vec![("factor", ArgValue::F64(derate))]
        });
    }

    /// The current bandwidth derate (1.0 = healthy).
    pub fn derate(&self) -> f64 {
        self.state.borrow().derate
    }

    /// Block until the given stream has completed, returning its record.
    pub fn wait(&self, p: &Proc, id: StreamId) -> TransferRecord {
        loop {
            {
                let mut st = self.state.borrow_mut();
                if let Some(rec) = st.completed.get(&id).cloned() {
                    return rec;
                }
                let stream = st
                    .streams
                    .iter_mut()
                    .find(|s| s.id == id)
                    .expect("waited on unknown stream");
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
        let rate = self.cfg.per_stream_rate(k) * st.derate;
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
        st.stats.records.push(rec.clone());
        st.completed.insert(s.id, rec);
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
        let rate = self.cfg.per_stream_rate(k) * st.derate;
        let min_remaining =
            st.streams.iter().map(|s| s.remaining).fold(f64::INFINITY, f64::min);
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
            ..StorageConfig::default()
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
            ..StorageConfig::default()
        };
        let storage = Storage::new(sim.handle(), cfg);
        let s = storage.clone();
        sim.spawn("w", move |p| {
            let id = s.start_write(p, 0, "bg", StoredObject::bulk(100 * MB));
            p.sleep(time::ms(400)); // overlap compute with the transfer
            let rec = s.wait(p, id);
            assert_eq!(time::as_secs_f64(p.now()), 1.0);
            assert_eq!(rec.bytes, 100 * MB);
        });
        sim.run().unwrap();
    }

    #[test]
    fn torn_write_charges_full_time_but_never_publishes() {
        let mut sim = Sim::new(0);
        let storage = Storage::new(
            sim.handle(),
            StorageConfig { per_op_latency: 0, ..StorageConfig::default() },
        );
        storage.set_write_fault_hook(Some(Rc::new(|_, name: &str| {
            (name == "torn").then_some(WriteFault::Torn)
        })));
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
    fn failed_write_is_instant_and_publishes_nothing() {
        let mut sim = Sim::new(0);
        let storage = Storage::new(
            sim.handle(),
            StorageConfig { per_op_latency: 0, ..StorageConfig::default() },
        );
        storage.set_write_fault_hook(Some(Rc::new(|_, _: &str| Some(WriteFault::Fail))));
        let s = storage.clone();
        sim.spawn("w", move |p| {
            write_blocking(&s, p, 0, "img", 115 * MB);
            assert_eq!(p.now(), 0, "failed write returns immediately");
        });
        sim.run().unwrap();
        assert!(!storage.contains("img"));
        assert_eq!(storage.stats().failed_writes, 1);
    }

    #[test]
    fn slow_write_inflates_transfer_proportionally() {
        let mut sim = Sim::new(0);
        let storage = Storage::new(
            sim.handle(),
            StorageConfig { per_op_latency: 0, ..StorageConfig::default() },
        );
        storage.set_write_fault_hook(Some(Rc::new(|_, _: &str| Some(WriteFault::Slow(3.0)))));
        let s = storage.clone();
        sim.spawn("w", move |p| {
            write_blocking(&s, p, 0, "img", 115 * MB);
            // 3× the bytes through the same 115 MB/s single-client rate.
            assert!((time::as_secs_f64(p.now()) - 3.0).abs() < 1e-6);
        });
        sim.run().unwrap();
        assert!(storage.contains("img"), "slow writes still publish");
        assert_eq!(storage.stats().slowed_writes, 1);
    }

    #[test]
    fn derate_settles_at_old_rate_then_applies() {
        let mut sim = Sim::new(0);
        let storage = Storage::new(
            sim.handle(),
            StorageConfig { per_op_latency: 0, ..StorageConfig::default() },
        );
        let s = storage.clone();
        sim.spawn("w", move |p| {
            write_blocking(&s, p, 0, "img", 115 * MB);
            // 0.5s at full rate (57.5 MB) + remaining 57.5 MB at half rate
            // (1s) = 1.5s total.
            assert!((time::as_secs_f64(p.now()) - 1.5).abs() < 1e-6);
        });
        let s = storage.clone();
        sim.handle().call_at(time::ms(500), move |_| s.set_derate(0.5));
        sim.run().unwrap();
        assert_eq!(storage.derate(), 0.5);
    }

    #[test]
    fn commit_meta_is_zero_time_and_tears_independently() {
        let mut sim = Sim::new(0);
        let storage = Storage::new(
            sim.handle(),
            StorageConfig { per_op_latency: 0, ..StorageConfig::default() },
        );
        storage.set_meta_fault_hook(Some(Rc::new(|_, name: &str| {
            (name == "manifest/torn").then_some(WriteFault::Torn)
        })));
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
    fn outage_window_fails_checked_writes_then_recovers() {
        let mut sim = Sim::new(0);
        let storage = Storage::new(
            sim.handle(),
            StorageConfig { per_op_latency: time::ms(2), ..StorageConfig::default() },
        );
        storage.set_outage_until(time::secs(1));
        let s = storage.clone();
        sim.spawn("w", move |p| {
            assert!(s.write_checked(p, 0, "img", StoredObject::bulk(115 * MB)).is_err());
            // The failed attempt still paid the per-op round-trip.
            assert_eq!(p.now(), time::ms(2));
            assert!(!s.commit_meta(0, "manifest/e0", StoredObject::bulk(8)));
            p.sleep(time::secs(1));
            assert!(s.write_checked(p, 0, "img", StoredObject::bulk(115 * MB)).is_ok());
        });
        sim.run().unwrap();
        assert!(storage.contains("img"));
        assert_eq!(storage.stats().unavailable_writes, 2);
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
