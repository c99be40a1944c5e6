//! # gbcr-trace — structured span/instant tracing for the simulator
//!
//! The measurement substrate for the paper's "where does the epoch go"
//! questions: typed [`Span`]s (an interval on a [`Track`]) and typed
//! instant [`Event`]s, recorded into a [`Tracer`] owned by the simulation.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when off.** Every instrumentation point is guarded by a
//!    single relaxed atomic load ([`Tracer::enabled`]); the tracer never
//!    schedules events, never sleeps, and never advances virtual time, so a
//!    traced run is *byte-identical* to an untraced one in every committed
//!    table.
//! 2. **Typed, not stringly.** The old `TraceEvent { category, message }`
//!    is retired; every recorded instant is an [`Event`] variant with real
//!    fields. The legacy category strings survive as [`Event::category`]
//!    so existing filters keep working.
//! 3. **Exportable.** [`perfetto::to_chrome_json`] renders a recorded
//!    [`TraceData`] as Chrome/Perfetto trace JSON (virtual-time
//!    microseconds, loadable in `ui.perfetto.dev`), and
//!    [`perfetto::parse_chrome_json`] parses it back for validation.
//!
//! Two capture levels keep volume sane: [`TraceLevel::Phases`] records
//! protocol/infrastructure spans and instants only (bounded by epochs ×
//! ranks); [`TraceLevel::Full`] adds per-message MPI spans and scheduler
//! dispatch instants.

#![warn(missing_docs)]

pub mod perfetto;

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU8, Ordering};

/// Virtual time in nanoseconds (mirrors `gbcr_des::Time`; this crate sits
/// below the engine so it cannot depend on it).
pub type Time = u64;

// ---------------------------------------------------------------------
// Tracks
// ---------------------------------------------------------------------

/// Which timeline a span or instant belongs to. Tracks map 1:1 onto
/// Perfetto process/thread rows (see `perfetto`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Track {
    /// The scheduler itself (dispatch instants, timer fires).
    Sim,
    /// The checkpoint coordinator process (the five protocol phases).
    Coordinator,
    /// One MPI rank (application + controller activity).
    Rank(u32),
    /// One fabric endpoint (connection lifecycle, deliveries).
    Node(u32),
    /// One storage client's transfers.
    Storage(u32),
}

/// One argument value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer argument.
    U64(u64),
    /// Floating-point argument.
    F64(f64),
    /// String argument.
    Str(String),
}

/// A named span argument.
pub type Arg = (&'static str, ArgValue);

/// A completed interval on a track. Spans are recorded *after* they end
/// (the instrumentation point captures `t_start`, does the work, then
/// records), so there is no begin/end pairing state to corrupt.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Timeline this span belongs to.
    pub track: Track,
    /// Span name (static taxonomy; see DESIGN.md §6).
    pub name: &'static str,
    /// Virtual start time, ns.
    pub t_start: Time,
    /// Virtual end time, ns (`>= t_start`).
    pub t_end: Time,
    /// Structured arguments.
    pub args: Vec<Arg>,
}

impl Span {
    /// Span duration in virtual ns.
    pub fn duration(&self) -> Time {
        self.t_end.saturating_sub(self.t_start)
    }

    /// Look up a `U64` argument by name.
    pub fn arg_u64(&self, name: &str) -> Option<u64> {
        self.args.iter().find_map(|(k, v)| match v {
            ArgValue::U64(n) if *k == name => Some(*n),
            _ => None,
        })
    }
}

// ---------------------------------------------------------------------
// Typed instant events
// ---------------------------------------------------------------------

/// What stage a forced link disconnect was in when observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlapStage {
    /// Connection was idle; dropped immediately.
    Idle,
    /// Traffic in flight; connection moved to draining.
    Draining,
    /// The drain completed and the connection finished dropping.
    Drained,
}

/// A typed instant event. Replaces the old stringly
/// `TraceEvent { category, message }`: every variant carries real fields,
/// and the legacy category string survives as [`Event::category`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Scheduler dispatched a plain wake ([`TraceLevel::Full`] only).
    SchedWake {
        /// Woken process index.
        pid: u32,
    },
    /// Scheduler dispatched a live (uncancelled) timer wake
    /// ([`TraceLevel::Full`] only).
    SchedTimer {
        /// Woken process index.
        pid: u32,
    },
    /// Scheduler dispatched a live callback ([`TraceLevel::Full`] only).
    SchedCall,
    /// A fabric connection was established (initiator paid setup).
    NetConnect {
        /// Initiating endpoint.
        a: u32,
        /// Peer endpoint.
        b: u32,
    },
    /// A fabric connection finished an orderly teardown.
    NetTeardown {
        /// Endpoint that ran the teardown.
        a: u32,
        /// Peer endpoint.
        b: u32,
    },
    /// A forced disconnect (fault injection) hit a connection.
    NetFlap {
        /// One endpoint of the flapped link.
        a: u32,
        /// The other endpoint.
        b: u32,
        /// How far the drop got when observed.
        stage: FlapStage,
    },
    /// A message landed at its destination endpoint.
    NetDeliver {
        /// Sender endpoint.
        from: u32,
        /// Receiver endpoint.
        to: u32,
        /// Wire bytes charged.
        bytes: u64,
    },
    /// An MPI rank's node was marked failed.
    NodeFailed {
        /// The failed rank.
        rank: u32,
    },
    /// Coordinator aborted the current epoch attempt.
    CkptAbort {
        /// Epoch number.
        epoch: u64,
        /// Why (deadline phase, straggler description, ...).
        reason: String,
    },
    /// Coordinator committed an epoch end-to-end.
    CkptEpochDone {
        /// Epoch number.
        epoch: u64,
        /// Number of groups checkpointed.
        groups: u64,
    },
    /// Manifest commit was suppressed (torn/outage); previous manifest
    /// stays authoritative.
    CkptManifestSkip {
        /// Epoch whose manifest failed to publish.
        epoch: u64,
    },
    /// A rank finished writing its checkpoint for an epoch.
    CkptRankDone {
        /// The reporting rank.
        rank: u32,
        /// Epoch number.
        epoch: u64,
    },
    /// A rank processed an epoch abort.
    CkptRankAbort {
        /// The aborting rank.
        rank: u32,
        /// Epoch number.
        epoch: u64,
    },
    /// BLCR wrote a checkpoint image.
    BlcrCheckpoint {
        /// Rank whose image was written.
        rank: u32,
        /// Storage object name.
        name: String,
    },
    /// BLCR restored a rank from an image.
    BlcrRestart {
        /// Restored rank.
        rank: u32,
        /// Storage object name.
        name: String,
    },
    /// A restart found its image missing/torn.
    BlcrImageLost {
        /// Rank whose image was lost.
        rank: u32,
        /// Storage object name.
        name: String,
    },
    /// Fault injector killed a rank's node.
    FaultNodeKill {
        /// Killed rank.
        rank: u32,
    },
    /// A node death aborted the whole job (no checkpointing to save it).
    FaultAbort {
        /// Rank whose death aborted the job.
        rank: u32,
    },
    /// Cluster-wide power failure (crash-stop of every rank).
    ClusterCrash,
    /// Fault injector flapped a link between two ranks.
    FaultLinkFlap {
        /// One rank.
        a: u32,
        /// The other rank.
        b: u32,
    },
    /// Fault injector stalled a rank inside a protocol phase.
    FaultPhaseStall {
        /// Stalled rank.
        rank: u32,
        /// Description (phase, stall length).
        detail: String,
    },
    /// Fault injector killed the node hosting the checkpoint coordinator
    /// (control-plane loss; every rank survives).
    CoordinatorKilled {
        /// Election term that died with the coordinator.
        term: u64,
    },
    /// A standby's coordinator lease expired without a heartbeat.
    HeartbeatMissed {
        /// The standby's rank.
        node: u32,
        /// Term whose lease lapsed.
        term: u64,
    },
    /// A standby started a failover election (became a candidate).
    ElectionStart {
        /// The term being contested.
        term: u64,
        /// The candidate's rank.
        candidate: u32,
    },
    /// A candidate collected a majority and took the coordinator role.
    ElectionWon {
        /// The won term.
        term: u64,
        /// The new leader's rank.
        leader: u32,
    },
    /// A write's bytes moved but the object was never published.
    StorageTorn {
        /// Writing client.
        client: u32,
        /// Object name.
        name: String,
    },
    /// A write errored out immediately.
    StorageFail {
        /// Writing client.
        client: u32,
        /// Object name.
        name: String,
    },
    /// A checked write / meta commit bounced off an outage window.
    StorageUnavailable {
        /// Writing client.
        client: u32,
        /// Object name.
        name: String,
    },
    /// An outage window was opened or extended.
    StorageOutage {
        /// Instant the server accepts writes again.
        until: Time,
    },
    /// A metadata commit was torn (manifest not published).
    StorageTornMeta {
        /// Committing client.
        client: u32,
        /// Manifest name.
        name: String,
    },
    /// A metadata record became visible (manifest commit).
    StorageCommit {
        /// Committing client.
        client: u32,
        /// Manifest name.
        name: String,
    },
    /// Bandwidth derate changed (brown-out injection).
    StorageDerate {
        /// New derate factor, 1.0 = healthy.
        factor: f64,
    },
    /// A transfer stream was admitted to the shared server.
    StorageStart {
        /// Client id.
        client: u32,
        /// `"Write"` or `"Read"`.
        kind: &'static str,
        /// Bytes to move.
        bytes: u64,
        /// Stream id.
        id: u64,
    },
    /// A transfer stream completed.
    StorageDone {
        /// Client id.
        client: u32,
        /// Stream id.
        id: u64,
    },
    /// A failing write was redirected to a standby target.
    StorageFailover {
        /// Writing client.
        client: u32,
        /// Object name.
        name: String,
        /// Index of the target that accepted the write.
        target: u64,
    },
    /// A checkpoint image copy was pushed to a remote peer node's
    /// in-memory store (diskless replicated backend).
    StorageReplicate {
        /// Writing client (owning rank).
        client: u32,
        /// Node receiving the replica copy.
        peer: u32,
        /// Object name.
        name: String,
    },
    /// A restart read was served from a remote replica because the owner
    /// node's local copy was gone.
    StorageRecoverRemote {
        /// Reading client (restarting rank).
        client: u32,
        /// Node the surviving replica was read from.
        peer: u32,
        /// Object name.
        name: String,
    },
    /// A node crash wiped that node's in-memory store (local images and
    /// any replica copies it held for peers).
    StorageNodeLost {
        /// The crashed node.
        node: u32,
        /// Objects destroyed with it.
        objects: u64,
    },
    /// Free-form marker for tests and one-off instrumentation.
    Mark {
        /// Category tag (matches the legacy string-category filters).
        category: &'static str,
        /// Free-form message.
        message: String,
    },
}

impl Event {
    /// The legacy category string for this event (what the retired
    /// `TraceEvent.category` field held).
    pub fn category(&self) -> &'static str {
        match self {
            Event::SchedWake { .. } => "sched.wake",
            Event::SchedTimer { .. } => "sched.timer",
            Event::SchedCall => "sched.call",
            Event::NetConnect { .. } => "net.connect",
            Event::NetTeardown { .. } => "net.teardown",
            Event::NetFlap { .. } => "net.flap",
            Event::NetDeliver { .. } => "net.deliver",
            Event::NodeFailed { .. } => "mpi.node_failed",
            Event::CkptAbort { .. } => "ckpt.abort",
            Event::CkptEpochDone { .. } => "ckpt.epoch_done",
            Event::CkptManifestSkip { .. } => "ckpt.manifest_skip",
            Event::CkptRankDone { .. } => "ckpt.rank_done",
            Event::CkptRankAbort { .. } => "ckpt.rank_abort",
            Event::BlcrCheckpoint { .. } => "blcr.checkpoint",
            Event::BlcrRestart { .. } => "blcr.restart",
            Event::BlcrImageLost { .. } => "blcr.image_lost",
            Event::FaultNodeKill { .. } => "fault.node_kill",
            Event::FaultAbort { .. } => "fault.abort",
            Event::ClusterCrash => "crash",
            Event::FaultLinkFlap { .. } => "fault.link_flap",
            Event::FaultPhaseStall { .. } => "fault.phase_stall",
            Event::CoordinatorKilled { .. } => "fault.coordinator_kill",
            Event::HeartbeatMissed { .. } => "election.heartbeat_missed",
            Event::ElectionStart { .. } => "election.start",
            Event::ElectionWon { .. } => "election.won",
            Event::StorageTorn { .. } => "storage.torn",
            Event::StorageFail { .. } => "storage.fail",
            Event::StorageUnavailable { .. } => "storage.unavailable",
            Event::StorageOutage { .. } => "storage.outage",
            Event::StorageTornMeta { .. } => "storage.torn_meta",
            Event::StorageCommit { .. } => "storage.commit",
            Event::StorageDerate { .. } => "storage.derate",
            Event::StorageStart { .. } => "storage.start",
            Event::StorageDone { .. } => "storage.done",
            Event::StorageFailover { .. } => "storage.failover",
            Event::StorageReplicate { .. } => "storage.replicate",
            Event::StorageRecoverRemote { .. } => "storage.recover_remote",
            Event::StorageNodeLost { .. } => "storage.node_lost",
            Event::Mark { category, .. } => category,
        }
    }

    /// Which track the event renders on.
    pub fn track(&self) -> Track {
        match self {
            Event::SchedWake { .. } | Event::SchedTimer { .. } | Event::SchedCall => Track::Sim,
            Event::NetConnect { a, .. }
            | Event::NetTeardown { a, .. }
            | Event::NetFlap { a, .. }
            | Event::FaultLinkFlap { a, .. } => Track::Node(*a),
            Event::NetDeliver { to, .. } => Track::Node(*to),
            Event::NodeFailed { rank }
            | Event::CkptRankDone { rank, .. }
            | Event::CkptRankAbort { rank, .. }
            | Event::BlcrCheckpoint { rank, .. }
            | Event::BlcrRestart { rank, .. }
            | Event::BlcrImageLost { rank, .. }
            | Event::FaultNodeKill { rank }
            | Event::FaultAbort { rank }
            | Event::FaultPhaseStall { rank, .. } => Track::Rank(*rank),
            Event::CkptAbort { .. }
            | Event::CkptEpochDone { .. }
            | Event::CkptManifestSkip { .. }
            | Event::ClusterCrash
            | Event::CoordinatorKilled { .. }
            | Event::ElectionWon { .. } => Track::Coordinator,
            Event::HeartbeatMissed { node, .. } => Track::Rank(*node),
            Event::ElectionStart { candidate, .. } => Track::Rank(*candidate),
            Event::StorageTorn { client, .. }
            | Event::StorageFail { client, .. }
            | Event::StorageUnavailable { client, .. }
            | Event::StorageTornMeta { client, .. }
            | Event::StorageCommit { client, .. }
            | Event::StorageStart { client, .. }
            | Event::StorageDone { client, .. }
            | Event::StorageFailover { client, .. }
            | Event::StorageReplicate { client, .. }
            | Event::StorageRecoverRemote { client, .. } => Track::Storage(*client),
            Event::StorageNodeLost { node, .. } => Track::Storage(*node),
            Event::StorageOutage { .. } | Event::StorageDerate { .. } => Track::Storage(u32::MAX),
            Event::Mark { .. } => Track::Sim,
        }
    }

    /// A human-readable rendering (what the retired free-form message
    /// roughly said).
    pub fn message(&self) -> String {
        match self {
            Event::SchedWake { pid } => format!("wake p{pid}"),
            Event::SchedTimer { pid } => format!("timer wake p{pid}"),
            Event::SchedCall => "callback".into(),
            Event::NetConnect { a, b } => format!("n{a} <-> n{b}"),
            Event::NetTeardown { a, b } => format!("n{a} <-> n{b}"),
            Event::NetFlap { a, b, stage } => format!("n{a} <-> n{b} ({stage:?})"),
            Event::NetDeliver { from, to, bytes } => format!("n{from} -> n{to} ({bytes}B)"),
            Event::NodeFailed { rank } => format!("rank {rank}"),
            Event::CkptAbort { epoch, reason } => format!("epoch {epoch}: {reason}"),
            Event::CkptEpochDone { epoch, groups } => {
                format!("epoch {epoch} ({groups} groups)")
            }
            Event::CkptManifestSkip { epoch } => format!("epoch {epoch}"),
            Event::CkptRankDone { rank, epoch } => format!("rank {rank} epoch {epoch}"),
            Event::CkptRankAbort { rank, epoch } => format!("rank {rank} epoch {epoch}"),
            Event::BlcrCheckpoint { rank, name } => format!("rank={rank} -> {name}"),
            Event::BlcrRestart { rank, name } => format!("rank={rank} <- {name}"),
            Event::BlcrImageLost { rank, name } => format!("rank={rank} -> {name}"),
            Event::FaultNodeKill { rank } => format!("rank {rank}"),
            Event::FaultAbort { rank } => format!("rank {rank} down: job aborted"),
            Event::ClusterCrash => "cluster power failure".into(),
            Event::FaultLinkFlap { a, b } => format!("rank {a} <-> rank {b}"),
            Event::FaultPhaseStall { rank, detail } => format!("rank {rank}: {detail}"),
            Event::CoordinatorKilled { term } => format!("coordinator down (term {term})"),
            Event::HeartbeatMissed { node, term } => {
                format!("standby {node}: lease lapsed (term {term})")
            }
            Event::ElectionStart { term, candidate } => {
                format!("rank {candidate} contests term {term}")
            }
            Event::ElectionWon { term, leader } => {
                format!("rank {leader} leads term {term}")
            }
            Event::StorageTorn { client, name }
            | Event::StorageFail { client, name }
            | Event::StorageUnavailable { client, name }
            | Event::StorageTornMeta { client, name }
            | Event::StorageCommit { client, name } => format!("client={client} name={name}"),
            Event::StorageOutage { until } => format!("until={until}ns"),
            Event::StorageDerate { factor } => format!("x{factor}"),
            Event::StorageStart { client, kind, bytes, id } => {
                format!("client={client} kind={kind} bytes={bytes} id={id}")
            }
            Event::StorageDone { client, id } => format!("client={client} id={id}"),
            Event::StorageFailover { client, name, target } => {
                format!("client={client} name={name} target={target}")
            }
            Event::StorageReplicate { client, peer, name }
            | Event::StorageRecoverRemote { client, peer, name } => {
                format!("client={client} peer={peer} name={name}")
            }
            Event::StorageNodeLost { node, objects } => {
                format!("node={node} objects={objects}")
            }
            Event::Mark { message, .. } => message.clone(),
        }
    }
}

/// A recorded instant: an [`Event`] stamped with virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct Instant {
    /// Virtual time of the event, ns.
    pub time: Time,
    /// The typed event.
    pub event: Event,
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

/// How much to capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record nothing (the default; one relaxed load per site).
    Off,
    /// Protocol and infrastructure spans/instants: coordinator phases,
    /// rank checkpoint sub-phases, connection lifecycle, storage
    /// transfers. Bounded by epochs × ranks, safe to leave on across a
    /// whole sweep.
    Phases,
    /// Everything in `Phases` plus per-message MPI operation spans and
    /// scheduler dispatch instants. For single-run deep dives.
    Full,
}

impl TraceLevel {
    fn from_u8(v: u8) -> TraceLevel {
        match v {
            0 => TraceLevel::Off,
            1 => TraceLevel::Phases,
            _ => TraceLevel::Full,
        }
    }
}

/// Everything one simulation recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceData {
    /// Completed spans, in recording (i.e. end-time) order.
    pub spans: Vec<Span>,
    /// Instant events, in recording order.
    pub instants: Vec<Instant>,
}

impl TraceData {
    /// Total recorded items.
    pub fn len(&self) -> usize {
        self.spans.len() + self.instants.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.instants.is_empty()
    }

    /// All spans with the given name.
    pub fn spans_named(&self, name: &str) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// All instants whose event maps to the given legacy category.
    pub fn instants_in(&self, category: &str) -> Vec<&Instant> {
        self.instants.iter().filter(|i| i.event.category() == category).collect()
    }
}

/// The per-simulation recorder. Owned by the engine; instrumentation
/// points reach it through `SimHandle`. All recording methods are no-ops
/// unless the level says otherwise, and the *only* cost on the disabled
/// path is one relaxed atomic load — the tracer never schedules events or
/// advances virtual time, so enabling it cannot change simulation output.
pub struct Tracer {
    level: AtomicU8,
    data: Mutex<TraceData>,
}

impl Tracer {
    /// Create a tracer at the given capture level.
    pub fn new(level: TraceLevel) -> Self {
        Tracer { level: AtomicU8::new(level as u8), data: Mutex::new(TraceData::default()) }
    }

    /// Change the capture level (already-recorded data is kept).
    pub fn set_level(&self, level: TraceLevel) {
        self.level.store(level as u8, Ordering::Relaxed);
    }

    /// Current capture level.
    pub fn level(&self) -> TraceLevel {
        TraceLevel::from_u8(self.level.load(Ordering::Relaxed))
    }

    /// Whether anything is being captured. This is the one-atomic-load
    /// fast path every instrumentation point pays when tracing is off.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.level.load(Ordering::Relaxed) != 0
    }

    /// Whether per-message / scheduler detail is being captured.
    #[inline]
    pub fn detailed(&self) -> bool {
        self.level.load(Ordering::Relaxed) >= TraceLevel::Full as u8
    }

    /// Record an instant (caller has already checked the level).
    pub fn record_instant(&self, time: Time, event: Event) {
        self.data.lock().instants.push(Instant { time, event });
    }

    /// Record a completed span (caller has already checked the level).
    pub fn record_span(&self, span: Span) {
        self.data.lock().spans.push(span);
    }

    /// Move the recorded data out, leaving the tracer empty.
    pub fn take(&self) -> TraceData {
        std::mem::take(&mut *self.data.lock())
    }

    /// Copy the recorded data.
    pub fn snapshot(&self) -> TraceData {
        self.data.lock().clone()
    }
}

// ---------------------------------------------------------------------
// Per-phase latency histograms
// ---------------------------------------------------------------------

/// Aggregated latency statistics for one span name (one protocol phase).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Span name the statistics aggregate.
    pub name: String,
    /// Number of spans.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Shortest span, ns.
    pub min_ns: u64,
    /// Longest span, ns.
    pub max_ns: u64,
}

impl PhaseStat {
    /// Mean span duration, ns.
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Aggregate spans into per-name latency statistics, sorted by name
/// (deterministic output for JSON cells).
pub fn phase_stats(spans: &[Span]) -> Vec<PhaseStat> {
    let mut by_name: std::collections::BTreeMap<&str, PhaseStat> =
        std::collections::BTreeMap::new();
    for s in spans {
        let d = s.duration();
        let e = by_name.entry(s.name).or_insert_with(|| PhaseStat {
            name: s.name.to_owned(),
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        });
        e.count += 1;
        e.total_ns += d;
        e.min_ns = e.min_ns.min(d);
        e.max_ns = e.max_ns.max(d);
    }
    by_name.into_values().collect()
}

// ---------------------------------------------------------------------
// Process-wide capture default
// ---------------------------------------------------------------------

static CAPTURE_DEFAULT: AtomicU8 = AtomicU8::new(0);

/// Set the capture level newly created simulations start at. Read once
/// per `Sim::new`; used by the `--trace` flags on the benchmark binaries
/// (single-threaded setup). Tests that need tracing should prefer an
/// explicit per-run level (`JobRunner::traced`) — this global is racy across
/// concurrently constructed simulations by design.
pub fn set_capture_default(level: TraceLevel) {
    CAPTURE_DEFAULT.store(level as u8, Ordering::Relaxed);
}

/// The capture level newly created simulations start at.
pub fn capture_default() -> TraceLevel {
    TraceLevel::from_u8(CAPTURE_DEFAULT.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, t0: Time, t1: Time) -> Span {
        Span { track: Track::Coordinator, name, t_start: t0, t_end: t1, args: Vec::new() }
    }

    #[test]
    fn levels_gate_enabled_and_detailed() {
        let t = Tracer::new(TraceLevel::Off);
        assert!(!t.enabled() && !t.detailed());
        t.set_level(TraceLevel::Phases);
        assert!(t.enabled() && !t.detailed());
        t.set_level(TraceLevel::Full);
        assert!(t.enabled() && t.detailed());
    }

    #[test]
    fn phase_stats_aggregate_by_name_sorted() {
        let spans =
            vec![span("b", 0, 10), span("a", 0, 4), span("b", 10, 40), span("a", 4, 6)];
        let stats = phase_stats(&spans);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].name, "a");
        assert_eq!(stats[0].count, 2);
        assert_eq!(stats[0].total_ns, 6);
        assert_eq!(stats[0].min_ns, 2);
        assert_eq!(stats[0].max_ns, 4);
        assert_eq!(stats[0].mean_ns(), 3);
        assert_eq!(stats[1].name, "b");
        assert_eq!(stats[1].max_ns, 30);
    }

    #[test]
    fn events_keep_legacy_categories() {
        assert_eq!(Event::NetConnect { a: 0, b: 1 }.category(), "net.connect");
        assert_eq!(Event::ClusterCrash.category(), "crash");
        assert_eq!(
            Event::Mark { category: "test", message: "x".into() }.category(),
            "test"
        );
        assert_eq!(Event::StorageDone { client: 3, id: 7 }.track(), Track::Storage(3));
        assert_eq!(
            Event::CoordinatorKilled { term: 1 }.category(),
            "fault.coordinator_kill"
        );
        assert_eq!(Event::CoordinatorKilled { term: 1 }.track(), Track::Coordinator);
        assert_eq!(
            Event::ElectionStart { term: 2, candidate: 0 }.track(),
            Track::Rank(0)
        );
        assert_eq!(Event::ElectionWon { term: 2, leader: 0 }.category(), "election.won");
        assert_eq!(
            Event::HeartbeatMissed { node: 3, term: 1 }.category(),
            "election.heartbeat_missed"
        );
    }

    #[test]
    fn take_empties_the_tracer() {
        let t = Tracer::new(TraceLevel::Phases);
        t.record_instant(5, Event::ClusterCrash);
        t.record_span(span("x", 0, 5));
        let data = t.take();
        assert_eq!(data.len(), 2);
        assert!(t.snapshot().is_empty());
        assert_eq!(data.spans_named("x").len(), 1);
        assert_eq!(data.instants_in("crash").len(), 1);
    }
}
