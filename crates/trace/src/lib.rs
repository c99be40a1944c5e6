//! # gbcr-trace — structured span/instant tracing for the simulator
//!
//! The measurement substrate for the paper's "where does the epoch go"
//! questions: [`Span`]s (an interval on a [`Track`]) and [`Instant`]s (a
//! point on one), recorded into a [`Tracer`] owned by the simulation.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when off.** Every instrumentation point is guarded by
//!    one `Cell` read ([`Tracer::enabled`]); the tracer never schedules
//!    events, never sleeps, and never advances virtual time, so a traced
//!    run is *byte-identical* to an untraced one in every committed table.
//! 2. **One record shape.** An instant is a span without a duration: both
//!    are keyed by `(track, name)`, with names from one static taxonomy
//!    (DESIGN.md §6), and carry the same named [`Arg`]s, which [`arg`]
//!    looks up in either.
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

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU8, Ordering};

/// Virtual time in nanoseconds (mirrors `gbcr_des::Time`; this crate sits
/// below the engine so it cannot depend on it).
pub type Time = u64;

// ---------------------------------------------------------------------
// Tracks and records
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

/// One argument value attached to a span or an instant.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer argument.
    U64(u64),
    /// Floating-point argument.
    F64(f64),
    /// String argument.
    Str(String),
}

impl ArgValue {
    /// The value, if it is a `U64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            ArgValue::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The value, if it is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ArgValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A named span or instant argument.
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
}

/// A point on a track: a [`Span`] without a duration. Its name is from the
/// same static taxonomy (DESIGN.md §6), and its args carry whatever the
/// track does not already name.
#[derive(Debug, Clone, PartialEq)]
pub struct Instant {
    /// Virtual time, ns.
    pub time: Time,
    /// Timeline this instant belongs to.
    pub track: Track,
    /// Instant name (static taxonomy; see DESIGN.md §6).
    pub name: &'static str,
    /// Structured arguments.
    pub args: Vec<Arg>,
}

/// The value of the argument named `key` among a span's or an instant's
/// `args`.
pub fn arg<'a>(args: &'a [Arg], key: &str) -> Option<&'a ArgValue> {
    args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

/// How much to capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record nothing (the default; one `Cell` read per site).
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

    /// All instants with the given name.
    pub fn instants_named(&self, name: &str) -> Vec<&Instant> {
        self.instants.iter().filter(|i| i.name == name).collect()
    }
}

/// The per-simulation recorder. Owned by the engine; instrumentation
/// points reach it through `SimHandle`. All recording methods are no-ops
/// unless the level says otherwise, and the *only* cost on the disabled
/// path is one `Cell` read — the tracer never schedules events or
/// advances virtual time, so enabling it cannot change simulation output.
pub struct Tracer {
    level: Cell<TraceLevel>,
    data: RefCell<TraceData>,
}

impl Tracer {
    /// Create a tracer at the given capture level.
    pub fn new(level: TraceLevel) -> Self {
        Tracer { level: Cell::new(level), data: RefCell::default() }
    }

    /// Change the capture level (already-recorded data is kept).
    pub fn set_level(&self, level: TraceLevel) {
        self.level.set(level);
    }

    /// Whether anything is being captured. This is the one-read fast path
    /// every instrumentation point pays when tracing is off.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.level.get() != TraceLevel::Off
    }

    /// Whether per-message / scheduler detail is being captured.
    #[inline]
    pub fn detailed(&self) -> bool {
        self.level.get() == TraceLevel::Full
    }

    /// Record an instant (caller has already checked the level).
    pub fn record_instant(&self, instant: Instant) {
        self.data.borrow_mut().instants.push(instant);
    }

    /// Record a completed span (caller has already checked the level).
    pub fn record_span(&self, span: Span) {
        self.data.borrow_mut().spans.push(span);
    }

    /// Move the recorded data out, leaving the tracer empty.
    pub fn take(&self) -> TraceData {
        self.data.take()
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
    fn one_arg_lookup_serves_spans_and_instants() {
        let mut s = span("x", 0, 5);
        s.args.push(("epoch", ArgValue::U64(3)));
        let i = Instant {
            time: 5,
            track: Track::Storage(1),
            name: "storage.commit",
            args: vec![("object", ArgValue::Str("m".into())), ("epoch", ArgValue::U64(3))],
        };
        assert_eq!(arg(&s.args, "epoch").and_then(ArgValue::as_u64), Some(3));
        assert_eq!(arg(&i.args, "epoch"), arg(&s.args, "epoch"));
        assert_eq!(arg(&i.args, "object").and_then(ArgValue::as_str), Some("m"));
        assert_eq!(arg(&i.args, "object").and_then(ArgValue::as_u64), None);
        assert_eq!(arg(&i.args, "missing"), None);
    }

    #[test]
    fn take_empties_the_tracer() {
        let t = Tracer::new(TraceLevel::Phases);
        let crash = Instant { time: 5, track: Track::Coordinator, name: "crash", args: Vec::new() };
        t.record_instant(crash);
        t.record_span(span("x", 0, 5));
        let data = t.take();
        assert_eq!(data.len(), 2);
        assert!(t.take().is_empty());
        assert_eq!(data.spans_named("x").len(), 1);
        assert_eq!(data.instants_named("crash").len(), 1);
    }
}
