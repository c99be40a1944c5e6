//! Chrome/Perfetto trace JSON export and a minimal parser for validating
//! exported files (no third-party JSON crates are available offline, so
//! both directions are hand-rolled).
//!
//! The export uses the Chrome trace-event format Perfetto ingests
//! directly: an object `{"traceEvents": [...]}` whose events are `"X"`
//! (complete span, `ts` + `dur`), `"i"` (instant), and `"M"` (metadata:
//! process/thread names). Timestamps are **virtual-time microseconds**
//! with the nanosecond remainder as a decimal fraction, so a trace loads
//! in `ui.perfetto.dev` with the simulation's own clock.

use crate::{Arg, ArgValue, Instant, Span, Time, TraceData, Track};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// (pid, tid, process name, thread label) for a track.
fn track_ids(t: Track) -> (u64, u64, &'static str, String) {
    match t {
        Track::Sim => (1, 0, "scheduler", "dispatch".to_owned()),
        Track::Coordinator => (2, 0, "coordinator", "protocol".to_owned()),
        Track::Rank(r) => (3, u64::from(r), "ranks", format!("rank {r}")),
        Track::Node(n) => (4, u64::from(n), "fabric", format!("node {n}")),
        Track::Storage(c) => (5, u64::from(c), "storage", format!("client {c}")),
    }
}

/// Render `ns` as fractional microseconds (`123.456`), exact for any ns.
fn us(ns: Time) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn write_args(out: &mut String, args: &[Arg]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(out, k);
        out.push_str("\":");
        match v {
            ArgValue::U64(n) => {
                let _ = write!(out, "{n}");
            }
            ArgValue::F64(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                } else {
                    out.push_str("null");
                }
            }
            ArgValue::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
        }
    }
    out.push('}');
}

/// Serialize recorded trace data as Chrome/Perfetto trace JSON.
pub fn to_chrome_json(data: &TraceData) -> String {
    let mut out = String::with_capacity(256 + 160 * data.len());
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push('\n');
    };

    // Metadata: name every process and thread we are about to emit on.
    let mut procs: BTreeMap<u64, &'static str> = BTreeMap::new();
    let mut threads: BTreeMap<(u64, u64), String> = BTreeMap::new();
    let tracks = data.spans.iter().map(|s| s.track).chain(data.instants.iter().map(|i| i.track));
    for t in tracks {
        let (pid, tid, pname, tname) = track_ids(t);
        procs.insert(pid, pname);
        threads.entry((pid, tid)).or_insert(tname);
    }
    for (pid, pname) in &procs {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{pname}\"}}}}"
        );
    }
    for ((pid, tid), tname) in &threads {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{tname}\"}}}}"
        );
    }

    for Span { track, name, t_start, t_end, args } in &data.spans {
        let (pid, tid, _, _) = track_ids(*track);
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{name}\",\
             \"ts\":{},\"dur\":{},\"args\":",
            us(*t_start),
            us(t_end.saturating_sub(*t_start)),
        );
        write_args(&mut out, args);
        out.push('}');
    }

    for Instant { time, track, name, args } in &data.instants {
        let (pid, tid, _, _) = track_ids(*track);
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"s\":\"t\",\"name\":\"{name}\",\
             \"ts\":{},\"args\":",
            us(*time),
        );
        write_args(&mut out, args);
        out.push('}');
    }

    out.push_str("\n]}\n");
    out
}

// ---------------------------------------------------------------------
// Minimal JSON parser (validation side)
// ---------------------------------------------------------------------

/// A parsed JSON value (only what trace validation needs).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// String (escapes decoded).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, insertion-ordered not preserved (keyed map).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> String {
        format!("JSON parse error at byte {}: {what}", self.i)
    }

    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.b[start..self.i]).map_err(|_| self.err("utf8"))?;
        s.parse::<f64>().map(Json::Num).map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.i + 4 >= self.b.len() {
                                return Err(self.err("short \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.b[self.i + 1..self.i + 5])
                                .map_err(|_| self.err("utf8 in \\u"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are not produced by our writer;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Copy a full UTF-8 code point.
                    let rest =
                        std::str::from_utf8(&self.b[self.i..]).map_err(|_| self.err("utf8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let v = self.value()?;
            m.insert(k, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parse arbitrary JSON text (the validation side of the exporter).
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser { b: s.as_bytes(), i: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

/// One event read back from an exported trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// Phase: `X` (complete span), `i` (instant), `M` (metadata).
    pub ph: char,
    /// Process id (track group).
    pub pid: u64,
    /// Thread id within the process.
    pub tid: u64,
    /// Event name.
    pub name: String,
    /// Start timestamp, virtual ns (rounded back from µs).
    pub ts_ns: u64,
    /// Duration, virtual ns (0 for instants/metadata).
    pub dur_ns: u64,
}

/// A parsed, schema-checked Chrome trace.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    /// All events, in file order.
    pub events: Vec<ChromeEvent>,
}

impl ChromeTrace {
    /// Only the complete spans (`ph == 'X'`).
    pub fn spans(&self) -> impl Iterator<Item = &ChromeEvent> {
        self.events.iter().filter(|e| e.ph == 'X')
    }

    /// Spans with the given name.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a ChromeEvent> {
        self.spans().filter(move |e| e.name == name)
    }

    /// Verify that on every (pid, tid) row the spans either nest or are
    /// disjoint — the structural invariant Perfetto's renderer assumes.
    pub fn well_nested(&self) -> bool {
        let mut rows: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
        for e in self.spans() {
            rows.entry((e.pid, e.tid)).or_default().push((e.ts_ns, e.ts_ns + e.dur_ns));
        }
        for intervals in rows.values_mut() {
            // Start ascending, end descending: an enclosing span that starts
            // at the same instant as its child must be visited first.
            intervals.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
            let mut open: Vec<u64> = Vec::new(); // stack of end times
            for &(start, end) in intervals.iter() {
                while let Some(&top) = open.last() {
                    if top <= start {
                        open.pop();
                    } else {
                        break;
                    }
                }
                if let Some(&top) = open.last() {
                    if end > top {
                        return false; // partial overlap
                    }
                }
                open.push(end);
            }
        }
        true
    }
}

fn us_to_ns(us: f64) -> u64 {
    (us * 1000.0).round().max(0.0) as u64
}

/// Parse and schema-check an exported Chrome/Perfetto trace file. Accepts
/// both the object form (`{"traceEvents": [...]}`) and a bare event
/// array. Returns an error describing the first malformed event.
pub fn parse_chrome_json(s: &str) -> Result<ChromeTrace, String> {
    let root = parse_json(s)?;
    let events = match &root {
        Json::Arr(_) => root.as_arr().expect("checked"),
        Json::Obj(_) => {
            root.get("traceEvents").and_then(Json::as_arr).ok_or("missing traceEvents array")?
        }
        _ => return Err("trace root must be an object or array".into()),
    };
    let mut out = ChromeTrace::default();
    for (i, ev) in events.iter().enumerate() {
        let bad = |what: &str| format!("event {i}: {what}");
        let ph_str = ev.get("ph").and_then(Json::as_str).ok_or_else(|| bad("missing ph"))?;
        let ph = ph_str.chars().next().ok_or_else(|| bad("empty ph"))?;
        if !matches!(ph, 'X' | 'i' | 'I' | 'M' | 'B' | 'E' | 'b' | 'e' | 'C') {
            return Err(bad(&format!("unsupported ph '{ph}'")));
        }
        let name =
            ev.get("name").and_then(Json::as_str).ok_or_else(|| bad("missing name"))?.to_owned();
        let pid = ev.get("pid").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let tid = ev.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let ts = match ph {
            'M' => 0.0,
            _ => ev.get("ts").and_then(Json::as_f64).ok_or_else(|| bad("missing ts"))?,
        };
        let dur = match ph {
            'X' => ev.get("dur").and_then(Json::as_f64).ok_or_else(|| bad("X without dur"))?,
            _ => 0.0,
        };
        if ts < 0.0 || dur < 0.0 {
            return Err(bad("negative time"));
        }
        out.events.push(ChromeEvent {
            ph,
            pid,
            tid,
            name,
            ts_ns: us_to_ns(ts),
            dur_ns: us_to_ns(dur),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Span, TraceLevel, Tracer};

    fn sample() -> TraceData {
        let t = Tracer::new(TraceLevel::Phases);
        t.record_span(Span {
            track: Track::Coordinator,
            name: "epoch",
            t_start: 1_000,
            t_end: 9_000,
            args: vec![("epoch", ArgValue::U64(0)), ("note", ArgValue::Str("a\"b".into()))],
        });
        t.record_span(Span {
            track: Track::Coordinator,
            name: "phase.begin",
            t_start: 1_500,
            t_end: 2_500,
            args: Vec::new(),
        });
        t.record_instant(Instant {
            time: 3_000,
            track: Track::Storage(2),
            name: "storage.start",
            args: vec![
                ("bytes", ArgValue::U64(4096)),
                ("factor", ArgValue::F64(0.25)),
                ("object", ArgValue::Str("img\"\\\n".into())),
            ],
        });
        t.take()
    }

    #[test]
    fn export_round_trips_through_the_parser() {
        let json = to_chrome_json(&sample());
        let trace = parse_chrome_json(&json).expect("valid");
        assert!(trace.well_nested());
        let epoch: Vec<_> = trace.spans_named("epoch").collect();
        assert_eq!(epoch.len(), 1);
        assert_eq!(epoch[0].ts_ns, 1_000);
        assert_eq!(epoch[0].dur_ns, 8_000);
        let inner: Vec<_> = trace.spans_named("phase.begin").collect();
        assert_eq!(inner[0].ts_ns, 1_500);
        let instant: Vec<_> = trace.events.iter().filter(|e| e.ph == 'i').collect();
        assert_eq!(instant.len(), 1);
        assert_eq!((instant[0].name.as_str(), instant[0].ts_ns), ("storage.start", 3_000));
        assert_eq!((instant[0].pid, instant[0].tid), (5, 2));
        assert!(trace.events.iter().any(|e| e.ph == 'M' && e.name == "process_name"));
    }

    #[test]
    fn nesting_violations_are_detected() {
        let json = r#"{"traceEvents":[
            {"ph":"X","pid":1,"tid":0,"name":"a","ts":0,"dur":10,"args":{}},
            {"ph":"X","pid":1,"tid":0,"name":"b","ts":5,"dur":10,"args":{}}
        ]}"#;
        let trace = parse_chrome_json(json).expect("parses");
        assert!(!trace.well_nested(), "partial overlap must be flagged");
    }

    #[test]
    fn malformed_events_are_rejected() {
        assert!(parse_chrome_json("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(parse_chrome_json("[{\"name\":\"x\"}]").is_err());
        assert!(parse_chrome_json("not json").is_err());
        // X without dur
        assert!(parse_chrome_json("[{\"ph\":\"X\",\"name\":\"x\",\"ts\":1}]").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let json = to_chrome_json(&sample());
        let root = parse_json(&json).expect("valid");
        let evs = root.get("traceEvents").and_then(Json::as_arr).expect("array");
        let epoch = evs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("epoch"))
            .expect("epoch span present");
        let note =
            epoch.get("args").and_then(|a| a.get("note")).and_then(Json::as_str).expect("note arg");
        assert_eq!(note, "a\"b");
        let start = evs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("storage.start"))
            .and_then(|e| e.get("args"))
            .expect("instant args present");
        assert_eq!(start.get("bytes").and_then(Json::as_f64), Some(4096.0));
        assert_eq!(start.get("factor").and_then(Json::as_f64), Some(0.25));
        assert_eq!(start.get("object").and_then(Json::as_str), Some("img\"\\\n"));
    }
}
