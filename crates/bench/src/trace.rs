//! The traced 4-rank smoke cell and the Perfetto export/validation
//! helpers behind `gbcr smoke` and `gbcr run --trace`.
//!
//! `scripts/tier1.sh` gates on [`check_chrome_json`]'s verdict over the
//! exported smoke trace: the file must parse as Chrome/Perfetto trace
//! JSON, every span row must nest, all five coordinator protocol phases
//! must be present and covered by their epoch span, and the connection
//! lifecycle and storage writes must have spans.

use crate::static_cfg;
use gbcr_core::RunReport;
use gbcr_des::trace::{perfetto, phase_stats};
use gbcr_des::{time, SimResult, TraceData, TraceLevel};
use gbcr_metrics::Table;
use gbcr_storage::MB;
use gbcr_workloads::MicroBench;

/// The five coordinator protocol phases every epoch records, in order.
pub const COORDINATOR_PHASES: [&str; 5] =
    ["phase.begin", "phase.group_start", "phase.checkpoint", "phase.group_done", "phase.end"];

/// Run the seeded 4-rank trace smoke: MicroBench over two comm groups,
/// one buffered group-based checkpoint (group size 2), traced at
/// [`TraceLevel::Full`]. Deterministic; the returned report carries the
/// recorded trace in [`RunReport::trace`].
pub fn trace_smoke() -> SimResult<RunReport> {
    let mb = MicroBench {
        n: 4,
        comm_group_size: 2,
        footprint: 40 * MB,
        steps: 60,
        ..Default::default()
    };
    let cfg = static_cfg("micro", 2, time::secs(3));
    mb.job().runner().ckpt(cfg).traced(TraceLevel::Full).run()
}

/// The trace smoke `gbcr smoke` prints and `scripts/tier1.sh` gates on:
/// run [`trace_smoke`], serialize it as Chrome/Perfetto JSON and validate
/// the text. Returns the verdict and the JSON (`gbcr smoke --trace PATH`
/// writes it — CI uploads that file). The span count is part of the
/// golden line: the export is byte-identical run to run.
pub fn smoke_check() -> SimResult<(TraceCheck, String)> {
    let report = trace_smoke()?;
    let data = report.trace.as_deref().expect("traced run records data");
    let json = perfetto::to_chrome_json(data);
    Ok((check_chrome_json(&json).expect("exported trace must parse"), json))
}

/// Verdict of [`check_chrome_json`] over an exported trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCheck {
    /// Complete (`ph == 'X'`) spans in the file.
    pub spans: usize,
    /// All five coordinator phases present, each covered by an epoch span.
    pub phases_ok: bool,
    /// Connection lifecycle spans (`net.connect` + `net.teardown`) present.
    pub net_ok: bool,
    /// Storage write spans present.
    pub storage_ok: bool,
    /// Every (pid, tid) row's spans nest or are disjoint.
    pub nested: bool,
}

impl TraceCheck {
    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.phases_ok && self.net_ok && self.storage_ok && self.nested
    }
}

/// Parse and structurally validate an exported Chrome/Perfetto trace.
/// Errors only on malformed JSON/schema; semantic shortfalls (a missing
/// phase, an overlap) land as `false` fields in the verdict.
pub fn check_chrome_json(json: &str) -> Result<TraceCheck, String> {
    let trace = perfetto::parse_chrome_json(json)?;
    let nested = trace.well_nested();
    let epochs: Vec<(u64, u64)> =
        trace.spans_named("epoch").map(|e| (e.ts_ns, e.ts_ns + e.dur_ns)).collect();
    let phases_ok = COORDINATOR_PHASES.iter().all(|name| {
        let mut spans = trace.spans_named(name).peekable();
        spans.peek().is_some()
            && spans
                .all(|s| epochs.iter().any(|&(t0, t1)| s.ts_ns >= t0 && s.ts_ns + s.dur_ns <= t1))
    });
    let net_ok = trace.spans_named("net.connect").next().is_some()
        && trace.spans_named("net.teardown").next().is_some();
    let storage_ok = trace.spans_named("storage.write").next().is_some();
    Ok(TraceCheck { spans: trace.spans().count(), phases_ok, net_ok, storage_ok, nested })
}

/// Render the human-readable trace summary a `--trace` run prints: the
/// span-based per-epoch phase breakdown, then the per-phase latency table
/// of `data`'s spans.
pub fn summary(data: &TraceData) -> String {
    let mut t = Table::new(
        "Per-phase span latencies".to_owned(),
        &["span", "count", "mean", "min", "max", "total"],
    );
    for s in phase_stats(&data.spans) {
        t.row(&[
            s.name.clone(),
            s.count.to_string(),
            time::fmt(s.mean_ns()),
            time::fmt(s.min_ns),
            time::fmt(s.max_ns),
            time::fmt(s.total_ns),
        ]);
    }
    format!("{}\n{}", gbcr_metrics::render_epoch_trace(data, 72), t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_trace_passes_every_check() -> SimResult<()> {
        let report = trace_smoke()?;
        let data = report.trace.as_deref().expect("traced run records data");
        let json = perfetto::to_chrome_json(data);
        let chk = check_chrome_json(&json).expect("valid trace JSON");
        assert!(chk.ok(), "smoke verdict: {chk:?}");
        assert!(!phase_stats(&data.spans).is_empty());
        let s = summary(data);
        assert!(s.contains("epoch 0") && s.contains("phase.checkpoint"), "{s}");
        Ok(())
    }
}
