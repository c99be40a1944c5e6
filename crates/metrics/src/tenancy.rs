//! Per-tenant aggregation over cluster runs: attribute traced phase time
//! to tenants.
//!
//! Coordinator spans carry a `job` argument (the tenant's name), so a
//! traced [`gbcr_core::cluster::run_cluster`] produces one interleaved
//! trace that [`span_time_by_job`] splits back into per-tenant phase
//! budgets — the PR 5 span machinery doing multi-tenant attribution.

use gbcr_des::trace::{arg, ArgValue, TraceData};
use gbcr_des::Time;
use std::collections::BTreeMap;

/// Sum the wall (virtual) time of every span whose name starts with
/// `prefix` (use `""` for all spans), keyed by the span's `job` argument.
/// Spans without a `job` argument (rank/storage/fabric tracks) are
/// ignored. Returns `(job, total_time, span_count)` sorted by job name —
/// deterministic, so smoke goldens can pin it.
pub fn span_time_by_job(trace: &TraceData, prefix: &str) -> Vec<(String, Time, u64)> {
    let mut by_job: BTreeMap<String, (Time, u64)> = BTreeMap::new();
    for span in &trace.spans {
        if !span.name.starts_with(prefix) {
            continue;
        }
        let Some(job) = arg(&span.args, "job").and_then(ArgValue::as_str) else {
            continue;
        };
        let e = by_job.entry(job.to_owned()).or_default();
        e.0 += span.t_end - span.t_start;
        e.1 += 1;
    }
    by_job.into_iter().map(|(job, (t, c))| (job, t, c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbcr_des::trace::{Span, Track};

    fn span(name: &'static str, job: Option<&str>, t0: Time, t1: Time) -> Span {
        Span {
            track: Track::Coordinator,
            name,
            t_start: t0,
            t_end: t1,
            args: job
                .map(|j| vec![("job", ArgValue::Str(j.to_owned()))])
                .unwrap_or_default(),
        }
    }

    #[test]
    fn splits_interleaved_spans_by_job() {
        let trace = TraceData {
            spans: vec![
                span("phase.begin", Some("b"), 0, 10),
                span("phase.checkpoint", Some("a"), 5, 25),
                span("epoch", Some("a"), 0, 30),
                span("phase.end", None, 0, 100), // no job arg: ignored
            ],
            ..TraceData::default()
        };
        assert_eq!(
            span_time_by_job(&trace, "phase."),
            vec![("a".into(), 20, 1), ("b".into(), 10, 1)]
        );
        assert_eq!(
            span_time_by_job(&trace, ""),
            vec![("a".into(), 50, 2), ("b".into(), 10, 1)]
        );
    }
}
