//! Per-rank epoch timelines: render what the coordinator and every
//! process were doing during a checkpoint epoch as an ASCII Gantt chart
//! (the visual intuition behind the paper's Figure 2), from the spans a
//! traced run recorded. Group structure becomes immediately visible:
//! regular checkpointing is one solid block column; group-based
//! checkpointing is a staircase.

use gbcr_des::trace::arg;
use gbcr_des::{time, ArgValue, Span, Time, TraceData, Track};

/// Render every recorded checkpoint epoch from a trace as an ASCII phase
/// breakdown, `width` characters wide.
///
/// These are the spans the run actually recorded, not a reconstruction:
/// the coordinator row shows the five protocol phases and the
/// manifest commit, and each rank row shows the measured flush / drain /
/// teardown / image-write sub-phases of its local checkpoint. Requires a
/// run traced at [`TraceLevel::Phases`](gbcr_des::TraceLevel) or above
/// (e.g. via `gbcr_core::JobRunner::traced` or the `--trace` bench flag).
///
/// Legend: coordinator `b`egin / group-`s`tart / `c`heckpoint /
/// group-`d`one / `e`nd / `m`anifest; ranks `─` in-checkpoint, `f`lush,
/// `d`rain, `t`eardown, `█` image write.
pub fn render_epoch_trace(trace: &TraceData, width: usize) -> String {
    assert!(width >= 20, "need at least 20 columns");
    let mut out = String::new();
    let epochs: Vec<&Span> =
        trace.spans.iter().filter(|s| s.track == Track::Coordinator && s.name == "epoch").collect();
    if epochs.is_empty() {
        out.push_str("no epoch spans recorded (was the run traced?)\n");
        return out;
    }
    for ep in epochs {
        render_one_epoch(&mut out, trace, ep, width);
    }
    out
}

fn render_one_epoch(out: &mut String, trace: &TraceData, ep: &Span, width: usize) {
    let t0 = ep.t_start;
    let t1 = ep.t_end.max(t0 + 1);
    let span = (t1 - t0) as f64;
    let col = |t: Time| -> usize {
        (((t.clamp(t0, t1) - t0) as f64 / span) * (width as f64 - 1.0)).round() as usize
    };
    // Paint one span's columns (at least one) with `mark`.
    let paint = |row: &mut [char], s: &Span, mark: char| {
        let (a, b) = (col(s.t_start), col(s.t_end).max(col(s.t_start) + 1));
        for c in row.iter_mut().take(b.min(width)).skip(a) {
            *c = mark;
        }
    };
    let overlaps = |s: &Span| s.t_end >= t0 && s.t_start <= t1;

    let ep_arg = |key| arg(&ep.args, key).and_then(ArgValue::as_u64).unwrap_or(0);
    out.push_str(&format!(
        "epoch {} — {} group(s), [{} .. {}] (total {})\n",
        ep_arg("epoch"),
        ep_arg("groups"),
        time::fmt(t0),
        time::fmt(t1),
        time::fmt(t1 - t0),
    ));

    // Paint bulk phases first so the (often sub-column) coordination
    // markers stay visible on top.
    let mut coord: Vec<char> = vec!['·'; width];
    for (name, mark) in [
        ("phase.checkpoint", 'c'),
        ("phase.group_done", 'd'),
        ("phase.group_start", 's'),
        ("manifest.commit", 'm'),
        ("phase.begin", 'b'),
        ("phase.end", 'e'),
    ] {
        for s in &trace.spans {
            if s.track == Track::Coordinator && s.name == name && overlaps(s) {
                paint(&mut coord, s, mark);
            }
        }
    }
    out.push_str("coord");
    out.extend(coord);
    out.push('\n');

    let mut ranks: Vec<u32> = trace
        .spans
        .iter()
        .filter_map(|s| match s.track {
            Track::Rank(r) if overlaps(s) => Some(r),
            _ => None,
        })
        .collect();
    ranks.sort_unstable();
    ranks.dedup();
    for rank in ranks {
        let mut row: Vec<char> = vec!['·'; width];
        // Paint coarse-to-fine so the sub-phases overlay the enclosing
        // checkpoint span.
        for (name, mark) in [
            ("rank.checkpoint", '─'),
            ("rank.flush", 'f'),
            ("rank.drain", 'd'),
            ("rank.teardown", 't'),
            ("blcr.checkpoint", '█'),
        ] {
            for s in &trace.spans {
                if s.track == Track::Rank(rank) && s.name == name && overlaps(s) {
                    paint(&mut row, s, mark);
                }
            }
        }
        if row.iter().all(|&c| c == '·') {
            continue; // rank had activity spans, none checkpoint-related
        }
        out.push_str(&format!("r{rank:<4}"));
        out.extend(row);
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbcr_core::{CkptSchedule, CoordinatorCfg};
    use gbcr_storage::MB;
    use gbcr_workloads::MicroBench;

    #[test]
    fn trace_render_shows_phases_and_writes() {
        let mb = MicroBench {
            n: 4,
            comm_group_size: 2,
            footprint: 40 * MB,
            steps: 60,
            ..Default::default()
        };
        let cfg = CoordinatorCfg::new("micro", 2, CkptSchedule::once(gbcr_des::time::secs(3)));
        let report =
            mb.job().runner().ckpt(cfg).traced(gbcr_des::TraceLevel::Phases).run().unwrap();
        let trace = report.trace.as_deref().expect("traced run records spans");
        let s = render_epoch_trace(trace, 60);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("epoch 0 — 2 group(s)"), "{s}");
        let coord = lines.iter().find(|l| l.starts_with("coord")).expect("coordinator row");
        for mark in ['b', 's', 'c', 'e'] {
            assert!(coord.contains(mark), "coordinator row missing {mark:?}: {s}");
        }
        let rank_rows: Vec<&&str> = lines.iter().filter(|l| l.starts_with('r')).collect();
        assert_eq!(rank_rows.len(), 4, "{s}");
        for row in &rank_rows {
            assert!(row.contains('█'), "every rank writes an image: {s}");
        }
        // Two groups of two: the second group's writes start after the
        // first's (the staircase).
        let first_write: Vec<usize> =
            rank_rows.iter().map(|r| r.chars().position(|c| c == '█').unwrap()).collect();
        assert!(first_write[2] > first_write[0] && first_write[3] > first_write[1], "{s}");
    }

    #[test]
    fn trace_render_on_untraced_data_says_so() {
        let s = render_epoch_trace(&gbcr_des::TraceData::default(), 40);
        assert!(s.contains("no epoch spans"));
    }

    #[test]
    #[should_panic(expected = "at least 20")]
    fn trace_render_width_is_validated() {
        let _ = render_epoch_trace(&gbcr_des::TraceData::default(), 5);
    }
}
