//! Seed the sweep cost registry from a previous run's `--json` record.
//!
//! `make_all --json` persists per-cell costs so the *next* run can
//! dispatch cells longest-expected-first (LPT) from its very first sweep.
//! A relative record path that does not exist in the current directory
//! falls back to the workspace root, so a regeneration launched from a
//! subdirectory still starts warm. Cells missing a field are skipped —
//! worst case that cell is scheduled as unknown, never an error.

use gbcr_des::trace::perfetto::{parse_json, Json};

/// Seed [`gbcr_metrics`]'s cost registry from the record at `path`,
/// falling back to `<workspace root>/<path>` for relative paths that do
/// not resolve from the current directory. Returns the number of cells
/// seeded; a missing or unparseable file seeds nothing.
pub fn seed_costs_from(path: &str) -> usize {
    let text = std::fs::read_to_string(path).or_else(|e| {
        if std::path::Path::new(path).is_relative() {
            // crates/bench/../.. == the workspace root.
            let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(path);
            std::fs::read_to_string(root)
        } else {
            Err(e)
        }
    });
    let Ok(text) = text else { return 0 };
    seed_costs_from_str(&text)
}

/// Seed the cost registry from an in-memory `--json` record: every entry
/// of its `cells` array that has a `key`, a `wall_ms` and an `events`.
pub fn seed_costs_from_str(text: &str) -> usize {
    let Ok(doc) = parse_json(text) else { return 0 };
    let cells = doc.get("cells").and_then(Json::as_arr).unwrap_or_default();
    let mut seeded = 0;
    for cell in cells {
        let key = cell.get("key").and_then(Json::as_str);
        let wall = cell.get("wall_ms").and_then(Json::as_f64);
        let events = cell.get("events").and_then(Json::as_f64);
        if let (Some(key), Some(wall), Some(events)) = (key, wall, events) {
            gbcr_metrics::seed_cell_cost(key, wall, events as u64);
            seeded += 1;
        }
    }
    seeded
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A previous-run record whose cells carry nested `phases` arrays (a
    /// traced run) must still seed every cell.
    #[test]
    fn traced_record_with_nested_phases_seeds_all_cells() {
        let json = r#"{
  "threads": 1,
  "cells": [
    {"key": "t/seedmod/plain", "wall_ms": 81.7, "events": 16788},
    {"key": "t/seedmod/traced", "wall_ms": 256.5, "events": 40145, "phases": [{"name": "phase.checkpoint", "count": 2, "mean_ns": 50, "min_ns": 40, "max_ns": 60, "total_ns": 100}, {"name": "phase.drain", "count": 1, "mean_ns": 9, "min_ns": 9, "max_ns": 9, "total_ns": 9}]},
    {"key": "t/seedmod/traced2", "wall_ms": 12.0, "events": 777, "phases": [{"name": "phase.commit", "count": 3, "mean_ns": 4, "min_ns": 1, "max_ns": 7, "total_ns": 12}]}
  ]
}"#;
        let seeded = seed_costs_from_str(json);
        assert_eq!(seeded, 3, "phases-bearing cells must not be skipped");
        assert_eq!(
            gbcr_metrics::cell_cost("t/seedmod/traced"),
            Some(gbcr_metrics::CellCost { wall_ms: 256.5, events: 40145 })
        );
        assert_eq!(
            gbcr_metrics::cell_cost("t/seedmod/plain"),
            Some(gbcr_metrics::CellCost { wall_ms: 81.7, events: 16788 })
        );
    }

    #[test]
    fn plain_record_roundtrips_and_malformed_cells_are_skipped() {
        let json = r#"{"cells": [
    {"key": "t/seedmod/a", "wall_ms": 1.5, "events": 10},
    {"key": "t/seedmod/broken", "wall_ms": "oops"},
    {"wall_ms": 3.0, "events": 9},
    {"key": "t/seedmod/b", "wall_ms": 2.0, "events": 20}
  ]}"#;
        assert_eq!(seed_costs_from_str(json), 2);
        assert_eq!(
            gbcr_metrics::cell_cost("t/seedmod/b"),
            Some(gbcr_metrics::CellCost { wall_ms: 2.0, events: 20 })
        );
        assert_eq!(gbcr_metrics::cell_cost("t/seedmod/broken"), None);
    }

    #[test]
    fn missing_file_or_no_cells_seeds_nothing() {
        assert_eq!(seed_costs_from("/nonexistent/gbcr-seed-test.json"), 0);
        assert_eq!(seed_costs_from_str("{\"threads\": 4}"), 0);
        assert_eq!(seed_costs_from_str("{\"cells\": [{\"key\": \"t/seedmod/cut\""), 0, "truncated");
    }

    #[test]
    fn escaped_quotes_in_keys_do_not_derail_the_scan() {
        let json = r#"{"cells": [
    {"key": "t/seedmod/we\"ird{", "wall_ms": 4.0, "events": 40},
    {"key": "t/seedmod/after", "wall_ms": 5.0, "events": 50}
  ]}"#;
        assert_eq!(seed_costs_from_str(json), 2);
        assert_eq!(
            gbcr_metrics::cell_cost("t/seedmod/we\"ird{"),
            Some(gbcr_metrics::CellCost { wall_ms: 4.0, events: 40 })
        );
        assert_eq!(
            gbcr_metrics::cell_cost("t/seedmod/after"),
            Some(gbcr_metrics::CellCost { wall_ms: 5.0, events: 50 })
        );
    }
}
