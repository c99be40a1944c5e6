//! The `gbcr` binary is the repo's one front door: its parser must refuse
//! what it does not understand instead of answering a different question,
//! and what it prints must be the committed results.

use gbcr_bench::figures::FIGURES;
use gbcr_des::trace::perfetto::{parse_json, Json};
use std::path::Path;
use std::process::{Command, Output};

fn gbcr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gbcr")).args(args).output().expect("gbcr runs")
}

fn stdout(args: &[&str]) -> String {
    let out = gbcr(args);
    assert!(out.status.success(), "gbcr {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn committed(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn bad_arguments_exit_2_with_usage_and_run_nothing() {
    let cases: &[&[&str]] = &[
        &[],
        &["figs"],
        &["fig"],
        &["fig", "2"],
        &["fig", "1", "3"],
        &["fig", "1", "--thread", "2"],
        &["fig", "1", "--threads"],
        &["fig", "1", "--threads", "two"],
        &["fig", "1", "--json"],
        &["fig", "9", "--backend", "replicated"],
        &["fig", "8", "--backend", "failover"],
        &["ablations", "--json"],
        &["ablations", "--threads", "x"],
        &["taxonomy", "--threads", "2"],
        &["all", "--smoke"],
        &["all", "--threads"],
        &["all", "--threads", "-"],
        &["scale", "--size", "256"],
        &["scale", "--sizes"],
        &["scale", "--sizes", "256,many"],
        &["scale", "--sizes", "12"],
        &["scale", "--sizes", "0"],
        &["scale", "--threads", "x"],
        &["scale", "--json"],
        &["smoke", "--threads", "1"],
        &["smoke", "--trace"],
        &["run", "--grup-size", "8"],
        &["run", "--workload"],
        &["run", "--workload", "--group-size", "8"],
        &["run", "--workload", "linpack"],
        &["run", "--group-size", "eight"],
        &["run", "--at", "soon"],
        &["run", "--at", "18446744074"],
        &["run", "--mode", "optimistic"],
        &["run", "--formation", "random"],
        &["run", "hpl"],
    ];
    for args in cases {
        let out = gbcr(args);
        assert_eq!(out.status.code(), Some(2), "gbcr {args:?} must be a usage error");
        assert!(out.stdout.is_empty(), "gbcr {args:?} printed a result: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("gbcr: ") && err.contains("usage:"), "gbcr {args:?}: {err}");
    }
}

#[test]
fn fig_1_prints_the_committed_figure_1_block() {
    let results = committed("bench_results.txt");
    let start = results.find("# Figure 1").expect("Figure 1 recorded");
    let len = results[start..].find("\n# ").expect("a section follows Figure 1") + 1;
    let out = stdout(&["fig", "1"]);
    assert!(out.starts_with(&results[start..start + len]), "{out}");
    assert!(out.contains("paper anchors:"), "{out}");
}

#[test]
fn smoke_prints_the_six_golden_lines() {
    assert_eq!(stdout(&["smoke"]), committed("scripts/tier1_smoke.golden"));
}

/// `bench_results.txt` is `gbcr all`: each of its tables belongs to exactly
/// one evaluation entry, and the entries are listed in file order.
#[test]
fn every_recorded_heading_is_claimed_once_in_table_order() {
    let results = committed("bench_results.txt");
    let recorded: Vec<&str> = results.lines().filter_map(|l| l.strip_prefix("# ")).collect();
    let claimed: Vec<&str> = FIGURES
        .iter()
        .filter(|f| f.in_evaluation())
        .flat_map(|f| f.headings.iter().copied())
        .collect();
    assert_eq!(claimed, recorded);
}

fn parsed(what: &str, text: &str) -> Json {
    parse_json(text).unwrap_or_else(|e| panic!("{what} is not JSON: {e}\n{text}"))
}

/// `v` is an object with exactly the space-separated `keys` (written as
/// the EXPERIMENTS.md schema paragraphs list them).
fn assert_keys(what: &str, v: &Json, keys: &str) {
    let Json::Obj(members) = v else { panic!("{what}: not an object: {v:?}") };
    let mut want: Vec<&str> = keys.split_whitespace().collect();
    want.sort_unstable();
    assert_eq!(members.keys().map(String::as_str).collect::<Vec<_>>(), want, "{what}");
}

fn array<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("no {key}[] in {doc:?}"))
}

/// A fault cell is either the full row or, when every replica gave up,
/// its coordinates and fate only. Returns whether it was the short form.
fn assert_fault_cell(what: &str, cell: &Json, id: &str, measured: &str) -> bool {
    let short = cell.get("availability").is_none();
    if short {
        assert_keys(what, cell, &format!("{id} replicas gave_up"));
        assert_eq!(cell.get("gave_up"), cell.get("replicas"), "{what}: none finished");
    } else {
        assert_keys(what, cell, &format!("{id} replicas gave_up {measured} {ELECTION_KEYS}"));
    }
    short
}

const ELECTION_KEYS: &str = "coordinator_kills elections_held terms heartbeats_missed \
    leader_migrations time_to_new_leader_s";

#[test]
fn fig_8_json_parses_and_carries_the_documented_keys() {
    let measured = "availability lost_work_node_s goodput failures attempts backoff_s \
        protocol_aborts epoch_retries manifest_commits torn_writes dropped_sends recovery_s \
        replicas_written replica_bytes remote_recoveries local_recoveries replica_losses";
    for (backend, flag) in [("central", &[][..]), ("replicated", &["--backend", "replicated"])] {
        let what = format!("fig 8 --json {flag:?}");
        let doc = parsed(&what, &stdout(&[&["fig", "8", "--json"], flag].concat()));
        assert_keys(&what, &doc, "n backend seed useful_s delta_s cells");
        assert_eq!(doc.get("backend").and_then(Json::as_str), Some(backend));
        let cells = array(&doc, "cells");
        assert_eq!(cells.len(), 12, "{what}: 4 intervals × 3 MTBFs");
        let short = cells
            .iter()
            .filter(|c| assert_fault_cell(&what, c, "interval_s node_mtbf_s", measured))
            .count();
        // The committed central sweep has cells no replica survives (1 s
        // interval at 30 s MTBF/node): the short form is really printed.
        assert!(backend != "central" || short > 0, "{what}: no gave-up cell");
    }
}

#[test]
fn fig_9_json_parses_and_carries_the_documented_keys() {
    let doc = parsed("fig 9", &stdout(&["fig", "9", "--json"]));
    assert_keys("fig 9", &doc, "n seed useful_s interval_ms cells");
    let measured = "availability lost_work_node_s failures attempts supervisor_restarts";
    let cells = array(&doc, "cells");
    assert_eq!(cells.len(), 6, "2 planes × 3 coordinator MTBFs");
    for c in cells {
        assert_fault_cell("fig 9 cell", c, "plane coord_mtbf_s", measured);
    }
}

#[test]
fn fig_10_json_parses_and_carries_the_documented_keys() {
    let doc = parsed("fig 10", &stdout(&["fig", "10", "--json"]));
    assert_keys("fig 10", &doc, "n_per_tenant interval_ms seed loads cells tenants");
    let loads = array(&doc, "loads");
    assert_eq!(array(&doc, "cells").len(), 2 * loads.len(), "one cell per load × class");
    for c in array(&doc, "cells") {
        let keys = "class tenants p99_epoch_ms mean_epoch_ms max_epoch_ms goodput goodput_min \
            peak_streams events";
        assert_keys("fig 10 cell", c, keys);
    }
    let top = loads.iter().filter_map(Json::as_f64).fold(0.0, f64::max);
    assert_eq!(array(&doc, "tenants").len() as f64, 2.0 * top, "both classes at the top load");
    for t in array(&doc, "tenants") {
        assert_keys("fig 10 tenant", t, "name class completion_s goodput p99_epoch_ms phase_ms");
    }
}

#[test]
fn scale_json_parses_and_carries_the_documented_keys() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("scale_256.json");
    let path = path.to_str().expect("utf-8 path");
    stdout(&["scale", "--sizes", "256", "--json", path]);
    let doc = parsed(path, &std::fs::read_to_string(path).expect("scale wrote its JSON"));
    assert_keys(path, &doc, "scale");
    let sizes = array(&doc, "scale");
    assert_eq!(sizes.len(), 1);
    let keys = "ranks wall_ms events elided_wakes procs_spawned spawn_ms eff_all_s eff_group_s";
    assert_keys("scale cell", &sizes[0], keys);
    assert_eq!(sizes[0].get("ranks").and_then(Json::as_f64), Some(256.0));
}
