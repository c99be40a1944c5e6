//! The `gbcr` binary is the repo's one front door: its parser must refuse
//! what it does not understand instead of answering a different question,
//! and what it prints must be the committed results.

use gbcr_bench::figures::FIGURES;
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
