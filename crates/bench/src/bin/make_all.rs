//! Regenerate every figure and ablation in one pass (the EXPERIMENTS.md
//! source of truth). Prints everything to stdout; redirect to a file.
//!
//! All drivers fan their simulation cells over the parallel harness
//! (`gbcr_metrics::run_sweep`), which dispatches cells longest-first
//! using per-cell costs seeded from the previous run's `--json` record
//! (first run: unknown cells go first and get measured). Flags:
//!
//! * `--threads N` — worker pool size (default: `GBCR_THREADS` env, then
//!   all available cores). Requests above the core count run but are
//!   flagged as oversubscribed — the measured speedup is then meaningless.
//! * `--smoke` — tiny sweeps only (used by `scripts/tier1.sh`).
//! * `--serial-check` — rerun everything on one worker and verify the
//!   rendered tables are byte-identical, recording the speedup.
//! * `--scale` — append the scale study (group-based vs whole-cluster
//!   delay from 256 ranks up; smoke sizes under `--smoke`) and emit its
//!   telemetry as the `scale` block of the `--json` record.
//! * `--json [PATH]` — write a machine-readable run record (per-figure
//!   wall ms, thread count, simulated-event totals, elided wakes,
//!   per-cell costs) to PATH (default `BENCH_harness.json`).
//! * `--trace [PATH]` — turn on phase-level span capture for every sweep
//!   cell (per-cell phase latency stats then land in the `--json` record)
//!   and export the traced 4-rank smoke as Chrome/Perfetto JSON at PATH
//!   (default `target/trace_smoke.json`). Capture only observes: every
//!   rendered table stays byte-identical to an untraced run.

use gbcr_bench::{
    ablations, fig1, fig10, fig3, fig4, fig5, fig7, fig8, fig9, scale, seed, trace, GROUP_SIZES,
};
use std::time::Instant;

struct Args {
    threads: Option<usize>,
    smoke: bool,
    serial_check: bool,
    faults: bool,
    fig9: bool,
    fig10: bool,
    backend: fig8::Backend,
    scale: bool,
    json: Option<String>,
    trace: Option<String>,
}

fn parse_args() -> Args {
    let mut out = Args {
        threads: None,
        smoke: false,
        serial_check: false,
        faults: false,
        fig9: false,
        fig10: false,
        backend: fig8::Backend::Central,
        scale: false,
        json: None,
        trace: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                let n = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--threads needs a positive number");
                    std::process::exit(2);
                });
                out.threads = Some(n);
            }
            "--smoke" => out.smoke = true,
            "--serial-check" => out.serial_check = true,
            "--faults" => out.faults = true,
            "--fig9" => out.fig9 = true,
            "--fig10" => out.fig10 = true,
            "--backend" => {
                out.backend = it
                    .next()
                    .as_deref()
                    .and_then(fig8::Backend::parse)
                    .unwrap_or_else(|| {
                        eprintln!("--backend needs one of: central, replicated");
                        std::process::exit(2);
                    });
            }
            "--scale" => out.scale = true,
            "--json" => {
                out.json = Some(match it.peek() {
                    Some(v) if !v.starts_with('-') => it.next().unwrap(),
                    _ => "BENCH_harness.json".to_owned(),
                });
            }
            "--trace" => {
                out.trace = Some(match it.peek() {
                    Some(v) if !v.starts_with('-') => it.next().unwrap(),
                    _ => "target/trace_smoke.json".to_owned(),
                });
            }
            other => {
                eprintln!("unknown flag {other}");
                eprintln!(
                    "usage: make_all [--threads N] [--smoke] [--serial-check] \
                     [--faults] [--fig9] [--fig10] \
                     [--backend central|replicated] [--scale] \
                     [--json [PATH]] [--trace [PATH]]"
                );
                std::process::exit(2);
            }
        }
    }
    out
}

type Renderer = Box<dyn Fn(Option<usize>) -> String>;

/// Every section of the report: name plus a renderer taking the worker
/// count. Each renderer is deterministic, so its output must not depend
/// on `threads`.
fn sections(smoke: bool) -> Vec<(&'static str, Renderer)> {
    let mut s: Vec<(&'static str, Renderer)> = Vec::new();
    s.push(("fig1", Box::new(|_| fig1::table(&fig1::run()).render())));
    if smoke {
        s.push((
            "fig3",
            Box::new(|t| fig3::table(&fig3::run_threaded(8, &[4], &[8, 4], t)).render()),
        ));
        s.push((
            "fig4",
            Box::new(|t| fig4::table(&fig4::run_threaded(&[15, 55], t)).render()),
        ));
        s.push((
            "fig5",
            Box::new(|t| fig5::table(&fig5::run_threaded(&[50, 150], &[32, 4], t)).render()),
        ));
        s.push((
            "fig7",
            Box::new(|t| fig7::table(&fig7::run_threaded(&[30], &[32, 4], t)).render()),
        ));
        return s;
    }
    s.push((
        "fig3",
        Box::new(|t| {
            fig3::table(&fig3::run_threaded(32, &fig3::COMM_SIZES, &GROUP_SIZES, t)).render()
        }),
    ));
    s.push((
        "fig4",
        Box::new(|t| fig4::table(&fig4::run_threaded(&fig4::POINTS, t)).render()),
    ));
    s.push((
        "fig5+6",
        Box::new(|t| {
            let sw = fig5::run_threaded(&fig5::POINTS, &GROUP_SIZES, t);
            let mut out = fig5::table(&sw).render();
            out.push('\n');
            out.push_str(
                &fig5::summary_table(
                    &sw,
                    "Figure 6 — HPL Effective Checkpoint Delay per group size (avg with min/max)",
                )
                .render(),
            );
            out
        }),
    ));
    s.push((
        "fig7",
        Box::new(|t| {
            let sw = fig7::run_threaded(&fig7::POINTS, &GROUP_SIZES, t);
            let mut out = fig7::table(&sw).render();
            out.push('\n');
            out.push_str(
                &fig5::summary_table(
                    &sw,
                    "Figure 7 summary — MotifMiner average effective delay per group size",
                )
                .render(),
            );
            out
        }),
    ));
    s.push((
        "ablation-progress",
        Box::new(|t| ablations::progress_table(&ablations::progress_ablation_threaded(t)).render()),
    ));
    s.push((
        "ablation-buffering",
        Box::new(|t| {
            ablations::buffering_table(&ablations::buffering_ablation_threaded(t)).render()
        }),
    ));
    s.push((
        "ablation-logging",
        Box::new(|t| ablations::logging_table(&ablations::logging_ablation_threaded(t)).render()),
    ));
    s.push((
        "ablation-formation",
        Box::new(|t| {
            ablations::formation_table(&ablations::formation_ablation_threaded(t)).render()
        }),
    ));
    s.push((
        "comparator-chandy-lamport",
        Box::new(|t| {
            ablations::chandy_lamport_table(&ablations::chandy_lamport_ablation_threaded(t))
                .render()
        }),
    ));
    s.push((
        "extension-incremental",
        Box::new(|t| {
            ablations::incremental_table(&ablations::incremental_ablation_threaded(t)).render()
        }),
    ));
    s
}

/// Run every section on `threads` workers; returns the rendered sections,
/// per-section wall milliseconds, and per-section simulated-event counts
/// (sections run one at a time, so global-counter deltas attribute
/// exactly).
fn render_all(
    secs: &[(&'static str, Renderer)],
    threads: Option<usize>,
) -> (Vec<String>, Vec<f64>, Vec<u64>) {
    let mut outputs = Vec::with_capacity(secs.len());
    let mut walls = Vec::with_capacity(secs.len());
    let mut events = Vec::with_capacity(secs.len());
    for (_, render) in secs {
        let t0 = Instant::now();
        let e0 = gbcr_des::total_events_processed();
        outputs.push(render(threads));
        events.push(gbcr_des::total_events_processed() - e0);
        walls.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    (outputs, walls, events)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args = parse_args();
    let threads = gbcr_metrics::resolve_threads(args.threads);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let oversubscribed = threads > cores;
    if oversubscribed {
        eprintln!(
            "warning: {threads} workers requested on a {cores}-core host — \
             oversubscribed; wall times and speedup will not reflect real parallelism"
        );
    }
    let seeded = args.json.as_deref().map_or(0, seed::seed_costs_from);
    if seeded > 0 {
        eprintln!("seeded {seeded} cell costs from previous run (LPT dispatch)");
    } else if let Some(path) = &args.json {
        eprintln!(
            "no cell costs seeded (no readable previous record at {path}) — \
             cold LPT dispatch, unknown cells first"
        );
    }
    if args.trace.is_some() {
        // Phase-level capture for every sweep cell; the tracer only
        // observes, so every table below is still byte-identical to an
        // untraced run (the serial check verifies exactly that).
        gbcr_des::trace::set_capture_default(gbcr_des::TraceLevel::Phases);
        eprintln!("phase-level span capture on for every cell");
    }
    let secs = sections(args.smoke);

    println!("=== gbcr: full evaluation reproduction ({threads} worker threads) ===\n");
    let events0 = gbcr_des::total_events_processed();
    let elided0 = gbcr_des::total_wakes_elided();
    let spawned0 = gbcr_des::total_procs_spawned();
    let t0 = Instant::now();
    let (outputs, walls, section_events) = render_all(&secs, Some(threads));
    let parallel_secs = t0.elapsed().as_secs_f64();
    let total_events = gbcr_des::total_events_processed() - events0;
    let total_elided = gbcr_des::total_wakes_elided() - elided0;
    let total_spawned = gbcr_des::total_procs_spawned() - spawned0;
    for out in &outputs {
        println!("{out}");
    }
    eprintln!(
        "total wall time: {parallel_secs:.2}s on {threads} threads \
         ({total_events} simulated events, {total_elided} progress wakes elided)"
    );

    // The fault sweep is opt-in (`--faults`): it exercises the gbcr-faults
    // injector, so keeping it out of the default run preserves the
    // injector-disabled guarantee that every table above is byte-identical
    // to the recorded bench_results.txt.
    let mut faults: Option<(gbcr_bench::fig8::FaultSweep, f64)> = None;
    if args.faults {
        let t0 = Instant::now();
        let sw = if args.smoke {
            fig8::run_threaded(4, &[1_000, 2_000], &[60], 2, Some(threads), args.backend)
        } else {
            fig8::run_threaded(
                8,
                &fig8::INTERVALS_MS,
                &fig8::NODE_MTBFS_S,
                fig8::REPLICAS,
                Some(threads),
                args.backend,
            )
        };
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        println!("{}", fig8::table(&sw).render());
        println!("{}", fig8::lost_work_table(&sw).render());
        println!("{}", fig8::optimal_table(&sw).render());
        faults = Some((sw, wall_ms));
    }

    // The control-plane sweep is opt-in (`--fig9`): like `--faults` it
    // exercises the injector, and it runs every cell twice (static plane
    // and lease-based failover) against identical coordinator-kill draws.
    let mut fig9_sweeps: Option<(fig9::PlaneSweep, fig9::PlaneSweep, f64)> = None;
    if args.fig9 {
        let t0 = Instant::now();
        let (mtbfs, replicas): (&[u64], usize) =
            if args.smoke { (&[20, 60], 2) } else { (&fig9::COORD_MTBFS_S, fig9::REPLICAS) };
        let st = fig9::run_threaded(8, mtbfs, replicas, Some(threads), fig9::Plane::Static);
        let fo = fig9::run_threaded(8, mtbfs, replicas, Some(threads), fig9::Plane::Failover);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        println!("{}", fig9::table(&st, &fo).render());
        fig9_sweeps = Some((st, fo, wall_ms));
    }

    // The interference study is opt-in (`--fig10`): each cell is a whole
    // multi-tenant cluster simulation (up to 512 concurrent ranks) plus a
    // solo baseline per tenant — tier-2 cost at the full load grid.
    let mut fig10_sweep: Option<(fig10::Fig10Sweep, f64)> = None;
    if args.fig10 {
        let t0 = Instant::now();
        let loads: &[usize] = if args.smoke { &[32] } else { &fig10::LOADS };
        let sw = fig10::run_threaded(loads, Some(threads));
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        println!("{}", fig10::table(&sw).render());
        fig10_sweep = Some((sw, wall_ms));
    }

    // The scale study is opt-in (`--scale`): its 10k-rank points are
    // tier-2 cost, and its cost table is intentionally nondeterministic
    // (wall times), so it stays outside the identity-checked sections.
    let mut scale_cells: Option<(Vec<scale::ScaleCell>, f64)> = None;
    if args.scale {
        let sizes: &[u32] =
            if args.smoke { &scale::SIZES_SMOKE } else { &scale::SIZES_FULL };
        let t0 = Instant::now();
        let cells = scale::run(sizes, Some(threads));
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        print!("{}", scale::table(&cells).render());
        println!();
        print!("{}", scale::cost_table(&cells).render());
        scale_cells = Some((cells, wall_ms));
    }

    // Wall seconds of the 1-worker rerun; set only once it matched.
    let mut serial = None;
    if args.serial_check {
        eprintln!("serial check: rerunning everything on 1 worker...");
        let t1 = Instant::now();
        let (serial_outputs, _, _) = render_all(&secs, Some(1));
        let serial_secs = t1.elapsed().as_secs_f64();
        if serial_outputs != outputs {
            for (i, (name, _)) in secs.iter().enumerate() {
                if serial_outputs[i] != outputs[i] {
                    eprintln!(
                        "serial check FAILED: section {name} differs between 1 and \
                         {threads} threads"
                    );
                }
            }
            std::process::exit(1);
        }
        eprintln!(
            "serial check: tables byte-identical; {serial_secs:.2}s serial vs \
             {parallel_secs:.2}s on {threads} threads ({:.2}x)",
            serial_secs / parallel_secs
        );
        serial = Some(serial_secs);
    }

    let mut trace_exported: Option<(String, trace::TraceCheck)> = None;
    if let Some(path) = &args.trace {
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let report = trace::trace_smoke();
        let data = report.trace.as_deref().expect("traced run records data");
        let json = trace::export(data, path).expect("write trace file");
        let chk = trace::check_chrome_json(&json).expect("exported trace must parse");
        eprintln!(
            "wrote {path}: {} spans, phases_ok={} net_ok={} storage_ok={} nested={}",
            chk.spans, chk.phases_ok, chk.net_ok, chk.storage_ok, chk.nested
        );
        if !chk.ok() {
            eprintln!("trace export FAILED validation");
            std::process::exit(1);
        }
        trace_exported = Some((path.clone(), chk));
    }

    if let Some(path) = &args.json {
        let mut j = String::from("{\n");
        j.push_str(&format!("  \"threads\": {threads},\n"));
        j.push_str(&format!("  \"host_cores\": {cores},\n"));
        j.push_str(&format!("  \"oversubscribed\": {oversubscribed},\n"));
        j.push_str(&format!("  \"smoke\": {},\n", args.smoke));
        j.push_str(&format!("  \"total_wall_ms\": {:.1},\n", parallel_secs * 1e3));
        j.push_str(&format!("  \"total_events\": {total_events},\n"));
        j.push_str(&format!("  \"total_elided_wakes\": {total_elided},\n"));
        j.push_str(&format!("  \"total_procs_spawned\": {total_spawned},\n"));
        j.push_str(&format!(
            "  \"executor\": \"{}\",\n",
            gbcr_des::executor_default().name()
        ));
        j.push_str(&format!("  \"lpt_seeded_cells\": {seeded},\n"));
        if let Some(serial_secs) = serial {
            j.push_str(&format!("  \"serial_wall_ms\": {:.1},\n", serial_secs * 1e3));
            j.push_str(&format!("  \"speedup\": {:.2},\n", serial_secs / parallel_secs));
            j.push_str("  \"tables_identical\": true,\n");
        }
        if let Some((cells, wall_ms)) = &scale_cells {
            j.push_str(&format!("  \"scale_wall_ms\": {wall_ms:.1},\n"));
            j.push_str(&format!("  \"scale\": {},\n", scale::json_block(cells)));
        }
        if let Some((sw, wall_ms)) = &faults {
            j.push_str(&format!("  \"faults_wall_ms\": {wall_ms:.1},\n"));
            j.push_str(&format!("  \"faults\": {},\n", fig8::json_block(sw)));
        }
        if let Some((st, fo, wall_ms)) = &fig9_sweeps {
            j.push_str(&format!("  \"fig9_wall_ms\": {wall_ms:.1},\n"));
            j.push_str(&format!("  \"fig9\": {},\n", fig9::json_block(st, fo)));
        }
        if let Some((sw, wall_ms)) = &fig10_sweep {
            j.push_str(&format!("  \"fig10_wall_ms\": {wall_ms:.1},\n"));
            j.push_str(&format!("  \"fig10\": {},\n", fig10::json_block(sw)));
        }
        if let Some((trace_path, chk)) = &trace_exported {
            j.push_str(&format!(
                "  \"trace\": {{\"path\": \"{}\", \"spans\": {}, \"valid\": {}}},\n",
                json_escape(trace_path),
                chk.spans,
                chk.ok()
            ));
        }
        // Per-figure cost records: wall time plus the simulated-event
        // count (host-independent work measure) and the core count, so
        // perf trajectories are comparable across machines.
        j.push_str("  \"figures\": [\n");
        for (i, (((name, _), wall), ev)) in
            secs.iter().zip(&walls).zip(&section_events).enumerate()
        {
            let comma = if i + 1 == secs.len() { "" } else { "," };
            j.push_str(&format!(
                "    {{\"name\": \"{}\", \"wall_ms\": {wall:.1}, \"events\": {ev}, \
                 \"host_cores\": {cores}}}{comma}\n",
                json_escape(name)
            ));
        }
        j.push_str("  ],\n");
        // Per-cell costs: next run seeds its LPT dispatch from these.
        // Recorded from the *last* run of each cell in this process (the
        // serial rerun overwrites — same cells, same costs modulo noise,
        // so dispatch quality is unaffected).
        j.push_str("  \"cells\": [\n");
        let cells = gbcr_metrics::cell_costs_snapshot();
        for (i, (key, c)) in cells.iter().enumerate() {
            let comma = if i + 1 == cells.len() { "" } else { "," };
            j.push_str(&format!(
                "    {{\"key\": \"{}\", \"wall_ms\": {:.1}, \"events\": {}",
                json_escape(key),
                c.wall_ms,
                c.events
            ));
            // Per-phase latency stats, present when the run was traced
            // (`--trace` sets the phase-level capture default).
            if let Some(phases) = gbcr_metrics::cell_phases(key) {
                j.push_str(", \"phases\": [");
                for (p, s) in phases.iter().enumerate() {
                    let pc = if p + 1 == phases.len() { "" } else { ", " };
                    j.push_str(&format!(
                        "{{\"name\": \"{}\", \"count\": {}, \"mean_ns\": {}, \
                         \"min_ns\": {}, \"max_ns\": {}, \"total_ns\": {}}}{pc}",
                        json_escape(&s.name),
                        s.count,
                        s.mean_ns(),
                        s.min_ns,
                        s.max_ns,
                        s.total_ns
                    ));
                }
                j.push(']');
            }
            j.push_str(&format!("}}{comma}\n"));
        }
        j.push_str("  ]\n}\n");
        std::fs::write(path, &j).expect("write json record");
        eprintln!("wrote {path}");
    }
}
