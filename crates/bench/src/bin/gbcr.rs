//! `gbcr` — the one command-line front end for the whole reproduction.
//!
//! Every figure section is an entry of [`gbcr_bench::figures::FIGURES`];
//! `fig`, `ablations`, `taxonomy` and `all` are lookups in that table, and
//! the rest call the `fig8`/`fig9`/`fig10`/`scale`/`trace` modules. See
//! [`USAGE`] for the subcommands.
//!
//! `run --trace` runs the checkpointed simulation with full span tracing,
//! writes the Chrome/Perfetto trace JSON to PATH (loadable in
//! `ui.perfetto.dev`), and prints the per-epoch phase breakdown plus the
//! per-phase latency table after the §5 metrics. Tracing only observes —
//! the metrics are byte-identical with and without it.
//!
//! Argument parsing is hand-rolled to keep the dependency set at the
//! workspace's approved crates; [`Args::parse`] is the only parser.
//!
//! A run fails one way: every subcommand returns its error (a
//! [`gbcr_des::SimError`], an output file that cannot be written, a trace
//! that fails validation) to `main`, which prints it on one line and exits
//! 1. A usage error exits 2 through [`fail`].

use gbcr_bench::figures::{self, Figure, Section, FIGURES};
use gbcr_bench::{fig10, fig8, fig9, scale, static_cfg, trace, Cell};
use gbcr_core::{CkptMode, CoordinatorCfg, Formation, JobSpec, StoreBackend};
use gbcr_des::trace::perfetto;
use gbcr_des::{time, TraceLevel};
use std::error::Error;
use std::str::FromStr;

const USAGE: &str = "\
gbcr — group-based coordinated checkpointing (ICPP'07 reproduction)

usage:
  gbcr fig <1|3|4|5|6|7|8|9|10> [--threads N]
                               regenerate one figure (5 includes 6)
      --json                     8, 9, 10: print the model-data JSON block
      --backend central|replicated   8: checkpoint-store backend
  gbcr ablations [--threads N] design-choice ablations (§2.1/§4.1/§4.3/§4.4/§8)
  gbcr taxonomy                all four §2.1 protocol categories in one table
  gbcr all [--threads N]       the paper evaluation (= bench_results.txt)
  gbcr scale [--smoke] [--sizes a,b,c] [--threads N] [--json PATH]
                               256 → 10 240-rank scale study
                               (--smoke: 256 and 1 024 ranks only)
  gbcr smoke [--trace PATH]    the six seeded golden lines tier-1 gates on
                               (--trace: also write the smoke's Perfetto trace)
  gbcr run [options]           one experiment with the §5 metrics
      --workload micro|placement|hpl|motifminer   workload (default micro)
      --group-size G                              checkpoint group size (default 4)
      --at SECONDS                                issuance time (default 30)
      --mode buffering|logging|cl|uncoordinated   consistency mode (default buffering)
      --formation static|dynamic                  group formation (default static)
      --incremental                               incremental images (default off)
      --trace PATH                                write a Perfetto trace of the
                                                  checkpointed run to PATH

--threads defaults to all available cores; no output depends on it.
exit status: 0 on success; 1 when a run fails (one 'gbcr: <error>' line
on stderr); 2 on a usage error.";

fn fail(msg: &str) -> ! {
    eprintln!("gbcr: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

/// What a subcommand ends with: `main` prints an error on one line and
/// exits 1.
type Outcome = Result<(), Box<dyn Error>>;

/// Write an output file; the error names the path.
fn write(path: &str, text: &str) -> Outcome {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}").into())
}

/// One subcommand's arguments, already checked against what it accepts.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parse `argv` for a subcommand taking exactly `positionals` bare
    /// arguments, the `valued` flags (each followed by its value) and the
    /// `switches`. Anything else — an unknown flag, a flag missing its
    /// value, a stray or missing argument — is a usage error (exit 2).
    fn parse(argv: &[String], positionals: usize, valued: &[&str], switches: &[&str]) -> Args {
        let mut out = Args { positional: Vec::new(), flags: Vec::new() };
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if valued.contains(&a.as_str()) {
                match it.next() {
                    Some(v) if !v.starts_with("--") => out.flags.push((a.clone(), Some(v.clone()))),
                    _ => fail(&format!("{a} needs a value")),
                }
            } else if switches.contains(&a.as_str()) {
                out.flags.push((a.clone(), None));
            } else if a.starts_with('-') {
                fail(&format!("unknown flag {a}"));
            } else if out.positional.len() < positionals {
                out.positional.push(a.clone());
            } else {
                fail(&format!("unexpected argument '{a}'"));
            }
        }
        if out.positional.len() < positionals {
            fail("missing argument");
        }
        out
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// The value of a valued flag (the last one, if repeated).
    fn value(&self, flag: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(f, _)| f == flag).and_then(|(_, v)| v.as_deref())
    }

    /// A numeric flag's value; a non-number is a usage error.
    fn num<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).map(|v| {
            v.parse().unwrap_or_else(|_| fail(&format!("{flag} needs a number, got '{v}'")))
        })
    }

    fn threads(&self) -> Option<usize> {
        self.num("--threads")
    }
}

/// Print one table entry the way its stand-alone regeneration reads:
/// the section, then the measured-vs-paper note.
fn print_figure(f: &Figure, threads: Option<usize>) -> Outcome {
    print!("{}", (f.render)(threads)?);
    if let Some(footer) = f.footer {
        println!("\n{}", footer());
    }
    Ok(())
}

fn cmd_fig(a: &Args) -> Outcome {
    let sel = a.positional[0].as_str();
    let threads = a.threads();
    let json = a.has("--json");
    let backend = a.value("--backend").map(|v| match v {
        "central" => StoreBackend::Central,
        "replicated" => StoreBackend::Replicated { replicas: 2 },
        _ => fail("--backend needs one of: central, replicated"),
    });
    if json && !matches!(sel, "8" | "9" | "10") {
        fail("--json applies to fig 8, 9 and 10");
    }
    if backend.is_some() && sel != "8" {
        fail("--backend applies to fig 8");
    }
    let (report, json_block) = match sel {
        "8" => {
            let sw = fig8::run(
                8,
                &fig8::INTERVALS_MS,
                &fig8::NODE_MTBFS_S,
                fig8::REPLICAS,
                threads,
                backend.unwrap_or_default(),
            )?;
            (fig8::report(&sw), fig8::json_block(&sw))
        }
        "9" => {
            let run = |plane| fig9::run(8, &fig9::COORD_MTBFS_S, fig9::REPLICAS, threads, plane);
            let (st, fo) = (run(fig9::Plane::Static)?, run(fig9::Plane::Failover)?);
            (fig9::report(&st, &fo), fig9::json_block(&st, &fo))
        }
        "10" => {
            let sw = fig10::run(&fig10::LOADS, threads)?;
            (fig10::report(&sw), fig10::json_block(&sw))
        }
        _ => {
            let f = figures::find(sel).unwrap_or_else(|| fail(&format!("no figure '{sel}'")));
            return print_figure(f, threads);
        }
    };
    if json {
        println!("{json_block}");
    } else {
        print!("{report}");
    }
    Ok(())
}

fn cmd_ablations(a: &Args) -> Outcome {
    for f in FIGURES.iter().filter(|f| f.section == Section::Ablation) {
        println!("{}", (f.render)(a.threads())?);
    }
    Ok(())
}

/// `bench_results.txt`, regenerated: a header naming the worker count,
/// then every evaluation entry in table order.
fn cmd_all(a: &Args) -> Outcome {
    let threads = gbcr_metrics::resolve_threads(a.threads());
    println!("=== gbcr: full evaluation reproduction ({threads} worker threads) ===\n");
    let t0 = std::time::Instant::now();
    for f in FIGURES.iter().filter(|f| f.in_evaluation()) {
        println!("{}", (f.render)(Some(threads))?);
    }
    eprintln!(
        "total wall time: {:.2}s on {threads} threads \
         ({} simulated events, {} progress wakes elided)",
        t0.elapsed().as_secs_f64(),
        gbcr_des::total_events_processed(),
        gbcr_des::total_wakes_elided()
    );
    Ok(())
}

/// The six seeded smokes, one golden line each (`scripts/tier1_smoke.golden`;
/// what each line pins is documented on the function that computes it),
/// then one with each smoke's dispatch fingerprint: the wrapping sum over
/// the simulations it ran. Fails if the exported trace fails validation.
fn cmd_smoke(a: &Args) -> Outcome {
    let (mut prints, mut since) = (String::new(), gbcr_des::total_fingerprint());
    let mut stamp = |name: &str| {
        let now = gbcr_des::total_fingerprint();
        prints += &format!(" {name}={:016x}", now.wrapping_sub(since));
        since = now;
    };
    let (attempts, failures) = fig8::smoke()?;
    stamp("fig8");
    println!("fig8 smoke: attempts={attempts} failures={failures}");
    let (attempts, failures, local, remote, writes, faster) = fig8::replicated_smoke()?;
    stamp("replicated");
    println!(
        "fig8 replicated smoke: attempts={attempts} failures={failures} local={local} \
         remote={remote} replica_writes={writes} faster_recovery={faster}"
    );
    let (aborts, retries, manifests, results_match) = fig8::abort_smoke()?;
    stamp("abort");
    println!(
        "fig8 abort smoke: aborts={aborts} retries={retries} manifests={manifests} \
         results_match={results_match}"
    );
    let (chk, json) = trace::smoke_check()?;
    if let Some(path) = a.value("--trace") {
        write(path, &json)?;
    }
    stamp("trace");
    println!(
        "fig8 trace smoke: spans={} phases_ok={} net_ok={} storage_ok={} nested={}",
        chk.spans, chk.phases_ok, chk.net_ok, chk.storage_ok, chk.nested
    );
    let (terms, migrations, supervisor_restarts, results_match) = fig9::smoke()?;
    stamp("fig9");
    println!(
        "fig9 smoke: terms={terms} migrations={migrations} \
         supervisor_restarts={supervisor_restarts} results_match={results_match}"
    );
    let (cw, gr) = fig10::smoke()?;
    stamp("fig10");
    println!(
        "fig10 smoke: tenants={} p99_clusterwide_ms={:.1} p99_group_ms={:.1} \
         goodput_clusterwide={:.3} goodput_group={:.3} peak_streams={}/{}",
        cw.tenants,
        cw.p99_epoch_ms,
        gr.p99_epoch_ms,
        cw.goodput_mean,
        gr.goodput_mean,
        cw.peak_streams,
        gr.peak_streams,
    );
    println!("smoke fingerprints:{prints}");
    if !chk.ok() {
        return Err("trace smoke failed validation".into());
    }
    Ok(())
}

/// The scale study: the paper's core claim is that group-based
/// checkpointing "alleviates the scalability limitation" of coordinated
/// checkpointing. Sweeps the job size at fixed per-process footprint and
/// fixed central storage, then checks the §3.1 Thunderbird estimate.
fn cmd_scale(a: &Args) -> Outcome {
    let sizes: Vec<u32> = match a.value("--sizes") {
        Some(spec) => spec
            .split(',')
            .map(|s| s.trim().parse().ok())
            .collect::<Option<Vec<u32>>>()
            .filter(|s| !s.is_empty())
            // The sweep's workload takes whole communication groups only.
            .filter(|s| s.iter().all(|&n| n > 0 && n % scale::workload(n).comm_group_size == 0))
            .unwrap_or_else(|| {
                fail("--sizes needs a comma-separated list of rank counts, each a multiple of 8")
            }),
        None if a.has("--smoke") => scale::SIZES_SMOKE.to_vec(),
        None => scale::SIZES_FULL.to_vec(),
    };
    let cells = scale::run(&sizes, a.threads())?;
    print!("{}", scale::table(&cells).render());
    println!();
    print!("{}", scale::cost_table(&cells).render());

    // §3.1's motivating estimate, on the Thunderbird-class storage model.
    let tb = gbcr_storage::StorageConfig::thunderbird();
    let t_est = tb.ideal_access_time(8960, gbcr_storage::GB);
    println!(
        "\n§3.1 estimate check: 8960 × 1 GB over {} GB/s ≈ {:.0} s (paper: 1493 s)",
        tb.aggregate_bw / gbcr_storage::GB as f64,
        time::as_secs_f64(t_est)
    );

    if let Some(path) = a.value("--json") {
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let j = format!("{{\n  \"scale\": {}\n}}\n", scale::json_block(&cells));
        write(path, &j)?;
        eprintln!("wrote {path}");
    }

    // One greppable line for scripts/tier1.sh and CI.
    let max_ranks = cells.iter().map(|c| c.ranks).max().unwrap_or(0);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ok = cells.iter().all(|c| c.eff_all > 0.0 && c.eff_group > 0.0 && c.reduction() > 0.0);
    println!("scale check: max_ranks={max_ranks} host_cores={cores} monotone_reduction={ok}");
    Ok(())
}

fn spec_for(workload: &str) -> (JobSpec, &'static str) {
    match workload {
        "micro" => (gbcr_workloads::MicroBench::default().job(), "micro"),
        "placement" => (gbcr_workloads::PlacementBench::default().job(), "placement"),
        "hpl" => (gbcr_workloads::HplWorkload::default().job(None), "hpl"),
        "motifminer" => (gbcr_workloads::MotifMinerWorkload::default().job(None), "motifminer"),
        other => fail(&format!("unknown workload '{other}'")),
    }
}

fn cmd_run(a: &Args) -> Outcome {
    let workload = a.value("--workload").unwrap_or("micro");
    let group_size: u32 = a.num("--group-size").unwrap_or(4);
    // A plan would clamp 0 to groups of one and report them as such.
    if group_size == 0 {
        fail("--group-size must be at least 1");
    }
    let at_secs: u64 = a.num("--at").unwrap_or(30);
    let at = at_secs
        .checked_mul(time::NANOS_PER_SEC)
        .unwrap_or_else(|| fail(&format!("--at {at_secs} s overflows the simulated clock")));
    let mode = match a.value("--mode").unwrap_or("buffering") {
        "buffering" => CkptMode::Buffering,
        "logging" => CkptMode::Logging,
        "cl" => CkptMode::ChandyLamport,
        "uncoordinated" => CkptMode::Uncoordinated,
        other => fail(&format!("unknown mode '{other}'")),
    };
    let formation = match a.value("--formation").unwrap_or("static") {
        "static" => Formation::Static { group_size },
        "dynamic" => Formation::Dynamic { fallback_group_size: group_size, max_group_size: 16 },
        other => fail(&format!("unknown formation '{other}'")),
    };
    let incremental = a.has("--incremental");
    let trace_path = a.value("--trace");

    let (spec, job) = spec_for(workload);
    eprintln!("running baseline ({workload}, {} ranks)…", spec.mpi.n);
    let base = spec.runner().run()?;
    eprintln!(
        "baseline completion: {:.1} s — running checkpointed…",
        time::as_secs_f64(base.completion)
    );
    let cfg = CoordinatorCfg { mode, formation, incremental, ..static_cfg(job, group_size, at) };
    let ck = match trace_path {
        Some(_) => spec.runner().ckpt(cfg).traced(TraceLevel::Full).run(),
        None => spec.runner().ckpt(cfg).run(),
    }?;
    let Some(ep) = ck.epochs.first() else {
        return Err(format!("checkpoint at {at_secs} s never ran (job finished first)").into());
    };

    println!("workload            : {workload} ({} ranks)", spec.mpi.n);
    println!("mode                : {mode:?}{}", if incremental { " + incremental" } else { "" });
    println!("groups              : {} (plan: {:?}…)", ep.plan.group_count(), ep.plan.members(0));
    println!("issuance            : {at_secs} s");
    println!("--- §5 metrics ---");
    let m = Cell::measure(&base, &ck);
    println!(
        "Individual (mean)   : {:.2} s  (min {:.2}, max {:.2})",
        m.individual, m.individual_min, m.individual_max,
    );
    println!("Total               : {:.2} s", m.total);
    println!("Effective           : {:.2} s", m.effective);
    println!("--- bookkeeping ---");
    println!(
        "deferred ops        : {} message-buffered ({} B), {} request-buffered ({} B avoided)",
        ck.defer_stats.msg_buffered,
        ck.defer_stats.msg_buffered_bytes,
        ck.defer_stats.req_buffered,
        ck.defer_stats.req_buffered_bytes,
    );
    println!(
        "logged bytes        : {} (logging) / {} (channel state)",
        ck.logged_bytes, ck.channel_logged_bytes
    );
    println!("connection teardowns: {}", ck.net_stats.teardowns);
    println!(
        "images on storage   : {}",
        ck.images.iter().filter(|(n, _)| n.starts_with("ckpt/")).count()
    );

    if let Some(path) = trace_path {
        let data = ck.trace.as_deref().expect("traced run records data");
        write(path, &perfetto::to_chrome_json(data))?;
        println!("--- trace ---");
        println!(
            "wrote {path}: {} spans, {} instants (load in ui.perfetto.dev)",
            data.spans.len(),
            data.instants.len()
        );
        print!("{}", trace::summary(data));
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else { fail("missing subcommand") };
    let outcome = match cmd.as_str() {
        "fig" => cmd_fig(&Args::parse(rest, 1, &["--threads", "--backend"], &["--json"])),
        "ablations" => cmd_ablations(&Args::parse(rest, 0, &["--threads"], &[])),
        "taxonomy" => {
            Args::parse(rest, 0, &[], &[]);
            print_figure(figures::find("taxonomy").expect("taxonomy is a table entry"), None)
        }
        "all" => cmd_all(&Args::parse(rest, 0, &["--threads"], &[])),
        "scale" => {
            cmd_scale(&Args::parse(rest, 0, &["--sizes", "--threads", "--json"], &["--smoke"]))
        }
        "smoke" => cmd_smoke(&Args::parse(rest, 0, &["--trace"], &[])),
        "run" => cmd_run(&Args::parse(
            rest,
            0,
            &["--workload", "--group-size", "--at", "--mode", "--formation", "--trace"],
            &["--incremental"],
        )),
        other => fail(&format!("unknown subcommand '{other}'")),
    };
    if let Err(e) = outcome {
        eprintln!("gbcr: {e}");
        std::process::exit(1);
    }
}
