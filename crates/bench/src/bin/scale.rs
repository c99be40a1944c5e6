//! Scalability study: the paper's core claim is that group-based
//! checkpointing "alleviates the scalability limitation" of coordinated
//! checkpointing. Sweep the job size at fixed per-process footprint and
//! fixed central storage: the regular protocol's effective delay grows
//! linearly with the rank count, while group-based delay tracks the
//! (constant) per-group write time as long as computation can overlap.
//!
//! The pooled coroutine executor lets the sweep reach the petascale-study
//! regime: the full run goes 256 → 1 024 → 4 096 → 10 240 ranks, every
//! rank a coroutine on the thread that drives its simulation. Also prints
//! the Thunderbird-scale estimate from §3.1. Flags:
//!
//! * `--smoke` — 256 and 1 024 ranks only (tier-1 wall budget).
//! * `--sizes a,b,c` — explicit rank counts.
//! * `--threads N` — sweep worker pool size (`GBCR_THREADS` default).
//! * `--json PATH` — write the `scale` telemetry block to PATH.
//! * `--sched` — rerun the sweep under the *other* event scheduler
//!   (parallel conservative-window vs serial; the parallel pass forces
//!   ≥2 shards), require the deterministic delay table byte-identical,
//!   and print per-backend wall time plus the serial-over-parallel
//!   speedup (recorded, not gated: whether sharding still pays now that
//!   the serial loop resumes ranks inline is ROADMAP item 2's call).

use gbcr_bench::scale;
use gbcr_des::{time, SchedKind};
use gbcr_storage::GB;

struct Args {
    sizes: Vec<u32>,
    threads: Option<usize>,
    json: Option<String>,
    sched: bool,
}

fn parse_args() -> Args {
    let mut out =
        Args { sizes: scale::SIZES_FULL.to_vec(), threads: None, json: None, sched: false };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => out.sizes = scale::SIZES_SMOKE.to_vec(),
            "--sizes" => {
                let spec = it.next().unwrap_or_default();
                let sizes: Option<Vec<u32>> =
                    spec.split(',').map(|s| s.trim().parse().ok()).collect();
                out.sizes = match sizes {
                    Some(s) if !s.is_empty() => s,
                    _ => {
                        eprintln!("--sizes needs a comma-separated list of rank counts");
                        std::process::exit(2);
                    }
                };
            }
            "--threads" => {
                out.threads = Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--threads needs a positive number");
                    std::process::exit(2);
                }));
            }
            "--json" => {
                out.json = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--json needs a path");
                    std::process::exit(2);
                }));
            }
            "--sched" => out.sched = true,
            other => {
                eprintln!("unknown flag {other}");
                eprintln!(
                    "usage: scale [--smoke] [--sizes a,b,c] [--threads N] [--json PATH] [--sched]"
                );
                std::process::exit(2);
            }
        }
    }
    out
}

fn main() {
    let args = parse_args();
    let cells = scale::run(&args.sizes, args.threads);
    print!("{}", scale::table(&cells).render());
    println!();
    print!("{}", scale::cost_table(&cells).render());

    // §3.1's motivating estimate, on the Thunderbird-class storage model.
    let tb = gbcr_storage::StorageConfig::thunderbird();
    let t_est = tb.ideal_access_time(8960, GB);
    println!(
        "\n§3.1 estimate check: 8960 × 1 GB over {} GB/s ≈ {:.0} s (paper: 1493 s)",
        tb.aggregate_bw / GB as f64,
        time::as_secs_f64(t_est)
    );

    if let Some(path) = &args.json {
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let j = format!("{{\n  \"scale\": {}\n}}\n", scale::json_block(&cells));
        std::fs::write(path, &j).expect("write scale json");
        eprintln!("wrote {path}");
    }

    // Scheduler A/B (`--sched`): the delay table is a model output, so it
    // must be byte-identical under both schedulers; the wall times show
    // what the conservative-window backend buys on this host.
    if args.sched {
        let main_kind = gbcr_des::sched_default();
        let other = match main_kind {
            SchedKind::Serial => SchedKind::Parallel,
            SchedKind::Parallel => SchedKind::Serial,
        };
        let shards = gbcr_des::shard_count_default().max(2);
        eprintln!("scale sched check: rerunning under the {} scheduler...", other.name());
        gbcr_des::set_sched_default(other);
        if other == SchedKind::Parallel {
            gbcr_des::set_shard_count_default(shards);
        }
        let cells2 = scale::run(&args.sizes, args.threads);
        gbcr_des::set_sched_default(main_kind);
        gbcr_des::set_shard_count_default(0);
        let identical = scale::table(&cells).render() == scale::table(&cells2).render();
        let wall = |cs: &[scale::ScaleCell]| cs.iter().map(|c| c.wall_ms).sum::<f64>();
        // Orient the speedup as serial-over-parallel regardless of which
        // backend the main run used.
        let (serial_ms, parallel_ms) = match main_kind {
            SchedKind::Serial => (wall(&cells), wall(&cells2)),
            SchedKind::Parallel => (wall(&cells2), wall(&cells)),
        };
        let speedup = serial_ms / parallel_ms;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        println!(
            "scale sched check: tables_identical={identical} serial_ms={serial_ms:.0} \
             parallel_ms={parallel_ms:.0} speedup={speedup:.2} host_cores={cores}"
        );
        if !identical {
            eprintln!("scale sched check FAILED: delay tables differ between schedulers");
            std::process::exit(1);
        }
    }

    // One greppable line for scripts/tier1.sh and CI.
    let max_ranks = cells.iter().map(|c| c.ranks).max().unwrap_or(0);
    let peak = cells.iter().map(|c| c.peak_live_threads).max().unwrap_or(0);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ok = cells.iter().all(|c| c.eff_all > 0.0 && c.eff_group > 0.0 && c.reduction() > 0.0);
    println!(
        "scale check: max_ranks={max_ranks} peak_exec_threads={peak} \
         executor={} sched={} host_cores={cores} monotone_reduction={ok}",
        cells.last().map_or("none", |c| c.executor),
        cells.last().map_or("none", |c| c.sched),
    );
}
