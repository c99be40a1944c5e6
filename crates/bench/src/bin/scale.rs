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

use gbcr_bench::scale;
use gbcr_des::time;
use gbcr_storage::GB;

struct Args {
    sizes: Vec<u32>,
    threads: Option<usize>,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut out = Args { sizes: scale::SIZES_FULL.to_vec(), threads: None, json: None };
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
            other => {
                eprintln!("unknown flag {other}");
                eprintln!("usage: scale [--smoke] [--sizes a,b,c] [--threads N] [--json PATH]");
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

    // One greppable line for scripts/tier1.sh and CI.
    let max_ranks = cells.iter().map(|c| c.ranks).max().unwrap_or(0);
    let peak = cells.iter().map(|c| c.peak_live_threads).max().unwrap_or(0);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ok = cells.iter().all(|c| c.eff_all > 0.0 && c.eff_group > 0.0 && c.reduction() > 0.0);
    println!(
        "scale check: max_ranks={max_ranks} peak_exec_threads={peak} \
         executor={} host_cores={cores} monotone_reduction={ok}",
        cells.last().map_or("none", |c| c.executor),
    );
}
