//! Regenerate Figure 8: availability under stochastic node failures,
//! checkpoint interval × MTBF, vs the Young/Daly closed forms.
//!
//! `--smoke` runs the seeded 4-rank kill/restart cell `scripts/tier1.sh`
//! gates on and prints only its golden `attempts=` line. `--abort-smoke`
//! runs the mid-protocol straggler cell (phase deadline trips, the epoch
//! aborts and retries, results stay byte-identical) and prints its golden
//! `aborts=` line. `--trace PATH` runs the traced 4-rank smoke, exports
//! its Chrome/Perfetto JSON to PATH, validates it (schema, span nesting,
//! phase coverage) and prints the golden `trace smoke:` verdict line.
//! `--threads N` controls the worker pool (the tables must not depend on
//! it).

use gbcr_bench::{fig8, trace};

fn main() {
    let mut threads = None;
    let mut smoke = false;
    let mut abort_smoke = false;
    let mut replicated_smoke = false;
    let mut backend = fig8::Backend::Central;
    let mut trace_path = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                threads = Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--threads needs a positive number");
                    std::process::exit(2);
                }));
            }
            "--smoke" => smoke = true,
            "--abort-smoke" => abort_smoke = true,
            "--replicated-smoke" => replicated_smoke = true,
            "--backend" => {
                backend = it
                    .next()
                    .as_deref()
                    .and_then(fig8::Backend::parse)
                    .unwrap_or_else(|| {
                        eprintln!("--backend needs one of: central, replicated");
                        std::process::exit(2);
                    });
            }
            "--trace" => {
                trace_path = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--trace needs an output path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!(
                    "unknown flag {other}\nusage: fig8 [--threads N] [--smoke] [--abort-smoke] \
                     [--replicated-smoke] [--backend central|replicated] [--trace PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = trace_path {
        let report = trace::trace_smoke();
        let data = report.trace.as_deref().expect("traced run records data");
        let json = trace::export(data, &path).expect("write trace file");
        let chk = trace::check_chrome_json(&json).expect("exported trace must parse");
        println!(
            "fig8 trace smoke: spans={} phases_ok={} net_ok={} storage_ok={} nested={}",
            chk.spans, chk.phases_ok, chk.net_ok, chk.storage_ok, chk.nested
        );
        std::process::exit(i32::from(!chk.ok()));
    }
    if smoke {
        let (attempts, failures) = fig8::smoke_on(backend);
        println!("fig8 smoke: attempts={attempts} failures={failures}");
        return;
    }
    if replicated_smoke {
        let (attempts, failures, local, remote, writes, faster) = fig8::replicated_smoke();
        println!(
            "fig8 replicated smoke: attempts={attempts} failures={failures} local={local} \
             remote={remote} replica_writes={writes} faster_recovery={faster}"
        );
        return;
    }
    if abort_smoke {
        let (aborts, retries, manifests, results_match) = fig8::abort_smoke();
        println!(
            "fig8 abort smoke: aborts={aborts} retries={retries} manifests={manifests} \
             results_match={results_match}"
        );
        return;
    }
    let sw = fig8::run_threaded(
        8,
        &fig8::INTERVALS_MS,
        &fig8::NODE_MTBFS_S,
        fig8::REPLICAS,
        threads,
        backend,
    );
    print!("{}", fig8::table(&sw).render());
    print!("\n{}", fig8::lost_work_table(&sw).render());
    print!("\n{}", fig8::optimal_table(&sw).render());
    println!(
        "\nbare completion {:.2}s; δ(one checkpoint) {:.2}s; fault seed {:#x}",
        sw.useful_secs, sw.delta_secs, sw.seed
    );
}
