//! `gbcr-benchmark` — the repo's host-time benchmark (see README.md).
//!
//! ```text
//! run.sh [--seed N] [--out PATH]                      all five workloads
//! run.sh --workload W --seed N --seconds S --trace T  one workload, one JSON line
//! run.sh --compare A.json B.json                      judge B against A
//! run.sh --bless [--seed N]                           rewrite golden/seedN.json
//! ```
//!
//! The parent process only orchestrates: every measurement is taken in a
//! child process of this same binary, pinned to one CPU, with every
//! `GBCR_*` variable removed from its environment.

mod child;
mod compare;
mod json;
mod metrics;
mod probes;
mod spans;
mod sys;
mod workloads;

use json::Json;
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use spans::Spans;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Children per untraced measurement: set-up (and with it `setup_s` and
/// `peak_rss_mb`) is sampled once per child, so several children give the
/// two a median instead of one reading.
const CHILDREN: usize = 3;
/// Timed seconds per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 6.0;
/// The job the unpinned informational run repeats.
const UNPINNED_JOB: &str = "micro/g8";

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh [--seed N] [--out PATH] [--seconds S]\n\
         \u{20}      run.sh --workload NAME --seed N --seconds S --trace 0|1\n\
         \u{20}      run.sh --compare A.json B.json\n\
         \u{20}      run.sh --bless [--seed N]\n\
         workloads: {}",
        WORKLOADS.join(" ")
    );
    ExitCode::from(2)
}

/// `--name value` anywhere in `args`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a valid value")),
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Spawns children and gathers the benchmark's own spans.
struct Parent {
    spans: Spans,
    run_span: Option<spans::Open>,
    child_spans: Vec<Json>,
    next_span_base: u64,
}

impl Parent {
    fn new() -> Self {
        let mut spans = Spans::new();
        let run_span = Some(spans.open(0, "run"));
        // Child span ids are remapped above the parent's own small range.
        Parent {
            spans,
            run_span,
            child_spans: Vec::new(),
            next_span_base: 1 << 20,
        }
    }

    /// Run one child to completion and parse its result line.
    fn child(&mut self, args: &[String]) -> Result<Json, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("--child")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        // Measure the program as shipped: no GBCR_* switch reaches it.
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("GBCR_") {
                cmd.env_remove(key);
            }
        }
        let run_id = self.run_span.as_ref().map_or(0, spans::Open::id);
        let span = self.spans.open(run_id, format!("child {}", args.join(" ")));
        let (child_id, started_us) = (span.id(), self.spans.now_us());
        let output = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
        self.spans.close(span, Vec::new());
        if !output.status.success() {
            return Err(format!("child {args:?} exited with {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let result = Json::parse(stdout.lines().last().unwrap_or(""))
            .map_err(|e| format!("child {args:?} printed no result: {e}"))?;
        // Adopt the child's spans: shift its ids and clock into ours.
        let base = self.next_span_base;
        self.next_span_base += 1 << 20;
        for s in result.get("spans").items() {
            let num = |k: &str| s.get(k).as_f64().unwrap_or(0.0);
            let parent = if num("parent") == 0.0 {
                child_id as f64
            } else {
                num("parent") + base as f64
            };
            self.child_spans.push(Json::obj([
                ("id", Json::Num(num("id") + base as f64)),
                ("parent", Json::Num(parent)),
                ("name", s.get("name").clone()),
                ("start_us", Json::Num(num("start_us") + started_us)),
                ("end_us", Json::Num(num("end_us") + started_us)),
                ("args", s.get("args").clone()),
            ]));
        }
        Ok(result)
    }

    /// Write every span gathered so far to `out/trace.json`.
    fn write_trace(&mut self) -> Result<(), String> {
        if let Some(run) = self.run_span.take() {
            self.spans.close(run, Vec::new());
        }
        let all: Vec<Json> = self
            .spans
            .done
            .iter()
            .map(|s| s.to_json())
            .chain(self.child_spans.drain(..))
            .collect();
        let path = bench_dir().join("out/trace.json");
        write_file(
            &path,
            &Json::obj([("unit", Json::Str("us".into())), ("spans", Json::Arr(all))]).pretty(),
        )
    }

    /// Measure one workload. Untraced: the end-to-end metrics, from
    /// [`CHILDREN`] children that each set up and then time passes for
    /// their share of `seconds`. Traced: the per-layer ledger from one
    /// child.
    fn measure(
        &mut self,
        workload: &str,
        seed: u64,
        seconds: f64,
        trace: bool,
    ) -> Result<Json, String> {
        let base = |extra: &[&str]| child_args(workload, seed, extra);
        let share = (seconds / CHILDREN as f64).to_string();
        let children: Vec<Json> = if trace {
            vec![self.child(&base(&["--trace", "1"]))?]
        } else {
            (0..CHILDREN)
                .map(|_| self.child(&base(&["--trace", "0", "--seconds", &share])))
                .collect::<Result<_, _>>()?
        };

        let sum = |k: &str| {
            children
                .iter()
                .filter_map(|c| c.get(k).as_f64())
                .sum::<f64>()
        };
        let failures: Vec<Json> = children
            .iter()
            .flat_map(|c| c.get("failures").items().to_vec())
            .collect();
        let first = &children[0];
        let pinned = children
            .iter()
            .all(|c| c.get("pinned_cpu").as_f64().is_some());
        if !pinned {
            eprintln!(
                "WARNING: could not pin {workload} to one CPU; host times below are NOT \
                 comparable with pinned runs (cross-thread handoffs inflate them 1-9x)"
            );
        }
        let mut out = vec![
            ("attempted", Json::Num(sum("attempted"))),
            ("failed", Json::Num(sum("failed"))),
            ("failures", Json::Arr(failures)),
            ("reference", first.get("reference").clone()),
            ("ops", first.get("ops").clone()),
            (
                "host",
                Json::obj([
                    ("pinned", Json::Bool(pinned)),
                    ("pinned_cpu", first.get("pinned_cpu").clone()),
                    ("pool_threads", first.get("pool_threads").clone()),
                    ("executor", first.get("executor").clone()),
                    ("scheduler", first.get("scheduler").clone()),
                ]),
            ),
        ];
        if trace {
            let mut unpinned_ratio = 0.0;
            if workload == "p2p_sweep" {
                // The same single job, cold, in a pinned and an unpinned
                // child: what users who do not pin pay for the handoff.
                let mut run_s = |pin: &str| -> Result<f64, String> {
                    let only = self.child(&base(&["--only-job", UNPINNED_JOB, "--pin", pin]))?;
                    Ok(only.get("run_s").as_f64().unwrap_or(f64::NAN))
                };
                let pinned_s = run_s("1")?;
                unpinned_ratio = run_s("0")? / pinned_s;
            }
            let cells = PER_LAYER.iter().map(|&(name, unit)| {
                let v = match name {
                    "des.unpinned_wall_ratio" => unpinned_ratio,
                    _ => first
                        .get("per_layer")
                        .get(name)
                        .as_f64()
                        .unwrap_or(f64::NAN),
                };
                (name, Json::metric(v, unit))
            });
            out.push(("per_layer", Json::obj(cells)));
        } else {
            let samples = |name: &str| -> Vec<f64> {
                match name {
                    "wall_s" => children
                        .iter()
                        .flat_map(|c| c.get("pass_wall_s").f64s())
                        .collect(),
                    other => children
                        .iter()
                        .filter_map(|c| c.get(other).as_f64())
                        .collect(),
                }
            };
            let cells = END_TO_END.iter().map(|&(name, unit)| {
                let s = samples(name);
                let mut cell = Json::metric(median(&s), unit);
                if let Json::Obj(m) = &mut cell {
                    m.insert(
                        "samples".into(),
                        Json::Arr(s.into_iter().map(Json::Num).collect()),
                    );
                }
                (name, cell)
            });
            out.push(("end_to_end", Json::obj(cells)));
        }
        Ok(Json::obj(out))
    }
}

/// Arguments every child takes, followed by `extra`.
fn child_args(workload: &str, seed: u64, extra: &[&str]) -> Vec<String> {
    let seed = seed.to_string();
    ["--workload", workload, "--seed", &seed]
        .iter()
        .chain(extra)
        .map(|s| (*s).to_owned())
        .collect()
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `{"value": v, "unit": u}` cells of `section`, without the samples.
fn bare_metrics(result: &Json, section: &str) -> Json {
    Json::obj(result.get(section).members().map(|(name, cell)| {
        let value = cell.get("value").as_f64().unwrap_or(f64::NAN);
        (
            name.clone(),
            Json::metric(value, cell.get("unit").as_str().unwrap_or("")),
        )
    }))
}

fn print_failures(workload: &str, result: &Json) {
    for f in result.get("failures").items() {
        eprintln!("FAILED {workload}: {}", f.as_str().unwrap_or("?"));
    }
}

/// One workload, one mode, one JSON line: the shape a harness drives.
fn single(args: &[String], workload: &str) -> Result<ExitCode, String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seed = flag(args, "--seed")?.unwrap_or(1u64);
    let seconds = flag(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let trace = flag::<u8>(args, "--trace")?.unwrap_or(0) != 0;
    let mut parent = Parent::new();
    let result = parent.measure(workload, seed, seconds, trace)?;
    if trace {
        parent.write_trace()?;
    }
    print_failures(workload, &result);
    let count = |k: &str| result.get(k).as_f64().unwrap_or(0.0);
    let line = Json::obj([
        ("correct", Json::Bool(count("failed") == 0.0)),
        ("attempted", Json::Num(count("attempted"))),
        ("failed", Json::Num(count("failed"))),
        (
            "metrics",
            bare_metrics(&result, if trace { "per_layer" } else { "end_to_end" }),
        ),
    ]);
    println!("{}", line.render());
    Ok(ExitCode::SUCCESS)
}

/// Every workload, untraced then traced; prints every metric by name with
/// its unit and optionally writes the result file `--compare` reads.
fn full(args: &[String]) -> Result<ExitCode, String> {
    let seed = flag(args, "--seed")?.unwrap_or(1u64);
    let seconds = flag(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let out: Option<PathBuf> = flag(args, "--out")?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut parent = Parent::new();
    let mut results = Vec::new();
    let mut failed_total = 0.0;
    for w in WORKLOADS {
        eprintln!("[{w}] end-to-end (tracing off) ...");
        let e2e = parent.measure(w, seed, seconds, false)?;
        eprintln!("[{w}] per-layer (traced pass + probes) ...");
        let layers = parent.measure(w, seed, seconds, true)?;
        print_failures(w, &e2e);
        print_failures(w, &layers);

        let host = e2e.get("host");
        println!(
            "== {w}  seed {seed}  reference: {}  pinned_cpu {}  nproc {nproc}  pool_threads {}  {} executor, {} scheduler",
            e2e.get("reference").as_str().unwrap_or("?"),
            host.get("pinned_cpu").render(),
            host.get("pool_threads").render(),
            host.get("executor").as_str().unwrap_or("?"),
            host.get("scheduler").as_str().unwrap_or("?"),
        );
        let attempted = e2e.get("attempted").as_f64().unwrap_or(0.0)
            + layers.get("attempted").as_f64().unwrap_or(0.0);
        let failed = e2e.get("failed").as_f64().unwrap_or(0.0)
            + layers.get("failed").as_f64().unwrap_or(0.0);
        failed_total += failed;
        for (name, cell) in e2e.get("end_to_end").members() {
            println!(
                "{name:<28} {:>16.6} {:<8} median of {} samples",
                cell.get("value").as_f64().unwrap_or(f64::NAN),
                cell.get("unit").as_str().unwrap_or(""),
                cell.get("samples").items().len(),
            );
        }
        println!(
            "{:<28} {:>16.6} {:<8} {failed} of {attempted} operations failed",
            "failed_share",
            failed / attempted,
            "share"
        );
        for op in e2e.get("ops").items() {
            let secs = |k: &str| {
                op.get(k)
                    .as_f64()
                    .map(|v| format!("  {k} {v:.1}"))
                    .unwrap_or_default()
            };
            println!(
                "  op {:<28} digest {}{}{}",
                op.get("name").as_str().unwrap_or("?"),
                op.get("digest").as_str().unwrap_or("?"),
                secs("completion_s"),
                secs("effective_s"),
            );
        }
        for &(name, unit) in &PER_LAYER {
            let v = layers
                .get("per_layer")
                .get(name)
                .get("value")
                .as_f64()
                .unwrap_or(f64::NAN);
            let label = if name.starts_with("budget.") {
                "(computed)"
            } else {
                ""
            };
            println!("{name:<28} {v:>16.6} {unit:<8} {label}");
        }
        results.push((
            w,
            Json::obj([
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("failed_share", Json::Num(failed / attempted)),
                ("reference", e2e.get("reference").clone()),
                ("host", host.clone()),
                ("end_to_end", e2e.get("end_to_end").clone()),
                ("per_layer", layers.get("per_layer").clone()),
                ("ops", e2e.get("ops").clone()),
            ]),
        ));
    }
    parent.write_trace()?;
    if let Some(path) = out {
        let doc = Json::obj([
            ("schema", Json::Str("gbcr-benchmark/1".into())),
            ("seed", Json::Num(seed as f64)),
            ("nproc", Json::Num(nproc as f64)),
            ("workloads", Json::obj(results)),
        ]);
        write_file(&path, &doc.pretty())?;
        eprintln!("wrote {}", path.display());
    }
    Ok(if failed_total == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Record the current model outputs of `--seed` as its golden.
fn bless(args: &[String]) -> Result<ExitCode, String> {
    let seed = flag(args, "--seed")?.unwrap_or(1u64);
    let mut parent = Parent::new();
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        eprintln!("[{w}] recording model digests ...");
        // With the golden ignored the child checks each pass against its
        // warm-up pass: the outputs recorded must at least repeat.
        let r = parent.child(&child_args(w, seed, &["--golden", "0"]))?;
        print_failures(w, &r);
        if r.get("failed").as_f64() != Some(0.0) {
            return Err(format!(
                "{w}: refusing to bless a run with failed operations"
            ));
        }
        // Host times have no place in a golden.
        let ops = r.get("ops").items().iter().map(|op| {
            Json::obj(
                op.members()
                    .filter(|(k, _)| *k != "run_s")
                    .map(|(k, v)| (k.clone(), v.clone())),
            )
        });
        workloads.push((w, Json::Arr(ops.collect())));
    }
    let doc = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = bench_dir().join(format!("golden/seed{seed}.json"));
    write_file(&path, &doc.pretty())?;
    eprintln!("wrote {}", path.display());
    Ok(ExitCode::SUCCESS)
}

fn child_main(args: &[String]) -> Result<ExitCode, String> {
    let cargs = child::ChildArgs {
        workload: flag(args, "--workload")?.ok_or("--workload is required")?,
        seed: flag(args, "--seed")?.unwrap_or(1),
        seconds: flag(args, "--seconds")?.unwrap_or(0.0),
        trace: flag::<u8>(args, "--trace")?.unwrap_or(0) != 0,
        pin: flag::<u8>(args, "--pin")?.unwrap_or(1) != 0,
        golden: flag::<u8>(args, "--golden")?.unwrap_or(1) != 0,
        only_job: flag(args, "--only-job")?,
    };
    println!("{}", child::main(bench_dir(), &cargs).render());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |name: &str| args.iter().any(|a| a == name);
    let result = if has("--help") || has("-h") {
        return usage();
    } else if has("--child") {
        child_main(&args)
    } else if let Some(i) = args.iter().position(|a| a == "--compare") {
        match (args.get(i + 1), args.get(i + 2)) {
            (Some(a), Some(b)) => compare::main(Path::new(a), Path::new(b)),
            _ => return usage(),
        }
    } else if has("--bless") {
        bless(&args)
    } else {
        match flag::<String>(&args, "--workload") {
            Ok(Some(w)) => single(&args, &w),
            Ok(None) => full(&args),
            Err(e) => Err(e),
        }
    };
    result.unwrap_or_else(|e| {
        eprintln!("gbcr-benchmark: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use std::collections::BTreeMap;

    fn benchmark_json() -> Json {
        let text =
            std::fs::read_to_string(bench_dir().join("../BENCHMARK.json")).expect("BENCHMARK.json");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(list: &Json) -> Vec<(String, String)> {
        let field = |e: &Json, k: &str| e.get(k).as_str().unwrap_or("").to_owned();
        list.items()
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    /// The printed metric and workload sets are exactly what
    /// `BENCHMARK.json` declares, and every name is harness-safe.
    #[test]
    fn names_match_benchmark_json() {
        let b = benchmark_json();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names(b.get("end_to_end")), own(&END_TO_END));
        assert_eq!(names(b.get("per_layer")), own(&PER_LAYER));
        let declared: Vec<String> = names(b.get("workloads"))
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(declared, WORKLOADS);
        let safe = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(safe(name), "{name}");
        }
        assert!(WORKLOADS.iter().all(|w| safe(w)));
        for m in b.get("end_to_end").items() {
            let name = m.get("name").as_str().expect("name");
            assert_eq!(
                m.get("bound").as_f64(),
                Some(metrics::bound(name)),
                "{name}"
            );
            assert_eq!(m.get("better").as_str(), Some("lower"), "{name}");
        }
        assert!(b
            .get("end_to_end")
            .items()
            .iter()
            .any(|m| m.get("name").as_str() == Some("setup_s")));
    }

    fn golden_p2p() -> BTreeMap<String, (u64, Option<f64>)> {
        let text = std::fs::read_to_string(bench_dir().join("golden/seed1.json")).expect("golden");
        let golden = Json::parse(&text).expect("golden parses");
        golden
            .get("workloads")
            .get("p2p_sweep")
            .items()
            .iter()
            .map(|op| {
                let hex = op
                    .get("digest")
                    .as_str()
                    .expect("digest")
                    .trim_start_matches("0x");
                (
                    op.get("name").as_str().expect("name").to_owned(),
                    (
                        u64::from_str_radix(hex, 16).expect("hex digest"),
                        op.get("effective_s").as_f64(),
                    ),
                )
            })
            .collect()
    }

    /// The golden's `p2p_sweep` rows are the committed Fig. 3
    /// comm-group-8 column of `bench_results.txt`.
    #[test]
    fn golden_reproduces_fig3_comm_group_8() {
        let golden = golden_p2p();
        for (g, want) in [
            (32, "43.9"),
            (16, "21.4"),
            (8, "10.7"),
            (4, "10.9"),
            (2, "11.3"),
            (1, "14.6"),
        ] {
            let (_, eff) = golden[&format!("micro/g{g}")];
            assert_eq!(format!("{:.1}", eff.expect("effective_s")), want, "g={g}");
        }
    }

    /// The correctness gate has teeth: slowing the storage model from 140
    /// to 130 MB/s leaves every run healthy but changes the simulated
    /// results, so operations count as failed.
    #[test]
    fn perturbed_model_fails_the_gate() {
        let reference: BTreeMap<String, u64> = golden_p2p()
            .into_iter()
            .map(|(name, (digest, _))| (name, digest))
            .collect();
        let mut w = Workload::prepare("p2p_sweep", 1).expect("workload");
        // Baseline, All(32) and g=8 are enough to show both outcomes.
        w.jobs
            .retain(|j| ["micro/baseline", "micro/g32", "micro/g8"].contains(&j.name().as_str()));
        let mut spans = Spans::new();
        let healthy = w.pass(None, &mut spans, 0, "pass");
        assert_eq!(
            child::failures(&healthy, &reference, "golden"),
            Vec::<String>::new()
        );

        w.perturb = Some(|spec| spec.storage.aggregate_bw = 130.0e6);
        let perturbed = w.pass(None, &mut spans, 0, "pass");
        let failed = child::failures(&perturbed, &reference, "golden");
        // The baseline never touches storage; both checkpointed runs do.
        assert_eq!(failed.len(), 2, "{failed:?}");
        assert!(failed.len() as f64 / perturbed.outcomes.len() as f64 > 0.0);
    }
}
