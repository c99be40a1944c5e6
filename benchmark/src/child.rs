//! The measured process: one workload, one seed, pinned to one CPU before
//! any simulator code runs. Prints one JSON object on its last stdout line
//! for the parent to aggregate.

use crate::json::Json;
use crate::metrics::PER_LAYER;
use crate::spans::Spans;
use crate::workloads::{Ledger, Outcome, Pass, Workload};
use crate::{probes, sys};
use gbcr_des::TraceLevel;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// What the parent asks of a child.
pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    /// Keep running timed passes until this many seconds have been timed.
    pub seconds: f64,
    pub trace: bool,
    /// Pin to one CPU (off only for the unpinned informational run).
    pub pin: bool,
    /// Compare against `golden/seed<seed>.json` when it exists (off while
    /// blessing a new golden).
    pub golden: bool,
    /// Run only this job of the workload, once, and report its `run` time.
    pub only_job: Option<String>,
}

/// `MpiConfig::new`'s eager/rendezvous switch-over, bytes.
const EAGER_THRESHOLD: f64 = 16.0 * 1024.0;

/// Reference digests by job name, and where they came from.
struct Reference {
    digests: BTreeMap<String, u64>,
    source: &'static str,
}

fn load_golden(dir: &Path, workload: &str, seed: u64) -> Option<Reference> {
    let text = std::fs::read_to_string(dir.join(format!("golden/seed{seed}.json"))).ok()?;
    let golden = Json::parse(&text).unwrap_or_else(|e| panic!("golden/seed{seed}.json: {e}"));
    let digests = golden
        .get("workloads")
        .get(workload)
        .items()
        .iter()
        .filter_map(|op| {
            let digest =
                u64::from_str_radix(op.get("digest").as_str()?.trim_start_matches("0x"), 16);
            Some((op.get("name").as_str()?.to_owned(), digest.ok()?))
        })
        .collect();
    Some(Reference {
        digests,
        source: "golden",
    })
}

/// Failure messages of one pass against the reference: an operation fails
/// when it errored, left ranks unfinished, or its model digest differs.
pub fn failures(pass: &Pass, reference: &BTreeMap<String, u64>, source: &str) -> Vec<String> {
    pass.outcomes
        .iter()
        .filter_map(|o| match (&o.error, reference.get(&o.name)) {
            (Some(e), _) => Some(format!("{}: {e}", o.name)),
            (None, Some(want)) if *want != o.digest => Some(format!(
                "{}: model digest {:#018x} differs from {source} {want:#018x}",
                o.name, o.digest
            )),
            (None, None) => Some(format!("{}: no {source} digest for this operation", o.name)),
            _ => None,
        })
        .collect()
}

fn ops_json(outcomes: &[Outcome]) -> Json {
    Json::Arr(
        outcomes
            .iter()
            .map(|o| {
                let mut op = vec![
                    ("name", Json::Str(o.name.clone())),
                    ("digest", Json::Str(format!("{:#018x}", o.digest))),
                    ("completion_s", Json::Num(o.completion_s)),
                    ("run_s", Json::Num(o.run_s)),
                ];
                if let Some(e) = o.effective_s {
                    op.push(("effective_s", Json::Num(e)));
                }
                Json::obj(op)
            })
            .collect(),
    )
}

/// Median of the simulated durations recorded for one phase span, in ms.
fn phase_p50_ms(pass: &Pass, span: &str) -> f64 {
    let mut ns = pass.phase_ns.get(span).cloned().unwrap_or_default();
    ns.sort_unstable();
    ns.get(ns.len() / 2).map_or(0.0, |&v| v as f64 / 1e6)
}

/// The computed budget: counts × probe unit costs ÷ pass wall. A unit cost
/// is taken net of the engine events the operation contains (each charged
/// at the park/resume probe's cost), so the three shares do not overlap.
/// Park/resume is the dearest kind of event, so `des_share` is an upper
/// bound and `unexplained_share` can come out negative.
fn budget(l: &mut Ledger, costs: &probes::ProbeCosts, wall_s: f64) {
    let wall_ns = wall_s * 1e9;
    let park = l.get("des.probe.park_resume_ns");
    let net_of_des = |op: probes::OpCost| (op.ns - op.events * park).max(0.0);
    let des = l.get("des.events") * park / wall_ns;
    // A rendezvous send is two small control messages and the payload, so
    // its mean wire message is a third of a payload above the threshold.
    let rendezvous = l.get("net.bytes") / l.get("net.messages") > EAGER_THRESHOLD / 3.0;
    let message = if rendezvous {
        costs.rendezvous_message
    } else {
        costs.eager_message
    };
    let mpi_net = l.get("net.messages") * net_of_des(message) / wall_ns;
    // The storm depth picks the probe: re-sharing cost grows with streams.
    let deep = l.get("storage.peak_streams") >= 256.0;
    let transfer = if deep {
        costs.transfer_of_1024
    } else {
        costs.transfer_of_64
    };
    let storage = l.get("storage.transfers") * net_of_des(transfer) / wall_ns;
    l.set("budget.des_share", des);
    l.set("budget.mpi_net_share", mpi_net);
    l.set("budget.storage_share", storage);
    l.set("budget.unexplained_share", 1.0 - des - mpi_net - storage);
}

pub fn main(dir: &Path, args: &ChildArgs) -> Json {
    let started = Instant::now();
    // Before the first gbcr_* call: the coroutine pool sizes itself from
    // available_parallelism() the first time a simulation spawns.
    let pinned_cpu = if args.pin {
        sys::pin_to_one_cpu()
    } else {
        None
    };

    let mut spans = Spans::new();
    let root = spans.open(0, format!("workload:{}", args.workload));
    let mut w = Workload::prepare(&args.workload, args.seed)
        .unwrap_or_else(|| panic!("unknown workload '{}'", args.workload));
    if let Some(only) = &args.only_job {
        w.jobs.retain(|j| j.name() == *only);
        assert_eq!(w.jobs.len(), 1, "'{only}' is not a job of {}", w.name);
        let pass = w.pass(None, &mut spans, root.id(), "pass:only");
        return Json::obj([("run_s", Json::Num(pass.outcomes[0].run_s))]);
    }
    let golden = args
        .golden
        .then(|| load_golden(dir, w.name, w.seed))
        .flatten();

    let warm = w.pass(None, &mut spans, root.id(), "pass:warm-up");
    // Without a committed golden for this seed the warm-up pass is the
    // reference: the same seed must give the same model outputs again.
    let reference = golden.unwrap_or_else(|| Reference {
        digests: warm
            .outcomes
            .iter()
            .map(|o| (o.name.clone(), o.digest))
            .collect(),
        source: "warm-up pass",
    });
    let setup_s = started.elapsed().as_secs_f64();

    let mut attempted = warm.outcomes.len();
    let mut failed = failures(&warm, &reference.digests, reference.source);
    let mut check = |pass: &Pass| {
        attempted += pass.outcomes.len();
        failed.extend(failures(pass, &reference.digests, reference.source));
    };

    let mut walls = Vec::new();
    let mut per_layer = None;
    // Read after the first timed pass, not at exit: the simulator keeps some
    // memory of every simulation it has run (about 10 MB per `fault_recovery`
    // pass), so a reading at exit would depend on how many passes happened
    // to fit into `seconds`.
    let mut peak_rss_mb = None;
    if args.trace {
        let plain = w.pass(None, &mut spans, root.id(), "pass:timed");
        check(&plain);
        peak_rss_mb = Some(sys::peak_rss_mb());
        let traced = w.pass(
            Some(TraceLevel::Phases),
            &mut spans,
            root.id(),
            "pass:traced",
        );
        check(&traced);
        walls.push(plain.wall_s);

        let mut l = plain.ledger.clone();
        l.set("trace.spans", traced.ledger.get("trace.spans"));
        l.set("trace.overhead_ratio", traced.wall_s / plain.wall_s);
        for (span, metric) in [
            ("phase.begin", "sim.phase.begin_ms"),
            ("phase.group_start", "sim.phase.group_start_ms"),
            ("phase.checkpoint", "sim.phase.checkpoint_ms"),
            ("phase.group_done", "sim.phase.group_done_ms"),
            ("phase.end", "sim.phase.end_ms"),
        ] {
            l.set(metric, phase_p50_ms(&traced, span));
        }
        if w.name == "scale_1024" {
            // Jobs 0 and 1 are g=8 at 256 and 1 024 ranks.
            let per_rank = |i: usize, n: f64| plain.outcomes[i].events as f64 / n;
            let (e256, e1024) = (per_rank(0, 256.0), per_rank(1, 1024.0));
            l.set("des.events_per_rank_256", e256);
            l.set("des.events_per_rank_1024", e1024);
            l.set("des.event_growth_exp", (e1024 / e256).ln() / 4f64.ln());
        }
        let costs = probes::run(&mut l);
        budget(&mut l, &costs, plain.wall_s);
        per_layer = Some(l);
    } else {
        // At least one timed pass, however short `seconds` is.
        let timing = Instant::now();
        loop {
            let pass = w.pass(None, &mut spans, root.id(), "pass:timed");
            check(&pass);
            walls.push(pass.wall_s);
            peak_rss_mb.get_or_insert_with(sys::peak_rss_mb);
            if timing.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
        }
    }
    spans.close(root, Vec::new());

    let mut out = vec![
        ("workload", Json::Str(w.name.into())),
        ("seed", Json::Num(w.seed as f64)),
        (
            "pinned_cpu",
            pinned_cpu.map_or(Json::Null, |c| Json::Num(f64::from(c))),
        ),
        ("pool_threads", Json::Num(gbcr_des::pool_threads() as f64)),
        (
            "executor",
            Json::Str(gbcr_des::executor_default().name().into()),
        ),
        (
            "scheduler",
            Json::Str(gbcr_des::sched_default().name().into()),
        ),
        ("reference", Json::Str(reference.source.into())),
        ("setup_s", Json::Num(setup_s)),
        (
            "pass_wall_s",
            Json::Arr(walls.into_iter().map(Json::Num).collect()),
        ),
        (
            "peak_rss_mb",
            Json::Num(peak_rss_mb.expect("a timed pass ran")),
        ),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed.len() as f64)),
        (
            "failures",
            Json::Arr(failed.into_iter().map(Json::Str).collect()),
        ),
        ("ops", ops_json(&warm.outcomes)),
    ];
    if let Some(l) = per_layer {
        let cells = PER_LAYER
            .iter()
            .map(|&(name, _)| (name, Json::Num(l.get(name))));
        out.push(("per_layer", Json::obj(cells)));
        out.push((
            "spans",
            Json::Arr(spans.done.iter().map(|s| s.to_json()).collect()),
        ));
    }
    Json::obj(out)
}
