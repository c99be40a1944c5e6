//! Figure 8 (extension): availability under a stochastic fail-stop
//! process, sweeping checkpoint interval × per-node MTBF and comparing the
//! empirically best interval against the Young and Daly closed forms.
//!
//! Every cell is one supervised stochastic run
//! ([`gbcr_core::SupervisedRunner::stochastic`]): per-node
//! exponential failure clocks kill a rank, the launcher aborts the
//! survivors after the detection latency, and the supervisor restarts from
//! the last complete epoch with backoff until the job finishes. All
//! randomness comes from `gbcr-faults` streams keyed by the cell seed, so
//! the whole sweep is byte-reproducible across runs and worker counts.

use crate::{json, Cell};
use gbcr_core::{
    CkptSchedule, CoordinatorCfg, JobSpec, PhaseDeadlines, RunReport, StoreBackend,
    SupervisePolicy, SupervisedReport,
};
use gbcr_des::{time, SimError, Time};
use gbcr_faults::{
    rng::mix64, FaultConfig, PhaseAction, PhaseFault, ProtocolPhase, StochasticFaults,
};
use gbcr_metrics::{
    account_replicas, daly_interval, run_cells, AdvisorInputs, FaultAccounting, RecoveryCounters,
    Table,
};
use gbcr_workloads::{random::ResultsSink, RandomTraffic};

/// Seed every cell's fault streams are derived from.
pub const SEED: u64 = 0xF1_68;

/// Checkpoint intervals swept (milliseconds).
pub const INTERVALS_MS: [u64; 4] = [1_000, 2_000, 4_000, 8_000];

/// Per-node MTBFs swept (seconds). Cluster MTBF is `mtbf / n`.
pub const NODE_MTBFS_S: [u64; 3] = [30, 120, 480];

/// Replicated supervised runs per cell; replica seeds are shared across
/// interval rows (common random numbers), so columns compare like with
/// like and single-draw variance is averaged out.
pub const REPLICAS: usize = 5;

/// One measured cell of the interval × MTBF sweep.
#[derive(Debug, Clone)]
pub struct FaultCell {
    /// Checkpoint interval, seconds.
    pub interval_secs: f64,
    /// Per-node MTBF, seconds.
    pub node_mtbf_secs: f64,
    /// Aggregate accounting over the replicas that finished (mean wall,
    /// summed failures/attempts); `None` when every replica exhausted its
    /// retry budget.
    pub acct: Option<FaultAccounting>,
    /// Replicas run for this cell.
    pub replicas: usize,
    /// Replicas that gave up ([`gbcr_des::SimError::RetriesExhausted`]).
    pub gave_up: usize,
    /// Mean restart backoff across finishing replicas, seconds.
    pub backoff_secs: f64,
    /// Mean restart-storm latency (every rank's image read back plus state
    /// re-injection) over the attempts that restored from a checkpoint,
    /// seconds; 0 when no attempt restored. The backend comparison metric.
    pub recovery_s: f64,
    /// Recovery-protocol counters summed over the finishing replicas.
    pub counters: RecoveryCounters,
}

impl FaultCell {
    /// Mean attempts per finishing replica.
    pub fn mean_attempts(&self) -> f64 {
        match &self.acct {
            Some(a) => a.attempts as f64 / (self.replicas - self.gave_up) as f64,
            None => 0.0,
        }
    }
}

/// The full fault sweep for one workload.
#[derive(Debug, Clone)]
pub struct FaultSweep {
    /// World size.
    pub n: u32,
    /// Checkpoint-store backend the jobs wrote through.
    pub backend: StoreBackend,
    /// Base seed of the fault streams.
    pub seed: u64,
    /// Failure-free bare completion (the "useful" seconds of every cell).
    pub useful_secs: f64,
    /// Measured Effective Checkpoint Delay of one checkpoint, seconds (the
    /// δ fed to Young/Daly).
    pub delta_secs: f64,
    /// Swept intervals, seconds.
    pub intervals: Vec<f64>,
    /// Swept per-node MTBFs, seconds.
    pub mtbfs: Vec<f64>,
    /// Cells in `intervals × mtbfs` row-major order.
    pub cells: Vec<FaultCell>,
}

impl FaultSweep {
    /// The cell at (interval index, MTBF index).
    pub fn cell(&self, ii: usize, mi: usize) -> &FaultCell {
        &self.cells[ii * self.mtbfs.len() + mi]
    }

    /// The swept interval with the highest availability for one MTBF
    /// column (ties break toward the shorter interval).
    pub fn best_interval(&self, mi: usize) -> f64 {
        let mut best = (f64::NEG_INFINITY, 0.0);
        for ii in 0..self.intervals.len() {
            let c = self.cell(ii, mi);
            let a = c.acct.as_ref().map_or(f64::NEG_INFINITY, |a| a.availability);
            if a > best.0 {
                best = (a, c.interval_secs);
            }
        }
        best.1
    }
}

pub(crate) fn spec_for(n: u32) -> (gbcr_core::JobSpec, &'static str) {
    // Long enough (~12 s bare) that the supervisor's restart backoff does
    // not dominate the availability signal.
    let w = RandomTraffic { n, steps: 400, ..RandomTraffic::default() };
    (w.job(None), "random-traffic")
}

/// Two checkpoint groups, checkpoints at `at`.
pub(crate) fn cfg_for(job: &str, n: u32, at: Vec<Time>) -> CoordinatorCfg {
    CoordinatorCfg::new(job, (n / 2).max(1), CkptSchedule { at })
}

/// Periodic issuance points: `interval, 2·interval, …` strictly inside the
/// bare run (a point past completion would never fire).
pub(crate) fn periodic(interval: Time, horizon: Time) -> Vec<Time> {
    let mut at = Vec::new();
    let mut t = interval;
    while t < horizon {
        at.push(t);
        t += interval;
    }
    at
}

/// The supervised replicas of one fault-sweep cell, collapsed by
/// [`account_replicas`].
pub(crate) struct CellRuns {
    /// Accounting over the replicas that finished; `None` when none did.
    pub acct: Option<FaultAccounting>,
    /// Replicas that exhausted their retry budget.
    pub gave_up: usize,
    /// Recovery-protocol counters summed over the finishers.
    pub counters: RecoveryCounters,
    /// The replicas that finished, in replica order.
    pub finished: Vec<SupervisedReport>,
}

/// The fan-out under Figures 8 and 9: `replicas` supervised stochastic
/// runs of `spec` for every entry of `keys`, all `(cell, replica)` pairs
/// over the [`run_cells`] pool, then each cell's replicas collapsed
/// against the failure-free completion `useful`. `cell(key, replica)`
/// supplies what a figure varies — the checkpoint config and the fault
/// process; it must depend on nothing else, so the sweep is identical on 1
/// or N workers. A replica that exhausts its retries counts as gave-up;
/// any other error is a bug and panics naming the cell.
pub(crate) fn run_fault_cells<K: Sync + std::fmt::Debug>(
    spec: &JobSpec,
    useful: Time,
    keys: &[K],
    replicas: usize,
    threads: Option<usize>,
    cell: impl Fn(&K, u64) -> (CoordinatorCfg, StochasticFaults) + Sync,
) -> Vec<CellRuns> {
    assert!(replicas > 0);
    let mut runs = run_cells(keys.len() * replicas, threads, |k| {
        let (key, rep) = (&keys[k / replicas], (k % replicas) as u64);
        let (cfg, faults) = cell(key, rep);
        match spec.runner().ckpt(cfg).supervised(SupervisePolicy::default()).stochastic(&faults) {
            Ok(report) => Some(report),
            Err(SimError::RetriesExhausted { .. }) => None,
            Err(e) => panic!("fault sweep cell {key:?}, replica {rep} failed: {e}"),
        }
    })
    .into_iter();
    keys.iter()
        .map(|_| {
            let reps: Vec<_> = runs.by_ref().take(replicas).collect();
            let (acct, gave_up, counters) = account_replicas(&reps, useful, spec.mpi.n);
            CellRuns { acct, gave_up, counters, finished: reps.into_iter().flatten().collect() }
        })
        .collect()
}

/// Run with an explicit grid, replica count, worker-thread control and
/// checkpoint-store backend (the figure's grid is 8 ranks over
/// [`INTERVALS_MS`] × [`NODE_MTBFS_S`] with [`REPLICAS`]). Seeds depend
/// only on the grid values, so results are identical on 1 or N workers —
/// and the fault seeds ignore the backend, so backend sweeps face the
/// *same* failure processes.
pub fn run(
    n: u32,
    intervals_ms: &[u64],
    node_mtbfs_s: &[u64],
    replicas: usize,
    threads: Option<usize>,
    backend: StoreBackend,
) -> FaultSweep {
    let (mut spec, job) = spec_for(n);
    spec.backend = backend;
    let bare = spec.runner().run().expect("bare run");
    let useful = bare.completion;
    // δ for the closed forms: one checkpoint issued mid-run, measured
    // against the same bare run.
    let delayed = spec.runner().ckpt(cfg_for(job, n, vec![useful / 2])).run().expect("δ run");
    let delta = Cell::measure(&bare, &delayed).effective;

    let grid: Vec<(u64, u64)> = intervals_ms
        .iter()
        .flat_map(|&i| node_mtbfs_s.iter().map(move |&m| (i, m)))
        .collect();
    let runs = run_fault_cells(&spec, useful, &grid, replicas, threads, |&(ims, mtbf_s), rep| {
        // Common random numbers per (MTBF, replica): the seed ignores the
        // interval, so every interval row faces the *same* failure
        // processes and "best swept interval" compares like with like.
        let faults = StochasticFaults::kills(
            SEED ^ mix64(mtbf_s) ^ mix64(rep + 1),
            time::secs(mtbf_s),
        );
        (cfg_for(job, n, periodic(time::ms(ims), useful)), faults)
    });

    let mean = |sum: f64, count: usize| if count == 0 { 0.0 } else { sum / count as f64 };
    let cells = grid
        .iter()
        .zip(runs)
        .map(|(&(ims, mtbf_s), r)| {
            let backoff: f64 =
                r.finished.iter().map(|f| time::as_secs_f64(f.total_backoff)).sum();
            let (rsum, rcnt) = r
                .finished
                .iter()
                .flat_map(|f| f.attempts.iter())
                .filter(|a| a.restore_wall > 0)
                .fold((0.0, 0usize), |(s, c), a| {
                    (s + time::as_secs_f64(a.restore_wall), c + 1)
                });
            FaultCell {
                interval_secs: time::as_secs_f64(time::ms(ims)),
                node_mtbf_secs: mtbf_s as f64,
                acct: r.acct,
                replicas,
                gave_up: r.gave_up,
                backoff_secs: mean(backoff, r.finished.len()),
                recovery_s: mean(rsum, rcnt),
                counters: r.counters,
            }
        })
        .collect();

    FaultSweep {
        n,
        backend,
        seed: SEED,
        useful_secs: time::as_secs_f64(useful),
        delta_secs: delta,
        intervals: intervals_ms.iter().map(|&i| i as f64 / 1e3).collect(),
        mtbfs: node_mtbfs_s.iter().map(|&m| m as f64).collect(),
        cells,
    }
}

/// One `interval × MTBF` matrix of the sweep, `entry` rendering each cell.
fn grid_table(sw: &FaultSweep, title: String, entry: impl Fn(&FaultCell) -> String) -> Table {
    let mut header: Vec<String> = vec!["interval (s)".into()];
    header.extend(sw.mtbfs.iter().map(|m| format!("MTBF/node {m:.0}s")));
    let mut t = Table::new(title, &header);
    for (iv, cells) in sw.intervals.iter().zip(sw.cells.chunks(sw.mtbfs.len())) {
        let mut row = vec![format!("{iv:.1}")];
        row.extend(cells.iter().map(&entry));
        t.row(&row);
    }
    t
}

/// Availability matrix: `avail% (attempts)` per (interval × MTBF) cell.
pub fn table(sw: &FaultSweep) -> Table {
    let title = format!(
        "Figure 8 — availability under node failures, n={}{} (avail % / mean attempts)",
        sw.n,
        backend_suffix(sw),
    );
    grid_table(sw, title, |c| match &c.acct {
        Some(a) if c.gave_up > 0 => format!(
            "{:.1} / {:.1} ({} gave up)",
            a.availability * 100.0,
            c.mean_attempts(),
            c.gave_up
        ),
        Some(a) => format!("{:.1} / {:.1}", a.availability * 100.0, c.mean_attempts()),
        None => "gave up".into(),
    })
}

/// Lost-work matrix (node-seconds burned on overhead + recomputation +
/// restarts).
pub fn lost_work_table(sw: &FaultSweep) -> Table {
    let title = format!("Figure 8 — lost work, n={}{} (node-seconds)", sw.n, backend_suffix(sw));
    grid_table(sw, title, |c| match &c.acct {
        Some(a) => format!("{:.1}", a.lost_work),
        None => "gave up".into(),
    })
}

/// `", backend=<name>"` for non-default backends; empty for central, so
/// historical central-only outputs render byte-identically.
fn backend_suffix(sw: &FaultSweep) -> String {
    match sw.backend {
        StoreBackend::Central => String::new(),
        b => format!(", backend={}", b.name()),
    }
}

/// Per-MTBF closed-form comparison: Young and Daly `T_opt` from the
/// measured δ against the best swept interval.
pub fn optimal_table(sw: &FaultSweep) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 8 — optimal interval vs closed forms (δ = {:.2}s measured)",
            sw.delta_secs
        ),
        &[
            "MTBF/node (s)",
            "cluster MTBF (s)",
            "Young T_opt (s)",
            "Daly T_opt (s)",
            "best swept (s)",
        ],
    );
    for (mi, &m) in sw.mtbfs.iter().enumerate() {
        let cluster = m / f64::from(sw.n);
        let inputs = AdvisorInputs {
            effective_delay: sw.delta_secs,
            mtbf: cluster,
            restart_read: 0.0,
        };
        t.row(&[
            format!("{m:.0}"),
            format!("{cluster:.1}"),
            format!("{:.2}", gbcr_metrics::young_interval(inputs).interval),
            format!("{:.2}", daly_interval(inputs).interval),
            format!("{:.1}", sw.best_interval(mi)),
        ]);
    }
    t
}

/// Everything `gbcr fig 8` prints: the three tables and the run-parameter
/// trailer.
pub fn report(sw: &FaultSweep) -> String {
    format!(
        "{}\n{}\n{}\nbare completion {:.2}s; δ(one checkpoint) {:.2}s; fault seed {:#x}\n",
        table(sw).render(),
        lost_work_table(sw).render(),
        optimal_table(sw).render(),
        sw.useful_secs,
        sw.delta_secs,
        sw.seed
    )
}

/// The six control-plane keys a cell of Figure 8 and of Figure 9 both
/// end with.
pub(crate) fn election_pairs(c: &RecoveryCounters) -> [(&'static str, String); 6] {
    [
        ("coordinator_kills", c.coordinator_kills.to_string()),
        ("elections_held", c.elections_held.to_string()),
        ("terms", c.terms.to_string()),
        ("heartbeats_missed", c.heartbeats_missed.to_string()),
        ("leader_migrations", c.leader_migrations.to_string()),
        ("time_to_new_leader_s", format!("{:.3}", time::as_secs_f64(c.time_to_new_leader))),
    ]
}

/// One entry of `cells[]`. A new per-cell key is one pair here (and one
/// line in the EXPERIMENTS.md schema paragraph); a cell whose every
/// replica gave up prints its coordinates and fate only.
fn cell_json(c: &FaultCell) -> String {
    let id = [
        ("interval_s", format!("{:.1}", c.interval_secs)),
        ("node_mtbf_s", format!("{:.0}", c.node_mtbf_secs)),
    ];
    let fate = [("replicas", c.replicas.to_string()), ("gave_up", c.gave_up.to_string())];
    let Some(a) = &c.acct else { return json::row(&[id, fate].concat()) };
    let accounting = [
        ("availability", format!("{:.4}", a.availability)),
        ("lost_work_node_s", format!("{:.1}", a.lost_work)),
        ("goodput", format!("{:.2}", a.goodput)),
        ("failures", a.failures.to_string()),
        ("attempts", a.attempts.to_string()),
    ];
    let recovery = [
        ("backoff_s", format!("{:.1}", c.backoff_secs)),
        ("protocol_aborts", c.counters.protocol_aborts.to_string()),
        ("epoch_retries", c.counters.epoch_retries.to_string()),
        ("manifest_commits", c.counters.manifest_commits.to_string()),
        ("torn_writes", c.counters.torn_writes.to_string()),
        ("dropped_sends", c.counters.dropped_sends.to_string()),
        ("recovery_s", format!("{:.3}", c.recovery_s)),
        ("replicas_written", c.counters.replicas_written.to_string()),
        ("replica_bytes", c.counters.replica_bytes.to_string()),
        ("remote_recoveries", c.counters.remote_recoveries.to_string()),
        ("local_recoveries", c.counters.local_recoveries.to_string()),
        ("replica_losses", c.counters.replica_losses.to_string()),
    ];
    let election = election_pairs(&c.counters);
    json::row(&[&id[..], &accounting, &fate, &recovery, &election].concat())
}

/// The sweep's model data as JSON (`gbcr fig 8 --json`; schema in
/// EXPERIMENTS.md).
pub fn json_block(sw: &FaultSweep) -> String {
    json::object(
        2,
        &[
            ("n", sw.n.to_string()),
            ("backend", json::string(sw.backend.name())),
            ("seed", sw.seed.to_string()),
            ("useful_s", format!("{:.3}", sw.useful_secs)),
            ("delta_s", format!("{:.3}", sw.delta_secs)),
            ("cells", json::array(4, sw.cells.iter().map(cell_json))),
        ],
    )
}

/// The seeded 4-rank kill/restart smoke `gbcr smoke` prints and
/// `scripts/tier1.sh` gates on: a run under stochastic node kills must
/// detect the failures, restart from checkpoints and finish. Returns
/// `(attempts, failures)`; the scenario is fully deterministic in its
/// seed, so any drift in the kill/detect/restart path changes the counts.
pub fn smoke() -> (usize, usize) {
    let sw = run(4, &[1_000], &[40], 1, Some(2), StoreBackend::Central);
    let a = sw.cells[0].acct.as_ref().expect("smoke cell finishes");
    (a.attempts, a.failures)
}

/// The seeded replicated-backend kill/recovery smoke `gbcr smoke` prints
/// and `scripts/tier1.sh` gates on: the same stochastic-kill cell as
/// [`smoke`], run under the central and the replicated backend against
/// *identical* failure draws.
/// Returns `(attempts, failures, local, remote, replica_writes, faster)`
/// where `local`/`remote` split the restart reads by which copy served
/// them (the dead rank's replacement reads a remote replica, the
/// survivors restore node-locally), `replica_writes` counts remote
/// fan-out copies, and `faster` is whether the replicated restart storm
/// beat the shared central array's mean latency.
pub fn replicated_smoke() -> (usize, usize, u64, u64, u64, bool) {
    let central = run(4, &[1_000], &[40], 1, Some(2), StoreBackend::Central);
    let repl = run(4, &[1_000], &[40], 1, Some(2), StoreBackend::Replicated { replicas: 2 });
    let cell = &repl.cells[0];
    let a = cell.acct.as_ref().expect("replicated smoke cell finishes");
    let faster = cell.recovery_s > 0.0 && cell.recovery_s < central.cells[0].recovery_s;
    (
        a.attempts,
        a.failures,
        cell.counters.local_recoveries,
        cell.counters.remote_recoveries,
        cell.counters.replicas_written,
        faster,
    )
}

/// Run `w` under `cfg` fault-free and again under `faults`, both to
/// completion. Returns the two reports and whether the faulted run's
/// per-rank results are byte-identical to the fault-free run's — the claim
/// every in-place recovery smoke pins.
pub(crate) fn against_fault_free(
    w: &RandomTraffic,
    cfg: &CoordinatorCfg,
    faults: &FaultConfig,
) -> (RunReport, RunReport, bool) {
    let run = |faults: Option<&FaultConfig>| {
        let sink = ResultsSink::default();
        let spec = w.job(Some(sink.clone()));
        let runner = spec.runner().ckpt(cfg.clone());
        let report = match faults {
            Some(f) => runner.faults(f).run().expect("faulted run"),
            None => runner.run().expect("fault-free run"),
        };
        assert_eq!(report.finished_ranks, w.n, "the job must finish without a restart");
        let mut results = sink.lock().clone();
        results.sort();
        (report, results)
    };
    let (clean, want) = run(None);
    let (faulted, got) = run(Some(faults));
    (clean, faulted, got == want)
}

/// The seeded mid-protocol straggler smoke `gbcr smoke` prints and
/// `scripts/tier1.sh` gates on (the abort path may never corrupt
/// application state):
/// rank 2 stalls 8 s on entry to its epoch-1 checkpoint, the coordinator's
/// group deadline trips, the epoch aborts and retries, and the run
/// completes with per-rank results **byte-identical** to the fault-free
/// run. Returns `(protocol_aborts, epoch_retries, manifest_commits,
/// results_match)` for the golden line.
pub fn abort_smoke() -> (u64, u64, u64, bool) {
    let n = 4;
    let w = RandomTraffic { n, steps: 220, ..RandomTraffic::default() };
    let cfg = CoordinatorCfg {
        deadlines: PhaseDeadlines::new(time::secs(2), time::secs(5)),
        ..cfg_for("abort-smoke", n, vec![time::secs(1), time::secs(3)])
    };
    let faults = FaultConfig {
        phase_faults: vec![PhaseFault {
            epoch: 1,
            phase: ProtocolPhase::Checkpoint,
            rank: 2,
            action: PhaseAction::Stall(time::secs(8)),
        }],
        ..FaultConfig::none()
    };
    let (clean, report, results_match) = against_fault_free(&w, &cfg, &faults);
    assert_eq!(clean.protocol_aborts, 0, "no deadline may trip fault-free");
    (report.protocol_aborts, report.epoch_retries, report.manifest_commits, results_match)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_thread_invariant_and_replays_exactly() {
        let a = run(4, &[1_000, 2_000], &[60], 2, Some(1), StoreBackend::Central);
        let b = run(4, &[1_000, 2_000], &[60], 2, Some(4), StoreBackend::Central);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(table(&a).render(), table(&b).render());
    }

    #[test]
    fn replicated_restart_beats_central_at_shortest_mtbf() {
        // The acceptance gate for the diskless backend: at the sweep's
        // shortest MTBF (most restarts) the replicated restart storm —
        // node-local reads plus at most one remote replica fetch — must be
        // strictly faster than 4 ranks hammering the shared central array.
        let central = run(4, &[1_000], &[30], 2, Some(2), StoreBackend::Central);
        let repl = run(4, &[1_000], &[30], 2, Some(2), StoreBackend::Replicated { replicas: 2 });
        let (c, r) = (central.cell(0, 0), repl.cell(0, 0));
        assert!(c.recovery_s > 0.0, "central cell must actually restart");
        assert!(r.recovery_s > 0.0, "replicated cell must actually restart");
        assert!(
            r.recovery_s < c.recovery_s,
            "replicated restart {}s not below central {}s",
            r.recovery_s,
            c.recovery_s
        );
        assert!(r.counters.replicas_written > 0, "fan-out must have happened");
    }

    #[test]
    fn short_mtbf_burns_more_work_than_long_mtbf() {
        let sw = run(4, &[1_000], &[30, 480], 3, Some(2), StoreBackend::Central);
        let short = sw.cell(0, 0).acct.as_ref().expect("short-MTBF cell finishes");
        let long = sw.cell(0, 1).acct.as_ref().expect("long-MTBF cell finishes");
        assert!(
            short.availability <= long.availability,
            "30s-MTBF availability {} above 480s-MTBF {}",
            short.availability,
            long.availability
        );
        assert!(short.attempts >= long.attempts);
    }
}
