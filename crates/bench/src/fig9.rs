//! Figure 9 (extension): control-plane availability under coordinator
//! churn, comparing a **static** control plane (a dead coordinator takes
//! the whole job down and the supervisor restarts it from the last
//! complete epoch) against lease-based **failover** (the lowest-ranked
//! surviving standby wins a term-numbered election, reconstructs the
//! coordinator state from the storage manifests and resumes in place —
//! zero supervisor restarts).
//!
//! Every cell is one supervised stochastic run
//! ([`gbcr_core::SupervisedRunner::stochastic`]) whose fault
//! process kills only the *coordinator's* node: `coord_mtbf` is the swept
//! exponential and the per-node kill clock is pushed out to 10⁵ s so rank
//! failures never fire. Cell seeds ignore the plane, so both planes face
//! the *same* coordinator-kill draws (common random numbers) and the
//! availability gap is purely the recovery path.

use crate::fig8::{cfg_for, periodic, spec_for};
use gbcr_core::{CoordinatorCfg, ElectionCfg, SupervisePolicy};
use gbcr_des::{time, SimError};
use gbcr_faults::{rng::mix64, FaultConfig, FaultPlan, StochasticFaults};
use gbcr_metrics::{account_replicas, run_cells, FaultAccounting, RecoveryCounters, Table};
use gbcr_workloads::{random::ResultsSink, RandomTraffic};

/// Seed every cell's fault streams and election jitter derive from.
pub const SEED: u64 = 0xF1_69;

/// Coordinator MTBFs swept (seconds). The bare job is ~12 s, so the
/// shortest column kills the coordinator in most replicas.
pub const COORD_MTBFS_S: [u64; 3] = [20, 60, 240];

/// Checkpoint interval for every cell (milliseconds); fixed so the sweep
/// isolates the control-plane axis.
pub const INTERVAL_MS: u64 = 2_000;

/// Supervised runs per cell; replica seeds are shared across planes.
pub const REPLICAS: usize = 5;

/// Which control plane a sweep runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Plane {
    /// No standbys: a coordinator kill aborts the attempt and the
    /// supervisor restarts from the last complete epoch.
    #[default]
    Static,
    /// Lease-based leader election: per-rank standbys monitor heartbeats
    /// and the lowest-ranked survivor takes over in place.
    Failover,
}

impl Plane {
    /// The table/JSON spelling.
    pub fn name(self) -> &'static str {
        match self {
            Plane::Static => "static",
            Plane::Failover => "failover",
        }
    }

    fn election(self, jitter_seed: u64) -> ElectionCfg {
        match self {
            Plane::Static => ElectionCfg::disabled(),
            Plane::Failover => ElectionCfg::failover(jitter_seed),
        }
    }
}

/// One measured cell of the plane × coordinator-MTBF sweep.
#[derive(Debug, Clone)]
pub struct PlaneCell {
    /// Coordinator MTBF, seconds.
    pub coord_mtbf_secs: f64,
    /// Aggregate accounting over the replicas that finished; `None` when
    /// every replica exhausted its retry budget.
    pub acct: Option<FaultAccounting>,
    /// Replicas run for this cell.
    pub replicas: usize,
    /// Replicas that gave up ([`gbcr_des::SimError::RetriesExhausted`]).
    pub gave_up: usize,
    /// Supervisor restarts summed over finishing replicas (attempts
    /// beyond the first); the failover plane's headline is keeping this 0.
    pub supervisor_restarts: usize,
    /// Recovery-protocol counters summed over the finishing replicas
    /// (elections, terms, migrations, time-to-new-leader, …).
    pub counters: RecoveryCounters,
}

/// The full control-plane sweep for one plane.
#[derive(Debug, Clone)]
pub struct PlaneSweep {
    /// World size.
    pub n: u32,
    /// Control plane the jobs ran under.
    pub plane: Plane,
    /// Base seed of the fault streams.
    pub seed: u64,
    /// Failure-free bare completion (the "useful" seconds of every cell).
    pub useful_secs: f64,
    /// Swept coordinator MTBFs, seconds.
    pub mtbfs: Vec<f64>,
    /// Cells, one per MTBF.
    pub cells: Vec<PlaneCell>,
}

/// Run one control plane's sweep with an explicit MTBF grid, replica
/// count and worker-thread control (the figure's grid is 8 ranks over
/// [`COORD_MTBFS_S`] with [`REPLICAS`], once per plane). Cell seeds ignore
/// the plane, so plane sweeps face identical coordinator-kill draws.
pub fn run(
    n: u32,
    coord_mtbfs_s: &[u64],
    replicas: usize,
    threads: Option<usize>,
    plane: Plane,
) -> PlaneSweep {
    assert!(replicas > 0);
    let (spec, job) = spec_for(n);
    let useful = spec.runner().run().expect("bare run").completion;
    let interval = time::ms(INTERVAL_MS);

    let runs = run_cells(coord_mtbfs_s.len() * replicas, threads, |k| {
        let mtbf_s = coord_mtbfs_s[k / replicas];
        let rep = (k % replicas) as u64;
        let cell_seed = SEED ^ mix64(mtbf_s) ^ mix64(rep + 1);
        // Node kills pushed out to 10^5 s: only the coordinator clock
        // (its own Domain::Election stream) ever fires inside the run.
        let faults = StochasticFaults {
            coord_mtbf: Some(time::secs(mtbf_s)),
            ..StochasticFaults::kills(cell_seed, time::secs(100_000))
        };
        let cfg = CoordinatorCfg {
            election: plane.election(cell_seed),
            ..cfg_for(job, n, periodic(interval, useful))
        };
        let policy = SupervisePolicy::default();
        match spec.runner().ckpt(cfg).supervised(policy).stochastic(&faults) {
            Ok(report) => Some(report),
            Err(SimError::RetriesExhausted { .. }) => None,
            Err(e) => panic!("fig9 cell (mtbf {mtbf_s} s, {}) failed: {e}", plane.name()),
        }
    });

    let cells = coord_mtbfs_s
        .iter()
        .enumerate()
        .map(|(c, &mtbf_s)| {
            let reps = &runs[c * replicas..(c + 1) * replicas];
            let (acct, gave_up, counters) = account_replicas(reps, useful, n);
            PlaneCell {
                coord_mtbf_secs: mtbf_s as f64,
                acct,
                replicas,
                gave_up,
                supervisor_restarts: reps
                    .iter()
                    .flatten()
                    .map(|r| r.attempts.len().saturating_sub(1))
                    .sum(),
                counters,
            }
        })
        .collect();

    PlaneSweep {
        n,
        plane,
        seed: SEED,
        useful_secs: time::as_secs_f64(useful),
        mtbfs: coord_mtbfs_s.iter().map(|&m| m as f64).collect(),
        cells,
    }
}

/// Availability row per plane: `avail% / restarts / migrations` per
/// coordinator-MTBF column.
pub fn table(st: &PlaneSweep, fo: &PlaneSweep) -> Table {
    assert_eq!(st.mtbfs, fo.mtbfs, "planes must sweep the same MTBFs");
    let mut header: Vec<String> = vec!["control plane".into()];
    header.extend(st.mtbfs.iter().map(|m| format!("coord MTBF {m:.0}s")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(
        format!(
            "Figure 9 — availability under coordinator churn, n={} \
             (avail % / supervisor restarts / leader migrations)",
            st.n
        ),
        &header_refs,
    );
    for sw in [st, fo] {
        let mut row = vec![sw.plane.name().to_string()];
        for c in &sw.cells {
            row.push(match &c.acct {
                Some(a) => format!(
                    "{:.1} / {} / {}",
                    a.availability * 100.0,
                    c.supervisor_restarts,
                    c.counters.leader_migrations
                ),
                None => "gave up".into(),
            });
        }
        t.row(&row);
    }
    t
}

/// Everything `gbcr fig 9` prints: the table and the run-parameter
/// trailer.
pub fn report(st: &PlaneSweep, fo: &PlaneSweep) -> String {
    format!(
        "{}\nbare completion {:.2}s; interval {INTERVAL_MS} ms; fault seed {:#x}\n",
        table(st, fo).render(),
        st.useful_secs,
        st.seed
    )
}

/// Both planes' model data as JSON (`gbcr fig 9 --json`; schema in
/// EXPERIMENTS.md).
pub fn json_block(st: &PlaneSweep, fo: &PlaneSweep) -> String {
    let mut j = String::from("{\n");
    j.push_str(&format!("    \"n\": {},\n", st.n));
    j.push_str(&format!("    \"seed\": {},\n", st.seed));
    j.push_str(&format!("    \"useful_s\": {:.3},\n", st.useful_secs));
    j.push_str(&format!("    \"interval_ms\": {INTERVAL_MS},\n"));
    j.push_str("    \"cells\": [\n");
    let total = st.cells.len() + fo.cells.len();
    for (i, (sw, c)) in st
        .cells
        .iter()
        .map(|c| (st, c))
        .chain(fo.cells.iter().map(|c| (fo, c)))
        .enumerate()
    {
        let comma = if i + 1 == total { "" } else { "," };
        match &c.acct {
            Some(a) => j.push_str(&format!(
                "      {{\"plane\": \"{}\", \"coord_mtbf_s\": {:.0}, \
                 \"availability\": {:.4}, \"lost_work_node_s\": {:.1}, \
                 \"failures\": {}, \"attempts\": {}, \"replicas\": {}, \
                 \"gave_up\": {}, \"supervisor_restarts\": {}, \
                 \"coordinator_kills\": {}, \"elections_held\": {}, \
                 \"terms\": {}, \"heartbeats_missed\": {}, \
                 \"leader_migrations\": {}, \
                 \"time_to_new_leader_s\": {:.3}}}{comma}\n",
                sw.plane.name(),
                c.coord_mtbf_secs,
                a.availability,
                a.lost_work,
                a.failures,
                a.attempts,
                c.replicas,
                c.gave_up,
                c.supervisor_restarts,
                c.counters.coordinator_kills,
                c.counters.elections_held,
                c.counters.terms,
                c.counters.heartbeats_missed,
                c.counters.leader_migrations,
                time::as_secs_f64(c.counters.time_to_new_leader),
            )),
            None => j.push_str(&format!(
                "      {{\"plane\": \"{}\", \"coord_mtbf_s\": {:.0}, \
                 \"replicas\": {}, \"gave_up\": {}}}{comma}\n",
                sw.plane.name(),
                c.coord_mtbf_secs,
                c.replicas,
                c.gave_up,
            )),
        }
    }
    j.push_str("    ]\n  }");
    j
}

/// The seeded 8-rank coordinator-kill failover smoke `gbcr smoke` prints
/// and `scripts/tier1.sh` gates on: the coordinator's node dies 3.5 s in,
/// the lowest-ranked standby wins the term-2 election, aborts the
/// half-open epoch, re-forms groups over the survivors and finishes the
/// job with per-rank results **byte-identical** to the fault-free run —
/// all without a supervisor restart. Returns `(terms, leader_migrations,
/// supervisor_restarts, results_match)` for the golden line.
pub fn smoke() -> (u64, u64, u64, bool) {
    let n = 8;
    let w = RandomTraffic { n, steps: 220, ..RandomTraffic::default() };
    let mk = || CoordinatorCfg {
        election: ElectionCfg::failover(SEED),
        ..cfg_for("fig9-smoke", n, vec![time::secs(1), time::secs(3), time::secs(5)])
    };

    let truth = ResultsSink::default();
    let clean = w.job(Some(truth.clone())).runner().ckpt(mk()).run().expect("fault-free run");
    assert_eq!(clean.terms, 1, "no election may run fault-free");
    assert_eq!(clean.leader_migrations, 0, "no migration may run fault-free");
    let mut want = truth.lock().clone();
    want.sort();

    let faults = FaultConfig {
        plan: FaultPlan::coordinator_kill_at(time::ms(3_500)),
        ..FaultConfig::none()
    };
    let results = ResultsSink::default();
    let report = w
        .job(Some(results.clone()))
        .runner()
        .ckpt(mk())
        .faults(&faults)
        .run()
        .expect("coordinator-kill run");
    assert_eq!(report.finished_ranks, n, "failover must let the job finish in place");
    let supervisor_restarts = u64::from(report.finished_ranks != n);
    let mut got = results.lock().clone();
    got.sort();
    (report.terms, report.leader_migrations, supervisor_restarts, got == want)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_availability_beats_static_at_shortest_mtbf() {
        // The acceptance gate for the survivable control plane: at the
        // sweep's shortest coordinator MTBF, in-place leader migration
        // must yield strictly higher availability than killing the job
        // and restarting it from the last complete epoch — against the
        // *same* coordinator-kill draws.
        let st = run(8, &[COORD_MTBFS_S[0]], 2, Some(2), Plane::Static);
        let fo = run(8, &[COORD_MTBFS_S[0]], 2, Some(2), Plane::Failover);
        let (s, f) = (&st.cells[0], &fo.cells[0]);
        let sa = s.acct.as_ref().expect("static cell finishes").availability;
        let fa = f.acct.as_ref().expect("failover cell finishes").availability;
        assert!(s.supervisor_restarts > 0, "static cell must actually restart");
        assert_eq!(f.supervisor_restarts, 0, "failover must never restart the job");
        assert!(f.counters.leader_migrations > 0, "failover must actually migrate");
        assert!(
            fa > sa,
            "failover availability {fa} not above static {sa} at {}s MTBF",
            COORD_MTBFS_S[0]
        );
    }

    #[test]
    fn smoke_matches_golden() {
        let (terms, migrations, restarts, results_match) = smoke();
        assert_eq!((terms, migrations, restarts), (2, 1, 0));
        assert!(results_match, "failover results must match the fault-free run");
    }
}
