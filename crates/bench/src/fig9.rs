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

use crate::fig8::{against_fault_free, cfg_for, election_pairs, periodic, run_fault_cells, spec_for};
use crate::json;
use gbcr_core::{CoordinatorCfg, ElectionCfg};
use gbcr_des::time;
use gbcr_faults::{rng::mix64, FaultConfig, FaultPlan, StochasticFaults};
use gbcr_metrics::{FaultAccounting, RecoveryCounters, Table};
use gbcr_workloads::RandomTraffic;

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
    let (spec, job) = spec_for(n);
    let useful = spec.runner().run().expect("bare run").completion;
    let interval = time::ms(INTERVAL_MS);

    let runs = run_fault_cells(&spec, useful, coord_mtbfs_s, replicas, threads, |&mtbf_s, rep| {
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
        (cfg, faults)
    });

    let cells = coord_mtbfs_s
        .iter()
        .zip(runs)
        .map(|(&mtbf_s, r)| PlaneCell {
            coord_mtbf_secs: mtbf_s as f64,
            acct: r.acct,
            replicas,
            gave_up: r.gave_up,
            supervisor_restarts: r
                .finished
                .iter()
                .map(|f| f.attempts.len().saturating_sub(1))
                .sum(),
            counters: r.counters,
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
    let mut t = Table::new(
        format!(
            "Figure 9 — availability under coordinator churn, n={} \
             (avail % / supervisor restarts / leader migrations)",
            st.n
        ),
        &header,
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

/// One entry of `cells[]`. A new per-cell key is one pair here (and one
/// line in the EXPERIMENTS.md schema paragraph); a cell whose every
/// replica gave up prints its coordinates and fate only.
fn cell_json(plane: Plane, c: &PlaneCell) -> String {
    let id = [
        ("plane", json::string(plane.name())),
        ("coord_mtbf_s", format!("{:.0}", c.coord_mtbf_secs)),
    ];
    let fate = [("replicas", c.replicas.to_string()), ("gave_up", c.gave_up.to_string())];
    let Some(a) = &c.acct else { return json::row(&[id, fate].concat()) };
    let accounting = [
        ("availability", format!("{:.4}", a.availability)),
        ("lost_work_node_s", format!("{:.1}", a.lost_work)),
        ("failures", a.failures.to_string()),
        ("attempts", a.attempts.to_string()),
    ];
    let restarts = [("supervisor_restarts", c.supervisor_restarts.to_string())];
    let election = election_pairs(&c.counters);
    json::row(&[&id[..], &accounting, &fate, &restarts, &election].concat())
}

/// Both planes' model data as JSON (`gbcr fig 9 --json`; schema in
/// EXPERIMENTS.md).
pub fn json_block(st: &PlaneSweep, fo: &PlaneSweep) -> String {
    let cells = [st, fo].into_iter().flat_map(|sw| sw.cells.iter().map(|c| cell_json(sw.plane, c)));
    json::object(
        2,
        &[
            ("n", st.n.to_string()),
            ("seed", st.seed.to_string()),
            ("useful_s", format!("{:.3}", st.useful_secs)),
            ("interval_ms", INTERVAL_MS.to_string()),
            ("cells", json::array(4, cells)),
        ],
    )
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
    let cfg = CoordinatorCfg {
        election: ElectionCfg::failover(SEED),
        ..cfg_for("fig9-smoke", n, vec![time::secs(1), time::secs(3), time::secs(5)])
    };
    let faults = FaultConfig {
        plan: FaultPlan::coordinator_kill_at(time::ms(3_500)),
        ..FaultConfig::none()
    };
    // No supervisor stands behind this run: it finished in place (asserted
    // by the comparison), so the restart count of the golden line is 0.
    let (clean, report, results_match) = against_fault_free(&w, &cfg, &faults);
    assert_eq!(clean.terms, 1, "no election may run fault-free");
    assert_eq!(clean.leader_migrations, 0, "no migration may run fault-free");
    (report.terms, report.leader_migrations, 0, results_match)
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
}
