//! Property and identity tests for the survivable control plane: under
//! random coordinator/participant kill schedules, the lease-based
//! election must elect **exactly one leader per term** with strictly
//! monotone term numbers, supervised runs must replay **byte-identically
//! under the same seed**, and with no faults injected the whole lease
//! machinery must be a **pure observer** — heartbeats and standbys change
//! nothing the model reports.

use gbcr_core::{
    CkptMode, CkptSchedule, CoordinatorCfg, ElectionCfg, Formation, PhaseDeadlines, SupervisePolicy,
};
use gbcr_des::trace::arg;
use gbcr_des::{time, ArgValue, TraceLevel};
use gbcr_faults::{FaultConfig, FaultKind, FaultPlan, StochasticFaults};
use gbcr_workloads::{random::ResultsSink, RandomTraffic};
use proptest::prelude::*;

fn cfg(n: u32, election: ElectionCfg) -> CoordinatorCfg {
    CoordinatorCfg {
        job: "election-prop".into(),
        mode: CkptMode::Buffering,
        formation: Formation::Static { group_size: (n / 2).max(1) },
        schedule: CkptSchedule { at: vec![time::secs(1), time::secs(3), time::secs(5)] },
        incremental: false,
        deadlines: PhaseDeadlines::none(),
        election,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary mixes of coordinator kills and a participant kill:
    /// every `election.won` instant carries a unique term, terms strictly
    /// increase over virtual time, and the report's migration counter
    /// agrees with the event stream.
    #[test]
    fn one_leader_per_term_and_terms_are_monotone(
        seed in any::<u64>(),
        coord_kills in prop::collection::vec(400u64..7_000, 1..3),
        kill_a_rank in any::<bool>(),
        rank_kill in (2_000u64..7_000, 0u32..4),
    ) {
        let n = 4;
        let w = RandomTraffic { n, steps: 150, ..RandomTraffic::default() };
        let mut plan = FaultPlan::none();
        for &at in &coord_kills {
            plan.push(time::ms(at), FaultKind::CoordinatorKill);
        }
        if kill_a_rank {
            let (at, rank) = rank_kill;
            plan.push(time::ms(at), FaultKind::NodeKill { rank });
        }
        let faults = FaultConfig { plan, ..FaultConfig::none() };
        let report = w
            .job(None)
            .runner()
            .ckpt(cfg(n, ElectionCfg::failover(seed)))
            .faults(&faults)
            .traced(TraceLevel::Phases)
            .run()
        .expect("faulted run");
        let data = report.trace.as_ref().expect("traced run records data");
        let wins: Vec<(u64, u64)> = data
            .instants_named("election.won")
            .iter()
            .map(|i| {
                let get = |key| arg(&i.args, key).and_then(ArgValue::as_u64).expect("u64 arg");
                (get("term"), get("leader"))
            })
            .collect();
        let terms: Vec<u64> = wins.iter().map(|w| w.0).collect();
        prop_assert!(
            terms.windows(2).all(|p| p[0] < p[1]),
            "terms not strictly monotone (one leader per term violated): {wins:?}"
        );
        prop_assert!(
            terms.iter().all(|&t| t >= 2),
            "an election won the bootstrap term: {wins:?}"
        );
        prop_assert_eq!(
            report.election.leader_migrations,
            wins.len() as u64,
            "migration counter disagrees with the election.won stream"
        );
        if let Some(&(last, _)) = wins.last() {
            let term = report.election.terms;
            prop_assert!(term >= last, "report term {term} behind last win {last}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same seed, same stochastic coordinator + participant kill process:
    /// two supervised runs produce byte-identical `SupervisedReport`s
    /// (or byte-identical errors), elections included.
    #[test]
    fn supervised_failover_replays_byte_identically(seed in any::<u64>()) {
        let n = 4;
        let w = RandomTraffic { n, steps: 150, ..RandomTraffic::default() };
        let run = || {
            let faults = StochasticFaults {
                coord_mtbf: Some(time::secs(15)),
                ..StochasticFaults::kills(seed, time::secs(40))
            };
            w
                .job(None)
                .runner()
                .ckpt(cfg(n, ElectionCfg::failover(seed)))
                .supervised(SupervisePolicy::default())
                .stochastic(&faults)
        };
        prop_assert_eq!(format!("{:?}", run()), format!("{:?}", run()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A coordinator kill at an arbitrary point in the run — mid-epoch,
    /// between epochs, during the finish drain, even after completion —
    /// never loses the job: every rank finishes and per-rank results stay
    /// byte-identical to the fault-free run.
    #[test]
    fn failover_preserves_results_for_arbitrary_kill_times(
        seed in any::<u64>(),
        kill_ms in 200u64..8_000,
    ) {
        let n = 4;
        let w = RandomTraffic { n, steps: 150, ..RandomTraffic::default() };
        let truth = ResultsSink::default();
        w.job(Some(truth.clone())).runner().ckpt(cfg(n, ElectionCfg::failover(seed))).run()
            .expect("fault-free run");
        let mut want = truth.lock().clone();
        want.sort();

        let faults = FaultConfig {
            plan: FaultPlan::coordinator_kill_at(time::ms(kill_ms)),
            ..FaultConfig::none()
        };
        let results = ResultsSink::default();
        let report = w
            .job(Some(results.clone()))
            .runner()
            .ckpt(cfg(n, ElectionCfg::failover(seed)))
            .faults(&faults)
            .run()
        .expect("coordinator-kill run");
        prop_assert_eq!(report.finished_ranks, n, "failover lost the job (kill at {kill_ms} ms)");
        let mut got = results.lock().clone();
        got.sort();
        prop_assert_eq!(got, want, "results diverged (kill at {} ms)", kill_ms);
    }
}

/// With no faults injected, enabling the lease machinery changes nothing
/// the model reports: completion time, per-epoch reports, per-rank
/// checkpoint records and per-rank results are byte-identical to a run
/// with the control plane disabled.
#[test]
fn fault_free_election_is_a_pure_observer() {
    let n = 8;
    let w = RandomTraffic { n, steps: 220, ..RandomTraffic::default() };
    let run = |election: ElectionCfg| {
        let sink = ResultsSink::default();
        let report =
            w.job(Some(sink.clone())).runner().ckpt(cfg(n, election)).run().expect("clean run");
        let mut results = sink.lock().clone();
        results.sort();
        (
            report.completion,
            format!("{:?}", report.epochs),
            format!("{:?}", report.rank_records),
            results,
        )
    };
    let on = run(ElectionCfg::failover(0xE1EC));
    let off = run(ElectionCfg::disabled());
    assert_eq!(on.0, off.0, "completion time shifted");
    assert_eq!(on.1, off.1, "epoch reports shifted");
    assert_eq!(on.2, off.2, "rank checkpoint records shifted");
    assert_eq!(on.3, off.3, "per-rank results shifted");
}
