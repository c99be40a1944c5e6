//! Analytical models vs the simulator: the paper's Eq. 1–3 and the
//! advisor's placement window must agree with what the full stack
//! measures.

use gbcr_core::{CkptMode, CkptSchedule, CoordinatorCfg, Formation};
use gbcr_des::time;
use gbcr_metrics::{placement_window, young_interval, AdvisorInputs};
use gbcr_storage::{StorageConfig, MB};
use gbcr_workloads::{MicroBench, PlacementBench};

/// Eq. 1 / Eq. 2a / Eq. 3a: `Individual ≈ footprint × group / B`, measured
/// across several group sizes on the micro-benchmark.
#[test]
fn equation_individual_time_matches_measurement() {
    let mb = MicroBench { n: 16, comm_group_size: 4, steps: 200, ..Default::default() };
    let cfg_storage = StorageConfig::paper_testbed();
    for g in [16u32, 8, 4] {
        let cfg = CoordinatorCfg {
            job: "micro".into(),
            mode: CkptMode::Buffering,
            formation: Formation::Static { group_size: g },
            schedule: CkptSchedule::once(time::secs(10)),
            incremental: false,
            deadlines: gbcr_core::PhaseDeadlines::none(),
            election: Default::default(),
        };
        let report = mb.job().runner().ckpt(cfg).run().unwrap();
        let measured = time::as_secs_f64(report.epochs[0].mean_individual());
        let predicted =
            (u64::from(g) * mb.footprint) as f64 / cfg_storage.aggregate_rate(g as usize);
        assert!(
            (measured - predicted).abs() / predicted < 0.15,
            "g={g}: measured {measured:.2}s vs Eq. 3a {predicted:.2}s"
        );
    }
}

/// Eq. 3b: `Total ≈ groups × Individual` for the group-based protocol.
#[test]
fn equation_total_time_matches_measurement() {
    let mb = MicroBench { n: 16, comm_group_size: 4, steps: 200, ..Default::default() };
    let cfg = CoordinatorCfg {
        job: "micro".into(),
        mode: CkptMode::Buffering,
        formation: Formation::Static { group_size: 4 },
        schedule: CkptSchedule::once(time::secs(10)),
        incremental: false,
        deadlines: gbcr_core::PhaseDeadlines::none(),
        election: Default::default(),
    };
    let report = mb.job().runner().ckpt(cfg).run().unwrap();
    let ep = &report.epochs[0];
    let predicted = ep.mean_individual() * ep.plan.group_count() as u64;
    let total = ep.total_time();
    assert!(
        (total as f64 - predicted as f64).abs() / (predicted as f64) < 0.15,
        "total {} vs groups × individual {}",
        time::fmt(total),
        time::fmt(predicted)
    );
}

/// The advisor's placement window against the actual Figure 4 machinery:
/// issuing at the predicted best offset must beat the predicted worst
/// offset by roughly `Total − Individual`.
#[test]
fn placement_window_prediction_matches_figure4_behavior() {
    let pb = PlacementBench {
        n: 8,
        comm_group_size: 4,
        footprint: 120 * MB,
        steps_per_period: 120, // × 250 ms = 30 s period
        periods: 3,
        ..Default::default()
    };
    let spec = pb.job();
    let base = spec.runner().run().unwrap();
    let measure = |at| {
        let cfg = CoordinatorCfg {
            job: "placement".into(),
            mode: CkptMode::Buffering,
            formation: Formation::Static { group_size: 4 },
            schedule: CkptSchedule::once(at),
            incremental: false,
            deadlines: gbcr_core::PhaseDeadlines::none(),
            election: Default::default(),
        };
        let ck = spec.runner().ckpt(cfg).run().unwrap();
        (
            time::as_secs_f64(ck.effective_delay(&base)),
            ck.epochs[0].total_time(),
        )
    };
    // Probe once to learn the total checkpoint time, then ask the advisor.
    let (_, total) = measure(time::secs(31));
    let period = pb.barrier_interval();
    let (best_off, worst_off) = placement_window(period, total);
    // Second barrier period starts at 30 s.
    let (best_eff, _) = measure(time::secs(30) + best_off + time::secs(1));
    let (worst_eff, _) = measure(time::secs(30) + worst_off);
    assert!(
        best_eff < 0.6 * worst_eff,
        "advised best placement ({best_eff:.1}s) must clearly beat the worst \
         ({worst_eff:.1}s)"
    );
}

/// Young's interval really is (locally) optimal: at the advised interval
/// the modeled overhead is below both a much shorter and a much longer
/// interval's overhead.
#[test]
fn young_interval_is_a_local_minimum() {
    let inputs =
        AdvisorInputs { effective_delay: 12.0, mtbf: 3_600.0, restart_read: 20.0 };
    let advice = young_interval(inputs);
    let overhead = |interval: f64| {
        inputs.effective_delay / interval
            + interval / (2.0 * inputs.mtbf)
            + inputs.restart_read / inputs.mtbf
    };
    assert!(advice.overhead_fraction < overhead(advice.interval / 3.0));
    assert!(advice.overhead_fraction < overhead(advice.interval * 3.0));
    assert!((overhead(advice.interval) - advice.overhead_fraction).abs() < 1e-12);
}
