//! A production-shaped story: measure the checkpoint cost, let the
//! advisor pick the interval (Young's formula), run under supervision
//! with injected cluster failures, and finish with a verified result.
//!
//! Run with: `cargo run --release --example production_run`

use gbcr_core::{CkptSchedule, CoordinatorCfg, SupervisePolicy};
use gbcr_des::time;
use gbcr_metrics::{young_interval, AdvisorInputs};
use gbcr_workloads::RandomTraffic;
use parking_lot::Mutex;
use std::sync::Arc;

fn main() {
    let w = RandomTraffic {
        steps: 500,
        pattern_seed: 5,
        step_compute: time::ms(100),
        ..Default::default()
    };

    // 1. Ground truth and cost measurement.
    let truth = Arc::new(Mutex::new(Vec::new()));
    let base = w.job(Some(truth.clone())).runner().run().expect("baseline");
    let mut want = truth.lock().clone();
    want.sort();
    let probe = w
        .job(None)
        .runner()
        .ckpt(CoordinatorCfg::new("random-traffic", 4, CkptSchedule::once(time::secs(2))))
        .run()
    .expect("probe run");
    let delta = time::as_secs_f64(probe.effective_delay(&base));
    println!(
        "measured: baseline {:.1} s, one group-based checkpoint costs δ = {:.2} s",
        time::as_secs_f64(base.completion),
        delta
    );

    // 2. Advisor: pretend this cluster fails every ~40 s of virtual time
    //    (absurd for hardware, scaled to this toy job's length).
    let advice = young_interval(AdvisorInputs {
        effective_delay: delta,
        mtbf: 40.0,
        restart_read: 1.5,
    });
    println!(
        "advisor: Young interval = {:.1} s, expected overhead ≈ {:.1} %",
        advice.interval,
        advice.overhead_fraction * 100.0
    );

    // 3. Periodic checkpoints at the advised interval.
    let horizon = time::as_secs_f64(base.completion);
    let schedule: Vec<_> = (1..)
        .map(|i| time::secs_f64(i as f64 * advice.interval))
        .take_while(|&t| time::as_secs_f64(t) < horizon - advice.interval / 2.0)
        .collect();
    println!("schedule: {} checkpoints across the ~{horizon:.0} s run", schedule.len());

    // 4. Supervised execution with two injected cluster failures.
    let results = Arc::new(Mutex::new(Vec::new()));
    let report = w
        .job(Some(results.clone()))
        .runner()
        .ckpt(CoordinatorCfg::new("random-traffic", 4, CkptSchedule { at: schedule }))
        .supervised(SupervisePolicy::immediate())
        .crashes(&[time::secs(20), time::secs(30)])
        .expect("supervised run");

    for (i, a) in report.attempts.iter().enumerate() {
        println!(
            "attempt {i}: restored_from={:?} crashed_at={:?} epochs={} finished={}",
            a.restored_from,
            a.crashed_at.map(time::as_secs_f64),
            a.epochs_completed,
            a.finished
        );
    }
    let mut got = results.lock().clone();
    got.sort();
    assert_eq!(got, want, "supervised result must match the uninterrupted run");
    println!(
        "survived {} failures; final result verified identical to the failure-free run.",
        report.failures_survived()
    );
}
