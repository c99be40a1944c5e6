//! Whole-cluster crash recovery across the full stack: run a job with
//! periodic checkpoints, power-fail the cluster mid-run (every simulated
//! process killed), salvage the durable images from central storage, and
//! recover on a fresh cluster to the exact result of an uninterrupted run.

use gbcr_core::{CkptMode, CkptSchedule, CoordinatorCfg, Formation};
use gbcr_des::time;
use gbcr_storage::MB;
use gbcr_workloads::{hpl, HplWorkload, RandomTraffic};
use parking_lot::Mutex;
use std::sync::Arc;

fn cfg(job: &str, group_size: u32, at: Vec<gbcr_des::Time>) -> CoordinatorCfg {
    CoordinatorCfg {
        job: job.into(),
        mode: CkptMode::Buffering,
        formation: Formation::Static { group_size },
        schedule: CkptSchedule { at },
        incremental: false,
        deadlines: gbcr_core::PhaseDeadlines::none(),
        election: Default::default(),
    }
}

#[test]
fn crash_after_epoch_recovers_exactly() {
    let w = RandomTraffic { steps: 150, ..Default::default() };

    // Ground truth.
    let truth = Arc::new(Mutex::new(Vec::new()));
    w.job(Some(truth.clone())).runner().run().unwrap();
    let mut want = truth.lock().clone();
    want.sort();

    // Checkpoint at 1 s, power failure at 3 s (workload runs ~4.5 s+).
    let crashed = w
        .job(None)
        .runner()
        .ckpt(cfg("random-traffic", 4, vec![time::secs(1)]))
        .crash_at(time::secs(3))
        .run()
        .unwrap();
    assert_eq!(crashed.epochs.len(), 1, "epoch 0 completed before the crash");
    // The crashed run obviously produced no results.
    let restart = crashed.restart_spec("random-traffic", 0, w.n).unwrap();

    // Recover on a fresh cluster.
    let rec = Arc::new(Mutex::new(Vec::new()));
    w.job(Some(rec.clone())).runner().restart(restart).run().unwrap();
    let mut got = rec.lock().clone();
    got.sort();
    assert_eq!(got, want, "post-crash recovery diverged from the uninterrupted run");
}

#[test]
fn crash_during_an_epoch_recovers_from_the_previous_one() {
    let w = RandomTraffic { steps: 200, ..Default::default() };
    let truth = Arc::new(Mutex::new(Vec::new()));
    w.job(Some(truth.clone())).runner().run().unwrap();
    let mut want = truth.lock().clone();
    want.sort();

    // Epoch 0 at 1 s completes; epoch 1 at 4 s is interrupted by the crash
    // at 4.2 s (mid-epoch: image writes take ~1.4 s per group here).
    let crashed = w
        .job(None)
        .runner()
        .ckpt(cfg("random-traffic", 4, vec![time::secs(1), time::secs(4)]))
        .crash_at(time::ms(4200))
        .run()
        .unwrap();
    assert_eq!(
        crashed.epochs.len(),
        1,
        "only epoch 0 completed; the interrupted epoch must not be reported"
    );

    let restart = crashed.restart_spec("random-traffic", 0, w.n).unwrap();
    let rec = Arc::new(Mutex::new(Vec::new()));
    w.job(Some(rec.clone())).runner().restart(restart).run().unwrap();
    let mut got = rec.lock().clone();
    got.sort();
    assert_eq!(got, want, "recovery from the last complete epoch diverged");
}

#[test]
fn hpl_crash_recovery_matches_oracle() {
    let w = HplWorkload {
        grid_rows: 4,
        grid_cols: 2,
        panels: 24,
        base_footprint: 25 * MB,
        factor_time: time::ms(50),
        update_time: time::ms(400),
        panel_bytes: MB,
        update_substeps: 4,
    };
    let oracle = hpl::sequential_digest_sum(w.panels, w.grid_rows, w.grid_cols);

    let crashed = w
        .job(None)
        .runner()
        .ckpt(cfg("hpl", 4, vec![time::secs(2)]))
        .crash_at(time::secs(6))
        .run()
        .unwrap();
    assert_eq!(crashed.epochs.len(), 1);
    let restart = crashed.restart_spec("hpl", 0, w.n()).unwrap();

    let sum = Arc::new(Mutex::new(0u64));
    w.job(Some(sum.clone())).runner().restart(restart).run().unwrap();
    assert_eq!(*sum.lock(), oracle, "post-crash HPL result diverged from the oracle");
}

#[test]
fn recovering_from_the_interrupted_epoch_is_impossible() {
    let w = RandomTraffic { steps: 200, ..Default::default() };
    let crashed = w
        .job(None)
        .runner()
        .ckpt(cfg("random-traffic", 4, vec![time::secs(1), time::secs(4)]))
        .crash_at(time::ms(4200))
        .run()
        .unwrap();
    // Epoch 1 was cut short: its image set must be rejected with a typed
    // error a supervisor can catch (fall back to epoch 0).
    let err = crashed.restart_spec("random-traffic", 1, w.n).unwrap_err();
    assert!(
        matches!(&err, gbcr_des::SimError::NoRestartPoint { detail, .. }
            if detail.contains("epoch 1 has no committed manifest")),
        "expected NoRestartPoint for the torn epoch, got {err:?}"
    );
    // The selector agrees: epoch 0 is the restart point.
    let latest = crashed.latest_restart_spec("random-traffic", w.n);
    assert_eq!(latest.map(|r| r.epoch), Some(0));
}
