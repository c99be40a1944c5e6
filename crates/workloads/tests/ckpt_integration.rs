//! Checkpoint/restart correctness on the real workloads: a checkpointed
//! run must produce the oracle result, and a run restarted from any epoch
//! must converge to the identical answer.

use gbcr_core::{CkptMode, CkptSchedule, CoordinatorCfg, Formation};
use gbcr_des::time;
use gbcr_storage::MB;
use gbcr_workloads::{hpl, HplWorkload, MotifMinerWorkload, RandomTraffic};
use parking_lot::Mutex;
use std::sync::Arc;

fn cfg(job: &str, group_size: u32, at: gbcr_des::Time) -> CoordinatorCfg {
    CoordinatorCfg {
        job: job.into(),
        mode: CkptMode::Buffering,
        formation: Formation::Static { group_size },
        schedule: CkptSchedule::once(at),
        incremental: false,
        deadlines: gbcr_core::PhaseDeadlines::none(),
        election: Default::default(),
    }
}

fn small_hpl() -> HplWorkload {
    HplWorkload {
        grid_rows: 4,
        grid_cols: 2,
        panels: 32,
        base_footprint: 30 * MB,
        factor_time: time::ms(30),
        update_time: time::ms(150),
        panel_bytes: MB,
        update_substeps: 4,
    }
}

#[test]
fn hpl_checkpointed_run_still_matches_oracle() {
    let w = small_hpl();
    let want = hpl::sequential_digest_sum(w.panels, w.grid_rows, w.grid_cols);
    let sum = Arc::new(Mutex::new(0u64));
    let report =
        w.job(Some(sum.clone())).runner().ckpt(cfg("hpl", 2, time::secs(1))).run().unwrap();
    assert_eq!(report.epochs.len(), 1);
    assert_eq!(*sum.lock(), want, "checkpointing perturbed the factorization");
}

#[test]
fn hpl_restart_mid_factorization_is_exact() {
    let w = small_hpl();
    let want = hpl::sequential_digest_sum(w.panels, w.grid_rows, w.grid_cols);

    let report = w.job(None).runner().ckpt(cfg("hpl", 4, time::secs(2))).run().unwrap();
    let restart = report.restart_spec("hpl", 0, w.n()).unwrap();

    let sum = Arc::new(Mutex::new(0u64));
    w.job(Some(sum.clone())).runner().restart(restart).run().unwrap();
    assert_eq!(*sum.lock(), want, "restarted factorization diverged");
}

#[test]
fn hpl_restart_under_regular_protocol_is_exact() {
    let w = small_hpl();
    let want = hpl::sequential_digest_sum(w.panels, w.grid_rows, w.grid_cols);
    let report = w.job(None).runner().ckpt(cfg("hpl", 8, time::secs(2))).run().unwrap();
    let restart = report.restart_spec("hpl", 0, w.n()).unwrap();
    let sum = Arc::new(Mutex::new(0u64));
    w.job(Some(sum.clone())).runner().restart(restart).run().unwrap();
    assert_eq!(*sum.lock(), want);
}

fn small_miner() -> MotifMinerWorkload {
    MotifMinerWorkload {
        n: 8,
        iterations: 8,
        iter_compute: time::ms(400),
        footprint: 25 * MB,
        exchange_bytes: 512 * 1024,
        atoms: 40,
        imbalance: 0.2,
    }
}

#[test]
fn motifminer_checkpoint_and_restart_are_exact() {
    let w = small_miner();
    let truth = Arc::new(Mutex::new(0u64));
    w.job(Some(truth.clone())).runner().run().unwrap();
    let want = *truth.lock();

    let mid = Arc::new(Mutex::new(0u64));
    let report =
        w.job(Some(mid.clone())).runner().ckpt(cfg("motifminer", 2, time::ms(900))).run().unwrap();
    assert_eq!(*mid.lock(), want, "checkpointing perturbed the mining result");

    let restart = report.restart_spec("motifminer", 0, w.n).unwrap();
    let restarted = Arc::new(Mutex::new(0u64));
    w.job(Some(restarted.clone())).runner().restart(restart).run().unwrap();
    assert_eq!(*restarted.lock(), want, "restarted mining diverged");
}

#[test]
fn random_traffic_restart_equivalence_across_patterns_and_group_sizes() {
    // A light property sweep: several pattern seeds × checkpoint group
    // sizes, each with a mid-run epoch and a restart. The watermark/replay
    // machinery must hold for arbitrary pairings and mixed message sizes.
    for pattern_seed in [11u64, 29, 73] {
        let w = RandomTraffic { pattern_seed, ..Default::default() };
        let truth = Arc::new(Mutex::new(Vec::new()));
        w.job(Some(truth.clone())).runner().run().unwrap();
        let mut want = truth.lock().clone();
        want.sort();

        for group_size in [2u32, 4, 8] {
            let mid = Arc::new(Mutex::new(Vec::new()));
            let report = w
                .job(Some(mid.clone()))
                .runner()
                .ckpt(cfg("random-traffic", group_size, time::ms(1700)))
                .run()
                .unwrap();
            let mut got = mid.lock().clone();
            got.sort();
            assert_eq!(got, want, "seed={pattern_seed} g={group_size}: ckpt run diverged");

            let restart = report.restart_spec("random-traffic", 0, w.n).unwrap();
            let re = Arc::new(Mutex::new(Vec::new()));
            w.job(Some(re.clone())).runner().restart(restart).run().unwrap();
            let mut got = re.lock().clone();
            got.sort();
            assert_eq!(got, want, "seed={pattern_seed} g={group_size}: restart diverged");
        }
    }
}

#[test]
fn hpl_effective_delay_group_4_beats_regular() {
    // The headline claim at test scale: group-based beats regular for the
    // HPL-like workload.
    // The benefit needs paper-like ratios: the per-panel compute chunk must
    // be comparable to (or exceed) one group's storage-write time, so that
    // non-checkpointing groups overlap computation with the writes.
    let w = HplWorkload {
        grid_rows: 4,
        grid_cols: 2,
        panels: 16,
        base_footprint: 120 * MB,
        factor_time: time::ms(200),
        update_time: time::ms(3000),
        panel_bytes: 2 * MB,
        update_substeps: 4,
    };
    let base = w.job(None).runner().run().unwrap();
    let at = time::secs(6);
    let all = w.job(None).runner().ckpt(cfg("hpl", 8, at)).run().unwrap();
    let grouped = w.job(None).runner().ckpt(cfg("hpl", 2, at)).run().unwrap();
    let d_all = all.effective_delay(&base);
    let d_grp = grouped.effective_delay(&base);
    // At this toy scale (4 rows, tiny writes) the win is modest; the
    // paper-scale reproduction (32 ranks, paper parameters) lives in the
    // fig5/fig6 benches and EXPERIMENTS.md.
    assert!(
        (d_grp as f64) < 0.85 * d_all as f64,
        "grouped delay {} not clearly better than regular {}",
        time::fmt(d_grp),
        time::fmt(d_all)
    );
}
