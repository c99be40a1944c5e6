//! Failure recovery end to end: run the MotifMiner-like job with periodic
//! group-based checkpoints, "lose the machine" mid-run, restart the job
//! from the last completed global checkpoint on a fresh cluster, and show
//! that the mining result is identical to an uninterrupted run.
//!
//! Run with: `cargo run --release --example failure_recovery`

use gbcr_core::{CkptSchedule, CoordinatorCfg};
use gbcr_des::time;
use gbcr_workloads::MotifMinerWorkload;
use parking_lot::Mutex;
use std::sync::Arc;

fn main() {
    let w = MotifMinerWorkload::default();

    // Ground truth: the uninterrupted run's result digest.
    let truth = Arc::new(Mutex::new(0u64));
    let base = w.job(Some(truth.clone())).runner().run().expect("baseline");
    let want = *truth.lock();
    println!(
        "uninterrupted run: {:.1} s, result digest {want:#018x}",
        time::as_secs_f64(base.completion)
    );

    // Production-style run: periodic group-based checkpoints.
    let at = vec![time::secs(60), time::secs(200)];
    let cfg = CoordinatorCfg::new("motifminer", 4, CkptSchedule { at });
    // Disaster: the whole cluster power-fails at t = 420 s (every simulated
    // process killed mid-flight). All that survives is the central storage.
    let report =
        w.job(None).runner().ckpt(cfg).crash_at(time::secs(420)).run().expect("crashed run");
    println!(
        "run crashed at 420 s; {} checkpoint epochs had completed (at {:.0} s and {:.0} s)",
        report.epochs.len(),
        time::as_secs_f64(report.epochs[0].requested_at),
        time::as_secs_f64(report.epochs[1].requested_at),
    );
    let restart = report.latest_restart_spec("motifminer", w.n).expect("a committed epoch");
    println!(
        "restarting all {} ranks from epoch {} ({} durable images salvaged)",
        w.n,
        restart.epoch,
        restart.images.len()
    );

    // Fresh simulation = fresh cluster; the restart storm reads every image
    // back through the shared storage model before computing resumes.
    let recovered = Arc::new(Mutex::new(0u64));
    let rr =
        w.job(Some(recovered.clone())).runner().restart(restart).run().expect("restarted run");
    let got = *recovered.lock();
    println!(
        "restarted run: completed the remaining work in {:.1} s, digest {got:#018x}",
        time::as_secs_f64(rr.completion)
    );

    assert_eq!(got, want, "recovered result must equal the uninterrupted result");
    println!("recovery verified: restarted result identical to the uninterrupted run.");
}
