//! Quickstart: build a simulated 16-rank MPI job, take one group-based
//! checkpoint mid-run, and print the paper's three metrics.
//!
//! Run with: `cargo run --release --example quickstart`

use bytes::Bytes;
use gbcr_core::{CkptSchedule, CoordinatorCfg, JobSpec, RankCtx};
use gbcr_des::{time, TraceLevel};
use gbcr_mpi::Msg;
use gbcr_storage::MB;
use std::sync::Arc;

fn main() {
    // --- The application: 16 ranks, iterating compute + neighbor exchange.
    // Each rank registers its restartable state (the iteration counter)
    // with the checkpoint client every step and declares a 120 MB
    // footprint — that is what a checkpoint writes to central storage.
    let body = Arc::new(|ctx: RankCtx<'_>| {
        let RankCtx { p, mpi, world: _, client, restored } = ctx;
        client.set_footprint(120 * MB);
        let start =
            restored.map(|b| u64::from_le_bytes(b.as_ref().try_into().unwrap())).unwrap_or(0);
        let n = mpi.size();
        let right = (mpi.rank() + 1) % n;
        let left = (mpi.rank() + n - 1) % n;
        for step in start..120 {
            client.set_state(Bytes::copy_from_slice(&step.to_le_bytes()));
            mpi.compute(p, time::ms(500));
            let tag = (step % 1000) as u32;
            let s = mpi.isend(p, right, tag, Msg::bulk(64 * 1024));
            let _ = mpi.recv(p, Some(left), tag);
            mpi.wait(p, s);
        }
    });
    let spec = JobSpec::new("quickstart", 16, body);

    // --- Baseline run (no checkpoint).
    let baseline = spec.runner().run().expect("baseline run");
    println!("baseline completion: {:.1} s", time::as_secs_f64(baseline.completion));

    // --- One group-based checkpoint at t = 20 s, groups of 4.
    let cfg = CoordinatorCfg::new("quickstart", 4, CkptSchedule::once(time::secs(20)));
    let ck = spec.runner().ckpt(cfg).traced(TraceLevel::Phases).run().expect("checkpointed run");
    let ep = &ck.epochs[0];

    println!(
        "checkpointed completion: {:.1} s  ({} groups of 4)",
        time::as_secs_f64(ck.completion),
        ep.plan.group_count()
    );
    println!("--- the paper's three metrics (§5) ---");
    let m = gbcr_bench::Cell::measure(&baseline, &ck);
    println!("Individual Checkpoint Time : {:.1} s (mean over ranks)", m.individual);
    println!("Total Checkpoint Time      : {:.1} s (request -> all images durable)", m.total);
    println!("Effective Checkpoint Delay : {:.1} s (completion-time increase)", m.effective);
    println!(
        "images on central storage  : {}",
        ck.images.iter().filter(|(n, _)| n.starts_with("ckpt/")).count()
    );
    println!("\n--- epoch timeline (group staircase) ---");
    let trace = ck.trace.as_deref().expect("traced run records spans");
    print!("{}", gbcr_metrics::render_epoch_trace(trace, 64));
}
