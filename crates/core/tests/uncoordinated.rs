//! Uncoordinated checkpointing (§2.1's first category): independent
//! snapshots plus always-on message logging — cheap storage contention,
//! expensive failure-free logging.

use bytes::Bytes;
use gbcr_core::{CkptMode, CkptSchedule, CoordinatorCfg, Formation, JobSpec, RankCtx};
use gbcr_des::time;
use gbcr_mpi::Msg;
use gbcr_storage::MB;
use std::sync::Arc;

fn ring_job(steps: u64, msg_size: u64) -> JobSpec {
    let body = Arc::new(move |ctx: RankCtx<'_>| {
        let RankCtx { p, mpi, world: _, client, restored } = ctx;
        client.set_footprint(60 * MB);
        let start: u64 =
            restored.map(|b| u64::from_le_bytes(b.as_ref().try_into().unwrap())).unwrap_or(0);
        let n = mpi.size();
        let right = (mpi.rank() + 1) % n;
        let left = (mpi.rank() + n - 1) % n;
        for step in start..steps {
            client.set_state(Bytes::copy_from_slice(&step.to_le_bytes()));
            mpi.compute(p, time::ms(50));
            let tag = (step % 900) as u32;
            let s = mpi.isend(p, right, tag, Msg::bulk(msg_size));
            let _ = mpi.recv(p, Some(left), tag);
            mpi.wait(p, s);
        }
    });
    JobSpec::new("uncoord", 8, body)
}

fn cfg(mode: CkptMode) -> CoordinatorCfg {
    CoordinatorCfg {
        job: "uncoord".into(),
        mode,
        formation: Formation::regular(8),
        schedule: CkptSchedule::once(time::secs(2)),
        incremental: false,
        deadlines: gbcr_core::PhaseDeadlines::none(),
        election: Default::default(),
    }
}

#[test]
fn snapshots_are_staggered_and_independent() {
    let spec = ring_job(400, 16 * 1024);
    let report = spec.runner().ckpt(cfg(CkptMode::Uncoordinated)).run().unwrap();
    let ep = &report.epochs[0];
    assert_eq!(ep.individuals.len(), 8);
    // Each rank writes alone (staggered 2 s apart, writes take ~0.52 s),
    // so every individual time is near the single-client write time.
    for &(r, ind) in &ep.individuals {
        let s = time::as_secs_f64(ind);
        assert!(s < 1.2, "rank {r} should write alone, got {s:.2}s");
    }
    // The "epoch" spans the full stagger schedule.
    assert!(ep.total_time() >= time::secs(14), "7 × 2 s stagger");
    // No coordination artifacts: no teardowns, no deferred traffic.
    assert_eq!(report.net_stats.teardowns, 0);
    assert_eq!(report.defer_stats.msg_buffered + report.defer_stats.req_buffered, 0);
    // All images durable (even though they do not form a consistent cut).
    for r in 0..8 {
        assert!(report.images.iter().any(|(n, _)| n == &format!("ckpt/uncoord/e0/r{r}")));
    }
}

#[test]
fn always_on_logging_is_the_failure_free_cost() {
    // Rendezvous-sized traffic: logging forfeits zero-copy and copies
    // every payload for the WHOLE run, not just during epochs.
    let spec = ring_job(300, 2 * MB);
    let base = spec.runner().run().unwrap();
    let un = spec.runner().ckpt(cfg(CkptMode::Uncoordinated)).run().unwrap();
    // 8 ranks × 300 steps × 2 MB all logged:
    assert!(
        un.logged_bytes >= 8 * 300 * 2 * MB,
        "every payload must be logged: got {}",
        un.logged_bytes
    );
    // The logging overhead shows up as a longer run even though the
    // snapshots themselves barely collide.
    assert!(
        un.completion > base.completion,
        "always-on logging must cost wall time: {} vs {}",
        time::fmt(un.completion),
        time::fmt(base.completion)
    );
    // Group-based logs nothing and defers instead.
    let grouped = spec
        .runner()
        .ckpt(CoordinatorCfg {
            job: "uncoord".into(),
            mode: CkptMode::Buffering,
            formation: Formation::Static { group_size: 4 },
            schedule: CkptSchedule::once(time::secs(2)),
            incremental: false,
            deadlines: gbcr_core::PhaseDeadlines::none(),
            election: Default::default(),
        })
        .run()
        .unwrap();
    assert_eq!(grouped.logged_bytes, 0);
}
