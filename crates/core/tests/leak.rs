//! Leak regression: a finished job must free its whole world. Lives in
//! its own integration-test binary because the RSS assertion needs a
//! process no other test allocates in.

use bytes::Bytes;
use gbcr_core::{CkptMode, CkptSchedule, CoordinatorCfg, Formation, JobSpec, RankCtx};
use gbcr_des::time;
use gbcr_mpi::{Mpi, Msg, WeakMpi};
use std::sync::Arc;

/// An 8-rank ring exchange with one group-of-4 checkpoint mid-run; returns
/// a weak reference to every rank's runtime once the report is dropped.
fn checkpointed_run() -> Vec<WeakMpi> {
    let body = Arc::new(|ctx: RankCtx<'_>| {
        let RankCtx { p, mpi, client, .. } = ctx;
        client.set_footprint(1 << 20);
        let (n, r) = (mpi.size(), mpi.rank());
        for step in 0..20u64 {
            client.set_state(Bytes::copy_from_slice(&step.to_le_bytes()));
            mpi.compute(p, time::ms(10));
            let s = mpi.isend(p, (r + 1) % n, step as u32, Msg::bulk(4096));
            let _ = mpi.recv(p, Some((r + n - 1) % n), step as u32);
            mpi.wait(p, s);
        }
    });
    let spec = JobSpec::new("leak", 8, body);
    let ckpt = CoordinatorCfg {
        job: "leak".into(),
        mode: CkptMode::Buffering,
        formation: Formation::Static { group_size: 4 },
        schedule: CkptSchedule::once(time::ms(50)),
        incremental: false,
        deadlines: gbcr_core::PhaseDeadlines::none(),
        election: Default::default(),
    };
    let mut weaks = Vec::new();
    let keep = |mpis: &[Mpi]| weaks = mpis.iter().map(Mpi::downgrade).collect();
    let report = spec.runner().ckpt(ckpt).run_with(keep).expect("job completes");
    assert_eq!(report.finished_ranks, 8);
    assert_eq!(report.epochs.len(), 1, "the checkpoint must actually happen");
    drop((report, spec));
    weaks
}

fn vm_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

#[test]
fn finished_jobs_free_their_world() {
    let taken = checkpointed_run();
    assert_eq!(taken.len(), 8);
    // Each runtime owns the world (fabrics, the des handle and through it
    // the process table), so a dead runtime with no other owner left is
    // the whole job gone.
    assert!(
        taken.iter().all(|w| w.upgrade().is_none()),
        "a rank runtime outlived its job's report"
    );

    // Warm the allocator, then require flat memory over many more jobs.
    for _ in 0..20 {
        checkpointed_run();
    }
    let Some(before) = vm_rss_kb() else {
        return; // no procfs: the liveness half above is the test
    };
    for _ in 0..300 {
        checkpointed_run();
    }
    let after = vm_rss_kb().expect("procfs was readable a moment ago");
    let grown = after.saturating_sub(before);
    assert!(grown < 1024, "300 jobs grew VmRSS by {grown} kB ({before} -> {after})");
}
