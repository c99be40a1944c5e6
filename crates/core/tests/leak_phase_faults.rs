//! Leak regression for phase-faulted jobs: a phase fault hangs a hook on
//! every controller, and the job owns its controllers, so a hook that held
//! the job strongly would keep the whole world alive after the run. Lives
//! in its own integration-test binary, apart from `leak.rs`, so that
//! binary's RSS check never runs beside a leaking job.

use bytes::Bytes;
use gbcr_core::{CkptSchedule, CoordinatorCfg, JobSpec, RankCtx};
use gbcr_des::time;
use gbcr_faults::{FaultConfig, PhaseAction, PhaseFault, ProtocolPhase};
use gbcr_mpi::{Mpi, Msg, WeakMpi};
use std::sync::Arc;

#[test]
fn phase_faulted_jobs_free_their_world() {
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
    let spec = JobSpec::new("leak-phase", 8, body);
    // The paper's buffering protocol over two groups of four.
    let ckpt = CoordinatorCfg::new("leak-phase", 4, CkptSchedule::once(time::ms(50)));
    let stall = PhaseFault {
        epoch: 0,
        phase: ProtocolPhase::Checkpoint,
        rank: 1,
        action: PhaseAction::Stall(time::ms(5)),
    };
    let faults = FaultConfig { phase_faults: vec![stall], ..FaultConfig::none() };
    let mut weaks: Vec<WeakMpi> = Vec::new();
    let keep = |mpis: &[Mpi]| weaks = mpis.iter().map(Mpi::downgrade).collect();
    let report = spec.runner().ckpt(ckpt).faults(&faults).run_with(keep).expect("job completes");
    assert_eq!(report.finished_ranks, 8);
    assert_eq!(report.epochs.len(), 1, "the checkpoint must actually happen");
    drop((report, spec));
    assert_eq!(weaks.len(), 8);
    assert!(
        weaks.iter().all(|w| w.upgrade().is_none()),
        "a phase-faulted rank runtime outlived its job's report"
    );
}
