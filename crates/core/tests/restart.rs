//! Restart fidelity: a job killed after a checkpoint epoch and restarted
//! from its images must produce exactly the results of an uninterrupted
//! run. Exercises image round-trips, the restart storm through storage,
//! MPI library-state re-injection, and deterministic replay.

use bytes::Bytes;
use gbcr_blcr::codec::{Checkpointable, Decoder, Encoder};
use gbcr_core::{CkptMode, CkptSchedule, CoordinatorCfg, Formation, JobSpec, RankCtx};
use gbcr_des::time;
use gbcr_mpi::Msg;
use gbcr_storage::MB;
use parking_lot::Mutex;
use std::sync::Arc;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct AppState {
    step: u64,
    acc: u64,
}

impl Checkpointable for AppState {
    fn save(&self, enc: &mut Encoder) {
        enc.put_u64(self.step);
        enc.put_u64(self.acc);
    }
    fn restore(dec: &mut Decoder) -> Result<Self, gbcr_blcr::CodecError> {
        Ok(AppState { step: dec.get_u64()?, acc: dec.get_u64()? })
    }
}

/// Deterministic ring workload: every step mixes the left neighbour's
/// accumulator into ours. Tags are stamped with the step number so replay
/// after restart can never cross-match iterations. Periodically a large
/// (rendezvous) message exercises the request-buffering path.
type Results = Arc<Mutex<Vec<(u32, u64)>>>;

fn ring_job(steps: u64) -> (JobSpec, Results) {
    let results: Arc<Mutex<Vec<(u32, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let out = results.clone();
    let body = Arc::new(move |ctx: RankCtx<'_>| {
        let RankCtx { p, mpi, world: _, client, restored } = ctx;
        client.set_footprint(40 * MB);
        let mut st = match restored {
            Some(b) => AppState::from_bytes(b).expect("valid app state"),
            None => AppState { step: 0, acc: u64::from(mpi.rank()) + 1 },
        };
        let n = mpi.size();
        let right = (mpi.rank() + 1) % n;
        let left = (mpi.rank() + n - 1) % n;
        while st.step < steps {
            client.set_state(st.to_bytes());
            mpi.compute(p, time::ms(40));
            let tag = (st.step % 500) as u32;
            // Every 7th step ships a large rendezvous payload too.
            let big = st.step % 7 == 0;
            let payload = if big {
                Msg::with_size(Bytes::copy_from_slice(&st.acc.to_le_bytes()), 2 * MB)
            } else {
                Msg::u64(st.acc)
            };
            let s = mpi.isend(p, right, tag, payload);
            let got = mpi.recv(p, Some(left), tag);
            mpi.wait(p, s);
            st.acc = st
                .acc
                .wrapping_mul(1_000_003)
                .wrapping_add(got.as_u64())
                .wrapping_add(u64::from(mpi.rank()));
            st.step += 1;
        }
        out.lock().push((mpi.rank(), st.acc));
    });
    (JobSpec::new("ring", 8, body), results)
}

fn sorted(v: &Mutex<Vec<(u32, u64)>>) -> Vec<(u32, u64)> {
    let mut v = v.lock().clone();
    v.sort();
    v
}

fn ckpt(group_size: u32, at_secs: u64) -> CoordinatorCfg {
    CoordinatorCfg {
        job: "ring".into(),
        mode: CkptMode::Buffering,
        formation: Formation::Static { group_size },
        schedule: CkptSchedule::once(time::secs(at_secs)),
        incremental: false,
        deadlines: gbcr_core::PhaseDeadlines::none(),
        election: Default::default(),
    }
}

#[test]
fn restart_reproduces_uninterrupted_results_group_based() {
    // Ground truth: uninterrupted run.
    let (spec, results) = ring_job(200);
    spec.runner().run().unwrap();
    let want = sorted(&results);
    assert_eq!(want.len(), 8);

    // Run with a mid-flight group-based checkpoint (2 groups of 4).
    let (spec2, results2) = ring_job(200);
    let report = spec2.runner().ckpt(ckpt(4, 3)).run().unwrap();
    assert_eq!(report.epochs.len(), 1);
    assert_eq!(sorted(&results2), want, "checkpointing must not alter results");

    // "Crash" and restart from the epoch: replay must converge to the
    // same answers.
    let (spec3, results3) = ring_job(200);
    let restart = report.restart_spec("ring", 0, 8).unwrap();
    let restarted = spec3.runner().restart(restart).run().unwrap();
    assert_eq!(sorted(&results3), want, "restarted run diverged");
    assert!(restarted.completion > 0);
}

#[test]
fn restart_reproduces_results_regular_protocol() {
    let (spec, results) = ring_job(120);
    spec.runner().run().unwrap();
    let want = sorted(&results);

    let (spec2, _r2) = ring_job(120);
    let report = spec2.runner().ckpt(ckpt(8, 2)).run().unwrap();

    let (spec3, results3) = ring_job(120);
    spec3.runner().restart(report.restart_spec("ring", 0, 8).unwrap()).run().unwrap();
    assert_eq!(sorted(&results3), want);
}

#[test]
fn restart_from_each_of_two_epochs() {
    let (spec, results) = ring_job(200);
    spec.runner().run().unwrap();
    let want = sorted(&results);

    let (spec2, _r) = ring_job(200);
    let cfg = CoordinatorCfg {
        job: "ring".into(),
        mode: CkptMode::Buffering,
        formation: Formation::Static { group_size: 2 },
        schedule: CkptSchedule { at: vec![time::secs(2), time::secs(8)] },
        incremental: false,
        deadlines: gbcr_core::PhaseDeadlines::none(),
        election: Default::default(),
    };
    let report = spec2.runner().ckpt(cfg).run().unwrap();
    assert_eq!(report.epochs.len(), 2);

    for epoch in 0..2u64 {
        let (spec3, results3) = ring_job(200);
        spec3.runner().restart(report.restart_spec("ring", epoch, 8).unwrap()).run().unwrap();
        assert_eq!(sorted(&results3), want, "restart from epoch {epoch} diverged");
    }
}

#[test]
fn restarted_run_can_checkpoint_again_and_restart_again() {
    let (spec, results) = ring_job(260);
    spec.runner().run().unwrap();
    let want = sorted(&results);

    let (spec2, _r) = ring_job(260);
    let report1 = spec2.runner().ckpt(ckpt(4, 2)).run().unwrap();
    let restart1 = report1.restart_spec("ring", 0, 8).unwrap();

    // Restart, checkpoint the restarted run under a new job name, restart
    // again from that second-generation image set.
    let (spec3, _r3) = ring_job(260);
    let cfg2 = CoordinatorCfg {
        job: "ring-gen2".into(),
        mode: CkptMode::Buffering,
        formation: Formation::Static { group_size: 4 },
        schedule: CkptSchedule::once(time::secs(3)),
        incremental: false,
        deadlines: gbcr_core::PhaseDeadlines::none(),
        election: Default::default(),
    };
    let report2 = spec3.runner().ckpt(cfg2).restart(restart1).run().unwrap();
    assert_eq!(report2.epochs.len(), 1);

    let (spec4, results4) = ring_job(260);
    spec4.runner().restart(report2.restart_spec("ring-gen2", 0, 8).unwrap()).run().unwrap();
    assert_eq!(sorted(&results4), want, "second-generation restart diverged");
}

#[test]
fn restart_from_incomplete_epoch_is_rejected() {
    let (spec, _r) = ring_job(80);
    let report = spec.runner().ckpt(ckpt(4, 1)).run().unwrap();
    // Ask for an epoch that never ran: a typed error, not a panic, so
    // callers (the supervisor) can degrade to an older epoch.
    let err = report.restart_spec("ring", 7, 8).unwrap_err();
    match err {
        gbcr_des::SimError::NoRestartPoint { job, detail } => {
            assert_eq!(job, "ring");
            assert!(detail.contains("epoch 7 has no committed manifest"), "got: {detail}");
        }
        other => panic!("expected NoRestartPoint, got {other:?}"),
    }
}
