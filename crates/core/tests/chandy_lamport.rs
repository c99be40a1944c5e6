//! The idealized Chandy-Lamport non-blocking comparator (§2.1): snapshots
//! flow in the background, markers cross every channel, channel state is
//! logged — and everybody still writes to storage at the same time.

use bytes::Bytes;
use gbcr_core::{
    CkptMode, CkptSchedule, CoordinatorCfg, Formation, JobSpec, RankCtx,
};
use gbcr_des::time;
use gbcr_mpi::Msg;
use gbcr_storage::MB;
use std::sync::Arc;

fn ring_job_paced(
    steps: u64,
    footprint: u64,
    msg_size: u64,
    compute_ms: u64,
) -> JobSpec {
    let body = Arc::new(move |ctx: RankCtx<'_>| {
        let RankCtx { p, mpi, world: _, client, restored } = ctx;
        client.set_footprint(footprint);
        let start: u64 = restored
            .map(|b| u64::from_le_bytes(b.as_ref().try_into().unwrap()))
            .unwrap_or(0);
        let n = mpi.size();
        let right = (mpi.rank() + 1) % n;
        let left = (mpi.rank() + n - 1) % n;
        for step in start..steps {
            client.set_state(Bytes::copy_from_slice(&step.to_le_bytes()));
            mpi.compute(p, time::ms(compute_ms));
            let tag = (step % 900) as u32;
            let s = mpi.isend(p, right, tag, Msg::bulk(msg_size));
            let _ = mpi.recv(p, Some(left), tag);
            mpi.wait(p, s);
        }
    });
    JobSpec::new("cl", 8, body)
}

fn ring_job(steps: u64, footprint: u64, msg_size: u64) -> JobSpec {
    ring_job_paced(steps, footprint, msg_size, 100)
}

/// Desynchronized pairwise exchange: a round-robin tournament schedule
/// pairs the ranks differently each step, with per-rank compute jitter, so
/// channels carry rendezvous payloads at arbitrary instants.
fn desync_pairs_job(steps: u64, footprint: u64, msg_size: u64) -> JobSpec {
    fn partner(n: u32, step: u64, rank: u32) -> u32 {
        let m = n - 1;
        let round = (step % u64::from(m)) as u32;
        let pos = |r: u32| if r == m { m } else { (r + round) % m };
        let unpos = |q: u32| if q == m { m } else { (q + m - round % m) % m };
        let q = pos(rank);
        let mate = if q == m { 0 } else if q == 0 { m } else { m - q };
        unpos(mate)
    }
    let body = Arc::new(move |ctx: RankCtx<'_>| {
        let RankCtx { p, mpi, world: _, client, restored } = ctx;
        client.set_footprint(footprint);
        let start: u64 = restored
            .map(|b| u64::from_le_bytes(b.as_ref().try_into().unwrap()))
            .unwrap_or(0);
        let n = mpi.size();
        for step in start..steps {
            client.set_state(Bytes::copy_from_slice(&step.to_le_bytes()));
            // Deterministic jitter keeps ranks out of lockstep.
            let jitter = u64::from((mpi.rank() * 7 + (step % 13) as u32) % 11);
            mpi.compute(p, time::ms(6 + jitter));
            let mate = partner(n, step, mpi.rank());
            let tag = (step % 900) as u32;
            let s = mpi.isend(p, mate, tag, Msg::bulk(msg_size));
            let _ = mpi.recv(p, Some(mate), tag);
            mpi.wait(p, s);
        }
    });
    JobSpec::new("pairs", 8, body)
}

fn cl_cfg(at_secs: u64) -> CoordinatorCfg {
    CoordinatorCfg {
        job: "cl".into(),
        mode: CkptMode::ChandyLamport,
        formation: Formation::regular(8), // ignored by CL
        schedule: CkptSchedule::once(time::secs(at_secs)),
        incremental: false,
        deadlines: gbcr_core::PhaseDeadlines::none(),
        election: Default::default(),
    }
}

#[test]
fn cl_epoch_completes_with_all_images_durable() {
    let spec = ring_job(150, 60 * MB, 32 * 1024);
    let report = spec.runner().ckpt(cl_cfg(3)).run().unwrap();
    assert_eq!(report.epochs.len(), 1);
    let ep = &report.epochs[0];
    assert_eq!(ep.individuals.len(), 8);
    for r in 0..8 {
        assert!(report.images.iter().any(|(n, _)| n == &format!("ckpt/cl/e0/r{r}")));
    }
    // CL never tears connections down.
    assert_eq!(report.net_stats.teardowns, 0);
    assert!(report.rank_records.iter().all(|r| r.connections_torn == 0));
}

#[test]
fn cl_is_nonblocking_but_still_hits_the_storage_bottleneck() {
    // Large footprint: the writes dominate. Non-blocking means the
    // *effective delay* is far below the blocking regular protocol's, but
    // the *total checkpoint time* is just as long (everyone shares B).
    let spec = ring_job(150, 150 * MB, 32 * 1024);
    let base = spec.runner().run().unwrap();

    let cl = spec.runner().ckpt(cl_cfg(3)).run().unwrap();
    let blocking = spec.runner().ckpt(CoordinatorCfg {
            job: "cl".into(),
            mode: CkptMode::Buffering,
            formation: Formation::regular(8),
            schedule: CkptSchedule::once(time::secs(3)),
            incremental: false,
            deadlines: gbcr_core::PhaseDeadlines::none(),
            election: Default::default(),
        }).run()
    .unwrap();

    let cl_eff = cl.effective_delay(&base);
    let blocking_eff = blocking.effective_delay(&base);
    assert!(
        (cl_eff as f64) < 0.3 * blocking_eff as f64,
        "idealized CL should barely delay the app: {} vs blocking {}",
        time::fmt(cl_eff),
        time::fmt(blocking_eff)
    );
    // But the storage bottleneck is identical: all 8 ranks write at once,
    // so the total checkpoint time matches the blocking protocol's.
    let cl_total = cl.epochs[0].total_time();
    let blocking_total = blocking.epochs[0].total_time();
    assert!(
        (cl_total as f64 - blocking_total as f64).abs() / (blocking_total as f64) < 0.15,
        "CL total {} should match blocking total {} (same B/N sharing)",
        time::fmt(cl_total),
        time::fmt(blocking_total)
    );
}

#[test]
fn cl_logs_channel_state_bytes() {
    // A lockstep ring leaves every channel empty between exchanges, so use
    // desynchronized random pairwise traffic with rendezvous-sized
    // payloads: channels are busy at arbitrary instants and whatever is in
    // flight ahead of a marker lands inside the [own snapshot, marker]
    // window — channel state that must be logged.
    let spec = desync_pairs_job(400, 100 * MB, 3 * MB);
    let mut cfg = cl_cfg(3);
    cfg.job = "pairs".into();
    let report = spec.runner().ckpt(cfg).run().unwrap();
    assert!(
        report.channel_logged_bytes > 0,
        "in-flight traffic during the marker wave must be logged"
    );
    // The group-based protocol logs nothing, ever.
    let grouped = spec.runner().ckpt(CoordinatorCfg {
            job: "pairs".into(),
            mode: CkptMode::Buffering,
            formation: Formation::Static { group_size: 4 },
            schedule: CkptSchedule::once(time::secs(3)),
            incremental: false,
            deadlines: gbcr_core::PhaseDeadlines::none(),
            election: Default::default(),
        }).run()
    .unwrap();
    assert_eq!(grouped.channel_logged_bytes, 0);
    assert_eq!(grouped.logged_bytes, 0);
}

#[test]
fn cl_runs_do_not_perturb_results() {
    // Determinism check via completion comparison on a deterministic ring:
    // two CL runs are identical; results handled by the shared machinery.
    let spec = ring_job(150, 40 * MB, 32 * 1024);
    let a = spec.runner().ckpt(cl_cfg(2)).run().unwrap();
    let b = spec.runner().ckpt(cl_cfg(2)).run().unwrap();
    assert_eq!(a.completion, b.completion);
    assert_eq!(a.channel_logged_bytes, b.channel_logged_bytes);
}
