//! End-to-end checkpoint protocol tests: the paper's timing identities
//! (§5, Eq. 2–3), consistency, overlap, logging ablation, and dynamic
//! formation.

use bytes::Bytes;
use gbcr_core::{CkptMode, CkptSchedule, CoordinatorCfg, Formation, JobSpec, RankCtx};
use gbcr_des::{time, Time};
use gbcr_mpi::Msg;
use gbcr_storage::MB;
use std::sync::Arc;

const FOOT: u64 = 180 * MB; // the paper's micro-benchmark footprint

/// Micro-benchmark body: ranks exchange within fixed communication groups
/// (blocking ring within each group) with `compute_ms` of work per step —
/// the workload of paper §6.1.
fn comm_group_body(comm_group: usize, steps: u64, compute_ms: u64) -> gbcr_core::JobSpec {
    let body = Arc::new(move |ctx: RankCtx<'_>| {
        let RankCtx { p, mpi, world, client, restored } = ctx;
        client.set_footprint(FOOT);
        let start: u64 = restored
            .map(|b| u64::from_le_bytes(b.as_ref().try_into().expect("8-byte state")))
            .unwrap_or(0);
        let n = mpi.size();
        let g = comm_group as u32;
        let base = (mpi.rank() / g) * g;
        let comm = world.comm((base..base + g).collect());
        for step in start..steps {
            client.set_state(Bytes::copy_from_slice(&step.to_le_bytes()));
            mpi.compute(p, time::ms(compute_ms));
            if g > 1 {
                let idx = comm.index_of(mpi.rank()).unwrap();
                let right = comm.member((idx + 1) % comm.size());
                let left = comm.member((idx + comm.size() - 1) % comm.size());
                let s = mpi.isend(p, right, (step % 1000) as u32, Msg::bulk(64 * 1024));
                let _ = mpi.recv(p, Some(left), (step % 1000) as u32);
                mpi.wait(p, s);
            }
        }
        let _ = n;
    });
    JobSpec::new("proto-test", 8, body)
}

fn group_ckpt(job: &str, group_size: u32, at: Time) -> CoordinatorCfg {
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

#[test]
fn regular_checkpoint_matches_eq2_individual_time() {
    // Eq. 2a: Individual ≈ footprint × N / B, identical for every rank.
    let spec = comm_group_body(4, 40, 500);
    let report = spec.runner().ckpt(group_ckpt("proto-test", 8, time::secs(3))).run().unwrap();
    assert_eq!(report.epochs.len(), 1);
    let ep = &report.epochs[0];
    assert_eq!(ep.individuals.len(), 8);
    // 8 ranks × 180 MB at ~140 MB/s aggregate ≈ 10.3 s each.
    let expect = 8.0 * 180.0 / 140.0;
    for &(r, ind) in &ep.individuals {
        let s = time::as_secs_f64(ind);
        assert!(
            (s - expect).abs() / expect < 0.15,
            "rank {r}: individual {s:.2}s vs expected ~{expect:.2}s"
        );
    }
    // Eq. 2b: Total ≈ Individual for regular checkpointing.
    let total = time::as_secs_f64(ep.total_time());
    let mean_ind = time::as_secs_f64(ep.mean_individual());
    assert!((total - mean_ind) / total < 0.15, "total {total:.2} vs individual {mean_ind:.2}");
}

#[test]
fn group_checkpoint_matches_eq3_individual_and_total() {
    let spec = comm_group_body(4, 40, 500);
    let report = spec.runner().ckpt(group_ckpt("proto-test", 4, time::secs(3))).run().unwrap();
    let ep = &report.epochs[0];
    assert_eq!(ep.plan.group_count(), 2);
    // Eq. 3a: Individual ≈ footprint × group_size / B ≈ 5.14 s.
    let expect = 4.0 * 180.0 / 140.0;
    for &(r, ind) in &ep.individuals {
        let s = time::as_secs_f64(ind);
        assert!(
            (s - expect).abs() / expect < 0.2,
            "rank {r}: individual {s:.2}s vs expected ~{expect:.2}s"
        );
    }
    // Eq. 3b: Total ≈ groups × Individual.
    let total = time::as_secs_f64(ep.total_time());
    let want_total = 2.0 * expect;
    assert!(
        (total - want_total).abs() / want_total < 0.2,
        "total {total:.2}s vs ~{want_total:.2}s"
    );
}

#[test]
fn effective_delay_lies_between_individual_and_total() {
    // §5: Individual ≤ Effective ≤ Total for group-based checkpointing,
    // with a compute-heavy workload so non-checkpointing groups overlap.
    let spec = comm_group_body(4, 24, 1000);
    let base = spec.runner().run().unwrap();
    let ck = spec.runner().ckpt(group_ckpt("proto-test", 4, time::secs(5))).run().unwrap();
    assert_eq!(base.epochs.len(), 0);
    let ep = &ck.epochs[0];
    let effective = ck.effective_delay(&base);
    assert!(
        effective >= ep.mean_individual() * 9 / 10,
        "effective {} below individual {}",
        time::fmt(effective),
        time::fmt(ep.mean_individual())
    );
    assert!(
        effective <= ep.total_time() + time::secs(1),
        "effective {} above total {}",
        time::fmt(effective),
        time::fmt(ep.total_time())
    );
    // And grouping must beat the regular protocol's effective delay.
    let ck_all = spec.runner().ckpt(group_ckpt("proto-test", 8, time::secs(5))).run().unwrap();
    let effective_all = ck_all.effective_delay(&base);
    assert!(
        effective < effective_all,
        "group-based {} not better than regular {}",
        time::fmt(effective),
        time::fmt(effective_all)
    );
}

#[test]
fn all_images_are_durable_and_complete() {
    let spec = comm_group_body(2, 30, 400);
    let report = spec.runner().ckpt(group_ckpt("proto-test", 2, time::secs(2))).run().unwrap();
    // 8 ranks × 1 epoch.
    let image_names: Vec<&str> =
        report.images.iter().map(|(n, _)| n.as_str()).filter(|n| n.starts_with("ckpt/")).collect();
    assert_eq!(image_names.len(), 8);
    for r in 0..8 {
        assert!(image_names.contains(&format!("ckpt/proto-test/e0/r{r}").as_str()));
    }
    // Deferral machinery must have engaged and fully drained.
    assert_eq!(
        report.defer_stats.released,
        report.defer_stats.msg_buffered + report.defer_stats.req_buffered
    );
}

#[test]
fn multiple_epochs_in_one_run() {
    let spec = comm_group_body(4, 40, 500);
    let cfg = CoordinatorCfg {
        job: "proto-test".into(),
        mode: CkptMode::Buffering,
        formation: Formation::Static { group_size: 4 },
        schedule: CkptSchedule { at: vec![time::secs(2), time::secs(18)] },
        incremental: false,
        deadlines: gbcr_core::PhaseDeadlines::none(),
        election: Default::default(),
    };
    let report = spec.runner().ckpt(cfg).run().unwrap();
    assert_eq!(report.epochs.len(), 2);
    assert_eq!(report.epochs[0].epoch, 0);
    assert_eq!(report.epochs[1].epoch, 1);
    assert!(report.epochs[1].requested_at > report.epochs[0].finished_at);
    // Both epochs' image sets exist under distinct names.
    assert!(report.images.iter().any(|(n, _)| n == "ckpt/proto-test/e0/r0"));
    assert!(report.images.iter().any(|(n, _)| n == "ckpt/proto-test/e1/r0"));
}

#[test]
fn logging_mode_counts_bytes_and_keeps_gates_open() {
    let spec = comm_group_body(4, 30, 300);
    let cfg = CoordinatorCfg {
        job: "proto-test".into(),
        mode: CkptMode::Logging,
        formation: Formation::Static { group_size: 4 },
        schedule: CkptSchedule::once(time::secs(2)),
        incremental: false,
        deadlines: gbcr_core::PhaseDeadlines::none(),
        election: Default::default(),
    };
    let report = spec.runner().ckpt(cfg).run().unwrap();
    assert!(report.logged_bytes > 0, "messages during the epoch must be logged");
    assert_eq!(
        report.defer_stats.msg_buffered + report.defer_stats.req_buffered,
        0,
        "logging mode never defers"
    );
    assert_eq!(report.epochs.len(), 1);
}

#[test]
fn dynamic_formation_discovers_comm_groups() {
    // Communication groups of 2 → dynamic formation should find 4 groups
    // of exactly the communicating pairs.
    let spec = comm_group_body(2, 40, 300);
    let cfg = CoordinatorCfg {
        job: "proto-test".into(),
        mode: CkptMode::Buffering,
        formation: Formation::Dynamic { fallback_group_size: 4, max_group_size: 6 },
        schedule: CkptSchedule::once(time::secs(3)),
        incremental: false,
        deadlines: gbcr_core::PhaseDeadlines::none(),
        election: Default::default(),
    };
    let report = spec.runner().ckpt(cfg).run().unwrap();
    let plan = &report.epochs[0].plan;
    assert_eq!(plan.group_count(), 4, "groups: {:?}", plan.groups());
    assert_eq!(plan.groups()[0], vec![0, 1]);
    assert_eq!(plan.groups()[3], vec![6, 7]);
}

#[test]
fn dynamic_formation_falls_back_for_global_patterns() {
    // Comm group == world: one closure of 8 > max_group_size → fallback.
    let spec = comm_group_body(8, 30, 300);
    let cfg = CoordinatorCfg {
        job: "proto-test".into(),
        mode: CkptMode::Buffering,
        formation: Formation::Dynamic { fallback_group_size: 2, max_group_size: 6 },
        schedule: CkptSchedule::once(time::secs(3)),
        incremental: false,
        deadlines: gbcr_core::PhaseDeadlines::none(),
        election: Default::default(),
    };
    let report = spec.runner().ckpt(cfg).run().unwrap();
    assert_eq!(report.epochs[0].plan.group_count(), 4, "static fallback of size 2");
}

#[test]
fn connections_are_torn_down_and_rebuilt() {
    let spec = comm_group_body(4, 40, 300);
    let report = spec.runner().ckpt(group_ckpt("proto-test", 4, time::secs(3))).run().unwrap();
    let teardowns = report.net_stats.teardowns;
    assert!(teardowns >= 8, "each rank tears its ring connections: got {teardowns}");
    // Lazy rebuild: connects > initial connects (workload continues after).
    let rec = &report.rank_records;
    assert_eq!(rec.len(), 8);
    assert!(rec.iter().all(|r| r.connections_torn >= 1));
}

#[test]
fn baseline_run_without_checkpoints_is_unperturbed() {
    let spec = comm_group_body(4, 20, 100);
    let a = spec.runner().run().unwrap();
    let b = spec.runner().run().unwrap();
    assert_eq!(a.completion, b.completion, "deterministic replay");
    assert!(a.epochs.is_empty());
    assert_eq!(a.rank_records.len(), 0);
    assert_eq!(a.defer_stats.msg_buffered + a.defer_stats.req_buffered, 0);
}
