//! [`gbcr_core::JobRunner`] regressions: the `JobSpec` builder is a pure
//! convenience over struct construction, and a crashed run restarts
//! through [`gbcr_core::JobRunner::restart`].

use gbcr_core::{CkptMode, CkptSchedule, CoordinatorCfg, Formation};
use gbcr_des::time;
use gbcr_mpi::ListenerStats;
use gbcr_storage::MB;
use gbcr_workloads::MicroBench;

fn mb() -> MicroBench {
    MicroBench { n: 4, comm_group_size: 2, footprint: 20 * MB, steps: 60, ..Default::default() }
}

fn cfg(group_size: u32, at: Vec<gbcr_des::Time>) -> CoordinatorCfg {
    CoordinatorCfg {
        job: "micro".into(),
        mode: CkptMode::Buffering,
        formation: Formation::Static { group_size },
        schedule: CkptSchedule { at },
        incremental: false,
        deadlines: gbcr_core::PhaseDeadlines::none(),
        election: Default::default(),
    }
}

#[test]
fn restart_runs_through_runner_restart_path() {
    // A crash → restart round-trip must complete: the runner owns the
    // RestartSpec's lost-nodes-then-preload order.
    let spec = mb().job();
    let c = cfg(4, vec![time::secs(2)]);
    let crashed = spec.runner().ckpt(c.clone()).crash_at(time::secs(4)).run().unwrap();
    let restart = crashed.latest_restart_spec("micro", 4).expect("epoch 0 committed");
    let restored = spec.runner().ckpt(c).restart(restart).run().unwrap();
    assert_eq!(restored.finished_ranks, 4);
}

/// A simulation and everything built from its handle stay on one thread
/// (`SimHandle` and `Fabric` carry the `compile_fail` half of this); what
/// the harness workers share by reference or hand back through a
/// `OnceLock` — specs, configs, reports — must still cross.
#[test]
fn specs_configs_and_reports_are_send_and_sync() {
    fn crosses_threads<T: Send + Sync>() {}
    crosses_threads::<gbcr_core::JobSpec>();
    crosses_threads::<gbcr_core::cluster::ClusterSpec>();
    crosses_threads::<CoordinatorCfg>();
    crosses_threads::<gbcr_core::RunReport>();
    crosses_threads::<gbcr_core::SupervisedReport>();
    crosses_threads::<gbcr_core::cluster::ClusterReport>();
}

/// `RunReport::oob_stats` counts the out-of-band plane, which
/// `net_stats` does not: in a fault-free static job with one epoch, every
/// rank hears `GROUP_START` and `GROUP_DONE` for each of the n/g groups
/// and ACKs each `GROUP_START` (3n²/g in all), exchanges six more
/// messages with the coordinator for the epoch (`EPOCH_BEGIN` and its ACK,
/// `GROUP_GO`, `RANK_DONE`, `EPOCH_END` and its ACK), and two that every
/// job pays (`FINISHED`, `SHUTDOWN`).
#[test]
fn oob_stats_count_the_coordinator_protocol_exactly() {
    for (n, g, expect) in [(16, 4, 320), (16, 16, 176), (64, 8, 2048)] {
        let mb =
            MicroBench { n, comm_group_size: 4, footprint: MB, steps: 40, ..Default::default() };
        let report = mb.job().runner().ckpt(cfg(g, vec![time::secs(1)])).run().unwrap();
        assert_eq!(report.epochs.len(), 1);
        assert_eq!(report.oob_stats.messages, u64::from(n * (3 * n / g + 8)), "n={n} g={g}");
        assert_eq!(report.oob_stats.messages, expect);
        let plain = mb.job().runner().run().unwrap();
        assert_eq!(plain.oob_stats.messages, u64::from(2 * n), "n={n}, no checkpoint");
    }
}

/// `RunReport::listener` sums what every rank's listeners answered in its
/// stead. The gate's broadcasts are 2·n·⌈n/g⌉ of the out-of-band
/// messages, and no other kind is answered at arrival, so that bounds
/// `oob`; the exact values say how much of the gate takes the fast path.
#[test]
fn listener_stats_count_the_gate_broadcasts_answered_at_arrival() {
    for (n, g, oob, handshakes) in [(16, 4, 128, 1268), (16, 16, 32, 1268), (64, 8, 1024, 5072)] {
        let mb =
            MicroBench { n, comm_group_size: 4, footprint: MB, steps: 40, ..Default::default() };
        let report = mb.job().runner().ckpt(cfg(g, vec![time::secs(1)])).run().unwrap();
        let listener = report.listener;
        assert!(listener.oob <= u64::from(2 * n * n.div_ceil(g)), "n={n} g={g}: {listener:?}");
        assert_eq!(listener, ListenerStats { oob, handshakes }, "n={n} g={g}");
    }
}
