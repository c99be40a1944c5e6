//! [`gbcr_core::JobRunner`] regressions: the `JobSpec` builder is a pure
//! convenience over struct construction, and a crashed run restarts
//! through [`gbcr_core::JobRunner::restart`].

use gbcr_core::{CkptMode, CkptSchedule, CoordinatorCfg, Formation};
use gbcr_des::time;
use gbcr_storage::MB;
use gbcr_workloads::MicroBench;

fn mb() -> MicroBench {
    MicroBench {
        n: 4,
        comm_group_size: 2,
        footprint: 20 * MB,
        steps: 60,
        ..Default::default()
    }
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
