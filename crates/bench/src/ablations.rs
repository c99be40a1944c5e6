//! Ablations of the paper's individual design choices:
//!
//! * **helper thread** (§4.4): with the passive-coordination helper thread
//!   disabled, a checkpointing member's per-connection FLUSH round waits
//!   for computing peers' next MPI calls instead of the 100 ms progress
//!   bound.
//! * **buffering split** (§4.3): how many bytes *message* buffering copies
//!   versus how many *request* buffering keeps un-copied, against what
//!   full message logging would have copied.
//! * **logging** (§2.1/§7): the message-logging alternative's failure-free
//!   cost compared with deferral.
//! * **group formation** (§4.1): static versus dynamic formation when the
//!   application's communication groups are not rank-contiguous.

use crate::{cells, static_cfg, sweep_one};
use gbcr_core::{CkptMode, CkptSchedule, CoordinatorCfg, Formation, JobSpec};
use gbcr_des::{time, Time};
use gbcr_metrics::{run_sweep, SweepGroup, Table};
use gbcr_storage::MB;
use gbcr_workloads::{GroupLayout, MicroBench, MotifMinerWorkload};

/// Result of the helper-thread ablation.
#[derive(Debug, Clone, Copy)]
pub struct ProgressAblation {
    /// Effective delay with the helper thread (seconds).
    pub with_helper: f64,
    /// Effective delay without it (seconds).
    pub without_helper: f64,
}

/// §4.4: run a compute-heavy workload (MotifMiner's long chunks) with and
/// without the helper thread. Without it, FLUSH_ACKs from computing peers
/// arrive only at their next library call, stretching every group's
/// pre-checkpoint coordination.
pub fn progress_ablation(threads: Option<usize>) -> ProgressAblation {
    // t = 130 s: the first allgather (≈115 s) has established the ring
    // connections and every rank is deep in iteration 1's compute, so the
    // members' FLUSH rounds depend on passive peers' progress.
    let groups: Vec<SweepGroup> = [true, false]
        .iter()
        .map(|&helper| {
            let mut spec = MotifMinerWorkload::default().job(None);
            spec.mpi.helper_thread = helper;
            SweepGroup::new(spec, vec![static_cfg("motifminer", 4, time::secs(130))])
        })
        .collect();
    let reports = run_sweep(&groups, threads).expect("ablation runs");
    let eff = |helper: usize| cells(&reports[helper])[0].effective;
    ProgressAblation { with_helper: eff(0), without_helper: eff(1) }
}

/// Title of the §4.4 helper-thread ablation table, as `bench_results.txt` records it.
pub const PROGRESS_TITLE: &str =
    "Ablation §4.4 — passive-coordination helper thread (MotifMiner, g=4, t=130 s)";

/// Render the §4.4 ablation.
pub fn progress_table(a: &ProgressAblation) -> Table {
    let mut t = Table::new(
        PROGRESS_TITLE,
        &["helper thread", "effective delay (s)"],
    );
    t.row(&["enabled (100 ms bound)".into(), format!("{:.1}", a.with_helper)]);
    t.row(&["disabled".into(), format!("{:.1}", a.without_helper)]);
    t
}

/// Result of the buffering-split ablation.
#[derive(Debug, Clone, Copy)]
pub struct BufferingAblation {
    /// Operations / bytes held by message buffering (copied).
    pub msg_ops: u64,
    /// Bytes message buffering copied.
    pub msg_bytes: u64,
    /// Operations request buffering kept incomplete.
    pub req_ops: u64,
    /// User bytes request buffering did **not** copy.
    pub req_bytes: u64,
}

impl BufferingAblation {
    /// Bytes full message logging would have copied for the same deferred
    /// traffic (both classes).
    pub fn logging_equivalent_bytes(&self) -> u64 {
        self.msg_bytes + self.req_bytes
    }
}

/// §4.3: run a group-based checkpoint over mixed eager/rendezvous traffic
/// and account where the deferred bytes went.
pub fn buffering_ablation(threads: Option<usize>) -> BufferingAblation {
    // Issue the checkpoint at a point where ranks reach their next panel's
    // cross-group communication inside the epoch, so traffic actually
    // defers (at t=50 s the whole epoch fits inside panel 0's update and
    // nothing needs buffering — which is itself the paper's best case).
    let w = gbcr_workloads::HplWorkload::default();
    let gr = sweep_one(&w.job(None), vec![static_cfg("hpl", 4, time::secs(100))], threads);
    let d = &gr.runs[0].defer_stats;
    BufferingAblation {
        msg_ops: d.msg_buffered,
        msg_bytes: d.msg_buffered_bytes,
        req_ops: d.req_buffered,
        req_bytes: d.req_buffered_bytes,
    }
}

/// Title of the §4.3 buffering-split ablation table, as `bench_results.txt` records it.
pub const BUFFERING_TITLE: &str =
    "Ablation §4.3 — message vs request buffering (HPL, g=4, t=100 s)";

/// Render the §4.3 ablation.
pub fn buffering_table(a: &BufferingAblation) -> Table {
    let mut t = Table::new(
        BUFFERING_TITLE,
        &["class", "deferred ops", "bytes copied", "bytes NOT copied"],
    );
    t.row(&[
        "message buffering (small/eager)".into(),
        a.msg_ops.to_string(),
        format!("{:.1} MB", a.msg_bytes as f64 / MB as f64),
        "0".into(),
    ]);
    t.row(&[
        "request buffering (large/rendezvous)".into(),
        a.req_ops.to_string(),
        "0".into(),
        format!("{:.1} MB", a.req_bytes as f64 / MB as f64),
    ]);
    t.row(&[
        "full message logging would copy".into(),
        (a.msg_ops + a.req_ops).to_string(),
        format!("{:.1} MB", a.logging_equivalent_bytes() as f64 / MB as f64),
        "-".into(),
    ]);
    t
}

/// Result of the logging-mode ablation.
#[derive(Debug, Clone, Copy)]
pub struct LoggingAblation {
    /// Effective delay under deferral/buffering (seconds).
    pub buffering_effective: f64,
    /// Effective delay under message logging (seconds).
    pub logging_effective: f64,
    /// Bytes copied into logs during the epoch.
    pub logged_bytes: u64,
}

/// §2.1/§7: the message-logging alternative on a message-rate-heavy
/// micro-benchmark. Logging lets everything flow (no deferral stalls) but
/// copies every message and forfeits zero-copy rendezvous.
pub fn logging_ablation(threads: Option<usize>) -> LoggingAblation {
    let mb = MicroBench {
        msg_size: 2 * MB, // rendezvous-sized: logging forfeits zero-copy
        step_compute: time::ms(50),
        ..Default::default()
    };
    let cfg = |mode: CkptMode| CoordinatorCfg { mode, ..static_cfg("micro", 8, time::secs(10)) };
    let gr = sweep_one(&mb.job(), vec![cfg(CkptMode::Buffering), cfg(CkptMode::Logging)], threads);
    let c = cells(&gr);
    LoggingAblation {
        buffering_effective: c[0].effective,
        logging_effective: c[1].effective,
        logged_bytes: gr.runs[1].logged_bytes,
    }
}

/// Title of the §2.1/§7 logging ablation table, as `bench_results.txt` records it.
pub const LOGGING_TITLE: &str =
    "Ablation §2.1/§7 — deferral (buffering) vs message logging (micro, 2 MB msgs, g=8)";

/// Render the logging ablation.
pub fn logging_table(a: &LoggingAblation) -> Table {
    let mut t = Table::new(
        LOGGING_TITLE,
        &["mode", "effective delay (s)", "bytes logged"],
    );
    t.row(&["buffering (paper)".into(), format!("{:.1}", a.buffering_effective), "0".into()]);
    t.row(&[
        "message logging".into(),
        format!("{:.1}", a.logging_effective),
        format!("{:.0} MB", a.logged_bytes as f64 / MB as f64),
    ]);
    t
}

/// Result of the Chandy-Lamport comparator study (§2.1).
#[derive(Debug, Clone, Copy)]
pub struct ChandyLamportAblation {
    /// Effective delay, idealized non-blocking CL (seconds).
    pub cl_effective: f64,
    /// Total checkpoint time, CL (seconds).
    pub cl_total: f64,
    /// Channel-state bytes CL logged.
    pub cl_logged: u64,
    /// Effective delay, group-based g=4 (seconds).
    pub grouped_effective: f64,
    /// Total checkpoint time, group-based (seconds).
    pub grouped_total: f64,
    /// Effective delay, regular blocking All(32) (seconds).
    pub regular_effective: f64,
}

/// §2.1: an *idealized* non-blocking Chandy-Lamport checkpoint (background
/// writes, no connection teardown — infeasible on real InfiniBand) against
/// regular blocking and group-based checkpointing on the micro-benchmark.
/// CL minimizes the effective delay but leaves every process writing at
/// once (same total time as regular = long vulnerability window) and logs
/// channel state; group-based keeps the total sliced and logs nothing.
pub fn chandy_lamport_ablation(threads: Option<usize>) -> ChandyLamportAblation {
    let mb = MicroBench::default();
    let cfg =
        |mode: CkptMode, g: u32| CoordinatorCfg { mode, ..static_cfg("micro", g, time::secs(30)) };
    let gr = sweep_one(
        &mb.job(),
        vec![
            cfg(CkptMode::ChandyLamport, 32),
            cfg(CkptMode::Buffering, 4),
            cfg(CkptMode::Buffering, 32),
        ],
        threads,
    );
    let c = cells(&gr);
    let (cl, grouped, regular) = (c[0], c[1], c[2]);
    ChandyLamportAblation {
        cl_effective: cl.effective,
        cl_total: cl.total,
        cl_logged: gr.runs[0].channel_logged_bytes,
        grouped_effective: grouped.effective,
        grouped_total: grouped.total,
        regular_effective: regular.effective,
    }
}

/// Title of the §2.1 Chandy-Lamport comparator table, as `bench_results.txt` records it.
pub const CHANDY_LAMPORT_TITLE: &str =
    "Comparator §2.1 — idealized non-blocking Chandy-Lamport vs blocking protocols (micro, 32 ranks)";

/// Render the CL comparator study.
pub fn chandy_lamport_table(a: &ChandyLamportAblation) -> Table {
    let mut t = Table::new(
        CHANDY_LAMPORT_TITLE,
        &["protocol", "effective (s)", "total ckpt time (s)", "logs", "IB-feasible"],
    );
    t.row(&[
        "regular blocking All(32)".into(),
        format!("{:.1}", a.regular_effective),
        format!("{:.1}", a.cl_total), // same storage sharing as CL
        "none".into(),
        "yes".into(),
    ]);
    t.row(&[
        "Chandy-Lamport (idealized)".into(),
        format!("{:.1}", a.cl_effective),
        format!("{:.1}", a.cl_total),
        format!("{:.1} MB channel state", a.cl_logged as f64 / MB as f64),
        "no (NIC state, §2.2)".into(),
    ]);
    t.row(&[
        "group-based g=4 (paper)".into(),
        format!("{:.1}", a.grouped_effective),
        format!("{:.1}", a.grouped_total),
        "none".into(),
        "yes".into(),
    ]);
    t
}

/// Result of the incremental-checkpointing extension study (§8).
#[derive(Debug, Clone, Copy)]
pub struct IncrementalAblation {
    /// Second-epoch Total Checkpoint Time with full images (seconds).
    pub full_total: f64,
    /// Second-epoch Total Checkpoint Time with incremental images.
    pub incremental_total: f64,
    /// Second-epoch effective delay with full images.
    pub full_effective: f64,
    /// Second-epoch effective delay with incremental images.
    pub incremental_effective: f64,
}

/// §8 (future work, implemented): group-based + incremental checkpointing.
/// MotifMiner's candidate tables churn ~1/12 of the footprint per
/// iteration, so the second epoch's incremental images are an order of
/// magnitude smaller than full ones. (HPL is the counter-case: its
/// trailing update dirties nearly the whole footprint between epochs, so
/// incremental buys little there — both behaviors are real.)
pub fn incremental_ablation(threads: Option<usize>) -> IncrementalAblation {
    let w = MotifMinerWorkload::default();
    let at = vec![time::secs(30), time::secs(150)];
    let full = CoordinatorCfg::new("motifminer", 4, CkptSchedule { at });
    let cfg = |incremental: bool| CoordinatorCfg { incremental, ..full.clone() };
    let gr = sweep_one(&w.job(None), vec![cfg(false), cfg(true)], threads);
    let (full, inc) = (&gr.runs[0], &gr.runs[1]);
    let c = cells(&gr);
    IncrementalAblation {
        full_total: time::as_secs_f64(full.epochs[1].total_time()),
        incremental_total: time::as_secs_f64(inc.epochs[1].total_time()),
        full_effective: c[0].effective,
        incremental_effective: c[1].effective,
    }
}

/// Title of the §8 incremental extension table, as `bench_results.txt` records it.
pub const INCREMENTAL_TITLE: &str =
    "Extension §8 — group-based + incremental checkpointing (MotifMiner, g=4, epochs at 30/150 s)";

/// Render the incremental extension study.
pub fn incremental_table(a: &IncrementalAblation) -> Table {
    let mut t = Table::new(
        INCREMENTAL_TITLE,
        &["images", "2nd-epoch total (s)", "run effective delay, both epochs (s)"],
    );
    t.row(&["full".into(), format!("{:.1}", a.full_total), format!("{:.1}", a.full_effective)]);
    t.row(&[
        "incremental".into(),
        format!("{:.1}", a.incremental_total),
        format!("{:.1}", a.incremental_effective),
    ]);
    t
}

/// Result of the group-formation ablation.
#[derive(Debug, Clone, Copy)]
pub struct FormationAblation {
    /// Effective delay with static (rank-order) groups of 4 (seconds).
    pub static_effective: f64,
    /// Effective delay with dynamically formed groups (seconds).
    pub dynamic_effective: f64,
    /// Groups the dynamic formation found.
    pub dynamic_groups: usize,
}

/// §4.1: strided communication groups (members `{i, i+8, i+16, i+24}`)
/// defeat rank-order static formation; dynamic formation recovers the true
/// groups from measured traffic.
pub fn formation_ablation(threads: Option<usize>) -> FormationAblation {
    let mb = MicroBench {
        comm_group_size: 4,
        layout: GroupLayout::Strided,
        ..Default::default()
    };
    let spec: JobSpec = mb.job();
    let at: Time = time::secs(30);
    let dyn_cfg = CoordinatorCfg {
        formation: Formation::Dynamic {
            frequent_fraction: 0.2,
            fallback_group_size: 4,
            max_group_size: 8,
        },
        ..static_cfg("micro", 4, at)
    };
    let gr = sweep_one(&spec, vec![static_cfg("micro", 4, at), dyn_cfg], threads);
    let c = cells(&gr);
    FormationAblation {
        static_effective: c[0].effective,
        dynamic_effective: c[1].effective,
        dynamic_groups: gr.runs[1].epochs[0].plan.group_count(),
    }
}

/// Title of the §4.1 formation ablation table, as `bench_results.txt` records it.
pub const FORMATION_TITLE: &str =
    "Ablation §4.1 — static vs dynamic formation (strided comm groups of 4)";

/// Render the formation ablation.
pub fn formation_table(a: &FormationAblation) -> Table {
    let mut t = Table::new(
        FORMATION_TITLE,
        &["formation", "effective delay (s)", "groups"],
    );
    t.row(&["static by rank (misaligned)".into(), format!("{:.1}", a.static_effective), "8".into()]);
    t.row(&[
        "dynamic (traffic closure)".into(),
        format!("{:.1}", a.dynamic_effective),
        a.dynamic_groups.to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helper_thread_bounds_coordination_delay() {
        let a = progress_ablation(None);
        assert!(
            a.without_helper > a.with_helper + 5.0,
            "disabling the helper thread must visibly stretch the delay: {a:?}"
        );
    }

    #[test]
    fn request_buffering_avoids_most_copies() {
        let a = buffering_ablation(None);
        assert!(a.req_ops > 0, "rendezvous traffic must have been deferred: {a:?}");
        assert!(
            a.req_bytes > 4 * a.msg_bytes,
            "request buffering should dodge the bulk of the bytes: {a:?}"
        );
    }

    #[test]
    fn logging_copies_bytes_that_buffering_does_not() {
        let a = logging_ablation(None);
        assert!(a.logged_bytes > 100 * MB, "epoch traffic must be logged: {a:?}");
    }

    #[test]
    fn idealized_cl_minimizes_delay_but_not_total() {
        let a = chandy_lamport_ablation(None);
        assert!(a.cl_effective < 0.3 * a.regular_effective, "{a:?}");
        assert!(
            (a.cl_total - a.regular_effective).abs() / a.regular_effective < 0.2,
            "CL total should match the regular protocol's storage-bound time: {a:?}"
        );
        assert!(a.grouped_total > 2.0 * a.grouped_effective, "{a:?}");
    }

    #[test]
    fn incremental_shrinks_later_epochs() {
        let a = incremental_ablation(None);
        assert!(
            a.incremental_total < 0.75 * a.full_total,
            "incremental second epoch should be much cheaper: {a:?}"
        );
        assert!(a.incremental_effective <= a.full_effective + 1.0);
    }

    #[test]
    fn dynamic_formation_recovers_strided_groups() {
        let a = formation_ablation(None);
        assert_eq!(a.dynamic_groups, 8, "dynamic formation should find the 8 true groups");
        assert!(
            a.dynamic_effective < 0.75 * a.static_effective,
            "dynamic groups must beat misaligned static ones: {a:?}"
        );
    }
}
