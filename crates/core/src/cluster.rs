//! Multi-tenant cluster service mode: many concurrent jobs in **one**
//! simulation, contending for shared infrastructure.
//!
//! The sweep harness runs independent cells; a production cluster runs
//! many *interfering* jobs that share one storage array and the fabric.
//! [`run_cluster`] admits every tenant's [`JobSpec`] into a single
//! [`Sim`], with each tenant carrying its own checkpoint policy
//! ([`TenantPolicy`]: interval, phase offset, group size, backend).
//!
//! One switch, [`ClusterSpec::contention`], models the shared
//! infrastructure:
//!
//! * **storage** — every central-backend tenant writes through one shared
//!   processor-sharing [`gbcr_storage::Storage`] device, the paper's
//!   testbed array ([`StorageConfig::paper_testbed`]), so co-tenant
//!   checkpoint storms split its aggregate bandwidth exactly like
//!   co-scheduled ranks of one job do. Replicated-backend tenants are
//!   diskless (per-node in-memory stores) and never touch the array.
//! * **fabric** — each tenant's data-plane [`gbcr_net::NetConfig`] is
//!   derated to its static fair share of the cluster link
//!   ([`gbcr_net::NetConfig::shared_among`] the tenant count), the
//!   bandwidth-tax model of a fully-bisectional fabric carrying every
//!   tenant at once.
//!
//! With contention **off**, every tenant gets the exact private substrate
//! a solo [`crate::JobRunner`] run would build, and — because no model
//! code draws from the simulation RNG and tenants exchange no messages —
//! each tenant's outputs are **byte-identical** to its solo run (gated by
//! a proptest). That independence is the baseline the `fig10`
//! interference study measures against.

use crate::coordinator::{CkptSchedule, CoordinatorCfg, EpochReport};
use crate::controller::RankCkptRecord;
use crate::job::{drain, install_job, JobParts, JobSpec, RunReport, StoreBackend};
use gbcr_des::trace::PhaseStat;
use gbcr_des::{Sim, SimResult, Time, TraceData, TraceLevel};
use gbcr_mpi::DeferStats;
use gbcr_storage::{CheckpointStore, Storage, StorageConfig, StorageStats};
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;

/// A tenant's checkpoint policy: when to checkpoint, in what formation,
/// and through which backend. The knobs the interference study sweeps.
#[derive(Debug, Clone)]
pub struct TenantPolicy {
    /// Virtual time between checkpoint epochs.
    pub interval: Time,
    /// Offset of the first epoch — staggering offsets across tenants
    /// de-synchronizes the cluster's checkpoint storms.
    pub offset: Time,
    /// Number of scheduled epochs.
    pub epochs: u32,
    /// Static group size (`n` = cluster-wide coordinated checkpointing,
    /// the paper's baseline; smaller = group-based).
    pub group_size: u32,
    /// Checkpoint-store backend (overrides the spec's). `Central` tenants
    /// contend for the shared array; `Replicated` tenants are diskless.
    pub backend: StoreBackend,
}

impl TenantPolicy {
    /// The absolute epoch schedule this policy expands to.
    pub fn schedule(&self) -> CkptSchedule {
        CkptSchedule {
            at: (0..self.epochs)
                .map(|e| self.offset + Time::from(e) * self.interval)
                .collect(),
        }
    }

    /// The coordinator configuration this policy expands to for job
    /// `name`: static groups of `group_size`, the policy's absolute
    /// schedule, buffering mode, no deadlines, no election — the
    /// steady-state service configuration. Solo baseline runs use the
    /// same expansion, so cluster-vs-solo comparisons are policy-exact.
    pub fn ckpt_cfg(&self, name: &str) -> CoordinatorCfg {
        CoordinatorCfg::new(name, self.group_size, self.schedule())
    }
}

/// One admitted job: its workload spec plus its checkpoint policy.
#[derive(Clone)]
pub struct ClusterTenant {
    /// The workload (name, ranks, body, substrate configs). Tenant names
    /// must be unique across the cluster — they namespace checkpoint
    /// objects on the shared array.
    pub spec: JobSpec,
    /// The tenant's checkpoint policy.
    pub policy: TenantPolicy,
}

/// The whole cluster: shared infrastructure plus the admitted tenants.
#[derive(Clone)]
pub struct ClusterSpec {
    /// Simulation seed (model outputs are independent of it — kept for
    /// parity with [`JobSpec::seed`] and future stochastic arrivals).
    pub seed: u64,
    /// Model shared-resource contention. `false` gives every tenant the
    /// private substrate a solo run would build (the independence
    /// baseline); `true` shares one array and derates the fabric.
    pub contention: bool,
    /// The admitted jobs.
    pub tenants: Vec<ClusterTenant>,
}

impl ClusterSpec {
    /// A cluster with contention on.
    pub fn new(tenants: Vec<ClusterTenant>) -> Self {
        ClusterSpec { seed: 0, contention: true, tenants }
    }
}

/// One tenant's model outputs from a cluster run. Exactly the fields a
/// solo [`RunReport`] carries for the same job (see
/// [`TenantReport::from_run`]), so contention-off cluster runs can be
/// compared byte-for-byte (via `Debug`) against solo runs.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant (job) name.
    pub name: String,
    /// Latest time any of the tenant's ranks finished its body.
    pub completion: Time,
    /// Per-epoch checkpoint reports from the tenant's coordinator.
    pub epochs: Vec<EpochReport>,
    /// Per-rank, per-epoch checkpoint records.
    pub rank_records: Vec<RankCkptRecord>,
    /// The tenant's data-fabric counters.
    pub net_stats: gbcr_net::NetStats,
    /// Aggregated buffering counters across the tenant's ranks.
    pub defer_stats: DeferStats,
    /// Bytes message-logged (Logging mode only).
    pub logged_bytes: u64,
    /// Channel-state bytes logged (Chandy-Lamport mode only).
    pub channel_logged_bytes: u64,
    /// How many of the tenant's ranks ran to completion.
    pub finished_ranks: u32,
}

impl TenantReport {
    /// Project a solo run's report down to the per-tenant view — the
    /// solo side of the cluster-vs-solo identity check.
    pub fn from_run(name: &str, report: &RunReport) -> Self {
        TenantReport {
            name: name.to_owned(),
            completion: report.completion,
            epochs: report.epochs.clone(),
            rank_records: report.rank_records.clone(),
            net_stats: report.net_stats.clone(),
            defer_stats: report.defer_stats,
            logged_bytes: report.logged_bytes,
            channel_logged_bytes: report.channel_logged_bytes,
            finished_ranks: report.finished_ranks,
        }
    }

    /// P99 (by the nearest-rank method) of this tenant's epoch latencies
    /// ([`EpochReport::total_time`]), or 0 with no epochs.
    pub fn p99_epoch(&self) -> Time {
        percentile(self.epochs.iter().map(|e| e.total_time()), 0.99)
    }
}

/// Nearest-rank percentile of a latency population (`q` in 0..=1), 0 when
/// empty. Sorted ascending; rank `ceil(q * len)` (1-based, clamped).
pub fn percentile(samples: impl IntoIterator<Item = Time>, q: f64) -> Time {
    let mut v: Vec<Time> = samples.into_iter().collect();
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Everything measured from one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Per-tenant model outputs, in admission order.
    pub tenants: Vec<TenantReport>,
    /// Transfer stats of the shared array: one entry with contention on
    /// (whether or not any tenant wrote to it), none with it off, when
    /// every tenant has a private substrate.
    pub storage_stats: Vec<StorageStats>,
    /// When the whole cluster simulation drained.
    pub sim_end: Time,
    /// Simulated events dispatched (simulator cost, not a model output).
    pub events: u64,
    /// Simulated processes spawned across all tenants.
    pub procs_spawned: u64,
    /// High-water mark of simultaneously live simulated processes.
    pub peak_live_procs: u64,
    /// Per-span-name latency statistics (empty unless traced).
    pub phase_stats: Vec<PhaseStat>,
    /// The raw trace, present only when the run was traced. Coordinator
    /// spans carry a `job` argument, so a traced cluster run attributes
    /// every phase's time to its tenant.
    pub trace: Option<Arc<TraceData>>,
}

/// Admit every tenant into one simulation and run the cluster to
/// completion.
///
/// Admission builds the shared array (contention on), gives it to every
/// central-backend tenant, derates each tenant's data fabric to its fair
/// share, and installs each tenant through the same
/// `install_job` prologue a solo run uses — same operation order per
/// tenant, so contention-off runs reproduce solo runs byte-for-byte.
pub fn run_cluster(spec: &ClusterSpec, trace: Option<TraceLevel>) -> SimResult<ClusterReport> {
    let names: HashSet<&str> = spec.tenants.iter().map(|t| t.spec.name.as_str()).collect();
    assert_eq!(
        names.len(),
        spec.tenants.len(),
        "tenant names must be unique (they namespace checkpoint objects)"
    );

    let sim = Sim::new(spec.seed);
    if let Some(level) = trace {
        sim.handle().tracer().set_level(level);
    }
    let h = sim.handle();

    // Admission: with contention on, central-backend tenants share one
    // array. Replicated tenants are diskless.
    let shared: Option<Rc<dyn CheckpointStore>> = spec
        .contention
        .then(|| Rc::new(Storage::new(h.clone(), StorageConfig::paper_testbed())) as _);

    let mut parts: Vec<JobParts> = Vec::with_capacity(spec.tenants.len());
    for tenant in &spec.tenants {
        let mut jspec = tenant.spec.clone();
        jspec.backend = tenant.policy.backend;
        if spec.contention {
            // Static fair share of the cluster fabric: every tenant's
            // data plane carries 1/k of the link bandwidth.
            jspec.mpi.net = jspec.mpi.net.shared_among(spec.tenants.len() as u64);
        }
        let ckpt = tenant.policy.ckpt_cfg(&jspec.name);
        let store = shared
            .clone()
            .filter(|_| matches!(tenant.policy.backend, StoreBackend::Central));
        parts.push(install_job(&h, &jspec, Some(ckpt), None, store));
    }

    let mut sim = sim;
    let run = drain(&mut sim)?;
    let tenants = spec
        .tenants
        .iter()
        .zip(&parts)
        .map(|(tenant, p)| {
            let (defer_stats, logged_bytes) = p.defer_and_logged();
            TenantReport {
                name: tenant.spec.name.clone(),
                completion: p.completion(run.sim_end),
                epochs: p.coordinator.reports(),
                rank_records: p.rank_records(),
                net_stats: p.coordinator.ctx().world.net_stats(),
                defer_stats,
                logged_bytes,
                channel_logged_bytes: p.channel_logged_bytes(),
                finished_ranks: p.finished_ranks(),
            }
        })
        .collect();
    let storage_stats = shared.iter().map(|s| s.storage_stats()).collect();
    Ok(ClusterReport {
        tenants,
        storage_stats,
        sim_end: run.sim_end,
        events: run.events,
        procs_spawned: run.procs_spawned,
        peak_live_procs: run.peak_live_procs,
        phase_stats: run.phase_stats,
        trace: run.trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile([], 0.99), 0);
        assert_eq!(percentile([42], 0.5), 42);
        let v = (1..=100).collect::<Vec<Time>>();
        assert_eq!(percentile(v.iter().copied(), 0.99), 99);
        assert_eq!(percentile(v.iter().copied(), 0.5), 50);
        assert_eq!(percentile(v, 1.0), 100);
    }

    #[test]
    fn policy_schedule_expands_offsets() {
        let p = TenantPolicy {
            interval: 100,
            offset: 7,
            epochs: 3,
            group_size: 2,
            backend: StoreBackend::Central,
        };
        assert_eq!(p.schedule().at, vec![7, 107, 207]);
    }
}
