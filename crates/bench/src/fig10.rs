//! Figure 10 (extension): multi-tenant checkpoint interference — P99
//! epoch latency and per-tenant goodput vs co-tenant checkpoint load.
//!
//! Every cell is one [`run_cluster`] simulation: `load` tenants (each a
//! small ring-exchange job of [`N_PER_TENANT`] ranks) share one central
//! storage array and a fair-shared fabric, under one of two deployment
//! classes:
//!
//! * **clusterwide** — every tenant checkpoints its whole job at the
//!   *same* aligned instants (the naive "everyone on the hour"
//!   deployment): the array absorbs `load × n` simultaneous image
//!   writes, so each tenant's epoch latency grows with the co-tenant
//!   load — the synchronized-storm collapse.
//! * **group** — group-based staggering: each tenant checkpoints one
//!   rank-group at a time ([`gbcr_core::Formation::Static`] of 1) and
//!   tenants' schedules are phase-staggered across the interval, so the
//!   array sees a near-constant trickle and P99 stays bounded.
//!
//! Aggregate checkpoint demand is kept below the array's capacity at
//! every load, so the contrast is pure scheduling: the same bytes move
//! either as one synchronized storm or as a spread-out trickle. Goodput
//! is each tenant's solo completion (dedicated array + full-bandwidth
//! fabric, the same `(spec, ckpt)` pair) divided by its in-cluster
//! completion. Cluster cells run traced at [`TraceLevel::Phases`];
//! coordinator spans carry the tenant name, and
//! [`gbcr_metrics::tenancy::span_time_by_job`] attributes per-tenant phase
//! time from the interleaved trace.

use crate::json;
use gbcr_blcr::LocalCrConfig;
use gbcr_core::cluster::{percentile, run_cluster, ClusterReport, ClusterSpec, ClusterTenant};
use gbcr_core::{CkptSchedule, CoordinatorCfg};
use gbcr_des::{time, SimResult, Time, TraceLevel};
use gbcr_metrics::{run_cells, Table};
use gbcr_workloads::{GroupLayout, MicroBench};

/// Cluster simulation seed (model outputs are independent of it).
pub const SEED: u64 = 0xF1_0A;

/// Co-tenant loads swept (concurrent tenants per cell).
pub const LOADS: [usize; 4] = [32, 64, 128, 256];

/// Ranks per tenant job.
pub const N_PER_TENANT: u32 = 2;

/// Checkpoint interval for every tenant (milliseconds).
pub const INTERVAL_MS: u64 = 1_000;

/// Scheduled epochs per tenant.
pub const EPOCHS: u32 = 2;

/// Per-rank memory footprint (bytes). Sized so the aggregate per-epoch
/// demand at the highest load (`256 × 2 × 192 KB ≈ 96 MB`) stays under
/// the array's ~140 MB/s aggregate for one interval — the contrast
/// between the classes is scheduling, not raw overload.
pub const FOOTPRINT: u64 = 192 * 1024;

/// The deployment class a cell runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Whole-job checkpoints, aligned across tenants.
    Clusterwide,
    /// One rank-group at a time, schedules phase-staggered across tenants.
    Group,
}

impl Class {
    /// The flag/JSON spelling.
    pub fn name(self) -> &'static str {
        match self {
            Class::Clusterwide => "clusterwide",
            Class::Group => "group",
        }
    }
}

/// Both classes, in sweep order.
pub const CLASSES: [Class; 2] = [Class::Clusterwide, Class::Group];

/// Tenant `i`'s job name, its spec's and its coordinator's: unique, since
/// it namespaces checkpoint objects on the shared array.
fn tenant_name(i: usize) -> String {
    format!("t{i:03}")
}

/// Tenant `i`'s workload: a 2-rank ring-exchange micro job.
pub fn tenant_spec(i: usize) -> gbcr_core::JobSpec {
    let mut spec = MicroBench {
        n: N_PER_TENANT,
        comm_group_size: N_PER_TENANT,
        footprint: FOOTPRINT,
        step_compute: time::ms(10),
        steps: 250,
        msg_size: 16 * 1024,
        layout: GroupLayout::Blocked,
    }
    .job();
    spec.name = tenant_name(i);
    // Small cloud tenants freeze/thaw fast: with the default BLCR quiesce
    // costs (200 ms + 50 ms per process) the *fixed* overhead would dwarf
    // the 192 KB image writes and bury the storage-contention signal this
    // figure isolates.
    spec.blcr = LocalCrConfig { freeze_overhead: time::ms(2), thaw_overhead: time::ms(1) };
    spec
}

/// Tenant `i`'s coordinator under `class` at co-tenant load `load`:
/// static groups, [`EPOCHS`] epochs at `offset + e·interval`.
pub fn tenant_cfg(class: Class, i: usize, load: usize) -> CoordinatorCfg {
    let interval = time::ms(INTERVAL_MS);
    let (group_size, offset) = match class {
        // Aligned: every tenant's whole job at t = interval, 2·interval.
        Class::Clusterwide => (N_PER_TENANT, interval),
        // Staggered: tenant i's schedule shifted by i/load of an interval,
        // and only one rank checkpoints at a time within the tenant.
        Class::Group => (1, interval + (i as Time) * interval / load as Time),
    };
    let at = (0..EPOCHS).map(|e| offset + Time::from(e) * interval).collect();
    CoordinatorCfg::new(tenant_name(i), group_size, CkptSchedule { at })
}

/// The cluster a `(class, load)` cell simulates.
pub fn cluster_for(class: Class, load: usize) -> ClusterSpec {
    ClusterSpec {
        seed: SEED,
        tenants: (0..load)
            .map(|i| ClusterTenant { spec: tenant_spec(i), ckpt: tenant_cfg(class, i, load) })
            .collect(),
        ..ClusterSpec::new(Vec::new())
    }
}

/// One tenant's measured row within a cell.
#[derive(Debug, Clone)]
pub struct TenantRow {
    /// Tenant name.
    pub name: String,
    /// In-cluster completion, seconds.
    pub completion_s: f64,
    /// Solo completion / in-cluster completion (≤ 1 under interference).
    pub goodput: f64,
    /// P99 of the tenant's own epoch latencies, milliseconds.
    pub p99_epoch_ms: f64,
    /// Traced coordinator phase time attributed to this tenant, ms.
    pub phase_ms: f64,
}

/// One measured `(class, load)` cell.
#[derive(Debug, Clone)]
pub struct LoadCell {
    /// Deployment class.
    pub class: Class,
    /// Concurrent tenants.
    pub tenants: usize,
    /// P99 epoch latency across every tenant epoch, milliseconds.
    pub p99_epoch_ms: f64,
    /// Mean epoch latency, milliseconds.
    pub mean_epoch_ms: f64,
    /// Worst epoch latency, milliseconds.
    pub max_epoch_ms: f64,
    /// Mean per-tenant goodput.
    pub goodput_mean: f64,
    /// Worst per-tenant goodput.
    pub goodput_min: f64,
    /// Peak simultaneously active transfers on the shared array — the
    /// storm depth the scheduling classes differ by.
    pub peak_streams: u64,
    /// Simulated events the cluster run dispatched (simulator cost).
    pub events: u64,
    /// Per-tenant rows, in tenant order.
    pub per_tenant: Vec<TenantRow>,
}

/// The full interference sweep.
#[derive(Debug, Clone)]
pub struct Fig10Sweep {
    /// Ranks per tenant.
    pub n_per_tenant: u32,
    /// Checkpoint interval, milliseconds.
    pub interval_ms: u64,
    /// Cluster seed.
    pub seed: u64,
    /// Swept loads.
    pub loads: Vec<usize>,
    /// Cells in (load-major, class-minor) order.
    pub cells: Vec<LoadCell>,
}

impl Fig10Sweep {
    /// The cell for `(class, load)`.
    pub fn cell(&self, class: Class, load: usize) -> &LoadCell {
        self.cells.iter().find(|c| c.class == class && c.tenants == load).expect("cell in sweep")
    }
}

fn ms(t: Time) -> f64 {
    time::as_millis_f64(t)
}

/// Run one `(class, load)` cell: simulate the cluster (traced), then each
/// tenant's solo baseline, and fold both into a [`LoadCell`].
pub fn run_cell(class: Class, load: usize) -> SimResult<LoadCell> {
    let spec = cluster_for(class, load);
    let report: ClusterReport = run_cluster(&spec, Some(TraceLevel::Phases))?;
    let trace = report.trace.as_deref().expect("traced cluster run records spans");
    let phase_by_job = gbcr_metrics::tenancy::span_time_by_job(trace, "phase.");

    let mut per_tenant = Vec::with_capacity(load);
    let mut goodputs = Vec::with_capacity(load);
    let mut all_epochs: Vec<Time> = Vec::new();
    for (t, tenant) in report.tenants.iter().zip(&spec.tenants) {
        assert_eq!(t.finished_ranks, N_PER_TENANT, "tenant {} did not finish", t.name);
        let solo = tenant.spec.runner().ckpt(tenant.ckpt.clone()).run()?;
        let goodput = time::as_secs_f64(solo.completion) / time::as_secs_f64(t.completion);
        goodputs.push(goodput);
        all_epochs.extend(t.epochs.iter().map(|e| e.total_time()));
        let phase_ms = phase_by_job
            .iter()
            .find(|(job, _, _)| *job == t.name)
            .map(|&(_, time, _)| ms(time))
            .unwrap_or(0.0);
        per_tenant.push(TenantRow {
            name: t.name.clone(),
            completion_s: time::as_secs_f64(t.completion),
            goodput,
            p99_epoch_ms: ms(t.p99_epoch()),
            phase_ms,
        });
    }
    Ok(LoadCell {
        class,
        tenants: load,
        p99_epoch_ms: ms(percentile(all_epochs.iter().copied(), 0.99)),
        mean_epoch_ms: if all_epochs.is_empty() {
            0.0
        } else {
            ms(all_epochs.iter().sum::<Time>()) / all_epochs.len() as f64
        },
        max_epoch_ms: ms(all_epochs.iter().copied().max().unwrap_or(0)),
        goodput_mean: goodputs.iter().sum::<f64>() / goodputs.len().max(1) as f64,
        goodput_min: goodputs.iter().copied().fold(f64::INFINITY, f64::min).min(1e9),
        peak_streams: report
            .storage_stats
            .iter()
            .map(|s| s.peak_concurrent_streams())
            .max()
            .unwrap_or(0),
        events: report.events,
        per_tenant,
    })
}

/// Run with an explicit load grid (the figure's is [`LOADS`]) and
/// worker-thread control. Cells are independent cluster simulations,
/// fanned over the harness pool; results are deterministic and
/// thread-count independent. The first cell to fail, in cell order, is the
/// error.
pub fn run(loads: &[usize], threads: Option<usize>) -> SimResult<Fig10Sweep> {
    let tasks: Vec<(Class, usize)> =
        loads.iter().flat_map(|&l| CLASSES.iter().map(move |&c| (c, l))).collect();
    let cells = run_cells(tasks.len(), threads, |k| {
        let (class, load) = tasks[k];
        run_cell(class, load)
    });
    Ok(Fig10Sweep {
        n_per_tenant: N_PER_TENANT,
        interval_ms: INTERVAL_MS,
        seed: SEED,
        loads: loads.to_vec(),
        cells: cells.into_iter().collect::<SimResult<_>>()?,
    })
}

/// P99/goodput per class × load.
pub fn table(sw: &Fig10Sweep) -> Table {
    let mut header: Vec<String> = vec!["class".into()];
    header.extend(sw.loads.iter().map(|l| format!("{l} tenants")));
    let mut t = Table::new(
        format!(
            "Figure 10 — multi-tenant checkpoint interference, {} ranks/tenant \
             (P99 epoch ms / mean goodput / peak streams)",
            sw.n_per_tenant
        ),
        &header,
    );
    for class in CLASSES {
        let mut row = vec![class.name().to_string()];
        for &l in &sw.loads {
            let c = sw.cell(class, l);
            row.push(format!("{:.1} / {:.3} / {}", c.p99_epoch_ms, c.goodput_mean, c.peak_streams));
        }
        t.row(&row);
    }
    t
}

/// Everything `gbcr fig 10` prints: the table and the run-parameter
/// trailer.
pub fn report(sw: &Fig10Sweep) -> String {
    format!(
        "{}\n{} ranks/tenant; interval {} ms; {EPOCHS} epochs/tenant; seed {:#x}\n",
        table(sw).render(),
        sw.n_per_tenant,
        sw.interval_ms,
        sw.seed
    )
}

/// The sweep's model data as JSON (`gbcr fig 10 --json`; schema in
/// EXPERIMENTS.md). `tenants[]` carries per-tenant rows for the highest
/// swept load only (both classes); the aggregate `cells[]` covers every
/// load.
pub fn json_block(sw: &Fig10Sweep) -> String {
    let cell = |c: &LoadCell| {
        json::row(&[
            ("class", json::string(c.class.name())),
            ("tenants", c.tenants.to_string()),
            ("p99_epoch_ms", format!("{:.3}", c.p99_epoch_ms)),
            ("mean_epoch_ms", format!("{:.3}", c.mean_epoch_ms)),
            ("max_epoch_ms", format!("{:.3}", c.max_epoch_ms)),
            ("goodput", format!("{:.4}", c.goodput_mean)),
            ("goodput_min", format!("{:.4}", c.goodput_min)),
            ("peak_streams", c.peak_streams.to_string()),
            ("events", c.events.to_string()),
        ])
    };
    let tenant = |c: &LoadCell, r: &TenantRow| {
        json::row(&[
            ("name", json::string(&r.name)),
            ("class", json::string(c.class.name())),
            ("completion_s", format!("{:.4}", r.completion_s)),
            ("goodput", format!("{:.4}", r.goodput)),
            ("p99_epoch_ms", format!("{:.3}", r.p99_epoch_ms)),
            ("phase_ms", format!("{:.3}", r.phase_ms)),
        ])
    };
    let top = *sw.loads.iter().max().expect("non-empty loads");
    let tenants = CLASSES.iter().flat_map(|&class| {
        let c = sw.cell(class, top);
        c.per_tenant.iter().map(move |r| tenant(c, r))
    });
    json::object(
        2,
        &[
            ("n_per_tenant", sw.n_per_tenant.to_string()),
            ("interval_ms", sw.interval_ms.to_string()),
            ("seed", sw.seed.to_string()),
            ("loads", json::list(sw.loads.iter().map(ToString::to_string))),
            ("cells", json::array(4, sw.cells.iter().map(cell))),
            ("tenants", json::array(4, tenants)),
        ],
    )
}

/// The seeded 32-tenant smoke `gbcr smoke` prints and `scripts/tier1.sh`
/// gates on: 32 two-rank tenants in one cluster simulation, aligned
/// cluster-wide checkpointing vs group-based staggering against identical
/// workloads and shared-array demand, asserting the group class's P99
/// stays strictly under the clusterwide class's. Returns `(clusterwide,
/// group)` cells; the golden line pins the headline contrast (staggering
/// keeps P99 epoch latency bounded and goodput high while alignment piles
/// 64 concurrent streams onto the array).
pub fn smoke() -> SimResult<(LoadCell, LoadCell)> {
    let sw = run(&[32], Some(2))?;
    let cw = sw.cell(Class::Clusterwide, 32).clone();
    let gr = sw.cell(Class::Group, 32).clone();
    assert!(
        gr.p99_epoch_ms < cw.p99_epoch_ms,
        "group P99 {} must undercut clusterwide P99 {}",
        gr.p99_epoch_ms,
        cw.p99_epoch_ms
    );
    Ok((cw, gr))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gate: at the highest co-tenant load (256 concurrent
    /// tenants), group-based staggered checkpointing must hold P99 epoch
    /// latency strictly below aligned cluster-wide checkpointing — and the
    /// clusterwide class must actually collapse with load while the group
    /// class stays bounded. One sweep (lowest + highest load) covers both
    /// so the expensive 256-tenant cells simulate once.
    #[test]
    fn group_p99_beats_clusterwide_at_highest_load() -> SimResult<()> {
        let (lo, hi) = (LOADS[0], *LOADS.last().unwrap());
        let sw = run(&[lo, hi], Some(2))?;
        let cw = sw.cell(Class::Clusterwide, hi);
        let gr = sw.cell(Class::Group, hi);
        assert_eq!(cw.per_tenant.len(), hi);
        assert_eq!(gr.per_tenant.len(), hi);
        assert!(
            gr.p99_epoch_ms < cw.p99_epoch_ms,
            "group P99 {:.1}ms not below clusterwide P99 {:.1}ms at {hi} tenants",
            gr.p99_epoch_ms,
            cw.p99_epoch_ms
        );
        // The mechanism, not just the outcome: the aligned storm must
        // actually pile deeper onto the array than the staggered trickle.
        assert!(
            gr.peak_streams < cw.peak_streams,
            "staggering should cut the storm depth ({} vs {})",
            gr.peak_streams,
            cw.peak_streams
        );
        // And the interference must cost aligned tenants real goodput.
        assert!(
            gr.goodput_mean > cw.goodput_mean,
            "group goodput {:.3} should beat clusterwide {:.3}",
            gr.goodput_mean,
            cw.goodput_mean
        );
        // Load monotonicity of the collapse: clusterwide P99 grows with
        // the co-tenant load; the group class stays bounded (within 2× of
        // its lowest-load value across an 8× load increase).
        let cw_lo = sw.cell(Class::Clusterwide, lo).p99_epoch_ms;
        let gr_lo = sw.cell(Class::Group, lo).p99_epoch_ms;
        assert!(
            cw.p99_epoch_ms > cw_lo * 2.0,
            "clusterwide must degrade with load ({cw_lo} → {})",
            cw.p99_epoch_ms
        );
        assert!(
            gr.p99_epoch_ms < gr_lo * 2.0,
            "group must stay bounded ({gr_lo} → {})",
            gr.p99_epoch_ms
        );
        Ok(())
    }
}
