//! The job harness: run an MPI workload under (optional) checkpointing.

use crate::client::CkptClient;
use crate::controller::{CkptMode, Controller, RankCkptRecord};
use crate::coordinator::{CoordCtx, Coordinator, CoordinatorCfg, EpochReport};
use crate::proto;
use bytes::Bytes;
use gbcr_blcr::{LocalCheckpointer, LocalCrConfig};
use gbcr_des::trace::PhaseStat;
use gbcr_des::{
    ArgValue, Proc, ProcId, Sim, SimHandle, SimResult, Time, TraceData, TraceLevel, Track,
};
use gbcr_faults::{FaultConfig, FaultSink, PhaseAction, PhaseFaults};
use gbcr_mpi::{DeferStats, Mpi, MpiConfig, OobMsg, World, COORDINATOR_NODE};
use gbcr_storage::{
    CheckpointStore, ReplicatedStore, Storage, StorageConfig, StorageStats,
    StoredObject,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Everything a rank's body closure gets to work with.
pub struct RankCtx<'p> {
    /// The rank's simulated process.
    pub p: &'p Proc,
    /// The rank's MPI handle.
    pub mpi: Mpi,
    /// The world (for creating communicators).
    pub world: World,
    /// The checkpoint client: register state and footprint here.
    pub client: CkptClient,
    /// On restart, the application state saved at the restored epoch.
    pub restored: Option<Bytes>,
}

/// The per-rank application body. Called once per rank; blocking MPI calls
/// are made through `ctx.mpi` with `ctx.p`.
pub type RankBody = Arc<dyn for<'p> Fn(RankCtx<'p>) + Send + Sync>;

/// Which checkpoint-store backend a job writes its images through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreBackend {
    /// The paper's shared central array: one [`Storage`] built from
    /// [`JobSpec::storage`]. The default.
    #[default]
    Central,
    /// Diskless peer replication: each rank's image lives in its own
    /// node's in-memory store plus `replicas` remote ring copies, and
    /// restart reads from the nearest surviving copy.
    Replicated {
        /// Remote copies per image (`k`), clamped to `n - 1`.
        replicas: u32,
    },
}

impl StoreBackend {
    /// The spelling `gbcr fig 8 --backend` accepts and its output prints.
    pub fn name(self) -> &'static str {
        match self {
            StoreBackend::Central => "central",
            StoreBackend::Replicated { .. } => "replicated",
        }
    }
}

/// A complete job description: workload plus substrate configurations.
#[derive(Clone)]
pub struct JobSpec {
    /// Job name (namespaces checkpoint images on storage).
    pub name: String,
    /// Simulation seed.
    pub seed: u64,
    /// MPI/world configuration (rank count, fabrics, thresholds).
    pub mpi: MpiConfig,
    /// Central storage configuration.
    pub storage: StorageConfig,
    /// Checkpoint-store backend selection. `Central` uses `storage` above;
    /// `Replicated` ignores it and builds per-node in-memory stores
    /// instead.
    pub backend: StoreBackend,
    /// Local checkpointer timing.
    pub blcr: LocalCrConfig,
    /// The application.
    pub body: RankBody,
}

impl JobSpec {
    /// A spec with paper-testbed defaults for `n` ranks.
    pub fn new(name: impl Into<String>, n: u32, body: RankBody) -> Self {
        JobSpec {
            name: name.into(),
            seed: 0,
            mpi: MpiConfig::new(n),
            storage: StorageConfig::paper_testbed(),
            backend: StoreBackend::Central,
            blcr: LocalCrConfig::default(),
            body,
        }
    }

    /// Start a [`crate::JobRunner`] for this spec — the one submission
    /// path.
    pub fn runner(&self) -> crate::runner::JobRunner<'_> {
        crate::runner::JobRunner::new(self)
    }
}

/// A wall-clock (host) cost counter in nanoseconds. Not a model output:
/// its value varies run to run even for identical seeds, so `Debug`
/// deliberately elides it — determinism checks compare report debug
/// dumps byte-for-byte, and simulator cost must never fail them.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct WallNanos(pub u64);

impl std::fmt::Debug for WallNanos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WallNanos(..)")
    }
}

/// Everything measured from one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Latest time any rank's application body finished — the job
    /// completion time used for *Effective Checkpoint Delay*.
    pub completion: Time,
    /// When the simulation fully drained (includes shutdown handshakes).
    pub sim_end: Time,
    /// Per-epoch checkpoint reports from the coordinator.
    pub epochs: Vec<EpochReport>,
    /// Per-rank, per-epoch individual records from the controllers.
    pub rank_records: Vec<RankCkptRecord>,
    /// Completed storage transfers.
    pub storage_stats: StorageStats,
    /// Data-fabric counters.
    pub net_stats: gbcr_net::NetStats,
    /// Aggregated buffering counters across ranks.
    pub defer_stats: DeferStats,
    /// Total bytes message-logged (Logging mode only).
    pub logged_bytes: u64,
    /// Channel-state bytes logged (Chandy-Lamport mode only).
    pub channel_logged_bytes: u64,
    /// The checkpoint images left on storage (for restarts).
    pub images: Vec<(String, StoredObject)>,
    /// Simulated events the run dispatched (simulator cost, not a model
    /// output — feeds the bench harness's per-cell cost accounting).
    pub events: u64,
    /// Progress wakes elided by demand-driven compute slicing.
    pub elided_wakes: u64,
    /// Simulated processes spawned (ranks plus coordinator, writers and
    /// other service processes). Simulator cost, like `events`.
    pub procs_spawned: u64,
    /// High-water mark of simultaneously live simulated processes.
    pub peak_live_procs: u64,
    /// Wall-clock nanoseconds spent inside process spawns.
    pub spawn_cost_ns: WallNanos,
    /// Wall-clock nanoseconds spent tearing processes down after the run.
    pub teardown_cost_ns: WallNanos,
    /// Ranks killed by fault injection during this run, in kill order
    /// (empty for fault-free and whole-cluster-crash runs).
    pub killed_ranks: Vec<u32>,
    /// How many ranks' application bodies ran to completion (`n` iff the
    /// job finished).
    pub finished_ranks: u32,
    /// Messages black-holed because their destination's node had failed.
    pub sends_to_failed: u64,
    /// Epoch attempts discarded because a phase deadline tripped.
    pub protocol_aborts: u64,
    /// Epoch attempts re-run after an abort.
    pub epoch_retries: u64,
    /// Per-epoch manifests durably committed.
    pub manifest_commits: u64,
    /// Manifest commits lost to the torn-manifest fault point.
    pub torn_manifests: u64,
    /// Always 0: no backend retries an image write any more. Kept because
    /// the benchmark reads it; goes when its counter list is refreshed.
    pub write_retries: u64,
    /// Always 0: no backend fails over to a second target any more. Kept
    /// because the benchmark reads it; goes when its counter list is
    /// refreshed.
    pub failovers: u64,
    /// Remote replica copies written (replicated backend; 0 on central).
    pub replicas_written: u64,
    /// Bytes carried by those replica copies.
    pub replica_bytes: u64,
    /// Restart reads served from a remote replica.
    pub remote_recoveries: u64,
    /// Restart reads served from the owner node's local copy.
    pub local_recoveries: u64,
    /// Replica copies destroyed by node crashes.
    pub replica_losses: u64,
    /// Coordinator-node kills injected into this run.
    pub coordinator_kills: u64,
    /// Leader elections contested by standbys (candidacies, not wins).
    pub elections_held: u64,
    /// The control plane's final term: 1 for a run that never lost its
    /// coordinator, +1 per successful failover election.
    pub terms: u64,
    /// Lease expiries observed by standbys (heartbeat silence).
    pub heartbeats_missed: u64,
    /// Successful leadership migrations (elections won and taken over).
    pub leader_migrations: u64,
    /// Summed virtual time between a coordinator kill and its successor
    /// taking over (0 when no migration happened).
    pub time_to_new_leader: Time,
    /// `(term, epochs committed)` at the moment the coordinator was lost,
    /// for runs that died without a successor taking over (`None` for
    /// finished runs and for survived failovers) — the supervisor turns
    /// this into [`gbcr_des::SimError::CoordinatorLost`].
    pub coordinator_lost: Option<(u64, u64)>,
    /// Latest instant any rank finished reading its image back and
    /// re-injecting state during a restart (0 for non-restart runs) — the
    /// restart-storm latency the backend comparison measures.
    pub restore_done: Time,
    /// Per-span-name latency statistics aggregated from the run's trace
    /// (empty unless the run was traced — see [`crate::JobRunner::traced`]).
    pub phase_stats: Vec<PhaseStat>,
    /// The raw trace (spans + instants), present only when the run was
    /// traced. Export with [`gbcr_des::trace::perfetto::to_chrome_json`].
    pub trace: Option<Arc<TraceData>>,
}

impl RunReport {
    /// The paper's *Effective Checkpoint Delay* (§5): how much later this
    /// run's application finished than `baseline`, the same job run bare.
    /// Saturating: a checkpointed run can finish no later than its
    /// baseline (scheduling jitter), and that reads as no delay.
    pub fn effective_delay(&self, baseline: &RunReport) -> Time {
        self.completion.saturating_sub(baseline.completion)
    }
}

/// The default (no-checkpoint) coordinator configuration [`run_job_inspected`]
/// substitutes when the caller passes `ckpt = None`: the same harness with
/// an empty schedule, so baseline and checkpointed runs differ only by the
/// checkpoints themselves.
pub(crate) fn default_ckpt_cfg(spec: &JobSpec) -> CoordinatorCfg {
    // Regular coordinated checkpointing: one all-rank group.
    CoordinatorCfg::new(spec.name.clone(), spec.mpi.n, crate::coordinator::CkptSchedule::none())
}

/// Carries node kills, cluster kills, coordinator kills and link flaps from
/// the injector into the running simulation. Borrows the job's
/// control-plane context — the world (to tear connections and black-hole
/// sends), the store (to wipe), the epoch reports and whoever
/// leads (to kill) — and adds the rank processes and the completion tracker
/// (a kill drawn past job completion is a non-event). It must not own the
/// controllers: their phase hooks capture the sink.
struct JobFaultSink {
    ctx: Rc<CoordCtx>,
    rank_pids: Vec<ProcId>,
    body_ends: Rc<RefCell<Vec<Time>>>,
    detect_latency: Time,
    killed: RefCell<Vec<u32>>,
}

impl JobFaultSink {
    fn job_over(&self) -> bool {
        self.body_ends.borrow().len() == self.rank_pids.len()
    }
}

impl FaultSink for JobFaultSink {
    fn node_kill(&self, h: &SimHandle, rank: u32) {
        // The job outlived this failure draw, or the victim is already
        // dead: nothing to do. Without the first check a post-completion
        // kill would extend `sim_end` and abort a finished run.
        if self.job_over() || self.killed.borrow().contains(&rank) {
            return;
        }
        h.trace_instant(Track::Rank(rank), "fault.node_kill", Vec::new);
        h.kill(self.rank_pids[rank as usize]);
        self.ctx.world.mark_failed(rank);
        // A dead node takes its in-memory checkpoint copies with it
        // (no-op on the central backend).
        self.ctx.store.node_failed(rank);
        self.killed.borrow_mut().push(rank);
        // The rank's election standby (if any) rides the same physical
        // node, so it dies with the rank — an orphaned standby of a dead
        // rank would otherwise stop seeing heartbeats and contest a healthy
        // leader (split brain).
        if let Some(&spid) = self.ctx.control.standby_pids.borrow().get(rank as usize) {
            h.kill(spid);
        }
        // The launcher notices the dead node after the detector latency
        // and aborts the surviving job (mpirun's fail-stop cleanup).
        let survivors: Vec<ProcId> = self
            .rank_pids
            .iter()
            .enumerate()
            .filter(|&(r, _)| r != rank as usize)
            .map(|(_, &pid)| pid)
            .collect();
        let ctx = self.ctx.clone();
        h.call_after(self.detect_latency, move |h| {
            h.trace_instant(Track::Rank(rank), "fault.abort", Vec::new);
            for pid in survivors {
                h.kill(pid);
            }
            ctx.control.teardown(h);
        });
    }

    fn cluster_kill(&self, h: &SimHandle) {
        // Kill order (ranks, then the control plane, then the trace line)
        // is fixed so that whole-cluster crash runs stay byte-for-byte
        // reproducible.
        for &pid in &self.rank_pids {
            h.kill(pid);
        }
        self.ctx.control.teardown(h);
        h.trace_instant(Track::Coordinator, "crash", Vec::new);
        // Every node lost power, and its in-memory checkpoint copies with
        // it: a diskless backend has nothing left to restart from (no-op
        // on the central backend).
        for rank in 0..self.rank_pids.len() as u32 {
            self.ctx.store.node_failed(rank);
        }
    }

    fn coordinator_kill(&self, h: &SimHandle) {
        let control = &self.ctx.control;
        // A kill drawn past job completion — or landing after the control
        // plane already stood down — is a non-event, mirroring node_kill.
        if self.job_over() || control.is_done() {
            return;
        }
        let term = control.term.get();
        h.trace_instant(Track::Coordinator, "fault.coordinator_kill", || {
            vec![("term", ArgValue::U64(term))]
        });
        control.note_kill(h.now(), term, self.ctx.reports.borrow().len() as u64);
        // Kill whoever currently plays coordinator, plus its lease stream,
        // then tear down the console's control-plane links. The ranks keep
        // running: this is a control-plane loss, not a data-plane one.
        control.kill_leader(h);
        self.ctx.world.mark_coordinator_failed();
        if !control.enabled() {
            // Static control plane: nobody can take over. The launcher's
            // detector eventually notices the dead console and tears the
            // job down — the supervisor-escalation path failover exists to
            // avoid.
            let ranks = self.rank_pids.clone();
            h.call_after(self.detect_latency, move |h| {
                h.trace_instant(Track::Coordinator, "fault.abort", Vec::new);
                for pid in ranks {
                    h.kill(pid);
                }
            });
        }
    }

    fn link_flap(&self, h: &SimHandle, a: u32, b: u32) {
        if self.job_over() || self.ctx.world.is_failed(a) || self.ctx.world.is_failed(b) {
            return;
        }
        h.trace_instant(Track::Node(a), "fault.link_flap", || {
            vec![("peer", ArgValue::U64(u64::from(b)))]
        });
        self.ctx.world.flap_link(a, b);
    }
}

/// Everything [`install_job`] wired into a simulation for one job: the
/// handles a caller needs to arm fault injection and collect the job's
/// model outputs after the run drains.
/// [`run_job_inspected`] consumes one for a solo run; `crate::cluster` installs
/// many into a shared simulation and collects each tenant separately.
pub(crate) struct JobParts {
    /// The coordinator handle; its context carries the job's world and
    /// checkpoint store.
    pub(crate) coordinator: Coordinator,
    pub(crate) body_ends: Rc<RefCell<Vec<Time>>>,
    pub(crate) restore_ends: Rc<RefCell<Vec<Time>>>,
    pub(crate) controllers: Vec<Rc<Controller>>,
    pub(crate) mpis: Vec<Mpi>,
    pub(crate) rank_pids: Vec<ProcId>,
}

impl JobParts {
    /// Latest time any rank's application body finished (the job
    /// completion time), falling back to `sim_end` for runs where no body
    /// completed.
    pub(crate) fn completion(&self, sim_end: Time) -> Time {
        self.body_ends.borrow().iter().copied().max().unwrap_or(sim_end)
    }

    /// Per-rank, per-epoch checkpoint records in rank order.
    pub(crate) fn rank_records(&self) -> Vec<RankCkptRecord> {
        self.controllers.iter().flat_map(|c| c.records()).collect()
    }

    /// Channel-state bytes logged across ranks (Chandy-Lamport mode only).
    pub(crate) fn channel_logged_bytes(&self) -> u64 {
        self.controllers.iter().map(|c| c.cl_logged_bytes()).sum()
    }

    /// Aggregated buffering counters and message-logged bytes across
    /// ranks.
    pub(crate) fn defer_and_logged(&self) -> (DeferStats, u64) {
        let mut agg = DeferStats::default();
        let mut logged = 0;
        for m in &self.mpis {
            let s = m.stats();
            agg.merge(&s.defer);
            logged += s.logged_bytes;
        }
        (agg, logged)
    }

    /// How many ranks' application bodies ran to completion.
    pub(crate) fn finished_ranks(&self) -> u32 {
        self.body_ends.borrow().len() as u32
    }

    /// Latest instant any rank finished its restart-storm image read (0
    /// for non-restart runs).
    pub(crate) fn restore_done(&self) -> Time {
        self.restore_ends.borrow().iter().copied().max().unwrap_or(0)
    }
}

/// Install one job — checkpoint store, world, coordinator, and every
/// rank's process — into the simulation behind `h`, without running it.
/// The operation order is exactly the historical solo-run prologue,
/// so solo runs stay byte-identical; `store_override` lets the cluster
/// harness point several tenants at one shared (contended) store instead
/// of building a private one.
pub(crate) fn install_job(
    h: &SimHandle,
    spec: &JobSpec,
    ckpt: Option<CoordinatorCfg>,
    preload: Option<&crate::restart::RestartSpec>,
    store_override: Option<Rc<dyn CheckpointStore>>,
) -> JobParts {
    let n = spec.mpi.n;
    // Build the checkpoint-store backend.
    let store: Rc<dyn CheckpointStore> = match store_override {
        Some(store) => store,
        None => match spec.backend {
            StoreBackend::Central => Rc::new(Storage::new(h.clone(), spec.storage.clone())),
            StoreBackend::Replicated { replicas } => {
                // The ring rotation is a stream-isolated draw keyed by the
                // world size: same seed + same n replays the same placement,
                // and the draw cannot perturb any other fault stream.
                let shift = gbcr_faults::rng::draw_u64(
                    spec.seed,
                    gbcr_faults::rng::Domain::Replica,
                    u64::from(n),
                );
                Rc::new(ReplicatedStore::new(h.clone(), n, replicas, shift))
            }
        },
    };

    let ckpt_cfg = ckpt.unwrap_or_else(|| default_ckpt_cfg(spec));
    let world = World::new(h.clone(), spec.mpi.clone());

    let restore = preload.map(|r| (r.job.clone(), r.epoch));
    if let Some(r) = preload {
        // The spec method enforces the replicated-recovery ordering
        // invariant (lost nodes wiped before the preload) so no caller can
        // get it wrong again.
        r.install(store.as_ref());
    }

    let job_name = ckpt_cfg.job.clone();
    let mode = ckpt_cfg.mode;
    let incremental = ckpt_cfg.incremental;
    let coordinator = Coordinator::spawn(h, &world, ckpt_cfg, store.clone());

    let body_ends: Rc<RefCell<Vec<Time>>> = Rc::default();
    let restore_ends: Rc<RefCell<Vec<Time>>> = Rc::default();
    let mut controllers = Vec::with_capacity(n as usize);
    let mut mpis = Vec::with_capacity(n as usize);
    let mut rank_pids = Vec::with_capacity(n as usize);

    for r in 0..n {
        let mpi = world.attach(r);
        // Uncoordinated mode runs sender-based pessimistic logging for the
        // entire job — that is its defining failure-free cost — so it is on
        // before the rank's first send.
        if mode == CkptMode::Uncoordinated {
            mpi.set_log_mode(true);
        }
        mpis.push(mpi.clone());
        let client = CkptClient::new(&mpi);
        let blcr = LocalCheckpointer::with_store(store.clone(), spec.blcr.clone());
        let controller =
            Controller::new(r, job_name.clone(), mode, incremental, blcr.clone(), client.clone());
        controllers.push(controller.clone());
        mpi.set_hook(controller.clone());

        let body = spec.body.clone();
        let world2 = world.clone();
        let ends = body_ends.clone();
        // Images are restored under the job name they were saved with; any
        // new checkpoints go under the coordinator's (possibly different)
        // job name.
        let restore = restore.clone();
        let rends = restore_ends.clone();
        let pid = h.spawn(format!("rank{r}"), move |p| {
            let restored = restore.map(|(job, epoch)| {
                // Restart storm: every rank reads its image back through the
                // shared storage model before computing.
                let image = blcr.restart(p, &job, epoch, r);
                let (app_state, mpi_state) = proto::decode_image_payload(image.app_state)
                    .expect("valid image payload");
                mpi.import_cr_state(p, mpi_state);
                rends.borrow_mut().push(p.now());
                app_state
            });
            body(RankCtx { p, mpi: mpi.clone(), world: world2, client, restored });
            ends.borrow_mut().push(p.now());
            // Tell the coordinator we are done, then keep servicing the
            // checkpoint protocol until released (a finished rank must
            // still participate passively in other groups' epochs). The
            // local flag is set first so a failover successor's RECONCILE
            // learns of the finish even if the FINISHED notice died with
            // the old coordinator.
            controller.mark_finished();
            mpi.oob_send(p, COORDINATOR_NODE, OobMsg::new(proto::FINISHED, 0, 0));
            while !controller.shutdown_requested() {
                mpi.progress(p);
                if controller.shutdown_requested() {
                    break;
                }
                mpi.wait_event(p);
            }
        });
        rank_pids.push(pid);
    }

    JobParts { coordinator, body_ends, restore_ends, controllers, mpis, rank_pids }
}

/// What a drained simulation — one job's or a whole cluster's — says of
/// the engine itself, and the trace it captured.
pub(crate) struct Drained {
    pub(crate) sim_end: Time,
    pub(crate) events: u64,
    pub(crate) elided_wakes: u64,
    pub(crate) procs_spawned: u64,
    pub(crate) peak_live_procs: u64,
    pub(crate) spawn_cost_ns: WallNanos,
    pub(crate) teardown_cost_ns: WallNanos,
    pub(crate) phase_stats: Vec<PhaseStat>,
    pub(crate) trace: Option<Arc<TraceData>>,
}

/// The epilogue every run shares: run `sim` until it drains, shut it
/// down, and take its trace.
pub(crate) fn drain(sim: &mut Sim) -> SimResult<Drained> {
    let sim_end = sim.run()?;
    let events = sim.events_processed();
    let elided_wakes = sim.wakes_elided();
    // All processes are done once `run` drains (a live one would have been
    // a Deadlock error); shutting down now, instead of at drop, puts the
    // teardown cost into the report.
    sim.shutdown();
    let trace_data = sim.handle().tracer().take();
    Ok(Drained {
        sim_end,
        events,
        elided_wakes,
        procs_spawned: sim.procs_spawned(),
        peak_live_procs: sim.peak_live_procs(),
        spawn_cost_ns: WallNanos(sim.spawn_cost_ns()),
        teardown_cost_ns: WallNanos(sim.teardown_cost_ns()),
        phase_stats: gbcr_des::trace::phase_stats(&trace_data.spans),
        trace: (!trace_data.is_empty()).then(|| Arc::new(trace_data)),
    })
}

/// Run one job in a simulation of its own, handing `inspect` the ranks'
/// runtimes between the drain and the teardown of the world (see
/// `JobRunner::run_with`).
pub(crate) fn run_job_inspected(
    spec: &JobSpec,
    ckpt: Option<CoordinatorCfg>,
    preload: Option<crate::restart::RestartSpec>,
    faults: Option<&FaultConfig>,
    trace: Option<TraceLevel>,
    inspect: impl FnOnce(&[Mpi]),
) -> SimResult<RunReport> {
    let mut sim = Sim::new(spec.seed);
    if let Some(level) = trace {
        sim.handle().tracer().set_level(level);
    }
    let parts = install_job(&sim.handle(), spec, ckpt, preload.as_ref(), None);
    let ctx = parts.coordinator.ctx();
    let (world, store, control) = (&ctx.world, &ctx.store, &ctx.control);

    let mut sink: Option<Rc<JobFaultSink>> = None;
    if let Some(f) = faults.filter(|f| !f.is_noop()) {
        if let Some(torn) = f.torn.filter(|t| t.prob > 0.0) {
            store.set_write_fault_hook(Some(Rc::new(move |name: &str| torn.tears(name))));
        }
        if let Some(torn) = f.torn_manifests.filter(|t| t.prob > 0.0) {
            store.set_meta_fault_hook(Some(Rc::new(move |name: &str| torn.tears(name))));
        }
        let s = Rc::new(JobFaultSink {
            ctx: ctx.clone(),
            rank_pids: parts.rank_pids.clone(),
            body_ends: parts.body_ends.clone(),
            detect_latency: f.detect_latency,
            killed: RefCell::default(),
        });
        if !f.phase_faults.is_empty() {
            let phase_faults = PhaseFaults::new(f.phase_faults.clone());
            for (r, c) in parts.controllers.iter().enumerate() {
                let rank = r as u32;
                let pf = phase_faults.clone();
                let sink = s.clone();
                c.set_phase_hook(Some(Rc::new(move |p: &Proc, epoch, phase| {
                    match pf.take(rank, epoch, phase) {
                        Some(PhaseAction::Kill) => {
                            sink.node_kill(p.handle(), rank);
                            // The kill above flagged this very process; the
                            // park never returns — it unwinds here, i.e. on
                            // phase entry, before any protocol reply.
                            p.park();
                        }
                        Some(PhaseAction::Stall(d)) => {
                            p.handle().trace_instant(Track::Rank(rank), "fault.phase_stall", || {
                                vec![
                                    ("epoch", ArgValue::U64(epoch)),
                                    ("phase", ArgValue::Str(format!("{phase:?}"))),
                                    ("stall", ArgValue::U64(d)),
                                ]
                            });
                            p.sleep(d);
                        }
                        None => {}
                    }
                })));
            }
        }
        gbcr_faults::install(&sim.handle(), &f.plan, s.clone());
        sink = Some(s);
    }

    let run = drain(&mut sim)?;
    inspect(&parts.mpis);
    let (defer_stats, logged_bytes) = parts.defer_and_logged();
    let finished_ranks = parts.finished_ranks();
    let coordinator_lost =
        if finished_ranks < spec.mpi.n { control.coordinator_lost.get() } else { None };
    let storage_stats = store.storage_stats();
    Ok(RunReport {
        completion: parts.completion(run.sim_end),
        sim_end: run.sim_end,
        epochs: parts.coordinator.reports(),
        rank_records: parts.rank_records(),
        net_stats: world.net_stats(),
        defer_stats,
        logged_bytes,
        channel_logged_bytes: parts.channel_logged_bytes(),
        // The replicated backend merges every node's surviving objects into
        // one durable view, so restarts and manifest validation see replica
        // copies too.
        images: store.export_objects(),
        events: run.events,
        elided_wakes: run.elided_wakes,
        procs_spawned: run.procs_spawned,
        peak_live_procs: run.peak_live_procs,
        spawn_cost_ns: run.spawn_cost_ns,
        teardown_cost_ns: run.teardown_cost_ns,
        killed_ranks: sink.map(|s| s.killed.borrow().clone()).unwrap_or_default(),
        finished_ranks,
        sends_to_failed: world.dropped_sends(),
        protocol_aborts: control.protocol_aborts.get(),
        epoch_retries: control.epoch_retries.get(),
        manifest_commits: storage_stats.manifest_commits,
        torn_manifests: storage_stats.torn_manifests,
        write_retries: 0,
        failovers: 0,
        replicas_written: storage_stats.replicas_written,
        replica_bytes: storage_stats.replica_bytes,
        remote_recoveries: storage_stats.remote_recoveries,
        local_recoveries: storage_stats.local_recoveries,
        replica_losses: storage_stats.replica_losses,
        coordinator_kills: control.coordinator_kills.get(),
        elections_held: control.elections_held.get(),
        terms: control.term.get(),
        heartbeats_missed: control.heartbeats_missed.get(),
        leader_migrations: control.leader_migrations.get(),
        time_to_new_leader: control.time_to_new_leader.get(),
        coordinator_lost,
        restore_done: parts.restore_done(),
        storage_stats,
        phase_stats: run.phase_stats,
        trace: run.trace,
    })
}
