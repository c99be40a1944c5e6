//! The job harness: run an MPI workload under (optional) checkpointing.

use crate::client::CkptClient;
use crate::controller::{CkptMode, Controller, RankCkptRecord};
use crate::coordinator::{self, CoordinatorCfg, EpochReport};
use crate::election::{ControlPlane, ElectionStats};
use crate::proto;
use crate::runner::JobRunner;
use bytes::Bytes;
use gbcr_blcr::{LocalCheckpointer, LocalCrConfig};
use gbcr_des::{
    ArgValue, Dispatch, Proc, ProcId, Sim, SimHandle, SimResult, Time, TraceData, Track,
};
use gbcr_faults::{FaultConfig, FaultKind, PhaseAction, PhaseFault, ProtocolPhase, DETECT_LATENCY};
use gbcr_mpi::{DeferStats, ListenerStats, Mpi, MpiConfig, OobMsg, World, COORDINATOR_NODE};
use gbcr_storage::{
    CheckpointStore, ReplicatedStore, Storage, StorageConfig, StorageStats, StoredObject,
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
    pub fn runner(&self) -> JobRunner<'_> {
        JobRunner::new(self)
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
    /// The checkpoint store's transfers, tears, replicas and restart reads.
    pub storage_stats: StorageStats,
    /// Data-fabric counters.
    pub net_stats: gbcr_net::NetStats,
    /// Out-of-band fabric counters: the coordinator's protocol messages,
    /// the gate's n²/g among them, and the election's.
    pub oob_stats: gbcr_net::NetStats,
    /// Messages the ranks' listeners answered without resuming the rank,
    /// summed over every rank's [`gbcr_mpi::EndpointStats::listener`]: how
    /// much of the gate takes the listener's fast path.
    pub listener: ListenerStats,
    /// Aggregated buffering counters across ranks.
    pub defer_stats: DeferStats,
    /// Total bytes message-logged (Logging mode only).
    pub logged_bytes: u64,
    /// Channel-state bytes logged (Chandy-Lamport mode only).
    pub channel_logged_bytes: u64,
    /// The checkpoint images left on storage (for restarts).
    pub images: Vec<(String, StoredObject)>,
    /// Dispatch steps the event loop took (simulator cost, not a model
    /// output — feeds the bench harness's per-cell cost accounting).
    pub events: u64,
    /// What the event loop did, however it was grouped into `events`: its
    /// dispatch order's fingerprint, resumes and callbacks.
    pub des: Dispatch,
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
    /// Per-epoch manifests durably committed. This and the replica counters
    /// below copy [`Self::storage_stats`] for the benchmark's sake.
    pub manifest_commits: u64,
    /// Always 0: no backend retries an image write any more. Kept because
    /// the benchmark reads it; goes when its counter list is refreshed.
    pub write_retries: u64,
    /// Remote replica copies written (replicated backend; 0 on central).
    pub replicas_written: u64,
    /// Restart reads served from a remote replica.
    pub remote_recoveries: u64,
    /// Restart reads served from the owner node's local copy.
    pub local_recoveries: u64,
    /// The control plane's failover counters.
    pub election: ElectionStats,
    /// `(term, epochs committed)` at the moment the coordinator was lost,
    /// for runs that died without a successor taking over (`None` for
    /// finished runs and for survived failovers) — the supervisor turns
    /// this into [`gbcr_des::SimError::CoordinatorLost`].
    pub coordinator_lost: Option<(u64, u64)>,
    /// Latest instant any rank finished reading its image back and
    /// re-injecting state during a restart (0 for non-restart runs) — the
    /// restart-storm latency the backend comparison measures.
    pub restore_done: Time,
    /// The raw trace (spans + instants), present only when the run was
    /// traced. Export with [`gbcr_des::trace::perfetto::to_chrome_json`];
    /// per-phase latency statistics are
    /// [`gbcr_des::trace::phase_stats`]`(&trace.spans)`.
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

/// One installed job: everything its coordinator, its lease machinery,
/// its fault injector and its report read, built once by [`install_job`].
/// Whoever plays coordinator (the boot body and every failover winner),
/// the heartbeat emitter, the standbys, the ranks and the fault timers
/// each hold an `Rc<Job>`, so it all stays readable after a coordinator
/// dies mid-protocol. The job owns the controllers, so their phase hooks
/// hold it weakly ([`Job::arm`]).
pub(crate) struct Job {
    pub(crate) world: World,
    pub(crate) cfg: CoordinatorCfg,
    /// The backend the ranks write their images to and epoch manifests
    /// are committed through.
    pub(crate) store: Rc<dyn CheckpointStore>,
    /// Reports of the epochs committed so far, in schedule order.
    pub(crate) reports: RefCell<Vec<EpochReport>>,
    /// Who leads, in which term, and the robustness counters.
    pub(crate) control: ControlPlane,
    /// Every rank's runtime, by rank.
    pub(crate) mpis: Vec<Mpi>,
    controllers: Vec<Rc<Controller>>,
    /// Every rank's process, by rank, as [`install_job`] spawns them.
    rank_pids: RefCell<Vec<ProcId>>,
    /// When each rank's application body finished, in finishing order.
    body_ends: RefCell<Vec<Time>>,
    /// When each restarted rank had its image read back, in that order.
    restore_ends: RefCell<Vec<Time>>,
    /// Phase faults that have not fired; a match is consumed, so each
    /// fires once.
    phase_faults: RefCell<Vec<PhaseFault>>,
}

impl Job {
    /// A job over `world` whose ranks are attached already: `ranks` holds
    /// each one's runtime and controller, by rank. Spawns nothing.
    pub(crate) fn new(
        world: World,
        cfg: CoordinatorCfg,
        store: Rc<dyn CheckpointStore>,
        ranks: Vec<(Mpi, Rc<Controller>)>,
    ) -> Rc<Self> {
        let (mpis, controllers) = ranks.into_iter().unzip();
        Rc::new(Job {
            world,
            control: ControlPlane::new(cfg.election),
            cfg,
            store,
            reports: RefCell::default(),
            mpis,
            controllers,
            rank_pids: RefCell::default(),
            body_ends: RefCell::default(),
            restore_ends: RefCell::default(),
            phase_faults: RefCell::default(),
        })
    }

    /// Arm `f`: its torn-write policies on the store, a phase hook on
    /// every controller when it has phase faults, and a timer onto
    /// [`Job::apply`] for each timed event — the one place a fault takes
    /// effect. Same-time events fire in plan order: the DES dispatches
    /// equal-time events in push order.
    pub(crate) fn arm(self: &Rc<Self>, h: &SimHandle, f: &FaultConfig) {
        if let Some(torn) = f.torn.filter(|t| t.prob > 0.0) {
            self.store.set_write_fault_hook(Some(Rc::new(move |name: &str| torn.tears(name))));
        }
        if let Some(torn) = f.torn_manifests.filter(|t| t.prob > 0.0) {
            self.store.set_meta_fault_hook(Some(Rc::new(move |name: &str| torn.tears(name))));
        }
        self.phase_faults.replace(f.phase_faults.clone());
        if !f.phase_faults.is_empty() {
            for (r, c) in self.controllers.iter().enumerate() {
                // Weak: the job owns the controller this hook lives in.
                let job = Rc::downgrade(self);
                c.set_phase_hook(Some(Rc::new(move |p: &Proc, epoch, phase| {
                    if let Some(job) = job.upgrade() {
                        job.on_phase(p, r as u32, epoch, phase)
                    }
                })));
            }
        }
        for ev in &f.plan.events {
            let (job, kind) = (self.clone(), ev.kind);
            h.call_at(ev.at, move |h| job.apply(h, kind));
        }
    }

    fn job_over(&self) -> bool {
        self.body_ends.borrow().len() == self.mpis.len()
    }

    /// Carry out `kind` at the current virtual time.
    fn apply(self: &Rc<Self>, h: &SimHandle, kind: FaultKind) {
        let control = &self.control;
        match kind {
            FaultKind::NodeKill { rank } => {
                // The job outlived this failure draw, or the victim is
                // already dead: nothing to do. Without the first check a
                // post-completion kill would extend `sim_end` and abort a
                // finished run.
                if self.job_over() || self.world.is_failed(rank) {
                    return;
                }
                h.trace_instant(Track::Rank(rank), "fault.node_kill", Vec::new);
                h.kill(self.rank_pids.borrow()[rank as usize]);
                self.world.mark_failed(rank);
                // A dead node takes its in-memory checkpoint copies with it
                // (no-op on the central backend).
                self.store.node_failed(rank);
                // The rank's election standby (if any) rides the same
                // physical node, so it dies with the rank — an orphaned
                // standby of a dead rank would otherwise stop seeing
                // heartbeats and contest a healthy leader (split brain).
                if let Some(&spid) = control.standby_pids.borrow().get(rank as usize) {
                    h.kill(spid);
                }
                // The launcher notices the dead node after the detector
                // latency and aborts the surviving job (mpirun's fail-stop
                // cleanup).
                let survivors: Vec<ProcId> = self
                    .rank_pids
                    .borrow()
                    .iter()
                    .enumerate()
                    .filter(|&(r, _)| r != rank as usize)
                    .map(|(_, &pid)| pid)
                    .collect();
                let job = self.clone();
                h.call_after(DETECT_LATENCY, move |h| {
                    h.trace_instant(Track::Rank(rank), "fault.abort", Vec::new);
                    for pid in survivors {
                        h.kill(pid);
                    }
                    job.control.teardown(h);
                });
            }
            FaultKind::ClusterKill => {
                // Kill order (ranks, then the control plane, then the trace
                // line) is fixed so that whole-cluster crash runs stay
                // byte-for-byte reproducible.
                for &pid in self.rank_pids.borrow().iter() {
                    h.kill(pid);
                }
                control.teardown(h);
                h.trace_instant(Track::Coordinator, "crash", Vec::new);
                // Every node lost power, and its in-memory checkpoint copies
                // with it: a diskless backend has nothing left to restart
                // from (no-op on the central backend).
                for rank in 0..self.mpis.len() as u32 {
                    self.store.node_failed(rank);
                }
            }
            FaultKind::CoordinatorKill => {
                // A kill drawn past job completion — or landing after the
                // control plane already stood down — is a non-event,
                // mirroring a node kill.
                if self.job_over() || control.is_done() {
                    return;
                }
                let term = control.term.get();
                h.trace_instant(Track::Coordinator, "fault.coordinator_kill", || {
                    vec![("term", ArgValue::U64(term))]
                });
                control.note_kill(h.now(), term, self.reports.borrow().len() as u64);
                // Kill whoever currently plays coordinator, plus its lease
                // stream, then tear down the console's control-plane links.
                // The ranks keep running: this is a control-plane loss, not
                // a data-plane one.
                control.kill_leader(h);
                self.world.mark_coordinator_failed();
                if !control.enabled() {
                    // Static control plane: nobody can take over. The
                    // launcher's detector eventually notices the dead
                    // console and tears the job down — the
                    // supervisor-escalation path failover exists to avoid.
                    let ranks = self.rank_pids.borrow().clone();
                    h.call_after(DETECT_LATENCY, move |h| {
                        h.trace_instant(Track::Coordinator, "fault.abort", Vec::new);
                        for pid in ranks {
                            h.kill(pid);
                        }
                    });
                }
            }
            FaultKind::LinkFlap { a, b } => {
                let world = &self.world;
                if self.job_over() || world.is_failed(a) || world.is_failed(b) {
                    return;
                }
                h.trace_instant(Track::Node(a), "fault.link_flap", || {
                    vec![("peer", ArgValue::U64(u64::from(b)))]
                });
                world.flap_link(a, b);
            }
        }
    }

    /// Consume the phase fault armed for `rank` entering `phase` of
    /// `epoch`, if there is one.
    fn take_phase(&self, rank: u32, epoch: u64, phase: ProtocolPhase) -> Option<PhaseAction> {
        let mut pending = self.phase_faults.borrow_mut();
        let i =
            pending.iter().position(|f| f.rank == rank && f.epoch == epoch && f.phase == phase)?;
        Some(pending.remove(i).action)
    }

    /// `rank`'s controller entered `phase` of `epoch`: fire its phase
    /// fault, if one is armed there.
    fn on_phase(self: &Rc<Self>, p: &Proc, rank: u32, epoch: u64, phase: ProtocolPhase) {
        match self.take_phase(rank, epoch, phase) {
            Some(PhaseAction::Kill) => {
                self.apply(p.handle(), FaultKind::NodeKill { rank });
                // The kill above flagged this very process; the park never
                // returns — it unwinds here, i.e. on phase entry, before
                // any protocol reply.
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
    }

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

    /// Aggregated buffering counters, message-logged bytes and listener
    /// answers across ranks.
    pub(crate) fn endpoint_totals(&self) -> (DeferStats, u64, ListenerStats) {
        let (mut agg, mut logged, mut listener) = <(DeferStats, u64, ListenerStats)>::default();
        for m in &self.mpis {
            let s = m.stats();
            agg.merge(&s.defer);
            logged += s.logged_bytes;
            listener.oob += s.listener.oob;
            listener.handshakes += s.listener.handshakes;
        }
        (agg, logged, listener)
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

/// Install one job — checkpoint store, world, every rank's runtime and
/// controller, the coordinator, and every rank's process — into the
/// simulation behind `h`, without running it. Every rank is attached
/// first; attaching pushes no event and spawns no process. Then the
/// [`Job`] is built, and the coordinator is spawned before the ranks: it
/// is the job's first process, then the ranks in rank order, which keeps
/// the process ids and dispatch order of the solo-run prologue, so a
/// cluster tenant installs exactly as its solo run does.
/// `store_override` lets the cluster harness point several tenants at
/// one shared (contended) store instead of building a private one.
pub(crate) fn install_job(
    h: &SimHandle,
    spec: &JobSpec,
    ckpt: CoordinatorCfg,
    preload: Option<&crate::restart::RestartSpec>,
    store_override: Option<Rc<dyn CheckpointStore>>,
) -> Rc<Job> {
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

    let world = World::new(h.clone(), spec.mpi.clone());
    if let Some(r) = preload {
        // The spec method enforces the replicated-recovery ordering
        // invariant (lost nodes wiped before the preload) so no caller can
        // get it wrong again.
        r.install(store.as_ref());
    }

    let job_name: Rc<str> = ckpt.job.as_str().into();
    let mut ranks = Vec::with_capacity(n as usize);
    let mut clients = Vec::with_capacity(n as usize);
    for r in 0..n {
        let mpi = world.attach(r);
        // Uncoordinated mode runs sender-based pessimistic logging for the
        // entire job — that is its defining failure-free cost — so it is on
        // before the rank's first send.
        if ckpt.mode == CkptMode::Uncoordinated {
            mpi.set_log_mode(true);
        }
        let client = CkptClient::new(&mpi);
        let blcr = LocalCheckpointer::with_store(store.clone(), spec.blcr.clone());
        let controller = Controller::new(
            r,
            job_name.clone(),
            ckpt.mode,
            ckpt.incremental,
            blcr.clone(),
            client.clone(),
        );
        mpi.set_hook(controller.clone());
        ranks.push((mpi, controller));
        clients.push((client, blcr));
    }
    let job = Job::new(world, ckpt, store, ranks);
    coordinator::spawn(h, &job);

    let restore = preload.map(|r| (Rc::<str>::from(r.job.as_str()), r.epoch));
    for (r, (client, blcr)) in (0..n).zip(clients) {
        let (me, body, restore) = (job.clone(), spec.body.clone(), restore.clone());
        let pid = h.spawn(format!("rank{r}"), move |p| {
            let (mpi, controller) = (&me.mpis[r as usize], &me.controllers[r as usize]);
            // Images are restored under the job name they were saved with;
            // any new checkpoints go under the coordinator's (possibly
            // different) job name.
            let restored = restore.map(|(saved_as, epoch)| {
                // Restart storm: every rank reads its image back through the
                // shared storage model before computing.
                let image = blcr.restart(p, &saved_as, epoch, r);
                let (app_state, mpi_state) =
                    proto::decode_image_payload(image.app_state).expect("valid image payload");
                mpi.import_cr_state(p, mpi_state);
                me.restore_ends.borrow_mut().push(p.now());
                app_state
            });
            body(RankCtx { p, mpi: mpi.clone(), world: me.world.clone(), client, restored });
            me.body_ends.borrow_mut().push(p.now());
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
        job.rank_pids.borrow_mut().push(pid);
    }
    job
}

/// The epilogue every run shares: run `sim` until it drains, shut it down
/// and take its trace. Every process is done once `run` drains (a live one
/// would have been a Deadlock error), so shutting down only puts the
/// teardown cost into the simulation's stats before a report reads them.
pub(crate) fn drain(sim: &mut Sim) -> SimResult<(Time, Option<Arc<TraceData>>)> {
    let sim_end = sim.run()?;
    sim.shutdown();
    let trace = sim.handle().tracer().take();
    Ok((sim_end, (!trace.is_empty()).then(|| Arc::new(trace))))
}

/// Run one job in a simulation of its own, handing `inspect` the ranks'
/// runtimes between the drain and the teardown of the world (see
/// [`JobRunner::run_with`]).
pub(crate) fn run_job(run: JobRunner<'_>, inspect: impl FnOnce(&[Mpi])) -> SimResult<RunReport> {
    let JobRunner { spec, ckpt, restart, faults, trace } = run;
    if let Some(f) = &faults {
        f.check_ranks(spec.mpi.n)?;
    }
    let mut sim = Sim::new(spec.seed);
    if let Some(level) = trace {
        sim.handle().tracer().set_level(level);
    }
    let job = install_job(&sim.handle(), spec, ckpt, restart.as_ref(), None);
    if let Some(f) = faults.filter(|f| !f.is_noop()) {
        job.arm(&sim.handle(), &f);
    }

    let (sim_end, trace) = drain(&mut sim)?;
    inspect(&job.mpis);
    let (world, store, control) = (&job.world, &job.store, &job.control);
    let (defer_stats, logged_bytes, listener) = job.endpoint_totals();
    let finished_ranks = job.finished_ranks();
    let coordinator_lost =
        if finished_ranks < spec.mpi.n { control.coordinator_lost.get() } else { None };
    let storage_stats = store.storage_stats();
    let epochs = job.reports.borrow().clone();
    Ok(RunReport {
        completion: job.completion(sim_end),
        sim_end,
        epochs,
        rank_records: job.rank_records(),
        net_stats: world.net_stats(),
        oob_stats: world.oob_stats(),
        listener,
        defer_stats,
        logged_bytes,
        channel_logged_bytes: job.controllers.iter().map(|c| c.cl_logged_bytes()).sum(),
        // The replicated backend merges every node's surviving objects into
        // one durable view, so restarts and manifest validation see replica
        // copies too.
        images: store.export_objects(),
        events: sim.events_processed(),
        des: sim.dispatch(),
        elided_wakes: sim.wakes_elided(),
        procs_spawned: sim.procs_spawned(),
        peak_live_procs: sim.peak_live_procs(),
        spawn_cost_ns: WallNanos(sim.spawn_cost_ns()),
        teardown_cost_ns: WallNanos(sim.teardown_cost_ns()),
        killed_ranks: world.failed_ranks(),
        finished_ranks,
        sends_to_failed: world.dropped_sends(),
        protocol_aborts: control.protocol_aborts.get(),
        epoch_retries: control.epoch_retries.get(),
        manifest_commits: storage_stats.manifest_commits,
        write_retries: 0,
        replicas_written: storage_stats.replicas_written,
        remote_recoveries: storage_stats.remote_recoveries,
        local_recoveries: storage_stats.local_recoveries,
        election: control.stats(),
        coordinator_lost,
        restore_done: job.restore_done(),
        storage_stats,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbcr_des::time;

    #[test]
    fn phase_faults_fire_once_and_only_on_exact_match() {
        let sim = Sim::new(0);
        let spec = JobSpec::new("phase", 3, Arc::new(|_: RankCtx| {}));
        let ckpt = CoordinatorCfg::new("phase", 3, crate::CkptSchedule::none());
        let job = install_job(&sim.handle(), &spec, ckpt, None, None);
        let stall = PhaseAction::Stall(time::secs(3));
        let f = FaultConfig {
            phase_faults: vec![
                PhaseFault { epoch: 1, phase: ProtocolPhase::Checkpoint, rank: 2, action: stall },
                PhaseFault {
                    epoch: 0,
                    phase: ProtocolPhase::Begin,
                    rank: 0,
                    action: PhaseAction::Kill,
                },
            ],
            ..FaultConfig::none()
        };
        job.arm(&sim.handle(), &f);
        assert_eq!(job.take_phase(2, 1, ProtocolPhase::Begin), None, "wrong phase");
        assert_eq!(job.take_phase(2, 0, ProtocolPhase::Checkpoint), None, "wrong epoch");
        assert_eq!(job.take_phase(1, 1, ProtocolPhase::Checkpoint), None, "wrong rank");
        assert_eq!(job.take_phase(2, 1, ProtocolPhase::Checkpoint), Some(stall));
        assert_eq!(job.take_phase(2, 1, ProtocolPhase::Checkpoint), None, "consumed");
        assert_eq!(job.take_phase(0, 0, ProtocolPhase::Begin), Some(PhaseAction::Kill));
        assert!(job.phase_faults.borrow().is_empty());
    }
}
