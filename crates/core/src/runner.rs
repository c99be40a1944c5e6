//! The job-submission API: one builder for every way a job can be run
//! (plain, traced, crashed, faulted, restarted, supervised).
//!
//! ```
//! # use gbcr_core::{JobSpec, RankCtx};
//! # use std::sync::Arc;
//! # let body: gbcr_core::RankBody = Arc::new(|ctx: RankCtx| {
//! #     ctx.client.set_footprint(1024);
//! # });
//! let spec = JobSpec::new("demo", 2, body);
//! let report = spec.runner().run().unwrap();
//! assert_eq!(report.finished_ranks, 2);
//! ```
//!
//! Every option is a chainable setter; `.run()` executes. The combination
//! rules hold by construction (a crash *is* a fault plan, so the two share
//! one slot and the later setter wins; tracing composes with everything),
//! and the scheduler in [`crate::cluster`] drives the same surface
//! programmatically.

use crate::coordinator::{CkptSchedule, CoordinatorCfg};
use crate::job::{run_job, JobSpec, RunReport};
use crate::restart::RestartSpec;
use crate::supervise::{supervise, SupervisePolicy, SupervisedReport};
use gbcr_des::{SimResult, Time, TraceLevel};
use gbcr_faults::{rng::mix64, FaultConfig, FaultPlan, StochasticFaults, TornWrites};
use gbcr_mpi::Mpi;

/// Builder-style submission for one job. Construct with
/// [`JobSpec::runner`] (or [`JobRunner::new`]), chain options, finish with
/// [`JobRunner::run`] — or escalate to a supervised (restart-on-failure)
/// run with [`JobRunner::supervised`].
#[derive(Clone)]
pub struct JobRunner<'a> {
    pub(crate) spec: &'a JobSpec,
    pub(crate) ckpt: CoordinatorCfg,
    pub(crate) restart: Option<RestartSpec>,
    pub(crate) faults: Option<FaultConfig>,
    pub(crate) trace: Option<TraceLevel>,
}

impl<'a> JobRunner<'a> {
    /// Start a runner for `spec` with no checkpointing, no faults, no
    /// tracing — the plain baseline run. Its coordinator is the one a
    /// checkpointed run gets, with an empty schedule (regular coordinated
    /// checkpointing, one all-rank group), so baseline and checkpointed
    /// runs differ only by the checkpoints themselves.
    pub fn new(spec: &'a JobSpec) -> Self {
        let ckpt = CoordinatorCfg::new(spec.name.clone(), spec.mpi.n, CkptSchedule::none());
        JobRunner { spec, ckpt, restart: None, faults: None, trace: None }
    }

    /// Run under this checkpoint configuration.
    pub fn ckpt(mut self, cfg: CoordinatorCfg) -> Self {
        self.ckpt = cfg;
        self
    }

    /// [`JobRunner::ckpt`] taking an `Option` — convenient for callers
    /// (sweep cells, parameterized tests) that decide per-invocation
    /// whether to checkpoint at all. `None` restores the unscheduled
    /// coordinator of [`JobRunner::new`].
    pub fn ckpt_opt(mut self, cfg: Option<CoordinatorCfg>) -> Self {
        self.ckpt = cfg.unwrap_or_else(|| JobRunner::new(self.spec).ckpt);
        self
    }

    /// Force span tracing to `level` for this run (overriding the
    /// process-wide capture default). The report then carries the raw
    /// [`gbcr_des::TraceData`] plus per-span-name latency statistics.
    /// Tracing is purely observational: the simulation schedules exactly
    /// the same events as an untraced run, so model outputs are
    /// byte-identical either way.
    pub fn traced(mut self, level: TraceLevel) -> Self {
        self.trace = Some(level);
        self
    }

    /// Power-fail the whole cluster at `t`: every rank and the coordinator
    /// are killed at that instant. The report carries whatever the run
    /// produced up to the crash — in particular the durable checkpoint
    /// images and the manifests of the epochs the coordinator committed;
    /// feed [`RunReport::latest_restart_spec`] to [`JobRunner::restart`]
    /// (or use [`JobRunner::supervised`]) to recover. `completion` is meaningless
    /// for a crashed run. Shorthand for a one-event [`JobRunner::faults`]
    /// plan, whose slot it fills.
    pub fn crash_at(mut self, t: Time) -> Self {
        self.faults = Some(FaultConfig { plan: FaultPlan::cluster_at(t), ..FaultConfig::none() });
        self
    }

    /// Arm an injected fault configuration (see `gbcr-faults`): timed node
    /// kills, cluster and coordinator kills and link flaps from `faults.plan`, plus
    /// the torn-write policies. A node kill tears the victim's connections
    /// down, black-holes messages addressed to it, and aborts the
    /// surviving ranks after [`gbcr_faults::DETECT_LATENCY`] — the fail-stop model
    /// with launcher detection. Inspect `finished_ranks == n` on the
    /// report to tell a completed run from an aborted one. A config that
    /// names a rank the job does not have makes [`JobRunner::run`] return
    /// [`gbcr_des::SimError::InvalidFaults`]. Replaces an earlier
    /// [`JobRunner::crash_at`].
    pub fn faults(mut self, faults: &FaultConfig) -> Self {
        self.faults = Some(faults.clone());
        self
    }

    /// Restore from `restart`'s images (a committed epoch picked by
    /// [`RunReport::restart_spec`]) before running: every rank reads
    /// its image back through the storage model (the restart storm is
    /// charged realistically) and resumes its application body with the
    /// saved state. The runner installs the restart point through
    /// [`RestartSpec::install`], which wipes the crashed attempt's lost
    /// nodes *before* preloading — the ordering invariant replicated
    /// recovery depends on.
    pub fn restart(mut self, restart: RestartSpec) -> Self {
        self.restart = Some(restart);
        self
    }

    /// Execute the configured run.
    pub fn run(self) -> SimResult<RunReport> {
        self.run_with(|_| ())
    }

    /// [`JobRunner::run`], showing `inspect` every rank's runtime, in rank
    /// order, once the simulation has drained and before its world is
    /// dropped. A runtime handle is not `Send` and a [`crate::RankBody`]
    /// is, so a body cannot carry one out; a caller that wants one past
    /// the run (final per-rank counters, a weak reference for a leak check)
    /// takes it here, on its own thread whichever backend hosted the bodies.
    pub fn run_with(self, inspect: impl FnOnce(&[Mpi])) -> SimResult<RunReport> {
        run_job(self, inspect)
    }

    /// Escalate to a supervised run: crash or kill the job per the chosen
    /// failure source, restart it from the last complete global checkpoint
    /// under `policy`, and repeat until it finishes or the attempt budget
    /// runs out. Carries the checkpoint configuration and the trace level
    /// set so far — every attempt is traced, and the final report holds the
    /// last attempt's trace; crash/fault/restart options do not carry over
    /// (the supervisor owns the failure injection and restart points
    /// itself).
    pub fn supervised(self, policy: SupervisePolicy) -> SupervisedRunner<'a> {
        SupervisedRunner { run: JobRunner { restart: None, faults: None, ..self }, policy }
    }
}

/// Supervised (restart-on-failure) submission, built from
/// [`JobRunner::supervised`]. Pick the failure source with
/// [`SupervisedRunner::crashes`] (deterministic whole-cluster crashes) or
/// [`SupervisedRunner::stochastic`] (per-node exponential failure clocks).
#[derive(Clone)]
pub struct SupervisedRunner<'a> {
    /// The run every attempt clones, its restart point and faults cleared.
    run: JobRunner<'a>,
    policy: SupervisePolicy,
}

impl SupervisedRunner<'_> {
    /// Run with a whole-cluster crash injected at each time in `crash_at`
    /// (one per attempt, in order); the final attempt runs crash-free to
    /// completion. Fails with [`gbcr_des::SimError::NoRestartPoint`] if a
    /// crash precedes the first complete epoch and the policy forbids cold
    /// restarts.
    pub fn crashes(self, crash_at: &[Time]) -> SimResult<SupervisedReport> {
        supervise(self.run, self.policy, |attempt| {
            let &t = crash_at.get(attempt as usize)?;
            Some((FaultConfig { plan: FaultPlan::cluster_at(t), ..FaultConfig::none() }, t))
        })
    }

    /// Run against a stochastic fail-stop process: each attempt draws its
    /// own fault plan from `faults`, restarts per the policy, and gives up
    /// with [`gbcr_des::SimError::RetriesExhausted`] once
    /// `policy.max_attempts` is spent. Each attempt's plan holds
    /// per-node exponential kill clocks, optional link flaps and torn
    /// image writes. Fully deterministic in `(spec.seed, faults.seed)`: two
    /// calls with identical inputs produce byte-identical reports.
    pub fn stochastic(self, faults: &StochasticFaults) -> SimResult<SupervisedReport> {
        let n = self.run.spec.mpi.n;
        supervise(self.run, self.policy, |attempt| {
            let (plan, (kill_at, _victim)) = faults.attempt_plan(attempt, n);
            let torn = (faults.torn_write_prob > 0.0).then(|| TornWrites {
                // Mix the attempt in so a retried epoch is not doomed to tear
                // the same image forever.
                seed: faults.seed ^ mix64(attempt + 1),
                prob: faults.torn_write_prob,
            });
            let cfg = FaultConfig { plan, torn, torn_manifests: None, phase_faults: Vec::new() };
            Some((cfg, kill_at))
        })
    }
}
