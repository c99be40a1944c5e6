//! Supervised execution: run a job under a checkpoint schedule, survive
//! injected failures by restarting from the last complete global
//! checkpoint, and repeat until the job finishes or the retry budget runs
//! out.
//!
//! This is the operational loop the paper's framework exists to enable
//! (and what the job-pause service of its reference \[23] automates): the
//! checkpointing system turns a fatal failure into a bounded amount of
//! recomputation. Two drivers share the machinery:
//!
//! * [`crate::SupervisedRunner::crashes`] — deterministic whole-cluster crashes
//!   at caller-chosen times (the original harness, kept for the
//!   crash-recovery experiments);
//! * [`crate::SupervisedRunner::stochastic`] — a stochastic fail-stop process
//!   from `gbcr-faults`: per-node exponential failure clocks pick a victim
//!   each attempt, the survivors are aborted after the detection latency,
//!   and the [`SupervisePolicy`] decides restart/backoff/give-up.
//!
//! Both are terminal states of the [`crate::JobRunner`] chain
//! (`spec.runner().ckpt(cfg).supervised(policy)`).

use crate::coordinator::CoordinatorCfg;
use crate::job::{run_job_inspected, JobSpec, RunReport};
use crate::restart::RestartSpec;
use gbcr_des::{time, SimError, SimResult, Time, TraceLevel};
use gbcr_faults::{rng::mix64, FaultConfig, FaultPlan, StochasticFaults, TornWrites};

/// One attempt within a supervised run.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// Crash/kill time injected into this attempt, if any.
    pub crashed_at: Option<Time>,
    /// Epoch the attempt started from (`None` = from scratch).
    pub restored_from: Option<u64>,
    /// Epochs completed during the attempt.
    pub epochs_completed: usize,
    /// Whether the application finished in this attempt.
    pub finished: bool,
    /// Ranks killed by fault injection during the attempt (empty for
    /// whole-cluster crashes and clean finishes).
    pub killed_ranks: Vec<u32>,
    /// Wall-clock this attempt contributed: `completion` when it finished,
    /// `sim_end` (kill + detection + teardown) when it crashed.
    pub wall: Time,
    /// Time the restart storm took this attempt (latest rank's image read
    /// plus state re-injection; 0 for cold starts). The backend comparison
    /// metric: reading replicas node-locally beats the shared central
    /// array here.
    pub restore_wall: Time,
}

/// Robustness counters accumulated across every attempt of a supervised
/// run: how hard the crash-consistency machinery had to work to bring the
/// job home.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Epoch attempts discarded because a coordinator phase deadline
    /// tripped.
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
    /// Image writes that ran full-length but never became visible.
    pub torn_writes: u64,
    /// Messages black-holed because their destination's node had failed.
    pub dropped_sends: u64,
    /// Remote replica copies written (replicated backend only).
    pub replicas_written: u64,
    /// Bytes carried by those replica copies.
    pub replica_bytes: u64,
    /// Restart reads served from a remote replica.
    pub remote_recoveries: u64,
    /// Restart reads served from the owner node's local copy.
    pub local_recoveries: u64,
    /// Replica copies destroyed by node crashes.
    pub replica_losses: u64,
    /// Coordinator-node kills injected across the attempts.
    pub coordinator_kills: u64,
    /// Failover elections contested by standbys.
    pub elections_held: u64,
    /// Highest control-plane term any attempt reached (1 = the boot
    /// coordinator was never replaced).
    pub terms: u64,
    /// Lease expiries observed by standbys.
    pub heartbeats_missed: u64,
    /// Successful coordinator migrations (elections won and taken over).
    pub leader_migrations: u64,
    /// Summed virtual time between a coordinator kill and its successor
    /// taking over.
    pub time_to_new_leader: Time,
}

impl RecoveryCounters {
    /// Fold another counter set into this one (fleet-level aggregation).
    pub fn merge(&mut self, other: &RecoveryCounters) {
        self.protocol_aborts += other.protocol_aborts;
        self.epoch_retries += other.epoch_retries;
        self.manifest_commits += other.manifest_commits;
        self.torn_manifests += other.torn_manifests;
        self.torn_writes += other.torn_writes;
        self.dropped_sends += other.dropped_sends;
        self.replicas_written += other.replicas_written;
        self.replica_bytes += other.replica_bytes;
        self.remote_recoveries += other.remote_recoveries;
        self.local_recoveries += other.local_recoveries;
        self.replica_losses += other.replica_losses;
        self.coordinator_kills += other.coordinator_kills;
        self.elections_held += other.elections_held;
        self.terms = self.terms.max(other.terms);
        self.heartbeats_missed += other.heartbeats_missed;
        self.leader_migrations += other.leader_migrations;
        self.time_to_new_leader += other.time_to_new_leader;
    }

    /// Fold one attempt's report into the running totals.
    pub fn absorb(&mut self, report: &RunReport) {
        self.protocol_aborts += report.protocol_aborts;
        self.epoch_retries += report.epoch_retries;
        self.manifest_commits += report.manifest_commits;
        self.torn_manifests += report.torn_manifests;
        self.torn_writes += report.storage_stats.torn_writes;
        self.dropped_sends += report.sends_to_failed;
        self.replicas_written += report.replicas_written;
        self.replica_bytes += report.replica_bytes;
        self.remote_recoveries += report.remote_recoveries;
        self.local_recoveries += report.local_recoveries;
        self.replica_losses += report.replica_losses;
        self.coordinator_kills += report.coordinator_kills;
        self.elections_held += report.elections_held;
        self.terms = self.terms.max(report.terms);
        self.heartbeats_missed += report.heartbeats_missed;
        self.leader_migrations += report.leader_migrations;
        self.time_to_new_leader += report.time_to_new_leader;
    }
}

/// Outcome of a supervised run ([`crate::SupervisedRunner::crashes`] /
/// [`crate::SupervisedRunner::stochastic`]).
#[derive(Debug, Clone)]
pub struct SupervisedReport {
    /// Every attempt, in order; the last one finished.
    pub attempts: Vec<Attempt>,
    /// The report of the final (successful) attempt.
    pub final_report: RunReport,
    /// Total wall-clock across all attempts, including restart backoff —
    /// the denominator of availability.
    pub total_wall: Time,
    /// Restart backoff inserted between attempts (included in
    /// `total_wall`).
    pub total_backoff: Time,
    /// Recovery-protocol counters summed over every attempt (including the
    /// failed ones the final report no longer sees).
    pub counters: RecoveryCounters,
}

impl SupervisedReport {
    /// Number of failures survived.
    pub fn failures_survived(&self) -> usize {
        self.attempts.len() - 1
    }
}

/// How a supervised run reacts to failures.
#[derive(Debug, Clone)]
pub struct SupervisePolicy {
    /// Give up (with [`SimError::RetriesExhausted`]) after this many
    /// attempts without a finish.
    pub max_attempts: usize,
    /// Wall-clock delay before the first restart (node replacement,
    /// re-queue). Grows by `backoff_factor` per consecutive failure.
    pub base_backoff: Time,
    /// Multiplier applied to the backoff after every failed attempt.
    pub backoff_factor: f64,
    /// Ceiling on the per-restart backoff.
    pub max_backoff: Time,
    /// When no complete epoch survives, restart from scratch instead of
    /// failing with [`SimError::NoRestartPoint`].
    pub cold_restart: bool,
}

impl Default for SupervisePolicy {
    fn default() -> Self {
        SupervisePolicy {
            max_attempts: 32,
            base_backoff: time::secs(5),
            backoff_factor: 2.0,
            max_backoff: time::secs(60),
            cold_restart: true,
        }
    }
}

impl SupervisePolicy {
    /// The policy the original crash-recovery harness used: restart
    /// immediately (no backoff), and treat a crash before the first
    /// complete checkpoint as fatal instead of cold-restarting.
    /// [`crate::SupervisedRunner`] callers pick it explicitly.
    pub fn immediate() -> Self {
        SupervisePolicy {
            base_backoff: 0,
            max_backoff: 0,
            cold_restart: false,
            ..SupervisePolicy::default()
        }
    }

    /// The backoff the supervisor inserts after the `k`-th failure
    /// (0-based), or `None` once the attempt budget is spent (failure `k`
    /// leaves no attempt to restart into — the supervisor gives up with
    /// [`SimError::RetriesExhausted`]). The first backoff is
    /// `base_backoff` as configured; each subsequent one is multiplied by
    /// `backoff_factor` and capped at `max_backoff`. The running loop
    /// takes every backoff, and its give-up, from here.
    pub fn backoff_after_failure(&self, k: usize) -> Option<Time> {
        if k + 1 >= self.max_attempts {
            return None;
        }
        let mut b = self.base_backoff;
        for _ in 0..k {
            b = ((b as f64 * self.backoff_factor) as Time).min(self.max_backoff);
        }
        Some(b)
    }
}

/// Shared epilogue of a failed attempt: record it, pick the restart point
/// (or cold-restart / give up per policy), and charge the backoff.
struct FailureLoop {
    job: String,
    n: u32,
    policy: SupervisePolicy,
    attempts: Vec<Attempt>,
    restore: Option<RestartSpec>,
    total_wall: Time,
    total_backoff: Time,
    counters: RecoveryCounters,
}

impl FailureLoop {
    fn new(job: String, n: u32, policy: SupervisePolicy) -> Self {
        FailureLoop {
            job,
            n,
            policy,
            attempts: Vec::new(),
            restore: None,
            total_wall: 0,
            total_backoff: 0,
            counters: RecoveryCounters::default(),
        }
    }

    fn after_failure(&mut self, report: &RunReport, crashed_at: Time) -> SimResult<()> {
        self.total_wall += report.sim_end;
        self.counters.absorb(report);
        self.attempts.push(Attempt {
            crashed_at: Some(crashed_at),
            restored_from: self.restore.as_ref().map(|r| r.epoch),
            epochs_completed: report.epochs.len(),
            finished: false,
            killed_ranks: report.killed_ranks.clone(),
            wall: report.sim_end,
            restore_wall: report.restore_done,
        });
        // The spec carries the attempt's dead nodes: they come up empty on
        // per-node backends (the restart harness wipes them before
        // preloading), so their ranks recover from surviving replicas.
        match report.latest_restart_spec(&self.job, self.n) {
            Some(restore) => self.restore = Some(restore),
            // No epoch was committed during *this* attempt, but an earlier one
            // produced a restart point: keep it — recovery never regresses
            // to a cold restart once any checkpoint is durable.
            None if self.restore.is_some() => {}
            None if self.policy.cold_restart => self.restore = None,
            // A dead control plane with no restart point is its own typed
            // failure: the run lost its coordinator (static plane, or a
            // failover that never completed) before any checkpoint became
            // durable, and the policy forbids a cold restart.
            None => {
                if let Some((term, epoch)) = report.coordinator_lost {
                    return Err(SimError::CoordinatorLost { term, epoch });
                }
                return Err(SimError::NoRestartPoint {
                    job: self.job.clone(),
                    detail: format!(
                        "attempt {}: crash at {} preceded the first complete checkpoint",
                        self.attempts.len() - 1,
                        time::fmt(crashed_at)
                    ),
                });
            }
        }
        let spent = SimError::RetriesExhausted { attempts: self.policy.max_attempts };
        let backoff = self.policy.backoff_after_failure(self.attempts.len() - 1).ok_or(spent)?;
        self.total_backoff += backoff;
        self.total_wall += backoff;
        Ok(())
    }

    fn finish(mut self, report: RunReport) -> SupervisedReport {
        self.total_wall += report.completion;
        self.counters.absorb(&report);
        self.attempts.push(Attempt {
            crashed_at: None,
            restored_from: self.restore.as_ref().map(|r| r.epoch),
            epochs_completed: report.epochs.len(),
            finished: true,
            killed_ranks: Vec::new(),
            wall: report.completion,
            restore_wall: report.restore_done,
        });
        SupervisedReport {
            attempts: self.attempts,
            final_report: report,
            total_wall: self.total_wall,
            total_backoff: self.total_backoff,
            counters: self.counters,
        }
    }
}

/// The supervised loop behind both [`crate::SupervisedRunner`] drivers:
/// run `spec` under `ckpt` (each attempt traced at `trace`, if set),
/// arming attempt `k` with whatever `faults_for(k)` yields — a fault
/// configuration and the instant its kill lands, or `None` for an attempt
/// that runs unharmed. An armed attempt that does
/// not finish is a failure: the job restarts from the most recent complete
/// epoch (carrying images forward across attempts) per `policy`. An attempt
/// that finishes — unarmed, or its kill drawn past completion — ends the
/// run.
///
/// Fails with [`SimError::NoRestartPoint`] if a failure happens before the
/// first epoch ever completes and `policy` forbids cold restarts (there
/// is nothing to restart from — exactly the exposure window the paper's
/// Total Checkpoint Time measures), and with
/// [`SimError::RetriesExhausted`] once `policy.max_attempts` is spent.
fn supervise(
    spec: &JobSpec,
    ckpt: CoordinatorCfg,
    trace: Option<TraceLevel>,
    policy: SupervisePolicy,
    mut faults_for: impl FnMut(u64) -> Option<(FaultConfig, Time)>,
) -> SimResult<SupervisedReport> {
    let n = spec.mpi.n;
    let max_attempts = policy.max_attempts;
    let mut lp = FailureLoop::new(ckpt.job.clone(), n, policy);
    for attempt in 0..max_attempts as u64 {
        let armed = faults_for(attempt);
        let report = run_job_inspected(
            spec,
            Some(ckpt.clone()),
            lp.restore.clone(),
            armed.as_ref().map(|(faults, _)| faults),
            trace,
            |_| (),
        )?;
        match armed {
            Some((_, kill_at)) if report.finished_ranks < n => {
                lp.after_failure(&report, kill_at)?
            }
            // Unarmed, or the kill landed past completion: the job beat
            // the failure process this attempt.
            _ => return Ok(lp.finish(report)),
        }
    }
    Err(SimError::RetriesExhausted { attempts: max_attempts })
}

/// [`supervise`] with a whole-cluster failure at each time in `crash_at`
/// (one per attempt, applied in order); the attempt after the last crash
/// runs unharmed to completion. The engine behind
/// [`crate::SupervisedRunner::crashes`].
pub(crate) fn supervised_crashes(
    spec: &JobSpec,
    ckpt: CoordinatorCfg,
    trace: Option<TraceLevel>,
    crash_at: &[Time],
    policy: SupervisePolicy,
) -> SimResult<SupervisedReport> {
    supervise(spec, ckpt, trace, policy, |attempt| {
        let &t = crash_at.get(attempt as usize)?;
        Some((FaultConfig { plan: FaultPlan::cluster_at(t), ..FaultConfig::none() }, t))
    })
}

/// [`supervise`] against a stochastic fail-stop process: each attempt
/// draws its own fault plan from `faults` (per-node exponential kill
/// clocks, optional link flaps and torn image writes). The engine behind
/// [`crate::SupervisedRunner::stochastic`].
///
/// Fully deterministic in `(spec.seed, faults.seed)`: two calls with
/// identical inputs produce byte-identical reports.
pub(crate) fn supervised_stochastic(
    spec: &JobSpec,
    ckpt: CoordinatorCfg,
    trace: Option<TraceLevel>,
    faults: &StochasticFaults,
    policy: SupervisePolicy,
) -> SimResult<SupervisedReport> {
    let n = spec.mpi.n;
    supervise(spec, ckpt, trace, policy, |attempt| {
        let (plan, (kill_at, _victim)) = faults.attempt_plan(attempt, n);
        let torn = (faults.torn_write_prob > 0.0).then(|| TornWrites {
            // Mix the attempt in so a retried epoch is not doomed to tear
            // the same image forever.
            seed: faults.seed ^ mix64(attempt + 1),
            prob: faults.torn_write_prob,
        });
        let cfg = FaultConfig {
            plan,
            detect_latency: faults.detect_latency,
            torn,
            torn_manifests: None,
            phase_faults: Vec::new(),
        };
        Some((cfg, kill_at))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_backoff_doubles_then_saturates_at_cap() {
        let p = SupervisePolicy::default();
        let schedule: Vec<Time> =
            (0..6).map(|k| p.backoff_after_failure(k).unwrap()).collect();
        assert_eq!(
            schedule,
            vec![
                time::secs(5),
                time::secs(10),
                time::secs(20),
                time::secs(40),
                time::secs(60),
                time::secs(60),
            ]
        );
        // Far past the knee the cap still holds exactly.
        assert_eq!(p.backoff_after_failure(25), Some(time::secs(60)));
    }

    #[test]
    fn fractional_factor_rounds_down_like_the_loop() {
        let p = SupervisePolicy {
            base_backoff: 1000,
            backoff_factor: 1.5,
            max_backoff: 5000,
            ..SupervisePolicy::default()
        };
        assert_eq!(p.backoff_after_failure(0), Some(1000));
        assert_eq!(p.backoff_after_failure(1), Some(1500));
        assert_eq!(p.backoff_after_failure(2), Some(2250));
        assert_eq!(p.backoff_after_failure(3), Some(3375));
        assert_eq!(p.backoff_after_failure(4), Some(5000), "capped");
    }

    #[test]
    fn budget_exhaustion_gives_up_instead_of_backing_off() {
        let p = SupervisePolicy { max_attempts: 3, ..SupervisePolicy::default() };
        // Failures 0 and 1 leave attempts to restart into; failure 2 spends
        // the third and final attempt.
        assert!(p.backoff_after_failure(0).is_some());
        assert!(p.backoff_after_failure(1).is_some());
        assert_eq!(p.backoff_after_failure(2), None);
        let one_shot = SupervisePolicy { max_attempts: 1, ..SupervisePolicy::default() };
        assert_eq!(one_shot.backoff_after_failure(0), None, "no retry budget at all");
    }
}
