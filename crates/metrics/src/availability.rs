//! Availability, lost-work and goodput accounting for supervised faulted
//! runs.
//!
//! A supervised run under a failure process spends its wall-clock on four
//! things: useful computation (what a failure-free run would have cost),
//! checkpoint overhead, recomputation of work lost to failures, and
//! restart/backoff. This module collapses a run's totals into the three
//! operational numbers the fault sweep tables report:
//!
//! * **availability** — `useful / wall`, the fraction of cluster time that
//!   produced the result;
//! * **lost work** — `wall − useful` in node-seconds, everything burned on
//!   overhead + recomputation + restarts, scaled by cluster size;
//! * **goodput** — `n × availability`, the effective number of nodes'
//!   worth of useful throughput the cluster sustained.

use gbcr_core::{RecoveryCounters, SupervisedReport};
use gbcr_des::{time, Time};

/// Collapse the replicas of one fault-sweep cell (`None` marks a replica
/// that exhausted its retry budget) into the columns every such cell
/// reports: the accounting over the replicas that finished — mean wall,
/// summed failures and attempts, `None` when none finished — against the
/// failure-free completion `useful` of the same `n`-rank job; how many
/// replicas gave up; and the recovery-protocol counters summed over the
/// finishers.
pub fn account_replicas(
    reps: &[Option<SupervisedReport>],
    useful: Time,
    n: u32,
) -> (Option<FaultAccounting>, usize, RecoveryCounters) {
    let finished: Vec<&SupervisedReport> = reps.iter().flatten().collect();
    let acct = (!finished.is_empty()).then(|| {
        let mean_wall = finished.iter().map(|r| time::as_secs_f64(r.total_wall)).sum::<f64>()
            / finished.len() as f64;
        FaultAccounting::from_run(
            mean_wall,
            time::as_secs_f64(useful),
            n,
            finished.iter().map(|r| r.failures_survived()).sum(),
            finished.iter().map(|r| r.attempts.len()).sum(),
        )
    });
    let mut counters = RecoveryCounters::default();
    for r in &finished {
        counters.merge(&r.counters);
    }
    (acct, reps.len() - finished.len(), counters)
}

/// Accounting summary of one supervised faulted run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultAccounting {
    /// Total wall-clock seconds across every attempt, including restart
    /// backoff.
    pub wall: f64,
    /// Useful seconds: the failure-free completion time of the same job.
    pub useful: f64,
    /// `useful / wall` in `[0, 1]`.
    pub availability: f64,
    /// `(wall − useful) × n` node-seconds burned on overhead,
    /// recomputation and restarts.
    pub lost_work: f64,
    /// `n × availability`: effective useful node count.
    pub goodput: f64,
    /// Failures survived on the way to the finish.
    pub failures: usize,
    /// Attempts consumed (failures + the final successful one).
    pub attempts: usize,
}

impl FaultAccounting {
    /// Collapse a run's totals. `wall` is the supervised run's total wall
    /// seconds (all attempts + backoff); `useful` the failure-free
    /// completion seconds of the same job; `n` the rank count.
    pub fn from_run(wall: f64, useful: f64, n: u32, failures: usize, attempts: usize) -> Self {
        assert!(wall > 0.0 && useful > 0.0, "wall {wall} and useful {useful} must be positive");
        let availability = (useful / wall).min(1.0);
        FaultAccounting {
            wall,
            useful,
            availability,
            lost_work: (wall - useful).max(0.0) * f64::from(n),
            goodput: f64::from(n) * availability,
            failures,
            attempts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_is_fully_available() {
        let a = FaultAccounting::from_run(100.0, 100.0, 8, 0, 1);
        assert_eq!(a.availability, 1.0);
        assert_eq!(a.lost_work, 0.0);
        assert_eq!(a.goodput, 8.0);
    }

    #[test]
    fn lost_work_scales_with_cluster_size() {
        let a = FaultAccounting::from_run(150.0, 100.0, 16, 2, 3);
        assert!((a.availability - 2.0 / 3.0).abs() < 1e-12);
        assert!((a.lost_work - 50.0 * 16.0).abs() < 1e-9);
        assert!((a.goodput - 16.0 * 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.failures, 2);
        assert_eq!(a.attempts, 3);
    }

    #[test]
    fn availability_caps_at_one() {
        // Supervised wall can undercut the baseline by scheduling jitter;
        // availability still reads as 1.
        let a = FaultAccounting::from_run(99.9, 100.0, 4, 0, 1);
        assert_eq!(a.availability, 1.0);
        assert_eq!(a.lost_work, 0.0);
    }
}
