//! Fault plans: what goes wrong, and when.

use crate::rng::{exp_secs, stream, Domain};
use gbcr_des::{time, Time};
use rand::Rng;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Kill a single rank's node. The harness is expected to abort the
    /// surviving job after its detection latency and tear the victim's
    /// connections down.
    NodeKill {
        /// The rank whose node dies.
        rank: u32,
    },
    /// Power-fail the whole cluster (every rank and the coordinator).
    ClusterKill,
    /// Kill the node hosting the checkpoint coordinator (the control
    /// plane's console). Every rank survives: this is a pure control-plane
    /// loss. With failover disabled the harness aborts the job after its
    /// detection latency (the launcher notices its console died); with
    /// lease-based election enabled the surviving ranks elect a
    /// replacement and the run continues in place.
    CoordinatorKill,
    /// Force the data-plane connection between two ranks down; it is
    /// rebuilt through the normal teardown/re-setup path on next use.
    LinkFlap {
        /// One side of the link.
        a: u32,
        /// The other side.
        b: u32,
    },
}

/// A fault at a point in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Absolute virtual time of the fault.
    pub at: Time,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults for one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The events, in the order they were planned (the injector sorts no
    /// further: same-time events fire in plan order).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (the injector arms nothing).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A whole-cluster power failure at `t`.
    pub fn cluster_at(t: Time) -> Self {
        FaultPlan { events: vec![FaultEvent { at: t, kind: FaultKind::ClusterKill }] }
    }

    /// A single-node kill at `t`.
    pub fn node_kill_at(t: Time, rank: u32) -> Self {
        FaultPlan { events: vec![FaultEvent { at: t, kind: FaultKind::NodeKill { rank } }] }
    }

    /// A coordinator-node kill at `t`.
    pub fn coordinator_kill_at(t: Time) -> Self {
        FaultPlan { events: vec![FaultEvent { at: t, kind: FaultKind::CoordinatorKill }] }
    }

    /// Append an event.
    pub fn push(&mut self, at: Time, kind: FaultKind) {
        self.events.push(FaultEvent { at, kind });
    }
}

/// Configuration of the stochastic fault process for a supervised run.
///
/// All randomness is drawn from [`crate::rng`] streams keyed by `seed` and
/// the attempt number, never from the simulation's RNG, so fault schedules
/// are byte-reproducible across runs and worker-thread counts.
#[derive(Debug, Clone)]
pub struct StochasticFaults {
    /// Seed for every fault stream of this run.
    pub seed: u64,
    /// Per-node mean time between failures. With `n` nodes the cluster
    /// MTBF is `node_mtbf / n` (independent exponentials).
    pub node_mtbf: Time,
    /// Mean time between forced link flaps across the whole cluster
    /// (`None` disables flaps).
    pub link_flap_mtbf: Option<Time>,
    /// Probability that any single checkpoint-image write is torn (runs
    /// full-length but never becomes visible). `0.0` disables.
    pub torn_write_prob: f64,
    /// Mean time between failures of the *coordinator's* node (`None`
    /// disables control-plane kills). Drawn from its own
    /// [`Domain::Election`] stream, so enabling coordinator kills never
    /// shifts the per-node kill schedule.
    pub coord_mtbf: Option<Time>,
}

/// Failure-detector latency of every run: the gap between a node (or a
/// static control plane's coordinator) dying and the launcher aborting
/// the surviving ranks.
pub const DETECT_LATENCY: Time = time::ms(500);

/// Sentinel "victim" reported by [`StochasticFaults::attempt_plan`] when
/// the attempt's first kill hits the coordinator rather than a rank.
pub const COORDINATOR_VICTIM: u32 = u32::MAX;

impl StochasticFaults {
    /// A kill-only process with the given seed and per-node MTBF.
    pub fn kills(seed: u64, node_mtbf: Time) -> Self {
        StochasticFaults {
            seed,
            node_mtbf,
            link_flap_mtbf: None,
            torn_write_prob: 0.0,
            coord_mtbf: None,
        }
    }

    /// The first node failure of attempt `attempt` on an `n`-node cluster:
    /// `(offset into the attempt, victim rank)`. One independent
    /// exponential per node; the earliest wins. Exponentials are
    /// memoryless, so redrawing every attempt is statistically identical
    /// to carrying per-node residual clocks across restarts (and the
    /// victim's replacement node starts fresh anyway).
    pub fn first_kill(&self, attempt: u64, n: u32) -> (Time, u32) {
        let mtbf = time::as_secs_f64(self.node_mtbf);
        let mut best = (f64::INFINITY, 0u32);
        for node in 0..n {
            let mut rng =
                stream(self.seed, Domain::NodeFailure, attempt * u64::from(n) + u64::from(node));
            let t = exp_secs(&mut rng, mtbf);
            if t < best.0 {
                best = (t, node);
            }
        }
        (time::secs_f64(best.0), best.1)
    }

    /// The coordinator-node failure time of attempt `attempt`, if
    /// control-plane kills are enabled. One exponential per attempt from
    /// the isolated [`Domain::Election`] stream.
    pub fn coordinator_kill(&self, attempt: u64) -> Option<Time> {
        self.coord_mtbf.map(|mtbf| {
            let mut rng = stream(self.seed, Domain::Election, attempt);
            time::secs_f64(exp_secs(&mut rng, time::as_secs_f64(mtbf)))
        })
    }

    /// The full fault plan for attempt `attempt`: the first kill — the
    /// earlier of the first node kill and (when enabled) the coordinator
    /// kill — plus any link flaps that land before it (none on a one-node
    /// cluster, which has no link to flap). Returns the plan
    /// and the kill `(offset, victim)` so the supervisor knows what it
    /// armed; a coordinator kill reports [`COORDINATOR_VICTIM`]. With
    /// `coord_mtbf` disabled this is byte-identical to the historical
    /// node-kill-only plan.
    pub fn attempt_plan(&self, attempt: u64, n: u32) -> (FaultPlan, (Time, u32)) {
        let (node_at, node_victim) = self.first_kill(attempt, n);
        let (kill_at, victim, kill) = match self.coordinator_kill(attempt) {
            Some(c) if c < node_at => (c, COORDINATOR_VICTIM, FaultKind::CoordinatorKill),
            _ => (node_at, node_victim, FaultKind::NodeKill { rank: node_victim }),
        };
        let mut plan = FaultPlan::none();
        if let Some(flap_mtbf) = self.link_flap_mtbf.filter(|_| n > 1) {
            let mean = time::as_secs_f64(flap_mtbf);
            let mut rng = stream(self.seed, Domain::LinkFlap, attempt);
            let mut t = exp_secs(&mut rng, mean);
            while time::secs_f64(t) < kill_at {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n - 1);
                let b = if b >= a { b + 1 } else { b };
                plan.push(time::secs_f64(t), FaultKind::LinkFlap { a, b });
                t += exp_secs(&mut rng, mean);
            }
        }
        plan.push(kill_at, kill);
        (plan, (kill_at, victim))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempt_plans_replay_exactly() {
        let f = StochasticFaults {
            link_flap_mtbf: Some(time::secs(2)),
            ..StochasticFaults::kills(42, time::secs(30))
        };
        for attempt in 0..4 {
            assert_eq!(f.attempt_plan(attempt, 8), f.attempt_plan(attempt, 8));
        }
    }

    #[test]
    fn kill_times_vary_per_attempt_and_seed() {
        let f = StochasticFaults::kills(42, time::secs(30));
        let g = StochasticFaults::kills(43, time::secs(30));
        assert_ne!(f.first_kill(0, 8), f.first_kill(1, 8));
        assert_ne!(f.first_kill(0, 8), g.first_kill(0, 8));
    }

    #[test]
    fn cluster_min_scales_with_node_count() {
        // min of n exponentials ~ Exp(mtbf/n): the 64-node cluster must
        // fail much sooner on average than the 4-node one.
        let f = StochasticFaults::kills(7, time::secs(1_000));
        let avg = |n: u32| -> f64 {
            (0..200).map(|a| time::as_secs_f64(f.first_kill(a, n).0)).sum::<f64>() / 200.0
        };
        let small = avg(4);
        let big = avg(64);
        assert!(big < small / 4.0, "64-node mean {big} vs 4-node mean {small}");
    }

    #[test]
    fn coordinator_kills_never_shift_the_node_schedule() {
        let base = StochasticFaults::kills(42, time::secs(30));
        let with_coord = StochasticFaults {
            coord_mtbf: Some(time::secs(90)),
            ..StochasticFaults::kills(42, time::secs(30))
        };
        for attempt in 0..16 {
            // The per-node draws are stream-isolated from the coordinator
            // draw, so enabling control-plane kills leaves them untouched.
            assert_eq!(base.first_kill(attempt, 8), with_coord.first_kill(attempt, 8));
            let (plan, (at, victim)) = with_coord.attempt_plan(attempt, 8);
            let last = plan.events.last().expect("plan ends with a kill");
            assert_eq!(last.at, at);
            match last.kind {
                FaultKind::CoordinatorKill => {
                    assert_eq!(victim, COORDINATOR_VICTIM);
                    assert!(at <= base.first_kill(attempt, 8).0);
                }
                FaultKind::NodeKill { rank } => {
                    assert_eq!((at, rank), base.first_kill(attempt, 8));
                }
                other => panic!("unexpected final event {other:?}"),
            }
        }
        // A 90 s coordinator MTBF against a 30/8 s cluster MTBF still hits
        // the coordinator first on *some* attempt.
        let hits =
            (0..64).filter(|&a| with_coord.attempt_plan(a, 8).1 .1 == COORDINATOR_VICTIM).count();
        assert!(hits > 0, "no attempt ever drew a coordinator-first kill");
    }

    #[test]
    fn flaps_never_land_after_the_kill_and_never_self_loop() {
        let f = StochasticFaults {
            link_flap_mtbf: Some(time::ms(200)),
            ..StochasticFaults::kills(9, time::secs(60))
        };
        let (plan, (kill_at, _)) = f.attempt_plan(0, 8);
        for ev in &plan.events {
            match ev.kind {
                FaultKind::LinkFlap { a, b } => {
                    assert!(ev.at < kill_at);
                    assert_ne!(a, b);
                    assert!(a < 8 && b < 8);
                }
                FaultKind::NodeKill { .. } => assert_eq!(ev.at, kill_at),
                _ => panic!("unexpected event {ev:?}"),
            }
        }
    }

    #[test]
    fn a_one_node_cluster_draws_no_flaps_and_the_same_kill() {
        let kills = StochasticFaults::kills(9, time::secs(60));
        let flappy = StochasticFaults { link_flap_mtbf: Some(time::ms(1)), ..kills.clone() };
        for attempt in 0..8 {
            assert_eq!(flappy.attempt_plan(attempt, 1), kills.attempt_plan(attempt, 1));
        }
    }
}
