//! The injector: arms a [`FaultPlan`] onto a simulation.

use crate::plan::{FaultKind, FaultPlan};
use crate::rng::name_decision;
use gbcr_des::{SimHandle, Time};
use std::rc::Rc;

/// How the harness layer carries faults out. Implemented by `gbcr-core`,
/// which owns the process ids, the MPI world, and the storage device; this
/// crate only decides *what* happens *when*.
pub trait FaultSink {
    /// A single node (rank) dies at the current virtual time.
    fn node_kill(&self, h: &SimHandle, rank: u32);
    /// The whole cluster power-fails at the current virtual time.
    fn cluster_kill(&self, h: &SimHandle);
    /// The node hosting the checkpoint coordinator dies at the current
    /// virtual time; every rank survives.
    fn coordinator_kill(&self, h: &SimHandle);
    /// The data-plane link between two ranks is forced down.
    fn link_flap(&self, h: &SimHandle, a: u32, b: u32);
}

/// Per-image torn-write policy: each image write whose seeded
/// [`name_decision`] fires runs full-length but never becomes visible on
/// storage, leaving its epoch incomplete.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TornWrites {
    /// Decision seed (mix the attempt number in so a retried epoch is not
    /// doomed to tear forever).
    pub seed: u64,
    /// Per-write tear probability.
    pub prob: f64,
}

impl TornWrites {
    /// Whether the image write under `name` tears.
    pub fn tears(&self, name: &str) -> bool {
        name_decision(self.seed, name, self.prob)
    }
}

/// Everything a single faulted run needs: the timed plan plus the
/// policy-style faults consulted at the point of use.
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// Timed fault events.
    pub plan: FaultPlan,
    /// Failure-detector latency applied by the sink after a node kill.
    pub detect_latency: Time,
    /// Torn-image-write policy (`None` disables).
    pub torn: Option<TornWrites>,
    /// Torn-manifest-commit policy (`None` disables). Separate from `torn`
    /// so image and manifest tearing are independent fault points.
    pub torn_manifests: Option<TornWrites>,
    /// Phase-targeted kills and straggler stalls (see [`crate::PhaseFault`]).
    pub phase_faults: Vec<crate::PhaseFault>,
}

impl FaultConfig {
    /// A config that injects nothing.
    pub fn none() -> Self {
        FaultConfig::default()
    }

    /// Whether this config can ever perturb a run.
    pub fn is_noop(&self) -> bool {
        self.plan.is_empty()
            && self.torn.is_none_or(|t| t.prob <= 0.0)
            && self.torn_manifests.is_none_or(|t| t.prob <= 0.0)
            && self.phase_faults.is_empty()
    }
}

/// Arm every event of `plan` onto the simulation, delivering through
/// `sink`. Returns the number of events armed. Events at the same time
/// fire in plan order (the DES dispatches equal-time events in push
/// order), so installation itself is deterministic.
pub fn install(h: &SimHandle, plan: &FaultPlan, sink: Rc<dyn FaultSink>) -> usize {
    for ev in &plan.events {
        let sink = sink.clone();
        let kind = ev.kind;
        h.call_at(ev.at, move |h| match kind {
            FaultKind::NodeKill { rank } => sink.node_kill(h, rank),
            FaultKind::ClusterKill => sink.cluster_kill(h),
            FaultKind::CoordinatorKill => sink.coordinator_kill(h),
            FaultKind::LinkFlap { a, b } => sink.link_flap(h, a, b),
        });
    }
    plan.events.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbcr_des::{time, Sim};
    use std::cell::RefCell;

    #[derive(Default)]
    struct Recorder {
        log: RefCell<Vec<(Time, String)>>,
    }

    impl FaultSink for Recorder {
        fn node_kill(&self, h: &SimHandle, rank: u32) {
            self.log.borrow_mut().push((h.now(), format!("kill {rank}")));
        }
        fn cluster_kill(&self, h: &SimHandle) {
            self.log.borrow_mut().push((h.now(), "cluster".into()));
        }
        fn coordinator_kill(&self, h: &SimHandle) {
            self.log.borrow_mut().push((h.now(), "coordinator".into()));
        }
        fn link_flap(&self, h: &SimHandle, a: u32, b: u32) {
            self.log.borrow_mut().push((h.now(), format!("flap {a}-{b}")));
        }
    }

    #[test]
    fn events_fire_at_their_times_in_order() {
        let mut sim = Sim::new(0);
        let mut plan = FaultPlan::none();
        plan.push(time::ms(30), FaultKind::LinkFlap { a: 0, b: 1 });
        plan.push(time::ms(10), FaultKind::NodeKill { rank: 2 });
        plan.push(time::ms(20), FaultKind::ClusterKill);
        plan.push(time::ms(50), FaultKind::CoordinatorKill);
        let rec = Rc::new(Recorder::default());
        assert_eq!(install(&sim.handle(), &plan, rec.clone()), 4);
        sim.run().unwrap();
        let log = rec.log.borrow();
        assert_eq!(
            *log,
            vec![
                (time::ms(10), "kill 2".to_owned()),
                (time::ms(20), "cluster".to_owned()),
                (time::ms(30), "flap 0-1".to_owned()),
                (time::ms(50), "coordinator".to_owned()),
            ]
        );
    }

    #[test]
    fn noop_configs_are_detected() {
        assert!(FaultConfig::none().is_noop());
        assert!(FaultConfig {
            torn: Some(TornWrites { seed: 1, prob: 0.0 }),
            ..FaultConfig::none()
        }
        .is_noop());
        assert!(!FaultConfig {
            plan: FaultPlan::cluster_at(time::secs(1)),
            ..FaultConfig::none()
        }
        .is_noop());
    }
}
