//! What one faulted run injects: the timed plan plus the policy faults
//! consulted at their point of use.

use crate::plan::{FaultKind, FaultPlan};
use crate::rng::name_decision;
use gbcr_des::{SimError, SimResult};

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

    /// Check every rank this config names against an `n`-rank job: a
    /// node kill's victim and a phase fault's rank must exist, and a link
    /// flap must join two distinct ranks that exist. Epochs are not
    /// checked — a fault armed for an epoch that never runs never fires.
    pub fn check_ranks(&self, n: u32) -> SimResult<()> {
        let bad = |detail: String| Err(SimError::InvalidFaults { detail });
        for ev in &self.plan.events {
            match ev.kind {
                FaultKind::NodeKill { rank } if rank >= n => {
                    return bad(format!("node kill of rank {rank} in a {n}-rank job"));
                }
                FaultKind::LinkFlap { a, b } if a >= n || b >= n || a == b => {
                    return bad(format!("link flap {a}-{b} in a {n}-rank job"));
                }
                _ => {}
            }
        }
        match self.phase_faults.iter().find(|f| f.rank >= n) {
            Some(f) => bad(format!("phase fault on rank {} in a {n}-rank job", f.rank)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbcr_des::time;

    #[test]
    fn noop_configs_are_detected() {
        assert!(FaultConfig::none().is_noop());
        assert!(FaultConfig {
            torn: Some(TornWrites { seed: 1, prob: 0.0 }),
            ..FaultConfig::none()
        }
        .is_noop());
        assert!(!FaultConfig { plan: FaultPlan::cluster_at(time::secs(1)), ..FaultConfig::none() }
            .is_noop());
    }
}
