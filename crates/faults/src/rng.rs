//! Isolated deterministic RNG streams for fault domains.
//!
//! Every fault domain (node failures, link flaps, replica placement, the
//! control plane) and every index within a domain (node id, attempt
//! number) gets its **own** generator, derived from the user seed by a
//! SplitMix64-style finalizer.
//! Stream isolation is the determinism contract that makes the injector
//! composable: enabling link flaps cannot shift the node-failure schedule,
//! and resampling node 3's failure time cannot move node 5's. The
//! simulation's own RNG ([`gbcr_des::SimHandle::with_rng`]) is never
//! touched, so an enabled-but-never-firing injector leaves runs
//! byte-identical.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Fault domains, each with a disjoint stream family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Per-node failure (kill) times.
    NodeFailure,
    /// Link flap arrival process.
    LinkFlap,
    /// Replica-placement draws (ring rotation) for the diskless
    /// replicated checkpoint store.
    Replica,
    /// Control-plane draws: coordinator kill times and the per-rank lease
    /// jitter used by the failover election protocol.
    Election,
}

impl Domain {
    fn tag(self) -> u64 {
        match self {
            Domain::NodeFailure => 0x4e4f_4445,
            Domain::LinkFlap => 0x4c49_4e4b,
            Domain::Replica => 0x5245_504c,
            Domain::Election => 0x454c_4543,
        }
    }
}

/// SplitMix64 finalizer: a high-quality 64-bit mixer, used to fold the
/// domain tag and stream index into the seed before keying the generator.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator for `(seed, domain, index)` — a pure function of its
/// arguments, independent of every other stream.
pub fn stream(seed: u64, domain: Domain, index: u64) -> SmallRng {
    SmallRng::seed_from_u64(mix64(mix64(seed ^ domain.tag()) ^ index))
}

/// One raw 64-bit draw from `(seed, domain, index)` — for callers that
/// need a single deterministic value (e.g. the replica ring rotation)
/// without importing the RNG traits.
pub fn draw_u64(seed: u64, domain: Domain, index: u64) -> u64 {
    stream(seed, domain, index).next_u64()
}

/// One exponential draw with the given mean, via inverse-CDF over a draw
/// from the open unit interval (never exactly 0, so `ln` is finite).
pub fn exp_secs(rng: &mut SmallRng, mean_secs: f64) -> f64 {
    assert!(mean_secs > 0.0, "exponential mean must be positive");
    let u = ((rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
    -mean_secs * u.ln()
}

/// Deterministic per-name Bernoulli decision (seeded FNV-1a over the name,
/// finalized by [`mix64`]). Order-independent: the verdict for a name never
/// depends on how many other decisions were taken before it, which keeps
/// torn-write injection identical whatever order ranks reach the storage
/// system in.
pub fn name_decision(seed: u64, name: &str, prob: f64) -> bool {
    if prob <= 0.0 {
        return false;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    let unit = (mix64(h ^ mix64(seed)) >> 11) as f64 / (1u64 << 53) as f64;
    unit < prob
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_isolated() {
        let mut a1 = stream(7, Domain::NodeFailure, 3);
        let mut a2 = stream(7, Domain::NodeFailure, 3);
        let mut b = stream(7, Domain::NodeFailure, 4);
        let mut c = stream(7, Domain::LinkFlap, 3);
        let xs1: Vec<u64> = (0..8).map(|_| a1.next_u64()).collect();
        let xs2: Vec<u64> = (0..8).map(|_| a2.next_u64()).collect();
        assert_eq!(xs1, xs2, "same (seed, domain, index) must replay exactly");
        assert_ne!(xs1, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs1, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn exponential_mean_is_approximately_right() {
        let mut rng = stream(11, Domain::NodeFailure, 0);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| exp_secs(&mut rng, 40.0)).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 40.0).abs() < 1.5, "sample mean {mean} too far from 40");
    }

    #[test]
    fn name_decisions_are_stable_and_roughly_calibrated() {
        assert_eq!(name_decision(1, "img/a", 0.3), name_decision(1, "img/a", 0.3));
        assert!(!name_decision(1, "whatever", 0.0));
        let hits = (0..10_000)
            .filter(|i| name_decision(5, &format!("job/e{i}/r0"), 0.25))
            .count();
        assert!((2_000..3_000).contains(&hits), "hit rate {hits}/10000 far from 25%");
    }
}
