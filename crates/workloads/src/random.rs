//! Seeded random-traffic workload for property tests.
//!
//! Generates an arbitrary but fully deterministic communication pattern:
//! each step, every rank computes a little and then exchanges with a
//! pseudo-randomly chosen partner (symmetric pairing so sends and receives
//! always match), with pseudo-random message sizes spanning the
//! eager/rendezvous boundary. Used by the consistency and restart property
//! tests to hammer the checkpoint protocols with patterns no hand-written
//! workload would produce.

use bytes::Bytes;
use gbcr_blcr::codec::{Checkpointable, Decoder, Encoder};
use gbcr_blcr::CodecError;
use gbcr_core::{JobSpec, RankCtx};
use gbcr_des::{time, Time};
use gbcr_mpi::Msg;
use gbcr_storage::MB;
use std::sync::Arc;

/// Shared collector for per-rank final results.
pub type ResultsSink = Arc<parking_lot::Mutex<Vec<(u32, u64)>>>;

/// Configuration of the random-traffic workload.
#[derive(Debug, Clone)]
pub struct RandomTraffic {
    /// Number of ranks (must be even: steps use perfect matchings).
    pub n: u32,
    /// Steps to run.
    pub steps: u64,
    /// Pattern seed (decoupled from the simulation seed).
    pub pattern_seed: u64,
    /// Per-step compute time.
    pub step_compute: Time,
    /// Per-process footprint.
    pub footprint: u64,
    /// Probability (in 1/256ths) that a step's message is rendezvous-big.
    pub big_prob: u8,
}

impl Default for RandomTraffic {
    fn default() -> Self {
        RandomTraffic {
            n: 8,
            steps: 120,
            pattern_seed: 1,
            step_compute: time::ms(30),
            footprint: 24 * MB,
            big_prob: 48,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TrafficState {
    step: u64,
    acc: u64,
}

impl Checkpointable for TrafficState {
    fn save(&self, enc: &mut Encoder) {
        enc.put_u64(self.step);
        enc.put_u64(self.acc);
    }
    fn restore(dec: &mut Decoder) -> Result<Self, CodecError> {
        Ok(TrafficState { step: dec.get_u64()?, acc: dec.get_u64()? })
    }
}

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The partner of `rank` at `step`: a rotation-based perfect matching on
/// `n` ranks (round-robin tournament schedule), keyed by the pattern seed.
pub fn partner(n: u32, seed: u64, step: u64, rank: u32) -> u32 {
    assert!(n >= 2 && n.is_multiple_of(2), "random traffic needs an even rank count");
    let round = (mix(seed.wrapping_add(step)) % u64::from(n - 1)) as u32;
    // Standard circle method: rank n−1 is fixed, others rotate.
    let m = n - 1;
    let pos = |r: u32| -> u32 {
        if r == m {
            m
        } else {
            (r + round) % m
        }
    };
    let unpos = |q: u32| -> u32 {
        if q == m {
            m
        } else {
            (q + m - round % m) % m
        }
    };
    let q = pos(rank);
    let mate_pos = if q == m {
        0
    } else if q == 0 {
        m
    } else {
        m - q
    };
    unpos(mate_pos)
}

impl RandomTraffic {
    /// Build the runnable job. If `out` is supplied, each rank adds its
    /// final accumulator (so runs can be compared for equivalence).
    pub fn job(&self, out: Option<ResultsSink>) -> JobSpec {
        let cfg = self.clone();
        let body = Arc::new(move |ctx: RankCtx<'_>| {
            let RankCtx { p, mpi, world: _, client, restored } = ctx;
            client.set_footprint(cfg.footprint);
            let mut st = match restored {
                Some(b) => TrafficState::from_bytes(b).expect("valid traffic state"),
                None => TrafficState { step: 0, acc: u64::from(mpi.rank()) ^ 0xABCD },
            };
            while st.step < cfg.steps {
                client.set_state(st.to_bytes());
                mpi.compute(p, cfg.step_compute);
                let mate = partner(cfg.n, cfg.pattern_seed, st.step, mpi.rank());
                debug_assert_eq!(
                    partner(cfg.n, cfg.pattern_seed, st.step, mate),
                    mpi.rank(),
                    "matching must be symmetric"
                );
                let tag = (st.step % 100_000) as u32;
                let big =
                    ((mix(cfg.pattern_seed ^ st.step.rotate_left(17)) & 0xFF) as u8) < cfg.big_prob;
                let size = if big { 3 * MB } else { 256 };
                let payload = Msg::with_size(Bytes::copy_from_slice(&st.acc.to_le_bytes()), size);
                let s = mpi.isend(p, mate, tag, payload);
                let got = mpi.recv(p, Some(mate), tag);
                mpi.wait(p, s);
                st.acc = st
                    .acc
                    .wrapping_mul(0x100_0000_01b3)
                    .wrapping_add(got.as_u64())
                    .wrapping_add(u64::from(mpi.rank()));
                st.step += 1;
            }
            if let Some(out) = &out {
                out.lock().push((mpi.rank(), st.acc));
            }
        });
        JobSpec::new("random-traffic", self.n, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_is_a_symmetric_permutation_without_fixpoints() {
        for n in [2u32, 4, 8, 16] {
            for step in 0..50u64 {
                for r in 0..n {
                    let m = partner(n, 7, step, r);
                    assert_ne!(m, r, "n={n} step={step} rank={r} paired with itself");
                    assert_eq!(partner(n, 7, step, m), r, "asymmetric pairing");
                }
            }
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a: Vec<u32> = (0..20).map(|s| partner(8, 1, s, 0)).collect();
        let b: Vec<u32> = (0..20).map(|s| partner(8, 2, s, 0)).collect();
        assert_ne!(a, b);
    }
}
