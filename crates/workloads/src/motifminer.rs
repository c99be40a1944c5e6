//! A MotifMiner-like parallel data-mining workload (§6.3, Figure 7).
//!
//! MotifMiner mines structural motifs in biomolecular datasets; its
//! parallel algorithm is iterative with an `MPI_Allgather` exchanging
//! candidates after each iteration — global communication, but each
//! iteration carries "a relatively large chunk of computation", which is
//! why group-based checkpointing still helps (§6.3).
//!
//! A real (tiny) frequent-subpath miner runs inside the timing shell: a
//! deterministic synthetic molecule graph is partitioned across ranks,
//! each rank extends its local candidate paths and counts support, and the
//! allgather merges global support counts — so results are checkable and
//! restart equivalence is meaningful. Per rank and iteration its work is
//! three kernels, each at its algorithm's cost:
//!
//! * **Mine** (`mine_level`): every surviving signature is extended by
//!   every bond of this rank's shard. The candidates (at most about 1 000)
//!   are stable-sorted by signature and each run of equal signatures is
//!   folded into one `(signature, support)` entry, O(k log k).
//! * **Exchange**: the sorted table is one count and one bulk write of
//!   16-byte records (`Encoder::put_records`); so is the checkpointed
//!   `MinerState`.
//! * **Merge** (`merge_and_prune`): each gathered shard is checked once and
//!   read where it lies (`Decoder::get_record_bytes`). The shards are
//!   merged head to head, least signature first, and the merge stops at 256
//!   survivors, so most gathered records are never read at all.

use bytes::{Buf, BufMut, Bytes};
use gbcr_blcr::codec::{Checkpointable, Decoder, Encoder};
use gbcr_blcr::CodecError;
use gbcr_core::{JobSpec, RankCtx};
use gbcr_des::{time, Time};
use gbcr_mpi::Msg;
use gbcr_storage::MB;
use std::sync::Arc;

/// Configuration of the MotifMiner-like run.
#[derive(Debug, Clone)]
pub struct MotifMinerWorkload {
    /// Number of ranks (paper: 32).
    pub n: u32,
    /// Mining iterations (path-length levels).
    pub iterations: u32,
    /// Base compute time per iteration per rank.
    pub iter_compute: Time,
    /// Per-process memory footprint in bytes.
    pub footprint: u64,
    /// Simulated bytes each rank contributes to the allgather.
    pub exchange_bytes: u64,
    /// Number of atoms in the synthetic molecule graph.
    pub atoms: u32,
    /// Deterministic per-rank compute imbalance amplitude (fraction).
    pub imbalance: f64,
}

impl Default for MotifMinerWorkload {
    fn default() -> Self {
        // Long per-iteration compute chunks: the lysozyme query is heavily
        // computation-bound, and the compute-chunk-to-epoch ratio is what
        // produces the paper's up-to-70 % reduction at the 30 s point.
        MotifMinerWorkload {
            n: 32,
            iterations: 4,
            iter_compute: time::secs(115),
            footprint: 520 * MB,
            exchange_bytes: 4 * MB,
            atoms: 64,
            imbalance: 0.15,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct MinerState {
    iter: u32,
    /// Support counts of the surviving candidate paths, keyed by a path
    /// signature hash (sorted for determinism).
    support: Vec<(u64, u64)>,
}

impl Checkpointable for MinerState {
    fn save(&self, enc: &mut Encoder) {
        enc.put_u32(self.iter);
        put_table(enc, &self.support);
    }
    fn restore(dec: &mut Decoder) -> Result<Self, CodecError> {
        Ok(MinerState { iter: dec.get_u32()?, support: get_table(dec)? })
    }
}

/// The one path every rank's first level extends.
const ROOT: (u64, u64) = (0x1234_5678, 1);

/// Field widths of one `(signature, count)` record.
const RECORD: [usize; 2] = [8, 8];

/// Write a `(signature, count)` table: a count, then one record per entry
/// (the bytes [`Encoder::put_seq`] writes for the same slice).
fn put_table(enc: &mut Encoder, table: &[(u64, u64)]) {
    enc.put_u64(table.len() as u64);
    enc.put_records(table, &RECORD, |w, &(sig, count)| {
        w.put_u64_le(sig);
        w.put_u64_le(count);
    });
}

/// Read a table as [`put_table`] writes it.
fn get_table(dec: &mut Decoder) -> Result<Vec<(u64, u64)>, CodecError> {
    let n = dec.get_u64()? as usize;
    dec.get_records(n, &RECORD, |r| (r.get_u64_le(), r.get_u64_le()))
}

/// One rank's gathered table, as the bytes of its records: checked once,
/// decoded by nobody until the merge reads a record.
fn shard_records(payload: Bytes) -> Result<Bytes, CodecError> {
    let mut dec = Decoder::new(payload);
    let n = dec.get_u64()? as usize;
    dec.get_record_bytes(n, &RECORD)
}

/// A record's `(signature, count)`: two little-endian `u64`s are the low
/// and high halves of one little-endian `u128`.
fn record(r: &[u8; 16]) -> (u64, u64) {
    let wide = u128::from_le_bytes(*r);
    (wide as u64, (wide >> 64) as u64)
}

/// Deterministic synthetic molecule: atom labels and a sparse bond list.
fn bonds(atoms: u32) -> Vec<(u32, u32)> {
    let mut b = Vec::new();
    for i in 0..atoms {
        b.push((i, (i + 1) % atoms)); // backbone ring
        if i % 3 == 0 && i + 5 < atoms {
            b.push((i, i + 5)); // cross-links
        }
    }
    b
}

fn atom_label(i: u32) -> u64 {
    u64::from(i % 5) // five element types
}

/// One level of local mining on this rank's shard: extend each frequent
/// path signature by the bonds whose lower endpoint hashes into the shard,
/// producing `(signature, count)` pairs sorted by signature, one per
/// signature.
///
/// A signature's support is the first candidate's count raised to at least
/// one, plus the counts of the later candidates with that signature, in
/// the order they are generated (the stable sort keeps it). Supports grow
/// geometrically with the level and pass `u64::MAX` within 32 levels, so
/// every sum here and in the merge wraps, in every build profile.
fn mine_level(rank: u32, n: u32, bonds: &[(u32, u32)], prev: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut candidates: Vec<(u64, u64)> = Vec::new();
    for &(a, b) in bonds {
        if a % n != rank {
            continue; // not this rank's shard
        }
        let edge_sig = atom_label(a)
            .wrapping_mul(31)
            .wrapping_add(atom_label(b))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let extend = |&(sig, count): &(u64, u64)| (sig.rotate_left(7) ^ edge_sig, count);
        candidates.extend(prev.iter().map(extend));
    }
    candidates.sort_by_key(|e| e.0);
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(candidates.len());
    for (sig, count) in candidates {
        match out.last_mut() {
            Some(last) if last.0 == sig => last.1 = last.1.wrapping_add(count),
            _ => out.push((sig, count.max(1))),
        }
    }
    out
}

/// Merge the gathered tables where they lie. A shard shorter than its
/// count says is the error [`get_table`] would give for it.
fn merge_gathered(gathered: Vec<Msg>) -> Result<Vec<(u64, u64)>, CodecError> {
    let shards =
        gathered.into_iter().map(|m| shard_records(m.data)).collect::<Result<Vec<_>, _>>()?;
    Ok(merge_and_prune(&shards))
}

/// Merge globally gathered candidate lists, keeping signatures whose total
/// support clears the (low) threshold — bounded so state stays small.
///
/// Each shard is the records of one table sorted by signature, as
/// `mine_level` leaves it: the shards are merged head to head, least
/// signature first, and the merge stops at the bound instead of building
/// the whole union first.
fn merge_and_prune(shards: &[Bytes]) -> Vec<(u64, u64)> {
    debug_assert!(shards.iter().all(|s| s.len() % 16 == 0));
    let mut tails: Vec<&[[u8; 16]]> = shards.iter().map(|s| s.as_chunks().0).collect();
    debug_assert!(tails.iter().all(|t| t.is_sorted_by_key(|r| record(r).0)));
    // The pass that takes one signature off the heads also finds the next.
    let mut next = tails.iter().filter_map(|t| Some(record(t.first()?).0)).min();
    let mut merged = Vec::new();
    while merged.len() < 256 {
        let Some(sig) = next.take() else { break };
        let mut total = 0u64;
        for tail in &mut tails {
            while let Some((r, rest)) = tail.split_first() {
                let (s, count) = record(r);
                if s != sig {
                    next = Some(next.map_or(s, |least| least.min(s)));
                    break;
                }
                total = total.wrapping_add(count);
                *tail = rest;
            }
        }
        if total >= 2 {
            merged.push((sig, total));
        }
    }
    merged
}

/// The digest a rank adds to the job's output: FNV-style over the final
/// support table.
fn digest(support: &[(u64, u64)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(sig, count) in support {
        h ^= sig.wrapping_mul(3).wrapping_add(count);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl MotifMinerWorkload {
    /// Rough baseline duration (compute-dominated).
    pub fn approx_duration(&self) -> Time {
        u64::from(self.iterations) * self.iter_compute
    }

    /// Compute time for `(rank, iter)` with deterministic imbalance.
    pub fn compute_at(&self, rank: u32, iter: u32) -> Time {
        let h = (u64::from(rank) << 32 | u64::from(iter)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let frac = (h >> 40) as f64 / (1u64 << 24) as f64; // [0, 1)
        let scale = 1.0 + self.imbalance * (frac - 0.5);
        (self.iter_compute as f64 * scale) as Time
    }

    /// Build the runnable job. If `digest_out` is supplied, each rank adds
    /// a digest of the final global support table into it.
    pub fn job(&self, digest_out: Option<Arc<parking_lot::Mutex<u64>>>) -> JobSpec {
        let cfg = self.clone();
        let bonds = bonds(self.atoms);
        let body = Arc::new(move |ctx: RankCtx<'_>| {
            let RankCtx { p, mpi, world, client, restored } = ctx;
            client.set_footprint(cfg.footprint);
            let all = world.world_comm();
            let mut st = match restored {
                Some(b) => MinerState::from_bytes(b).expect("valid miner state"),
                None => MinerState { iter: 0, support: vec![ROOT] },
            };
            while st.iter < cfg.iterations {
                client.set_state(st.to_bytes());
                // Candidate tables and working buffers churn a small slice
                // of the footprint each level (incremental-ckpt dirty set).
                client.mark_dirty(cfg.footprint / 12);
                // The big local chunk of computation (imbalanced).
                mpi.compute(p, cfg.compute_at(mpi.rank(), st.iter));
                let local = mine_level(mpi.rank(), cfg.n, &bonds, &st.support);
                // Global candidate exchange after each iteration.
                let payload = {
                    let mut e = Encoder::new();
                    put_table(&mut e, &local);
                    Msg::with_size(e.finish(), cfg.exchange_bytes)
                };
                let gathered = mpi.allgather(p, &all, payload);
                st.support = merge_gathered(gathered).unwrap_or_else(|e| {
                    panic!("rank {} iteration {}: gathered shard: {e}", mpi.rank(), st.iter)
                });
                st.iter += 1;
            }
            if let Some(out) = &digest_out {
                let mut g = out.lock();
                *g = g.wrapping_add(digest(&st.support));
            }
        });
        JobSpec::new("motifminer", self.n, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use proptest::prelude::*;

    /// The mining kernel this module used until candidates were sorted and
    /// folded: a bisection and a `Vec::insert` per candidate. Its sums wrap,
    /// as they always did in release builds.
    fn insertion_mine_level(
        rank: u32,
        n: u32,
        bonds: &[(u32, u32)],
        prev: &[(u64, u64)],
    ) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for &(a, b) in bonds {
            if a % n != rank {
                continue;
            }
            let edge_sig = atom_label(a)
                .wrapping_mul(31)
                .wrapping_add(atom_label(b))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for &(sig, count) in prev {
                let ext = sig.rotate_left(7) ^ edge_sig;
                match out.binary_search_by_key(&ext, |e| e.0) {
                    Ok(i) => out[i].1 = out[i].1.wrapping_add(count),
                    Err(i) => out.insert(i, (ext, count.max(1))),
                }
            }
        }
        out
    }

    /// The merge this module used until the shards were merged head to
    /// head: insert every entry into one sorted table, then prune.
    fn insertion_merge(all: &[Vec<(u64, u64)>]) -> Vec<(u64, u64)> {
        let mut merged: Vec<(u64, u64)> = Vec::new();
        for shard in all {
            for &(sig, count) in shard {
                match merged.binary_search_by_key(&sig, |e| e.0) {
                    Ok(i) => merged[i].1 = merged[i].1.wrapping_add(count),
                    Err(i) => merged.insert(i, (sig, count)),
                }
            }
        }
        merged.retain(|&(_, c)| c >= 2);
        merged.truncate(256);
        merged
    }

    /// Each table as the records a gathered shard carries, written by the
    /// per-field encoder (`put_seq`).
    fn records(tables: &[Vec<(u64, u64)>]) -> Vec<Bytes> {
        tables.iter().map(|t| shard_records(t.to_bytes()).unwrap()).collect()
    }

    /// Sorted and duplicate-free, as `mine_level` leaves a table; `spread`
    /// scatters signatures over the whole `u64` range.
    fn table(mut raw: Vec<(u64, u64)>, spread: u64) -> Vec<(u64, u64)> {
        for e in &mut raw {
            e.0 = e.0.wrapping_mul(spread | 1);
        }
        raw.sort_unstable();
        raw.dedup_by_key(|e| e.0);
        raw
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// 800 signatures for up to 32 × 120 entries, so shards share many
        /// of them; counts of 0..3 put totals on both sides of the prune;
        /// about half the cases leave more than 256 survivors, half fewer.
        #[test]
        fn merge_equals_the_insertion_merge(
            raw in prop::collection::vec(
                prop::collection::vec((0u64..800, 0u64..3), 0..120),
                0..32,
            ),
            spread in any::<u64>(),
        ) {
            let shards: Vec<Vec<(u64, u64)>> =
                raw.into_iter().map(|shard| table(shard, spread)).collect();
            prop_assert_eq!(merge_and_prune(&records(&shards)), insertion_merge(&shards));
        }

        /// Counts of 0..3 make `count.max(1)` matter: a run whose first
        /// candidate counts 0 totals one more than its counts. Bonds are a
        /// random subset of a 40-atom molecule's, cut into 1–7 shards, and
        /// atoms share five labels, so different bonds of one shard give
        /// equal edge signatures and runs of equal candidates.
        #[test]
        fn mine_level_equals_the_insertion_kernel(
            raw in prop::collection::vec((0u64..600, 0u64..3), 0..300),
            spread in any::<u64>(),
            mask in any::<u64>(),
            n in 1u32..8,
            rank in any::<u32>(),
        ) {
            let prev = table(raw, spread);
            // 52 bonds, one bit of `mask` each.
            let bonds: Vec<(u32, u32)> = bonds(40)
                .into_iter()
                .enumerate()
                .filter(|&(i, _)| (mask >> i) & 1 == 1)
                .map(|(_, b)| b)
                .collect();
            let rank = rank % n;
            prop_assert_eq!(
                mine_level(rank, n, &bonds, &prev),
                insertion_mine_level(rank, n, &bonds, &prev)
            );
        }
    }

    #[test]
    fn merge_stops_at_the_bound_and_prunes_below_two() {
        let shards: Vec<Vec<(u64, u64)>> =
            (0..4).map(|r| (0..400u64).map(|s| (s, u64::from(s % 4 == r))).collect()).collect();
        // Every signature totals 1 and is pruned.
        assert_eq!(merge_and_prune(&records(&shards)), []);
        let shards = vec![shards[0].clone(), shards[0].clone(), shards[1].clone()];
        // Signatures ≡ 0 (mod 4) total 2 and survive; ≡ 1 total 1.
        let merged = merge_and_prune(&records(&shards));
        assert_eq!(merged.len(), 100);
        assert!(merged.iter().all(|&(s, c)| s % 4 == 0 && c == 2));
        assert_eq!(merged, insertion_merge(&shards));
        let many: Vec<Vec<(u64, u64)>> = vec![(0..1000).map(|s| (s, 1)).collect(); 2];
        let want: Vec<(u64, u64)> = (0..256).map(|s| (s, 2)).collect();
        assert_eq!(merge_and_prune(&records(&many)), want);
        assert_eq!(merge_and_prune(&[]), []);
    }

    /// `collective_loop`'s MotifMiner shape (32 ranks, 32 levels, 64 atoms)
    /// outside the simulator. Every level, the kernels as they run (mine,
    /// bulk encode, merge in place) must give what the reference path gives
    /// (insertion kernel, `put_seq`, full decode, insertion merge): the same
    /// payload bytes per rank and the same merged table.
    #[test]
    fn benchmark_shape_matches_the_reference_path_level_by_level() {
        let (n, bonds) = (32, bonds(64));
        let mut support = vec![ROOT];
        for level in 0..32 {
            let (mut gathered, mut decoded) = (Vec::new(), Vec::new());
            for rank in 0..n {
                let mut bulk = Encoder::new();
                put_table(&mut bulk, &mine_level(rank, n, &bonds, &support));
                let reference = insertion_mine_level(rank, n, &bonds, &support).to_bytes();
                let bulk = bulk.finish();
                assert_eq!(bulk, reference, "level {level}, rank {rank}: payload");
                decoded.push(get_table(&mut Decoder::new(reference)).unwrap());
                gathered.push(Msg::with_size(bulk, 4 * MB));
            }
            let merged = merge_gathered(gathered).unwrap();
            assert_eq!(merged, insertion_merge(&decoded), "level {level}: merged table");
            support = merged;
        }
        assert_eq!(support.len(), 256);
        // What the replaced kernels computed in release builds, where `+` wraps.
        assert_eq!(digest(&support), 0x6DB8_DE45_8DBF_DAF7, "final table changed");
    }

    /// A shard whose count claims more records than follow fails the merge
    /// with the error, offset and message the full table decode gives, at
    /// every cut of a three-record shard; nothing indexes past the end.
    #[test]
    fn a_short_gathered_shard_fails_like_the_table_decode() {
        let whole = vec![(3u64, 1u64), (9, 0), (12, 2)].to_bytes();
        let good = Msg::with_size(whole.clone(), 64);
        for cut in 0..whole.len() {
            let short = whole.slice(..cut);
            let want = get_table(&mut Decoder::new(short.clone())).unwrap_err();
            let gathered = vec![good.clone(), Msg::with_size(short, 64), good.clone()];
            assert_eq!(merge_gathered(gathered).unwrap_err(), want, "cut {cut}");
        }
        // The count says three, the body holds two.
        let err = merge_gathered(vec![Msg::with_size(whole.slice(..8 + 32), 64)]).unwrap_err();
        assert_eq!(err, CodecError::Truncated { needed: 8, remaining: 0 });
        assert_eq!(err.to_string(), "truncated input: needed 8 bytes, had 0");
    }

    fn small() -> MotifMinerWorkload {
        MotifMinerWorkload {
            n: 8,
            iterations: 6,
            iter_compute: time::ms(300),
            footprint: 20 * MB,
            exchange_bytes: 256 * 1024,
            atoms: 32,
            imbalance: 0.2,
        }
    }

    #[test]
    fn mining_is_deterministic_and_converges() {
        let w = small();
        let d1 = Arc::new(Mutex::new(0u64));
        w.job(Some(d1.clone())).runner().run().unwrap();
        let d2 = Arc::new(Mutex::new(0u64));
        w.job(Some(d2.clone())).runner().run().unwrap();
        let (a, b) = (*d1.lock(), *d2.lock());
        assert_eq!(a, b, "mining result must be deterministic");
        // The value the insertion-merge kernel produced before the shards
        // were merged head to head: a kernel change must not move it.
        assert_eq!(a, 0x028D_2219_7463_02C8, "mining result changed");
    }

    #[test]
    fn all_ranks_agree_on_global_support() {
        // Every rank ends with the same merged table, so the digest sum is
        // n × (single digest): check divisibility by running twice with
        // different n.
        let w = small();
        let d = Arc::new(Mutex::new(0u64));
        w.job(Some(d.clone())).runner().run().unwrap();
        let total = *d.lock();
        // Per-rank digests are identical; recover one by dividing.
        assert_eq!(total % u64::from(w.n), 0, "ranks disagreed on the final table");
    }

    #[test]
    fn imbalance_varies_compute_but_stays_bounded() {
        let w = MotifMinerWorkload::default();
        let base = w.iter_compute as f64;
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        for r in 0..w.n {
            for it in 0..w.iterations {
                let c = w.compute_at(r, it) as f64;
                min = min.min(c);
                max = max.max(c);
            }
        }
        assert!(max <= base * (1.0 + w.imbalance / 2.0) + 1.0);
        assert!(min >= base * (1.0 - w.imbalance / 2.0) - 1.0);
        assert!(max > min, "imbalance should actually vary");
    }

    #[test]
    fn miner_state_round_trips() {
        let st = MinerState { iter: 4, support: vec![(9, 2), (11, 5)] };
        assert_eq!(MinerState::from_bytes(st.to_bytes()).unwrap(), st);
        let mut fields = Encoder::new();
        fields.put_u32(st.iter);
        fields.put_seq(&st.support);
        assert_eq!(st.to_bytes(), fields.finish(), "the bulk write changed the layout");
    }

    #[test]
    fn duration_model_matches_run() {
        let w = small();
        let report = w.job(None).runner().run().unwrap();
        let expect = time::as_secs_f64(w.approx_duration());
        let got = time::as_secs_f64(report.completion);
        assert!((got - expect).abs() / expect < 0.15, "got {got}, expect ~{expect}");
    }
}
