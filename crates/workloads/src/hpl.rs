//! An HPL-like distributed LU factorization (§6.2, Figures 5–6).
//!
//! HPL solves a dense linear system on a P×Q process grid; per panel `k`
//! the owning process *column* factors the panel, the panel is broadcast
//! along process *rows*, the current U-row travels down process *columns*,
//! and everyone applies the trailing update whose cost shrinks as
//! `(1 − k/K)²`. With the paper's 8×4 grid and a large block size the
//! communication group is effectively the process row (four ranks).
//!
//! Two things are layered on one loop:
//!
//! * **Timing**: compute and wire costs are scaled to a paper-sized
//!   problem (hundreds of MB per process, panels of several MB), giving
//!   Figures 5/6 their shape.
//! * **Numerics**: a real (small) dense matrix in block-cyclic element
//!   distribution is factored by the same communication pattern —
//!   element-granularity right-looking Gaussian elimination without
//!   pivoting on a diagonally dominant matrix. Tests check the distributed
//!   result against a sequential oracle, and restart tests check that a
//!   killed-and-restored factorization finishes bit-identically.

use bytes::{Buf, BufMut, Bytes};
use gbcr_blcr::codec::{Checkpointable, Decoder, Encoder};
use gbcr_blcr::CodecError;
use gbcr_core::{JobSpec, RankCtx};
use gbcr_des::{time, Time};
use gbcr_mpi::{Comm, Mpi, Msg};
use gbcr_storage::MB;
use std::sync::Arc;

/// Configuration of the HPL-like run.
#[derive(Debug, Clone)]
pub struct HplWorkload {
    /// Process grid rows (paper: 8).
    pub grid_rows: u32,
    /// Process grid columns (paper: 4) — the effective comm group.
    pub grid_cols: u32,
    /// Number of panels (matrix dimension for the real numerics).
    pub panels: u32,
    /// Base per-process footprint in bytes; the declared footprint varies
    /// over the run (the paper observed non-constant memory footprints).
    pub base_footprint: u64,
    /// Panel factorization compute time at `k = 0`.
    pub factor_time: Time,
    /// Trailing-update compute time at `k = 0` (scales down as the
    /// factorization proceeds).
    pub update_time: Time,
    /// Simulated bytes of a full panel broadcast at `k = 0`.
    pub panel_bytes: u64,
    /// The trailing update is pipelined into this many sub-steps with an
    /// intra-row exchange between them (HPL's update streams U sub-blocks,
    /// producing continuous row traffic). This is what makes checkpoint
    /// groups smaller than a grid row pay: they split a row, so the
    /// sub-step exchange defers during the epoch.
    pub update_substeps: u32,
}

impl Default for HplWorkload {
    fn default() -> Self {
        // The paper ran HPL "with a larger block size": few panels, long
        // trailing updates — which is what lets other groups overlap a
        // whole group-by-group checkpoint epoch with computation.
        HplWorkload {
            grid_rows: 8,
            grid_cols: 4,
            panels: 8,
            base_footprint: 600 * MB,
            factor_time: time::secs(3),
            update_time: time::secs(140),
            panel_bytes: 64 * MB,
            update_substeps: 8,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct HplState {
    panel: u32,
    /// This rank's owned elements of the live matrix, row-major over its
    /// local (i, j) index space.
    local: Vec<f64>,
}

impl Checkpointable for HplState {
    fn save(&self, enc: &mut Encoder) {
        enc.put_u32(self.panel);
        put_f64s(enc, &self.local);
    }
    fn restore(dec: &mut Decoder) -> Result<Self, CodecError> {
        Ok(HplState { panel: dec.get_u32()?, local: get_f64s(dec)? })
    }
}

/// Write an `f64` vector: a count, then the values by bit pattern (the
/// bytes [`Encoder::put_seq`] writes for the same slice).
fn put_f64s(enc: &mut Encoder, values: &[f64]) {
    enc.put_u64(values.len() as u64);
    enc.put_records(values, &[8], |w, v| w.put_u64_le(v.to_bits()));
}

/// Read an `f64` vector as [`put_f64s`] writes it.
fn get_f64s(dec: &mut Decoder) -> Result<Vec<f64>, CodecError> {
    let n = dec.get_u64()? as usize;
    dec.get_records(n, &[8], |r| f64::from_bits(r.get_u64_le()))
}

/// Decode a broadcast panel (an L column or a U row).
fn decode_panel(payload: Bytes) -> Result<Vec<f64>, CodecError> {
    get_f64s(&mut Decoder::new(payload))
}

/// Deterministic, diagonally dominant test matrix.
pub fn matrix_entry(n: u32, i: u32, j: u32) -> f64 {
    if i == j {
        (2 * n) as f64 + (i % 7) as f64
    } else {
        let h = (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        ((h >> 40) as f64 / (1u64 << 24) as f64) - 0.5
    }
}

/// Sequential right-looking Gaussian elimination (no pivoting) — the
/// oracle the distributed run is checked against.
pub fn sequential_lu(n: u32) -> Vec<f64> {
    let n_us = n as usize;
    let mut a: Vec<f64> = (0..n_us * n_us)
        .map(|idx| matrix_entry(n, (idx / n_us) as u32, (idx % n_us) as u32))
        .collect();
    for k in 0..n_us {
        let pivot = a[k * n_us + k];
        for i in (k + 1)..n_us {
            let l = a[i * n_us + k] / pivot;
            a[i * n_us + k] = l;
            for j in (k + 1)..n_us {
                a[i * n_us + j] -= l * a[k * n_us + j];
            }
        }
    }
    a
}

/// Deterministic digest of a set of `f64`s by bit pattern.
pub fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        h ^= v.to_bits();
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Digest of the full sequentially factored matrix (ground truth for
/// [`HplWorkload`] runs; the distributed digests are order-normalized by
/// summing per-rank digests).
pub fn sequential_digest_sum(n: u32, grid_rows: u32, grid_cols: u32) -> u64 {
    let a = sequential_lu(n);
    let mut sum = 0u64;
    for pr in 0..grid_rows {
        for pc in 0..grid_cols {
            let mut mine = Vec::new();
            for i in (0..n).filter(|i| i % grid_rows == pr) {
                for j in (0..n).filter(|j| j % grid_cols == pc) {
                    mine.push(a[(i * n + j) as usize]);
                }
            }
            sum = sum.wrapping_add(digest(mine));
        }
    }
    sum
}

impl HplWorkload {
    /// Total ranks.
    pub fn n(&self) -> u32 {
        self.grid_rows * self.grid_cols
    }

    /// Rough baseline duration: Σ_k (factor·√s + update·s), s = (1−k/K)².
    pub fn approx_duration(&self) -> Time {
        let kk = f64::from(self.panels);
        let mut total = 0.0;
        for k in 0..self.panels {
            let s = (1.0 - f64::from(k) / kk).powi(2);
            total += self.factor_time as f64 * s.sqrt() + self.update_time as f64 * s;
        }
        total as Time
    }

    /// Footprint at panel `k`: ramps from 75 % to 125 % of the base (the
    /// paper notes the footprint is not constant during execution).
    pub fn footprint_at(&self, k: u32) -> u64 {
        let progress = f64::from(k) / f64::from(self.panels.max(1));
        (self.base_footprint as f64 * (0.75 + 0.5 * progress)) as u64
    }

    /// Build the runnable job. If `sum_out` is supplied, each rank adds its
    /// final local digest into it (checked against
    /// [`sequential_digest_sum`] in tests).
    pub fn job(&self, sum_out: Option<Arc<parking_lot::Mutex<u64>>>) -> JobSpec {
        let cfg = self.clone();
        let n = self.n();
        let body = Arc::new(move |ctx: RankCtx<'_>| {
            let RankCtx { p, mpi, world, client, restored } = ctx;
            let rank = mpi.rank();
            let (pr, pc) = (rank / cfg.grid_cols, rank % cfg.grid_cols);
            let row_comm =
                world.comm((0..cfg.grid_cols).map(|c| pr * cfg.grid_cols + c).collect());
            let col_comm =
                world.comm((0..cfg.grid_rows).map(|r| r * cfg.grid_cols + pc).collect());
            let k_total = cfg.panels;

            let mut st = match restored {
                Some(b) => HplState::from_bytes(b).expect("valid HPL state"),
                None => HplState {
                    panel: 0,
                    local: local_indices(k_total, pr, pc, cfg.grid_rows, cfg.grid_cols)
                        .map(|(i, j)| matrix_entry(k_total, i, j))
                        .collect(),
                },
            };
            let lidx = |i: u32, j: u32| -> usize {
                let li = (i / cfg.grid_rows) as usize;
                let lj = (j / cfg.grid_cols) as usize;
                let cols = (k_total - pc).div_ceil(cfg.grid_cols) as usize;
                li * cols + lj
            };

            while st.panel < k_total {
                let k = st.panel;
                client.set_footprint(cfg.footprint_at(k));
                client.set_state(st.to_bytes());
                let shrink = {
                    let f = 1.0 - f64::from(k) / f64::from(k_total);
                    f * f
                };
                // The trailing update rewrites the remaining submatrix:
                // that is the dirty set an incremental checkpoint writes.
                client.mark_dirty((cfg.footprint_at(k) as f64 * shrink) as u64);
                let owner_col = k % cfg.grid_cols;
                let owner_row = k % cfg.grid_rows;

                // --- Panel factorization in the owning process column. ---
                let mut l_col: Vec<f64> = Vec::new();
                if pc == owner_col {
                    mpi.compute(
                        p,
                        ((cfg.factor_time as f64 * shrink.sqrt()) as Time).max(time::ms(1)),
                    );
                    // Pivot travels down the process column.
                    let pivot = {
                        let root = col_comm.index_of(owner_row * cfg.grid_cols + pc).unwrap();
                        let mine = (pr == owner_row).then(|| Msg::f64(st.local[lidx(k, k)]));
                        mpi.bcast(p, &col_comm, root, mine).as_f64()
                    };
                    // Scale my below-diagonal entries of column k.
                    for i in ((k + 1)..k_total).filter(|i| i % cfg.grid_rows == pr) {
                        let v = st.local[lidx(i, k)] / pivot;
                        st.local[lidx(i, k)] = v;
                        l_col.push(v);
                    }
                }

                // --- Panel broadcast along process rows (the paper's
                //     dominant, comm-group-defining traffic). ---
                let panel_wire =
                    ((cfg.panel_bytes as f64 * shrink).max(64.0 * 1024.0)) as u64;
                let l_mine = broadcast_f64s(
                    p, &mpi, &row_comm, owner_col as usize, &l_col, panel_wire, pc == owner_col,
                );

                // --- U-row travels down process columns. ---
                let mut u_row: Vec<f64> = Vec::new();
                if pr == owner_row {
                    for j in ((k + 1)..k_total).filter(|j| j % cfg.grid_cols == pc) {
                        u_row.push(st.local[lidx(k, j)]);
                    }
                }
                let u_wire = (panel_wire / cfg.grid_cols as u64).max(16 * 1024);
                let u_mine = broadcast_f64s(
                    p,
                    &mpi,
                    &col_comm,
                    col_comm.index_of(owner_row * cfg.grid_cols + pc).unwrap(),
                    &u_row,
                    u_wire,
                    pr == owner_row,
                );
                let (l_mine, u_mine) = match (l_mine, u_mine) {
                    (Ok(l), Ok(u)) => (l, u),
                    (Err(e), _) | (_, Err(e)) => {
                        panic!("rank {rank} panel {k}: broadcast: {e}")
                    }
                };

                // --- Trailing update, pipelined into sub-steps with
                //     intra-row exchange (streamed U sub-blocks). ---
                let sub = cfg.update_substeps.max(1);
                let sub_compute =
                    ((cfg.update_time as f64 * shrink / f64::from(sub)) as Time).max(time::ms(1));
                let row_n = row_comm.size();
                for s in 0..sub {
                    mpi.compute(p, sub_compute);
                    if sub > 1 && row_n > 1 {
                        let idx = row_comm.index_of(rank).unwrap();
                        let r_peer = row_comm.member((idx + 1) % row_n);
                        let l_peer = row_comm.member((idx + row_n - 1) % row_n);
                        let tag = k * 64 + s + 1_000;
                        let sr = mpi.isend(p, r_peer, tag, Msg::bulk(MB));
                        let _ = mpi.recv(p, Some(l_peer), tag);
                        mpi.wait(p, sr);
                    }
                }
                let my_rows: Vec<u32> =
                    ((k + 1)..k_total).filter(|i| i % cfg.grid_rows == pr).collect();
                let my_cols: Vec<u32> =
                    ((k + 1)..k_total).filter(|j| j % cfg.grid_cols == pc).collect();
                for (ri, &i) in my_rows.iter().enumerate() {
                    let l = l_mine[ri];
                    for (ci, &j) in my_cols.iter().enumerate() {
                        let u = u_mine[ci];
                        let v = st.local[lidx(i, j)] - l * u;
                        st.local[lidx(i, j)] = v;
                    }
                }
                st.panel += 1;
            }
            let _ = n;
            if let Some(sum) = &sum_out {
                let mut s = sum.lock();
                *s = s.wrapping_add(crate::hpl::digest(st.local.iter().copied()));
            }
        });
        JobSpec::new("hpl", n, body)
    }
}

/// Owned (i, j) pairs for a rank at grid position `(pr, pc)`, row-major.
fn local_indices(
    n: u32,
    pr: u32,
    pc: u32,
    grid_rows: u32,
    grid_cols: u32,
) -> impl Iterator<Item = (u32, u32)> {
    (0..n).filter(move |i| i % grid_rows == pr).flat_map(move |i| {
        (0..n).filter(move |j| j % grid_cols == pc).map(move |j| (i, j))
    })
}

/// Broadcast a small real `f64` vector inside a `wire_size`-byte simulated
/// payload over `comm` from `root` (communicator index).
fn broadcast_f64s(
    p: &gbcr_des::Proc,
    mpi: &Mpi,
    comm: &Comm,
    root: usize,
    values: &[f64],
    wire_size: u64,
    am_root: bool,
) -> Result<Vec<f64>, CodecError> {
    let mine = am_root.then(|| {
        let mut enc = Encoder::new();
        put_f64s(&mut enc, values);
        Msg::with_size(enc.finish(), wire_size)
    });
    decode_panel(mpi.bcast(p, comm, root, mine).data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    fn small() -> HplWorkload {
        HplWorkload {
            grid_rows: 4,
            grid_cols: 2,
            panels: 24,
            base_footprint: 20 * MB,
            factor_time: time::ms(20),
            update_time: time::ms(100),
            panel_bytes: MB,
            update_substeps: 4,
        }
    }

    #[test]
    fn distributed_lu_matches_sequential_oracle() {
        let w = small();
        let sum = Arc::new(Mutex::new(0u64));
        w.job(Some(sum.clone())).runner().run().unwrap();
        let want = sequential_digest_sum(w.panels, w.grid_rows, w.grid_cols);
        assert_eq!(*sum.lock(), want, "distributed factorization diverged from oracle");
    }

    #[test]
    fn matrix_is_diagonally_dominant() {
        let n = 32;
        for i in 0..n {
            let diag = matrix_entry(n, i, i).abs();
            let off: f64 =
                (0..n).filter(|&j| j != i).map(|j| matrix_entry(n, i, j).abs()).sum();
            assert!(diag > off, "row {i} not dominant: {diag} <= {off}");
        }
    }

    #[test]
    fn footprint_varies_over_execution() {
        let w = HplWorkload::default();
        assert!(w.footprint_at(0) < w.footprint_at(w.panels / 2));
        assert!(w.footprint_at(w.panels / 2) < w.footprint_at(w.panels));
        assert_eq!(w.footprint_at(0), (600.0 * 0.75) as u64 * MB);
    }

    #[test]
    fn state_round_trips() {
        let st = HplState { panel: 3, local: vec![1.5, -2.25, 1e-9] };
        assert_eq!(HplState::from_bytes(st.to_bytes()).unwrap(), st);
        let mut fields = Encoder::new();
        fields.put_u32(st.panel);
        fields.put_seq(&st.local);
        assert_eq!(st.to_bytes(), fields.finish(), "the bulk write changed the layout");
    }

    #[test]
    fn approx_duration_is_sane() {
        let w = HplWorkload::default();
        let d = time::as_secs_f64(w.approx_duration());
        // 8 panels: Σ (3·√s + 140·s) with s = (1−k/8)² ≈ 459.7 s.
        assert!((d - 459.7).abs() < 1.0, "got {d}");
    }
}
