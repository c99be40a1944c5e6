//! HPL under checkpointing: compare regular coordinated checkpointing
//! against group-based checkpointing on the paper's 8×4 grid, and verify
//! that the factorization result is bit-identical in all three runs.
//!
//! Run with: `cargo run --release --example hpl_checkpoint`

use gbcr_core::{CkptSchedule, CoordinatorCfg};
use gbcr_des::time;
use gbcr_workloads::{hpl, HplWorkload};
use parking_lot::Mutex;
use std::sync::Arc;

fn cfg(group_size: u32) -> CoordinatorCfg {
    CoordinatorCfg::new("hpl", group_size, CkptSchedule::once(time::secs(50)))
}

fn main() {
    let w = HplWorkload::default();
    let oracle = hpl::sequential_digest_sum(w.panels, w.grid_rows, w.grid_cols);
    println!(
        "HPL-like run: {}×{} grid, {} panels, {} MB base footprint",
        w.grid_rows,
        w.grid_cols,
        w.panels,
        w.base_footprint / 1_000_000
    );

    let digest = Arc::new(Mutex::new(0u64));
    let base = w.job(Some(digest.clone())).runner().run().expect("baseline");
    assert_eq!(*digest.lock(), oracle, "baseline result");
    println!(
        "baseline: {:.1} s (digest matches sequential oracle)",
        time::as_secs_f64(base.completion)
    );

    for (label, g) in [("regular  All(32)", 32u32), ("group-based g=4  ", 4)] {
        let digest = Arc::new(Mutex::new(0u64));
        let ck = w.job(Some(digest.clone())).runner().ckpt(cfg(g)).run().expect("ckpt run");
        assert_eq!(*digest.lock(), oracle, "checkpointed result for g={g}");
        let m = gbcr_bench::Cell::measure(&base, &ck);
        println!(
            "{label}: effective delay {:6.1} s | individual {:5.1} s | total {:5.1} s | result ok",
            m.effective, m.individual, m.total,
        );
    }
    println!(
        "\ngroup-based checkpointing cut the effective delay while every run \
              factored the matrix identically."
    );
}
