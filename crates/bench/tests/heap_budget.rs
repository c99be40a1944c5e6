//! What a live rank costs in heap: the scale study's micro job runs at
//! several sizes under a counting allocator, and the growth of the heap's
//! peak per added rank must stay within budget. The budget is the per-rank
//! heap a runtime hosting every rank in one process must keep small
//! (EXPERIMENTS.md, "A rank's heap, named and cut"); the sites behind it
//! are named by `scripts/sigprof/heapprof.c`. Under group-based
//! checkpointing that cost must not grow with the job either: a rank keeps
//! nothing per group.
//!
//! The same allocator counts the allocations a job *makes*: the gate's
//! messages — a broadcast and an ACK per rank and group — must make none,
//! so a job in groups makes no more than the same job checkpointed all at
//! once.
//!
//! The allocator is this test binary's alone, and the binary holds this
//! one test, so nothing else allocates while a job runs.

use gbcr_bench::{scale, static_cfg};
use gbcr_des::time;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Heap bytes one more rank may add at the peak.
const BYTES_PER_RANK: f64 = 4.5 * 1024.0;
/// Allocations one more rank may add at the peak.
const ALLOCS_PER_RANK: f64 = 26.0;
/// How much more heap per added rank the job may take from 256 to 1 024
/// ranks than from 64 to 256, at a group size of 8.
const SLOPE_GROWTH: f64 = 32.0;
/// Allocations the job may make per rank and added group turn.
const ALLOCS_PER_RANK_GROUP: f64 = 0.05;

struct Counting;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static LIVE_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);
/// Live allocations when the live bytes last reached their peak.
static PEAK_ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Allocations made so far (a reallocation is not one).
static MADE: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    fn grew(bytes: usize, allocs: usize) {
        MADE.fetch_add(allocs, Relaxed);
        let live = LIVE_BYTES.fetch_add(bytes, Relaxed) + bytes;
        let count = LIVE_ALLOCS.fetch_add(allocs, Relaxed) + allocs;
        if live > PEAK_BYTES.load(Relaxed) {
            PEAK_BYTES.store(live, Relaxed);
            PEAK_ALLOCS.store(count, Relaxed);
        }
    }
}

// SAFETY: every call is forwarded to `System` unchanged, under the same
// contract it was made with; the counters are bookkeeping beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds this method's contract, which is `System`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Counting::grew(layout.size(), 1);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds this method's contract, which is `System`'s.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Counting::grew(layout.size(), 1);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds this method's contract, which is `System`'s.
        unsafe { System.dealloc(p, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
        LIVE_ALLOCS.fetch_sub(1, Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds this method's contract, which is `System`'s.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
            Counting::grew(new_size, 0);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `(bytes, allocations)` live at the heap peak of one run of the scale job
/// at `n` ranks, checkpointed once in groups of `g`, and the allocations
/// the run made.
fn peak_of_scale_job(n: u32, g: u32) -> (f64, f64, f64) {
    PEAK_BYTES.store(LIVE_BYTES.load(Relaxed), Relaxed);
    PEAK_ALLOCS.store(LIVE_ALLOCS.load(Relaxed), Relaxed);
    let made = MADE.load(Relaxed);
    let report = scale::workload(n)
        .job()
        .runner()
        .ckpt(static_cfg("micro", g, time::secs(5)))
        .run()
        .expect("the scale job runs");
    assert_eq!(report.epochs.len(), 1, "{n} ranks: one checkpoint epoch");
    drop(report);
    let made = (MADE.load(Relaxed) - made) as f64;
    (PEAK_BYTES.load(Relaxed) as f64, PEAK_ALLOCS.load(Relaxed) as f64, made)
}

#[test]
fn a_rank_costs_at_most_its_heap_budget() {
    let (small, large) = (64, 256);
    let (bytes_small, allocs_small, _) = peak_of_scale_job(small, small);
    let (bytes_large, allocs_large, made_all) = peak_of_scale_job(large, large);
    let added = f64::from(large - small);
    let bytes = (bytes_large - bytes_small) / added;
    let allocs = (allocs_large - allocs_small) / added;
    eprintln!("heap per rank at the peak: {bytes:.0} B in {allocs:.1} allocations");
    assert!(
        bytes <= BYTES_PER_RANK,
        "a rank holds {bytes:.0} B of heap at the peak, over its {BYTES_PER_RANK} B budget"
    );
    assert!(
        allocs <= ALLOCS_PER_RANK,
        "a rank holds {allocs:.1} allocations at the peak, over its {ALLOCS_PER_RANK} budget"
    );

    // Groups of eight: the per-rank slope stays flat from 64 to 1 024.
    let [(b64, ..), (b256, _, made_g8), (b1024, ..)] =
        [64, 256, 1024].map(|n| peak_of_scale_job(n, 8));
    let (near, far) = ((b256 - b64) / 192.0, (b1024 - b256) / 768.0);
    eprintln!("heap per rank at g = 8: {near:.0} B (64 -> 256), {far:.0} B (256 -> 1024)");
    assert!(
        far - near <= SLOPE_GROWTH,
        "at g = 8 a rank costs {:.1} B more from 256 to 1024 ranks than from 64 to 256",
        far - near
    );

    // The 31 group turns more than `All(256)` take cost the gate messages
    // and nothing else.
    let rank_groups = f64::from(large) * f64::from(large / 8 - 1);
    let per = (made_g8 - made_all) / rank_groups;
    eprintln!("allocations made per (rank, group) at 256 ranks: {per:.3}");
    assert!(
        per <= ALLOCS_PER_RANK_GROUP,
        "a group turn makes {per:.2} allocations per rank, over its {ALLOCS_PER_RANK_GROUP}"
    );
}
