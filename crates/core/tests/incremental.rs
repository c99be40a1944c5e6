//! Incremental checkpointing (the paper's §8 future work, implemented as
//! an extension): later images write only the dirty bytes; restores read
//! the image plus its chain; results stay exact.

use bytes::Bytes;
use gbcr_blcr::ProcessImage;
use gbcr_core::{CkptMode, CkptSchedule, CoordinatorCfg, Formation, JobSpec, RankCtx};
use gbcr_des::{time, Time};
use gbcr_storage::MB;
use parking_lot::Mutex;
use std::sync::Arc;

/// Compute-heavy body with a small per-step dirty set, so incremental
/// images are much smaller than full ones.
type Results = Arc<Mutex<Vec<(u32, u64)>>>;

fn job(steps: u64) -> (JobSpec, Results) {
    let results: Arc<Mutex<Vec<(u32, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let out = results.clone();
    let body = Arc::new(move |ctx: RankCtx<'_>| {
        let RankCtx { p, mpi, world: _, client, restored } = ctx;
        client.set_footprint(140 * MB);
        let mut st: (u64, u64) = restored
            .map(|b| {
                let a: [u8; 16] = b.as_ref().try_into().unwrap();
                (
                    u64::from_le_bytes(a[..8].try_into().unwrap()),
                    u64::from_le_bytes(a[8..].try_into().unwrap()),
                )
            })
            .unwrap_or((0, u64::from(mpi.rank()) + 1));
        let n = mpi.size();
        let right = (mpi.rank() + 1) % n;
        let left = (mpi.rank() + n - 1) % n;
        while st.0 < steps {
            let mut buf = [0u8; 16];
            buf[..8].copy_from_slice(&st.0.to_le_bytes());
            buf[8..].copy_from_slice(&st.1.to_le_bytes());
            client.set_state(Bytes::copy_from_slice(&buf));
            client.mark_dirty(2 * MB); // small dirty set per step
            mpi.compute(p, time::ms(100));
            let tag = (st.0 % 900) as u32;
            let s = mpi.isend(p, right, tag, gbcr_mpi::Msg::u64(st.1));
            let got = mpi.recv(p, Some(left), tag);
            mpi.wait(p, s);
            st.1 = st.1.wrapping_mul(31).wrapping_add(got.as_u64());
            st.0 += 1;
        }
        out.lock().push((mpi.rank(), st.1));
    });
    (JobSpec::new("inc", 8, body), results)
}

fn cfg(incremental: bool, at: Vec<Time>) -> CoordinatorCfg {
    CoordinatorCfg {
        job: "inc".into(),
        mode: CkptMode::Buffering,
        formation: Formation::Static { group_size: 4 },
        schedule: CkptSchedule { at },
        incremental,
        deadlines: gbcr_core::PhaseDeadlines::none(),
        election: Default::default(),
    }
}

fn sorted(v: &Mutex<Vec<(u32, u64)>>) -> Vec<(u32, u64)> {
    let mut v = v.lock().clone();
    v.sort();
    v
}

#[test]
fn incremental_epochs_are_much_faster_after_the_first() {
    let (spec, _r) = job(200);
    let at = vec![time::secs(3), time::secs(10)];
    let full = spec.runner().ckpt(cfg(false, at.clone())).run().unwrap();
    let (spec2, _r2) = job(200);
    let inc = spec2.runner().ckpt(cfg(true, at)).run().unwrap();

    // Epoch 0 is a full image either way.
    let full_e0 = full.epochs[0].total_time();
    let inc_e0 = inc.epochs[0].total_time();
    assert!(
        (inc_e0 as f64 - full_e0 as f64).abs() / (full_e0 as f64) < 0.05,
        "first epochs should cost the same: {inc_e0} vs {full_e0}"
    );
    // Epoch 1: ~70 steps × 2 MB dirty ≈ 140 MB... clamped to footprint?
    // Between t=3 s and t=10 s each rank runs ~60 steps → ~120 MB dirty,
    // still less than 140 MB full; with group scheduling the total must
    // shrink accordingly.
    let full_e1 = full.epochs[1].total_time();
    let inc_e1 = inc.epochs[1].total_time();
    assert!(
        (inc_e1 as f64) < 0.95 * full_e1 as f64,
        "incremental epoch 1 should be cheaper: {} vs {}",
        time::fmt(inc_e1),
        time::fmt(full_e1)
    );
    // Images carry the chain metadata.
    let img_name = ProcessImage::object_name("inc", 1, 0);
    let obj = inc.images.iter().find(|(n, _)| *n == img_name).unwrap();
    let img = ProcessImage::decode(obj.1.payload.clone()).unwrap();
    assert!(img.restore_extra >= 140 * MB, "chain must include the full image");
    assert!(img.footprint < 140 * MB, "increment must be smaller than full");
}

#[test]
fn restart_from_incremental_epoch_is_exact_and_charges_the_chain() {
    let (spec, results) = job(200);
    spec.runner().run().unwrap();
    let want = sorted(&results);

    let (spec2, _r) = job(200);
    let at = vec![time::secs(3), time::secs(10)];
    let report = spec2.runner().ckpt(cfg(true, at)).run().unwrap();

    // Restart from the incremental epoch 1.
    let (spec3, results3) = job(200);
    let inc_restart =
        spec3.runner().restart(report.restart_spec("inc", 1, 8).unwrap()).run().unwrap();
    assert_eq!(sorted(&results3), want, "incremental restart diverged");

    // A full-image restart of the same epoch reads less... no: MORE is
    // read for incremental (image + chain). Compare against a full-mode
    // run's epoch-1 restart.
    let (spec4, _r4) = job(200);
    let report_full =
        spec4.runner().ckpt(cfg(false, vec![time::secs(3), time::secs(10)])).run().unwrap();
    let (spec5, results5) = job(200);
    let full_restart =
        spec5.runner().restart(report_full.restart_spec("inc", 1, 8).unwrap()).run().unwrap();
    assert_eq!(sorted(&results5), want);
    // The incremental restart must be slower to begin computing (chain
    // reads), visible as a later completion.
    assert!(
        inc_restart.completion > full_restart.completion,
        "incremental restart should pay for reading the chain: {} vs {}",
        time::fmt(inc_restart.completion),
        time::fmt(full_restart.completion)
    );
}

#[test]
fn incremental_off_never_records_chains() {
    let (spec, _r) = job(120);
    let report = spec.runner().ckpt(cfg(false, vec![time::secs(2), time::secs(6)])).run().unwrap();
    for (name, obj) in report.images.iter().filter(|(n, _)| n.starts_with("ckpt/")) {
        let img = ProcessImage::decode(obj.payload.clone()).unwrap();
        assert_eq!(img.restore_extra, 0, "full image {name} must have no chain");
        assert_eq!(img.footprint, 140 * MB);
    }
}
