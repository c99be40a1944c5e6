//! Property-based tests (proptest) over the core invariants:
//! determinism of the event engine, conservation in the storage model,
//! codec round-trips, group-plan validity, and checkpoint/restart
//! equivalence under randomized traffic, placement, and grouping.

use bytes::Bytes;
use gbcr_blcr::codec::{Decoder, Encoder};
use gbcr_blcr::ProcessImage;
use gbcr_core::{CkptMode, CkptSchedule, CoordinatorCfg, Formation, GroupPlan};
use gbcr_des::{time, Sim};
use gbcr_storage::{Storage, StorageConfig, StoredObject, MB};
use gbcr_workloads::RandomTraffic;
use parking_lot::Mutex;
use proptest::prelude::*;
use rand::Rng as _;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Event engine
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Two simulations with the same seed and construction produce the
    /// same event trace, for arbitrary seeds and process counts.
    #[test]
    fn des_runs_are_deterministic(seed in any::<u64>(), procs in 1usize..12) {
        fn trace(seed: u64, procs: usize) -> Vec<(u64, u64)> {
            let log = Arc::new(Mutex::new(Vec::new()));
            let mut sim = Sim::new(seed);
            for i in 0..procs as u64 {
                let log = log.clone();
                sim.spawn(format!("p{i}"), move |p| {
                    for step in 0..30u64 {
                        let dt = p.handle().with_rng(|r| r.gen_range(1..5_000u64));
                        p.sleep(time::us(dt));
                        log.lock().push((p.now(), i * 1000 + step));
                    }
                });
            }
            sim.run().unwrap();
            let v = log.lock().clone();
            v
        }
        prop_assert_eq!(trace(seed, procs), trace(seed, procs));
    }
}

// ---------------------------------------------------------------------
// Storage model
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation and fairness: with arbitrary staggered writers, every
    /// byte requested is eventually recorded as transferred, no client
    /// ever exceeds the single-client ceiling, and the aggregate over the
    /// busy span never exceeds the configured aggregate bandwidth.
    #[test]
    fn storage_conserves_bytes_and_respects_limits(
        sizes in prop::collection::vec(1u64..400, 1..24),
        stagger_ms in prop::collection::vec(0u64..3_000, 24),
    ) {
        let mut sim = Sim::new(7);
        let cfg = StorageConfig::paper_testbed();
        let storage = Storage::new(sim.handle(), cfg.clone());
        let total: u64 = sizes.iter().map(|s| s * MB).sum();
        for (i, (&mb, &st)) in sizes.iter().zip(&stagger_ms).enumerate() {
            let s = storage.clone();
            sim.spawn(format!("w{i}"), move |p| {
                p.sleep(time::ms(st));
                s.write(p, i as u32, &format!("o{i}"), StoredObject::bulk(mb * MB));
            });
        }
        sim.run().unwrap();
        let stats = storage.stats();
        prop_assert_eq!(stats.records.len(), sizes.len());
        prop_assert_eq!(stats.total_bytes(), total);
        for r in &stats.records {
            prop_assert!(
                r.mean_bandwidth() <= cfg.single_client_bw * 1.001,
                "client {} exceeded the single-client ceiling: {}",
                r.client,
                r.mean_bandwidth()
            );
        }
        prop_assert!(stats.aggregate_throughput() <= cfg.aggregate_bw * 1.001);
    }
}

// ---------------------------------------------------------------------
// Codec / image framing
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_round_trips_arbitrary_values(
        u in any::<u64>(),
        f in any::<f64>(),
        s in prop::collection::vec(any::<u8>(), 0..64),
        v in prop::collection::vec(any::<u64>(), 0..64),
    ) {
        let mut e = Encoder::new();
        e.put_u64(u);
        e.put_f64(f);
        e.put_bytes(&s);
        e.put_seq(&v);
        let mut d = Decoder::new(e.finish());
        prop_assert_eq!(d.get_u64().unwrap(), u);
        let f2 = d.get_f64().unwrap();
        prop_assert_eq!(f2.to_bits(), f.to_bits(), "f64 must round-trip by bits");
        prop_assert_eq!(&d.get_bytes().unwrap()[..], &s[..]);
        prop_assert_eq!(d.get_seq::<u64>().unwrap(), v);
        prop_assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn image_round_trips_and_decoder_never_panics(
        rank in any::<u32>(),
        epoch in any::<u64>(),
        footprint in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..512),
        garbage in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let img = ProcessImage {
            rank,
            epoch,
            taken_at: 1,
            footprint,
            restore_extra: footprint / 3,
            app_state: Bytes::from(payload),
        };
        prop_assert_eq!(ProcessImage::decode(img.encode()).unwrap(), img);
        // Arbitrary bytes must decode to Err, never panic.
        let _ = ProcessImage::decode(Bytes::from(garbage));
    }
}

// ---------------------------------------------------------------------
// Group formation
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dynamic formation always yields a valid partition (every rank in
    /// exactly one group) for arbitrary traffic matrices and thresholds.
    #[test]
    fn dynamic_formation_always_partitions(
        n in 2u32..24,
        edges in prop::collection::vec((any::<u32>(), any::<u32>(), 1u64..10_000), 0..64),
        frac in 0.01f64..1.0,
        fallback in 1u32..8,
    ) {
        let mut traffic = vec![Vec::new(); n as usize];
        for (a, b, w) in edges {
            let (a, b) = (a % n, b % n);
            if a != b {
                traffic[a as usize].push((b, w, w * 100));
            }
        }
        let plan = GroupPlan::dynamic(n, &traffic, frac, fallback, n.max(2) - 1);
        // Validity is enforced by GroupPlan::new internally; double-check.
        let mut seen = vec![false; n as usize];
        for g in plan.groups() {
            for &r in g {
                prop_assert!(!seen[r as usize], "rank {r} appears twice");
                seen[r as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "some rank missing from the plan");
        for r in 0..n {
            prop_assert!(plan.members(plan.group_of(r)).contains(&r));
        }
    }

    /// Static formation covers all ranks in order for any size.
    #[test]
    fn static_formation_partitions(n in 1u32..64, g in 0u32..70) {
        let plan = GroupPlan::by_size(n, g);
        let flat: Vec<u32> = plan.groups().iter().flatten().copied().collect();
        prop_assert_eq!(flat, (0..n).collect::<Vec<_>>());
    }
}

// ---------------------------------------------------------------------
// End-to-end checkpoint/restart equivalence (randomized)
// ---------------------------------------------------------------------

proptest! {
    // Each case runs three full simulations; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For random communication patterns, checkpoint placements, and group
    /// sizes: the checkpointed run produces the uninterrupted result, and
    /// a restart from the epoch reproduces it too.
    #[test]
    fn randomized_checkpoint_restart_equivalence(
        pattern_seed in 0u64..1_000_000,
        group_size in prop::sample::select(vec![1u32, 2, 3, 4, 8]),
        at_ms in 500u64..2_500, // safely before the ~3.3 s+ completion
    ) {
        let w = RandomTraffic { pattern_seed, steps: 110, ..Default::default() };
        let truth = Arc::new(Mutex::new(Vec::new()));
        w.job(Some(truth.clone())).runner().run().unwrap();
        let mut want = truth.lock().clone();
        want.sort();

        let cfg = CoordinatorCfg {
            job: "random-traffic".into(),
            mode: CkptMode::Buffering,
            formation: Formation::Static { group_size },
            schedule: CkptSchedule::once(time::ms(at_ms)),
            incremental: false,
            deadlines: gbcr_core::PhaseDeadlines::none(),
            election: Default::default(),
        };
        let mid = Arc::new(Mutex::new(Vec::new()));
        let report = w.job(Some(mid.clone())).runner().ckpt(cfg).run().unwrap();
        let mut got = mid.lock().clone();
        got.sort();
        prop_assert_eq!(&got, &want, "checkpointed run diverged");

        let restart = report.restart_spec("random-traffic", 0, w.n).unwrap();
        let rec = Arc::new(Mutex::new(Vec::new()));
        w.job(Some(rec.clone())).runner().restart(restart).run().unwrap();
        let mut got = rec.lock().clone();
        got.sort();
        prop_assert_eq!(&got, &want, "restarted run diverged");
    }
}
