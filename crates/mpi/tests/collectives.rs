//! Collective correctness against sequential oracles, over the full world
//! and over sub-communicators, for power-of-two and odd sizes.

use gbcr_des::Sim;
use gbcr_mpi::{MpiConfig, Msg, World};
use parking_lot::Mutex;
use std::sync::Arc;

#[test]
fn barrier_synchronizes_all_ranks() {
    for n in [2u32, 3, 5, 8, 32] {
        let mut sim = Sim::new(0);
        let world = World::new(sim.handle(), MpiConfig::new(n));
        let max_before = Arc::new(Mutex::new(0u64));
        let min_after = Arc::new(Mutex::new(u64::MAX));
        for r in 0..n {
            let m = world.attach(r);
            let comm = world.world_comm();
            let (mb, ma) = (max_before.clone(), min_after.clone());
            sim.spawn(format!("r{r}"), move |p| {
                // Stagger arrival times.
                p.sleep(gbcr_des::time::ms(u64::from(r) * 10));
                {
                    let mut g = mb.lock();
                    *g = (*g).max(p.now());
                }
                m.barrier(p, &comm);
                let mut g = ma.lock();
                *g = (*g).min(p.now());
            });
        }
        sim.run().unwrap();
        assert!(
            *min_after.lock() >= *max_before.lock(),
            "n={n}: some rank left the barrier before the last arrived"
        );
    }
}

#[test]
fn bcast_from_every_root() {
    for n in [2u32, 3, 7, 8] {
        for root in 0..n as usize {
            let mut sim = Sim::new(0);
            let world = World::new(sim.handle(), MpiConfig::new(n));
            for r in 0..n {
                let m = world.attach(r);
                let comm = world.world_comm();
                sim.spawn(format!("r{r}"), move |p| {
                    let mine = (comm.index_of(m.rank()) == Some(root)).then(|| Msg::u64(0xC0FFEE));
                    let got = m.bcast(p, &comm, root, mine);
                    assert_eq!(got.as_u64(), 0xC0FFEE, "n={n} root={root} rank={r}");
                });
            }
            sim.run().unwrap();
        }
    }
}

#[test]
fn allgather_collects_in_comm_order() {
    for n in [1u32, 2, 3, 6, 8] {
        let mut sim = Sim::new(0);
        let world = World::new(sim.handle(), MpiConfig::new(n));
        for r in 0..n {
            let m = world.attach(r);
            let comm = world.world_comm();
            sim.spawn(format!("r{r}"), move |p| {
                let got = m.allgather(p, &comm, Msg::u64(u64::from(m.rank()) * 7));
                let vals: Vec<u64> = got.iter().map(Msg::as_u64).collect();
                let want: Vec<u64> = (0..u64::from(n)).map(|i| i * 7).collect();
                assert_eq!(vals, want, "n={n} rank={r}");
            });
        }
        sim.run().unwrap();
    }
}

#[test]
fn allreduce_sum() {
    let n = 8u32;
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(n));
    for r in 0..n {
        let m = world.attach(r);
        let comm = world.world_comm();
        sim.spawn(format!("r{r}"), move |p| {
            let s = m.allreduce_sum(p, &comm, f64::from(m.rank()));
            assert_eq!(s, (0..8).sum::<i32>() as f64);
        });
    }
    sim.run().unwrap();
}

#[test]
fn subcommunicators_are_independent() {
    // 8 ranks in two row-communicators of 4; concurrent collectives on the
    // two rows must not interfere.
    let n = 8u32;
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(n));
    for r in 0..n {
        let m = world.attach(r);
        let row: Vec<u32> = if r < 4 { (0..4).collect() } else { (4..8).collect() };
        let comm = world.comm(row);
        sim.spawn(format!("r{r}"), move |p| {
            for iter in 0..5u64 {
                let got = m.allgather(p, &comm, Msg::u64(u64::from(m.rank()) + iter));
                let base = if m.rank() < 4 { 0u64 } else { 4 };
                let want: Vec<u64> = (0..4).map(|i| base + i + iter).collect();
                assert_eq!(got.iter().map(Msg::as_u64).collect::<Vec<_>>(), want);
                m.barrier(p, &comm);
            }
        });
    }
    sim.run().unwrap();
}

#[test]
fn back_to_back_collectives_do_not_cross_match() {
    // Two immediate barriers and a bcast: the per-comm sequence numbers in
    // the collective tags keep rounds separate.
    let n = 4u32;
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(n));
    for r in 0..n {
        let m = world.attach(r);
        let comm = world.world_comm();
        sim.spawn(format!("r{r}"), move |p| {
            m.barrier(p, &comm);
            m.barrier(p, &comm);
            let v = m.bcast(p, &comm, 2, (m.rank() == 2).then(|| Msg::u64(5)));
            assert_eq!(v.as_u64(), 5);
            m.barrier(p, &comm);
        });
    }
    sim.run().unwrap();
}

#[test]
fn large_message_allgather_uses_rendezvous() {
    let n = 4u32;
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(n));
    for r in 0..n {
        let m = world.attach(r);
        let comm = world.world_comm();
        sim.spawn(format!("r{r}"), move |p| {
            let got = m.allgather(p, &comm, Msg::bulk(2_000_000));
            assert!(got.iter().all(|b| b.size == 2_000_000));
        });
    }
    // The end time both executors gave when there were two. The data-plane
    // listener answers each ring step's RTS and CTS while their receivers
    // wait (80 events while a rank was resumed for every handshake, 56
    // after), and the four ranks' same-instant deliveries of a ring step are
    // one dispatch step (29).
    assert_eq!(sim.run().unwrap(), 6_022_886);
    assert_eq!(sim.events_processed(), 29);
    // Each of the 4 ranks does 3 ring steps; each step is RTS+CTS+DATA.
    assert_eq!(world.net_stats().messages, 4 * 3 * 3);
}
