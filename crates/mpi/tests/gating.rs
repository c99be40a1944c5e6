//! The checkpoint-layer interposition surface: send gating, message vs
//! request buffering, deferred release, control planes, passive
//! coordination slicing.

use gbcr_des::{time, Sim};
use gbcr_mpi::{CrHook, CtrlWire, Mpi, MpiConfig, Msg, OobMsg, Rank, World};
use gbcr_net::NodeId;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::rc::Rc;
use std::sync::Arc;

/// A hook whose gate is a shared set of barred destinations.
struct GateHook {
    barred: Mutex<HashSet<Rank>>,
}

impl GateHook {
    fn new() -> Rc<Self> {
        Rc::new(GateHook { barred: Mutex::new(HashSet::new()) })
    }
    fn bar(&self, r: Rank) {
        self.barred.lock().insert(r);
    }
    fn unbar(&self, r: Rank) {
        self.barred.lock().remove(&r);
    }
}

impl CrHook for GateHook {
    fn user_send_allowed(&self, peer: Rank) -> bool {
        !self.barred.lock().contains(&peer)
    }
}

#[test]
fn barred_eager_sends_are_message_buffered_and_released_in_order() {
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(2));
    let m0 = world.attach(0);
    let m1 = world.attach(1);
    let hook = GateHook::new();
    hook.bar(1);
    m0.set_hook(hook.clone());
    let m0c = m0.clone();
    sim.spawn("r0", move |p| {
        for i in 0..5u64 {
            m0c.send(p, 1, 1, Msg::u64(i)); // eager: completes locally
        }
        assert_eq!(m0c.stats().deferred_len, 5);
        let ds = m0c.stats().defer;
        assert_eq!(ds.msg_buffered, 5);
        assert_eq!(ds.msg_buffered_bytes, 40);
        assert_eq!(ds.req_buffered, 0);
        // Open the gate and flush.
        hook.unbar(1);
        m0c.release_deferred(p);
        assert_eq!(m0c.stats().deferred_len, 0);
        assert_eq!(m0c.stats().defer.released, 5);
    });
    sim.spawn("r1", move |p| {
        for i in 0..5u64 {
            assert_eq!(m1.recv(p, Some(0), 1).as_u64(), i, "order preserved");
        }
    });
    sim.run().unwrap();
}

#[test]
fn barred_rendezvous_is_request_buffered_without_copying() {
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(2));
    let m0 = world.attach(0);
    let m1 = world.attach(1);
    let hook = GateHook::new();
    hook.bar(1);
    m0.set_hook(hook.clone());
    let m0c = m0.clone();
    sim.spawn("r0", move |p| {
        let req = m0c.isend(p, 1, 1, Msg::bulk(50_000_000));
        // RTS deferred: request buffering, no payload bytes copied.
        let ds = m0c.stats().defer;
        assert_eq!(ds.req_buffered, 1);
        assert_eq!(ds.req_buffered_bytes, 50_000_000);
        assert_eq!(ds.msg_buffered_bytes, 0);
        // The send is incomplete while barred.
        assert!(m0c.test(p, req).is_none());
        p.sleep(time::ms(100));
        assert!(m0c.test(p, req).is_none());
        hook.unbar(1);
        m0c.release_deferred(p);
        m0c.wait(p, req);
    });
    sim.spawn("r1", move |p| {
        let m = m1.recv(p, Some(0), 1);
        assert_eq!(m.size, 50_000_000);
        assert!(p.now() > time::ms(100), "data must not flow while barred");
    });
    sim.run().unwrap();
}

#[test]
fn gate_applies_to_cts_direction_too() {
    // Receiver is barred from sending to the sender: its CTS must be
    // deferred, stalling the rendezvous even though the RTS got through.
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(2));
    let m0 = world.attach(0);
    let m1 = world.attach(1);
    let hook = GateHook::new();
    hook.bar(0); // rank1 may not send to rank0
    m1.set_hook(hook.clone());
    sim.spawn("r0", move |p| {
        m0.send(p, 1, 1, Msg::bulk(1_000_000));
        assert!(p.now() >= time::ms(300), "rendezvous completed while CTS barred");
    });
    let m1c = m1.clone();
    sim.spawn("r1", move |p| {
        let req = m1c.irecv(p, Some(0), 1);
        // Let the RTS arrive, then enter the library so the progress
        // engine matches it and (tries to) reply — the CTS gets deferred.
        p.sleep(time::ms(300));
        m1c.progress(p);
        assert_eq!(m1c.stats().defer.req_buffered, 1, "CTS got request-buffered");
        hook.unbar(0);
        m1c.release_deferred(p);
        let msg = m1c.wait(p, req).unwrap();
        assert_eq!(msg.size, 1_000_000);
    });
    sim.run().unwrap();
}

#[test]
fn per_destination_fifo_is_kept_when_mixed_with_other_destinations() {
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(3));
    let m0 = world.attach(0);
    let m1 = world.attach(1);
    let m2 = world.attach(2);
    let hook = GateHook::new();
    hook.bar(1);
    m0.set_hook(hook.clone());
    let m0c = m0.clone();
    sim.spawn("r0", move |p| {
        m0c.send(p, 1, 1, Msg::u64(100)); // deferred
        m0c.send(p, 2, 1, Msg::u64(200)); // flows immediately
        m0c.send(p, 1, 1, Msg::u64(101)); // deferred behind 100
        assert_eq!(m0c.stats().deferred_len, 2);
        assert!(m0c.has_deferred_to(1));
        assert!(!m0c.has_deferred_to(2));
        hook.unbar(1);
        m0c.release_deferred(p);
    });
    sim.spawn("r1", move |p| {
        assert_eq!(m1.recv(p, Some(0), 1).as_u64(), 100);
        assert_eq!(m1.recv(p, Some(0), 1).as_u64(), 101);
    });
    sim.spawn("r2", move |p| {
        assert_eq!(m2.recv(p, Some(0), 1).as_u64(), 200);
        assert!(p.now() < time::ms(50), "unbarred destination must not wait");
    });
    sim.run().unwrap();
}

#[test]
fn ctrl_messages_bypass_the_gate() {
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(2));
    let m0 = world.attach(0);
    let m1 = world.attach(1);
    let hook = GateHook::new();
    hook.bar(1);
    m0.set_hook(hook);
    let got = Arc::new(AtomicU64::new(0));
    let g = got.clone();
    sim.spawn("r0", move |p| {
        m0.ctrl_send(p, 1, CtrlWire { kind: 3, a: 42, b: 7 });
    });
    struct Recorder(Arc<AtomicU64>);
    impl CrHook for Recorder {
        fn on_ctrl(&self, _p: &gbcr_des::Proc, _m: &Mpi, from: Rank, cw: CtrlWire) {
            assert_eq!(from, 0);
            self.0.store(cw.a, Ordering::Relaxed);
        }
    }
    m1.set_hook(Rc::new(Recorder(g)));
    let m1c = m1.clone();
    sim.spawn("r1", move |p| {
        p.sleep(time::ms(10));
        m1c.progress(p); // progress dispatches the ctrl message to the hook
    });
    sim.run().unwrap();
    assert_eq!(got.load(Ordering::Relaxed), 42);
}

#[test]
fn oob_messages_wake_a_computing_rank() {
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(2));
    let m0 = world.attach(0);
    let m1 = world.attach(1);
    let noticed_at = Arc::new(AtomicU64::new(0));
    struct Notice(Arc<AtomicU64>);
    impl CrHook for Notice {
        fn on_oob(&self, p: &gbcr_des::Proc, _m: &Mpi, _from: NodeId, msg: OobMsg) {
            assert_eq!(msg.kind, 9);
            self.0.store(p.now(), Ordering::Relaxed);
        }
    }
    m1.set_hook(Rc::new(Notice(noticed_at.clone())));
    sim.spawn("r0", move |p| {
        p.sleep(time::secs(1));
        m0.oob_send(p, NodeId(1), OobMsg::new(9, 0, 0));
    });
    sim.spawn("r1", move |p| {
        m1.compute(p, time::secs(60));
    });
    sim.run().unwrap();
    let t = noticed_at.load(Ordering::Relaxed);
    assert!(t >= time::secs(1) && t < time::secs(1) + time::ms(5), "noticed at {t}");
}

#[test]
fn data_plane_ctrl_does_not_wake_compute_without_passive_mode() {
    // OS-bypass: an in-band ctrl message to a computing rank sits until the
    // rank's next library call.
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(2));
    let m0 = world.attach(0);
    let m1 = world.attach(1);
    let noticed_at = Arc::new(AtomicU64::new(0));
    struct Notice(Arc<AtomicU64>);
    impl CrHook for Notice {
        fn on_ctrl(&self, p: &gbcr_des::Proc, _m: &Mpi, _from: Rank, _cw: CtrlWire) {
            self.0.store(p.now(), Ordering::Relaxed);
        }
    }
    m1.set_hook(Rc::new(Notice(noticed_at.clone())));
    sim.spawn("r0", move |p| {
        p.sleep(time::ms(100));
        m0.ctrl_send(p, 1, CtrlWire { kind: 1, a: 0, b: 0 });
    });
    sim.spawn("r1", move |p| {
        m1.compute(p, time::secs(10)); // not passive, no helper slicing
        m1.progress(p);
    });
    sim.run().unwrap();
    let t = noticed_at.load(Ordering::Relaxed);
    assert!(t >= time::secs(10), "ctrl handled during compute at {t}");
}

/// Paper §4.4's rule, stated on its own terms: a passive rank notices
/// coordination traffic at the first lattice boundary
/// `anchor + k·progress_interval` strictly after the delivery — exactly
/// there, neither sooner nor later. This is the specification the
/// demand-driven wakes implement, which is why no second (polling) engine is
/// kept to compare against.
#[test]
fn passive_mode_bounds_ctrl_latency_to_progress_interval() {
    // The message leaves at 250 ms and lands a connection setup later; the
    // lattice is anchored at 0, where `compute` starts.
    for (interval, boundary) in [(time::ms(100), time::ms(300)), (time::ms(40), time::ms(280))] {
        let mut sim = Sim::new(0);
        let cfg = MpiConfig { progress_interval: interval, ..MpiConfig::new(2) };
        let world = World::new(sim.handle(), cfg);
        let m0 = world.attach(0);
        let m1 = world.attach(1);
        let noticed_at = Arc::new(AtomicU64::new(0));
        struct Notice(Arc<AtomicU64>);
        impl CrHook for Notice {
            fn on_ctrl(&self, p: &gbcr_des::Proc, _m: &Mpi, _from: Rank, _cw: CtrlWire) {
                self.0.store(p.now(), Ordering::Relaxed);
            }
        }
        m1.set_hook(Rc::new(Notice(noticed_at.clone())));
        m1.set_passive(true);
        sim.spawn("r0", move |p| {
            p.sleep(time::ms(250));
            m0.ctrl_send(p, 1, CtrlWire { kind: 1, a: 0, b: 0 });
        });
        sim.spawn("r1", move |p| {
            m1.compute(p, time::secs(10));
        });
        sim.run().unwrap();
        assert_eq!(noticed_at.load(Ordering::Relaxed), boundary, "interval {interval}");
    }
}

#[test]
fn helper_thread_ablation_delays_passive_coordination() {
    let mut sim = Sim::new(0);
    let mut cfg = MpiConfig::new(2);
    cfg.helper_thread = false; // §4.4 ablation
    let world = World::new(sim.handle(), cfg);
    let m0 = world.attach(0);
    let m1 = world.attach(1);
    let noticed_at = Arc::new(AtomicU64::new(0));
    struct Notice(Arc<AtomicU64>);
    impl CrHook for Notice {
        fn on_ctrl(&self, p: &gbcr_des::Proc, _m: &Mpi, _from: Rank, _cw: CtrlWire) {
            self.0.store(p.now(), Ordering::Relaxed);
        }
    }
    m1.set_hook(Rc::new(Notice(noticed_at.clone())));
    m1.set_passive(true); // passive, but no helper thread exists
    sim.spawn("r0", move |p| {
        p.sleep(time::ms(250));
        m0.ctrl_send(p, 1, CtrlWire { kind: 1, a: 0, b: 0 });
    });
    sim.spawn("r1", move |p| {
        m1.compute(p, time::secs(10));
        m1.progress(p);
    });
    sim.run().unwrap();
    assert!(noticed_at.load(Ordering::Relaxed) >= time::secs(10));
}

#[test]
fn compute_extends_deadline_by_coordination_time() {
    // A passive rank that handles a blocking hook callback mid-compute must
    // still perform its full compute quantum afterwards.
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(2));
    let m0 = world.attach(0);
    let m1 = world.attach(1);
    struct Stall;
    impl CrHook for Stall {
        fn on_ctrl(&self, p: &gbcr_des::Proc, _m: &Mpi, _from: Rank, _cw: CtrlWire) {
            p.sleep(time::secs(2)); // simulated coordination work
        }
    }
    m1.set_hook(Rc::new(Stall));
    m1.set_passive(true);
    sim.spawn("r0", move |p| {
        p.sleep(time::ms(500));
        m0.ctrl_send(p, 1, CtrlWire { kind: 1, a: 0, b: 0 });
    });
    let done = Arc::new(AtomicBool::new(false));
    let d = done.clone();
    sim.spawn("r1", move |p| {
        let t0 = p.now();
        m1.compute(p, time::secs(5));
        let elapsed = p.now() - t0;
        assert!(
            elapsed >= time::secs(7),
            "compute finished in {} — coordination time was stolen from work",
            time::fmt(elapsed)
        );
        d.store(true, Ordering::Relaxed);
    });
    sim.run().unwrap();
    assert!(done.load(Ordering::Relaxed));
}
