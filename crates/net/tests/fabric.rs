//! Fabric behaviour: FIFO delivery, serialization, connection life-cycle,
//! drain semantics, timing model.

use gbcr_des::{time, Proc, Sim, Time};
use gbcr_net::{ConnState, Fabric, NetConfig, NodeId};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

const A: NodeId = NodeId(0);
const B: NodeId = NodeId(1);

fn test_cfg() -> NetConfig {
    NetConfig {
        latency: time::us(2),
        bandwidth: 1.0e9,
        per_message_overhead: 0,
        conn_setup_time: time::ms(1),
        conn_teardown_time: time::us(100),
    }
}

#[test]
fn connect_charges_setup_to_initiator_only() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let f = fabric.clone();
    sim.spawn("a", move |p| {
        let ep = f.endpoint(A);
        ep.connect(p, B);
        assert_eq!(p.now(), time::ms(1));
        assert!(ep.is_connected(B));
        // Idempotent, free the second time.
        ep.connect(p, B);
        assert_eq!(p.now(), time::ms(1));
    });
    sim.run().unwrap();
    assert_eq!(fabric.stats().connects, 1);
    assert_eq!(fabric.conn_state(A, B), ConnState::Active);
}

#[test]
fn concurrent_connects_only_one_pays() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    for (name, me, peer) in [("a", A, B), ("b", B, A)] {
        let f = fabric.clone();
        sim.spawn(name, move |p| {
            let ep = f.endpoint(me);
            ep.connect(p, peer);
            assert_eq!(p.now(), time::ms(1));
        });
    }
    sim.run().unwrap();
    assert_eq!(fabric.stats().connects, 1);
}

#[test]
fn messages_arrive_fifo_with_latency_and_serialization() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let got = Arc::new(Mutex::new(Vec::new()));
    let f = fabric.clone();
    sim.spawn("sender", move |p| {
        let ep = f.endpoint(A);
        ep.connect(p, B);
        // two 1 MB messages back to back: serialization 1ms each at 1GB/s
        ep.send(B, 1, 1_000_000);
        ep.send(B, 2, 1_000_000);
    });
    let f = fabric.clone();
    let g = got.clone();
    sim.spawn("receiver", move |p| {
        let ep = f.endpoint(B);
        for _ in 0..2 {
            let (from, m) = ep.recv_wait(p);
            assert_eq!(from, A);
            g.lock().push((p.now(), m));
        }
    });
    sim.run().unwrap();
    let got = got.lock().clone();
    assert_eq!(got.len(), 2);
    assert_eq!(got[0].1, 1);
    assert_eq!(got[1].1, 2);
    // send time = 1ms (after connect); first arrives at 1ms+1ms+2us
    assert_eq!(got[0].0, time::ms(2) + time::us(2));
    // second serialized after the first: 1ms later
    assert_eq!(got[1].0, time::ms(3) + time::us(2));
}

#[test]
fn bidirectional_links_do_not_serialize_against_each_other() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let times = Arc::new(Mutex::new(Vec::new()));
    for (name, me, peer) in [("a", A, B), ("b", B, A)] {
        let f = fabric.clone();
        let t = times.clone();
        sim.spawn(name, move |p| {
            let ep = f.endpoint(me);
            ep.connect(p, peer);
            ep.send(peer, me.0, 1_000_000);
            let (_, _) = ep.recv_wait(p);
            t.lock().push(p.now());
        });
    }
    sim.run().unwrap();
    // Both 1MB messages cross simultaneously; both arrive at the same time.
    let times = times.lock().clone();
    assert_eq!(times[0], times[1]);
}

#[test]
fn teardown_waits_for_drain_and_blocks_sends() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let f = fabric.clone();
    sim.spawn("a", move |p| {
        let ep = f.endpoint(A);
        ep.connect(p, B);
        ep.send(B, 7, 10_000_000); // 10ms serialization
        assert_eq!(ep.link(B).in_flight(), (1, 0));
        ep.teardown(p, B);
        // teardown completed only after the 10ms in-flight drained
        assert!(p.now() >= time::ms(11));
        assert_eq!(ep.link(B).in_flight(), (0, 0));
        assert!(!ep.is_connected(B));
    });
    let f = fabric.clone();
    sim.spawn("b", move |p| {
        let ep = f.endpoint(B);
        let (from, m) = ep.recv_wait(p);
        assert_eq!((from, m), (A, 7));
    });
    sim.run().unwrap();
    assert_eq!(fabric.stats().teardowns, 1);
    assert_eq!(fabric.conn_state(A, B), ConnState::Disconnected);
}

#[test]
fn reconnect_after_teardown_works() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let f = fabric.clone();
    sim.spawn("a", move |p| {
        let ep = f.endpoint(A);
        ep.connect(p, B);
        ep.teardown(p, B);
        ep.connect(p, B);
        assert!(ep.is_connected(B));
        ep.send(B, 1, 8);
    });
    let f = fabric.clone();
    sim.spawn("b", move |p| {
        let ep = f.endpoint(B);
        let (_, m) = ep.recv_wait(p);
        assert_eq!(m, 1);
    });
    sim.run().unwrap();
    assert_eq!(fabric.stats().connects, 2);
    assert_eq!(fabric.stats().teardowns, 1);
}

#[test]
#[should_panic(expected = "non-active connection")]
fn send_on_torn_down_connection_panics() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    sim.spawn("a", move |p| {
        let ep = fabric.endpoint(A);
        ep.connect(p, B);
        ep.teardown(p, B);
        ep.send(B, 1, 8);
    });
    let err = sim.run().unwrap_err();
    panic!("{err}");
}

#[test]
fn recv_match_returns_none_when_quiet() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    sim.spawn("b", move |p| {
        let ep = fabric.endpoint(B);
        let r = ep.recv_match(p, Some(time::ms(5)), |_, _| true);
        assert!(r.is_none());
        assert_eq!(p.now(), time::ms(5));
    });
    sim.run().unwrap();
}

#[test]
fn recv_match_returns_message_when_it_arrives_first() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let f = fabric.clone();
    sim.spawn("a", move |p| {
        let ep = f.endpoint(A);
        ep.connect(p, B);
        ep.send(B, 42, 8);
    });
    sim.spawn("b", move |p| {
        let ep = fabric.endpoint(B);
        let r = ep.recv_match(p, Some(time::secs(1)), |_, _| true);
        assert_eq!(r.map(|(_, m)| m), Some(42));
        assert!(p.now() < time::ms(2));
    });
    sim.run().unwrap();
}

#[test]
fn wait_drained_with_nothing_in_flight_is_instant() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    sim.spawn("a", move |p| {
        let ep = fabric.endpoint(A);
        ep.connect(p, B);
        ep.wait_drained(p, B);
        assert_eq!(p.now(), time::ms(1));
    });
    sim.run().unwrap();
}

#[test]
fn stats_count_messages_and_bytes() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let f = fabric.clone();
    sim.spawn("a", move |p| {
        let ep = f.endpoint(A);
        ep.connect(p, B);
        for i in 0..5 {
            ep.send(B, i, 100);
        }
    });
    let f = fabric.clone();
    sim.spawn("b", move |p| {
        let ep = f.endpoint(B);
        for _ in 0..5 {
            ep.recv_wait(p);
        }
    });
    sim.run().unwrap();
    let s = fabric.stats();
    assert_eq!(s.messages, 5);
    assert_eq!(s.bytes, 500);
}

/// A connection sits in both its ends' peer indexes, yet `stats` counts it
/// once, whichever end opened it and whichever way its traffic ran. A pair
/// that never named each other has no connection, though both nodes exist.
#[test]
fn stats_count_each_connection_once_from_either_end() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    // The low end opens the first connection, the high end the second.
    for (opener, answerer) in [(NodeId(1), NodeId(4)), (NodeId(3), NodeId(2))] {
        let f = fabric.clone();
        sim.spawn("opener", move |p| {
            let ep = f.endpoint(opener);
            ep.connect(p, answerer);
            ep.send(answerer, 0, 100);
            ep.recv_wait(p);
        });
        let f = fabric.clone();
        sim.spawn("answerer", move |p| {
            let ep = f.endpoint(answerer);
            let (from, _) = ep.recv_wait(p);
            ep.send(from, 1, 50);
        });
    }
    sim.run().unwrap();
    let s = fabric.stats();
    assert_eq!((s.connects, s.messages, s.bytes), (2, 4, 300));
    for (a, b) in [(NodeId(1), NodeId(2)), (NodeId(4), NodeId(3)), (NodeId(8), NodeId(9))] {
        assert_eq!(fabric.conn_state(a, b), ConnState::Disconnected, "{a}-{b}");
        assert!(!fabric.force_disconnect(a, b), "{a}-{b}");
    }
    assert_eq!(fabric.stats(), s, "asking about strangers connects nobody");
}

/// A waiter whose `recv_match` ended via the deadline timer must be
/// deregistered on the way out: a later delivery to the endpoint must not
/// wake the (by then computing-forever) rank. A stale registration would
/// have delivered a spurious wake here — OS-bypass hardware never
/// interrupts the host CPU like that.
#[test]
fn timer_expired_waiter_gets_no_spurious_delivery_wake() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let woken = Arc::new(Mutex::new(false));
    let f = fabric.clone();
    let w = woken.clone();
    sim.spawn("rx", move |p| {
        let ep = f.endpoint(B);
        assert!(ep.recv_match(p, Some(time::ms(5)), |_, _| true).is_none());
        // "Computing": parked with no registration anywhere. The delivery
        // at ~10 ms must not resume this process.
        p.park();
        *w.lock() = true;
    });
    let f = fabric.clone();
    sim.spawn("tx", move |p| {
        let ep = f.endpoint(A);
        p.sleep(time::ms(10));
        ep.connect(p, B);
        ep.send(B, 7, 8);
    });
    let err = sim.run().unwrap_err();
    assert!(
        matches!(&err, gbcr_des::SimError::Deadlock { blocked, .. }
            if blocked == &vec!["rx".to_string()]),
        "rx must stay parked forever, got {err}"
    );
    assert!(!*woken.lock(), "delivery woke a rank whose wait had timed out");
    assert_eq!(fabric.endpoint(B).pending(), 1, "message stays queued");
}

/// `recv_match` takes the first queued message its predicate accepts and
/// leaves the ones it skips where they were, in arrival order, for a later
/// matcher. A deadline it did not reach leaves no wake behind: parked
/// afterwards with nothing registered, the receiver is never resumed.
#[test]
fn recv_match_leaves_skipped_messages_queued_in_arrival_order() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let f = fabric.clone();
    sim.spawn("tx", move |p| {
        let ep = f.endpoint(A);
        ep.connect(p, B);
        for m in [1, 2, 3] {
            ep.send(B, m, 8);
        }
        p.sleep(time::ms(1));
        ep.send(B, 4, 8);
    });
    let f = fabric.clone();
    let woken = Rc::new(RefCell::new(false));
    let w = woken.clone();
    sim.spawn("rx", move |p| {
        let ep = f.endpoint(B);
        // 4 is not there yet: the skipped 1..3 queue up in front of it.
        assert_eq!(ep.recv_match(p, Some(time::secs(1)), |_, m| *m == 4), Some((A, 4)));
        assert_eq!(ep.pending(), 3);
        assert_eq!(ep.recv_match(p, None, |_, m| *m == 2), Some((A, 2)));
        assert_eq!(ep.recv_wait(p), (A, 1));
        assert_eq!(ep.recv_wait(p), (A, 3));
        p.park();
        *w.borrow_mut() = true;
    });
    // The cancelled 1 s wake still pops, but resumes nobody.
    let err = sim.run().unwrap_err();
    assert!(
        matches!(&err, gbcr_des::SimError::Deadlock { blocked, .. }
            if blocked == &vec!["rx".to_string()]),
        "rx must stay parked forever, got {err}"
    );
    assert!(!*woken.borrow(), "the deadline of a finished receive woke it");
}

/// After a deadline exit the receiver is off the endpoint's waiter list: a
/// later delivery finds nobody parked there (so the listener is not told
/// it would be seen alone) and wakes nobody.
#[test]
fn recv_match_deadline_exit_leaves_no_registration() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let offered = Rc::new(RefCell::new(0));
    let o = offered.clone();
    fabric.endpoint(B).set_arrival_handler(Rc::new(move |_, m, alone| {
        *o.borrow_mut() += u32::from(alone);
        Some(m)
    }));
    let woken = Rc::new(RefCell::new(false));
    let (f, w) = (fabric.clone(), woken.clone());
    sim.spawn("rx", move |p| {
        assert_eq!(f.endpoint(B).recv_match(p, Some(time::ms(5)), |_, _| true), None);
        assert_eq!(p.now(), time::ms(5));
        p.park();
        *w.borrow_mut() = true;
    });
    let f = fabric.clone();
    sim.spawn("tx", move |p| {
        let ep = f.endpoint(A);
        p.sleep(time::ms(10));
        ep.connect(p, B);
        ep.send(B, 7, 8);
    });
    assert!(matches!(sim.run(), Err(gbcr_des::SimError::Deadlock { .. })));
    assert!(!*woken.borrow(), "the delivery woke a receiver whose wait had ended");
    assert_eq!(*offered.borrow(), 0, "the delivery found the receiver still registered");
    assert_eq!(fabric.endpoint(B).pending(), 1);
}

/// `retain` drops exactly the queued messages its predicate rejects and
/// keeps the rest in arrival order.
#[test]
fn retain_drops_exactly_the_rejected_messages() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let f = fabric.clone();
    sim.spawn("tx", move |p| {
        let ep = f.endpoint(A);
        ep.connect(p, B);
        for m in 1..=6 {
            ep.send(B, m, 8);
        }
    });
    sim.run().unwrap();
    let ep = fabric.endpoint(B);
    ep.retain(|from, m| from == A && m % 3 != 0);
    let mut left = Vec::new();
    while let Some((_, m)) = ep.try_recv() {
        left.push(m);
    }
    assert_eq!(left, [1, 2, 4, 5]);
}

/// A forced disconnect (link flap) on an idle connection drops it to
/// `Disconnected` immediately; the next `put`-style user reconnects through
/// the normal setup path and pays the setup cost again.
#[test]
fn force_disconnect_idle_drops_and_allows_reconnect() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let f = fabric.clone();
    sim.spawn("a", move |p| {
        let ep = f.endpoint(A);
        ep.connect(p, B);
        ep.send(B, 1, 64);
        // Park past the flap at 5 ms, then rebuild and send again.
        p.sleep(time::ms(10));
        assert!(!ep.is_connected(B), "flap must have torn the link down");
        ep.connect(p, B);
        ep.send(B, 2, 64);
    });
    let f = fabric.clone();
    sim.spawn("b", move |p| {
        let ep = f.endpoint(B);
        assert_eq!(ep.recv_wait(p).1, 1);
        assert_eq!(ep.recv_wait(p).1, 2);
    });
    let f = fabric.clone();
    sim.handle().call_at(time::ms(5), move |_| {
        assert!(f.force_disconnect(A, B));
    });
    sim.run().unwrap();
    let s = fabric.stats();
    assert_eq!(s.forced_down, 1);
    assert_eq!(s.connects, 2, "reconnect after the flap pays setup again");
    assert_eq!(s.messages, 2, "both sends land");
}

/// A flap with traffic in flight must let the posted bytes land (Draining),
/// then complete the drop once the wire is empty — never losing a message
/// that was already serialized onto the link.
#[test]
fn force_disconnect_with_in_flight_drains_first() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let f = fabric.clone();
    sim.spawn("a", move |p| {
        let ep = f.endpoint(A);
        ep.connect(p, B);
        // ~1 ms of serialization per message at 1 GB/s.
        for i in 0..3 {
            ep.send(B, i, 1_000_000);
        }
    });
    let f = fabric.clone();
    sim.spawn("b", move |p| {
        let ep = f.endpoint(B);
        for want in 0..3 {
            assert_eq!(ep.recv_wait(p).1, want);
        }
    });
    // Fires mid-transfer: connection must drain before dropping.
    let f = fabric.clone();
    sim.handle().call_at(time::ms(1) + time::us(500), move |h| {
        assert!(f.force_disconnect(A, B));
        assert_eq!(f.conn_state(A, B), ConnState::Draining);
        // Second flap on an already-draining connection is a no-op.
        assert!(!f.force_disconnect(A, B));
        let _ = h;
    });
    sim.run().unwrap();
    assert_eq!(fabric.conn_state(A, B), ConnState::Disconnected);
    let s = fabric.stats();
    assert_eq!(s.messages, 3, "in-flight messages still land");
    assert_eq!(s.forced_down, 1);
}

/// Flapping a connection that never existed, or one that is already down,
/// initiates nothing.
#[test]
fn force_disconnect_noop_cases() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    assert!(!fabric.force_disconnect(A, B), "unknown connection");
    let f = fabric.clone();
    sim.spawn("a", move |p| {
        let ep = f.endpoint(A);
        ep.connect(p, B);
        ep.teardown(p, B);
        assert!(!ep.fabric().force_disconnect(A, B), "already disconnected");
    });
    sim.run().unwrap();
    assert_eq!(fabric.stats().forced_down, 0);
}

// ---------------------------------------------------------------------
// Handle ownership: endpoints and links hold their own state
// ---------------------------------------------------------------------

/// Every handle for one node — a second `endpoint(n)` call, clones of
/// either — is the same queue, the same waiter list and the same listener
/// hook: state lives with the node, not with the handle that touched it.
#[test]
fn endpoint_handles_alias_one_queue_waiter_list_and_hook() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let (first, second) = (fabric.endpoint(B), fabric.endpoint(B));
    let (first_clone, second_clone) = (first.clone(), second.clone());
    let offered = Rc::new(RefCell::new(Vec::new()));
    // A listener that logs its offers under `name`, consuming them or not.
    let listener = |name: &'static str, consume: bool| -> gbcr_net::ArrivalHandler<u32> {
        let offered = offered.clone();
        Rc::new(move |_, m, alone| {
            offered.borrow_mut().push((name, m, alone));
            (!consume).then_some(m)
        })
    };
    let (consumer, keeper) = (listener("first", true), listener("second", false));
    sim.spawn("rx", move |p| {
        // Waiter list: registered through one handle, withdrawn through
        // another — the delivery at ~1 ms must then wake nobody.
        first.register_waiter(p.id());
        second_clone.unregister_waiter(p.id());
        p.sleep(time::ms(2));
        // Queue: delivered once, visible through all four, popped once.
        assert_eq!((first.pending(), second.pending(), first_clone.pending()), (1, 1, 1));
        assert_eq!(second.try_recv(), Some((A, 1)));
        assert_eq!((first.pending(), second_clone.pending()), (0, 0));
        // Waiter list again: registered through a clone, woken by the
        // delivery at ~3 ms.
        assert!(second_clone.register_waiter_if_empty(p.id()));
        p.park();
        assert!(p.now() < time::ms(4), "registration through a clone must be woken");
        assert!(!first.register_waiter_if_empty(p.id()), "a queued message registers nobody");
        assert_eq!(first_clone.recv_wait(p), (A, 2));
        // Listener: installed through one handle, it consumes the delivery
        // at ~5 ms, which then wakes nobody; replaced through another, the
        // new one hands back the delivery at ~7 ms, which is queued.
        first.set_arrival_handler(consumer);
        assert!(second_clone.register_waiter_if_empty(p.id()));
        p.handle().schedule_wake(time::ms(6), p.id());
        p.park();
        assert_eq!(p.now(), time::ms(6), "the consumed delivery woke the waiter");
        first_clone.unregister_waiter(p.id());
        second.set_arrival_handler(keeper);
        p.sleep(time::ms(8) - p.now());
        assert_eq!(first.try_recv(), Some((A, 4)));
        assert_eq!(second_clone.pending(), 0, "the consumed message was queued");
    });
    let f = fabric.clone();
    sim.spawn("tx", move |p| {
        let link = f.endpoint(A).link(B);
        link.connect(p); // done at 1 ms
        for (at_ms, m) in [(1, 1), (3, 2), (5, 3), (7, 4)] {
            p.sleep(time::ms(at_ms) - p.now());
            link.send(m, 8);
        }
    });
    sim.run().unwrap();
    assert_eq!(*offered.borrow(), [("first", 3, true), ("second", 4, false)]);
}

/// A delivery wakes a mailbox's waiters in registration order, and one
/// that withdraws and registers again goes to the back of the line.
#[test]
fn waiters_wake_in_registration_order() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let woken = Rc::new(RefCell::new(Vec::new()));
    for name in ["w0", "w1", "w2", "w3"] {
        let (rx, woken) = (fabric.endpoint(B), woken.clone());
        sim.spawn(name, move |p| {
            rx.register_waiter(p.id());
            if name == "w0" {
                p.sleep(time::ms(1)); // the others register meanwhile
                rx.unregister_waiter(p.id());
                rx.register_waiter(p.id());
            }
            p.park();
            woken.borrow_mut().push(name);
        });
    }
    let f = fabric.clone();
    sim.spawn("tx", move |p| {
        let link = f.endpoint(A).link(B);
        link.connect(p); // done at 1 ms, after w0 is back in line
        link.send(7, 8);
    });
    sim.run().unwrap();
    assert_eq!(*woken.borrow(), ["w1", "w2", "w3", "w0"]);
}

/// A message on the wire needs no handle to stay alive: the sender drops
/// its endpoint and link, a teardown starts mid-flight through a fresh
/// handle, and the delivery event still lands the message and completes
/// the drain through the connection it captured.
#[test]
fn in_flight_message_outlives_its_handles_and_completes_a_teardown() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let f = fabric.clone();
    sim.spawn("sender", move |p| {
        let link = f.endpoint(A).link(B);
        link.connect(p);
        link.send(7, 10_000_000); // 10 ms of serialization, lands at ~11 ms
    });
    let f = fabric.clone();
    sim.spawn("closer", move |p| {
        p.sleep(time::ms(5));
        let ep = f.endpoint(A);
        assert_eq!(ep.link(B).in_flight(), (1, 0));
        ep.teardown(p, B);
        assert!(p.now() >= time::ms(11), "teardown returned before the wire drained");
        assert_eq!(ep.link(B).in_flight(), (0, 0));
    });
    let f = fabric.clone();
    sim.spawn("b", move |p| assert_eq!(f.endpoint(B).recv_wait(p), (A, 7)));
    sim.run().unwrap();
    assert_eq!(fabric.conn_state(A, B), ConnState::Disconnected);
    let s = fabric.stats();
    assert_eq!((s.messages, s.teardowns, s.forced_down), (1, 1, 0));
}

/// The same for a forced disconnect: with no endpoint or link handle for
/// the sender left, the delivery event completes the flap and wakes a
/// process waiting for the drain on its own link.
#[test]
fn in_flight_message_completes_a_flap_through_its_captured_connection() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let f = fabric.clone();
    sim.spawn("sender", move |p| {
        let link = f.endpoint(A).link(B);
        link.connect(p);
        link.send(9, 10_000_000);
    });
    let f = fabric.clone();
    sim.spawn("b", move |p| {
        let ep = f.endpoint(B);
        p.sleep(time::ms(6));
        assert_eq!(f.conn_state(A, B), ConnState::Draining);
        ep.link(A).wait_drained(p);
        assert!(p.now() >= time::ms(11));
        assert_eq!(f.conn_state(A, B), ConnState::Disconnected);
        assert_eq!(ep.try_recv(), Some((A, 9)));
        assert!(ep.connected_peers().is_empty());
    });
    let f = fabric.clone();
    sim.handle().call_at(time::ms(5), move |_| assert!(f.force_disconnect(A, B)));
    sim.run().unwrap();
    assert_eq!(fabric.stats().forced_down, 1);
}

/// `connected_peers` is the endpoint's own record — sorted, and kept for
/// connections the *peer* initiated too.
#[test]
fn connected_peers_lists_active_connections_from_either_side() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let f = fabric.clone();
    sim.spawn("hub", move |p| {
        let ep = f.endpoint(NodeId(5));
        assert!(ep.connected_peers().is_empty());
        assert!(!ep.is_connected(NodeId(9)), "asking about a stranger is just `false`");
        ep.connect(p, NodeId(9));
        ep.connect(p, NodeId(2));
        p.sleep(time::ms(10)); // node 7 connects to us meanwhile
        assert_eq!(ep.connected_peers(), vec![NodeId(2), NodeId(7), NodeId(9)]);
        ep.teardown(p, NodeId(2));
        assert_eq!(ep.connected_peers(), vec![NodeId(7), NodeId(9)]);
        assert_eq!(f.endpoint(NodeId(2)).connected_peers(), vec![]);
    });
    let f = fabric.clone();
    sim.spawn("spoke", move |p| {
        p.sleep(time::ms(3));
        f.endpoint(NodeId(7)).connect(p, NodeId(5));
    });
    sim.run().unwrap();
}

/// A node's peer index holds its connections and a connection holds both
/// its nodes: the last handle onto the fabric, dropped, must still free
/// them all, and with them a message nobody received.
#[test]
fn a_fabric_is_freed_with_its_last_handle() {
    let token = Rc::new(());
    let mut sim = Sim::new(0);
    let fabric: Fabric<Rc<()>> = Fabric::new(sim.handle(), test_cfg());
    let (f, t) = (fabric.clone(), token.clone());
    sim.spawn("a", move |p| {
        let ep = f.endpoint(A);
        ep.connect(p, B);
        ep.send(B, t, 64);
    });
    sim.run().unwrap();
    assert_eq!(fabric.endpoint(B).pending(), 1, "the message waits at B");
    drop((sim, fabric));
    assert_eq!(Rc::strong_count(&token), 1, "the fabric kept its queued message");
}

/// A hub endpoint talking to every rank (the coordinator's shape) must not
/// pay per-send for its fan-out: 4× the peers may cost ~4× the time
/// (O(log n) lookups and the event heap add a little), never the 16× of a
/// per-send scan over the peer list. Host time, so best-of-several and a
/// loose bound.
#[test]
fn hub_fan_out_cost_grows_about_linearly_with_peer_count() {
    fn fan_out(peers: u32) -> std::time::Duration {
        let best = (0..5).map(|_| {
            let mut sim = Sim::new(0);
            let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
            sim.spawn("hub", move |p| {
                let hub = fabric.endpoint(NodeId(u32::MAX));
                for r in 0..peers {
                    hub.connect(p, NodeId(r));
                }
                for round in 0..8 {
                    for r in 0..peers {
                        hub.send(NodeId(r), round, 64);
                    }
                    p.sleep(time::ms(1));
                }
            });
            let t0 = std::time::Instant::now();
            sim.run().unwrap();
            t0.elapsed()
        });
        best.min().expect("five runs")
    }
    let (small, large) = (fan_out(512), fan_out(2048));
    assert!(
        large <= small * 6,
        "2048-peer fan-out took {large:?}, more than 6x the 512-peer {small:?}"
    );
}

/// The arrival handler is the endpoint's listener: it is offered every
/// delivery, told `alone` exactly when the delivery finds the queue empty
/// and a live process parked on the endpoint — the one case where waking
/// that process would show it exactly this message. What it consumes is
/// never queued and wakes nobody; what it hands back is queued and wakes
/// the waiter, as without a handler. With no waiter, a backlog, or only a
/// killed waiter, `alone` is false.
#[test]
fn arrival_handler_is_offered_every_delivery_and_told_when_a_live_waiter_sees_it_alone() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let offered = Arc::new(Mutex::new(Vec::new()));
    let rx = fabric.endpoint(B);
    let seen = offered.clone();
    // Seen alone, consumes even messages and hands odd ones back; otherwise
    // hands everything back.
    rx.set_arrival_handler(Rc::new(move |link, m, alone| {
        seen.lock().push((link.peer(), m, alone));
        (!alone || m % 2 == 1).then_some(m)
    }));
    let f = fabric.clone();
    sim.spawn("tx", move |p| {
        let link = f.endpoint(A).link(B);
        link.connect(p); // done at 1 ms
        for (at_ms, m) in [(2, 10), (4, 11), (6, 12), (8, 14), (9, 16), (12, 18)] {
            p.sleep(time::ms(at_ms) - p.now());
            link.send(m, 8);
        }
    });
    let h = sim.handle();
    let rx_pid = sim.spawn("rx", move |p| {
        // Parked on the endpoint, queue empty: 10 is consumed at ~2 ms —
        // never queued, and this process sleeps through it.
        assert!(rx.register_waiter_if_empty(p.id()));
        p.park();
        // 11 is offered at ~4 ms too, handed back, queued — and wakes us.
        assert!(p.now() > time::ms(4) && p.now() < time::ms(5));
        assert_eq!(rx.try_recv(), Some((A, 11)));
        assert_eq!(rx.try_recv(), None, "10 was consumed on arrival");
        // Nobody parked on the endpoint at ~6 ms: 12 is not seen alone.
        p.sleep(time::ms(7) - p.now());
        assert_eq!(rx.pending(), 1);
        // Parked again, but behind a backlog: 14 must queue up after 12.
        rx.register_waiter(p.id());
        p.park();
        assert!(p.now() > time::ms(8) && p.now() < time::ms(9));
        p.sleep(time::us(500));
        assert_eq!((rx.try_recv(), rx.try_recv()), (Some((A, 12)), Some((A, 14))));
        // Parked with an empty queue once more: 16 is consumed at ~9 ms ...
        rx.register_waiter(p.id());
        p.park();
        unreachable!("... and only the kill at 10 ms ends this park");
    });
    // A killed process leaves its registration behind; nobody is listening
    // any more, so 18 (~12 ms) is not seen alone and lands in the queue of
    // the dead.
    h.call_at(time::ms(10), move |h| h.kill(rx_pid));
    sim.run().unwrap();
    let alone = [(10, true), (11, true), (12, false), (14, false), (16, true), (18, false)];
    assert_eq!(*offered.lock(), alone.map(|(m, alone)| (A, m, alone)));
    assert_eq!(fabric.endpoint(B).try_recv(), Some((A, 18)));
    assert_eq!(fabric.stats().messages, 6, "consumed or queued, a delivery is a delivery");
}

/// Every connection transition that has parked waiters, plus one fan-out:
/// `b` sleeps out a set-up `a` is in the middle of, `b2` and `a2` park on
/// the connection `a` is draining and tearing down, `c2` parks in
/// `wait_drained` and `a3` in `connect` on one that a forced disconnect
/// catches mid-transfer. What happened when, the end time and the event
/// count are the ones coroutines and OS threads both gave until PR 26
/// removed the thread-per-process executor.
#[test]
fn connection_life_cycle_wakes_parked_waiters_at_pinned_times() {
    const C: NodeId = NodeId(2);
    const D: NodeId = NodeId(3);
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let log = Rc::new(RefCell::new(Vec::new()));
    /// A process body, handed its `Proc` and a way to log a line.
    type Body = Box<dyn FnOnce(&Proc, &dyn Fn(&str))>;
    let spawn = |sim: &mut Sim, name: &'static str, body: Body| {
        let log = log.clone();
        sim.spawn(name, move |p| {
            body(p, &|what| log.borrow_mut().push((p.now(), format!("{name}: {what}"))));
            log.borrow_mut().push((p.now(), format!("{name}: done")));
        });
    };
    let f = fabric.clone();
    spawn(
        &mut sim,
        "a",
        Box::new(move |p, note| {
            let ep = f.endpoint(A);
            for peer in [B, C, D] {
                ep.connect(p, peer);
            }
            ep.send(B, 1, 10_000_000); // 10 ms on the wire
            for m in 0..3 {
                ep.send(C, 10 + m, 1_000_000);
            }
            note("sent");
            ep.teardown(p, B); // drains first; `b2` and `a2` wait on it
            note("torn down");
            ep.connect(p, C); // flapped meanwhile, and `a3` brought it back up
            for (peer, m, size) in [(C, 20, 64), (D, 21, 64), (D, 22, 1_000), (C, 23, 64)] {
                ep.send(peer, m, size);
            }
        }),
    );
    let f = fabric.clone();
    spawn(
        &mut sim,
        "a2",
        Box::new(move |p, note| {
            p.sleep(time::ms(5));
            f.endpoint(A).teardown(p, B); // already draining: parks until it is down
            note("saw it down");
        }),
    );
    let f = fabric.clone();
    spawn(
        &mut sim,
        "a3",
        Box::new(move |p, note| {
            p.sleep(time::ms(4) + time::us(600));
            f.endpoint(A).connect(p, C); // draining after the flap: parks, then connects
            note("reconnected");
        }),
    );
    for (name, me, expect) in [("b", B, 1usize), ("c", C, 5), ("d", D, 2)] {
        let f = fabric.clone();
        spawn(
            &mut sim,
            name,
            Box::new(move |p, note| {
                let ep = f.endpoint(me);
                if me == B {
                    ep.connect(p, A); // `a` is mid-set-up: sleeps to its `active_at`
                }
                for _ in 0..expect {
                    note(&format!("got {}", ep.recv_wait(p).1));
                }
            }),
        );
    }
    let f = fabric.clone();
    spawn(
        &mut sim,
        "b2",
        Box::new(move |p, note| {
            p.sleep(time::ms(4));
            f.endpoint(B).wait_drained(p, A);
            note("drained");
        }),
    );
    let f = fabric.clone();
    spawn(
        &mut sim,
        "c2",
        Box::new(move |p, note| {
            p.sleep(time::ms(4));
            f.endpoint(C).wait_drained(p, A); // woken by the flap, and again by the drain
            note("drained");
        }),
    );
    let f = fabric.clone();
    sim.handle().call_at(time::ms(4) + time::us(500), move |_| assert!(f.force_disconnect(A, C)));
    assert_eq!(sim.run().expect("life cycle completes"), 13_105_064);
    assert_eq!(sim.events_processed(), 41);
    let s = fabric.stats();
    assert_eq!((s.messages, s.connects, s.teardowns, s.forced_down), (8, 4, 1, 1));
    let at = |t: Time, what: &str| (t, what.to_owned());
    assert_eq!(
        log.take(),
        [
            at(3_000_000, "a: sent"),
            at(4_002_000, "c: got 10"),
            at(5_002_000, "c: got 11"),
            at(6_002_000, "c2: drained"),
            at(6_002_000, "c2: done"),
            at(6_002_000, "c: got 12"),
            at(7_002_000, "a3: reconnected"),
            at(7_002_000, "a3: done"),
            at(13_002_000, "b2: drained"),
            at(13_002_000, "b2: done"),
            at(13_002_000, "b: got 1"),
            at(13_002_000, "b: done"),
            at(13_102_000, "a: torn down"),
            at(13_102_000, "a: done"),
            at(13_102_000, "a2: saw it down"),
            at(13_102_000, "a2: done"),
            at(13_104_064, "c: got 20"),
            at(13_104_064, "d: got 21"),
            at(13_104_128, "c: got 23"),
            at(13_104_128, "c: done"),
            at(13_105_064, "d: got 22"),
            at(13_105_064, "d: done"),
        ]
    );
}

/// The one thing a listener may not do is touch the mailbox it is
/// installed on: the delivery that offers it the message holds that
/// mailbox. The second borrow panics, naming the line.
#[test]
#[should_panic(expected = "already borrowed")]
fn arrival_handler_touching_its_own_mailbox_panics() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let rx = fabric.endpoint(B);
    let own = rx.clone();
    rx.set_arrival_handler(Rc::new(move |_, m, _| own.try_recv().map(|_| m)));
    let f = fabric.clone();
    sim.spawn("tx", move |p| {
        let link = f.endpoint(A).link(B);
        link.connect(p);
        link.send(1, 8);
    });
    sim.spawn("rx", move |p| {
        assert!(rx.register_waiter_if_empty(p.id()));
        p.park();
    });
    let _ = sim.run();
}

/// A hub fans seven messages out to six peers by a loop of `send`s (peer 3
/// gets two) while three of its links still serialize a backlog: the idle
/// links deliver first and at one instant, in send order; the pre-loaded
/// ones later, each at its own instant. `in_flight` counts the fan-out from
/// the moment it is sent, a teardown started meanwhile waits for the
/// straggler, and a peer in `wait_drained` is released as the last message
/// on its link lands.
#[test]
fn fan_out_lands_same_instant_deliveries_in_send_order() {
    const PEERS: u32 = 6;
    let cfg = NetConfig {
        per_message_overhead: 100,
        conn_setup_time: time::us(50),
        conn_teardown_time: time::us(10),
        ..test_cfg()
    };
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), cfg);
    let log: Arc<Mutex<Vec<(Time, String)>>> = Arc::default();
    let (f, l) = (fabric.clone(), log.clone());
    sim.spawn("hub", move |p| {
        let ep = f.endpoint(A);
        for r in 1..=PEERS {
            ep.connect(p, NodeId(r));
        }
        // Unequal `busy_until`: 40 µs, 15 µs and 5 µs of serialization.
        ep.send(NodeId(2), 1000, 40_000);
        ep.send(NodeId(5), 1001, 15_000);
        ep.send(NodeId(6), 1002, 5_000);
        p.sleep(time::us(10)); // peer 6's backlog is gone, 2's and 5's are not
        for r in [1, 2, 3, 3, 4, 5, 6] {
            ep.send(NodeId(r), 100 + r, 64);
        }
        for r in 1..=PEERS {
            let in_flight = ep.link(NodeId(r)).in_flight();
            l.lock().push((p.now(), format!("in_flight {r}: {in_flight:?}")));
        }
        ep.teardown(p, NodeId(2));
        l.lock().push((p.now(), "teardown 2 done".into()));
    });
    for r in 1..=PEERS {
        let (f, l) = (fabric.clone(), log.clone());
        sim.spawn(format!("peer{r}"), move |p| {
            let ep = f.endpoint(NodeId(r));
            let expect = 1 + usize::from(matches!(r, 2 | 5 | 6)) + usize::from(r == 3);
            for _ in 0..expect {
                let (_, m) = ep.recv_wait(p);
                l.lock().push((p.now(), format!("peer {r} got {m}")));
                if r == 5 && m == 1001 {
                    // The backlog landed; its fan-out message is in the air.
                    ep.wait_drained(p, A);
                    l.lock().push((p.now(), "peer 5 drained".into()));
                }
            }
        });
    }
    sim.run().unwrap();
    let log = std::mem::take(&mut *log.lock());
    let got = |what: &str| {
        let at = log.iter().position(|(_, w)| w == what);
        at.unwrap_or_else(|| panic!("{what:?} not in {log:#?}"))
    };
    let together = ["peer 1 got 101", "peer 3 got 103", "peer 4 got 104", "peer 6 got 106"];
    let at: Vec<usize> = together.iter().map(|w| got(w)).collect();
    assert!(at.windows(2).all(|w| w[0] < w[1]), "{log:#?}");
    let when = |what: &str| log[got(what)].0;
    assert!(together.iter().all(|w| when(w) == when(together[0])), "{log:#?}");
    assert!(when("peer 4 got 104") < when("peer 5 got 105"));
    assert!(when("peer 5 got 105") < when("peer 2 got 102"));
    assert_eq!(when("peer 5 drained"), when("peer 5 got 105"));
    assert!(when("teardown 2 done") > when("peer 2 got 102"));
    let sent = when("in_flight 1: (1, 0)");
    assert!(log.contains(&(sent, "in_flight 2: (2, 0)".into())), "{log:#?}");
    assert!(log.contains(&(sent, "in_flight 3: (2, 0)".into())), "{log:#?}");
    assert_eq!(fabric.stats().messages, 10);
}
