//! Point-to-point semantics: eager vs rendezvous, matching rules,
//! non-overtaking, unexpected messages, wildcard receives.

use bytes::Bytes;
use gbcr_des::trace::arg;
use gbcr_des::{time, ArgValue, Sim, TraceLevel};
use gbcr_mpi::{Mpi, MpiConfig, Msg, World};
use parking_lot::Mutex;
use std::sync::Arc;

fn two_rank_world(sim: &Sim) -> (Mpi, Mpi, World) {
    let world = World::new(sim.handle(), MpiConfig::new(2));
    let m0 = world.attach(0);
    let m1 = world.attach(1);
    (m0, m1, world)
}

#[test]
fn eager_send_recv_delivers_payload() {
    let mut sim = Sim::new(0);
    let (m0, m1, _w) = two_rank_world(&sim);
    sim.spawn("r0", move |p| {
        m0.send(p, 1, 5, Msg::bytes(&b"hello"[..]));
    });
    sim.spawn("r1", move |p| {
        let m = m1.recv(p, Some(0), 5);
        assert_eq!(m.data, Bytes::from_static(b"hello"));
    });
    sim.run().unwrap();
}

#[test]
fn rendezvous_transfers_large_messages() {
    let mut sim = Sim::new(0);
    let (m0, m1, w) = two_rank_world(&sim);
    sim.spawn("r0", move |p| {
        // 15 MB >> eager threshold: RTS/CTS/DATA path.
        m0.send(p, 1, 9, Msg::with_size(&b"big-marker"[..], 15_000_000));
    });
    sim.spawn("r1", move |p| {
        let m = m1.recv(p, Some(0), 9);
        assert_eq!(m.size, 15_000_000);
        assert_eq!(m.data, Bytes::from_static(b"big-marker"));
        // 15 MB at 1.5 GB/s = 10 ms minimum.
        assert!(p.now() >= time::ms(10));
    });
    sim.run().unwrap();
    // eager would be 1 message; rendezvous is RTS + CTS + DATA.
    assert_eq!(w.net_stats().messages, 3);
}

#[test]
fn eager_send_completes_without_receiver() {
    // MPI_Send on an eager message returns after the buffer copy even if
    // the receiver never posts — the message parks in its unexpected queue.
    let mut sim = Sim::new(0);
    let (m0, m1, _w) = two_rank_world(&sim);
    let done_at = Arc::new(Mutex::new(0u64));
    let d = done_at.clone();
    sim.spawn("r0", move |p| {
        m0.send(p, 1, 1, Msg::bytes(&b"fire-and-forget"[..]));
        *d.lock() = p.now();
    });
    sim.spawn("r1", move |p| {
        // Receive much later; message must be waiting in unexpected queue.
        p.sleep(time::secs(1));
        let m = m1.recv(p, Some(0), 1);
        assert_eq!(m.data, Bytes::from_static(b"fire-and-forget"));
    });
    sim.run().unwrap();
    assert!(*done_at.lock() < time::ms(100), "eager send should not block on recv");
}

#[test]
fn rendezvous_send_blocks_until_receiver_posts() {
    let mut sim = Sim::new(0);
    let (m0, m1, _w) = two_rank_world(&sim);
    sim.spawn("r0", move |p| {
        m0.send(p, 1, 1, Msg::bulk(1_000_000));
        // Receiver posts at t=500ms; data takes ~0.67ms after CTS.
        assert!(p.now() >= time::ms(500));
    });
    sim.spawn("r1", move |p| {
        p.sleep(time::ms(500));
        let m = m1.recv(p, Some(0), 1);
        assert_eq!(m.size, 1_000_000);
    });
    sim.run().unwrap();
}

#[test]
fn non_overtaking_same_src_same_tag() {
    let mut sim = Sim::new(0);
    let (m0, m1, _w) = two_rank_world(&sim);
    sim.spawn("r0", move |p| {
        for i in 0..10u64 {
            m0.send(p, 1, 3, Msg::u64(i));
        }
    });
    sim.spawn("r1", move |p| {
        for i in 0..10u64 {
            assert_eq!(m1.recv(p, Some(0), 3).as_u64(), i);
        }
    });
    sim.run().unwrap();
}

#[test]
fn tags_discriminate() {
    let mut sim = Sim::new(0);
    let (m0, m1, _w) = two_rank_world(&sim);
    sim.spawn("r0", move |p| {
        m0.send(p, 1, 10, Msg::u64(10));
        m0.send(p, 1, 20, Msg::u64(20));
    });
    sim.spawn("r1", move |p| {
        // Receive in reverse tag order: matching must be by tag, not FIFO.
        assert_eq!(m1.recv(p, Some(0), 20).as_u64(), 20);
        assert_eq!(m1.recv(p, Some(0), 10).as_u64(), 10);
    });
    sim.run().unwrap();
}

#[test]
fn wildcard_source_receives_from_anyone() {
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(3));
    let m0 = world.attach(0);
    let m1 = world.attach(1);
    let m2 = world.attach(2);
    sim.spawn("r1", move |p| {
        p.sleep(time::ms(1));
        m1.send(p, 0, 7, Msg::u64(1));
    });
    sim.spawn("r2", move |p| {
        p.sleep(time::ms(2));
        m2.send(p, 0, 7, Msg::u64(2));
    });
    sim.spawn("r0", move |p| {
        let a = m0.recv(p, None, 7).as_u64();
        let b = m0.recv(p, None, 7).as_u64();
        assert_eq!([a, b], [1, 2], "wildcard receives in arrival order");
    });
    sim.run().unwrap();
}

#[test]
fn wildcard_receives_on_one_tag_complete_in_post_order() {
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(3));
    let m0 = world.attach(0);
    let m1 = world.attach(1);
    let m2 = world.attach(2);
    sim.spawn("r1", move |p| {
        p.sleep(time::ms(1));
        m1.send(p, 0, 7, Msg::u64(1));
    });
    sim.spawn("r2", move |p| {
        p.sleep(time::ms(2));
        m2.send(p, 0, 7, Msg::u64(2));
    });
    sim.spawn("r0", move |p| {
        let first = m0.irecv(p, None, 7);
        let second = m0.irecv(p, None, 7);
        // Claimed in the opposite order: matching follows posting.
        assert_eq!(m0.wait(p, second).unwrap().as_u64(), 2);
        assert_eq!(m0.wait(p, first).unwrap().as_u64(), 1);
    });
    sim.run().unwrap();
}

#[test]
fn isend_wait_and_test() {
    let mut sim = Sim::new(0);
    let (m0, m1, _w) = two_rank_world(&sim);
    sim.spawn("r0", move |p| {
        let r1 = m0.isend(p, 1, 1, Msg::bulk(5_000_000));
        let r2 = m0.isend(p, 1, 2, Msg::u64(1));
        // Eager isend is already complete.
        assert!(m0.test(p, r2).is_some());
        m0.wait(p, r1);
    });
    sim.spawn("r1", move |p| {
        let big = m1.irecv(p, Some(0), 1);
        let small = m1.irecv(p, Some(0), 2);
        assert_eq!(m1.wait(p, small).unwrap().as_u64(), 1);
        assert_eq!(m1.wait(p, big).unwrap().size, 5_000_000);
    });
    sim.run().unwrap();
}

#[test]
fn deterministic_trace_across_runs() {
    fn run(seed: u64) -> (u64, u64) {
        let mut sim = Sim::new(seed);
        let world = World::new(sim.handle(), MpiConfig::new(4));
        for r in 0..4u32 {
            let m = world.attach(r);
            sim.spawn(format!("r{r}"), move |p| {
                let right = (m.rank() + 1) % m.size();
                let left = (m.rank() + m.size() - 1) % m.size();
                for i in 0..50u64 {
                    let s = m.isend(p, right, 1, Msg::u64(i));
                    let got = m.recv(p, Some(left), 1);
                    assert_eq!(got.as_u64(), i);
                    m.wait(p, s);
                }
                // Rendezvous round the ring: RTS/CTS/DATA on the links
                // the eager rounds resolved.
                let s = m.isend(p, right, 2, Msg::bulk(1_000_000));
                assert_eq!(m.recv(p, Some(left), 2).size, 1_000_000);
                m.wait(p, s);
                // Tear the outbound link down (the CTS was its last
                // inbound message; the DATA drains first) and send again:
                // the held link reconnects on demand and pays setup.
                m.conn_teardown(p, right);
                assert!(!m.connected_peers().contains(&right));
                let s = m.isend(p, right, 3, Msg::u64(99));
                assert_eq!(m.recv(p, Some(left), 3).as_u64(), 99);
                m.wait(p, s);
                assert_eq!(m.stats().connected_peers, {
                    let mut both = vec![left, right];
                    both.sort_unstable();
                    both
                });
            });
        }
        let end = sim.run().unwrap();
        assert_eq!(world.net_stats().connects, 8, "4 ring links, each set up twice");
        (end, sim.events_processed())
    }
    assert_eq!(run(1), run(1));
    // The end time both executors gave when there were two. The events are
    // 8 fewer than the 448 of a rank resumed for every handshake: the
    // data-plane listener answers the rendezvous round's RTS and CTS.
    assert_eq!(run(1), (5_304_244, 440));
}

#[test]
fn first_send_establishes_connection_lazily() {
    let mut sim = Sim::new(0);
    let (m0, m1, w) = two_rank_world(&sim);
    let w2 = w.clone();
    sim.spawn("r0", move |p| {
        assert!(m0.stats().connected_peers.is_empty());
        m0.send(p, 1, 1, Msg::u64(0));
        assert_eq!(m0.stats().connected_peers, vec![1]);
        assert_eq!(m0.connected_peers(), vec![1]);
    });
    sim.spawn("r1", move |p| {
        m1.recv(p, Some(0), 1);
    });
    sim.run().unwrap();
    assert_eq!(w2.net_stats().connects, 1);
}

#[test]
fn traffic_stats_track_per_peer_counts() {
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(3));
    let m0 = world.attach(0);
    let m1 = world.attach(1);
    let m2 = world.attach(2);
    let m0c = m0.clone();
    sim.spawn("r0", move |p| {
        m0c.send(p, 1, 1, Msg::u64(0));
        m0c.send(p, 1, 1, Msg::u64(1));
        m0c.send(p, 2, 1, Msg::bulk(100));
    });
    sim.spawn("r1", move |p| {
        m1.recv(p, Some(0), 1);
        m1.recv(p, Some(0), 1);
    });
    sim.spawn("r2", move |p| {
        m2.recv(p, Some(0), 1);
    });
    sim.run().unwrap();
    let t = m0.stats().traffic;
    assert_eq!(t.per_peer, vec![(1, 2, 16), (2, 1, 100)]);
}

/// `connected_peers` is answered from the endpoint's own peer records; it
/// must equal the full scan written out at each step, through connects
/// from either side, a teardown, a link flap and a reconnect, and
/// `stats` must report the same list.
#[test]
fn connected_peers_matches_a_full_scan_through_the_connection_life_cycle() {
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(6));
    let m: Vec<Mpi> = (0..6).map(|r| world.attach(r)).collect();
    let check = |m: &Mpi, want: &[u32]| {
        assert_eq!(m.connected_peers(), want, "rank {}", m.rank());
        assert_eq!(m.stats().connected_peers, want, "rank {}", m.rank());
    };
    let (m0, m4, w) = (m[0].clone(), m[4].clone(), world.clone());
    sim.spawn("r0", move |p| {
        check(&m0, &[]);
        m0.conn_connect(p, 5);
        m0.conn_connect(p, 2);
        check(&m0, &[2, 5]);
        p.sleep(time::ms(50)); // rank 4 connects to us meanwhile
        check(&m0, &[2, 4, 5]);
        m0.conn_teardown(p, 2);
        check(&m0, &[4, 5]);
        assert!(w.flap_link(0, 5)); // force_disconnect on an idle link
        check(&m0, &[4]);
        m0.send(p, 5, 1, Msg::u64(0)); // reconnects on demand
        m0.conn_connect(p, 2);
        check(&m0, &[2, 4, 5]);
        w.mark_failed(4); // dead node: every link to it is forced down
        check(&m0, &[2, 5]);
    });
    sim.spawn("r4", move |p| {
        p.sleep(time::ms(10));
        m4.conn_connect(p, 0);
        check(&m4, &[0]);
    });
    sim.run().unwrap();
    for (r, want) in [(2, vec![0]), (5, vec![0]), (4, vec![]), (1, vec![])] {
        check(&m[r], &want);
    }
}

/// The `mpi.send` span names the protocol the send took, not the one its
/// size suggests: under message logging every send goes eagerly.
#[test]
fn send_span_names_the_protocol_taken() {
    fn proto(log_mode: bool) -> String {
        let mut sim = Sim::new(0);
        sim.handle().tracer().set_level(TraceLevel::Full);
        let (m0, m1, _w) = two_rank_world(&sim);
        m0.set_log_mode(log_mode);
        sim.spawn("r0", move |p| m0.send(p, 1, 1, Msg::bulk(1 << 20)));
        sim.spawn("r1", move |p| assert_eq!(m1.recv(p, Some(0), 1).size, 1 << 20));
        sim.run().unwrap();
        let data = sim.handle().tracer().take();
        let [span] = data.spans_named("mpi.send")[..] else { panic!("one send: {data:?}") };
        arg(&span.args, "proto").and_then(ArgValue::as_str).expect("a proto arg").to_owned()
    }
    assert_eq!(proto(true), "eager");
    assert_eq!(proto(false), "rdv");
}
