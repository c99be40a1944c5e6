//! The checkpointable-library-state machinery in isolation: export and
//! import of unexpected messages, completed-unclaimed receives, deferred
//! eager sends, sequence counters, and the duplicate-suppression
//! watermarks.

use bytes::Bytes;
use gbcr_des::{time, Sim};
use gbcr_mpi::{CrHook, MpiConfig, Msg, Rank, World};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;

struct GateHook {
    barred: Mutex<HashSet<Rank>>,
}
impl GateHook {
    fn new() -> Rc<Self> {
        Rc::new(GateHook { barred: Mutex::new(HashSet::new()) })
    }
}
impl CrHook for GateHook {
    fn user_send_allowed(&self, peer: Rank) -> bool {
        !self.barred.lock().contains(&peer)
    }
}

#[test]
fn export_captures_unexpected_and_unclaimed_receives() {
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(2));
    let m0 = world.attach(0);
    let m1 = world.attach(1);
    sim.spawn("r0", move |p| {
        m0.send(p, 1, 10, Msg::bytes(&b"unexpected"[..]));
        m0.send(p, 1, 11, Msg::bytes(&b"claimed-later"[..]));
    });
    sim.spawn("r1", move |p| {
        p.sleep(time::ms(5));
        // Post a recv for tag 11, complete it, but never wait() on it:
        // it sits in done_recv (completed-unclaimed).
        let req = m1.irecv(p, Some(0), 11);
        m1.progress(p);
        // Tag 10 was never posted: it is in the unexpected queue.
        m1.mark_boundary();
        let state = m1.export_cr_state();
        assert_eq!(state.inbound.len(), 2, "both receives captured: {state:?}");
        let tags: Vec<u32> = state.inbound.iter().map(|(_, t, _)| *t).collect();
        assert!(tags.contains(&10) && tags.contains(&11));
        // Export is non-destructive: the live state still works.
        let got = m1.wait(p, req).unwrap();
        assert_eq!(got.data, Bytes::from_static(b"claimed-later"));
        let got = m1.recv(p, Some(0), 10);
        assert_eq!(got.data, Bytes::from_static(b"unexpected"));
    });
    sim.run().unwrap();
}

/// Completed-unclaimed receives ride in the image in request order — the
/// order replay re-posts them in — not in completion order.
#[test]
fn export_lists_unclaimed_receives_in_request_order() {
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(2));
    let m0 = world.attach(0);
    let m1 = world.attach(1);
    sim.spawn("r0", move |p| {
        p.sleep(time::ms(5));
        m0.send(p, 1, 11, Msg::u64(11));
        m0.send(p, 1, 12, Msg::u64(12));
    });
    sim.spawn("r1", move |p| {
        let _first = m1.irecv(p, Some(0), 12);
        let _second = m1.irecv(p, Some(0), 11);
        p.sleep(time::ms(50));
        m1.progress(p);
        m1.mark_boundary();
        let state = m1.export_cr_state();
        let tags: Vec<u32> = state.inbound.iter().map(|(_, t, _)| *t).collect();
        assert_eq!(tags, [12, 11], "{state:?}");
    });
    sim.run().unwrap();
}

/// Between CTS and wire a rendezvous send is still a request: the CTS has
/// been consumed, the DATA sits behind the gate, and the send must read
/// as incomplete until the gate opens.
#[test]
fn rendezvous_send_with_gated_data_is_incomplete_until_release() {
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(2));
    let m0 = world.attach(0);
    let m1 = world.attach(1);
    let hook = GateHook::new();
    m0.set_hook(hook.clone());
    sim.spawn("r0", move |p| {
        // The RTS leaves through the open gate; the gate shuts before the
        // CTS comes back.
        let req = m0.isend(p, 1, 4, Msg::bulk(1_000_000));
        hook.barred.lock().insert(1);
        p.sleep(time::ms(10));
        assert_eq!(m0.test(p, req), None, "CTS handled, DATA deferred");
        let stats = m0.stats();
        assert_eq!((stats.deferred_len, stats.defer.req_buffered), (1, 1), "the DATA: {stats:?}");
        assert_eq!(m0.test(p, req), None);
        hook.barred.lock().remove(&1);
        m0.release_deferred(p);
        assert_eq!(m0.test(p, req), Some(None));
    });
    sim.spawn("r1", move |p| {
        assert_eq!(m1.recv(p, Some(0), 4).size, 1_000_000);
    });
    sim.run().unwrap();
}

#[test]
fn export_respects_the_boundary_for_deferred_sends() {
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(2));
    let m0 = world.attach(0);
    let hook = GateHook::new();
    hook.barred.lock().insert(1);
    m0.set_hook(hook);
    sim.spawn("r0", move |p| {
        // Two eager sends *before* the boundary, one after: only the first
        // two ride in the image (the app replays the third).
        m0.send(p, 1, 1, Msg::u64(100));
        m0.send(p, 1, 1, Msg::u64(101));
        m0.mark_boundary();
        m0.send(p, 1, 1, Msg::u64(102));
        let state = m0.export_cr_state();
        assert_eq!(state.deferred_eager.len(), 2, "{state:?}");
        assert_eq!(state.deferred_eager[0].3, 0, "original sequence numbers kept");
        assert_eq!(state.deferred_eager[1].3, 1);
        assert_eq!(state.send_seqs, vec![(1, 2)], "boundary counter, not live");
    });
    sim.run().unwrap();
}

#[test]
fn import_reinjects_inbound_and_deferred_into_a_fresh_world() {
    // Build a state by hand, import it, and verify a fresh rank pair sees
    // exactly the saved traffic.
    let exported = {
        let mut sim = Sim::new(0);
        let world = World::new(sim.handle(), MpiConfig::new(2));
        let m0 = world.attach(0);
        let _m1 = world.attach(1);
        let hook = GateHook::new();
        hook.barred.lock().insert(1);
        m0.set_hook(hook);
        let out = Arc::new(Mutex::new(None));
        let o = out.clone();
        sim.spawn("r0", move |p| {
            m0.send(p, 1, 7, Msg::u64(41));
            m0.send(p, 1, 7, Msg::u64(42));
            m0.mark_boundary();
            *o.lock() = Some(m0.export_cr_state());
            let _ = p;
        });
        sim.run().unwrap();
        let s = out.lock().take().unwrap();
        s
    };

    let mut sim = Sim::new(1);
    let world = World::new(sim.handle(), MpiConfig::new(2));
    let m0 = world.attach(0);
    let m1 = world.attach(1);
    sim.spawn("r0", move |p| {
        m0.import_cr_state(p, exported);
        // The restored counters are live, not a boundary: until the
        // application registers again, a freeze exports none.
        assert!(m0.export_cr_state().send_seqs.is_empty());
    });
    sim.spawn("r1", move |p| {
        assert_eq!(m1.recv(p, Some(0), 7).as_u64(), 41);
        assert_eq!(m1.recv(p, Some(0), 7).as_u64(), 42);
    });
    sim.run().unwrap();
}

#[test]
fn watermark_suppresses_replayed_eager_duplicates() {
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(2));
    let m0 = world.attach(0);
    let m1 = world.attach(1);
    let m1c = m1.clone();
    sim.spawn("r0", move |p| {
        // Pretend this rank restarted with its send counter rolled back:
        // messages 0 and 1 are replays the receiver already saw.
        m0.send(p, 1, 3, Msg::u64(0));
        m0.send(p, 1, 3, Msg::u64(1));
        m0.send(p, 1, 3, Msg::u64(2));
    });
    sim.spawn("r1", move |p| {
        // Receiver restored with watermark 2 for source 0.
        m1c.import_cr_state(
            p,
            gbcr_mpi::MpiCrState {
                inbound: vec![],
                deferred_eager: vec![],
                send_seqs: vec![],
                recv_watermarks: vec![(0, 2)],
                coll_seqs: vec![],
            },
        );
        // Only the genuinely new message (seq 2) is delivered.
        let got = m1c.recv(p, Some(0), 3);
        assert_eq!(got.as_u64(), 2);
        p.sleep(time::ms(50));
        m1c.progress(p);
        assert_eq!(m1c.stats().defer.dups_dropped, 2, "two replays dropped");
    });
    sim.run().unwrap();
}

#[test]
fn watermark_sinks_replayed_rendezvous() {
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(2));
    let m0 = world.attach(0);
    let m1 = world.attach(1);
    sim.spawn("r0", move |p| {
        // A replayed 5 MB rendezvous the receiver already consumed: the
        // sink-CTS must still complete the send.
        m0.send(p, 1, 9, Msg::bulk(5_000_000));
        // Completing proves the receiver granted the sink CTS.
    });
    sim.spawn("r1", move |p| {
        m1.import_cr_state(
            p,
            gbcr_mpi::MpiCrState {
                inbound: vec![],
                deferred_eager: vec![],
                send_seqs: vec![],
                recv_watermarks: vec![(0, 1)],
                coll_seqs: vec![],
            },
        );
        // Never posts a recv; just keeps the progress engine alive long
        // enough for the rendezvous to be sunk.
        m1.compute(p, time::ms(100));
        m1.progress(p);
        assert_eq!(m1.stats().defer.dups_dropped, 1);
        // The sink request goes with its DATA (5 MB, a few ms behind the
        // CTS): a runtime that only ever sank a replay still counts as "no
        // MPI activity yet".
        p.sleep(time::ms(50));
        m1.progress(p);
        m1.import_cr_state(p, gbcr_mpi::MpiCrState::default());
    });
    sim.run().unwrap();
}

#[test]
fn coll_seq_counters_ride_the_boundary() {
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(2));
    for r in 0..2 {
        let m = world.attach(r);
        let comm = world.world_comm();
        sim.spawn(format!("r{r}"), move |p| {
            m.barrier(p, &comm);
            m.barrier(p, &comm);
            m.mark_boundary();
            m.barrier(p, &comm);
            let coll = m.export_cr_state().coll_seqs;
            assert_eq!(coll, vec![(comm.id(), 2)], "two collectives before the boundary");
        });
    }
    sim.run().unwrap();
}
