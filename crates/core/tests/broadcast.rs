//! One gate broadcast that meets every exception at once: a rank killed
//! under it, a rank whose node failed before it (its copy black-holed), a
//! rank whose listener declines (a deferred send waits behind the gate) and
//! a rank whose coordinator link is still busy with a message sent just
//! before. What the event loop did — its dispatch fingerprint, callbacks
//! and steps, and every `sched.call` / `net.deliver` instant of a `Full`
//! trace — is pinned to literals, the same whether the console sends copy
//! by copy or hands the fabric each stretch of live ranks as the
//! coordinator does (`Link::broadcast`: one batch post per stretch that
//! lands at one instant, the members a listener has a standing verdict for
//! answered from the dense listener table, the rest landed at their place).

use gbcr_blcr::{LocalCheckpointer, LocalCrConfig};
use gbcr_core::{proto, CkptClient, CkptMode, Controller, GroupPlan};
use gbcr_des::{time, Proc, ProcId, Sim, Time, TraceLevel};
use gbcr_mpi::{Mpi, MpiConfig, Msg, OobMsg, World, COORDINATOR_NODE};
use gbcr_net::{Endpoint, Link, NodeId};
use gbcr_storage::{CheckpointStore, Storage, StorageConfig};
use std::rc::Rc;

const N: u32 = 12;
/// Killed (process only) while `GROUP_START(1)` is on the wire.
const KILLED: u32 = 3;
/// Node failed before `GROUP_START(1)` leaves: the console skips it.
const FAILED: u32 = 5;
/// In group 1, holds a send deferred behind the closed gate toward group 0
/// until group 1 is done too.
const DEFERRING: u32 = 7;
/// Its coordinator link carries a `TRAFFIC_QUERY` sent just before.
const BUSY: u32 = 9;

/// A rank with nothing to do but take part: progress, park, until `end`.
fn serve_until(p: &Proc, mpi: &Mpi, end: Time) {
    p.handle().schedule_wake(end, p.id());
    while p.now() < end {
        mpi.progress(p);
        mpi.wait_event(p);
    }
}

/// The coordinator's fan-out, from a console: a failed rank's copy is
/// black-holed, every other goes out back to back — copy by copy, or with
/// `links`, each stretch of live ranks at once.
fn fan_out(ep: &Endpoint<OobMsg>, links: Option<&Rc<[Link<OobMsg>]>>, world: &World, msg: &OobMsg) {
    let size = msg.wire_size();
    let mut run = 0..0;
    for r in 0..N as usize {
        if world.is_failed(r as u32) {
            world.note_dropped_send();
            if let Some(links) = links {
                Link::broadcast(links, run.clone(), msg, size);
            }
            run = r + 1..r + 1;
        } else if links.is_some() {
            run.end = r + 1;
        } else {
            ep.send(NodeId(r as u32), msg.clone(), size);
        }
    }
    if let Some(links) = links {
        Link::broadcast(links, run, msg, size);
    }
}

/// What the run did: `(fingerprint, callbacks, events, instants, digest)`,
/// the last two over the `sched.call` and `net.deliver` instants, and the
/// gate broadcasts each rank's listener answered.
fn run(batched: bool) -> ((u64, u64, u64, usize, u64), Vec<u64>) {
    let mut sim = Sim::new(0);
    sim.handle().tracer().set_level(TraceLevel::Full);
    let world = World::new(sim.handle(), MpiConfig::new(N));
    let store: Rc<dyn CheckpointStore> =
        Rc::new(Storage::new(sim.handle(), StorageConfig::paper_testbed()));
    let (mut pids, mut mpis): (Vec<ProcId>, Vec<Mpi>) = (Vec::new(), Vec::new());
    for r in 0..N {
        let mpi = world.attach(r);
        mpis.push(mpi.clone());
        let blcr = LocalCheckpointer::with_store(store.clone(), LocalCrConfig::default());
        let ctl = Controller::new(
            r,
            "broadcast",
            CkptMode::Buffering,
            false,
            blcr,
            CkptClient::new(&mpi),
        );
        mpi.set_hook(ctl);
        pids.push(sim.spawn(format!("rank{r}"), move |p| {
            if r == DEFERRING {
                // Through EPOCH_BEGIN and GROUP_START(0), then into the
                // closed gate toward rank 0.
                mpi.compute(p, time::ms(8));
                mpi.send(p, 0, 7, Msg::u64(42));
                assert_eq!(mpi.stats().deferred_len, 1, "group 0 is checkpointing");
            }
            serve_until(p, &mpi, time::ms(60));
        }));
    }
    let (h, w) = (sim.handle(), world.clone());
    let killed = pids[KILLED as usize];
    let failed = pids[FAILED as usize];
    sim.spawn("console", move |p| {
        let ep = w.oob_endpoint(COORDINATOR_NODE);
        let links: Rc<[Link<OobMsg>]> = (0..N).map(|r| ep.link(NodeId(r))).collect();
        for link in links.iter() {
            link.connect(p);
        }
        let links = batched.then_some(&links);
        let fan_out = |msg: &OobMsg| fan_out(&ep, links, &w, msg);
        // Two groups: ranks 0-5 and 6-11.
        let plan = GroupPlan::by_size(N, N / 2);
        let (b, data) = (plan.group_count() as u64, plan.map().payload());
        fan_out(&OobMsg { kind: proto::EPOCH_BEGIN, a: 0, b, data });
        let collect = |p: &Proc, kind: u32, count: u32| {
            for _ in 0..count {
                ep.recv_match(p, None, |_, m| m.kind == kind).expect("no deadline");
            }
        };
        collect(p, proto::EPOCH_BEGIN_ACK, N);
        fan_out(&OobMsg::new(proto::GROUP_START, 0, 0));
        collect(p, proto::GROUP_START_ACK, N);
        p.sleep(time::ms(12) - p.now());
        fan_out(&OobMsg::new(proto::GROUP_DONE, 0, 0));
        // The node of FAILED dies between two broadcasts.
        h.kill(failed);
        w.mark_failed(FAILED);
        p.sleep(time::ms(1));
        // BUSY's link is still carrying this when the broadcast follows.
        ep.send(NodeId(BUSY), OobMsg::new(proto::TRAFFIC_QUERY, 0, 0), 64);
        fan_out(&OobMsg::new(proto::GROUP_START, 0, 1));
        // KILLED dies with the broadcast in the air.
        h.call_at(p.now() + time::us(1), move |h| h.kill(killed));
        // Everyone else ACKs; DEFERRING from its thread. And the reply.
        collect(p, proto::GROUP_START_ACK, N - 2);
        collect(p, proto::TRAFFIC_REPLY, 1);
        fan_out(&OobMsg::new(proto::GROUP_DONE, 0, 1));
        p.sleep(time::ms(1));
        fan_out(&OobMsg::new(proto::EPOCH_END, 0, 0));
    });
    sim.run().expect("the run completes");
    let trace = sim.handle().tracer().take();
    let watched = trace.instants.iter().filter(|i| matches!(i.name, "sched.call" | "net.deliver"));
    let (mut count, mut digest) = (0, 0u64);
    for i in watched {
        count += 1;
        let line = format!("{} {:?} {} {:?}", i.time, i.track, i.name, i.args);
        for b in line.bytes() {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    let d = sim.dispatch();
    let handled = mpis.iter().map(|m| m.stats().listener.oob).collect();
    ((d.fingerprint, d.callbacks, sim.events_processed(), count, digest), handled)
}

#[test]
fn a_broadcast_through_every_exception_dispatches_as_pinned() {
    let (dispatch, handled) = run(false);
    // Four gate broadcasts; the listener of FAILED answers the first (it
    // dies with the second in the air), of KILLED two, of DEFERRING the one
    // before its send was deferred, of BUSY all four.
    assert_eq!(handled, [4, 4, 4, 2, 4, 1, 4, 1, 4, 4, 4, 4]);
    assert_eq!(dispatch, (17520618191313130075, 117, 97, 233, 9727868130072889706));
}

#[test]
fn a_batched_broadcast_through_every_exception_dispatches_as_pinned() {
    let (dispatch, handled) = run(true);
    assert_eq!(handled, [4, 4, 4, 2, 4, 1, 4, 1, 4, 4, 4, 4]);
    assert_eq!(dispatch, (17520618191313130075, 117, 97, 233, 9727868130072889706));
}
