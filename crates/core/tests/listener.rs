//! The controller's listener (`Controller::on_oob_arrival`) against a
//! scripted coordinator: which gate broadcasts it answers for a parked
//! rank, which it must leave to the rank's own thread, and that a dead
//! rank answers nothing.

use gbcr_blcr::{LocalCheckpointer, LocalCrConfig};
use gbcr_core::{proto, CkptClient, CkptMode, Controller, GroupPlan};
use gbcr_des::{time, Proc, ProcId, Sim, Time};
use gbcr_faults::ProtocolPhase;
use gbcr_mpi::{CrHook, Mpi, MpiConfig, Msg, OobMsg, World, COORDINATOR_NODE};
use gbcr_net::{Endpoint, NodeId};
use gbcr_storage::{CheckpointStore, Storage, StorageConfig};
use parking_lot::Mutex;
use std::rc::Rc;
use std::sync::Arc;

/// `n` ranks, one singleton checkpoint group each, every rank under a real
/// [`Controller`]; the test plays the coordinator from a console process
/// and spawns the rank bodies it needs.
struct Rig {
    sim: Sim,
    world: World,
    mpis: Vec<Mpi>,
    ctls: Vec<Rc<Controller>>,
}

fn rig(n: u32) -> Rig {
    let sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(n));
    let store: Rc<dyn CheckpointStore> =
        Rc::new(Storage::new(sim.handle(), StorageConfig::paper_testbed()));
    let (mut mpis, mut ctls) = (Vec::new(), Vec::new());
    for r in 0..n {
        let mpi = world.attach(r);
        let client = CkptClient::new(&mpi);
        let blcr = LocalCheckpointer::with_store(store.clone(), LocalCrConfig::default());
        let ctl = Controller::new(r, "listener-test", CkptMode::Buffering, false, blcr, client);
        mpi.set_hook(ctl.clone());
        mpis.push(mpi);
        ctls.push(ctl);
    }
    Rig { sim, world, mpis, ctls }
}

impl Rig {
    fn rank(&mut self, r: usize, body: impl FnOnce(&Proc, &Mpi) + 'static) -> ProcId {
        let mpi = self.mpis[r].clone();
        self.sim.spawn(format!("rank{r}"), move |p| body(p, &mpi))
    }

    /// Spawn the console: connected to every rank, it opens epoch 0 under
    /// the singleton plan (every rank ACKs) and then runs `script`.
    fn console(&mut self, script: impl FnOnce(&Proc, &Console) + 'static) {
        let n = self.world.size();
        let c = Console { ep: self.world.oob_endpoint(COORDINATOR_NODE), n };
        self.sim.spawn("console", move |p| {
            for r in 0..n {
                c.ep.connect(p, NodeId(r));
            }
            let data = proto::encode_plan(GroupPlan::by_size(n, 1).group_map());
            let begin = OobMsg { kind: proto::EPOCH_BEGIN, a: 0, b: 0, data };
            for r in 0..n {
                c.ep.send(NodeId(r), begin.clone(), begin.wire_size());
            }
            c.collect(p, proto::EPOCH_BEGIN_ACK, n as usize);
            script(p, &c);
        });
    }
}

struct Console {
    ep: Endpoint<OobMsg>,
    n: u32,
}

impl Console {
    /// One fan-out of `kind(group)` to every rank, as the coordinator's.
    fn broadcast(&self, kind: u32, group: u64) {
        for r in 0..self.n {
            self.ep.send(NodeId(r), OobMsg::new(kind, 0, group), 64);
        }
    }

    /// Wait for `count` replies of `kind`: `(rank, group, arrival time)`.
    fn collect(&self, p: &Proc, kind: u32, count: usize) -> Vec<(u32, u64, Time)> {
        (0..count)
            .map(|_| {
                let (from, msg) = self.ep.recv_wait(p);
                assert_eq!(msg.kind, kind, "unexpected reply from {from}: {msg:?}");
                (from.0, msg.b, p.now())
            })
            .collect()
    }
}

/// A rank with nothing to do but take part: progress, park, until `end`.
fn serve_until(end: Time) -> impl FnOnce(&Proc, &Mpi) + 'static {
    move |p, mpi| {
        p.handle().schedule_wake(end, p.id());
        while p.now() < end {
            mpi.progress(p);
            mpi.wait_event(p);
        }
    }
}

fn handled(rig_mpis: &[Mpi]) -> Vec<u64> {
    rig_mpis.iter().map(|m| m.stats().listener.oob).collect()
}

/// The everyday case, and the two controller-side reasons to wake the
/// thread instead that need no special set-up: a message that is not a
/// gate broadcast, and a phase-fault hook (it may kill or stall the rank on
/// entry to the very phase the listener would skip past).
#[test]
fn gate_broadcasts_are_answered_for_parked_ranks_unless_a_phase_hook_is_armed() {
    let run = |armed: bool| {
        let mut rig = rig(2);
        if armed {
            // Armed for rank 0 entering GROUP_START of epoch 9, which never
            // runs: the hook is there, and fires for nobody.
            for (r, ctl) in rig.ctls.iter().enumerate() {
                ctl.set_phase_hook(Some(Rc::new(move |_: &Proc, epoch, phase| {
                    assert!((r, epoch, phase) != (0, 9, ProtocolPhase::GroupStart));
                })));
            }
        }
        for r in 0..2 {
            rig.rank(r, serve_until(time::ms(20)));
        }
        let acks = Arc::new(Mutex::new(Vec::new()));
        let seen = acks.clone();
        rig.console(move |p, c| {
            for g in 0..2 {
                c.broadcast(proto::GROUP_START, g);
                seen.lock().extend(c.collect(p, proto::GROUP_START_ACK, 2));
                c.broadcast(proto::GROUP_DONE, g);
            }
            c.broadcast(proto::EPOCH_END, 0);
            c.collect(p, proto::EPOCH_END_ACK, 2);
        });
        rig.sim.run().unwrap();
        let acks = acks.lock().clone();
        (acks, handled(&rig.mpis), rig.sim.events_processed())
    };
    let (acks, by_listener, events) = run(false);
    // Two ranks × two groups × (GROUP_START + GROUP_DONE); EPOCH_BEGIN and
    // EPOCH_END are the thread's.
    assert_eq!(by_listener, [4, 4]);
    let (acks_armed, by_listener_armed, events_armed) = run(true);
    assert_eq!(by_listener_armed, [0, 0]);
    assert_eq!(acks_armed, acks, "same ACKs, same order, same instants");
    assert_eq!(events_armed, events + 8, "one resume per message the listener did not take");
}

/// Killed — process dead, node marked failed — while the broadcast is on
/// the wire: the copy that lands at the dead rank flips nothing and is
/// never acknowledged. No reply from the grave.
#[test]
fn a_rank_that_died_under_a_broadcast_neither_flips_nor_acks() {
    let mut rig = rig(2);
    rig.rank(0, serve_until(time::ms(20)));
    let victim = rig.rank(1, serve_until(time::ms(20)));
    let (h, world) = (rig.sim.handle(), rig.world.clone());
    let acks = Arc::new(Mutex::new(Vec::new()));
    let seen = acks.clone();
    rig.console(move |p, c| {
        c.broadcast(proto::GROUP_START, 0);
        // In the air for ~50 µs; the node dies 1 µs in (what the fault
        // injector's node kill does, minus the job abort).
        h.call_at(p.now() + time::us(1), move |h| {
            h.kill(victim);
            world.mark_failed(1);
        });
        while let Some((from, msg)) = c.ep.recv_match(p, Some(time::ms(10)), |_, _| true) {
            seen.lock().push((from.0, msg.kind, msg.b));
        }
    });
    rig.sim.run().unwrap();
    assert_eq!(*acks.lock(), [(0, proto::GROUP_START_ACK, 0)]);
    assert_eq!(handled(&rig.mpis), [1, 0]);
    // Rank 0 closed its gate toward group 0 (its own: nothing may leave);
    // rank 1's books still read "no group has started".
    assert!(!rig.ctls[0].user_send_allowed(1));
    assert!(rig.ctls[1].user_send_allowed(0));
}

/// The coordinator's node is lost while its `GROUP_START` is on the wire:
/// the ACK cannot go out on the link as it stands, and reconnecting takes
/// a thread.
#[test]
fn a_down_coordinator_link_leaves_the_ack_to_the_thread() {
    let mut rig = rig(1);
    rig.rank(0, serve_until(time::ms(20)));
    let (h, world) = (rig.sim.handle(), rig.world.clone());
    let ack = Arc::new(Mutex::new(None));
    let seen = ack.clone();
    rig.console(move |p, c| {
        let sent = p.now();
        c.broadcast(proto::GROUP_START, 0);
        h.call_at(sent + time::us(1), move |_| world.mark_coordinator_failed());
        let (from, msg) = c.ep.recv_wait(p);
        *seen.lock() = Some((from.0, msg.kind, p.now() - sent));
    });
    rig.sim.run().unwrap();
    let (from, kind, after) = ack.lock().expect("an ACK");
    assert_eq!((from, kind), (0, proto::GROUP_START_ACK));
    assert!(after > gbcr_mpi::OOB_NET.conn_setup_time, "reconnected first: {after}");
    assert_eq!(handled(&rig.mpis), [0]);
}

/// `GROUP_DONE(1)` reopens rank 1's gate toward rank 0 with a send
/// deferred behind it, on a connection that does not exist yet: releasing
/// it reconnects, which only the thread can do — and while it does,
/// `GROUP_START(2)`, which left the coordinator right behind
/// `GROUP_DONE(1)`, waits its turn. Ranks 0 and 2 have nothing deferred and
/// answer at once.
#[test]
fn a_gate_that_releases_deferred_sends_is_the_threads_and_what_follows_queues_behind_it() {
    let mut rig = rig(3);
    let got = Arc::new(Mutex::new(0));
    let got_at = got.clone();
    rig.rank(0, move |p, mpi| {
        assert_eq!(mpi.recv(p, Some(1), 7).as_u64(), 42);
        *got_at.lock() = p.now();
        serve_until(time::ms(30))(p, mpi);
    });
    rig.rank(1, |p, mpi| {
        // Through EPOCH_BEGIN and GROUP_START(0), then into the closed gate.
        mpi.compute(p, time::ms(3));
        mpi.send(p, 0, 7, Msg::u64(42));
        assert_eq!(mpi.stats().deferred_len, 1, "group 0 is checkpointing");
        serve_until(time::ms(30))(p, mpi);
    });
    rig.rank(2, serve_until(time::ms(30)));
    let acks = Arc::new(Mutex::new(Vec::new()));
    let seen = acks.clone();
    rig.console(move |p, c| {
        c.broadcast(proto::GROUP_START, 0);
        c.collect(p, proto::GROUP_START_ACK, 3);
        p.sleep(time::ms(5) - p.now());
        c.broadcast(proto::GROUP_DONE, 0); // 0 done, 1 not: the gate stays shut
        c.broadcast(proto::GROUP_START, 1);
        c.collect(p, proto::GROUP_START_ACK, 3);
        let t = p.now();
        c.broadcast(proto::GROUP_DONE, 1); // 0 and 1 both done: it opens
        c.broadcast(proto::GROUP_START, 2);
        let acks = c.collect(p, proto::GROUP_START_ACK, 3);
        seen.lock().extend(acks.into_iter().map(|(r, g, at)| (r, g, at - t)));
        c.broadcast(proto::GROUP_DONE, 2);
        c.broadcast(proto::EPOCH_END, 0);
        c.collect(p, proto::EPOCH_END_ACK, 3);
    });
    rig.sim.run().unwrap();
    let acks = acks.lock().clone();
    let cfg = MpiConfig::new(3);
    let prompt = time::us(200);
    assert_eq!(acks.iter().map(|a| (a.0, a.1)).collect::<Vec<_>>(), [(0, 2), (2, 2), (1, 2)]);
    assert!(acks[0].2 < prompt && acks[1].2 < prompt, "{acks:?}");
    assert!(acks[2].2 > cfg.net.conn_setup_time, "after the reconnect: {acks:?}");
    // ... and after the released message itself went out.
    let t_done = time::ms(5) + acks[2].2; // a lower bound on "when", good enough for order
    assert!(*got.lock() > 0 && *got.lock() < t_done + time::ms(1));
    assert_eq!(rig.mpis[1].stats().defer.released, 1);
    // Rank 1's listener took GROUP_START(0) and, with the send deferred
    // from 3 ms until the release, nothing else but GROUP_DONE(2); ranks 0
    // and 2 hear three groups start and finish.
    assert_eq!(handled(&rig.mpis), [6, 2, 6]);
}
