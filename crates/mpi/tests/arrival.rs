//! The out-of-band listener (`CrHook::on_oob_arrival`): a message is
//! offered to it only when the rank's own thread, woken for it, would do
//! nothing but dispatch that message — each condition that says otherwise
//! sends the message down the thread path — and what it answers leaves
//! the rank exactly where the thread would have.

use gbcr_des::{time, Proc, ProcId, Sim, SimHandle, Time};
use gbcr_mpi::{CrHook, CtrlWire, Mpi, MpiConfig, Msg, OobMsg, Rank, World, COORDINATOR_NODE};
use gbcr_net::{Endpoint, NodeId};
use parking_lot::Mutex;
use std::rc::Rc;
use std::sync::Arc;

/// Answered by the listener, when it listens at all.
const NOTE: u32 = 1;
/// Always left to the thread.
const TASK: u32 = 2;
/// Left to the thread, which then blocks until `UNBLOCK` arrives.
const BLOCK: u32 = 3;
const UNBLOCK: u32 = 4;

type Log = Vec<(Time, &'static str, u32)>;

/// Records who handled which message kind when.
struct Listener {
    h: SimHandle,
    /// Rank 0's out-of-band endpoint, where `BLOCK`'s handler waits.
    oob: Endpoint<OobMsg>,
    log: Arc<Mutex<Log>>,
    listening: bool,
}

impl CrHook for Listener {
    fn on_oob_arrival(&self, _mpi: &Mpi, _from: NodeId, msg: OobMsg) -> Option<OobMsg> {
        if !self.listening || msg.kind != NOTE {
            return Some(msg);
        }
        self.log.lock().push((self.h.now(), "listener", msg.kind));
        None
    }

    fn on_oob(&self, p: &Proc, _mpi: &Mpi, _from: NodeId, msg: OobMsg) {
        self.log.lock().push((p.now(), "thread", msg.kind));
        if msg.kind == BLOCK {
            self.oob.recv_match(p, None, |_, m| m.kind == UNBLOCK);
        }
    }

    fn on_ctrl(&self, p: &Proc, _mpi: &Mpi, _from: Rank, msg: CtrlWire) {
        self.log.lock().push((p.now(), "thread, in-band", msg.kind));
    }
}

/// A two-rank world whose rank 0 carries a [`Listener`] (from the start,
/// unless made `without_hook`), and a console at the coordinator's address that
/// sends rank 0 one message of `kind` at each `(at, kind)` of the script.
/// The test spawns the ranks' bodies.
struct Scene {
    sim: Sim,
    world: World,
    ranks: [Mpi; 2],
    hook: Rc<Listener>,
    log: Arc<Mutex<Log>>,
}

fn scene(cfg: MpiConfig, listening: bool, script: &[(Time, u32)]) -> Scene {
    let s = scene_without_hook(cfg, listening, script);
    s.ranks[0].set_hook(s.hook.clone());
    s
}

fn scene_without_hook(cfg: MpiConfig, listening: bool, script: &[(Time, u32)]) -> Scene {
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), cfg);
    let ranks = [world.attach(0), world.attach(1)];
    let log = Arc::new(Mutex::new(Vec::new()));
    let oob = world.oob_endpoint(NodeId(0));
    let hook = Rc::new(Listener { h: sim.handle(), oob, log: log.clone(), listening });
    let console = world.oob_endpoint(COORDINATOR_NODE);
    let script = script.to_vec();
    sim.spawn("console", move |p| {
        console.connect(p, NodeId(0));
        for (at, kind) in script {
            p.sleep(at - p.now());
            console.send(NodeId(0), OobMsg::new(kind, 0, 0), 64);
        }
    });
    Scene { sim, world, ranks, hook, log }
}

impl Scene {
    /// Spawn `body` as rank `r`'s process.
    fn rank(&mut self, r: usize, body: impl FnOnce(&Proc, &Mpi) + 'static) -> ProcId {
        let mpi = self.ranks[r].clone();
        self.sim.spawn(format!("rank{r}"), move |p| body(p, &mpi))
    }

    /// Run to the end: `(who handled what when, rank 0's arrival_handled,
    /// events dispatched, wakes elided)`.
    fn finish(mut self) -> (Log, u64, u64, u64) {
        self.sim.run().unwrap();
        let log = self.log.lock().clone();
        let handled = self.ranks[0].stats().arrival_handled;
        (log, handled, self.sim.events_processed(), self.sim.wakes_elided())
    }
}

/// The service loop of a rank with nothing to do: progress, then park on
/// both planes, until `end`.
fn serve_until(end: Time) -> impl FnOnce(&Proc, &Mpi) + 'static {
    move |p, mpi| {
        p.handle().schedule_wake(end, p.id());
        while p.now() < end {
            mpi.progress(p);
            mpi.wait_event(p);
        }
    }
}

fn who(log: &Log) -> Vec<(&'static str, u32)> {
    log.iter().map(|&(_, who, kind)| (who, kind)).collect()
}

#[test]
fn a_parked_rank_is_answered_on_arrival_and_not_resumed() {
    const SCRIPT: &[(Time, u32)] = &[(time::ms(1), NOTE), (time::ms(2), TASK), (time::ms(3), NOTE)];
    let run = |listening| {
        let mut s = scene(MpiConfig::new(2), listening, SCRIPT);
        s.rank(0, serve_until(time::ms(5)));
        s.finish()
    };
    let (log, handled, events, _) = run(true);
    assert_eq!(who(&log), [("listener", NOTE), ("thread", TASK), ("listener", NOTE)]);
    assert_eq!(handled, 2);
    // Deaf, the same hook has the thread take all three — at the same
    // instants, for one resume more per message.
    let (deaf_log, deaf_handled, deaf_events, _) = run(false);
    assert_eq!(who(&deaf_log), [("thread", NOTE), ("thread", TASK), ("thread", NOTE)]);
    let when = |l: &Log| l.iter().map(|e| e.0).collect::<Vec<_>>();
    assert_eq!(when(&log), when(&deaf_log));
    assert_eq!((deaf_handled, deaf_events), (0, events + 2));
}

/// Marked failed while the message is on the wire. (Nothing kills the
/// process in this test, so its thread still takes the message: the point
/// is who was *not* asked.)
#[test]
fn a_failed_rank_has_no_listener() {
    let mut s = scene(MpiConfig::new(2), true, &[(time::ms(1), NOTE)]);
    s.rank(0, serve_until(time::ms(5)));
    let world = s.world.clone();
    s.sim.handle().call_at(time::ms(1) + time::us(1), move |_| world.mark_failed(0));
    let (log, handled, ..) = s.finish();
    assert_eq!((who(&log), handled), (vec![("thread", NOTE)], 0));
}

/// While a hook dispatch is in flight the park is that hook's own receive:
/// a message arriving then is queued behind it and dispatched when it
/// returns, as ever — never answered underneath it.
#[test]
fn nothing_is_answered_underneath_a_dispatch_in_flight() {
    const SCRIPT: &[(Time, u32)] =
        &[(time::ms(1), BLOCK), (time::ms(2), NOTE), (time::ms(3), UNBLOCK)];
    let mut s = scene(MpiConfig::new(2), true, SCRIPT);
    s.rank(0, serve_until(time::ms(5)));
    let (log, handled, ..) = s.finish();
    assert_eq!((who(&log), handled), (vec![("thread", BLOCK), ("thread", NOTE)], 0));
    assert!(log[1].0 > time::ms(3), "dispatched once BLOCK's handler returned: {log:?}");
}

/// Whatever already waits in the runtime's own queues is older than the
/// arrival and must be dispatched before it. With a hook installed the
/// progress engine never parks on such a backlog, so the test builds one
/// the only way there is: messages taken in while no hook existed.
#[test]
fn a_backlog_in_the_runtime_goes_first() {
    for in_band in [false, true] {
        let script: &[(Time, u32)] =
            if in_band { &[(time::ms(5), NOTE)] } else { &[(time::ms(1), TASK), (time::ms(5), NOTE)] };
        let mut s = scene_without_hook(MpiConfig::new(2), true, script);
        let hook = s.hook.clone();
        s.rank(0, move |p, mpi| {
            p.sleep(time::ms(4));
            mpi.progress(p); // taken off the wire, dispatched to nobody
            mpi.set_hook(hook);
            p.handle().schedule_wake(time::ms(8), p.id());
            mpi.wait_event(p); // parked on the backlog
            serve_until(time::ms(8))(p, mpi);
        });
        if in_band {
            s.rank(1, |p, mpi| mpi.ctrl_send(p, 0, CtrlWire { kind: TASK, a: 0, b: 0 }));
        }
        let (log, handled, ..) = s.finish();
        let first = if in_band { "thread, in-band" } else { "thread" };
        assert_eq!((who(&log), handled), (vec![(first, TASK), ("thread", NOTE)], 0));
    }
}

/// A computing rank does not notice data-plane arrivals, but its thread,
/// woken by an out-of-band one, drains them first — so with anything
/// waiting on the data plane the thread must be woken.
#[test]
fn a_data_plane_backlog_goes_to_the_thread_first() {
    let mut s = scene(MpiConfig::new(2), true, &[(time::ms(4), NOTE)]);
    s.rank(0, |p, mpi| {
        mpi.compute(p, time::ms(5));
        assert_eq!(mpi.recv(p, Some(1), 7).as_u64(), 42);
    });
    // Connected at 2 ms; the message lands right after and sits there.
    s.rank(1, |p, mpi| mpi.send(p, 0, 7, Msg::u64(42)));
    let (log, handled, ..) = s.finish();
    assert_eq!((who(&log), handled), (vec![("thread", NOTE)], 0));
}

/// Sliced compute re-anchors its lattice wherever progress did work. A
/// message answered by the listener at ~2.5 ms is such work: the
/// rendezvous request landing at ~4 ms must be served at the boundary
/// ~4.5 ms of the moved lattice — where the thread, had it been woken for
/// the message, would serve it — not at 5 ms of the old one, and the
/// elided-wake books must agree to the unit. A stray wake at 3 ms has the
/// rank re-arm in between: it must re-arm on the moved lattice.
#[test]
fn an_answer_moves_the_slice_lattice_as_the_thread_would() {
    let run = |listening| {
        let cfg = MpiConfig { progress_interval: time::ms(1), ..MpiConfig::new(2) };
        let mut s = scene(cfg, listening, &[(time::us(2500), NOTE)]);
        let rank0 = s.rank(0, |p, mpi| {
            mpi.set_passive(true);
            let req = mpi.irecv(p, Some(1), 7);
            mpi.compute(p, time::ms(8));
            assert_eq!(mpi.wait(p, req).expect("a receive").size, 1 << 20);
        });
        s.sim.handle().call_at(time::ms(3), move |h| h.wake(rank0));
        let sent = Arc::new(Mutex::new(0));
        let sent_at = sent.clone();
        s.rank(1, move |p, mpi| {
            mpi.conn_connect(p, 0);
            p.sleep(time::ms(4) - p.now());
            mpi.send(p, 0, 7, Msg::bulk(1 << 20)); // rendezvous: needs rank 0's CTS
            *sent_at.lock() = p.now();
        });
        let (log, handled, events, elided) = s.finish();
        let sent = *sent.lock();
        (log, handled, events, elided, sent)
    };
    let (log, handled, events, elided, sent) = run(true);
    let (deaf_log, deaf_handled, deaf_events, deaf_elided, deaf_sent) = run(false);
    assert_eq!((who(&log), handled), (vec![("listener", NOTE)], 1));
    assert_eq!((who(&deaf_log), deaf_handled), (vec![("thread", NOTE)], 0));
    assert_eq!(log[0].0, deaf_log[0].0);
    assert_eq!((sent, elided), (deaf_sent, deaf_elided));
    assert!(sent > time::us(4500) && sent < time::ms(5), "CTS at the moved boundary: {sent}");
    assert_eq!(deaf_events, events + 1);
}

/// The listener closure the hook installs holds its runtime weakly: a rank
/// with a hook is freed with its last handle while the world — whose
/// fabric keeps the closure — lives on.
#[test]
fn a_hooked_runtime_is_freed_with_its_last_handle() {
    let sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(2));
    let mpi = world.attach(0);
    let log = Arc::default();
    let oob = world.oob_endpoint(NodeId(0));
    mpi.set_hook(Rc::new(Listener { h: sim.handle(), oob, log, listening: true }));
    let weak = mpi.downgrade();
    assert!(weak.upgrade().is_some());
    drop(mpi);
    assert!(weak.upgrade().is_none(), "something still owns the runtime");
    drop(world);
}
