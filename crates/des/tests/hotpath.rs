//! Tests for the scheduler hot path: slab-backed timers with
//! generation-checked cancellation, same-timestamp batch dispatch, the
//! gate cache under mid-run spawns, and the event counters.

use gbcr_des::{time, total_events_processed, Sim};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::rc::Rc;
use std::sync::Arc;
use support::Posts;

mod support;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exactly the non-cancelled timers fire, each exactly once, regardless
    /// of how arms and cancels interleave. Cancelled slots are recycled for
    /// later arms, so this also exercises slot reuse under the generation
    /// check: a stale queued event must never fire a newer timer that
    /// happens to occupy the same slot.
    #[test]
    fn slab_timers_fire_exactly_the_uncancelled_set(
        plan in prop::collection::vec((1u64..100, any::<bool>()), 1..40),
    ) {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let fired: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for (i, (delay_us, _)) in plan.iter().enumerate() {
            let fired = fired.clone();
            handles.push(h.call_at(time::us(*delay_us), move |_| {
                fired.lock().push(i);
            }));
        }
        // Cancel the chosen subset *before* running; their queued events
        // are still in the heap and must be skipped.
        for (handle, (_, cancel)) in handles.iter().zip(&plan) {
            if *cancel {
                handle.cancel();
                prop_assert!(handle.is_cancelled());
            }
        }
        // Arm one replacement timer per cancelled slot: these reuse freed
        // slots while stale events for the same slots are queued.
        let reused: Arc<Mutex<usize>> = Arc::new(Mutex::new(0));
        let n_cancelled = plan.iter().filter(|(_, c)| *c).count();
        for _ in 0..n_cancelled {
            let reused = reused.clone();
            h.call_at(time::us(200), move |_| {
                *reused.lock() += 1;
            });
        }
        sim.run().unwrap();
        let mut got = fired.lock().clone();
        got.sort_unstable();
        let want: Vec<usize> = plan
            .iter()
            .enumerate()
            .filter(|(_, (_, cancel))| !cancel)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, want, "wrong set of timers fired");
        prop_assert_eq!(*reused.lock(), n_cancelled, "a reused slot misfired");
        // After the run every surviving handle has fired, so all of them —
        // cancelled or fired — report "can no longer fire".
        for handle in &handles {
            prop_assert!(handle.is_cancelled());
        }
    }
}

/// A callback that cancels a later timer wins: the later timer never
/// fires, and a fresh timer armed from inside the callback (reusing the
/// just-freed slot) does.
#[test]
fn cancel_from_inside_a_callback_suppresses_and_slot_is_reusable() {
    let mut sim = Sim::new(0);
    let h = sim.handle();
    let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));

    let victim = {
        let log = log.clone();
        h.call_at(time::ms(20), move |_| log.lock().push("victim"))
    };
    {
        let log = log.clone();
        h.call_at(time::ms(10), move |h| {
            log.lock().push("killer");
            victim.cancel();
            let log = log.clone();
            // Reuses the slot just freed by the cancel; the victim's stale
            // event (still queued for t=20ms) must not fire this.
            h.call_at(time::ms(30), move |_| log.lock().push("replacement"));
        });
    }
    sim.run().unwrap();
    assert_eq!(*log.lock(), vec!["killer", "replacement"]);
}

/// Cancelling an already-fired timer is a no-op, and double-cancel is
/// idempotent even with a new tenant in the slot.
#[test]
fn cancel_is_idempotent_and_safe_after_fire() {
    let mut sim = Sim::new(0);
    let h = sim.handle();
    let count = Arc::new(Mutex::new(0u32));
    let c = count.clone();
    let t1 = h.call_at(time::ms(1), move |_| *c.lock() += 1);
    sim.run().unwrap();
    assert_eq!(*count.lock(), 1);
    assert!(t1.is_cancelled(), "fired timer reports it can no longer fire");
    // t1's slot is free now; a new timer may take it.
    let c = count.clone();
    let t2 = h.call_at(time::ms(2), move |_| *c.lock() += 10);
    t1.cancel();
    t1.cancel();
    sim.run().unwrap();
    assert_eq!(*count.lock(), 11, "stale cancel must not suppress the new tenant");
    assert!(t2.is_cancelled());
}

/// Same-timestamp events dispatch in push order (sequence order), whether
/// they were pushed before the run or from inside a same-time callback.
#[test]
fn same_timestamp_batch_preserves_push_order() {
    let mut sim = Sim::new(0);
    let h = sim.handle();
    let log: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    for i in 0..5u32 {
        let log = log.clone();
        h.call_at(time::ms(5), move |_| log.lock().push(i));
    }
    {
        let log = log.clone();
        h.call_at(time::ms(5), move |h| {
            log.lock().push(5);
            // Pushed mid-batch at the same timestamp: must run after every
            // event already queued for t=5ms, in push order.
            for i in 6..9u32 {
                let log = log.clone();
                h.call_at(time::ms(5), move |_| log.lock().push(i));
            }
        });
    }
    sim.run().unwrap();
    assert_eq!(*log.lock(), (0..9).collect::<Vec<u32>>());
}

/// A push at the current time while a run drains does not join that run:
/// an older run with the same timestamp is still waiting behind a
/// later-time one, holds smaller `seq`s, and goes first.
#[test]
fn push_at_now_fires_after_an_older_same_time_run() {
    let mut sim = Sim::new(0);
    let h = sim.handle();
    let log: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let note = |i: u32| {
        let log = log.clone();
        move |_: &gbcr_des::SimHandle| log.lock().push(i)
    };
    let posts = Rc::<Posts>::default();
    // First run at 5 ms: its head pushes at "now" while the run drains.
    {
        let (log, late, again) = (log.clone(), note(4), posts.clone());
        posts.at(&h, time::ms(5), 0, move |h| {
            log.lock().push(0);
            again.at(h, time::ms(5), 0, late);
        });
    }
    posts.at(&h, time::ms(5), 0, note(1));
    posts.at(&h, time::ms(7), 0, note(3)); // closes the first run
    posts.at(&h, time::ms(5), 0, note(2)); // a second run at 5 ms ...
    posts.at(&h, time::ms(9), 0, note(5)); // ... closed in turn
    sim.run().unwrap();
    assert_eq!(*log.lock(), vec![0, 1, 2, 4, 3, 5]);
}

/// The run still being built counts as pending: a horizon short of it
/// stops the loop with the event queued, and a later `run` fires it.
#[test]
fn horizon_sees_the_run_still_being_built() {
    let mut sim = Sim::new(0);
    let fired = Arc::new(Mutex::new(None));
    let f = fired.clone();
    Rc::<Posts>::default().at(&sim.handle(), time::ms(10), 0, move |h| *f.lock() = Some(h.now()));
    assert!(matches!(
        sim.run_until(time::ms(5)),
        Err(gbcr_des::SimError::HorizonReached { at }) if at == time::ms(5)
    ));
    assert_eq!((*fired.lock(), sim.events_processed()), (None, 0));
    assert_eq!(sim.run().unwrap(), time::ms(10));
    assert_eq!(*fired.lock(), Some(time::ms(10)));
}

/// A long same-time run does not shadow an earlier-time event pushed
/// after it: 10 000 wakes at 10 ms, then one callback at 5 ms.
#[test]
fn long_run_then_one_earlier_event_dispatch_in_time_order() {
    const WAKES: u32 = 10_000;
    let mut sim = Sim::new(0);
    let resumes = Arc::new(Mutex::new(0u32));
    let r = resumes.clone();
    let pid = sim.spawn("woken", move |p| {
        while *r.lock() < WAKES {
            p.park();
            assert_eq!(p.now(), time::ms(10));
            *r.lock() += 1;
        }
    });
    let h = sim.handle();
    for _ in 0..WAKES {
        h.schedule_wake(time::ms(10), pid);
    }
    let r = resumes.clone();
    Rc::<Posts>::default().at(&h, time::ms(5), 0, move |h| {
        assert_eq!((h.now(), *r.lock()), (time::ms(5), 0), "fired behind the run pushed before it");
    });
    assert_eq!(sim.run().unwrap(), time::ms(10));
    assert_eq!(*resumes.lock(), WAKES);
    // The spawn wake, the callback, the run.
    assert_eq!(sim.events_processed(), u64::from(WAKES) + 2);
}

/// Processes spawned mid-run (by other processes and by callbacks) are
/// woken through the gate cache's refresh path and all complete.
#[test]
fn mid_run_spawns_extend_the_gate_cache() {
    let mut sim = Sim::new(0);
    let done: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let d = done.clone();
    sim.spawn("root", move |p| {
        p.sleep(time::ms(1));
        for i in 0..8u64 {
            let d = d.clone();
            p.handle().spawn(format!("child{i}"), move |p| {
                p.sleep(time::us(100 * (i + 1)));
                let d2 = d.clone();
                p.handle().spawn(format!("grandchild{i}"), move |p| {
                    p.sleep(time::us(10));
                    d2.lock().push(p.name().to_owned());
                });
                d.lock().push(p.name().to_owned());
            });
        }
        d.lock().push("root".to_owned());
    });
    sim.run().unwrap();
    let mut got = done.lock().clone();
    got.sort();
    assert_eq!(got.len(), 17);
    assert!(got.contains(&"grandchild7".to_owned()));
}

/// The per-sim and global event counters advance together and the wake
/// fast path counts its events.
#[test]
fn event_counters_advance() {
    let before_global = total_events_processed();
    let mut sim = Sim::new(0);
    sim.spawn("sleeper", |p| {
        for _ in 0..100 {
            p.sleep(time::us(10));
        }
    });
    assert_eq!(sim.events_processed(), 0);
    sim.run().unwrap();
    let per_sim = sim.events_processed();
    // 1 initial wake + 100 sleep wakes.
    assert!(per_sim >= 101, "expected at least 101 events, got {per_sim}");
    assert!(
        total_events_processed() - before_global >= per_sim,
        "global counter must include this sim's events"
    );
}

/// The park/resume handoff stays correct under a long strict
/// alternation: two processes interleave thousands of park/resume cycles
/// with no lost or misordered handoffs.
#[test]
fn handoff_survives_long_ping_pong() {
    let mut sim = Sim::new(1);
    let log: Arc<Mutex<Vec<(char, u32)>>> = Arc::new(Mutex::new(Vec::new()));
    const ROUNDS: u32 = 5_000;
    {
        let log = log.clone();
        sim.spawn("a", move |p| {
            // Logs at t = 0, 2, 4, ... — every iteration is a full
            // park/resume handoff through the scheduler.
            for i in 0..ROUNDS {
                log.lock().push(('a', i));
                p.sleep(time::us(2));
            }
        });
    }
    {
        let log = log.clone();
        sim.spawn("b", move |p| {
            // Offset by 1 µs: logs at t = 1, 3, 5, ...
            p.sleep(time::us(1));
            for i in 0..ROUNDS {
                log.lock().push(('b', i));
                p.sleep(time::us(2));
            }
        });
    }
    sim.run().unwrap();
    let log = log.lock();
    assert_eq!(log.len(), 2 * ROUNDS as usize);
    for (i, pair) in log.chunks(2).enumerate() {
        assert_eq!(pair, [('a', i as u32), ('b', i as u32)], "round {i} out of order");
    }
}

// ---------------------------------------------------------------------
// Cancellable wakes
// ---------------------------------------------------------------------

/// A cancelled `schedule_wake_cancellable` never resumes its process; an
/// uncancelled one does, and cancelling after the fire is a no-op.
#[test]
fn cancellable_wake_cancel_suppresses_resume() {
    let mut sim = Sim::new(0);
    sim.spawn("sleeper", |p| {
        let early = p.handle().schedule_wake_cancellable(time::ms(10), p.id());
        let late = p.handle().schedule_wake_cancellable(time::ms(20), p.id());
        early.cancel();
        p.park();
        assert_eq!(p.now(), time::ms(20), "the cancelled 10ms wake must not resume");
        late.cancel(); // already fired: no-op
    });
    sim.run().unwrap();
}
