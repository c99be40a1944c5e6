//! Integration tests for the discrete-event engine: ordering, determinism,
//! blocking primitives, timers, kill/failure injection, error reporting.

use gbcr_des::{time, Sim, SimError};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn empty_sim_finishes_at_time_zero() {
    let mut sim = Sim::new(0);
    assert_eq!(sim.run().unwrap(), 0);
}

#[test]
fn single_process_advances_clock() {
    let mut sim = Sim::new(0);
    sim.spawn("p", |p| {
        assert_eq!(p.now(), 0);
        p.sleep(time::ms(5));
        assert_eq!(p.now(), time::ms(5));
        p.sleep(time::us(1));
        assert_eq!(p.now(), time::ms(5) + time::us(1));
    });
    assert_eq!(sim.run().unwrap(), time::ms(5) + time::us(1));
}

#[test]
fn events_fire_in_time_order_with_fifo_ties() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Sim::new(0);
    for i in 0..4 {
        let log = log.clone();
        // All four sleep to the same instant; ties must resolve in spawn
        // (sequence) order.
        sim.spawn(format!("p{i}"), move |p| {
            p.sleep(time::ms(10));
            log.lock().push(i);
        });
    }
    sim.run().unwrap();
    assert_eq!(*log.lock(), vec![0, 1, 2, 3]);
}

#[test]
fn interleaving_is_deterministic_across_runs() {
    fn run_once(seed: u64) -> Vec<(u64, usize)> {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(seed);
        for i in 0..8 {
            let log = log.clone();
            sim.spawn(format!("p{i}"), move |p| {
                for step in 0..20 {
                    let dt = p.handle().with_rng(|r| {
                        use rand::Rng;
                        r.gen_range(1..1000u64)
                    });
                    p.sleep(time::us(dt));
                    log.lock().push((p.now(), i * 100 + step));
                }
            });
        }
        sim.run().unwrap();
        let v = log.lock().clone();
        v
    }
    assert_eq!(run_once(7), run_once(7));
    assert_ne!(run_once(7), run_once(8), "different seeds should differ");
}

#[test]
fn deadlock_is_reported_with_names() {
    let mut sim = Sim::new(0);
    sim.spawn("stuck-one", |p| loop {
        p.park();
    });
    match sim.run() {
        Err(SimError::Deadlock { at, blocked }) => {
            assert_eq!(at, 0);
            assert_eq!(blocked, vec!["stuck-one".to_string()]);
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn process_panic_is_propagated() {
    let mut sim = Sim::new(0);
    sim.spawn("bad", |p| {
        p.sleep(time::ms(1));
        panic!("boom at {}", p.now());
    });
    match sim.run() {
        Err(SimError::ProcessPanicked { name, message }) => {
            assert_eq!(name, "bad");
            assert!(message.contains("boom"), "got: {message}");
        }
        other => panic!("expected panic error, got {other:?}"),
    }
}

#[test]
fn timers_fire_and_cancel() {
    let mut sim = Sim::new(0);
    let fired = Arc::new(AtomicU64::new(0));
    let h = sim.handle();
    let f1 = fired.clone();
    h.call_at(time::ms(3), move |hh| {
        assert_eq!(hh.now(), time::ms(3));
        f1.fetch_add(1, Ordering::Relaxed);
    });
    let f2 = fired.clone();
    let cancelable = h.call_at(time::ms(5), move |_| {
        f2.fetch_add(100, Ordering::Relaxed);
    });
    cancelable.cancel();
    assert!(cancelable.is_cancelled());
    sim.run().unwrap();
    assert_eq!(fired.load(Ordering::Relaxed), 1);
}

#[test]
fn nested_spawn_and_timer_chains() {
    let mut sim = Sim::new(0);
    let total = Arc::new(AtomicU64::new(0));
    let t = total.clone();
    sim.spawn("parent", move |p| {
        p.sleep(time::ms(1));
        let t2 = t.clone();
        p.handle().spawn("child", move |c| {
            c.sleep(time::ms(2));
            t2.fetch_add(c.now(), Ordering::Relaxed);
        });
        p.sleep(time::ms(10));
        t.fetch_add(p.now(), Ordering::Relaxed);
    });
    sim.run().unwrap();
    // child finishes at 3ms, parent at 11ms
    assert_eq!(total.load(Ordering::Relaxed), time::ms(3) + time::ms(11));
}

#[test]
fn kill_unwinds_at_next_yield() {
    let mut sim = Sim::new(0);
    let progressed = Arc::new(AtomicU64::new(0));
    let pr = progressed.clone();
    let victim = sim.spawn("victim", move |p| {
        for _ in 0..100 {
            p.sleep(time::ms(10));
            pr.fetch_add(1, Ordering::Relaxed);
        }
    });
    let h = sim.handle();
    sim.spawn("killer", move |p| {
        p.sleep(time::ms(35));
        assert!(!h.is_killed(victim));
        h.kill(victim);
        // Dead from this instant, before the wake that unwinds it runs.
        assert!(h.is_killed(victim) && !h.is_done(victim));
    });
    let end = sim.run().unwrap();
    // victim completed sleeps at 10,20,30 then died at its 40ms wake (or at
    // the kill wake at 35ms).
    assert_eq!(progressed.load(Ordering::Relaxed), 3);
    assert!(end <= time::ms(40));
    assert!(sim.handle().is_done(victim));
}

#[test]
fn kill_before_first_run_never_executes_body() {
    let mut sim = Sim::new(0);
    let ran = Arc::new(AtomicU64::new(0));
    let r = ran.clone();
    let h = sim.handle();
    // Spawn a process and kill it before the scheduler ever runs it: the
    // kill event precedes... actually the wake is queued first, so kill it
    // from another process scheduled earlier.
    let target = sim.spawn("target", move |_p| {
        r.fetch_add(1, Ordering::Relaxed);
    });
    h.kill(target);
    // The initial wake is already queued before the kill, so the body would
    // run unless the spawn wrapper checks the kill flag first.
    sim.run().unwrap();
    assert_eq!(ran.load(Ordering::Relaxed), 0);
}

#[test]
fn run_until_stops_at_horizon() {
    let mut sim = Sim::new(0);
    sim.spawn("long", |p| p.sleep(time::secs(100)));
    match sim.run_until(time::secs(1)) {
        Err(SimError::HorizonReached { at }) => assert_eq!(at, time::secs(1)),
        other => panic!("expected horizon, got {other:?}"),
    }
    // Dropping the sim must cleanly unwind the still-parked process.
}

#[test]
fn tracer_records_when_enabled() {
    use gbcr_des::{trace::arg, ArgValue, TraceLevel, Track};
    let mut sim = Sim::new(0);
    let h = sim.handle();
    sim.spawn("p", move |p| {
        let h = p.handle();
        let note = |s: &str| vec![("note", ArgValue::Str(s.into()))];
        h.trace_instant(Track::Sim, "test", || note("before enable"));
        let t0 = p.now();
        p.sleep(time::ms(1));
        h.tracer().set_level(TraceLevel::Phases);
        h.trace_instant(Track::Sim, "test", || note("after enable"));
        h.trace_span(Track::Rank(0), "work", t0, Vec::new);
    });
    sim.run().unwrap();
    let data = h.tracer().take();
    assert_eq!(data.instants.len(), 1, "nothing recorded before enabling");
    let mark = &data.instants[0];
    assert_eq!(arg(&mark.args, "note").and_then(ArgValue::as_str), Some("after enable"));
    assert_eq!((mark.time, mark.track), (time::ms(1), Track::Sim));
    assert_eq!(data.instants_named("test").len(), 1);
    assert_eq!(data.instants_named("other").len(), 0);
    // The span covers the sleep and ended when it was recorded.
    assert_eq!(data.spans.len(), 1);
    assert_eq!(data.spans[0].name, "work");
    assert_eq!(data.spans[0].t_start, 0);
    assert_eq!(data.spans[0].t_end, time::ms(1));
    assert_eq!(data.spans[0].track, Track::Rank(0));
}

#[test]
fn full_level_records_scheduler_dispatch() {
    use gbcr_des::TraceLevel;
    let mut sim = Sim::new(0);
    sim.handle().tracer().set_level(TraceLevel::Full);
    sim.spawn("p", |p| {
        p.sleep(time::ms(1)); // plain scheduled wake
    });
    sim.run().unwrap();
    let data = sim.handle().tracer().take();
    assert!(
        !data.instants_named("sched.wake").is_empty(),
        "Full level records scheduler wakes: {data:?}"
    );
}

#[test]
fn many_processes_scale() {
    // 256 processes ping-ponging sleeps: exercises the park/resume handoff and
    // queue under load.
    let mut sim = Sim::new(0);
    let counter = Arc::new(AtomicU64::new(0));
    for i in 0..256 {
        let c = counter.clone();
        sim.spawn(format!("p{i}"), move |p| {
            for _ in 0..10 {
                p.sleep(time::us(i + 1));
                c.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    sim.run().unwrap();
    assert_eq!(counter.load(Ordering::Relaxed), 2560);
}

#[test]
fn wake_is_not_lost_when_scheduled_before_park() {
    // A wake scheduled for a process that has not yet parked (it is running)
    // must still be delivered: the scheduler only dispatches when no process
    // runs, so the wake stays queued until the process parks.
    let mut sim = Sim::new(0);
    let done = Arc::new(AtomicU64::new(0));
    let d = done.clone();
    let a = sim.spawn("a", move |p| {
        // Busy "compute" then wait; the waker wakes us while we compute.
        p.sleep(time::ms(5));
        while p.now() < time::ms(20) {
            p.park();
        }
        d.store(p.now(), Ordering::Relaxed);
    });
    sim.spawn("b", move |p| {
        p.sleep(time::ms(20));
        p.handle().wake(a);
    });
    sim.run().unwrap();
    assert_eq!(done.load(Ordering::Relaxed), time::ms(20));
}

/// Plain wakes, cancellable wakes, callbacks (cancellable `call_at` and
/// slot-free `post_at`) and cancelled timers queued
/// for one instant dispatch in push (`seq`) order whatever their kind, a
/// cancelled entry is a silent gap, and a second run records the same
/// table.
#[test]
fn mixed_event_kinds_at_equal_times_dispatch_in_seq_order() {
    fn run_once() -> Vec<(u64, u32)> {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(3);
        let h = sim.handle();
        let t = time::ms(5);
        let parked = |sim: &mut Sim, i: u32| {
            let log = log.clone();
            sim.spawn(format!("p{i}"), move |p| {
                p.park();
                log.lock().push((p.now(), i));
            })
        };
        for i in 0..8u32 {
            let log = log.clone();
            match i % 4 {
                0 if i == 0 => drop(h.call_at(t, move |h| log.lock().push((h.now(), i)))),
                0 => h.post_at(t, move |h| log.lock().push((h.now(), i))),
                1 => {
                    let pid = parked(&mut sim, i);
                    h.schedule_wake(t, pid);
                }
                2 => h.call_at(t, move |h| log.lock().push((h.now(), i))).cancel(),
                _ => {
                    // A cancelled wake resumes nobody; the live one queued
                    // behind it does.
                    let pid = parked(&mut sim, i);
                    h.schedule_wake_cancellable(t, pid).cancel();
                    drop(h.schedule_wake_cancellable(t, pid));
                }
            }
        }
        assert_eq!(sim.run().unwrap(), t);
        let table = log.lock().clone();
        table
    }
    let expect: Vec<(u64, u32)> = [0, 1, 3, 4, 5, 7].map(|i| (time::ms(5), i)).to_vec();
    assert_eq!(run_once(), expect);
    assert_eq!(run_once(), expect);
}

/// Parking while holding a borrow of simulation state is the one thing a
/// process may not do. The next process to reach for that state panics at
/// its own call site, and the run ends in the typed error. (The RNG is
/// the engine state the public API lets a process hold across a park.)
#[test]
fn parking_inside_a_borrow_is_a_process_panic_not_a_hang() {
    let mut sim = Sim::new(0);
    sim.spawn("holder", |p| p.handle().with_rng(|_| p.sleep(time::ms(2))));
    sim.spawn("victim", |p| {
        p.sleep(time::ms(1));
        p.handle().with_rng(|_| ());
    });
    match sim.run() {
        Err(SimError::ProcessPanicked { name, message }) => {
            assert_eq!(name, "victim");
            assert!(message.contains("already borrowed"), "{message}");
        }
        other => panic!("expected ProcessPanicked, got {other:?}"),
    }
}
