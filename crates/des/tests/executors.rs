//! Executor suite: simulated processes are coroutines with a pinned event
//! table, real kill unwinds and typed panic reports, and a
//! 10k-process simulation never leaves the thread that drives the
//! scheduler.

use gbcr_des::{time, Sim, SimError};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn note(log: &Mutex<Vec<(u64, String)>>, p: &gbcr_des::Proc, what: &str) {
    log.lock().push((p.now(), format!("{}:{}", p.name(), what)));
}

/// A mixed workload exercising every yield primitive: sleeps, park/wake
/// (one notifier wakes two parked waiters at one instant), spawn-during-run
/// and a mid-run kill, each appending `(virtual time, marker)` to `log`.
fn build_recorded(log: &Arc<Mutex<Vec<(u64, String)>>>) -> Sim {
    let mut sim = Sim::new(7);

    for i in 0..3u64 {
        let log = log.clone();
        sim.spawn(format!("ticker{i}"), move |p| {
            for _ in 0..4 {
                p.sleep(time::ms(3 + i));
                note(&log, p, "tick");
            }
        });
    }

    let waiters: Vec<_> = (0..2u64)
        .map(|i| {
            let log = log.clone();
            sim.spawn(format!("waiter{i}"), move |p| {
                p.park();
                note(&log, p, "woken");
            })
        })
        .collect();

    {
        let log = log.clone();
        sim.spawn("notifier", move |p| {
            p.sleep(time::ms(7));
            note(&log, p, "notify");
            for &w in &waiters {
                p.handle().wake(w);
            }
        });
    }

    {
        let log = log.clone();
        sim.spawn("spawner", move |p| {
            p.sleep(time::ms(2));
            let log2 = log.clone();
            p.handle().spawn("child", move |c| {
                c.sleep(time::ms(1));
                log2.lock().push((c.now(), "child:done".to_owned()));
            });
            note(&log, p, "spawned");
        });
    }

    let victim = {
        let log = log.clone();
        sim.spawn("victim", move |p| loop {
            p.sleep(time::ms(4));
            note(&log, p, "alive");
        })
    };
    sim.handle().call_at(time::ms(9), move |h| h.kill(victim));
    sim
}

/// Every yield primitive, one kill and one spawn-during-run, in the order
/// coroutines and OS threads both gave until PR 26 removed the
/// thread-per-process executor.
#[test]
fn mixed_workload_event_table_is_pinned() {
    let log: Arc<Mutex<Vec<(u64, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut sim = build_recorded(&log);
    assert_eq!(sim.run().expect("mixed workload completes"), time::ms(20));
    assert_eq!(sim.events_processed(), 31);
    let ms = |t: u64, what: &str| (time::ms(t), what.to_owned());
    assert_eq!(
        *log.lock(),
        [
            ms(2, "spawner:spawned"),
            ms(3, "ticker0:tick"),
            ms(3, "child:done"),
            ms(4, "ticker1:tick"),
            ms(4, "victim:alive"),
            ms(5, "ticker2:tick"),
            ms(6, "ticker0:tick"),
            ms(7, "notifier:notify"),
            ms(7, "waiter0:woken"),
            ms(7, "waiter1:woken"),
            ms(8, "ticker1:tick"),
            ms(8, "victim:alive"),
            ms(9, "ticker0:tick"),
            ms(10, "ticker2:tick"),
            ms(12, "ticker1:tick"),
            ms(12, "ticker0:tick"),
            ms(15, "ticker2:tick"),
            ms(16, "ticker1:tick"),
            ms(20, "ticker2:tick"),
        ]
    );
}

/// The victim's destructors run (its unwind is a real unwind, not a leak)
/// and the run completes cleanly.
#[test]
fn kill_runs_destructors_on_both_executors() {
    struct Sentinel(Arc<AtomicBool>);
    impl Drop for Sentinel {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    let dropped = Arc::new(AtomicBool::new(false));
    let mut sim = Sim::new(1);
    let sentinel = Sentinel(dropped.clone());
    let victim = sim.spawn("victim", move |p| {
        let _held = &sentinel;
        loop {
            p.sleep(time::ms(1));
        }
    });
    sim.handle().call_at(time::ms(5), move |h| h.kill(victim));
    sim.run().expect("kill is a clean termination");
    sim.shutdown();
    assert!(dropped.load(Ordering::Relaxed), "killed process leaked its stack-held state");
    assert!(sim.handle().is_done(victim));
}

/// A panicking process surfaces as `ProcessPanicked`: the process name and
/// the rendered payload.
#[test]
fn panic_reporting_identical_across_executors() {
    let mut sim = Sim::new(2);
    sim.spawn("bomb", |p| {
        p.sleep(time::ms(3));
        panic!("exploded at step {}", 41 + 1);
    });
    let err = sim.run().expect_err("panic must fail the run");
    let expect =
        SimError::ProcessPanicked { name: "bomb".into(), message: "exploded at step 42".into() };
    assert_eq!(err, expect);
}

/// Kills leave nothing behind on the thread that hosted them: a real
/// panic after eight kills is still reported with its payload.
#[test]
fn a_real_panic_after_kills_is_reported_with_its_payload() {
    let mut sim = Sim::new(3);
    for i in 0..8u64 {
        let victim = sim.spawn(format!("victim{i}"), |p| loop {
            p.park();
        });
        sim.handle().call_at(time::ms(1 + i), move |h| h.kill(victim));
    }
    sim.run().expect("kills end the run cleanly");

    sim.spawn("bomb", |p| {
        p.sleep(time::ms(1));
        panic!("real panic after kills");
    });
    match sim.run() {
        Err(SimError::ProcessPanicked { name, message }) => {
            assert_eq!(name, "bomb");
            assert!(message.contains("real panic after kills"), "payload lost: {message}");
        }
        other => panic!("expected ProcessPanicked, got {other:?}"),
    }
}

/// The headline capability: 10 000 simultaneously-live processes with no
/// OS thread of their own, all hosted on the thread calling `run`.
#[test]
fn ten_thousand_procs_spawn_park_finish_on_one_thread() {
    let mut sim = Sim::new(11);
    const N: u64 = 10_000;
    let driver = std::thread::current().id();
    let done = Arc::new(AtomicU64::new(0));
    let strays = Arc::new(AtomicU64::new(0));
    for i in 0..N {
        let (done, strays) = (done.clone(), strays.clone());
        sim.spawn(format!("rank{i}"), move |p| {
            p.sleep(time::ms(1 + (i % 16)));
            if std::thread::current().id() != driver {
                strays.fetch_add(1, Ordering::Relaxed);
            }
            done.fetch_add(1, Ordering::Relaxed);
        });
    }
    let end = sim.run().expect("10k-proc smoke completes");
    assert_eq!(end, time::ms(16));
    assert_eq!(done.load(Ordering::Relaxed), N);
    assert_eq!(strays.load(Ordering::Relaxed), 0, "a slice ran off the driving thread");
    assert_eq!(sim.procs_spawned(), N);
    assert_eq!(sim.peak_live_procs(), N, "all ranks live at once mid-run");
    assert!(sim.spawn_cost_ns() > 0);

    let threads = os_thread_count();
    assert!(
        threads > 0 && threads < 100,
        "expected a bounded OS thread count with 10k live procs, got {threads}"
    );
    sim.shutdown();
}

/// Live OS threads of this test process, from /proc (Linux only; the
/// tests target the Linux CI environment).
fn os_thread_count() -> u64 {
    let status = match std::fs::read_to_string("/proc/self/status") {
        Ok(s) => s,
        Err(_) => return 1, // non-procfs platform: don't fail the assert
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1)
}

/// Voluntary context switches of the calling thread so far.
fn voluntary_switches() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
}

/// The noise-free guard against a thread handoff creeping back into the
/// resume path: a rank switch is a register swap on the driving thread,
/// so that thread never blocks in the kernel on behalf of an event, and
/// no other thread ever runs process code. (Both counters are per-thread,
/// so concurrently running tests cannot disturb them.)
#[test]
fn serial_pooled_run_never_leaves_the_driving_thread() {
    let mut sim = Sim::new(5);
    const PROCS: u64 = 10;
    const ROUNDS: u64 = 5_000;
    let driver = std::thread::current().id();
    let strays = Arc::new(AtomicU64::new(0));
    for i in 0..PROCS {
        let strays = strays.clone();
        sim.spawn(format!("p{i}"), move |p| {
            for _ in 0..ROUNDS {
                p.sleep(time::us(1 + i));
                if std::thread::current().id() != driver {
                    strays.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
    }
    let before = voluntary_switches();
    sim.run().expect("park/resume storm completes");
    let after = voluntary_switches();
    let events = sim.events_processed();
    assert!(events >= PROCS * ROUNDS, "only {events} events dispatched");
    assert_eq!(strays.load(Ordering::Relaxed), 0, "a slice ran off the driving thread");
    if let (Some(before), Some(after)) = (before, after) {
        let per_event = (after - before) as f64 / events as f64;
        assert!(
            per_event < 0.01,
            "{} voluntary context switches over {events} events ({per_event:.3}/event): \
             the resume path is blocking in the kernel again",
            after - before
        );
    }
}

/// A `Sim` may be created and driven from inside a simulated process of
/// another `Sim`: each cell saves its own host context,
/// so the inner scheduler simply runs on the outer process's coroutine
/// stack.
#[test]
fn pooled_sim_nests_inside_a_simulated_process() {
    let inner_end = Arc::new(AtomicU64::new(0));
    let inner_end2 = inner_end.clone();
    let mut outer = Sim::new(1);
    outer.spawn("host", move |p| {
        p.sleep(time::ms(2));
        let mut inner = Sim::new(2);
        let waiter = inner.spawn("waiter", |q| q.park());
        inner.spawn("notifier", move |q| {
            q.sleep(time::ms(7));
            q.handle().wake(waiter);
        });
        inner_end2.store(inner.run().expect("nested sim completes"), Ordering::Relaxed);
        // The outer process keeps working after hosting a whole inner run.
        p.sleep(time::ms(3));
    });
    assert_eq!(outer.run().expect("outer sim completes"), time::ms(5));
    assert_eq!(inner_end.load(Ordering::Relaxed), time::ms(7));
}

/// Dropping a `Sim` while its thread is already unwinding tears parked
/// processes down on that same thread: their kill-unwinds are caught
/// inside the coroutine and never meet the outer panic.
#[test]
fn sim_dropped_during_an_unwind_still_tears_down() {
    let dropped = Arc::new(AtomicBool::new(false));
    struct Sentinel(Arc<AtomicBool>);
    impl Drop for Sentinel {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let sentinel = Sentinel(dropped.clone());
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let mut sim = Sim::new(6);
        sim.spawn("parked", move |p| {
            let _held = &sentinel;
            loop {
                p.park();
            }
        });
        let _ = sim.run(); // deadlock error — the proc is parked forever
        panic!("caller panics with a live Sim");
    }));
    assert!(outcome.is_err());
    assert!(dropped.load(Ordering::Relaxed), "parked process not unwound by the drop");
}

/// Teardown of unfinished processes (explicit `shutdown` or drop) kills
/// parked and never-started ones alike, and its cost is recorded.
#[test]
fn shutdown_kills_parked_and_unstarted_procs_on_both_executors() {
    let mut sim = Sim::new(4);
    // Parked forever: must be kill-unwound by shutdown.
    sim.spawn("parked", |p| loop {
        p.park();
    });
    let _ = sim.run(); // deadlock error — the proc is parked forever
                       // Never resumed at all (spawned after the run drained the queue).
    let unstarted = sim.spawn("unstarted", |p| p.sleep(time::ms(1)));
    sim.shutdown();
    assert!(sim.handle().is_done(unstarted), "shutdown left a process live");
    assert!(sim.teardown_cost_ns() > 0, "teardown cost not recorded");
}

#[test]
fn double_resume_error_is_typed_and_displayed() {
    let err = SimError::DoubleResume { name: "rank3".into() };
    assert_eq!(err.to_string(), "scheduler resumed already-running process 'rank3'");
    assert_eq!(err, SimError::DoubleResume { name: "rank3".into() });
}
