//! A kill on a thread that is already panicking breaks no later kill.
//!
//! The first kill of this binary happens while a `Sim` is dropped during
//! an unwind. Anything a kill set up once per process (a panic hook
//! behind a `Once`, say) would be set up there, mid-panic, and every later
//! kill would inherit the result. This is a binary of its own so that no
//! other test's kill comes first.

use gbcr_des::{time, Sim};

#[test]
fn a_kill_after_a_sim_dropped_mid_panic_ends_its_process_cleanly() {
    let outcome = std::panic::catch_unwind(|| {
        let mut sim = Sim::new(1);
        sim.spawn("parked", |p| loop {
            p.park();
        });
        let _ = sim.run(); // deadlock: the process is parked forever
        panic!("the caller panics with a live Sim");
    });
    assert!(outcome.is_err(), "the closure panics");

    let mut sim = Sim::new(2);
    let victim = sim.spawn("victim", |p| loop {
        p.park();
    });
    sim.handle().call_at(time::ms(1), move |h| h.kill(victim));
    assert_eq!(sim.run(), Ok(time::ms(1)));
}
