//! The helper thread's wake registration (`DemandWake`, paper §4.4):
//! boundary rounding, coalescing, the deadline limit, re-anchoring in
//! place, and the events it saves against a polled park/resume chain.

use gbcr_des::{time, Sim};
use gbcr_mpi::DemandWake;
use std::rc::Rc;

/// Deliveries before a slice boundary coalesce into one wake at that
/// boundary, and every earlier boundary the park crossed without traffic
/// is counted as elided on the per-sim counter. (The process-wide total is
/// checked in `gbcr-des`'s `tests/elided_global.rs`, a binary of its own:
/// tests running concurrently elide wakes too, so no exact delta can be
/// asserted on it from here.)
#[test]
fn demand_wake_rounds_to_boundary_coalesces_and_counts_elided() {
    let mut sim = Sim::new(0);
    let h = sim.handle();
    let dw = Rc::new(DemandWake::new(sim.handle()));
    let dw_rank = dw.clone();
    sim.spawn("rank", move |p| {
        // Slice lattice 0, 1ms, 2ms, ... with the deadline far away.
        dw_rank.arm(p.id(), 0, time::ms(1), time::ms(100));
        assert!(dw_rank.is_armed());
        p.park();
        assert_eq!(p.now(), time::ms(4), "woken at the boundary after the deliveries");
        dw_rank.disarm();
        assert!(!dw_rank.is_armed());
    });
    // Two "deliveries" inside the (3ms, 4ms) slice: one wake, at 4ms.
    let d = dw.clone();
    h.call_at(time::us(3200), move |_| d.poke());
    let d = dw.clone();
    h.call_at(time::us(3700), move |_| d.poke());
    sim.run().unwrap();
    // Boundaries 1,2,3,4 ms were crossed; the 4ms one actually fired.
    assert_eq!(sim.wakes_elided(), 3);

    // Progress work at 2.5 ms moves the lattice there. Done for the parked
    // rank (`reanchor`, from an event) it must leave the books exactly as
    // the rank waking to `disarm` and `arm` again at that instant does:
    // same elision credit, same next boundary, same anchor reported at the
    // final `disarm` — and one resume fewer.
    let run = |in_place: bool| {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let dw = Rc::new(DemandWake::new(sim.handle()));
        let dw_rank = dw.clone();
        let pid = sim.spawn("rank", move |p| {
            dw_rank.arm(p.id(), 0, time::ms(1), time::ms(100));
            p.park();
            if !in_place {
                assert_eq!(p.now(), time::us(2500));
                assert_eq!(dw_rank.disarm(), Some(0));
                dw_rank.arm(p.id(), p.now(), time::ms(1), time::ms(100));
                p.park();
            }
            assert_eq!(p.now(), time::us(3500), "first boundary of the moved lattice");
            assert_eq!(dw_rank.disarm(), Some(time::us(2500)), "the anchor in force");
            assert_eq!(dw_rank.disarm(), None, "not armed: a no-op");
        });
        let d = dw.clone();
        h.call_at(time::us(2500), move |h| if in_place { d.reanchor() } else { h.wake(pid) });
        let d = dw.clone();
        h.call_at(time::us(3200), move |_| d.poke());
        sim.run().unwrap();
        (sim.wakes_elided(), sim.events_processed())
    };
    let ((elided_in_place, events_in_place), (elided_resumed, events_resumed)) =
        (run(true), run(false));
    // Boundaries 1 and 2 ms went by unwoken before the move; 3.5 ms fired.
    assert_eq!((elided_in_place, elided_resumed), (2, 2));
    assert_eq!(events_in_place + 1, events_resumed);
    // Not armed, `reanchor` does nothing at all.
    let sim = Sim::new(0);
    let idle = Rc::new(DemandWake::new(sim.handle()));
    idle.reanchor();
    assert!(!idle.is_armed());
}

/// A poke whose rounded-up boundary lands at or past the limit schedules
/// nothing (the caller's deadline wake covers it); the boundary the park
/// crossed is still credited as elided.
#[test]
fn demand_wake_defers_to_the_deadline_at_the_limit() {
    let mut sim = Sim::new(0);
    let h = sim.handle();
    let dw = Rc::new(DemandWake::new(sim.handle()));
    let dw_rank = dw.clone();
    sim.spawn("rank", move |p| {
        let deadline = time::ms(2);
        dw_rank.arm(p.id(), 0, time::ms(1), deadline);
        p.handle().schedule_wake_cancellable(deadline, p.id());
        p.park();
        assert_eq!(p.now(), time::ms(2), "only the deadline wake fires");
        dw_rank.disarm();
    });
    let d = dw.clone();
    h.call_at(time::us(1500), move |_| d.poke());
    sim.run().unwrap();
    // The 1ms boundary was crossed with no wake scheduled for it.
    assert_eq!(sim.wakes_elided(), 1);
}

/// Park/resume handoff microbench: a rank sitting out a 1s window on a
/// 10ms slice lattice. The polled chain pays one full park/resume handoff
/// per boundary; the demand-driven path parks once and wakes once (a
/// single mid-window delivery), eliding everything else.
#[test]
fn demand_wakes_cut_events_vs_polled_park_resume_chain() {
    let window = time::secs(1);
    let interval = time::ms(10);

    let mut polled = Sim::new(0);
    polled.spawn("rank", move |p| loop {
        let now = p.now();
        if now >= window {
            break;
        }
        p.handle().schedule_wake_cancellable((now + interval).min(window), p.id());
        p.park();
    });
    polled.run().unwrap();
    let polled_events = polled.events_processed();
    assert_eq!(polled.wakes_elided(), 0, "the polled chain elides nothing");

    let mut demand = Sim::new(0);
    let dw = Rc::new(DemandWake::new(demand.handle()));
    let dw_rank = dw.clone();
    demand.spawn("rank", move |p| {
        dw_rank.arm(p.id(), 0, interval, window);
        let deadline = p.handle().schedule_wake_cancellable(window, p.id());
        p.park();
        assert_eq!(p.now(), time::ms(500));
        dw_rank.disarm();
        deadline.cancel();
    });
    let d = dw.clone();
    demand.handle().call_at(time::ms(495), move |_| d.poke());
    demand.run().unwrap();
    let demand_events = demand.events_processed();

    assert!(
        demand_events * 5 < polled_events,
        "demand path must be far cheaper: {demand_events} vs {polled_events} events"
    );
    // Segment (0, 500ms] crosses 50 boundaries; one (500ms) fired.
    assert_eq!(demand.wakes_elided(), 49);
}
