//! The process-wide elided-wake total advances by exactly what each
//! simulation elides. The counter is shared by every `Sim` in the process
//! and the test harness runs a binary's tests on parallel threads, so this
//! is the **only** test in its binary: an exact delta is meaningful here
//! and nowhere else.

use gbcr_des::{time, total_wakes_elided, DemandWake, Sim};

#[test]
fn global_elided_total_advances_by_each_sims_count() {
    let global0 = total_wakes_elided();
    let mut per_sim = Vec::new();
    // Park across 4 and then 7 slice boundaries; one delivery inside the
    // last slice fires that boundary, the earlier ones are elided.
    for slices in [4u64, 7] {
        let mut sim = Sim::new(0);
        let dw = DemandWake::new(sim.handle());
        let dw_rank = dw.clone();
        sim.spawn("rank", move |p| {
            dw_rank.arm(p.id(), 0, time::ms(1), time::ms(100));
            p.park();
            assert_eq!(p.now(), time::ms(slices));
            dw_rank.disarm();
        });
        sim.handle().call_at(time::ms(slices) - time::us(300), move |_| dw.poke());
        sim.run().unwrap();
        assert_eq!(sim.wakes_elided(), slices - 1);
        per_sim.push(sim.wakes_elided());
    }
    assert_eq!(per_sim, [3, 6]);
    assert_eq!(total_wakes_elided() - global0, 9);
}
