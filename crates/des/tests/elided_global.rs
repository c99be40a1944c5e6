//! The process-wide elided-wake total advances by exactly what each
//! simulation is credited. The counter is shared by every `Sim` in the
//! process and the test harness runs a binary's tests on parallel threads,
//! so this is the **only** test in its binary: an exact delta is
//! meaningful here and nowhere else.

use gbcr_des::{time, total_wakes_elided, Sim};

#[test]
fn global_elided_total_advances_by_each_sims_count() {
    let global0 = total_wakes_elided();
    let mut per_sim = Vec::new();
    // One simulation is credited 3 elided wakes at once, the next 2 and
    // then 4, from callbacks as a parked rank's wake registration would be.
    for credits in [&[3u64][..], &[2, 4]] {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        for (at, &n) in (1..).zip(credits) {
            h.call_at(time::ms(at), move |h| h.note_elided_wakes(n));
        }
        sim.run().unwrap();
        per_sim.push(sim.wakes_elided());
    }
    assert_eq!(per_sim, [3, 6]);
    assert_eq!(total_wakes_elided() - global0, 9);
}
