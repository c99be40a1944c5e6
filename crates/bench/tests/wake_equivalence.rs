//! Demand-driven vs polled progress equivalence (DESIGN.md §3.1).
//!
//! The demand-driven wake elision must be *observationally invisible*:
//! every figure table is byte-identical to the polled baseline, while the
//! simulator dispatches strictly fewer events. This runs reduced fig3,
//! fig4, fig5 and fig7 sweeps both ways.
//!
//! Lives in its own integration-test binary because it flips the
//! process-wide polled default — nothing else may construct an
//! `MpiConfig` while that is set.

use gbcr_bench::{fig3, fig4, fig5, fig7};

fn smoke_cells() -> (String, u64, u64) {
    let f3 = fig3::run(8, &[4], &[8, 4], Some(2));
    let s4 = fig4::run(&[15, 55], Some(2));
    let s5 = fig5::run(&[50, 150], &[32, 4], Some(2));
    let s7 = fig7::run(&[30], &[32, 4], Some(2));
    let tables = [fig3::table(&f3), fig4::table(&s4), fig5::table(&s5), fig7::table(&s7)]
        .map(|t| t.render())
        .join("\n");
    let sweeps = f3.by_comm.iter().map(|(_, s)| s).chain([&s4, &s5, &s7]);
    let (events, elided) =
        sweeps.fold((0, 0), |(e, w), s| (e + s.events, w + s.elided_wakes));
    (tables, events, elided)
}

#[test]
fn demand_driven_wakes_match_polled_tables_with_fewer_events() {
    assert!(!gbcr_mpi::polled_progress_default(), "demand-driven is the default");
    let (demand_tables, demand_events, demand_elided) = smoke_cells();

    gbcr_mpi::set_polled_progress_default(true);
    let (polled_tables, polled_events, polled_elided) = smoke_cells();
    gbcr_mpi::set_polled_progress_default(false);

    assert_eq!(
        demand_tables, polled_tables,
        "wake elision changed a figure table — it must be observationally invisible"
    );
    assert!(
        demand_events < polled_events,
        "demand mode must dispatch strictly fewer events ({demand_events} vs {polled_events})"
    );
    assert!(demand_elided > 0, "smoke cells cross passive slices, some wakes must elide");
    assert_eq!(polled_elided, 0, "polled mode never elides");
}
