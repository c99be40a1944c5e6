//! Demand-driven vs polled progress equivalence (DESIGN.md §3.1).
//!
//! The demand-driven wake elision must be *observationally invisible*:
//! every measured cell is identical to the polled reference, while the
//! simulator dispatches strictly fewer events. This runs reduced fig3,
//! fig4, fig5 and fig7 sweeps both ways.

use gbcr_bench::{fig3, sweep, Cell};
use gbcr_core::JobSpec;
use gbcr_des::time;
use gbcr_workloads::{HplWorkload, MotifMinerWorkload, PlacementBench};

/// Every reduced sweep's cells, plus the events dispatched and the wakes
/// elided over all of them, in the given progress mode.
fn smoke_cells(polled: bool) -> (Vec<Cell>, u64, u64) {
    // (spec, image namespace, issuance points in seconds, group sizes)
    let sweeps: [(JobSpec, &str, &[u64], &[u32]); 4] = [
        (fig3::bench(4, 8).job(), "micro", &[30], &[8, 4]),
        (PlacementBench::default().job(), "placement", &[15, 55], &[8]),
        (HplWorkload::default().job(None), "hpl", &[50, 150], &[32, 4]),
        (MotifMinerWorkload::default().job(None), "motifminer", &[30], &[32, 4]),
    ];
    let (mut cells, mut events, mut elided) = (Vec::new(), 0, 0);
    for (mut spec, job, secs, sizes) in sweeps {
        spec.mpi.polled_progress = polled;
        let points: Vec<_> = secs.iter().map(|&s| time::secs(s)).collect();
        let sw = sweep(&spec, job, &points, sizes, Some(2));
        events += sw.events;
        elided += sw.elided_wakes;
        cells.extend(sw.cells);
    }
    (cells, events, elided)
}

#[test]
fn demand_driven_wakes_match_polled_tables_with_fewer_events() {
    let (demand_cells, demand_events, demand_elided) = smoke_cells(false);
    let (polled_cells, polled_events, polled_elided) = smoke_cells(true);

    assert_eq!(
        demand_cells, polled_cells,
        "wake elision changed a measured cell — it must be observationally invisible"
    );
    assert!(
        demand_events < polled_events,
        "demand mode must dispatch strictly fewer events ({demand_events} vs {polled_events})"
    );
    assert!(demand_elided > 0, "smoke cells cross passive slices, some wakes must elide");
    assert_eq!(polled_elided, 0, "polled mode never elides");
}
