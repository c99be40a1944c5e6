//! The parallel harness must be invisible in the output: every figure
//! driver renders byte-identical tables on 1 worker and on many.

use gbcr_bench::{ablations, fig3, fig4, fig5, fig7};

#[test]
fn figure_tables_are_byte_identical_across_thread_counts() {
    let serial = [
        fig3::table(&fig3::run(8, &[4, 2], &[8, 4], Some(1))).render(),
        fig4::table(&fig4::run(&[15, 55], Some(1))).render(),
        fig5::run(&[50, 150], &[32, 4], Some(1)).matrix(fig5::TITLE).render(),
        fig7::run(&[30], &[32, 4], Some(1)).matrix(fig7::TITLE).render(),
    ];
    let parallel = [
        fig3::table(&fig3::run(8, &[4, 2], &[8, 4], Some(8))).render(),
        fig4::table(&fig4::run(&[15, 55], Some(8))).render(),
        fig5::run(&[50, 150], &[32, 4], Some(8)).matrix(fig5::TITLE).render(),
        fig7::run(&[30], &[32, 4], Some(8)).matrix(fig7::TITLE).render(),
    ];
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p, "figure table {i} differs between 1 and 8 workers");
        assert!(!s.is_empty());
    }
}

#[test]
fn ablation_results_are_thread_count_invariant() {
    let s = ablations::formation_ablation(Some(1));
    let p = ablations::formation_ablation(Some(8));
    assert_eq!(s.static_effective, p.static_effective);
    assert_eq!(s.dynamic_effective, p.dynamic_effective);
    assert_eq!(s.dynamic_groups, p.dynamic_groups);
}
