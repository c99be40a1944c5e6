//! The one list of sections the evaluation is made of. `gbcr fig`,
//! `gbcr ablations`, `gbcr taxonomy` and `gbcr all` are lookups in
//! [`FIGURES`]; `bench_results.txt` is `gbcr all`'s output, i.e. the
//! [`Figure::in_evaluation`] entries in table order.
//!
//! Figures 8–10 and the scale study are not entries: each has a JSON form,
//! options of its own and a trailer computed from its sweep, so `gbcr`
//! calls [`crate::fig8`], [`crate::fig9`], [`crate::fig10`] and
//! [`crate::scale`] directly.

use crate::{ablations, fig1, fig3, fig4, fig5, fig7, paper, taxonomy, Sweep, GROUP_SIZES};
use gbcr_metrics::Table;

/// Which listings a [`Figure`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// A figure of the paper's evaluation (`gbcr all`).
    Figure,
    /// A design-choice ablation, comparator or extension study
    /// (`gbcr all`, `gbcr ablations`).
    Ablation,
    /// Reachable by selector only: a second view of data another entry
    /// already prints (Figure 6), or a study outside the evaluation
    /// (the taxonomy).
    Extra,
}

/// One renderable section.
pub struct Figure {
    /// What `gbcr fig <selector>` matches.
    pub selector: &'static str,
    /// The listings it appears in.
    pub section: Section,
    /// The `# ` table titles [`render`](Figure::render) emits, in order.
    pub headings: &'static [&'static str],
    /// Runs the section's sweep on `threads` workers (`None` = all
    /// cores) and renders its tables. The text does not depend on the
    /// worker count.
    pub render: fn(Option<usize>) -> String,
    /// The measured-vs-paper note printed under the section when it is
    /// regenerated on its own.
    pub footer: Option<fn() -> String>,
}

impl Figure {
    /// Whether `gbcr all` prints (and `bench_results.txt` records) it.
    pub fn in_evaluation(&self) -> bool {
        self.section != Section::Extra
    }
}

/// The entry `selector` names.
pub fn find(selector: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.selector == selector)
}

fn fig5_sweep(threads: Option<usize>) -> Sweep {
    fig5::run(&fig5::POINTS, &GROUP_SIZES, threads)
}

/// A per-point matrix with its per-group-size summary under it.
fn with_summary(matrix: Table, sw: &Sweep, summary_title: &str) -> String {
    format!("{}\n{}", matrix.render(), fig5::summary_table(sw, summary_title).render())
}

/// Every section, in `bench_results.txt` order.
pub static FIGURES: &[Figure] = &[
    Figure {
        selector: "1",
        section: Section::Figure,
        headings: &[fig1::TITLE],
        render: |_| fig1::table(&fig1::run()).render(),
        footer: Some(|| {
            format!(
                "paper anchors: aggregate ≈ {} MB/s; per-client at 32 ≈ {} MB/s",
                paper::fig1::AGGREGATE_MBS,
                paper::fig1::PER_CLIENT_AT_32
            )
        }),
    },
    Figure {
        selector: "3",
        section: Section::Figure,
        headings: &[fig3::TITLE],
        render: |t| fig3::table(&fig3::run(32, &fig3::COMM_SIZES, &GROUP_SIZES, t)).render(),
        footer: Some(|| {
            format!(
                "paper anchors: All(32) ≈ {}s; halving group size halves the delay while \
                 it covers a comm group; sizes 1-2 under-utilize storage",
                paper::fig3::ALL32_SECS
            )
        }),
    },
    Figure {
        selector: "4",
        section: Section::Figure,
        headings: &[fig4::TITLE],
        render: |t| fig4::table(&fig4::run(&fig4::POINTS, t)).render(),
        footer: Some(|| {
            "paper shape: Effective lies between Individual and Total, rising toward the \
             barrier (60 s, 120 s)"
                .to_owned()
        }),
    },
    // Figure 6 aggregates Figure 5's sweep, so the evaluation renders both
    // from one run; "6" below reruns the sweep for the summary alone.
    Figure {
        selector: "5",
        section: Section::Figure,
        headings: &[fig5::TITLE, fig5::FIG6_TITLE],
        render: |t| {
            let sw = fig5_sweep(t);
            with_summary(sw.matrix(fig5::TITLE), &sw, fig5::FIG6_TITLE)
        },
        footer: Some(|| {
            format!(
                "paper anchors: up to {:.0}% reduction for Group(4) at 50 s; average reductions {:?}",
                paper::fig56::MAX_REDUCTION_G4 * 100.0,
                paper::fig56::AVG_REDUCTIONS
            )
        }),
    },
    Figure {
        selector: "6",
        section: Section::Extra,
        headings: &[fig5::FIG6_TITLE],
        render: |t| fig5::summary_table(&fig5_sweep(t), fig5::FIG6_TITLE).render(),
        footer: Some(|| {
            format!(
                "paper anchors: average reductions {:?} (sizes 4 and 8 best, matching the 8×4 grid)",
                paper::fig56::AVG_REDUCTIONS
            )
        }),
    },
    Figure {
        selector: "7",
        section: Section::Figure,
        headings: &[fig7::TITLE, fig7::SUMMARY_TITLE],
        render: |t| {
            let sw = fig7::run(&fig7::POINTS, &GROUP_SIZES, t);
            with_summary(sw.matrix(fig7::TITLE), &sw, fig7::SUMMARY_TITLE)
        },
        footer: Some(|| {
            format!(
                "paper anchors: up to {:.0}% reduction for Group(4) at 30 s; average reductions {:?}",
                paper::fig7::MAX_REDUCTION_G4 * 100.0,
                paper::fig7::AVG_REDUCTIONS
            )
        }),
    },
    Figure {
        selector: "ablation-progress",
        section: Section::Ablation,
        headings: &[ablations::PROGRESS_TITLE],
        render: |t| ablations::progress_table(&ablations::progress_ablation(t)).render(),
        footer: None,
    },
    Figure {
        selector: "ablation-buffering",
        section: Section::Ablation,
        headings: &[ablations::BUFFERING_TITLE],
        render: |t| ablations::buffering_table(&ablations::buffering_ablation(t)).render(),
        footer: None,
    },
    Figure {
        selector: "ablation-logging",
        section: Section::Ablation,
        headings: &[ablations::LOGGING_TITLE],
        render: |t| ablations::logging_table(&ablations::logging_ablation(t)).render(),
        footer: None,
    },
    Figure {
        selector: "ablation-formation",
        section: Section::Ablation,
        headings: &[ablations::FORMATION_TITLE],
        render: |t| ablations::formation_table(&ablations::formation_ablation(t)).render(),
        footer: None,
    },
    Figure {
        selector: "comparator-chandy-lamport",
        section: Section::Ablation,
        headings: &[ablations::CHANDY_LAMPORT_TITLE],
        render: |t| ablations::chandy_lamport_table(&ablations::chandy_lamport_ablation(t)).render(),
        footer: None,
    },
    Figure {
        selector: "extension-incremental",
        section: Section::Ablation,
        headings: &[ablations::INCREMENTAL_TITLE],
        render: |t| ablations::incremental_table(&ablations::incremental_ablation(t)).render(),
        footer: None,
    },
    Figure {
        selector: "taxonomy",
        section: Section::Extra,
        headings: &[taxonomy::TITLE],
        render: taxonomy::render,
        footer: Some(|| taxonomy::FOOTER.to_owned()),
    },
];
