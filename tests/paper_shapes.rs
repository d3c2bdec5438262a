//! Regression net over the reproduced paper results: every figure's
//! *shape* (who wins, roughly how), asserted on the rows of
//! `rstorm::workloads::figures` at shortened horizons. The full-length
//! numbers are pinned byte for byte by
//! `golden_report::paper_figures_are_stable` and recorded in
//! EXPERIMENTS.md; these tests keep the shapes from silently regressing
//! as the code evolves.
//!
//! Runs are shortened (60–90 simulated seconds, 420 for Fig 13) so the
//! whole file stays CI-friendly; thresholds are set loose enough to be
//! stable across the shorter horizon.

use rstorm::workloads::figures::{run_figure, Figure, Measured, Row};
use std::sync::OnceLock;

/// The row for `topology` among `rows`.
fn row<'a>(rows: &'a [Row], topology: &str) -> &'a Row {
    rows.iter()
        .find(|r| r.topology == topology)
        .unwrap_or_else(|| panic!("no row for {topology}"))
}

/// Fig 8's rows at 90 s, run once for the three Fig 8 tests.
fn fig8_rows() -> &'static [Row] {
    static ROWS: OnceLock<Vec<Row>> = OnceLock::new();
    ROWS.get_or_init(|| run_figure(Figure::Fig8, 90_000.0).rows)
}

// ---- Figure 8: network-bound throughput -----------------------------------

#[test]
fn fig8a_linear_network_bound_shape() {
    let r = row(fig8_rows(), "linear-net").ratio();
    assert!((1.3..2.0).contains(&r), "paper ≈ 1.5, measured {r:.2}");
}

#[test]
fn fig8b_diamond_network_bound_shape() {
    let r = row(fig8_rows(), "diamond-net").ratio();
    assert!((1.1..1.6).contains(&r), "paper ≈ 1.3, measured {r:.2}");
}

#[test]
fn fig8c_star_network_bound_shape() {
    let r = row(fig8_rows(), "star-net").ratio();
    assert!((1.3..2.0).contains(&r), "paper ≈ 1.47, measured {r:.2}");
}

// ---- Figure 9: CPU-bound throughput and machine counts ---------------------

#[test]
fn fig9ab_equal_throughput_on_fewer_machines() {
    let rows = run_figure(Figure::Fig9, 60_000.0).rows;
    for id in ["linear-cpu", "diamond-cpu"] {
        let row = row(&rows, id);
        let (r, e) = (row.subject.throughput, row.baseline.throughput);
        assert!(
            (0.9..1.1).contains(&(r / e)),
            "{id}: throughput should match, {r:.0} vs {e:.0}"
        );
        assert!(
            row.subject.machines + 3 <= row.baseline.machines,
            "{id}: R-Storm should use far fewer machines"
        );
    }
}

#[test]
fn fig9c_star_default_is_bottlenecked() {
    let r = row(&run_figure(Figure::Fig9, 90_000.0).rows, "star-cpu").ratio();
    assert!(
        r > 1.15,
        "R-Storm must clearly win the star, measured {r:.2}"
    );
}

// ---- Figure 10: CPU utilization --------------------------------------------

#[test]
fn fig10_utilization_ordering() {
    let rows = run_figure(Figure::Fig10, 60_000.0).rows;
    let improvements: Vec<f64> = ["linear-cpu", "diamond-cpu", "star-cpu"]
        .iter()
        .map(|id| row(&rows, id).ratio())
        .collect();
    // Every workload shows a clear utilization win...
    for (i, imp) in improvements.iter().enumerate() {
        assert!(*imp > 1.3, "workload {i}: ratio {imp:.2}");
    }
    // ...and the paper's ordering (star > diamond > linear) holds.
    assert!(
        improvements[2] > improvements[0],
        "star ({:.2}) should beat linear ({:.2})",
        improvements[2],
        improvements[0]
    );
}

// ---- Figure 12: Yahoo topologies -------------------------------------------

#[test]
fn fig12_yahoo_topologies_favor_rstorm() {
    let rows = run_figure(Figure::Fig12, 90_000.0).rows;
    let pl = row(&rows, "page-load").ratio();
    assert!(pl > 1.15, "PageLoad measured {pl:.2}");
    let pr = row(&rows, "processing").ratio();
    assert!(pr > 1.2, "Processing measured {pr:.2}");
}

// ---- Figure 13: multi-topology differential collapse ------------------------

#[test]
fn fig13_processing_collapses_under_default_only() {
    let rows = run_figure(Figure::Fig13, 420_000.0).rows;
    let (page_load, processing) = (row(&rows, "page-load"), row(&rows, "processing"));
    let collapse = |side: &Measured| {
        side.collapse
            .clone()
            .expect("Fig 13 rows carry the collapse")
    };
    let (rstorm, default) = (
        collapse(&processing.subject),
        collapse(&processing.baseline),
    );

    // R-Storm: both topologies healthy, zero timeouts.
    assert_eq!(rstorm.roots_timed_out, 0);
    assert!(processing.subject.throughput > 30_000.0);

    // Default: Processing's tuple trees blow the 30 s timeout en masse
    // and its late windows collapse, while PageLoad merely degrades.
    assert!(
        default.roots_timed_out > 10_000,
        "expected mass timeouts, got {}",
        default.roots_timed_out
    );
    assert!(
        default.late_throughput < 0.2 * processing.subject.throughput,
        "processing should have collapsed, late windows average {:.0}",
        default.late_throughput
    );
    let pl_ratio = page_load.baseline.throughput / page_load.subject.throughput;
    assert!(
        pl_ratio > 0.5,
        "PageLoad must survive (got {:.0}% of R-Storm)",
        pl_ratio * 100.0
    );
}
