//! The paper's evaluation (§6, Figs 8–13) and our ablation as one table
//! of rows.
//!
//! Each [`Row`] compares a scheduler under test (the *subject*: R-Storm,
//! or an ablated R-Storm variant) with a *baseline* (Storm's default
//! scheduler, or full R-Storm for the ablation) on one topology:
//! steady throughput, machines used and mean used-machine CPU
//! utilization for each side, next to the value the paper reports.
//! [`table`] runs every figure at its horizon, [`run_figure`] runs one
//! figure at any horizon and keeps its per-window series, and [`render`]
//! is the one text renderer (`rstorm reproduce` prints it, and
//! `tests/golden/paper_figures.txt` pins it byte for byte).
//!
//! Every run goes through [`run`]: schedule on a fresh cluster state,
//! then simulate with nothing else on the cluster. `rstorm simulate` and
//! `rstorm compare` run spec files through it too.

use crate::{clusters, micro, yahoo};
use rstorm_cluster::Cluster;
use rstorm_core::schedulers::{EvenScheduler, RandomScheduler};
use rstorm_core::{
    schedule_all, RStormConfig, RStormScheduler, ScheduleError, Scheduler, SchedulingPlan,
    SoftConstraintWeights,
};
use rstorm_metrics::text_table;
use rstorm_sim::{SimConfig, SimReport, Simulation};
use rstorm_topology::{Topology, TraversalOrder};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Warm-up windows skipped when averaging steady-state throughput.
pub const WARMUP_WINDOWS: usize = 2;

/// Fig 13's closing windows, averaged to show where the collapse ends.
pub const LATE_WINDOWS: usize = 6;

/// One figure of the paper's evaluation, or our ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Network-bound Linear/Diamond/Star throughput (Fig 8a–c).
    Fig8,
    /// CPU-bound Linear/Diamond/Star throughput (Fig 9a–c).
    Fig9,
    /// CPU utilization of the used machines in Fig 9's runs (Fig 10).
    Fig10,
    /// Yahoo PageLoad and Processing, each alone (Fig 12a–b).
    Fig12,
    /// PageLoad and Processing together on 24 nodes (Fig 13).
    Fig13,
    /// Task ordering, distance-term and random-placement ablations (ours).
    Ablation,
}

impl Figure {
    /// Every figure, in the paper's order.
    pub const ALL: [Figure; 6] = {
        use Figure::*;
        [Fig8, Fig9, Fig10, Fig12, Fig13, Ablation]
    };

    /// The name `--figure` takes (`8`, `9`, `10`, `12`, `13` or
    /// `ablation`) and the title [`render`] prints.
    fn labels(self) -> (&'static str, &'static str) {
        match self {
            Figure::Fig8 => ("8", "Fig 8: network-bound micro-benchmarks"),
            Figure::Fig9 => ("9", "Fig 9: CPU-bound micro-benchmarks"),
            Figure::Fig10 => ("10", "Fig 10: CPU utilization of Fig 9's runs"),
            Figure::Fig12 => ("12", "Fig 12: Yahoo topologies, each alone"),
            Figure::Fig13 => ("13", "Fig 13: PageLoad and Processing together"),
            Figure::Ablation => ("ablation", "Ablation (ours): R-Storm variants"),
        }
    }

    /// The simulated horizon [`table`] runs the figure at. The paper runs
    /// each experiment for ~15 minutes; five simulated minutes is well
    /// past convergence, except for Fig 13, whose default-scheduler death
    /// spiral needs the full 15 minutes to develop.
    pub fn horizon_ms(self) -> f64 {
        match self {
            Figure::Fig13 => 900_000.0,
            _ => 300_000.0,
        }
    }
}

impl FromStr for Figure {
    type Err = UnknownFigure;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Figure::ALL
            .into_iter()
            .find(|f| f.labels().0 == s)
            .ok_or_else(|| UnknownFigure(s.to_owned()))
    }
}

/// A figure name that is not one of [`Figure::ALL`]'s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownFigure(pub String);

impl fmt::Display for UnknownFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = Figure::ALL.iter().map(|f| f.labels().0).collect();
        let names = names.join(", ");
        write!(f, "unknown figure `{}` (expected one of {names})", self.0)
    }
}

impl std::error::Error for UnknownFigure {}

/// Fig 13's collapse as one side of a row sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Collapse {
    /// Tuple trees that blew the 30 s timeout, over the whole run (both
    /// topologies).
    pub roots_timed_out: u64,
    /// Spout batches emitted, over the whole run (both topologies).
    pub spout_batches: u64,
    /// Mean throughput of the row's topology over its last
    /// [`LATE_WINDOWS`] windows.
    pub late_throughput: f64,
}

/// One side of a row: what one scheduler's placement measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The scheduler, e.g. `rstorm`, `default` or `rstorm (dfs)`.
    pub scheduler: &'static str,
    /// Steady throughput of the row's topology (tuples per 10 s window,
    /// after [`WARMUP_WINDOWS`]).
    pub throughput: f64,
    /// Machines the row's topology uses.
    pub machines: usize,
    /// Mean CPU utilization of the used machines (0..1), over the run.
    /// For Fig 13 it covers both topologies' machines, so the two rows
    /// share it.
    pub cpu_utilization: f64,
    /// Fig 13's timeouts and closing windows; `None` elsewhere.
    pub collapse: Option<Collapse>,
}

/// One topology's comparison in one figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The figure the row belongs to.
    pub figure: Figure,
    /// The topology's id.
    pub topology: String,
    /// The cluster preset's name in [`clusters`].
    pub cluster: &'static str,
    /// Simulated horizon in milliseconds.
    pub horizon_ms: f64,
    /// What the paper reports for the row.
    pub paper: &'static str,
    /// R-Storm, or the ablated variant.
    pub subject: Measured,
    /// Storm's default scheduler, or full R-Storm for the ablation.
    pub baseline: Measured,
}

impl Row {
    /// Subject over baseline on the figure's metric: mean used-machine
    /// CPU utilization for Fig 10, steady throughput otherwise. Not
    /// finite when the baseline measured zero.
    pub fn ratio(&self) -> f64 {
        match self.figure {
            Figure::Fig10 => self.subject.cpu_utilization / self.baseline.cpu_utilization,
            _ => self.subject.throughput / self.baseline.throughput,
        }
    }
}

/// The per-window throughput of one topology under R-Storm and under
/// the default scheduler, as the paper's figures plot it.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// The topology's id.
    pub topology: String,
    /// Window width in milliseconds.
    pub window_ms: f64,
    /// R-Storm's windows (tuples per window).
    pub rstorm: Vec<f64>,
    /// The default scheduler's windows.
    pub default: Vec<f64>,
}

/// One figure's rows and per-window series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FigureRun {
    /// The figure's rows.
    pub rows: Vec<Row>,
    /// The series of the figure's runs (none for Fig 10, which reuses
    /// Fig 9's runs, and none for the ablation).
    pub series: Vec<Series>,
}

/// Schedules `topologies` with `scheduler` in submission order on a
/// fresh cluster state, then simulates them with nothing else on
/// `cluster`.
pub fn run(
    scheduler: &dyn Scheduler,
    topologies: &[&Topology],
    cluster: &Arc<Cluster>,
    config: SimConfig,
) -> Result<SimReport, ScheduleError> {
    let plan = schedule_all(scheduler, topologies, cluster)?;
    Ok(simulate(&plan, topologies, cluster, config))
}

fn simulate(
    plan: &SchedulingPlan,
    topologies: &[&Topology],
    cluster: &Arc<Cluster>,
    config: SimConfig,
) -> SimReport {
    let mut sim = Simulation::new(Arc::clone(cluster), config);
    for topology in topologies {
        let assignment = plan.assignment(topology.id().as_str());
        sim.add_topology(topology, assignment.expect("every topology is placed"));
    }
    sim.run()
}

/// Every figure at its [`Figure::horizon_ms`]. Fig 10's rows read Fig
/// 9's runs.
pub fn table() -> Vec<Row> {
    let mut rows = Vec::new();
    for figure in Figure::ALL {
        let more = match figure {
            Figure::Fig10 => fig10_rows(&rows),
            _ => run_figure(figure, figure.horizon_ms()).rows,
        };
        rows.extend(more);
    }
    rows
}

/// Runs one figure at `horizon_ms` (the default seed).
///
/// # Panics
///
/// Panics if a scheduler cannot place a bundled workload; they all fit.
pub fn run_figure(figure: Figure, horizon_ms: f64) -> FigureRun {
    let config = SimConfig::default().with_sim_time_ms(horizon_ms);
    let cases = match figure {
        Figure::Fig8 => vec![
            (micro::linear_network_bound(), "+50%"),
            (micro::diamond_network_bound(), "+30%"),
            (micro::star_network_bound(), "+47%"),
        ],
        Figure::Fig9 => vec![
            (micro::linear_cpu_bound(), "equal, 6 vs 12 machines"),
            (micro::diamond_cpu_bound(), "equal, 7 vs 12 machines"),
            (micro::star_cpu_bound(), "much higher"),
        ],
        Figure::Fig10 => {
            let rows = fig10_rows(&run_figure(Figure::Fig9, horizon_ms).rows);
            return FigureRun {
                rows,
                ..FigureRun::default()
            };
        }
        Figure::Fig12 => vec![(yahoo::page_load(), "+50%"), (yahoo::processing(), "+47%")],
        Figure::Fig13 => return fig13(&config),
        Figure::Ablation => return ablation(&config),
    };
    let cluster = Arc::new(clusters::emulab_micro());
    let mut out = FigureRun::default();
    for (topology, paper) in cases {
        let id = topology.id().as_str();
        let [rstorm, default] = [
            &RStormScheduler::new() as &dyn Scheduler,
            &EvenScheduler::new(),
        ]
        .map(|s| placed(s, &[&topology], &cluster, &config));
        out.rows.push(Row {
            figure,
            topology: id.to_owned(),
            cluster: "emulab_micro",
            horizon_ms,
            paper,
            subject: measured("rstorm", &rstorm, id, false),
            baseline: measured("default", &default, id, false),
        });
        out.series.push(series(&rstorm, &default, id));
    }
    out
}

/// [`run`] for a bundled workload, which every scheduler can place.
fn placed(
    scheduler: &dyn Scheduler,
    topologies: &[&Topology],
    cluster: &Arc<Cluster>,
    config: &SimConfig,
) -> SimReport {
    run(scheduler, topologies, cluster, config.clone())
        .unwrap_or_else(|e| panic!("{} cannot place a bundled workload: {e}", scheduler.name()))
}

fn measured(scheduler: &'static str, report: &SimReport, topology: &str, fig13: bool) -> Measured {
    let collapse = fig13.then(|| {
        let windows = &report.throughput[topology].windows;
        let late = &windows[windows.len().saturating_sub(LATE_WINDOWS)..];
        Collapse {
            roots_timed_out: report.totals.roots_timed_out,
            spout_batches: report.totals.spout_batches,
            late_throughput: late.iter().sum::<f64>() / late.len() as f64,
        }
    });
    Measured {
        scheduler,
        throughput: report.steady_throughput(topology, WARMUP_WINDOWS),
        machines: report.used_nodes_by_topology[topology],
        cpu_utilization: report.mean_used_cpu_utilization.mean,
        collapse,
    }
}

fn series(rstorm: &SimReport, default: &SimReport, topology: &str) -> Series {
    let windows = &rstorm.throughput[topology];
    Series {
        topology: topology.to_owned(),
        window_ms: windows.window_ms,
        rstorm: windows.windows.clone(),
        default: default.throughput[topology].windows.clone(),
    }
}

fn fig10_rows(rows: &[Row]) -> Vec<Row> {
    let fig9 = rows.iter().filter(|r| r.figure == Figure::Fig9);
    fig9.zip(["+69%", "+91%", "+350%"])
        .map(|(r, paper)| Row {
            figure: Figure::Fig10,
            paper,
            ..r.clone()
        })
        .collect()
}

/// PageLoad and Processing submitted together to the 24-node cluster,
/// Processing first: the order matters to the resource-oblivious
/// baseline, whose later topology fills in around the earlier one.
fn fig13(config: &SimConfig) -> FigureRun {
    let cluster = Arc::new(clusters::emulab_multi());
    let (processing, page_load) = (yahoo::processing(), yahoo::page_load());
    let submitted = [&processing, &page_load];
    let rstorm = placed(&RStormScheduler::new(), &submitted, &cluster, config);
    let default = placed(&EvenScheduler::new(), &submitted, &cluster, config);
    let mut out = FigureRun::default();
    for (id, paper) in [("page-load", "+53%"), ("processing", "default ~0")] {
        out.rows.push(Row {
            figure: Figure::Fig13,
            topology: id.to_owned(),
            cluster: "emulab_multi",
            horizon_ms: config.sim_time_ms,
            paper,
            subject: measured("rstorm", &rstorm, id, true),
            baseline: measured("default", &default, id, true),
        });
        out.series.push(series(&rstorm, &default, id));
    }
    out
}

/// Each R-Storm variant and random placement against full R-Storm on the
/// rack-interleaved cluster. Variants that place a workload exactly as an
/// earlier one did reuse its run: the simulation depends only on the
/// placement, the cluster and the config.
fn ablation(config: &SimConfig) -> FigureRun {
    use TraversalOrder::{Bfs, Declaration, Dfs};
    let full = SoftConstraintWeights::default();
    let weight = |network| SoftConstraintWeights::new(1.0, 1.0, network);
    let mut variants: Vec<(&'static str, Box<dyn Scheduler>)> = [
        ("rstorm (bfs, full)", Bfs, full),
        ("rstorm (dfs)", Dfs, full),
        ("rstorm (declaration)", Declaration, full),
        ("rstorm (no network term)", Bfs, full.without_network()),
        ("rstorm (network weight 1)", Bfs, weight(1.0)),
        ("rstorm (network weight 100)", Bfs, weight(100.0)),
    ]
    .map(|(name, traversal, weights)| {
        let scheduler = RStormScheduler::with_config(RStormConfig { weights, traversal });
        (name, Box::new(scheduler) as Box<dyn Scheduler>)
    })
    .into();
    variants.push(("random placement", Box::new(RandomScheduler::seeded(7))));
    let cluster = Arc::new(clusters::emulab_micro_interleaved());
    let mut rows = Vec::new();
    for topology in [
        micro::linear_network_bound(),
        micro::diamond_network_bound(),
        micro::star_network_bound(),
        yahoo::page_load(),
    ] {
        let id = topology.id().as_str();
        let mut runs: Vec<(SchedulingPlan, SimReport)> = Vec::new();
        let mut sides = Vec::new();
        for (name, scheduler) in &variants {
            let plan = schedule_all(scheduler.as_ref(), &[&topology], &cluster)
                .unwrap_or_else(|e| panic!("{name} cannot place {id}: {e}"));
            let index = runs
                .iter()
                .position(|(p, _)| *p == plan)
                .unwrap_or_else(|| {
                    let report = simulate(&plan, &[&topology], &cluster, config.clone());
                    runs.push((plan, report));
                    runs.len() - 1
                });
            sides.push(measured(name, &runs[index].1, id, false));
        }
        rows.extend(sides.iter().map(|side| Row {
            figure: Figure::Ablation,
            topology: id.to_owned(),
            cluster: "emulab_micro_interleaved",
            horizon_ms: config.sim_time_ms,
            paper: "-",
            subject: side.clone(),
            baseline: sides[0].clone(),
        }));
    }
    FigureRun {
        rows,
        ..FigureRun::default()
    }
}

/// A ratio as a signed percentage change, rounded to a whole percent;
/// a change that rounds to zero prints `0%`, never `+0%` or `-0%`, and
/// a ratio that is not finite prints `n/a`.
fn change(ratio: f64) -> String {
    if !ratio.is_finite() {
        return "n/a".to_owned();
    }
    let text = format!("{:+.0}%", (ratio - 1.0) * 100.0);
    match text.as_str() {
        "+0%" | "-0%" => "0%".to_owned(),
        _ => text,
    }
}

fn side_cells(m: &Measured) -> Vec<String> {
    let mut cells = vec![
        m.scheduler.to_owned(),
        format!("{:.0}", m.throughput),
        m.machines.to_string(),
        format!("{:.0}%", m.cpu_utilization * 100.0),
    ];
    if let Some(c) = &m.collapse {
        cells.push(format!("{:.0}", c.late_throughput));
        cells.push(format!("{} of {}", c.roots_timed_out, c.spout_batches));
    }
    cells
}

/// Renders `rows` as one text table per figure, in row order: each
/// side's scheduler, steady throughput (tuples/10s), machines and mean
/// used-machine CPU, then the measured change on the figure's metric
/// (see [`Row::ratio`]) next to the paper's. Fig 13's tables add each
/// side's last-[`LATE_WINDOWS`] mean and its whole-run timed-out roots.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let mut rest = rows;
    while let Some(first) = rest.first() {
        let len = rest.iter().take_while(|r| r.figure == first.figure).count();
        let (group, tail) = rest.split_at(len);
        rest = tail;
        let (title, cluster) = (first.figure.labels().1, first.cluster);
        let horizon_s = first.horizon_ms / 1000.0;
        out.push_str(&format!("{title} ({cluster}, {horizon_s:.0} s)\n"));
        let mut side = vec!["tuples/10s", "machines", "cpu"];
        if first.subject.collapse.is_some() {
            side.extend(["last 6 windows", "timed out (whole run)"]);
        }
        let header: [&[&str]; 5] = [
            &["topology", "scheduler"],
            &side,
            &["baseline"],
            &side,
            &["measured", "paper"],
        ];
        let cells: Vec<Vec<String>> = group
            .iter()
            .map(|r| {
                let mut cells = vec![r.topology.clone()];
                cells.extend(side_cells(&r.subject));
                cells.extend(side_cells(&r.baseline));
                cells.extend([change(r.ratio()), r.paper.to_owned()]);
                cells
            })
            .collect();
        out.push_str(&text_table(&header.concat(), &cells));
        out.push('\n');
    }
    out
}

/// Renders each series as a table of windows: end time, then R-Storm's
/// and the default scheduler's tuples per window.
pub fn render_series(series: &[Series]) -> String {
    let mut out = String::new();
    for s in series {
        let window_s = s.window_ms / 1000.0;
        let windows = s.rstorm.iter().zip(&s.default).enumerate();
        let rows: Vec<Vec<String>> = windows
            .map(|(i, (r, d))| {
                let t = (i + 1) as f64 * window_s;
                vec![format!("{t:.0}"), format!("{r:.0}"), format!("{d:.0}")]
            })
            .collect();
        let header = ["t (s)", "r-storm (tuples/10s)", "default (tuples/10s)"];
        out.push_str(&format!("{} per {window_s:.0} s window\n", s.topology));
        out.push_str(&text_table(&header, &rows));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_names_round_trip_and_unknown_names_list_the_figures() {
        for figure in Figure::ALL {
            assert_eq!(figure.labels().0.parse::<Figure>(), Ok(figure));
        }
        for bad in ["7", "x", "", "Fig8"] {
            let err = bad.parse::<Figure>().unwrap_err().to_string();
            assert!(
                err.contains(&format!("`{bad}`")) && err.contains("8, 9, 10, 12, 13, ablation"),
                "{err}"
            );
        }
    }

    #[test]
    fn change_never_prints_a_signed_zero() {
        assert_eq!(change(1.0), "0%");
        assert_eq!(change(0.999), "0%");
        assert_eq!(change(1.004), "0%");
        assert_eq!(change(1.5), "+50%");
        assert_eq!(change(0.8), "-20%");
        assert_eq!(change(f64::INFINITY), "n/a");
        assert_eq!(change(f64::NAN), "n/a");
    }

    #[test]
    fn short_figure_runs_render_every_row() {
        let run = run_figure(Figure::Fig12, 30_000.0);
        assert_eq!(run.rows.len(), 2);
        assert_eq!(run.series.len(), 2);
        let text = render(&run.rows);
        assert!(text.starts_with("Fig 12"), "{text}");
        assert!(text.contains("page-load") && text.contains("processing"));
        let series = render_series(&run.series);
        assert!(series.contains("page-load per 10 s window"), "{series}");
        assert!(run.rows.iter().all(|r| r.ratio() > 1.0));
    }
}
