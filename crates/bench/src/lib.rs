//! # rstorm-bench
//!
//! The experiment harness that regenerates every figure of the R-Storm
//! paper's evaluation (§6). Each figure has a binary:
//!
//! | binary | paper figure | experiment |
//! |---|---|---|
//! | `fig8` | Fig 8a–c | network-bound Linear/Diamond/Star throughput |
//! | `fig9` | Fig 9a–c | CPU-bound Linear/Diamond/Star throughput |
//! | `fig10` | Fig 10 | average CPU utilization comparison |
//! | `fig12` | Fig 12a–b | Yahoo PageLoad / Processing throughput |
//! | `fig13` | Fig 13 | multi-topology throughput on 24 nodes |
//! | `ablation` | (ours) | task-ordering / distance-term ablations |
//!
//! Run e.g. `cargo run --release -p rstorm-bench --bin fig8`. Every binary
//! accepts `--quick` for a shortened simulation (CI-friendly) and prints
//! the same series the paper plots plus a paper-vs-measured summary line.
//! Criterion benches (`cargo bench -p rstorm-bench`) cover scheduling
//! latency (§3's "snappy" requirement) and simulator event throughput,
//! each fast path next to its reference implementation.
//!
//! Nothing here gates a build. The planes' correctness pins are
//! `cargo test` tests (`tests/pins.rs`, `tests/sim_parity.rs` at the
//! repository root), and speed is judged by the benchmark of record
//! (`benchmark/`).

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use rstorm_cluster::Cluster;
use rstorm_core::schedulers::EvenScheduler;
use rstorm_core::{GlobalState, RStormScheduler, Scheduler};
use rstorm_metrics::text_table;
use rstorm_sim::{SimConfig, SimReport, Simulation};
use rstorm_topology::Topology;
use std::sync::Arc;

/// The paper runs each experiment for ~15 minutes; five simulated minutes
/// is comfortably past convergence for every workload here.
pub const FULL_SIM_MS: f64 = 300_000.0;
/// `--quick` simulation length.
pub const QUICK_SIM_MS: f64 = 90_000.0;
/// Warm-up windows to skip when averaging steady-state throughput.
pub const WARMUP_WINDOWS: usize = 2;

/// Returns the simulation config selected by the CLI args (`--quick`
/// shortens the run; `--seed N` replaces the default seed).
pub fn config_from_args() -> SimConfig {
    let args: Vec<String> = std::env::args().collect();
    let mut config = SimConfig::default().with_sim_time_ms(FULL_SIM_MS);
    if args.iter().any(|a| a == "--quick") {
        config = config.with_sim_time_ms(QUICK_SIM_MS);
    }
    if let Some(pos) = args.iter().position(|a| a == "--seed") {
        if let Some(seed) = args.get(pos + 1).and_then(|s| s.parse().ok()) {
            config = config.with_seed(seed);
        }
    }
    config
}

/// Schedules `topology` with `scheduler` on a fresh state and simulates
/// it alone on `cluster`. The cluster is shared via `Arc` — harness loops
/// that simulate many schedules never deep-copy it.
///
/// # Panics
///
/// Panics if scheduling fails — the bundled workloads are all feasible.
pub fn simulate_single(
    scheduler: &dyn Scheduler,
    topology: &Topology,
    cluster: &Arc<Cluster>,
    config: SimConfig,
) -> SimReport {
    let mut sim = Simulation::new(Arc::clone(cluster), config);
    sim.add_topology(topology, &schedule_fresh(scheduler, topology, cluster));
    sim.run()
}

/// Schedules `topology` with `scheduler` on a fresh [`GlobalState`].
///
/// # Panics
///
/// Panics if scheduling fails — the bundled workloads are all feasible.
pub fn schedule_fresh(
    scheduler: &dyn Scheduler,
    topology: &Topology,
    cluster: &Cluster,
) -> rstorm_core::Assignment {
    let mut state = GlobalState::new(cluster);
    scheduler
        .schedule(topology, cluster, &mut state)
        .unwrap_or_else(|e| {
            panic!(
                "{} cannot schedule {}: {e}",
                scheduler.name(),
                topology.id()
            )
        })
}

/// R-Storm vs default-Storm runs of the same topology on the same cluster.
#[derive(Debug)]
pub struct Comparison {
    /// Simulation of the R-Storm schedule.
    pub rstorm: SimReport,
    /// Simulation of the default (even) schedule.
    pub default: SimReport,
    /// The compared topology's id.
    pub topology: String,
}

impl Comparison {
    /// Runs both schedulers on `topology`.
    pub fn run(topology: &Topology, cluster: &Arc<Cluster>, config: SimConfig) -> Self {
        let rstorm = simulate_single(&RStormScheduler::new(), topology, cluster, config.clone());
        let default = simulate_single(&EvenScheduler::new(), topology, cluster, config);
        Self {
            rstorm,
            default,
            topology: topology.id().as_str().to_owned(),
        }
    }

    /// Steady-state mean throughput under R-Storm (tuples per window).
    pub fn rstorm_throughput(&self) -> f64 {
        self.rstorm
            .steady_throughput(&self.topology, WARMUP_WINDOWS)
    }

    /// Steady-state mean throughput under the default scheduler.
    pub fn default_throughput(&self) -> f64 {
        self.default
            .steady_throughput(&self.topology, WARMUP_WINDOWS)
    }

    /// Relative throughput improvement of R-Storm, as a percentage
    /// (+50.0 means 50% higher); infinite if the default collapsed to
    /// zero.
    pub fn improvement_pct(&self) -> f64 {
        let d = self.default_throughput();
        if d == 0.0 {
            f64::INFINITY
        } else {
            (self.rstorm_throughput() / d - 1.0) * 100.0
        }
    }

    /// Renders the per-window timeline table the paper's figures plot
    /// (time on the x axis, tuples/10 s per scheduler on the y axis).
    pub fn timeline_table(&self) -> String {
        let r = &self.rstorm.throughput[&self.topology].windows;
        let d = &self.default.throughput[&self.topology].windows;
        let window_s = self.rstorm.throughput[&self.topology].window_ms / 1000.0;
        let rows: Vec<Vec<String>> = r
            .iter()
            .zip(d)
            .enumerate()
            .map(|(i, (rv, dv))| {
                vec![
                    format!("{:.0}", (i + 1) as f64 * window_s),
                    format!("{rv:.0}"),
                    format!("{dv:.0}"),
                ]
            })
            .collect();
        text_table(
            &["t (s)", "r-storm (tuples/10s)", "default (tuples/10s)"],
            &rows,
        )
    }

    /// One-line summary: throughputs, improvement, machines used.
    pub fn summary_line(&self) -> String {
        format!(
            "{}: r-storm {:.0} vs default {:.0} tuples/10s ({:+.0}%), \
             machines {} vs {}, mean latency {:.1} vs {:.1} ms",
            self.topology,
            self.rstorm_throughput(),
            self.default_throughput(),
            self.improvement_pct(),
            self.rstorm.used_nodes_by_topology[&self.topology],
            self.default.used_nodes_by_topology[&self.topology],
            self.rstorm.latency_ms.mean,
            self.default.latency_ms.mean,
        )
    }
}

/// Prints the standard figure header.
pub fn figure_header(figure: &str, claim: &str) {
    println!("==================================================================");
    println!("{figure}");
    println!("paper: {claim}");
    println!("==================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstorm_workloads::{clusters, micro};

    #[test]
    fn comparison_runs_and_reports() {
        let cluster = Arc::new(clusters::emulab_micro());
        let t = micro::linear_network_bound();
        let c = Comparison::run(
            &t,
            &cluster,
            SimConfig::default().with_sim_time_ms(40_000.0),
        );
        assert!(c.rstorm_throughput() > 0.0);
        assert!(c.default_throughput() > 0.0);
        let table = c.timeline_table();
        assert!(table.contains("r-storm"));
        assert!(c.summary_line().contains("linear-net"));
    }
}
