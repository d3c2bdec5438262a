//! Scale-plane smoke benchmark: the 10k-task / 1k-node case.
//!
//! One case, written to `BENCH_scale.json`: **`scale/base`**, the plain
//! scale topology, fast engine vs the string-keyed `ReferenceSimulation`
//! (identical reports asserted before timing), reported as
//! `speedup_vs_reference` like the other smoke bins. The churn variant is
//! timed by the benchmark of record's `scale_churn` workload.
//!
//! `SCALE_SMOKE_HORIZON_MS` trims the simulated horizon (default
//! 60 000 ms — one tenth of the workload's full 10-minute case — so the
//! reference engine stays affordable; CI trims further).
//!
//! Run with `cargo run --release -p rstorm-bench --bin scale_smoke`.

use rstorm_bench::harness::{median_ns, BenchReport};
use rstorm_bench::schedule_fresh;
use rstorm_core::RStormScheduler;
use rstorm_sim::{ReferenceSimulation, SimConfig, Simulation};
use rstorm_workloads::scale::{scale_cluster, scale_topology, SCALE_NODES, SCALE_TASKS};
use std::sync::Arc;
use std::time::Duration;

fn horizon_ms() -> f64 {
    std::env::var("SCALE_SMOKE_HORIZON_MS")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|h| h.is_finite() && *h > 0.0)
        .unwrap_or(60_000.0)
}

fn main() {
    let horizon = horizon_ms();
    let budget = Duration::from_millis(1500);
    let topology = scale_topology(SCALE_TASKS);
    let cluster = Arc::new(scale_cluster(SCALE_NODES));
    let config = SimConfig::default().with_sim_time_ms(horizon);
    let mut report = BenchReport::new("scale plane wall time (median per full run)", "ns");

    // ---- scale/base: fast engine vs reference oracle ------------------
    let assignment = schedule_fresh(&RStormScheduler::new(), &topology, &cluster);
    let build_fast = || {
        let mut sim = Simulation::new(Arc::clone(&cluster), config.clone());
        sim.add_topology(&topology, &assignment);
        sim
    };
    let build_reference = || {
        let mut sim = ReferenceSimulation::new(Arc::clone(&cluster), config.clone());
        sim.add_topology(&topology, &assignment);
        sim
    };
    let fast_report = build_fast().run();
    let reference_report = build_reference().run();
    assert_eq!(
        fast_report, reference_report,
        "scale/base: fast and reference engines disagree"
    );
    let fast_ns = median_ns(
        build_fast,
        |sim| {
            std::hint::black_box(sim.run());
        },
        budget,
    );
    let reference_ns = median_ns(
        build_reference,
        |sim| {
            std::hint::black_box(sim.run());
        },
        budget,
    );
    let base_speedup = reference_ns as f64 / fast_ns as f64;
    println!(
        "scale/base   {} tasks on {} nodes, {:.0} sim-s, {} events: \
         fast {:.2} ms vs reference {:.2} ms ({base_speedup:.2}x)",
        SCALE_TASKS,
        SCALE_NODES,
        horizon / 1000.0,
        fast_report.debug.events,
        fast_ns as f64 / 1e6,
        reference_ns as f64 / 1e6,
    );
    report.push_case(format!(
        "{{\"name\": \"scale/base\", \"tasks\": {SCALE_TASKS}, \"nodes\": {SCALE_NODES}, \
         \"sim_ms\": {horizon:.0}, \"events\": {}, \"fast_ns\": {fast_ns}, \
         \"reference_ns\": {reference_ns}, \"speedup_vs_reference\": {base_speedup:.2}}}",
        fast_report.debug.events
    ));

    report.write("BENCH_scale.json");
}
