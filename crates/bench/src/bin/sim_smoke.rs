//! Quick simulator-performance smoke test.
//!
//! Where the criterion benches (`cargo bench -p rstorm-bench`) produce
//! statistically careful numbers, this binary answers one question fast:
//! how much quicker is the dense-id/slab/precomputed-routing `Simulation`
//! than the string-keyed `ReferenceSimulation` it is bit-for-bit
//! equivalent to? It runs the fig8-scale micro benchmarks (Linear,
//! Diamond, Star, network-bound) and the Yahoo PageLoad layout at
//! `SimConfig::quick()`, plus one long-horizon case, verifies per case
//! that both engines produce identical reports, reports median wall time
//! per run and ns per simulated second, and writes the results to
//! `BENCH_sim.json` in the current directory.
//!
//! Run with `cargo run --release -p rstorm-bench --bin sim_smoke`.

use rstorm_bench::harness::{median_ns, BenchReport};
use rstorm_bench::schedule_fresh;
use rstorm_cluster::Cluster;
use rstorm_core::{Assignment, RStormScheduler};
use rstorm_sim::{ReferenceSimulation, SimConfig, Simulation};
use rstorm_topology::Topology;
use rstorm_workloads::cases::{fig8_cases, yahoo_cases, WorkloadCase};
use std::sync::Arc;
use std::time::Duration;

struct CaseResult {
    name: String,
    tasks: u32,
    nodes: u32,
    sim_ms: f64,
    events: u64,
    fast_ns: u64,
    reference_ns: u64,
}

fn time_case(
    name: &str,
    topology: &Topology,
    cluster: &Arc<Cluster>,
    assignment: &Assignment,
    config: &SimConfig,
    budget: Duration,
) -> CaseResult {
    let build_fast = || {
        let mut sim = Simulation::new(Arc::clone(cluster), config.clone());
        sim.add_topology(topology, assignment);
        sim
    };
    let build_reference = || {
        let mut sim = ReferenceSimulation::new(Arc::clone(cluster), config.clone());
        sim.add_topology(topology, assignment);
        sim
    };

    // Parity gate: a fast engine that diverges from the reference is not
    // worth timing.
    let fast_report = build_fast().run();
    let reference_report = build_reference().run();
    assert_eq!(
        fast_report, reference_report,
        "{name}: fast and reference engines disagree"
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
    CaseResult {
        name: name.to_string(),
        tasks: topology.task_set().len() as u32,
        nodes: cluster.nodes().len() as u32,
        sim_ms: config.sim_time_ms,
        events: fast_report.debug.events,
        fast_ns,
        reference_ns,
    }
}

fn run_case(case: &WorkloadCase, config: &SimConfig, budget: Duration, suffix: &str) -> CaseResult {
    let cluster = Arc::new(case.cluster.clone());
    let assignment = schedule_fresh(&RStormScheduler::new(), &case.topology, &cluster);
    time_case(
        &format!("{}{suffix}", case.name),
        &case.topology,
        &cluster,
        &assignment,
        config,
        budget,
    )
}

fn json_line(r: &CaseResult) -> String {
    let speedup = r.reference_ns as f64 / r.fast_ns as f64;
    let ns_per_sim_s = r.fast_ns as f64 / (r.sim_ms / 1000.0);
    format!(
        "{{\"name\": \"{}\", \"tasks\": {}, \"nodes\": {}, \"sim_ms\": {:.0}, \
         \"events\": {}, \"fast_ns\": {}, \"reference_ns\": {}, \
         \"fast_ns_per_sim_second\": {:.0}, \"speedup_vs_reference\": {speedup:.2}}}",
        r.name, r.tasks, r.nodes, r.sim_ms, r.events, r.fast_ns, r.reference_ns, ns_per_sim_s
    )
}

fn main() {
    // Per-engine-per-case sampling budget; 6 cases × 2 engines keeps the
    // whole run under ~30 s in release.
    let budget = Duration::from_millis(900);
    let mut report = BenchReport::new("simulation wall time (median per full run)", "ns");
    let quick = SimConfig::quick();
    // One long-horizon case: steady state dominates, which is where the
    // pooled slab and dense routing pay off most.
    let long = SimConfig::quick().with_sim_time_ms(600_000.0);

    let mut results = Vec::new();
    for case in fig8_cases() {
        results.push(run_case(&case, &quick, budget, ""));
    }
    let yahoo = yahoo_cases();
    let page_load = yahoo
        .iter()
        .find(|c| c.name == "page_load")
        .expect("page_load case exists");
    results.push(run_case(page_load, &quick, budget, ""));
    let linear = fig8_cases()
        .into_iter()
        .find(|c| c.name == "linear_net")
        .expect("linear_net case exists");
    results.push(run_case(&linear, &long, budget, "_long"));

    println!(
        "{:<18} {:>6} {:>6} {:>9} {:>10} {:>12} {:>12} {:>14} {:>9}",
        "case", "tasks", "nodes", "sim_s", "events", "fast", "reference", "ns/sim-s", "speedup"
    );
    for r in &results {
        println!(
            "{:<18} {:>6} {:>6} {:>9.0} {:>10} {:>9.2} ms {:>9.2} ms {:>14.0} {:>8.2}x",
            r.name,
            r.tasks,
            r.nodes,
            r.sim_ms / 1000.0,
            r.events,
            r.fast_ns as f64 / 1e6,
            r.reference_ns as f64 / 1e6,
            r.fast_ns as f64 / (r.sim_ms / 1000.0),
            r.reference_ns as f64 / r.fast_ns as f64,
        );
    }

    for r in &results {
        report.push_case(json_line(r));
    }
    report.write("BENCH_sim.json");
}
