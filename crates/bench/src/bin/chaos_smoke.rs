//! Quick chaos-harness smoke test.
//!
//! Runs one crash-then-recover scenario (`rstorm_sim::run_crash_recover`)
//! on a fig8-scale micro case (Linear, network-bound) and the Yahoo
//! PageLoad layout, gates on fault-engine correctness, and writes the
//! recovery metrics plus wall-time numbers to `BENCH_chaos.json` in the
//! current directory.
//!
//! Two gates run per case before anything is timed:
//!
//! * **Parity** — a fast run with an *empty* [`FaultPlan`] must be
//!   bit-identical to the fault-free `ReferenceSimulation` (the fault
//!   hooks must cost nothing when unused, in bits as well as time).
//! * **Recovery** — the scenario must detect the crash and fully re-place
//!   the topology, with a clean verified plan.
//!
//! The timed comparison pits the fault-injected fast run against the
//! fault-free reference run: the reference engine models no faults, so
//! this measures what the outage scenario costs relative to the baseline
//! engine on the same workload.
//!
//! Run with `cargo run --release -p rstorm-bench --bin chaos_smoke`.

use rstorm_bench::harness::{median_ns, BenchReport};
use rstorm_bench::schedule_fresh;
use rstorm_core::{verify_plan, RStormScheduler, RecoveryConfig};
use rstorm_sim::{
    run_crash_recover, ChaosConfig, FaultPlan, ReferenceSimulation, SimConfig, Simulation,
};
use rstorm_workloads::cases::{fig8_cases, yahoo_cases, WorkloadCase};
use std::sync::Arc;
use std::time::Duration;

struct CaseResult {
    name: String,
    tasks: u32,
    nodes: u32,
    sim_ms: f64,
    crash_at_ms: f64,
    time_to_detect_ms: f64,
    time_to_recover_ms: f64,
    tuples_lost: u64,
    throughput_dip_depth: f64,
    reschedule_attempts: u64,
    fast_ns: u64,
    reference_ns: u64,
}

fn run_case(case: &WorkloadCase, budget: Duration) -> CaseResult {
    let cluster = Arc::new(case.cluster.clone());
    let assignment = schedule_fresh(&RStormScheduler::new(), &case.topology, &cluster);
    let config = SimConfig::quick();

    // Parity gate: unused fault hooks must be bit-free.
    let mut faultless = Simulation::new(Arc::clone(&cluster), config.clone());
    faultless.add_topology(&case.topology, &assignment);
    faultless.set_fault_plan(FaultPlan::new());
    let mut reference = ReferenceSimulation::new(Arc::clone(&cluster), config.clone());
    reference.add_topology(&case.topology, &assignment);
    assert_eq!(
        faultless.run(),
        reference.run(),
        "{}: empty fault plan diverges from the reference engine",
        case.name
    );

    // The scenario: crash the node hosting tasks a third of the way in,
    // heal it 15 s later.
    let victim = {
        let host = assignment.iter().next().unwrap().1.node.as_str().to_owned();
        host
    };
    let mut cfg = ChaosConfig::new(victim, 20_000.0, 35_000.0);
    cfg.sim = config.clone();
    cfg.recovery = RecoveryConfig::default();
    let out = run_crash_recover(&cluster, &case.topology, &cfg, &RStormScheduler::new())
        .expect("chaos scenario runs");

    // Recovery gate: detected, fully re-placed, clean plan.
    let obs = out.observations;
    assert!(
        obs.time_to_detect_ms > 0.0,
        "{}: crash undetected",
        case.name
    );
    assert!(
        obs.time_to_recover_ms >= obs.time_to_detect_ms,
        "{}: not fully recovered ({obs:?})",
        case.name
    );
    let violations = verify_plan(&out.plan, &[&case.topology], &cluster);
    assert!(violations.is_empty(), "{}: {violations:?}", case.name);

    let fast_ns = median_ns(
        || {
            let mut sim = Simulation::new(Arc::clone(&cluster), config.clone());
            sim.add_topology(&case.topology, &assignment);
            sim.set_fault_plan(sim_plan(&cfg, obs.time_to_detect_ms));
            sim
        },
        |sim| {
            std::hint::black_box(sim.run());
        },
        budget,
    );
    let reference_ns = median_ns(
        || {
            let mut sim = ReferenceSimulation::new(Arc::clone(&cluster), config.clone());
            sim.add_topology(&case.topology, &assignment);
            sim
        },
        |sim| {
            std::hint::black_box(sim.run());
        },
        budget,
    );

    CaseResult {
        name: case.name.to_string(),
        tasks: case.topology.task_set().len() as u32,
        nodes: cluster.nodes().len() as u32,
        sim_ms: config.sim_time_ms,
        crash_at_ms: obs.crash_at_ms,
        time_to_detect_ms: obs.time_to_detect_ms,
        time_to_recover_ms: obs.time_to_recover_ms,
        tuples_lost: obs.tuples_lost,
        throughput_dip_depth: obs.throughput_dip_depth,
        reschedule_attempts: obs.reschedule_attempts,
        fast_ns,
        reference_ns,
    }
}

/// The data-plane fault plan of the scenario, for re-timing: crash at the
/// configured time, workers back once the control plane re-placed.
fn sim_plan(cfg: &ChaosConfig, time_to_detect_ms: f64) -> FaultPlan {
    let mut plan = FaultPlan::new().crash_node(cfg.crash_at_ms, &cfg.victim);
    let resched_at = cfg.crash_at_ms + time_to_detect_ms;
    if resched_at > cfg.crash_at_ms {
        plan = plan.recover_node(resched_at, &cfg.victim);
    }
    plan
}

fn json_line(r: &CaseResult) -> String {
    let speedup = r.reference_ns as f64 / r.fast_ns as f64;
    format!(
        "{{\"name\": \"{}\", \"tasks\": {}, \"nodes\": {}, \"sim_ms\": {:.0}, \
         \"crash_at_ms\": {:.0}, \"time_to_detect_ms\": {:.0}, \
         \"time_to_recover_ms\": {:.0}, \"tuples_lost\": {}, \
         \"throughput_dip_depth\": {:.3}, \"reschedule_attempts\": {}, \
         \"fast_ns\": {}, \"reference_ns\": {}, \"speedup_vs_reference\": {speedup:.2}}}",
        r.name,
        r.tasks,
        r.nodes,
        r.sim_ms,
        r.crash_at_ms,
        r.time_to_detect_ms,
        r.time_to_recover_ms,
        r.tuples_lost,
        r.throughput_dip_depth,
        r.reschedule_attempts,
        r.fast_ns,
        r.reference_ns
    )
}

fn main() {
    let budget = Duration::from_millis(900);
    let mut report = BenchReport::new("crash-then-recover chaos scenario (quick sim)", "ns");

    let mut results = Vec::new();
    let linear = fig8_cases()
        .into_iter()
        .find(|c| c.name == "linear_net")
        .expect("linear_net case exists");
    results.push(run_case(&linear, budget));
    let yahoo = yahoo_cases();
    let page_load = yahoo
        .iter()
        .find(|c| c.name == "page_load")
        .expect("page_load case exists");
    results.push(run_case(page_load, budget));

    println!(
        "{:<12} {:>6} {:>6} {:>9} {:>9} {:>10} {:>7} {:>6} {:>9} {:>12} {:>9}",
        "case",
        "tasks",
        "nodes",
        "detect",
        "recover",
        "lost",
        "dip",
        "tries",
        "fast",
        "reference",
        "speedup"
    );
    for r in &results {
        println!(
            "{:<12} {:>6} {:>6} {:>7.0}ms {:>7.0}ms {:>10} {:>7.3} {:>6} {:>6.2}ms {:>9.2}ms {:>8.2}x",
            r.name,
            r.tasks,
            r.nodes,
            r.time_to_detect_ms,
            r.time_to_recover_ms,
            r.tuples_lost,
            r.throughput_dip_depth,
            r.reschedule_attempts,
            r.fast_ns as f64 / 1e6,
            r.reference_ns as f64 / 1e6,
            r.reference_ns as f64 / r.fast_ns as f64,
        );
    }

    for r in &results {
        report.push_case(json_line(r));
    }
    report.write("BENCH_chaos.json");
}
