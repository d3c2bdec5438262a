//! Quick adaptive-rebalance smoke test.
//!
//! Runs the full profile → detect → migrate pipeline
//! (`rstorm_sim::run_adaptive_rebalance`) on the drifted-declaration
//! workloads, gates on adaptive-plane correctness, and writes the
//! net-throughput comparison to `BENCH_adaptive.json` in the current
//! directory.
//!
//! Gates per case:
//!
//! * **Detection** — the under-declared hot component must be flagged and
//!   at least one node must run saturated.
//! * **Minimality** — the delta scheduler's plan must not move more tasks
//!   than a reschedule-from-scratch of the refined topology would.
//! * **Net win** — the adaptive run must complete strictly more tuples
//!   than the static run over the same horizon, *net* of the per-task
//!   pause/drain/restore cost the migration pays mid-run.
//!
//! `speedup_vs_reference` is `adaptive_net / static_net`, so the shared
//! `bench_guard` threshold (default 1.0) enforces "adaptive at least as
//! good as static on every drifted case".
//!
//! Run with `cargo run --release -p rstorm-bench --bin adaptive_smoke`.

use rstorm_bench::harness::BenchReport;
use rstorm_sim::{run_adaptive_rebalance, AdaptiveConfig};
use rstorm_workloads::cases::{drifted_cases, WorkloadCase};
use std::sync::Arc;

struct CaseResult {
    name: String,
    tasks: u32,
    nodes: u32,
    sim_ms: f64,
    drifted_components: usize,
    plan_moves: usize,
    reschedule_moves: usize,
    static_net: u64,
    adaptive_net: u64,
    rescheduled_net: u64,
}

fn run_case(case: &WorkloadCase) -> CaseResult {
    let cluster = Arc::new(case.cluster.clone());
    let cfg = AdaptiveConfig::quick();
    let out =
        run_adaptive_rebalance(&cluster, &case.topology, &cfg).expect("adaptive scenario runs");

    // Detection gate: the drift these workloads embed must be seen.
    assert!(
        !out.drift.is_clean(),
        "{}: no drift detected on a drifted workload",
        case.name
    );
    assert!(
        !out.drift.saturated_nodes.is_empty(),
        "{}: no node saturated despite the packed hot component ({:?})",
        case.name,
        out.profile_report.node_utilization
    );

    // Minimality gate: the whole point of the delta scheduler.
    assert!(!out.plan.is_empty(), "{}: empty migration plan", case.name);
    assert!(
        out.plan.len() <= out.rescheduled_moves,
        "{}: delta plan moves {} tasks, full reschedule only {}",
        case.name,
        out.plan.len(),
        out.rescheduled_moves
    );

    // Net-win gate: migration must pay for itself inside the horizon.
    assert!(
        out.adaptive_net() > out.static_net(),
        "{}: adaptive {} <= static {} net tuples",
        case.name,
        out.adaptive_net(),
        out.static_net()
    );

    CaseResult {
        name: case.name.to_string(),
        tasks: case.topology.task_set().len() as u32,
        nodes: cluster.nodes().len() as u32,
        sim_ms: cfg.sim.sim_time_ms,
        drifted_components: out.drift.drifted.len(),
        plan_moves: out.plan.len(),
        reschedule_moves: out.rescheduled_moves,
        static_net: out.static_net(),
        adaptive_net: out.adaptive_net(),
        rescheduled_net: out.rescheduled_net(),
    }
}

fn json_line(r: &CaseResult) -> String {
    let speedup = r.adaptive_net as f64 / r.static_net as f64;
    format!(
        "{{\"name\": \"{}\", \"tasks\": {}, \"nodes\": {}, \"sim_ms\": {:.0}, \
         \"drifted_components\": {}, \"plan_moves\": {}, \"reschedule_moves\": {}, \
         \"static_net\": {}, \"adaptive_net\": {}, \"rescheduled_net\": {}, \
         \"speedup_vs_reference\": {speedup:.2}}}",
        r.name,
        r.tasks,
        r.nodes,
        r.sim_ms,
        r.drifted_components,
        r.plan_moves,
        r.reschedule_moves,
        r.static_net,
        r.adaptive_net,
        r.rescheduled_net
    )
}

fn main() {
    let mut report = BenchReport::new(
        "adaptive rebalance vs static placement (quick sim)",
        "tuples",
    );
    let results: Vec<CaseResult> = drifted_cases().iter().map(run_case).collect();

    println!(
        "{:<12} {:>6} {:>6} {:>8} {:>6} {:>8} {:>10} {:>10} {:>12} {:>8}",
        "case",
        "tasks",
        "nodes",
        "drifted",
        "moves",
        "resched",
        "static",
        "adaptive",
        "rescheduled",
        "gain"
    );
    for r in &results {
        println!(
            "{:<12} {:>6} {:>6} {:>8} {:>6} {:>8} {:>10} {:>10} {:>12} {:>7.2}x",
            r.name,
            r.tasks,
            r.nodes,
            r.drifted_components,
            r.plan_moves,
            r.reschedule_moves,
            r.static_net,
            r.adaptive_net,
            r.rescheduled_net,
            r.adaptive_net as f64 / r.static_net as f64,
        );
    }

    for r in &results {
        report.push_case(json_line(r));
    }
    report.write("BENCH_adaptive.json");
}
