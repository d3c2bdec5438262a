//! Quick scheduling-performance smoke test (< 30 s end to end).
//!
//! Where the criterion benches (`cargo bench -p rstorm-bench`) produce
//! statistically careful numbers, this binary answers one question fast:
//! how much quicker is the indexed/undo-log `RStormScheduler` than the
//! scan/clone `ReferenceRStormScheduler` it is bit-for-bit equivalent to?
//! It times the same four topology/cluster sizes as the criterion
//! `schedule` group, the scale plane's 10k-task / 1k-node case (20 racks
//! of 50, where node selection's per-rack memo does most of its work) and
//! the reschedule-after-node-failure scenario, reports median wall time
//! per schedule, and writes the results to `BENCH_sched.json` in the
//! current directory.
//!
//! Run with `cargo run --release -p rstorm-bench --bin perf_smoke`.

use rstorm_cluster::{Cluster, ClusterBuilder, ResourceCapacity};
use rstorm_core::schedulers::EvenScheduler;
use rstorm_core::{GlobalState, RStormScheduler, ReferenceRStormScheduler, Scheduler};
use rstorm_topology::{Topology, TopologyBuilder};
use rstorm_workloads::scale::{scale_cluster, scale_topology};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A linear topology with `stages` components of `parallelism` tasks
/// (matching the criterion bench's workload).
fn chain(stages: u32, parallelism: u32) -> Topology {
    let mut b = TopologyBuilder::new(format!("chain-{stages}x{parallelism}"));
    b.set_spout("c0", parallelism)
        .set_cpu_load(10.0)
        .set_memory_load(64.0);
    for i in 1..stages {
        b.set_bolt(format!("c{i}"), parallelism)
            .shuffle_grouping(format!("c{}", i - 1))
            .set_cpu_load(10.0)
            .set_memory_load(64.0);
    }
    b.build().expect("valid")
}

fn cluster(racks: u32, nodes_per_rack: u32) -> Cluster {
    ClusterBuilder::new()
        .homogeneous_racks(
            racks,
            nodes_per_rack,
            ResourceCapacity::for_machine(16, 65536.0),
            4,
        )
        .build()
        .expect("valid")
}

/// Samples per timer for the regular cases.
const MIN_ITERS: usize = 3;

/// Median wall time of `timed`, with per-sample state built by `setup`
/// outside the timed region. Runs at least `min_iters` samples and keeps
/// sampling until `budget` is spent (whichever is later), capped at
/// `MAX_ITERS`.
fn median_ns<T>(
    mut setup: impl FnMut() -> T,
    mut timed: impl FnMut(T),
    budget: Duration,
    min_iters: usize,
) -> u64 {
    const MAX_ITERS: usize = 200;
    // One untimed warmup to populate allocator caches and branch
    // predictors.
    timed(setup());
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < MAX_ITERS && (samples.len() < min_iters || started.elapsed() < budget) {
        let input = setup();
        let t0 = Instant::now();
        timed(input);
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

struct CaseResult {
    name: String,
    tasks: u32,
    nodes: u32,
    rstorm_ns: u64,
    reference_ns: u64,
    even_ns: u64,
}

fn time_schedulers(
    name: &str,
    topology: &Topology,
    cl: &Cluster,
    budget: Duration,
    min_iters: usize,
) -> CaseResult {
    let tasks = topology.task_set().len() as u32;
    let nodes = cl.nodes().len() as u32;
    let rstorm_ns = median_ns(
        || GlobalState::new(cl),
        |mut state| {
            RStormScheduler::new()
                .schedule(topology, cl, &mut state)
                .expect("feasible");
        },
        budget,
        min_iters,
    );
    let reference_ns = median_ns(
        || GlobalState::new(cl),
        |mut state| {
            ReferenceRStormScheduler::new()
                .schedule(topology, cl, &mut state)
                .expect("feasible");
        },
        budget,
        min_iters,
    );
    let even_ns = median_ns(
        || GlobalState::new(cl),
        |mut state| {
            EvenScheduler::new()
                .schedule(topology, cl, &mut state)
                .expect("feasible");
        },
        budget,
        min_iters,
    );
    CaseResult {
        name: name.to_string(),
        tasks,
        nodes,
        rstorm_ns,
        reference_ns,
        even_ns,
    }
}

/// The operationally critical path: a node dies, its topology must be
/// released and replaced on the survivors.
fn time_reschedule(budget: Duration) -> CaseResult {
    let topology = chain(5, 40);
    let base = cluster(2, 12);
    let nodes = base.nodes().len() as u32;
    let tasks = topology.task_set().len() as u32;
    let reschedule = |scheduler: &dyn Scheduler| {
        let mut killed = base.clone();
        let mut state = GlobalState::new(&killed);
        scheduler
            .schedule(&topology, &killed, &mut state)
            .expect("feasible");
        killed.kill_node("rack-0-node-0");
        (killed, state)
    };
    let run = |scheduler: &dyn Scheduler, (cl, mut state): (Cluster, GlobalState)| {
        for t in state.handle_node_failure("rack-0-node-0") {
            state.release_topology(t.as_str());
        }
        scheduler
            .schedule(&topology, &cl, &mut state)
            .expect("survivors suffice");
    };
    let fast = RStormScheduler::new();
    let reference = ReferenceRStormScheduler::new();
    let rstorm_ns = median_ns(
        || reschedule(&fast),
        |input| run(&fast, input),
        budget,
        MIN_ITERS,
    );
    let reference_ns = median_ns(
        || reschedule(&reference),
        |input| run(&reference, input),
        budget,
        MIN_ITERS,
    );
    CaseResult {
        name: "reschedule_after_node_failure".to_string(),
        tasks,
        nodes,
        rstorm_ns,
        reference_ns,
        even_ns: 0,
    }
}

fn write_json(results: &[CaseResult]) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"scheduling latency (median wall time per schedule)\",\n  \"unit\": \"ns\",\n  \"cases\": [\n");
    for (i, r) in results.iter().enumerate() {
        let speedup = r.reference_ns as f64 / r.rstorm_ns as f64;
        write!(
            out,
            "    {{\"name\": \"{}\", \"tasks\": {}, \"nodes\": {}, \
             \"rstorm_ns\": {}, \"rstorm_reference_ns\": {}, ",
            r.name, r.tasks, r.nodes, r.rstorm_ns, r.reference_ns
        )
        .unwrap();
        if r.even_ns > 0 {
            write!(out, "\"even_ns\": {}, ", r.even_ns).unwrap();
        }
        write!(out, "\"speedup_vs_reference\": {speedup:.2}}}").unwrap();
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    // Per-scheduler-per-case sampling budget for the regular cases; the
    // 10k×1k case below runs each scheduler twice instead.
    let budget = Duration::from_millis(800);
    let started = Instant::now();

    let mut results = Vec::new();
    for (stages, parallelism, racks, nodes) in [
        (4u32, 10u32, 2u32, 6u32),
        (5, 40, 2, 12),
        (10, 100, 4, 16),
        (20, 500, 8, 32),
    ] {
        let topology = chain(stages, parallelism);
        let cl = cluster(racks, nodes);
        let tasks = stages * parallelism;
        let name = format!("schedule/{tasks}t_{}n", racks * nodes);
        results.push(time_schedulers(&name, &topology, &cl, budget, MIN_ITERS));
    }
    // The reference needs about a second per schedule at this size, so
    // one sample after the warmup keeps the bin quick; the gap is more
    // than an order of magnitude.
    results.push(time_schedulers(
        "schedule/10000t_1000n",
        &scale_topology(10_000),
        &scale_cluster(1_000),
        Duration::ZERO,
        1,
    ));
    results.push(time_reschedule(budget));

    println!(
        "{:<32} {:>8} {:>6} {:>14} {:>14} {:>12} {:>9}",
        "case", "tasks", "nodes", "rstorm", "reference", "even", "speedup"
    );
    for r in &results {
        let even = if r.even_ns > 0 {
            format!("{:>9.3} ms", r.even_ns as f64 / 1e6)
        } else {
            format!("{:>12}", "-")
        };
        println!(
            "{:<32} {:>8} {:>6} {:>11.3} ms {:>11.3} ms {} {:>8.2}x",
            r.name,
            r.tasks,
            r.nodes,
            r.rstorm_ns as f64 / 1e6,
            r.reference_ns as f64 / 1e6,
            even,
            r.reference_ns as f64 / r.rstorm_ns as f64,
        );
    }

    let json = write_json(&results);
    std::fs::write("BENCH_sched.json", &json).expect("write BENCH_sched.json");
    println!(
        "\nwrote BENCH_sched.json ({} cases) in {:.1} s",
        results.len(),
        started.elapsed().as_secs_f64()
    );
}
