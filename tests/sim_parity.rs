//! Fast-engine / reference-engine parity: the dense-id, slab-pooled
//! `Simulation` must produce reports **identical** to the string-keyed
//! `ReferenceSimulation` on every bundled workload — same totals, same
//! per-window throughput, same latency bits, same event count. Both
//! engines read one target list per (component, subscription), shared by
//! every task of the component, and derive each emission's link kind and
//! latency from where the two tasks sit. Any hot-path "optimization" that
//! changes a single event ordering, RNG draw, or float-summation order
//! fails here.
//!
//! The 600 s Linear case costs minutes in a debug build, so it only runs
//! with optimisations: `cargo test --release -q --test sim_parity`.

use rstorm::prelude::*;
use rstorm::workloads::cases::{fig8_cases, yahoo_cases, WorkloadCase};
use rstorm::workloads::{clusters, yahoo};
use rstorm_sim::oracle::ReferenceSimulation;
use std::sync::Arc;

fn schedule(topology: &Topology, cluster: &Cluster) -> Assignment {
    RStormScheduler::new()
        .schedule(topology, cluster, &mut GlobalState::new(cluster))
        .unwrap_or_else(|e| panic!("{}: {e}", topology.id()))
}

fn assert_parity(name: &str, build: impl Fn() -> (Simulation, ReferenceSimulation)) {
    let (fast, reference) = build();
    let fast_report = fast.run();
    let reference_report = reference.run();
    assert_eq!(
        fast_report, reference_report,
        "{name}: fast and reference engines disagree"
    );
    // The equality above deliberately excludes debug counters; pin the
    // strongest shared one explicitly. The reference engine queues every
    // root's timeout and pops the dead ones; the fast engine never
    // queues the timeout of a root that completed.
    assert_eq!(
        fast_report.debug.events + fast_report.debug.timeouts_retired,
        reference_report.debug.events,
        "{name}: engines processed different event counts"
    );
    assert_eq!(
        fast_report.to_json(),
        reference_report.to_json(),
        "{name}: serialized reports differ"
    );
    // And the fast engine must actually be exercising its slab pool —
    // a parity test against an engine that silently fell back to fresh
    // allocations would prove nothing about the fast path.
    assert!(
        fast_report.debug.root_pool_hits > 0,
        "{name}: root slab pool never re-used a slot"
    );
}

fn assert_case_parity(case: &WorkloadCase, config: &SimConfig, name: &str) {
    let cluster = Arc::new(case.cluster.clone());
    let assignment = schedule(&case.topology, &cluster);
    assert_parity(name, || {
        let mut fast = Simulation::new(Arc::clone(&cluster), config.clone());
        fast.add_topology(&case.topology, &assignment);
        let mut reference = ReferenceSimulation::new(Arc::clone(&cluster), config.clone());
        reference.add_topology(&case.topology, &assignment);
        (fast, reference)
    });
}

#[test]
fn micro_and_yahoo_cases_are_bit_identical() {
    let config = SimConfig::quick().with_sim_time_ms(20_000.0);
    for case in fig8_cases().into_iter().chain(yahoo_cases()) {
        assert_case_parity(&case, &config, case.name);
    }
}

#[test]
fn micro_and_page_load_cases_are_bit_identical_at_the_quick_horizon() {
    let config = SimConfig::quick();
    let page_load = yahoo_cases().into_iter().filter(|c| c.name == "page_load");
    for case in fig8_cases().into_iter().chain(page_load) {
        assert_case_parity(&case, &config, case.name);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: CI runs it in the release test step"
)]
fn linear_net_is_bit_identical_over_a_long_horizon() {
    let case = fig8_cases()
        .into_iter()
        .find(|c| c.name == "linear_net")
        .expect("linear_net case exists");
    let config = SimConfig::quick().with_sim_time_ms(600_000.0);
    assert_case_parity(&case, &config, "linear_net_long");
}

#[test]
fn multi_topology_contention_is_bit_identical() {
    // Two topologies sharing one 24-node cluster (the fig13 layout):
    // cross-topology CPU contention and interleaved event streams are
    // where engine reorderings would surface first.
    let cluster = Arc::new(clusters::emulab_multi());
    let page_load = yahoo::page_load();
    let processing = yahoo::processing();
    let plan = schedule_all(
        &RStormScheduler::new(),
        &[&processing, &page_load],
        &cluster,
    )
    .expect("fig13 layout is feasible");
    let config = SimConfig::quick().with_sim_time_ms(20_000.0);
    assert_parity("multi_topology", || {
        let mut fast = Simulation::new(Arc::clone(&cluster), config.clone());
        let mut reference = ReferenceSimulation::new(Arc::clone(&cluster), config.clone());
        for t in [&page_load, &processing] {
            let assignment = plan.assignment(t.id().as_str()).unwrap();
            fast.add_topology(t, assignment);
            reference.add_topology(t, assignment);
        }
        (fast, reference)
    });
}

#[test]
fn parity_holds_across_seeds() {
    let case = &fig8_cases()[0];
    let cluster = Arc::new(case.cluster.clone());
    let assignment = schedule(&case.topology, &cluster);
    for seed in [1u64, 7, 42] {
        let config = SimConfig::quick()
            .with_sim_time_ms(15_000.0)
            .with_seed(seed);
        assert_parity(&format!("{}@seed{seed}", case.name), || {
            let mut fast = Simulation::new(Arc::clone(&cluster), config.clone());
            fast.add_topology(&case.topology, &assignment);
            let mut reference = ReferenceSimulation::new(Arc::clone(&cluster), config.clone());
            reference.add_topology(&case.topology, &assignment);
            (fast, reference)
        });
    }
}
