//! Simulator event-throughput benchmarks: how much simulated time per
//! wall-clock second the discrete-event engine delivers on the standard
//! workloads. Useful for keeping the figure harness fast as the engine
//! evolves.
//!
//! Every workload is measured twice — once on the fast engine
//! (`Simulation`: dense ids, slab-pooled tuple trees, per-component
//! target lists) and once on the string-keyed `ReferenceSimulation` it is
//! bit-for-bit equivalent to — so the fast path's margin is tracked by
//! the same harness that tracks its absolute cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rstorm_core::{GlobalState, RStormScheduler, Scheduler};
use rstorm_sim::oracle::ReferenceSimulation;
use rstorm_sim::{SimConfig, Simulation};
use rstorm_topology::Topology;
use rstorm_workloads::{clusters, micro, yahoo};
use std::sync::Arc;

fn bench_simulation(c: &mut Criterion) {
    let cluster = Arc::new(clusters::emulab_micro());
    let mut group = c.benchmark_group("simulate_10s");
    group.sample_size(10);

    let cases: Vec<(&str, Topology)> = vec![
        ("linear-net", micro::linear_network_bound()),
        ("linear-cpu", micro::linear_cpu_bound()),
        ("page-load", yahoo::page_load()),
        ("processing", yahoo::processing()),
    ];

    for (name, topology) in cases {
        let mut state = GlobalState::new(&cluster);
        let assignment = RStormScheduler::new()
            .schedule(&topology, &cluster, &mut state)
            .expect("bundled workloads are feasible");
        let input = (topology, assignment);
        group.bench_with_input(
            BenchmarkId::new("fast", name),
            &input,
            |b, (topology, assignment)| {
                b.iter(|| {
                    let config = SimConfig::default().with_sim_time_ms(10_000.0);
                    let mut sim = Simulation::new(Arc::clone(&cluster), config);
                    sim.add_topology(topology, assignment);
                    sim.run()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("reference", name),
            &input,
            |b, (topology, assignment)| {
                b.iter(|| {
                    let config = SimConfig::default().with_sim_time_ms(10_000.0);
                    let mut sim = ReferenceSimulation::new(Arc::clone(&cluster), config);
                    sim.add_topology(topology, assignment);
                    sim.run()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_simulation);
criterion_main!(benches);
