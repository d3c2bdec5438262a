//! Scheduling-latency benchmarks (experiment E6 in DESIGN.md).
//!
//! The paper's §3 argues that exact knapsack solvers are ruled out because
//! "scheduling decisions need to be made in a snappy manner" — if
//! executors are not rescheduled quickly after a failure, whole topologies
//! stall. These benchmarks quantify how snappy the greedy heuristic is:
//! R-Storm vs the even scheduler across topology and cluster sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rstorm_cluster::{Cluster, ClusterBuilder, ResourceCapacity};
use rstorm_core::oracle::ReferenceRStormScheduler;
use rstorm_core::schedulers::EvenScheduler;
use rstorm_core::{GlobalState, RStormScheduler, Scheduler};
use rstorm_topology::{Topology, TopologyBuilder};

/// A linear topology with `stages` components of `parallelism` tasks.
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

fn bench_schedulers(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule");
    for (tasks, stages, parallelism, racks, nodes) in [
        (40u32, 4u32, 10u32, 2u32, 6u32),
        (200, 5, 40, 2, 12),
        (1000, 10, 100, 4, 16),
        (10_000, 20, 500, 8, 32),
    ] {
        let topology = chain(stages, parallelism);
        let cl = cluster(racks, nodes);
        group.bench_with_input(
            BenchmarkId::new("rstorm", tasks),
            &(&topology, &cl),
            |b, (t, cl)| {
                b.iter(|| {
                    let mut state = GlobalState::new(cl);
                    RStormScheduler::new().schedule(t, cl, &mut state).unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("rstorm-reference", tasks),
            &(&topology, &cl),
            |b, (t, cl)| {
                b.iter(|| {
                    let mut state = GlobalState::new(cl);
                    ReferenceRStormScheduler::new()
                        .schedule(t, cl, &mut state)
                        .unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("even", tasks),
            &(&topology, &cl),
            |b, (t, cl)| {
                b.iter(|| {
                    let mut state = GlobalState::new(cl);
                    EvenScheduler::new().schedule(t, cl, &mut state).unwrap()
                })
            },
        );
    }
    group.finish();
}

fn bench_reschedule_after_failure(c: &mut Criterion) {
    // The latency that matters operationally: a node dies and the
    // affected topology must be placed again on the survivors.
    let topology = chain(5, 40);
    let cl = cluster(2, 12);
    c.bench_function("reschedule_after_node_failure", |b| {
        b.iter_batched(
            || {
                let mut cl = cl.clone();
                let mut state = GlobalState::new(&cl);
                RStormScheduler::new()
                    .schedule(&topology, &cl, &mut state)
                    .unwrap();
                cl.kill_node("rack-0-node-0");
                (cl, state)
            },
            |(cl, mut state)| {
                for t in state.handle_node_failure("rack-0-node-0") {
                    state.release_topology(t.as_str());
                }
                RStormScheduler::new()
                    .schedule(&topology, &cl, &mut state)
                    .unwrap()
            },
            criterion::BatchSize::SmallInput,
        )
    });
    c.bench_function("reschedule_after_node_failure/reference", |b| {
        b.iter_batched(
            || {
                let mut cl = cl.clone();
                let mut state = GlobalState::new(&cl);
                ReferenceRStormScheduler::new()
                    .schedule(&topology, &cl, &mut state)
                    .unwrap();
                cl.kill_node("rack-0-node-0");
                (cl, state)
            },
            |(cl, mut state)| {
                for t in state.handle_node_failure("rack-0-node-0") {
                    state.release_topology(t.as_str());
                }
                ReferenceRStormScheduler::new()
                    .schedule(&topology, &cl, &mut state)
                    .unwrap()
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_schedulers, bench_reschedule_after_failure);
criterion_main!(benches);
