//! The scale plane: a 10k-task / 1k-node stress case for the engine.
//!
//! The paper's workloads top out at a few dozen tasks on 24 workers —
//! big enough to reproduce Figures 7–11, far too small to expose
//! asymptotic costs in the engine itself. This module provides the
//! long-promised scale case (ROADMAP item 4): a [`scale_topology`] /
//! [`scale_cluster`] pair sized at [`SCALE_TASKS`] tasks on
//! [`SCALE_NODES`] nodes over a [`SCALE_HORIZON_MS`] horizon, plus a
//! *migration-churn* variant ([`churn_plans`]) that drives repeated
//! [`DeltaScheduler`] migrations through a run. A migration rewrites
//! only the moved tasks' placement, since the engine derives each
//! transfer's link from where the two tasks sit.
//!
//! The topology is a chain of roughly √tasks components of parallelism
//! √tasks each: producer-consumer task pairs grow as tasks^1.5 (≈ 1M for
//! the 10k case) instead of tasks² (100M), which keeps the case runnable
//! in CI while still dwarfing every other workload by two orders of
//! magnitude.
//! Spouts are rate-limited to one tuple per second per task so that
//! event-processing cost stays small relative to the migration
//! bookkeeping the churn case is designed to measure.

use rstorm_cluster::{Cluster, ClusterBuilder, NodeId, ResourceCapacity};
use rstorm_core::{
    Assignment, ComponentDrift, DeltaScheduler, DriftReport, GlobalState, MigrationPlan,
    ProfileRefiner, RStormScheduler, Scheduler,
};
use rstorm_sim::Simulation;
use rstorm_topology::{ExecutionProfile, Topology, TopologyBuilder};
use std::collections::BTreeSet;

use crate::clusters::SLOTS_PER_NODE;

/// Tasks in the full-size scale topology.
pub const SCALE_TASKS: u32 = 10_000;

/// Nodes in the full-size scale cluster.
pub const SCALE_NODES: u32 = 1_000;

/// Simulated horizon of the full-size scale run: the paper's ~10-minute
/// experiment window.
pub const SCALE_HORIZON_MS: f64 = 600_000.0;

/// Migration rounds of the full-size churn variant.
pub const SCALE_CHURN_ROUNDS: u32 = 100;

/// Declared CPU points per scale task (an eighth of an Emulab core, so
/// ~12 tasks pack per node and the initial schedule leaves free nodes
/// for churn to migrate into).
const TASK_CPU_POINTS: f64 = 8.0;

/// Declared memory per scale task in MB (never the binding constraint).
const TASK_MEMORY_MB: f64 = 48.0;

/// The factor by which churn rounds pretend every component
/// under-declared its CPU — large enough that a "saturated" node always
/// sheds most of its tasks.
const CHURN_DRIFT_RATIO: f64 = 3.0;

/// Builds the scale topology: a chain `c0 → c1 → … → c{n-1}` of
/// shuffle-grouped components with parallelism ≈ √`tasks` each, exactly
/// `tasks` tasks in total (the last component absorbs the remainder).
/// `c0` is a rate-limited spout, the last component a sink.
///
/// # Panics
///
/// Panics if `tasks < 2` (a chain needs a spout and a sink).
pub fn scale_topology(tasks: u32) -> Topology {
    assert!(
        tasks >= 2,
        "a scale chain needs at least 2 tasks, got {tasks}"
    );
    let parallelism = (f64::from(tasks).sqrt() as u32).max(1);
    let components = tasks.div_ceil(parallelism).max(2);
    // The first components-1 carry `parallelism` tasks each; the last
    // absorbs the remainder (in 1..=parallelism by construction).
    let last = tasks - parallelism * (components - 1);
    let mut b = TopologyBuilder::new("scale");
    b.set_spout("c0", parallelism)
        .set_profile(ExecutionProfile::new(0.05, 1.0, 100).with_max_rate(1.0))
        .set_cpu_load(TASK_CPU_POINTS)
        .set_memory_load(TASK_MEMORY_MB);
    for i in 1..components - 1 {
        b.set_bolt(format!("c{i}"), parallelism)
            .shuffle_grouping(format!("c{}", i - 1))
            .set_profile(ExecutionProfile::new(0.05, 1.0, 100))
            .set_cpu_load(TASK_CPU_POINTS)
            .set_memory_load(TASK_MEMORY_MB);
    }
    b.set_bolt(format!("c{}", components - 1), last)
        .shuffle_grouping(format!("c{}", components - 2))
        .set_profile(ExecutionProfile::new(0.05, 1.0, 100).into_sink())
        .set_cpu_load(TASK_CPU_POINTS)
        .set_memory_load(TASK_MEMORY_MB);
    b.build().expect("scale chain is structurally valid")
}

/// Builds the scale cluster: `nodes` Emulab-class workers in racks of at
/// most 50 (rounded up to full racks, so the result may hold slightly
/// more than `nodes` nodes when 50 does not divide it).
///
/// # Panics
///
/// Panics if `nodes == 0`.
pub fn scale_cluster(nodes: u32) -> Cluster {
    assert!(nodes > 0, "a cluster needs at least one node");
    let racks = nodes.div_ceil(50);
    let per_rack = nodes.div_ceil(racks);
    ClusterBuilder::new()
        .homogeneous_racks(
            racks,
            per_rack,
            ResourceCapacity::emulab_node(),
            SLOTS_PER_NODE,
        )
        .build()
        .expect("scale preset is valid")
}

/// Schedules `topology` on `cluster` and plays `rounds` of synthetic
/// drift through the [`DeltaScheduler`]: every round pretends all
/// components under-declared CPU by `CHURN_DRIFT_RATIO` (3×) and marks one
/// initially-used node (cycling in name order) saturated, so the delta
/// scheduler sheds most of that node's tasks onto nodes with headroom.
/// Plans compose — each round plans against the state the previous
/// round committed — and empty rounds (a node already shed dry, or no
/// target with headroom left) are dropped. Fully deterministic.
///
/// Returns the initial assignment and the non-empty migration plans in
/// round order.
///
/// # Panics
///
/// Panics if the initial schedule fails (the scale presets always fit).
pub fn churn_plans(
    topology: &Topology,
    cluster: &Cluster,
    rounds: u32,
) -> (Assignment, Vec<MigrationPlan>) {
    let mut state = GlobalState::new(cluster);
    let assignment = RStormScheduler::new()
        .schedule(topology, cluster, &mut state)
        .expect("the scale topology fits its cluster");

    // Alpha 1.0: the refined profile IS the synthetic observation.
    let mut refiner = ProfileRefiner::new(1.0);
    let tname = topology.id().as_str().to_owned();
    let mut drifted: Vec<ComponentDrift> = Vec::new();
    for component in topology.components() {
        let declared = component.resources().cpu_points;
        let observed = declared * CHURN_DRIFT_RATIO;
        refiner.observe(&tname, component.id().as_str(), declared, observed);
        drifted.push(ComponentDrift {
            component: component.id().as_str().to_owned(),
            declared_cpu_points: declared,
            observed_cpu_points: observed,
            ratio: CHURN_DRIFT_RATIO,
        });
    }
    drifted.sort_by(|a, b| a.component.cmp(&b.component));

    let used: Vec<NodeId> = assignment.used_nodes().into_iter().collect();
    assert!(!used.is_empty(), "a scheduled topology uses nodes");

    let mut plans = Vec::new();
    for round in 0..rounds {
        let hot = used[round as usize % used.len()].clone();
        let drift = DriftReport {
            topology: topology.id().clone(),
            drifted: drifted.clone(),
            saturated_nodes: vec![hot],
            starved_nodes: Vec::new(),
            congested_racks: Vec::new(),
        };
        let plan = DeltaScheduler::new()
            .plan(
                topology,
                cluster,
                &mut state,
                &drift,
                &refiner,
                &BTreeSet::new(),
            )
            .expect("the topology was just scheduled");
        if !plan.is_empty() {
            plans.push(plan);
        }
    }
    (assignment, plans)
}

/// Schedules `plans` onto `sim` evenly spread across the middle 80% of
/// `horizon_ms` (round k cuts over at `0.1·horizon + k·interval`), each
/// with a 200 ms per-task pause — the standard churn timeline shared by
/// the bench bin, the CLI and the determinism tests.
pub fn schedule_churn(sim: &mut Simulation, plans: &[MigrationPlan], horizon_ms: f64) {
    if plans.is_empty() {
        return;
    }
    let interval = horizon_ms * 0.8 / plans.len() as f64;
    for (k, plan) in plans.iter().enumerate() {
        sim.schedule_migration(plan, horizon_ms * 0.1 + k as f64 * interval, 200.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstorm_sim::SimConfig;

    /// Test-sized parameters: the same shape as the 10k case, two orders
    /// of magnitude smaller.
    const T: u32 = 200;
    const N: u32 = 20;
    const HORIZON: f64 = 10_000.0;

    #[test]
    fn topology_has_exactly_the_requested_tasks() {
        for tasks in [2, 3, 7, 50, 200, 1000] {
            let t = scale_topology(tasks);
            assert_eq!(t.total_tasks(), tasks, "tasks={tasks}");
        }
        let full = scale_topology(SCALE_TASKS);
        assert_eq!(full.total_tasks(), SCALE_TASKS);
        // √10000 = 100 → a 100-wide chain ~100 components deep.
        assert_eq!(full.components().len(), 100);
    }

    #[test]
    fn cluster_rounds_up_to_full_racks() {
        let c = scale_cluster(N);
        assert_eq!(c.nodes().len(), N as usize);
        assert_eq!(c.racks().len(), 1);
        let big = scale_cluster(120);
        assert_eq!(big.racks().len(), 3);
        assert_eq!(big.nodes().len(), 120);
    }

    #[test]
    fn scale_case_schedules_and_runs() {
        let t = scale_topology(T);
        let c = scale_cluster(N);
        let mut state = GlobalState::new(&c);
        let a = RStormScheduler::new().schedule(&t, &c, &mut state).unwrap();
        assert_eq!(a.len() as u32, T);
        let mut sim = Simulation::new(c, SimConfig::default().with_sim_time_ms(HORIZON));
        sim.add_topology(&t, &a);
        let report = sim.run();
        assert!(report.totals.tuples_completed > 0, "the chain flows");
    }

    #[test]
    fn churn_produces_composing_plans() {
        let t = scale_topology(T);
        let c = scale_cluster(N);
        let (assignment, plans) = churn_plans(&t, &c, 10);
        assert!(!plans.is_empty(), "synthetic drift must trigger moves");
        let moves: usize = plans.iter().map(MigrationPlan::len).sum();
        assert!(moves >= 10, "expected sustained churn, got {moves} moves");
        // Plans compose: every move starts from where the task actually
        // is at that point in the sequence.
        let mut where_is: std::collections::BTreeMap<_, _> = assignment
            .iter()
            .map(|(task, slot)| (task, slot.node.clone()))
            .collect();
        for plan in &plans {
            for m in &plan.moves {
                assert_eq!(where_is.get(&m.task), Some(&m.from), "stale source");
                where_is.insert(m.task, m.to.clone());
            }
        }
    }

    /// The sweep-style determinism pin on the churn case: the whole
    /// scenario — plans included — replayed from scratch is
    /// bit-identical.
    #[test]
    fn churn_case_is_deterministic() {
        let run = || {
            let t = scale_topology(T);
            let c = scale_cluster(N);
            let (a, plans) = churn_plans(&t, &c, 10);
            let mut sim = Simulation::new(c, SimConfig::default().with_sim_time_ms(HORIZON));
            sim.add_topology(&t, &a);
            schedule_churn(&mut sim, &plans, HORIZON);
            sim.run()
        };
        let first = run();
        let second = run();
        assert_eq!(first, second, "churn run must be reproducible");
        assert_eq!(first.debug.events, second.debug.events);
    }
}
