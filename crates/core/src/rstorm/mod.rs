//! The R-Storm resource-aware scheduler (§4 of the paper).
//!
//! Scheduling proceeds in two phases (Algorithm 1):
//!
//! 1. [`task_selection`] produces an ordering of all tasks such that tasks
//!    of adjacent components appear in close succession (Algorithms 2–3).
//! 2. [`node_selection`] greedily maps each task to the node minimizing a
//!    weighted Euclidean distance in resource space, anchored at a
//!    reference node, without violating the hard memory constraint
//!    (Algorithm 4).
//!
//! The assignment is committed atomically: a topology that cannot be fully
//! placed leaves the [`GlobalState`] untouched and yields a
//! [`ScheduleError`]. [`RStormScheduler`] achieves this with an undo log —
//! mutations are applied to the live state and reverted bit-exactly on
//! failure, costing O(tasks placed) on rejection instead of the
//! O(cluster) clone-per-call the scratch-copy approach paid up front.
//! The loop runs on dense node indices from pick to commit: a pick is an
//! index into the state's layout, and the reservation and worker slot are
//! written to the topology's dense book, so no id is hashed, compared or
//! copied per task. Recovery's degraded placement runs the same loop one
//! component at a time.
//! That scratch-copy scheduler, with node selection as a plain scan, is
//! kept as an executable specification in the test-only `oracle` module;
//! the unit tests below and `tests/properties.rs` hold this one to its
//! assignments and errors bit for bit.

pub mod node_selection;
pub mod task_selection;

use crate::assignment::Assignment;
use crate::error::ScheduleError;
use crate::global_state::{BookId, GlobalState, UndoLog};
use crate::resource::SoftConstraintWeights;
use crate::scheduler::Scheduler;
use node_selection::NodeSelector;
use rstorm_cluster::{Cluster, WorkerSlot};
use rstorm_topology::{TaskId, TaskSet, Topology, TopologyId, TraversalOrder};
use std::collections::BTreeMap;

/// Configuration of the R-Storm scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RStormConfig {
    /// Weights of the distance terms (Algorithm 4).
    pub weights: SoftConstraintWeights,
    /// Component traversal strategy for task selection (the paper uses
    /// BFS; DFS and declaration order exist for the ablation study).
    pub traversal: TraversalOrder,
}

/// The R-Storm scheduler.
///
/// See the [module docs](self) and the crate-level example.
#[derive(Debug, Clone, Default)]
pub struct RStormScheduler {
    config: RStormConfig,
}

impl RStormScheduler {
    /// Creates a scheduler with the default configuration (BFS traversal,
    /// default weights).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scheduler with an explicit configuration.
    pub fn with_config(config: RStormConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &RStormConfig {
        &self.config
    }
}

impl Scheduler for RStormScheduler {
    fn name(&self) -> &str {
        "rstorm"
    }

    fn schedule(
        &self,
        topology: &Topology,
        cluster: &Cluster,
        state: &mut GlobalState,
    ) -> Result<Assignment, ScheduleError> {
        if state.is_scheduled(topology.id().as_str()) {
            return Err(ScheduleError::AlreadyScheduled(topology.id().clone()));
        }
        if state.iter_remaining().next().is_none() {
            return Err(ScheduleError::NoAliveNodes);
        }

        let task_set = topology.task_set();
        let ordering = task_selection::task_ordering(topology, &task_set, self.config.traversal);
        let mut placement = Placement::new(cluster, &self.config.weights, state, topology.id());
        placement.place(cluster, state, &task_set, ordering)?;
        let assignment = Assignment::new(topology.id().clone(), placement.into_slots());
        state.commit(assignment.clone());
        Ok(assignment)
    }
}

/// Algorithm 1's placement loop on dense node indices, shared by
/// [`RStormScheduler`] and recovery's degraded placement: each task is
/// picked by Algorithm 4, reserved in the topology's book and given its
/// worker slot, one batch at a time and atomically per batch.
#[derive(Debug)]
pub(crate) struct Placement<'a> {
    selector: NodeSelector<'a>,
    topology: &'a TopologyId,
    book: BookId,
    /// Every task placed so far with its slot, in placement order.
    slots: Vec<(TaskId, WorkerSlot)>,
}

impl<'a> Placement<'a> {
    /// Starts placing `topology`'s tasks; the reference node is anchored
    /// by the first pick.
    pub(crate) fn new(
        cluster: &Cluster,
        weights: &'a SoftConstraintWeights,
        state: &mut GlobalState,
        topology: &'a TopologyId,
    ) -> Self {
        Self {
            selector: NodeSelector::new(cluster, weights),
            topology,
            book: state.open_book(topology),
            slots: Vec::new(),
        }
    }

    /// Places `tasks` in order, all or none: every write is journaled in
    /// an [`UndoLog`] (atomic commit, §4.1, in O(tasks placed) with no
    /// up-front clone of the state), and if one task cannot be placed the
    /// batch is rolled back bit-exactly and forgotten. Either way the
    /// selector's work is added to `state`'s [`ScheduleStats`].
    ///
    /// # Errors
    ///
    /// [`ScheduleError::InsufficientMemory`] if no alive node can hold a
    /// task. [`ScheduleError::UnknownNode`] if the state's layout names a
    /// node the scheduling cluster lacks, or the node died between
    /// selection rounds.
    ///
    /// [`ScheduleStats`]: crate::ScheduleStats
    pub(crate) fn place(
        &mut self,
        cluster: &Cluster,
        state: &mut GlobalState,
        task_set: &TaskSet,
        tasks: impl IntoIterator<Item = TaskId>,
    ) -> Result<(), ScheduleError> {
        let mut log = UndoLog::new();
        let placed_before = self.slots.len();
        let result = self.place_logged(cluster, state, task_set, tasks, &mut log);
        if result.is_err() {
            state.rollback(log);
            self.slots.truncate(placed_before);
        }
        state.record_stats(self.selector.take_stats());
        result
    }

    fn place_logged(
        &mut self,
        cluster: &Cluster,
        state: &mut GlobalState,
        task_set: &TaskSet,
        tasks: impl IntoIterator<Item = TaskId>,
        log: &mut UndoLog,
    ) -> Result<(), ScheduleError> {
        for task in tasks {
            let request = task_set
                .resources(task)
                .expect("tasks come from this task set");
            let node = self
                .selector
                .select_dense(state, request)
                .map_err(|best_available_mb| ScheduleError::InsufficientMemory {
                    topology: self.topology.clone(),
                    task,
                    needed_mb: request.memory_mb,
                    best_available_mb,
                })?;
            state.reserve_dense(self.book, node, request, log)?;
            let slot = state.slot_for_dense(cluster, self.book, node, log)?;
            self.slots.push((task, slot));
        }
        Ok(())
    }

    /// True if no task has been placed.
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slot of every placed task, by task.
    pub(crate) fn into_slots(self) -> BTreeMap<TaskId, WorkerSlot> {
        let mut slots = self.slots;
        slots.sort_unstable_by_key(|&(task, _)| task);
        slots.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ReferenceRStormScheduler;
    use rstorm_cluster::{ClusterBuilder, ResourceCapacity};
    use rstorm_topology::TopologyBuilder;

    fn emulab(racks: u32, nodes: u32) -> Cluster {
        ClusterBuilder::new()
            .homogeneous_racks(racks, nodes, ResourceCapacity::emulab_node(), 4)
            .build()
            .unwrap()
    }

    fn linear(tasks_per_component: u32, cpu: f64, mem: f64) -> Topology {
        let mut b = TopologyBuilder::new("linear");
        b.set_spout("c0", tasks_per_component)
            .set_cpu_load(cpu)
            .set_memory_load(mem);
        for i in 1..4 {
            b.set_bolt(format!("c{i}"), tasks_per_component)
                .shuffle_grouping(format!("c{}", i - 1))
                .set_cpu_load(cpu)
                .set_memory_load(mem);
        }
        b.build().unwrap()
    }

    #[test]
    fn every_task_is_placed() {
        let cluster = emulab(2, 6);
        let t = linear(4, 20.0, 128.0);
        let mut state = GlobalState::new(&cluster);
        let a = RStormScheduler::new()
            .schedule(&t, &cluster, &mut state)
            .unwrap();
        assert_eq!(a.len(), 16);
        assert!(state.is_scheduled("linear"));
    }

    #[test]
    fn colocates_when_resources_allow() {
        // 16 tasks × (20 cpu, 128 MB) fit comfortably on few nodes:
        // R-Storm should use far fewer machines than the cluster offers.
        let cluster = emulab(2, 6);
        let t = linear(4, 20.0, 128.0);
        let mut state = GlobalState::new(&cluster);
        let a = RStormScheduler::new()
            .schedule(&t, &cluster, &mut state)
            .unwrap();
        let used = a.used_nodes().len();
        assert!(used <= 5, "expected tight packing, used {used} of 12 nodes");
        // And everything stays within one rack when it fits there.
        let racks: std::collections::BTreeSet<_> = a
            .used_nodes()
            .iter()
            .map(|n| cluster.rack_of(n.as_str()).unwrap().clone())
            .collect();
        assert_eq!(racks.len(), 1, "single-rack packing expected");
    }

    #[test]
    fn hard_memory_constraint_is_never_violated() {
        let cluster = emulab(2, 6);
        // Each node has 2048 MB; tasks of 700 MB → at most 2 per node.
        let t = linear(3, 10.0, 700.0);
        let mut state = GlobalState::new(&cluster);
        let a = RStormScheduler::new()
            .schedule(&t, &cluster, &mut state)
            .unwrap();
        for node in a.used_nodes() {
            let tasks = a.tasks_on_node(node.as_str());
            assert!(
                tasks.len() <= 2,
                "node {node} got {} × 700 MB tasks into 2048 MB",
                tasks.len()
            );
        }
        // Remaining memory is non-negative everywhere.
        for (_, rem) in state.iter_remaining() {
            assert!(rem.memory_mb >= 0.0);
        }
    }

    #[test]
    fn infeasible_topology_is_rejected_atomically() {
        let cluster = emulab(1, 2);
        // 4096 MB tasks cannot fit on 2048 MB nodes.
        let t = linear(1, 10.0, 4096.0);
        let mut state = GlobalState::new(&cluster);
        let before = state.clone();
        let err = RStormScheduler::new()
            .schedule(&t, &cluster, &mut state)
            .unwrap_err();
        match err {
            ScheduleError::InsufficientMemory {
                needed_mb,
                best_available_mb,
                ..
            } => {
                assert_eq!(needed_mb, 4096.0);
                assert_eq!(best_available_mb, 2048.0);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // State unchanged (atomicity).
        for ((n1, r1), (n2, r2)) in state.iter_remaining().zip(before.iter_remaining()) {
            assert_eq!(n1, n2);
            assert_eq!(r1, r2);
        }
        assert!(!state.is_scheduled("linear"));
    }

    #[test]
    fn rescheduling_same_topology_is_rejected() {
        let cluster = emulab(1, 2);
        let t = linear(1, 10.0, 128.0);
        let mut state = GlobalState::new(&cluster);
        RStormScheduler::new()
            .schedule(&t, &cluster, &mut state)
            .unwrap();
        assert_eq!(
            RStormScheduler::new()
                .schedule(&t, &cluster, &mut state)
                .unwrap_err(),
            ScheduleError::AlreadyScheduled(t.id().clone())
        );
    }

    #[test]
    fn empty_cluster_rejected() {
        let mut cluster = emulab(1, 1);
        cluster.kill_node("rack-0-node-0");
        let t = linear(1, 10.0, 128.0);
        let mut state = GlobalState::new(&cluster);
        assert_eq!(
            RStormScheduler::new()
                .schedule(&t, &cluster, &mut state)
                .unwrap_err(),
            ScheduleError::NoAliveNodes
        );
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let cluster = emulab(2, 6);
        let t = linear(4, 30.0, 256.0);
        let a1 = RStormScheduler::new()
            .schedule(&t, &cluster, &mut GlobalState::new(&cluster))
            .unwrap();
        let a2 = RStormScheduler::new()
            .schedule(&t, &cluster, &mut GlobalState::new(&cluster))
            .unwrap();
        assert_eq!(a1, a2);
    }

    #[test]
    fn reference_scheduler_matches_fast_scheduler() {
        // Same inputs through the undo-log/indexed scheduler and the
        // clone/scan reference must give identical assignments and
        // identical remaining resources, including across successive
        // topologies and an infeasible rejection in the middle.
        let pipeline = |name: &str, cpu: f64, mem: f64| {
            let mut b = TopologyBuilder::new(name);
            b.set_spout("c0", 4).set_cpu_load(cpu).set_memory_load(mem);
            b.set_bolt("c1", 4)
                .shuffle_grouping("c0")
                .set_cpu_load(cpu)
                .set_memory_load(mem);
            b.build().unwrap()
        };
        let cluster = emulab(2, 6);
        let feasible = [pipeline("t0", 20.0, 128.0), pipeline("t1", 40.0, 500.0)];
        let infeasible = linear(2, 10.0, 4096.0);

        let fast = RStormScheduler::new();
        let reference = ReferenceRStormScheduler::new();
        let mut fast_state = GlobalState::new(&cluster);
        let mut ref_state = GlobalState::new(&cluster);

        for t in &feasible {
            let a = fast.schedule(t, &cluster, &mut fast_state).unwrap();
            let b = reference.schedule(t, &cluster, &mut ref_state).unwrap();
            assert_eq!(a, b);
        }
        let ea = fast
            .schedule(&infeasible, &cluster, &mut fast_state)
            .unwrap_err();
        let eb = reference
            .schedule(&infeasible, &cluster, &mut ref_state)
            .unwrap_err();
        assert_eq!(ea, eb);
        for ((n1, r1), (n2, r2)) in fast_state.iter_remaining().zip(ref_state.iter_remaining()) {
            assert_eq!(n1, n2);
            assert_eq!(r1.memory_mb.to_bits(), r2.memory_mb.to_bits());
            assert_eq!(r1.cpu_points.to_bits(), r2.cpu_points.to_bits());
            assert_eq!(r1.bandwidth.to_bits(), r2.bandwidth.to_bits());
        }
    }

    #[test]
    fn second_topology_lands_on_fresh_nodes_when_possible() {
        // Two CPU-hungry topologies, each filling one rack: the second
        // should anchor in the other rack because the first one's rack
        // has fewer remaining resources.
        let hog = |name: &str| {
            let mut b = TopologyBuilder::new(name);
            b.set_spout("s", 3)
                .set_cpu_load(90.0)
                .set_memory_load(256.0);
            b.set_bolt("b", 3)
                .shuffle_grouping("s")
                .set_cpu_load(90.0)
                .set_memory_load(256.0);
            b.build().unwrap()
        };
        let cluster = emulab(2, 6);
        let (t1, t2) = (hog("hog-a"), hog("hog-b"));

        let mut state = GlobalState::new(&cluster);
        let s = RStormScheduler::new();
        let a1 = s.schedule(&t1, &cluster, &mut state).unwrap();
        let a2 = s.schedule(&t2, &cluster, &mut state).unwrap();
        let (used1, used2) = (a1.used_nodes(), a2.used_nodes());
        let overlap: Vec<_> = used1.intersection(&used2).collect();
        assert!(
            overlap.is_empty(),
            "topologies should avoid each other, overlapped on {overlap:?}"
        );
    }
}
