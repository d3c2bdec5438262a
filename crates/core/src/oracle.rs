//! Executable specifications of the R-Storm scheduler, compiled only for
//! tests and under the `oracle` cargo feature.
//!
//! [`ScanNodeSelector`] transcribes Algorithm 4 directly over the
//! string-keyed [`GlobalState`] API, and [`ReferenceRStormScheduler`]
//! drives it with a scratch copy of the state for atomicity. The
//! production [`RStormScheduler`](crate::RStormScheduler) and
//! [`NodeSelector`](crate::rstorm::node_selection::NodeSelector) must
//! produce byte-identical picks, assignments and errors; the parity unit
//! tests and `tests/properties.rs` hold them to that. A default build
//! compiles none of this: only dev-dependencies switch the feature on.

use crate::assignment::Assignment;
use crate::error::ScheduleError;
use crate::global_state::GlobalState;
use crate::resource::{weighted_euclidean, NormalizationContext, SoftConstraintWeights};
use crate::rstorm::{task_selection, RStormConfig};
use crate::scheduler::Scheduler;
use rstorm_cluster::{Cluster, NodeId};
use rstorm_topology::{ResourceRequest, Topology};
use std::collections::BTreeMap;

/// Algorithm 4 as a plain scan: every alive node is scored, and the
/// strict-`<` winner in node-id order is kept.
#[derive(Debug)]
pub struct ScanNodeSelector<'a> {
    cluster: &'a Cluster,
    weights: &'a SoftConstraintWeights,
    norm: NormalizationContext,
    ref_node: Option<NodeId>,
}

impl<'a> ScanNodeSelector<'a> {
    /// Creates a selector for one topology-scheduling pass.
    pub fn new(cluster: &'a Cluster, weights: &'a SoftConstraintWeights) -> Self {
        Self {
            cluster,
            weights,
            norm: NormalizationContext::for_cluster(cluster),
            ref_node: None,
        }
    }

    /// The reference node, once anchored by the first selection.
    pub fn ref_node(&self) -> Option<&NodeId> {
        self.ref_node.as_ref()
    }

    /// Selects the node for a task with demand `request`, or
    /// `Err(best_available_mb)` if no node satisfies the hard memory
    /// constraint. Nodes whose remaining CPU covers the request are
    /// preferred; the soft constraint is relaxed only when none does.
    pub fn select(
        &mut self,
        state: &GlobalState,
        request: &ResourceRequest,
    ) -> Result<NodeId, f64> {
        if self.ref_node.is_none() {
            self.ref_node = self.find_ref_node(state);
        }
        let Some(ref_node) = &self.ref_node else {
            return Err(0.0);
        };
        let mut best: Option<(f64, &NodeId)> = None;
        let mut best_relaxed: Option<(f64, &NodeId)> = None;
        let mut best_available_mb: f64 = 0.0;
        for (node, remaining) in state.iter_remaining() {
            best_available_mb = best_available_mb.max(remaining.memory_mb);
            // Hard constraint: never over-commit memory.
            if remaining.memory_mb < request.memory_mb {
                continue;
            }
            // A node in the state but absent from the cluster layout is
            // skipped rather than scored.
            let Ok(network_distance) = self.cluster.node_distance(ref_node.as_str(), node.as_str())
            else {
                continue;
            };
            let d = weighted_euclidean(
                self.weights,
                &self.norm,
                request.memory_mb,
                request.cpu_points,
                remaining.memory_mb,
                remaining.cpu_points,
                network_distance,
            );
            // Strict `<` plus ordered iteration makes ties deterministic
            // (first node in id order wins).
            if remaining.cpu_points >= request.cpu_points && best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, node));
            }
            if best_relaxed.is_none_or(|(bd, _)| d < bd) {
                best_relaxed = Some((d, node));
            }
        }
        match best.or(best_relaxed) {
            Some((_, node)) => Ok(node.clone()),
            None => Err(best_available_mb),
        }
    }

    /// Algorithm 4 lines 6-9: the node with the most resources in the
    /// rack with the most resources. One pass per rack accumulates the
    /// abundance sum and liveness together.
    fn find_ref_node(&self, state: &GlobalState) -> Option<NodeId> {
        let (max_cpu, max_mem) = (self.norm.max_cpu_points, self.norm.max_memory_mb);
        let mut best_rack: Option<(f64, &str)> = None;
        for rack in self.cluster.racks() {
            let mut abundance = 0.0;
            let mut has_alive = false;
            for node in self.cluster.rack_nodes(rack.as_str()) {
                if let Some(remaining) = state.remaining(node.as_str()) {
                    abundance += remaining.abundance(max_cpu, max_mem);
                    has_alive = true;
                }
            }
            if !has_alive {
                continue;
            }
            if best_rack.is_none_or(|(b, _)| abundance > b) {
                best_rack = Some((abundance, rack.as_str()));
            }
        }
        let rack = best_rack?.1;

        let mut best_node: Option<(f64, &NodeId)> = None;
        for node in self.cluster.rack_nodes(rack) {
            let Some(remaining) = state.remaining(node.as_str()) else {
                continue;
            };
            let abundance = remaining.abundance(max_cpu, max_mem);
            if best_node.is_none_or(|(b, _)| abundance > b) {
                best_node = Some((abundance, node));
            }
        }
        best_node.map(|(_, n)| n.clone())
    }
}

/// The pre-index R-Storm implementation: node selection by
/// [`ScanNodeSelector`], and atomicity by cloning the whole state up
/// front. Produces byte-identical assignments to
/// [`RStormScheduler`](crate::RStormScheduler) at O(cluster) higher cost
/// per call.
#[derive(Debug, Clone, Default)]
pub struct ReferenceRStormScheduler {
    config: RStormConfig,
}

impl ReferenceRStormScheduler {
    /// Creates a reference scheduler with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a reference scheduler with an explicit configuration.
    pub fn with_config(config: RStormConfig) -> Self {
        Self { config }
    }
}

impl Scheduler for ReferenceRStormScheduler {
    fn name(&self) -> &str {
        "rstorm-reference"
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

        // Work on a scratch copy so a failed scheduling leaves `state`
        // untouched (atomic commit, §4.1).
        let mut scratch = state.clone();
        let mut selector = ScanNodeSelector::new(cluster, &self.config.weights);
        let mut slots = BTreeMap::new();

        for task_id in ordering {
            let request = *task_set
                .resources(task_id)
                .expect("ordering only contains tasks of this task set");
            let node = selector
                .select(&scratch, &request)
                .map_err(|best_available_mb| ScheduleError::InsufficientMemory {
                    topology: topology.id().clone(),
                    task: task_id,
                    needed_mb: request.memory_mb,
                    best_available_mb,
                })?;
            // The scratch copy is discarded on error, so plain
            // propagation preserves atomicity here.
            scratch.reserve(topology.id(), &node, &request)?;
            let slot = scratch.slot_for(cluster, topology.id(), &node)?;
            slots.insert(task_id, slot);
        }

        let assignment = Assignment::new(topology.id().clone(), slots);
        scratch.commit(assignment.clone());
        *state = scratch;
        Ok(assignment)
    }
}
