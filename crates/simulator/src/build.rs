//! Flattening scheduled topologies into the simulator's task table, and
//! interning every entity the hot path touches into dense integer ids.
//!
//! All naming happens here, once, at build time: tasks, components,
//! topologies and nodes become dense indices, and each component's
//! subscriptions resolve to one target list of global consumer task
//! indices, shared by every task of the producing component. Routing
//! stores nothing about placement except the local-or-shuffle preference
//! pools ([`SimBuild::los_pools`]): the link a batch takes and its latency
//! are the paper's four-level network distance between the two tasks, a
//! pure function of where they sit, which the engine derives on every
//! emission ([`ClusterIndex::link`]). A migration therefore only rewrites
//! its tasks' placement and refreshes the pools. The steady-state event
//! loop in [`crate::sim`] never hashes a `String`, never compares a
//! `WorkerSlot` and never re-derives a grouping; it only indexes arrays.

use rstorm_cluster::{Cluster, NetworkCosts, PlacementRelation, WorkerSlot};
use rstorm_core::Assignment;
use rstorm_topology::{StreamGrouping, Topology};
use std::collections::HashMap;

/// One downstream subscription of a component, resolved to global
/// simulator task indices.
#[derive(Debug, Clone)]
pub(crate) struct ConsumerGroup {
    pub grouping: StreamGrouping,
    /// Global indices of the consuming component's tasks, in task order.
    pub targets: Vec<usize>,
}

impl ConsumerGroup {
    /// True when an emission goes to every candidate (all and global
    /// groupings) rather than to one drawn uniformly.
    pub fn fans_out(&self) -> bool {
        matches!(self.grouping, StreamGrouping::All | StreamGrouping::Global)
    }
}

/// Sentinel for "this task's component is not a sink".
pub(crate) const NO_SINK: u32 = u32::MAX;

/// A task as the simulator sees it: placement and profile.
#[derive(Debug, Clone)]
pub(crate) struct SimTaskSpec {
    pub topology: String,
    pub component: String,
    pub slot: WorkerSlot,
    pub node_idx: usize,
    pub rack_idx: usize,
    /// Dense id of the owning topology (order of `add_topology` calls).
    pub topo_id: u32,
    /// Dense throughput-counter index if this task's component is a
    /// declared sink, [`NO_SINK`] otherwise.
    pub sink_ctr: u32,
    /// Node-local index into the node's [`crate::servers::DenseCpuServer`].
    pub cpu_slot: u32,
    pub is_spout: bool,
    pub is_sink: bool,
    pub work_ms_per_tuple: f64,
    pub emit_factor: f64,
    pub tuple_bytes: u32,
    pub max_rate_tuples_per_sec: Option<f64>,
    pub max_spout_pending: Option<u32>,
    /// Declared per-task memory, needed to re-derive a node's memory
    /// demand (and thus its thrash state) when the task migrates.
    pub memory_mb: f64,
}

/// The physical link class a transfer takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkKind {
    /// Same worker or same node: no NIC serialization, latency only.
    Local,
    /// Same rack: producer egress → consumer ingress.
    SameRack,
    /// Across racks: egress → shared uplink → ingress.
    InterRack,
}

/// Index structures over the cluster, shared by all topologies added to a
/// simulation.
#[derive(Debug)]
pub(crate) struct ClusterIndex {
    pub node_of: HashMap<String, usize>,
    pub rack_of_node: Vec<usize>,
    pub cores: Vec<f64>,
    pub memory_mb: Vec<f64>,
    pub node_names: Vec<String>,
    /// `NetworkCosts::latency_ms` per placement relation, in the order
    /// same worker, same node, same rack, inter-rack.
    latency_ms: [f64; 4],
}

impl ClusterIndex {
    pub fn new(cluster: &Cluster) -> Self {
        let mut rack_index: HashMap<&str, usize> = HashMap::new();
        for (i, r) in cluster.racks().iter().enumerate() {
            rack_index.insert(r.as_str(), i);
        }
        let mut node_of = HashMap::new();
        let mut rack_of_node = Vec::new();
        let mut cores = Vec::new();
        let mut memory_mb = Vec::new();
        let mut node_names = Vec::new();
        for (i, n) in cluster.nodes().iter().enumerate() {
            node_of.insert(n.id().as_str().to_owned(), i);
            rack_of_node.push(rack_index[n.rack().as_str()]);
            cores.push((n.capacity().cpu_points / 100.0).max(0.01));
            memory_mb.push(n.capacity().memory_mb);
            node_names.push(n.id().as_str().to_owned());
        }
        let costs: &NetworkCosts = cluster.costs();
        Self {
            node_of,
            rack_of_node,
            cores,
            memory_mb,
            node_names,
            latency_ms: [
                PlacementRelation::SameWorker,
                PlacementRelation::SameNode,
                PlacementRelation::SameRack,
                PlacementRelation::InterRack,
            ]
            .map(|r| costs.latency_ms(r)),
        }
    }

    /// The link class and fixed latency of a transfer from a task placed
    /// at `(node, port)` `from` to one at `to`: the placement relation of
    /// [`relation_of`], where the same node and port is the same worker.
    pub fn link(&self, from: (u32, u16), to: (u32, u16)) -> (LinkKind, f64) {
        if from.0 == to.0 {
            (
                LinkKind::Local,
                self.latency_ms[usize::from(from.1 != to.1)],
            )
        } else if self.rack_of_node[from.0 as usize] == self.rack_of_node[to.0 as usize] {
            (LinkKind::SameRack, self.latency_ms[2])
        } else {
            (LinkKind::InterRack, self.latency_ms[3])
        }
    }
}

/// Everything `add_topology` accumulates: the flattened task table plus
/// the dense-id side tables the fast engine runs on.
#[derive(Debug)]
pub(crate) struct SimBuild {
    pub specs: Vec<SimTaskSpec>,
    /// Per global task: dense id of its component, the index into
    /// [`Self::subscriptions`].
    pub comp_of: Vec<u32>,
    /// Per dense component id: its subscriptions, in declaration order.
    /// Placement-independent and shared by every task of the component.
    pub subscriptions: Vec<Vec<ConsumerGroup>>,
    /// Per global task: for each subscription of its component, the
    /// local-or-shuffle targets sharing the task's worker slot. Empty for
    /// a task whose component has no local-or-shuffle subscription; an
    /// empty pool falls back to all of the subscription's targets.
    pub los_pools: Vec<Vec<Vec<usize>>>,
    pub node_mem_demand: Vec<f64>,
    /// Per node: global ids of the tasks placed on it, in placement
    /// order — the `DenseCpuServer` slot layout.
    pub node_tasks: Vec<Vec<usize>>,
    /// Dense topology id → name (report boundary only).
    pub topo_names: Vec<String>,
    /// Per topology: its sinks' counter indices, in sorted component-name
    /// order (the reference `StatisticServer` iterates sinks through a
    /// `BTreeSet<String>`, so the float summation order must match).
    pub sink_ctrs_by_topo: Vec<Vec<u32>>,
    /// Total number of sink throughput counters allocated so far.
    pub sink_counters: usize,
}

impl SimBuild {
    pub fn new(node_count: usize) -> Self {
        Self {
            specs: Vec::new(),
            comp_of: Vec::new(),
            subscriptions: Vec::new(),
            los_pools: Vec::new(),
            node_mem_demand: vec![0.0; node_count],
            node_tasks: vec![Vec::new(); node_count],
            topo_names: Vec::new(),
            sink_ctrs_by_topo: Vec::new(),
            sink_counters: 0,
        }
    }

    /// Appends every task of `topology` (placed per `assignment`),
    /// resolving its components' subscriptions to global indices, and
    /// accumulates each node's memory demand.
    ///
    /// # Panics
    ///
    /// Panics if the assignment does not cover every task of the topology
    /// or references a node missing from the cluster — schedulers in this
    /// workspace always produce complete assignments; use
    /// `rstorm_core::verify_plan` to diagnose foreign ones.
    pub fn append_topology(
        &mut self,
        index: &ClusterIndex,
        topology: &Topology,
        assignment: &Assignment,
    ) {
        let task_set = topology.task_set();
        let base = self.specs.len();
        let topo_id = self.topo_names.len() as u32;
        self.topo_names.push(topology.id().as_str().to_owned());

        // Intern this topology's sinks into dense counter ids, in sorted
        // name order (the `BTreeSet` order the reference stats use).
        let mut sink_names: Vec<&str> = topology.sinks().map(|c| c.id().as_str()).collect();
        sink_names.sort_unstable();
        let ctr_base = self.sink_counters as u32;
        let ctr_of: HashMap<&str, u32> = sink_names
            .iter()
            .enumerate()
            .map(|(k, &s)| (s, ctr_base + k as u32))
            .collect();
        self.sink_ctrs_by_topo
            .push((0..sink_names.len()).map(|k| ctr_base + k as u32).collect());
        self.sink_counters += sink_names.len();

        // Resolve each component's subscriptions to global indices once;
        // every task of the component shares them.
        let global_of: HashMap<&str, Vec<usize>> = task_set
            .by_component()
            .map(|(c, ids)| {
                (
                    c.as_str(),
                    ids.iter().map(|t| base + t.index()).collect::<Vec<_>>(),
                )
            })
            .collect();
        let mut comp_id: HashMap<&str, u32> = HashMap::new();
        for component in topology.components() {
            let name = component.id().as_str();
            comp_id.insert(name, self.subscriptions.len() as u32);
            self.subscriptions.push(
                topology
                    .consumers(name)
                    .iter()
                    .map(|(consumer, decl)| ConsumerGroup {
                        grouping: decl.grouping.clone(),
                        targets: global_of[consumer.as_str()].clone(),
                    })
                    .collect(),
            );
        }

        for task in task_set.tasks() {
            let component = topology
                .component(task.component.as_str())
                .expect("task set components exist in the topology");
            let slot = assignment
                .slot_of(task.id)
                .unwrap_or_else(|| {
                    panic!(
                        "assignment for `{}` does not place {}",
                        topology.id(),
                        task.id
                    )
                })
                .clone();
            let node_idx = *index
                .node_of
                .get(slot.node.as_str())
                .unwrap_or_else(|| panic!("assignment references unknown node `{}`", slot.node));
            self.node_mem_demand[node_idx] += component.resources().memory_mb;
            let cpu_slot = self.node_tasks[node_idx].len() as u32;
            self.node_tasks[node_idx].push(base + task.id.index());
            let profile = component.profile();
            let sink_ctr = ctr_of
                .get(task.component.as_str())
                .copied()
                .unwrap_or(NO_SINK);
            self.comp_of.push(comp_id[task.component.as_str()]);
            self.specs.push(SimTaskSpec {
                topology: topology.id().as_str().to_owned(),
                component: task.component.as_str().to_owned(),
                slot,
                node_idx,
                rack_idx: index.rack_of_node[node_idx],
                topo_id,
                sink_ctr,
                cpu_slot,
                is_spout: component.is_spout(),
                is_sink: sink_ctr != NO_SINK,
                work_ms_per_tuple: profile.work_ms_per_tuple,
                emit_factor: profile.emit_factor,
                tuple_bytes: profile.tuple_bytes,
                max_rate_tuples_per_sec: profile.max_rate_tuples_per_sec,
                max_spout_pending: topology.max_spout_pending(),
                memory_mb: component.resources().memory_mb,
            });
        }
        // Pools read the placement of every task of the topology, so they
        // are filled once all of them exist.
        for from in base..self.specs.len() {
            let pools = self.los_pools_of(from);
            self.los_pools.push(pools);
        }
    }

    /// The subscriptions of `task`'s component.
    pub fn consumers(&self, task: usize) -> &[ConsumerGroup] {
        &self.subscriptions[self.comp_of[task] as usize]
    }

    /// The targets subscription `g` of `from` sends to: every one of them
    /// when the group [fans out](ConsumerGroup::fans_out), otherwise one
    /// drawn uniformly. Global grouping keeps only the first target;
    /// local-or-shuffle prefers the targets in the producer's worker.
    pub fn candidates(&self, from: usize, g: usize) -> &[usize] {
        let group = &self.consumers(from)[g];
        match group.grouping {
            StreamGrouping::Global => &group.targets[..1],
            StreamGrouping::LocalOrShuffle if !self.los_pools[from][g].is_empty() => {
                &self.los_pools[from][g]
            }
            _ => &group.targets,
        }
    }

    /// Recomputes every local-or-shuffle pool from the current placement:
    /// the only routing state a migration invalidates.
    pub fn refresh_los_pools(&mut self) {
        for from in 0..self.specs.len() {
            if !self.los_pools[from].is_empty() {
                self.los_pools[from] = self.los_pools_of(from);
            }
        }
    }

    /// Stored routing entries: shared subscription targets plus
    /// local-or-shuffle pool members.
    pub fn route_entries(&self) -> usize {
        let targets: usize = self
            .subscriptions
            .iter()
            .flatten()
            .map(|g| g.targets.len())
            .sum();
        let pools: usize = self.los_pools.iter().flatten().map(Vec::len).sum();
        targets + pools
    }

    fn los_pools_of(&self, from: usize) -> Vec<Vec<usize>> {
        let groups = self.consumers(from);
        if !groups
            .iter()
            .any(|g| g.grouping == StreamGrouping::LocalOrShuffle)
        {
            return Vec::new();
        }
        let slot = &self.specs[from].slot;
        groups
            .iter()
            .map(|g| match g.grouping {
                StreamGrouping::LocalOrShuffle => g
                    .targets
                    .iter()
                    .copied()
                    .filter(|&t| self.specs[t].slot == *slot)
                    .collect(),
                _ => Vec::new(),
            })
            .collect()
    }
}

pub(crate) fn relation_of(a: &SimTaskSpec, b: &SimTaskSpec) -> PlacementRelation {
    if a.slot == b.slot {
        PlacementRelation::SameWorker
    } else if a.node_idx == b.node_idx {
        PlacementRelation::SameNode
    } else if a.rack_idx == b.rack_idx {
        PlacementRelation::SameRack
    } else {
        PlacementRelation::InterRack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstorm_cluster::{ClusterBuilder, ResourceCapacity};
    use rstorm_core::{GlobalState, RStormScheduler, Scheduler};
    use rstorm_topology::{TaskId, TopologyBuilder};
    use std::collections::BTreeMap;

    fn setup() -> (Cluster, Topology, Assignment) {
        let cluster = ClusterBuilder::new()
            .homogeneous_racks(2, 3, ResourceCapacity::emulab_node(), 4)
            .build()
            .unwrap();
        let mut b = TopologyBuilder::new("t");
        b.set_spout("s", 2).set_memory_load(100.0);
        b.set_bolt("m", 3)
            .shuffle_grouping("s")
            .set_memory_load(100.0);
        b.set_bolt("k", 1)
            .global_grouping("m")
            .set_memory_load(100.0);
        let topology = b.build().unwrap();
        let mut state = GlobalState::new(&cluster);
        let assignment = RStormScheduler::new()
            .schedule(&topology, &cluster, &mut state)
            .unwrap();
        (cluster, topology, assignment)
    }

    fn build(cluster: &Cluster, topology: &Topology, assignment: &Assignment) -> SimBuild {
        let idx = ClusterIndex::new(cluster);
        let mut b = SimBuild::new(cluster.nodes().len());
        b.append_topology(&idx, topology, assignment);
        b
    }

    #[test]
    fn index_covers_all_nodes() {
        let (cluster, _, _) = setup();
        let idx = ClusterIndex::new(&cluster);
        assert_eq!(idx.node_of.len(), 6);
        assert_eq!(idx.cores.len(), 6);
        assert_eq!(idx.cores[0], 1.0);
        assert_eq!(idx.memory_mb[0], 2048.0);
        // Rack indices partition the nodes 3/3.
        assert_eq!(idx.rack_of_node.iter().filter(|&&r| r == 0).count(), 3);
        assert_eq!(idx.rack_of_node.iter().filter(|&&r| r == 1).count(), 3);
    }

    #[test]
    fn tasks_flattened_with_routing() {
        let (cluster, topology, assignment) = setup();
        let b = build(&cluster, &topology, &assignment);
        assert_eq!(b.specs.len(), 6);
        // Spout tasks route to the middle bolt's three tasks, one drawn
        // per emission.
        let spout = &b.specs[0];
        assert!(spout.is_spout);
        assert!(!spout.is_sink);
        assert_eq!(b.consumers(0).len(), 1);
        assert_eq!(b.consumers(0)[0].targets, vec![2, 3, 4]);
        assert!(!b.consumers(0)[0].fans_out());
        assert_eq!(b.candidates(0, 0), &[2, 3, 4]);
        // Middle bolt routes to the sink; global grouping fans out to its
        // single candidate.
        assert_eq!(b.consumers(2)[0].targets, vec![5]);
        assert_eq!(b.consumers(2)[0].grouping, StreamGrouping::Global);
        assert!(b.consumers(2)[0].fans_out());
        assert_eq!(b.candidates(2, 0), &[5]);
        // The sink has no consumers and is flagged.
        assert!(b.specs[5].is_sink);
        assert!(b.consumers(5).is_empty());
        // One target list per (component, subscription), shared by the
        // component's tasks; no local-or-shuffle pools.
        assert_eq!(b.subscriptions.len(), 3);
        assert_eq!(b.comp_of[0], b.comp_of[1]);
        assert_eq!(b.route_entries(), 3 + 1);
        assert!(b.los_pools.iter().all(Vec::is_empty));
        // Memory demand accumulated: 6 tasks × 100 MB.
        assert!((b.node_mem_demand.iter().sum::<f64>() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn dense_ids_assigned() {
        let (cluster, topology, assignment) = setup();
        let b = build(&cluster, &topology, &assignment);
        assert_eq!(b.topo_names, vec!["t".to_owned()]);
        // One sink component ("k") → one counter, owned by topology 0.
        assert_eq!(b.sink_counters, 1);
        assert_eq!(b.sink_ctrs_by_topo, vec![vec![0]]);
        assert_eq!(b.specs[5].sink_ctr, 0);
        assert_eq!(b.specs[0].sink_ctr, NO_SINK);
        // cpu slots are dense per node, in placement order.
        for (node, tasks) in b.node_tasks.iter().enumerate() {
            for (slot, &gid) in tasks.iter().enumerate() {
                assert_eq!(b.specs[gid].node_idx, node);
                assert_eq!(b.specs[gid].cpu_slot as usize, slot);
            }
        }
    }

    #[test]
    fn second_topology_gets_offset_indices() {
        let (cluster, topology, assignment) = setup();
        let idx = ClusterIndex::new(&cluster);
        let mut b = SimBuild::new(cluster.nodes().len());
        b.append_topology(&idx, &topology, &assignment);
        b.append_topology(&idx, &topology, &assignment);
        assert_eq!(b.specs.len(), 12);
        // Second copy's spout routes into the second copy's bolts.
        assert_eq!(b.consumers(6)[0].targets, vec![8, 9, 10]);
        assert_eq!(b.subscriptions.len(), 6);
        // Sink counters are disjoint per topology.
        assert_eq!(b.sink_ctrs_by_topo, vec![vec![0], vec![1]]);
        assert_eq!(b.specs[11].sink_ctr, 1);
    }

    #[test]
    #[should_panic(expected = "does not place")]
    fn incomplete_assignment_panics() {
        let (cluster, topology, _) = setup();
        let empty = Assignment::new("t", Default::default());
        build(&cluster, &topology, &empty);
    }

    #[test]
    fn node_task_lists_are_sorted_by_global_id() {
        let (cluster, topology, assignment) = setup();
        let idx = ClusterIndex::new(&cluster);
        let mut b = SimBuild::new(cluster.nodes().len());
        b.append_topology(&idx, &topology, &assignment);
        b.append_topology(&idx, &topology, &assignment);
        // The engine's sorted-membership invariant starts here: appending
        // walks tasks in increasing global id, so every per-node list is
        // born sorted and `apply_migration` keeps it that way.
        for tasks in &b.node_tasks {
            assert!(tasks.windows(2).all(|w| w[0] < w[1]), "{tasks:?}");
        }
    }

    // ---- oracle: the precomputed per-producer route table ---------------

    /// How a precomputed route group selects targets per emission.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum GroupKind {
        /// Draw one route uniformly from the group's range.
        Pick,
        /// Send over every route in the range.
        All,
    }

    /// One fully resolved producer-task → consumer-task route.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Route {
        to: u32,
        to_node: u32,
        kind: LinkKind,
        latency_ms: f64,
    }

    /// A contiguous range of routes with a selection rule.
    #[derive(Debug, Clone, Copy)]
    struct RouteGroup {
        kind: GroupKind,
        start: u32,
        len: u32,
    }

    /// The routing table the engine used to precompute per producer task:
    /// `task_groups[task]` is a range into `groups`, each group a range
    /// into `routes`, with every route's link resolved through
    /// [`relation_of`] and the cost matrix.
    #[derive(Debug, Default)]
    struct RoutingTable {
        groups: Vec<RouteGroup>,
        routes: Vec<Route>,
        task_groups: Vec<(u32, u32)>,
    }

    impl RoutingTable {
        /// Builds the table from scratch over `b`'s current placement.
        fn build(b: &SimBuild, costs: &NetworkCosts) -> Self {
            let mut table = Self::default();
            for from in 0..b.specs.len() {
                let start = table.groups.len() as u32;
                for group in b.consumers(from) {
                    table.push_route_group(&b.specs, costs, from, group);
                }
                let len = table.groups.len() as u32 - start;
                table.task_groups.push((start, len));
            }
            table
        }

        fn push_route_group(
            &mut self,
            specs: &[SimTaskSpec],
            costs: &NetworkCosts,
            from: usize,
            group: &ConsumerGroup,
        ) {
            let targets = &group.targets;
            let start = self.routes.len() as u32;
            let (kind, chosen): (GroupKind, Vec<usize>) = match &group.grouping {
                StreamGrouping::Shuffle | StreamGrouping::Fields(_) => {
                    (GroupKind::Pick, targets.clone())
                }
                StreamGrouping::All => (GroupKind::All, targets.clone()),
                StreamGrouping::Global => (GroupKind::All, vec![targets[0]]),
                StreamGrouping::LocalOrShuffle => {
                    let from_slot = &specs[from].slot;
                    let local: Vec<usize> = targets
                        .iter()
                        .copied()
                        .filter(|&t| specs[t].slot == *from_slot)
                        .collect();
                    let pool = if local.is_empty() {
                        targets.clone()
                    } else {
                        local
                    };
                    (GroupKind::Pick, pool)
                }
            };
            for to in chosen {
                let relation = relation_of(&specs[from], &specs[to]);
                let link = match relation {
                    PlacementRelation::SameWorker | PlacementRelation::SameNode => LinkKind::Local,
                    PlacementRelation::SameRack => LinkKind::SameRack,
                    PlacementRelation::InterRack => LinkKind::InterRack,
                };
                self.routes.push(Route {
                    to: to as u32,
                    to_node: specs[to].node_idx as u32,
                    kind: link,
                    latency_ms: costs.latency_ms(relation),
                });
            }
            self.groups.push(RouteGroup {
                kind,
                start,
                len: self.routes.len() as u32 - start,
            });
        }

        /// `from`'s groups as (selection rule, routes) lists.
        fn groups_of(&self, from: usize) -> Vec<(GroupKind, Vec<Route>)> {
            let (gs, gl) = self.task_groups[from];
            self.groups[gs as usize..(gs + gl) as usize]
                .iter()
                .map(|g| {
                    let routes = &self.routes[g.start as usize..(g.start + g.len) as usize];
                    (g.kind, routes.to_vec())
                })
                .collect()
        }
    }

    /// What the engine's emission sees for `from`: per subscription, the
    /// selection rule and every candidate with the receiver's node, link
    /// class and latency derived from the dense placement.
    fn derived_groups(
        b: &SimBuild,
        idx: &ClusterIndex,
        from: usize,
    ) -> Vec<(GroupKind, Vec<Route>)> {
        let place = |t: usize| (b.specs[t].node_idx as u32, b.specs[t].slot.port);
        (0..b.consumers(from).len())
            .map(|g| {
                let kind = if b.consumers(from)[g].fans_out() {
                    GroupKind::All
                } else {
                    GroupKind::Pick
                };
                let routes = b
                    .candidates(from, g)
                    .iter()
                    .map(|&to| {
                        let (kind, latency_ms) = idx.link(place(from), place(to));
                        Route {
                            to: to as u32,
                            to_node: place(to).0,
                            kind,
                            latency_ms,
                        }
                    })
                    .collect();
                (kind, routes)
            })
            .collect()
    }

    /// Moves `task` to `port` on `node`, the way `apply_migration`
    /// rewrites a moved task's placement.
    fn relocate(b: &mut SimBuild, idx: &ClusterIndex, task: usize, node: usize, port: u16) {
        b.specs[task].node_idx = node;
        b.specs[task].rack_idx = idx.rack_of_node[node];
        b.specs[task].slot = WorkerSlot::new(idx.node_names[node].as_str(), port);
    }

    const GROUPINGS: [fn() -> StreamGrouping; 5] = [
        || StreamGrouping::Shuffle,
        || StreamGrouping::Fields(vec!["k".to_owned()]),
        || StreamGrouping::All,
        || StreamGrouping::Global,
        || StreamGrouping::LocalOrShuffle,
    ];

    /// A spout plus one bolt per `(parallelism, grouping, source)` entry,
    /// each subscribing to an earlier component.
    fn random_topology(spout: u32, bolts: &[(u32, usize, usize)]) -> Topology {
        let mut tb = TopologyBuilder::new("t");
        tb.set_spout("c0", spout);
        for (k, &(parallelism, grouping, source)) in bolts.iter().enumerate() {
            let from = format!("c{}", source % (k + 1));
            tb.set_bolt(format!("c{}", k + 1), parallelism)
                .grouping(from, GROUPINGS[grouping % GROUPINGS.len()]());
        }
        tb.build().expect("a chain of earlier sources is acyclic")
    }

    proptest::proptest! {
        /// Routing derived from placement on emission equals the old
        /// precomputed table, rebuilt from scratch on the moved specs, for
        /// every producer and subscription: same targets in the same
        /// order, receiver nodes, link classes, latencies and
        /// local-or-shuffle pools. Holds after each move of a random
        /// sequence, including moves within a node (a port change).
        #[test]
        fn placement_derived_routing_matches_the_table_oracle(
            spout in 1u32..4,
            bolts in proptest::collection::vec((1u32..4, 0usize..5, 0usize..8), 1..5),
            placement in proptest::collection::vec((0usize..6, 6700u16..6703), 16..17),
            moves in proptest::collection::vec((0usize..16, 0usize..6, 6700u16..6703), 0..8),
        ) {
            let cluster = ClusterBuilder::new()
                .homogeneous_racks(2, 3, ResourceCapacity::emulab_node(), 4)
                .build()
                .unwrap();
            let idx = ClusterIndex::new(&cluster);
            let topology = random_topology(spout, &bolts);
            let n = topology.total_tasks() as usize;
            let slots: BTreeMap<TaskId, WorkerSlot> = (0..n)
                .map(|t| {
                    let (node, port) = placement[t];
                    (TaskId(t as u32), WorkerSlot::new(idx.node_names[node].as_str(), port))
                })
                .collect();
            let mut b = SimBuild::new(cluster.nodes().len());
            b.append_topology(&idx, &topology, &Assignment::new("t", slots));
            let check = |b: &SimBuild| -> Result<(), proptest::test_runner::TestCaseError> {
                let oracle = RoutingTable::build(b, cluster.costs());
                for from in 0..n {
                    proptest::prop_assert_eq!(derived_groups(b, &idx, from), oracle.groups_of(from));
                }
                Ok(())
            };
            check(&b)?;
            for &(task, node, port) in &moves {
                relocate(&mut b, &idx, task % n, node, port);
                b.refresh_los_pools();
                check(&b)?;
            }
        }
    }
}
