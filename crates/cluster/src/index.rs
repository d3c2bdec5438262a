//! The indexed fast path over a cluster's immutable layout.
//!
//! Scheduling hot loops must not hash strings or compare rack names per
//! candidate node (the paper rules out slow scheduling outright:
//! "scheduling decisions need to be made in a snappy manner", §3). A
//! [`ClusterIndex`] is built once per [`crate::Cluster`] and interns every
//! node id to a dense `u32`, precomputes each node's rack index and
//! capacity, and reduces `networkDistance` to a rack-index compare that
//! picks one of three precomputed cost levels
//! ([`ClusterIndex::distance_same_node`] and its siblings).
//!
//! Dense node indices are assigned in **sorted node-id order**, so a scan
//! over `0..len` visits nodes exactly as a `BTreeMap<NodeId, _>` iteration
//! would — schedulers that break ties by "first node in id order" keep
//! byte-identical behaviour on the indexed path. Rack indices follow the
//! cluster's first-seen rack order, and each rack's member list preserves
//! node *declaration* order, so per-rack float aggregations sum in the
//! same order as the original string-keyed scans (bit-exact results).

use crate::ids::NodeId;
use crate::network::{NetworkCosts, PlacementRelation};
use crate::node::{Node, ResourceCapacity};
use std::collections::HashMap;

/// Precomputed dense-index view of a cluster's immutable layout: interned
/// node ids, per-node rack indices and capacities, and the three network
/// distance levels. Shared by reference from [`crate::Cluster::index`]; liveness
/// is deliberately *not* part of the index (it changes at runtime and is
/// tracked by the scheduler's state).
#[derive(Debug)]
pub struct ClusterIndex {
    /// Node ids in dense-index (= sorted id) order.
    ids: Vec<NodeId>,
    /// Node id → dense index.
    positions: HashMap<NodeId, u32>,
    /// Dense node index → rack index.
    rack_of: Vec<u32>,
    /// Rack index → member dense indices, in node declaration order.
    rack_members: Vec<Vec<u32>>,
    /// Dense node index → total capacity.
    capacities: Vec<ResourceCapacity>,
    /// Distance when the candidate *is* the reference node.
    d_same_node: f64,
    /// Distance within the reference rack.
    d_same_rack: f64,
    /// Distance across racks.
    d_inter_rack: f64,
    /// Largest node CPU capacity (min 1.0), for normalization.
    max_cpu_points: f64,
    /// Largest node memory capacity (min 1.0), for normalization.
    max_memory_mb: f64,
}

impl ClusterIndex {
    /// Builds the index. `nodes` is the cluster's declaration-order node
    /// list; `rack_index_of_name` maps rack names to their first-seen
    /// rack order.
    pub(crate) fn build(
        nodes: &[Node],
        rack_index_of_name: &HashMap<&str, u32>,
        costs: &NetworkCosts,
    ) -> Self {
        // Dense index = position in sorted-id order.
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_by(|&a, &b| nodes[a].id().cmp(nodes[b].id()));

        let mut ids = Vec::with_capacity(nodes.len());
        let mut positions = HashMap::with_capacity(nodes.len());
        let mut rack_of = vec![0u32; nodes.len()];
        let mut capacities = Vec::with_capacity(nodes.len());
        // declaration position -> dense index, to build rack member lists
        // in declaration order afterwards.
        let mut dense_of_decl = vec![0u32; nodes.len()];
        for (dense, &decl) in order.iter().enumerate() {
            let node = &nodes[decl];
            let dense = dense as u32;
            ids.push(node.id().clone());
            positions.insert(node.id().clone(), dense);
            rack_of[dense as usize] = rack_index_of_name[node.rack().as_str()];
            capacities.push(*node.capacity());
            dense_of_decl[decl] = dense;
        }

        let rack_count = rack_index_of_name.len();
        let mut rack_members: Vec<Vec<u32>> = vec![Vec::new(); rack_count];
        for (decl, node) in nodes.iter().enumerate() {
            let rack = rack_index_of_name[node.rack().as_str()];
            rack_members[rack as usize].push(dense_of_decl[decl]);
        }

        let mut max_cpu_points: f64 = 1.0;
        let mut max_memory_mb: f64 = 1.0;
        for c in &capacities {
            max_cpu_points = max_cpu_points.max(c.cpu_points);
            max_memory_mb = max_memory_mb.max(c.memory_mb);
        }

        Self {
            ids,
            positions,
            rack_of,
            rack_members,
            capacities,
            d_same_node: costs
                .distance(PlacementRelation::SameNode)
                .min(costs.distance(PlacementRelation::SameWorker)),
            d_same_rack: costs.distance(PlacementRelation::SameRack),
            d_inter_rack: costs.distance(PlacementRelation::InterRack),
            max_cpu_points,
            max_memory_mb,
        }
    }

    /// Number of nodes (dense indices are `0..len`).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the cluster has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The dense index of a node id.
    pub fn node_index(&self, id: &str) -> Option<u32> {
        self.positions.get(id).copied()
    }

    /// The node id at a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn node_id(&self, index: u32) -> &NodeId {
        &self.ids[index as usize]
    }

    /// All node ids, in dense-index (sorted) order.
    pub fn node_ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The rack index of a node.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn rack_of(&self, index: u32) -> u32 {
        self.rack_of[index as usize]
    }

    /// Number of racks.
    pub fn rack_count(&self) -> usize {
        self.rack_members.len()
    }

    /// A rack's member dense indices, in node declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `rack` is out of range.
    pub fn rack_members(&self, rack: u32) -> &[u32] {
        &self.rack_members[rack as usize]
    }

    /// A node's total capacity.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn capacity(&self, index: u32) -> &ResourceCapacity {
        &self.capacities[index as usize]
    }

    /// The distance used when the candidate is the reference node itself.
    pub fn distance_same_node(&self) -> f64 {
        self.d_same_node
    }

    /// The distance within the reference node's rack.
    pub fn distance_same_rack(&self) -> f64 {
        self.d_same_rack
    }

    /// The distance outside the reference node's rack.
    pub fn distance_inter_rack(&self) -> f64 {
        self.d_inter_rack
    }

    /// Largest node CPU capacity in the cluster, floored at 1.0 — the
    /// normalization scale used by resource-abundance comparisons.
    pub fn max_cpu_points(&self) -> f64 {
        self.max_cpu_points
    }

    /// Largest node memory capacity in the cluster, floored at 1.0.
    pub fn max_memory_mb(&self) -> f64 {
        self.max_memory_mb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ClusterBuilder;
    use crate::cluster::Cluster;

    fn two_racks() -> Cluster {
        ClusterBuilder::new()
            .homogeneous_racks(2, 3, ResourceCapacity::emulab_node(), 2)
            .build()
            .unwrap()
    }

    #[test]
    fn dense_order_is_sorted_id_order() {
        let c = two_racks();
        let idx = c.index();
        assert_eq!(idx.len(), 6);
        let ids: Vec<&str> = idx.node_ids().iter().map(NodeId::as_str).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
        for (i, id) in idx.node_ids().iter().enumerate() {
            assert_eq!(idx.node_index(id.as_str()), Some(i as u32));
        }
        assert_eq!(idx.node_index("ghost"), None);
    }

    #[test]
    fn distance_matches_string_path() {
        let c = two_racks();
        let idx = c.index();
        for a in idx.node_ids() {
            for b in idx.node_ids() {
                let (ia, ib) = (
                    idx.node_index(a.as_str()).unwrap(),
                    idx.node_index(b.as_str()).unwrap(),
                );
                // The node selector's choice among the three terms.
                let dense = if ia == ib {
                    idx.distance_same_node()
                } else if idx.rack_of(ia) == idx.rack_of(ib) {
                    idx.distance_same_rack()
                } else {
                    idx.distance_inter_rack()
                };
                assert_eq!(
                    dense.to_bits(),
                    c.node_distance(a.as_str(), b.as_str()).unwrap().to_bits(),
                    "distance({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn rack_members_preserve_declaration_order() {
        // Declare nodes so sorted order differs from declaration order.
        let c = ClusterBuilder::new()
            .add_node("b-node", "r0", ResourceCapacity::emulab_node(), 1)
            .add_node("a-node", "r0", ResourceCapacity::emulab_node(), 1)
            .add_node("c-node", "r1", ResourceCapacity::emulab_node(), 1)
            .build()
            .unwrap();
        let idx = c.index();
        // Dense: a-node=0, b-node=1, c-node=2. Rack 0 declared b-node
        // first.
        let r0: Vec<&str> = idx
            .rack_members(0)
            .iter()
            .map(|&i| idx.node_id(i).as_str())
            .collect();
        assert_eq!(r0, vec!["b-node", "a-node"]);
        assert_eq!(idx.rack_of(idx.node_index("c-node").unwrap()), 1);
    }

    #[test]
    fn capacities_and_norm_maxima() {
        let c = ClusterBuilder::new()
            .add_node(
                "small",
                "r0",
                ResourceCapacity::new(100.0, 2048.0, 100.0),
                1,
            )
            .add_node("big", "r1", ResourceCapacity::new(400.0, 16384.0, 100.0), 1)
            .build()
            .unwrap();
        let idx = c.index();
        assert_eq!(idx.max_cpu_points(), 400.0);
        assert_eq!(idx.max_memory_mb(), 16384.0);
        let big = idx.node_index("big").unwrap();
        assert_eq!(idx.capacity(big).memory_mb, 16384.0);
    }
}
