//! The cluster: racks of nodes plus the network cost model.

use crate::error::ClusterError;
use crate::ids::{NodeId, RackId, WorkerSlot};
use crate::index::ClusterIndex;
use crate::network::{NetworkCosts, PlacementRelation};
use crate::node::{Node, ResourceCapacity};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// An immutable-topology cluster of worker nodes grouped into racks, with
/// a network cost model and a liveness set (for failure injection).
///
/// Construct via [`crate::ClusterBuilder`].
#[derive(Debug, Clone)]
pub struct Cluster {
    nodes: Vec<Node>,
    positions: HashMap<NodeId, usize>,
    racks: Vec<RackId>,
    rack_members: HashMap<RackId, Vec<NodeId>>,
    costs: NetworkCosts,
    dead: HashSet<NodeId>,
    index: Arc<ClusterIndex>,
}

impl Cluster {
    pub(crate) fn from_parts(nodes: Vec<Node>, costs: NetworkCosts) -> Result<Self, ClusterError> {
        if nodes.is_empty() {
            return Err(ClusterError::Empty);
        }
        let mut positions = HashMap::new();
        let mut racks = Vec::new();
        let mut rack_members: HashMap<RackId, Vec<NodeId>> = HashMap::new();
        for (i, n) in nodes.iter().enumerate() {
            if positions.insert(n.id().clone(), i).is_some() {
                return Err(ClusterError::DuplicateNode(n.id().clone()));
            }
            if !rack_members.contains_key(n.rack()) {
                racks.push(n.rack().clone());
            }
            rack_members
                .entry(n.rack().clone())
                .or_default()
                .push(n.id().clone());
        }
        let rack_index_of_name: HashMap<&str, u32> = racks
            .iter()
            .enumerate()
            .map(|(i, r)| (r.as_str(), i as u32))
            .collect();
        let index = Arc::new(ClusterIndex::build(&nodes, &rack_index_of_name, &costs));
        Ok(Self {
            nodes,
            positions,
            racks,
            rack_members,
            costs,
            dead: HashSet::new(),
            index,
        })
    }

    /// The dense-index fast-path view of this cluster's immutable layout
    /// (see [`ClusterIndex`]). Built once at construction.
    pub fn index(&self) -> &ClusterIndex {
        &self.index
    }

    /// The index as a shareable handle. Scheduling state keyed by dense
    /// indices holds it, so every reader of that state uses the layout the
    /// state was built from.
    pub fn shared_index(&self) -> Arc<ClusterIndex> {
        Arc::clone(&self.index)
    }

    /// All nodes, in declaration order (dead ones included).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All currently alive nodes, in declaration order.
    pub fn alive_nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes
            .iter()
            .filter(move |n| !self.dead.contains(n.id()))
    }

    /// Looks up a node by id.
    pub fn node(&self, id: &str) -> Option<&Node> {
        self.positions.get(id).map(|&i| &self.nodes[i])
    }

    /// Rack ids in first-seen order.
    pub fn racks(&self) -> &[RackId] {
        &self.racks
    }

    /// Node ids in a rack, in declaration order.
    pub fn rack_nodes(&self, rack: &str) -> &[NodeId] {
        self.rack_members.get(rack).map_or(&[], Vec::as_slice)
    }

    /// The rack a node belongs to.
    pub fn rack_of(&self, node: &str) -> Option<&RackId> {
        self.node(node).map(Node::rack)
    }

    /// The network cost model.
    pub fn costs(&self) -> &NetworkCosts {
        &self.costs
    }

    /// Every worker slot of every alive node.
    pub fn alive_slots(&self) -> impl Iterator<Item = &WorkerSlot> {
        self.alive_nodes().flat_map(|n| n.slots().iter())
    }

    /// Total capacity of all alive nodes.
    pub fn total_capacity(&self) -> ResourceCapacity {
        self.alive_nodes()
            .map(Node::capacity)
            .fold(ResourceCapacity::zero(), |acc, c| acc.saturating_add(c))
    }

    /// Classifies how two slots relate in the network hierarchy.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownNode`] if either slot references a node id
    /// not in the cluster layout (recovery paths may hold assignments
    /// naming nodes that no longer exist; they must not abort the host).
    pub fn relation(
        &self,
        a: &WorkerSlot,
        b: &WorkerSlot,
    ) -> Result<PlacementRelation, ClusterError> {
        if a == b {
            self.require_known(a.node.as_str())?;
            return Ok(PlacementRelation::SameWorker);
        }
        if a.node == b.node {
            self.require_known(a.node.as_str())?;
            return Ok(PlacementRelation::SameNode);
        }
        let rack_a = self
            .rack_of(a.node.as_str())
            .ok_or_else(|| ClusterError::UnknownNode(a.node.clone()))?;
        let rack_b = self
            .rack_of(b.node.as_str())
            .ok_or_else(|| ClusterError::UnknownNode(b.node.clone()))?;
        Ok(if rack_a == rack_b {
            PlacementRelation::SameRack
        } else {
            PlacementRelation::InterRack
        })
    }

    /// Scheduler network distance between two *nodes* (node granularity,
    /// as used by Algorithm 4's `networkDistance(refNode, θj)`).
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownNode`] if either node id is not in the
    /// cluster layout (including `a == b` for an unknown id).
    pub fn node_distance(&self, a: &str, b: &str) -> Result<f64, ClusterError> {
        if a == b {
            self.require_known(a)?;
            return Ok(self
                .costs
                .distance(PlacementRelation::SameNode)
                .min(self.costs.distance(PlacementRelation::SameWorker)));
        }
        let rack_a = self
            .rack_of(a)
            .ok_or_else(|| ClusterError::UnknownNode(NodeId::new(a)))?;
        let rack_b = self
            .rack_of(b)
            .ok_or_else(|| ClusterError::UnknownNode(NodeId::new(b)))?;
        Ok(if rack_a == rack_b {
            self.costs.distance(PlacementRelation::SameRack)
        } else {
            self.costs.distance(PlacementRelation::InterRack)
        })
    }

    fn require_known(&self, id: &str) -> Result<(), ClusterError> {
        if self.positions.contains_key(id) {
            Ok(())
        } else {
            Err(ClusterError::UnknownNode(NodeId::new(id)))
        }
    }

    /// Marks a node dead (failure injection). Returns true if the node was
    /// alive. Scheduling and simulation skip dead nodes.
    pub fn kill_node(&mut self, id: &str) -> bool {
        if self.positions.contains_key(id) {
            self.dead.insert(NodeId::new(id))
        } else {
            false
        }
    }

    /// Revives a previously killed node. Returns true if it was dead.
    pub fn revive_node(&mut self, id: &str) -> bool {
        self.dead.remove(id)
    }

    /// Returns true if the node exists and is alive.
    pub fn is_alive(&self, id: &str) -> bool {
        self.positions.contains_key(id) && !self.dead.contains(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ClusterBuilder;

    fn two_racks() -> Cluster {
        ClusterBuilder::new()
            .homogeneous_racks(2, 3, ResourceCapacity::emulab_node(), 2)
            .build()
            .unwrap()
    }

    #[test]
    fn layout_queries() {
        let c = two_racks();
        assert_eq!(c.nodes().len(), 6);
        assert_eq!(c.racks().len(), 2);
        assert_eq!(c.rack_nodes("rack-0").len(), 3);
        assert_eq!(c.rack_of("rack-1-node-2").unwrap().as_str(), "rack-1");
        assert!(c.node("rack-0-node-0").is_some());
        assert!(c.node("nope").is_none());
        assert_eq!(c.alive_slots().count(), 12);
    }

    #[test]
    fn capacities_aggregate() {
        let c = two_racks();
        assert_eq!(c.total_capacity().memory_mb, 6.0 * 2048.0);
    }

    #[test]
    fn relation_classification_uses_rack_layout() {
        let c = two_racks();
        let s = |n: &str, p: u16| WorkerSlot::new(n, p);
        assert_eq!(
            c.relation(&s("rack-0-node-0", 6700), &s("rack-0-node-0", 6700)),
            Ok(PlacementRelation::SameWorker)
        );
        assert_eq!(
            c.relation(&s("rack-0-node-0", 6700), &s("rack-0-node-0", 6701)),
            Ok(PlacementRelation::SameNode)
        );
        assert_eq!(
            c.relation(&s("rack-0-node-0", 6700), &s("rack-0-node-1", 6700)),
            Ok(PlacementRelation::SameRack)
        );
        assert_eq!(
            c.relation(&s("rack-0-node-0", 6700), &s("rack-1-node-0", 6700)),
            Ok(PlacementRelation::InterRack)
        );
    }

    #[test]
    fn relation_reports_unknown_nodes_as_errors() {
        let c = two_racks();
        let s = |n: &str, p: u16| WorkerSlot::new(n, p);
        // Every arm checks existence, including the same-slot shortcut.
        assert_eq!(
            c.relation(&s("ghost", 6700), &s("ghost", 6700)),
            Err(ClusterError::UnknownNode(NodeId::new("ghost")))
        );
        assert_eq!(
            c.relation(&s("ghost", 6700), &s("ghost", 6701)),
            Err(ClusterError::UnknownNode(NodeId::new("ghost")))
        );
        assert_eq!(
            c.relation(&s("rack-0-node-0", 6700), &s("ghost", 6700)),
            Err(ClusterError::UnknownNode(NodeId::new("ghost")))
        );
    }

    #[test]
    fn node_distances_follow_hierarchy() {
        let c = two_racks();
        let same = c.node_distance("rack-0-node-0", "rack-0-node-0").unwrap();
        let rack = c.node_distance("rack-0-node-0", "rack-0-node-1").unwrap();
        let cross = c.node_distance("rack-0-node-0", "rack-1-node-0").unwrap();
        assert!(same < rack && rack < cross);
        // Unknown ids yield typed errors instead of aborting the host.
        assert_eq!(
            c.node_distance("ghost", "rack-0-node-0"),
            Err(ClusterError::UnknownNode(NodeId::new("ghost")))
        );
        assert_eq!(
            c.node_distance("ghost", "ghost"),
            Err(ClusterError::UnknownNode(NodeId::new("ghost")))
        );
    }

    #[test]
    fn failure_injection() {
        let mut c = two_racks();
        assert!(c.is_alive("rack-0-node-0"));
        assert!(c.kill_node("rack-0-node-0"));
        assert!(!c.kill_node("rack-0-node-0"), "already dead");
        assert!(!c.is_alive("rack-0-node-0"));
        assert_eq!(c.alive_nodes().count(), 5);
        // Dead nodes keep their place in the layout: distance still known.
        assert_eq!(
            c.node_distance("rack-0-node-0", "rack-0-node-1"),
            Ok(c.costs().distance(PlacementRelation::SameRack))
        );
        assert!(c.revive_node("rack-0-node-0"));
        assert_eq!(c.alive_nodes().count(), 6);
        assert!(!c.kill_node("ghost"), "unknown nodes cannot be killed");
    }
}
