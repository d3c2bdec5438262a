//! The data-center network model.
//!
//! The paper's key insight (§4) is the latency hierarchy of a typical
//! cluster layout (Figure 4): servers on racks joined by a top-of-rack
//! switch, racks joined by a core switch. Communication cost grows as
//! tasks move apart:
//!
//! 1. intra-process (same worker slot)  — fastest,
//! 2. inter-process (same node)         — faster,
//! 3. inter-node (same rack)            — slow,
//! 4. inter-rack                        — slowest.
//!
//! [`PlacementRelation`] classifies a pair of placements into that
//! hierarchy, and [`NetworkCosts`] assigns it (a) the abstract *distance*
//! used by R-Storm's node-selection metric and (b) physical latency /
//! bandwidth parameters used by the discrete-event simulator. Defaults
//! match the paper's Emulab testbed: 100 Mbps NICs and a 4 ms inter-rack
//! round-trip time.

use crate::ids::WorkerSlot;
use std::fmt;

/// How far apart two worker-slot placements are in the network hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PlacementRelation {
    /// Same worker slot (same worker process): intra-process messaging.
    SameWorker,
    /// Different slots on the same node: inter-process over loopback.
    SameNode,
    /// Different nodes on the same rack: through the top-of-rack switch.
    SameRack,
    /// Nodes on different racks: through the core switch.
    InterRack,
}

impl PlacementRelation {
    /// Classifies a pair of slots given a function mapping a slot's node
    /// to its rack name.
    pub fn classify<'a>(
        a: &'a WorkerSlot,
        b: &'a WorkerSlot,
        rack_of: impl Fn(&'a WorkerSlot) -> &'a str,
    ) -> Self {
        if a == b {
            Self::SameWorker
        } else if a.node == b.node {
            Self::SameNode
        } else if rack_of(a) == rack_of(b) {
            Self::SameRack
        } else {
            Self::InterRack
        }
    }
}

impl fmt::Display for PlacementRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SameWorker => f.write_str("same-worker"),
            Self::SameNode => f.write_str("same-node"),
            Self::SameRack => f.write_str("same-rack"),
            Self::InterRack => f.write_str("inter-rack"),
        }
    }
}

/// Cost parameters for each level of the placement hierarchy.
///
/// `distance_*` values feed the scheduler's Euclidean node-selection
/// metric (the `networkDistance(refNode, θj)` term of Algorithm 4);
/// `latency_*`/`bandwidth_*` values feed the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkCosts {
    /// Scheduler distance for two tasks in the same worker process.
    pub distance_same_worker: f64,
    /// Scheduler distance for two slots on the same node.
    pub distance_same_node: f64,
    /// Scheduler distance for two nodes on the same rack.
    pub distance_same_rack: f64,
    /// Scheduler distance across racks.
    pub distance_inter_rack: f64,

    /// One-way latency (ms) for intra-process tuple transfer.
    pub latency_same_worker_ms: f64,
    /// One-way latency (ms) for inter-process (same node) transfer.
    pub latency_same_node_ms: f64,
    /// One-way latency (ms) between nodes on the same rack.
    pub latency_same_rack_ms: f64,
    /// One-way latency (ms) across racks (paper: 4 ms RTT → 2 ms one-way).
    pub latency_inter_rack_ms: f64,

    /// Per-node NIC bandwidth in megabits per second (paper: 100 Mbps).
    pub node_bandwidth_mbps: f64,
    /// Aggregate inter-rack uplink bandwidth in megabits per second.
    /// The shared core-switch uplink is the contended resource that makes
    /// rack-crossing placements expensive.
    pub inter_rack_bandwidth_mbps: f64,
}

impl NetworkCosts {
    /// Costs matching the paper's Emulab testbed (§6.1): 100 Mbps NICs,
    /// two VLANs with 4 ms inter-rack RTT. Scheduler distances grow one
    /// order per hierarchy level.
    pub fn emulab() -> Self {
        Self::default()
    }

    /// The scheduler distance for a placement relation.
    pub fn distance(&self, relation: PlacementRelation) -> f64 {
        match relation {
            PlacementRelation::SameWorker => self.distance_same_worker,
            PlacementRelation::SameNode => self.distance_same_node,
            PlacementRelation::SameRack => self.distance_same_rack,
            PlacementRelation::InterRack => self.distance_inter_rack,
        }
    }

    /// One-way transfer latency for a placement relation, in milliseconds.
    pub fn latency_ms(&self, relation: PlacementRelation) -> f64 {
        match relation {
            PlacementRelation::SameWorker => self.latency_same_worker_ms,
            PlacementRelation::SameNode => self.latency_same_node_ms,
            PlacementRelation::SameRack => self.latency_same_rack_ms,
            PlacementRelation::InterRack => self.latency_inter_rack_ms,
        }
    }
}

impl Default for NetworkCosts {
    fn default() -> Self {
        Self {
            distance_same_worker: 0.0,
            distance_same_node: 0.5,
            distance_same_rack: 1.0,
            distance_inter_rack: 5.0,
            latency_same_worker_ms: 0.001,
            latency_same_node_ms: 0.05,
            latency_same_rack_ms: 1.0,
            latency_inter_rack_ms: 2.0,
            node_bandwidth_mbps: 100.0,
            inter_rack_bandwidth_mbps: 600.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rack_of(slot: &WorkerSlot) -> &str {
        // Test convention: node names are "<rack>-<i>".
        slot.node.as_str().split('-').next().unwrap()
    }

    #[test]
    fn classification_hierarchy() {
        let a = WorkerSlot::new("r0-1", 6700);
        assert_eq!(
            PlacementRelation::classify(&a, &WorkerSlot::new("r0-1", 6700), rack_of),
            PlacementRelation::SameWorker
        );
        assert_eq!(
            PlacementRelation::classify(&a, &WorkerSlot::new("r0-1", 6701), rack_of),
            PlacementRelation::SameNode
        );
        assert_eq!(
            PlacementRelation::classify(&a, &WorkerSlot::new("r0-2", 6700), rack_of),
            PlacementRelation::SameRack
        );
        assert_eq!(
            PlacementRelation::classify(&a, &WorkerSlot::new("r1-1", 6700), rack_of),
            PlacementRelation::InterRack
        );
    }

    #[test]
    fn costs_grow_with_distance() {
        let c = NetworkCosts::emulab();
        let rels = [
            PlacementRelation::SameWorker,
            PlacementRelation::SameNode,
            PlacementRelation::SameRack,
            PlacementRelation::InterRack,
        ];
        for w in rels.windows(2) {
            assert!(
                c.distance(w[0]) < c.distance(w[1]),
                "distance must increase along the hierarchy"
            );
            assert!(
                c.latency_ms(w[0]) < c.latency_ms(w[1]),
                "latency must increase along the hierarchy"
            );
        }
    }

    #[test]
    fn emulab_inter_rack_latency_is_half_rtt() {
        // The paper specifies a 4 ms inter-rack round trip.
        assert_eq!(NetworkCosts::emulab().latency_inter_rack_ms * 2.0, 4.0);
    }

    #[test]
    fn relation_ordering_matches_hierarchy() {
        assert!(PlacementRelation::SameWorker < PlacementRelation::SameNode);
        assert!(PlacementRelation::SameNode < PlacementRelation::SameRack);
        assert!(PlacementRelation::SameRack < PlacementRelation::InterRack);
    }
}
