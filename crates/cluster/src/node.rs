//! Worker nodes and their resource capacities.

use crate::ids::{NodeId, RackId, WorkerSlot};
use std::fmt;

/// Total resources a node offers, in the paper's three dimensions:
/// CPU points (soft), memory megabytes (hard) and bandwidth (soft).
///
/// The paper's administrator sets these through `storm.yaml` (§5.2):
/// `supervisor.cpu.capacity: 100.0` means one core;
/// `supervisor.memory.capacity.mb: 20480.0` means 20 GB. Here they come
/// from the `rstorm-spec` cluster format (`cpu=`, `mem=`, `bandwidth=`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceCapacity {
    /// CPU capacity in points (100 per core).
    pub cpu_points: f64,
    /// Memory capacity in megabytes.
    pub memory_mb: f64,
    /// Bandwidth capacity (abstract units; the NIC's relative capacity).
    pub bandwidth: f64,
}

impl ResourceCapacity {
    /// Creates a capacity vector.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is negative or not finite.
    pub fn new(cpu_points: f64, memory_mb: f64, bandwidth: f64) -> Self {
        for (name, v) in [
            ("cpu_points", cpu_points),
            ("memory_mb", memory_mb),
            ("bandwidth", bandwidth),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "capacity dimension `{name}` must be finite and non-negative, got {v}"
            );
        }
        Self {
            cpu_points,
            memory_mb,
            bandwidth,
        }
    }

    /// Capacity for a typical machine with `cores` CPU cores and
    /// `memory_mb` of RAM, using the paper's point system
    /// (CPU availability = 100 × number of cores).
    pub fn for_machine(cores: u32, memory_mb: f64) -> Self {
        Self::new(f64::from(cores) * 100.0, memory_mb, 100.0)
    }

    /// The paper's Emulab worker: one 3 GHz core, 2 GB RAM, 100 Mbps NIC.
    pub fn emulab_node() -> Self {
        Self::new(100.0, 2048.0, 100.0)
    }

    /// A zero capacity.
    pub fn zero() -> Self {
        Self {
            cpu_points: 0.0,
            memory_mb: 0.0,
            bandwidth: 0.0,
        }
    }

    /// Component-wise sum.
    pub fn saturating_add(&self, other: &Self) -> Self {
        Self {
            cpu_points: self.cpu_points + other.cpu_points,
            memory_mb: self.memory_mb + other.memory_mb,
            bandwidth: self.bandwidth + other.bandwidth,
        }
    }

    /// Number of full cores this capacity represents (CPU points / 100),
    /// minimum 1 when CPU capacity is non-zero — used by the simulator's
    /// processor-sharing model.
    pub fn cores(&self) -> f64 {
        self.cpu_points / 100.0
    }
}

impl fmt::Display for ResourceCapacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{cpu: {:.1} pts, mem: {:.1} MB, bw: {:.1}}}",
            self.cpu_points, self.memory_mb, self.bandwidth
        )
    }
}

/// A worker node (supervisor machine): identity, rack membership, total
/// capacity and worker slots.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    id: NodeId,
    rack: RackId,
    capacity: ResourceCapacity,
    slots: Vec<WorkerSlot>,
}

impl Node {
    /// Base port of the first worker slot, matching Storm's default
    /// `supervisor.slots.ports` starting at 6700.
    pub const BASE_SLOT_PORT: u16 = 6700;

    /// Creates a node with `num_slots` worker slots on consecutive ports
    /// starting at [`Node::BASE_SLOT_PORT`].
    ///
    /// # Panics
    ///
    /// Panics if `num_slots` is zero.
    pub fn new(
        id: impl Into<NodeId>,
        rack: impl Into<RackId>,
        capacity: ResourceCapacity,
        num_slots: u16,
    ) -> Self {
        assert!(num_slots > 0, "a node must have at least one worker slot");
        let id = id.into();
        let slots = (0..num_slots)
            .map(|i| WorkerSlot::new(id.clone(), Self::BASE_SLOT_PORT + i))
            .collect();
        Self {
            id,
            rack: rack.into(),
            capacity,
            slots,
        }
    }

    /// The node's identifier.
    pub fn id(&self) -> &NodeId {
        &self.id
    }

    /// The rack this node belongs to.
    pub fn rack(&self) -> &RackId {
        &self.rack
    }

    /// Total resource capacity.
    pub fn capacity(&self) -> &ResourceCapacity {
        &self.capacity
    }

    /// Worker slots in port order.
    pub fn slots(&self) -> &[WorkerSlot] {
        &self.slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_capacity_uses_point_system() {
        let c = ResourceCapacity::for_machine(4, 16384.0);
        assert_eq!(c.cpu_points, 400.0);
        assert_eq!(c.cores(), 4.0);
        assert_eq!(c.memory_mb, 16384.0);
    }

    #[test]
    fn emulab_node_matches_paper_setup() {
        let c = ResourceCapacity::emulab_node();
        assert_eq!(c.cpu_points, 100.0);
        assert_eq!(c.memory_mb, 2048.0);
    }

    #[test]
    fn node_slots_start_at_6700() {
        let n = Node::new("n0", "rack-0", ResourceCapacity::emulab_node(), 3);
        let ports: Vec<u16> = n.slots().iter().map(|s| s.port).collect();
        assert_eq!(ports, vec![6700, 6701, 6702]);
        assert!(n.slots().iter().all(|s| s.node == *n.id()));
    }

    #[test]
    #[should_panic(expected = "at least one worker slot")]
    fn zero_slots_rejected() {
        Node::new("n0", "r0", ResourceCapacity::emulab_node(), 0);
    }

    #[test]
    #[should_panic(expected = "must be finite and non-negative")]
    fn negative_capacity_rejected() {
        ResourceCapacity::new(-1.0, 0.0, 0.0);
    }

    #[test]
    fn capacity_addition() {
        let total =
            ResourceCapacity::emulab_node().saturating_add(&ResourceCapacity::emulab_node());
        assert_eq!(total.cpu_points, 200.0);
        assert_eq!(total.memory_mb, 4096.0);
    }
}
