//! Emulab-like cluster presets (§6.1 of the paper).

use rstorm_cluster::{Cluster, ClusterBuilder, NetworkCosts, ResourceCapacity};

/// Worker slots per supervisor (Storm's usual four-port default).
pub const SLOTS_PER_NODE: u16 = 4;

/// Rack trunk of the oversubscribed preset, in Mbps: six 100 Mbps NICs
/// share a 150 Mbps uplink — a 4:1 oversubscription ratio, at the tame
/// end of real datacenter fabrics.
pub const OVERSUBSCRIBED_TRUNK_MBPS: f64 = 150.0;

/// The single-topology evaluation cluster: 12 workers in two racks of six
/// (plus, in the paper, a 13th master node which takes no tasks and is
/// therefore not modeled). Each worker: one 3 GHz core (100 CPU points),
/// 2 GB RAM, 100 Mbps NIC.
pub fn emulab_micro() -> Cluster {
    ClusterBuilder::new()
        .homogeneous_racks(2, 6, ResourceCapacity::emulab_node(), SLOTS_PER_NODE)
        .build()
        .expect("static preset is valid")
}

/// The evaluation cluster with an oversubscribed fabric: the same two
/// racks of six Emulab workers, but the rack trunks carry only
/// [`OVERSUBSCRIBED_TRUNK_MBPS`] toward the core. On the fair-share
/// network plane this makes rack-crossing placements pay for trunk
/// contention — the regime where proximity packing visibly wins — so
/// the congestion benchmarks and sweeps run here.
pub fn emulab_oversubscribed() -> Cluster {
    let mut costs = NetworkCosts::emulab();
    costs.inter_rack_bandwidth_mbps = OVERSUBSCRIBED_TRUNK_MBPS;
    ClusterBuilder::new()
        .network_costs(costs)
        .homogeneous_racks(2, 6, ResourceCapacity::emulab_node(), SLOTS_PER_NODE)
        .build()
        .expect("static preset is valid")
}

/// The multi-topology evaluation cluster (§6.5): 24 workers in two racks
/// of twelve.
pub fn emulab_multi() -> Cluster {
    ClusterBuilder::new()
        .homogeneous_racks(2, 12, ResourceCapacity::emulab_node(), SLOTS_PER_NODE)
        .build()
        .expect("static preset is valid")
}

/// The 12-worker Emulab cluster with node ids *interleaved* across the
/// two racks: `node-<i>` sits in `rack-<i mod 2>`. On [`emulab_micro`],
/// node-id tie-breaking happens to keep even a network-oblivious
/// scheduler inside one rack, which masks the distance term the ablation
/// removes; interleaving removes that accident without changing the
/// hardware.
pub fn emulab_micro_interleaved() -> Cluster {
    let mut b = ClusterBuilder::new();
    for i in 0..12u32 {
        b = b.add_node(
            format!("node-{i:02}"),
            format!("rack-{}", i % 2),
            ResourceCapacity::emulab_node(),
            SLOTS_PER_NODE,
        );
    }
    b.build().expect("static preset is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_preset_matches_paper() {
        let c = emulab_micro();
        assert_eq!(c.nodes().len(), 12);
        assert_eq!(c.racks().len(), 2);
        assert_eq!(c.rack_nodes("rack-0").len(), 6);
        let cap = c.nodes()[0].capacity();
        assert_eq!(cap.cpu_points, 100.0);
        assert_eq!(cap.memory_mb, 2048.0);
        assert_eq!(c.costs().latency_inter_rack_ms * 2.0, 4.0, "4 ms RTT");
        assert_eq!(c.costs().node_bandwidth_mbps, 100.0);
    }

    #[test]
    fn oversubscribed_preset_only_changes_the_trunk() {
        let c = emulab_oversubscribed();
        let base = emulab_micro();
        assert_eq!(c.nodes().len(), base.nodes().len());
        assert_eq!(c.racks().len(), base.racks().len());
        assert_eq!(
            c.costs().node_bandwidth_mbps,
            base.costs().node_bandwidth_mbps
        );
        assert_eq!(
            c.costs().inter_rack_bandwidth_mbps,
            OVERSUBSCRIBED_TRUNK_MBPS
        );
        assert!(
            c.costs().inter_rack_bandwidth_mbps < 6.0 * c.costs().node_bandwidth_mbps,
            "the trunk must be oversubscribed"
        );
    }

    #[test]
    fn multi_preset_is_double() {
        let c = emulab_multi();
        assert_eq!(c.nodes().len(), 24);
        assert_eq!(c.racks().len(), 2);
    }

    #[test]
    fn interleaved_preset_alternates_racks() {
        let c = emulab_micro_interleaved();
        assert_eq!(c.nodes().len(), 12);
        for (i, node) in c.nodes().iter().enumerate() {
            assert_eq!(node.id().as_str(), format!("node-{i:02}"));
            assert_eq!(node.rack().as_str(), format!("rack-{}", i % 2));
            assert_eq!(*node.capacity(), ResourceCapacity::emulab_node());
            assert_eq!(node.slots().len(), usize::from(SLOTS_PER_NODE));
        }
    }
}
