//! Named (topology, cluster) benchmark cases, shared by the parity and
//! pin tests and the criterion benches so they all measure the same
//! workloads.

use crate::{clusters, drifted, micro, yahoo};
use rstorm_cluster::Cluster;
use rstorm_topology::Topology;

/// A named benchmark case: one topology on one cluster preset.
#[derive(Debug)]
pub struct WorkloadCase {
    /// Stable case name (used in test failure messages and bench ids).
    pub name: &'static str,
    /// The workload topology.
    pub topology: Topology,
    /// The cluster it runs on.
    pub cluster: Cluster,
}

/// The fig8-scale micro-benchmark cases: the paper's Linear, Diamond and
/// Star topologies in the network-bound configuration on the two-rack
/// Emulab micro cluster.
pub fn fig8_cases() -> Vec<WorkloadCase> {
    vec![
        WorkloadCase {
            name: "linear_net",
            topology: micro::linear_network_bound(),
            cluster: clusters::emulab_micro(),
        },
        WorkloadCase {
            name: "diamond_net",
            topology: micro::diamond_network_bound(),
            cluster: clusters::emulab_micro(),
        },
        WorkloadCase {
            name: "star_net",
            topology: micro::star_network_bound(),
            cluster: clusters::emulab_micro(),
        },
    ]
}

/// The Yahoo production-layout cases (Figure 11) on the larger multi
/// cluster.
pub fn yahoo_cases() -> Vec<WorkloadCase> {
    vec![
        WorkloadCase {
            name: "page_load",
            topology: yahoo::page_load(),
            cluster: clusters::emulab_multi(),
        },
        WorkloadCase {
            name: "processing",
            topology: yahoo::processing(),
            cluster: clusters::emulab_multi(),
        },
    ]
}

/// The drifted-declaration cases exercised by the adaptive rebalance
/// plane (and pinned by `tests/pins.rs`) on the micro cluster.
pub fn drifted_cases() -> Vec<WorkloadCase> {
    vec![
        WorkloadCase {
            name: "drift_linear",
            topology: drifted::under_declared_linear(),
            cluster: clusters::emulab_micro(),
        },
        WorkloadCase {
            name: "drift_star",
            topology: drifted::under_declared_star(),
            cluster: clusters::emulab_micro(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_names_are_unique_and_topologies_valid() {
        let mut names = std::collections::BTreeSet::new();
        for case in fig8_cases()
            .into_iter()
            .chain(yahoo_cases())
            .chain(drifted_cases())
        {
            assert!(names.insert(case.name), "duplicate case {}", case.name);
            assert!(!case.topology.task_set().tasks().is_empty());
            assert!(!case.cluster.nodes().is_empty());
        }
        assert_eq!(names.len(), 7);
    }
}
