//! # rstorm
//!
//! A from-scratch Rust reproduction of **R-Storm** (Peng, Hosseini, Hong,
//! Farivar, Campbell — *R-Storm: Resource-Aware Scheduling in Storm*,
//! ACM Middleware 2015): the resource-aware scheduler that became Apache
//! Storm's Resource Aware Scheduler, together with every substrate needed
//! to evaluate it — a Storm-style topology and cluster model, the default
//! round-robin baseline, a deterministic discrete-event cluster simulator
//! and the paper's benchmark workloads.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`topology`] | `rstorm-topology` | topologies, components, groupings, tasks |
//! | [`cluster`] | `rstorm-cluster` | racks, nodes, worker slots, network costs |
//! | [`scheduler`] | `rstorm-core` | R-Storm + baseline schedulers, GlobalState |
//! | [`sim`] | `rstorm-sim` | the discrete-event cluster simulator |
//! | [`metrics`] | `rstorm-metrics` | throughput windows, CPU utilization |
//! | [`workloads`] | `rstorm-workloads` | the paper's benchmark topologies |
//! | [`spec`] | `rstorm-spec` | plain-text topology/cluster spec files |
//!
//! ## Quickstart
//!
//! ```
//! use rstorm::prelude::*;
//!
//! // 1. Describe a topology, with resource hints per §5.2 of the paper.
//! let mut builder = TopologyBuilder::new("word-count");
//! builder
//!     .set_spout("sentences", 4)
//!     .set_cpu_load(50.0)
//!     .set_memory_load(512.0);
//! builder
//!     .set_bolt("split", 4)
//!     .shuffle_grouping("sentences")
//!     .set_cpu_load(25.0)
//!     .set_memory_load(256.0);
//! builder
//!     .set_bolt("count", 4)
//!     .fields_grouping("split", ["word"])
//!     .set_cpu_load(25.0)
//!     .set_memory_load(256.0);
//! let topology = builder.build()?;
//!
//! // 2. Describe the cluster (two racks of six Emulab-style workers).
//! let cluster = ClusterBuilder::new()
//!     .homogeneous_racks(2, 6, ResourceCapacity::emulab_node(), 4)
//!     .build()?;
//!
//! // 3. Schedule with R-Storm.
//! let mut state = GlobalState::new(&cluster);
//! let assignment = RStormScheduler::new().schedule(&topology, &cluster, &mut state)?;
//! assert_eq!(assignment.len(), 12);
//!
//! // 4. Simulate the schedule and read the throughput.
//! let mut sim = Simulation::new(cluster, SimConfig::quick());
//! sim.add_topology(&topology, &assignment);
//! let report = sim.run();
//! assert!(report.steady_throughput("word-count", 1) > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every reproduced figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Topology model: components, streams, groupings, tasks, executors.
pub mod topology {
    pub use rstorm_topology::*;
}

/// Cluster model: racks, nodes, worker slots, network costs, `storm.yaml`.
pub mod cluster {
    pub use rstorm_cluster::*;
}

/// Schedulers: R-Storm, the default even scheduler, comparators, and the
/// shared scheduling state.
pub mod scheduler {
    pub use rstorm_core::*;
}

/// The discrete-event cluster simulator.
pub mod sim {
    pub use rstorm_sim::*;
}

/// Metrics: windowed throughput, CPU utilization, summaries.
pub mod metrics {
    pub use rstorm_metrics::*;
}

/// The paper's benchmark workloads and cluster presets.
pub mod workloads {
    pub use rstorm_workloads::*;
}

/// Plain-text topology/cluster specification format (used by the
/// `rstorm` CLI).
pub mod spec {
    pub use rstorm_spec::*;
}

/// The most common imports, for `use rstorm::prelude::*`.
pub mod prelude {
    pub use rstorm_cluster::{Cluster, ClusterBuilder, NetworkCosts, ResourceCapacity, WorkerSlot};
    pub use rstorm_core::schedulers::{
        EvenScheduler, OfflineLinearizationScheduler, RandomScheduler,
    };
    pub use rstorm_core::{
        schedule_all, verify_plan, Assignment, DeltaScheduler, DriftConfig, DriftDetector,
        DriftReport, GlobalState, MigrationMove, MigrationPlan, ProfileRefiner, RStormConfig,
        RStormScheduler, RecoveryConfig, RecoveryEvent, RecoveryManager, ReferenceRStormScheduler,
        ScheduleError, Scheduler, SchedulingPlan, SoftConstraintWeights,
    };
    pub use rstorm_metrics::{StatisticServer, Summary, ThroughputReport};
    pub use rstorm_sim::{
        run_adaptive_rebalance, run_fault_plan_with, AdaptiveConfig, AdaptiveOutcome, ChaosOutcome,
        FaultEvent, FaultPlan, NetworkModel, RecoveryObservations, ReferenceSimulation, SimConfig,
        SimDebugStats, SimReport, SimTotals, Simulation,
    };
    pub use rstorm_topology::{
        ExecutionProfile, StreamGrouping, Topology, TopologyBuilder, TraversalOrder,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_a_working_pipeline() {
        let mut b = TopologyBuilder::new("t");
        b.set_spout("s", 2);
        b.set_bolt("k", 2).shuffle_grouping("s");
        let topology = b.build().unwrap();
        let cluster = ClusterBuilder::new()
            .homogeneous_racks(1, 2, ResourceCapacity::emulab_node(), 4)
            .build()
            .unwrap();
        let plan = schedule_all(&RStormScheduler::new(), &[&topology], &cluster).unwrap();
        assert!(verify_plan(&plan, &[&topology], &cluster).is_empty());
    }
}
