//! # rstorm-sim
//!
//! A deterministic discrete-event simulator of a Storm cluster executing
//! scheduled topologies — the substitute for the paper's Emulab testbed
//! (see DESIGN.md §3 for the substitution argument).
//!
//! The simulator prices exactly the two effects the paper's evaluation
//! hinges on:
//!
//! * **Network position of communicating tasks.** Tuple batches move
//!   between tasks through FIFO link servers: the producer node's NIC
//!   egress, the shared inter-rack uplink (when racks are crossed) and the
//!   consumer node's NIC ingress, plus a fixed per-relation latency
//!   (intra-worker < intra-node < intra-rack < inter-rack, defaults from
//!   the Emulab setup: 100 Mbps NICs, 4 ms inter-rack RTT).
//! * **CPU contention.** Each node's CPU is a FIFO work server with
//!   aggregate rate equal to its core count; a single task can never run
//!   faster than one core. Over-committed nodes accumulate backlog, which
//!   propagates upstream as backpressure.
//!
//! Flow control mirrors Storm: each spout task has a `max.spout.pending`
//! credit budget, tuple trees are tracked per emitted root batch, and a
//! root that is not fully processed within the tuple timeout is failed
//! (its credit is returned — a replay in real Storm — and any work it
//! still causes is wasted). Sink throughput counts only tuples from live,
//! non-timed-out roots, which is what makes an over-committed schedule
//! "grind to a near halt" (§6.5) rather than degrade gracefully.
//!
//! ## Example
//!
//! ```
//! use rstorm_topology::{TopologyBuilder, ExecutionProfile};
//! use rstorm_cluster::{ClusterBuilder, ResourceCapacity};
//! use rstorm_core::{RStormScheduler, Scheduler, GlobalState};
//! use rstorm_sim::{SimConfig, Simulation};
//!
//! let mut b = TopologyBuilder::new("demo");
//! b.set_spout("src", 2).set_profile(ExecutionProfile::network_bound(100));
//! b.set_bolt("sink", 2)
//!     .shuffle_grouping("src")
//!     .set_profile(ExecutionProfile::network_bound(100).into_sink());
//! let topology = b.build().unwrap();
//!
//! let cluster = ClusterBuilder::new()
//!     .homogeneous_racks(2, 3, ResourceCapacity::emulab_node(), 4)
//!     .build()
//!     .unwrap();
//! let mut state = GlobalState::new(&cluster);
//! let assignment = RStormScheduler::new()
//!     .schedule(&topology, &cluster, &mut state)
//!     .unwrap();
//!
//! let mut sim = Simulation::new(cluster, SimConfig::quick());
//! sim.add_topology(&topology, &assignment);
//! let report = sim.run();
//! assert!(report.throughput["demo"].steady_state(1).mean > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod build;
pub mod chaos;
mod config;
mod event;
pub mod faults;
pub mod fuzz;
pub mod network;
pub mod rebalance;
mod reference;
mod report;
mod servers;
mod sim;
mod slab;
pub mod sweep;

pub use chaos::{run_fault_plan_with, ChaosError, ChaosOutcome, ReconcileAudit};
pub use config::{NetworkModel, SimConfig};
pub use faults::{FaultEvent, FaultPlan, ParsePlanError};
pub use fuzz::{
    check_fault_plan, run_fuzz_campaign, shrink_fault_plan, FuzzConfig, FuzzOutcome,
    FuzzReproducer, FuzzVerdict, OracleKind,
};
pub use network::LinkClass;
pub use rebalance::{refined_clone, run_adaptive_rebalance, AdaptiveConfig, AdaptiveOutcome};
pub use reference::ReferenceSimulation;
pub use report::{
    InvariantViolation, LinkUtilization, NetworkObservations, RecoveryObservations, SimDebugStats,
    SimReport, SimTotals,
};
pub use sim::{CheckedReport, Simulation};
pub use sweep::{
    run_sweep, FaultSpec, ParseRangeError, SeedRange, SweepCase, SweepGrid, SweepJob, SweepOutcome,
    SweepRow, SweepSummary,
};
