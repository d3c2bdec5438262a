//! # rstorm-core
//!
//! The R-Storm resource-aware scheduler (Peng et al., *R-Storm:
//! Resource-Aware Scheduling in Storm*, Middleware '15) and the baseline
//! schedulers it is evaluated against.
//!
//! The scheduling problem (§3 of the paper) is a Quadratic Multiple
//! 3-Dimensional Knapsack Problem (QM3DKP): place every *task* of a
//! topology onto cluster *nodes* such that
//!
//! * the **hard** constraint (memory) is never violated,
//! * **soft** constraints (CPU, bandwidth) are packed tightly, and
//! * tasks of adjacent components land in close network proximity.
//!
//! R-Storm's heuristic (§4) has two parts, both implemented here:
//!
//! * **Task selection** (Algorithm 3): breadth-first traversal of the
//!   component graph from the spouts, then a round-robin interleaving of
//!   each component's tasks.
//! * **Node selection** (Algorithm 4): the first task anchors a *reference
//!   node* — the node with the most resources in the rack with the most
//!   resources; each subsequent task goes to the node minimizing a
//!   weighted Euclidean distance in resource space, subject to hard
//!   constraints.
//!
//! ## Quick example
//!
//! ```
//! use rstorm_topology::TopologyBuilder;
//! use rstorm_cluster::{ClusterBuilder, ResourceCapacity};
//! use rstorm_core::{RStormScheduler, Scheduler, GlobalState};
//!
//! let mut b = TopologyBuilder::new("demo");
//! b.set_spout("src", 4).set_cpu_load(25.0).set_memory_load(256.0);
//! b.set_bolt("sink", 4).shuffle_grouping("src").set_cpu_load(25.0).set_memory_load(256.0);
//! let topology = b.build().unwrap();
//!
//! let cluster = ClusterBuilder::new()
//!     .homogeneous_racks(2, 6, ResourceCapacity::emulab_node(), 4)
//!     .build()
//!     .unwrap();
//!
//! let scheduler = RStormScheduler::default();
//! let mut state = GlobalState::new(&cluster);
//! let assignment = scheduler.schedule(&topology, &cluster, &mut state).unwrap();
//! assert_eq!(assignment.len(), 8); // every task placed
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod adaptive;
mod assignment;
pub mod control;
mod error;
mod global_state;
#[cfg(any(test, feature = "oracle"))]
pub mod oracle;
pub mod recovery;
mod resource;
pub mod rstorm;
mod scheduler;
pub mod schedulers;
mod verify;

pub use adaptive::{
    ComponentDrift, DeltaScheduler, DriftConfig, DriftDetector, DriftReport, MigrationMove,
    MigrationPlan, ProfileRefiner,
};
pub use assignment::{Assignment, SchedulingPlan};
pub use control::{ControlJournal, ControlRecord, FlapKind, ReplayState};
pub use error::ScheduleError;
pub use global_state::{BookId, GlobalState, RemainingResources, ScheduleStats, UndoLog};
pub use recovery::{RecoveryConfig, RecoveryEvent, RecoveryManager};
pub use resource::{weighted_euclidean, NormalizationContext, SoftConstraintWeights};
pub use rstorm::{RStormConfig, RStormScheduler};
pub use scheduler::{schedule_all, Scheduler};
pub use verify::{verify_plan, Violation};
