//! # rstorm-cluster
//!
//! The Nimbus-side *cluster* model consumed by the R-Storm scheduler:
//! racks, worker nodes (supervisors) with resource capacities, worker
//! slots, and the data-center network-distance hierarchy the paper's
//! node-selection metric is built on (§4):
//!
//! 1. inter-rack communication is the slowest,
//! 2. inter-node communication is slow,
//! 3. inter-process communication is faster,
//! 4. intra-process communication is the fastest.
//!
//! Capacities mirror the paper's `storm.yaml` administration API (§5.2):
//! `supervisor.memory.capacity.mb` and `supervisor.cpu.capacity` (in CPU
//! points, 100 per core). Outside Rust code they are set per node through
//! the `rstorm-spec` cluster format (`node <id> cpu=<points> mem=<MB>
//! slots=<n>`).
//!
//! ## Example
//!
//! ```
//! use rstorm_cluster::{ClusterBuilder, ResourceCapacity};
//!
//! // The paper's Emulab setup: two racks ("VLANs") of six single-core
//! // 2 GB machines.
//! let cluster = ClusterBuilder::new()
//!     .homogeneous_racks(2, 6, ResourceCapacity::new(100.0, 2048.0, 100.0), 4)
//!     .build()
//!     .unwrap();
//! assert_eq!(cluster.nodes().len(), 12);
//! assert_eq!(cluster.racks().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod builder;
mod cluster;
mod error;
mod ids;
mod index;
mod network;
mod node;

pub use builder::ClusterBuilder;
pub use cluster::Cluster;
pub use error::ClusterError;
pub use ids::{NodeId, RackId, WorkerSlot};
pub use index::ClusterIndex;
pub use network::{NetworkCosts, PlacementRelation};
pub use node::{Node, ResourceCapacity};
