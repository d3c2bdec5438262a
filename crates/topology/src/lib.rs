//! # rstorm-topology
//!
//! A Storm-style *topology* model: the logical computation graph a stream
//! processing application is described by, exactly as consumed by the
//! R-Storm scheduler (Peng et al., *R-Storm: Resource-Aware Scheduling in
//! Storm*, Middleware '15).
//!
//! A topology is a directed graph whose vertices are **components** —
//! either **spouts** (stream sources) or **bolts** (stream transformers) —
//! and whose edges are **streams** consumed under a **grouping** (shuffle,
//! fields, all, global, ...). Each component carries a *parallelism hint*
//! and a per-instance [`ResourceRequest`] mirroring Storm's
//! `setCPULoad` / `setMemoryLoad` user API from §5.2 of the paper.
//!
//! At schedule time every component is instantiated into `parallelism`
//! **tasks** ([`TaskSet`]), which is the unit the scheduler places onto
//! cluster nodes.
//!
//! ## Example
//!
//! ```
//! use rstorm_topology::TopologyBuilder;
//!
//! let mut builder = TopologyBuilder::new("word-count");
//! builder
//!     .set_spout("words", 10)
//!     .set_cpu_load(50.0)
//!     .set_memory_load(1024.0);
//! builder
//!     .set_bolt("count", 5)
//!     .shuffle_grouping("words")
//!     .set_cpu_load(25.0)
//!     .set_memory_load(512.0);
//! let topology = builder.build().unwrap();
//!
//! assert_eq!(topology.components().len(), 2);
//! assert_eq!(topology.total_tasks(), 15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod builder;
mod component;
mod error;
mod grouping;
mod ids;
mod profile;
mod resource;
mod task;
mod topology;
mod traversal;

pub use builder::{BoltDeclarer, SpoutDeclarer, TopologyBuilder};
pub use component::{Component, ComponentKind, InputDeclaration};
pub use error::TopologyError;
pub use grouping::StreamGrouping;
pub use ids::{ComponentId, StreamId, TaskId, TopologyId};
pub use profile::ExecutionProfile;
pub use resource::ResourceRequest;
pub use task::{Task, TaskSet};
pub use topology::Topology;
pub use traversal::{bfs_component_order, dfs_component_order, TraversalOrder};
