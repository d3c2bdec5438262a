//! # rstorm-metrics
//!
//! Statistics collection for R-Storm — the counterpart of the paper's
//! *StatisticServer* module (§5.1): "responsible for collecting statistics
//! in the Storm cluster, e.g., throughput on a task, component, and
//! topology level."
//!
//! The reporting conventions match the paper's evaluation (§6.2):
//! throughput is tallied in **tuples per 10-second window**, topology
//! throughput is the **average throughput of all output (sink) bolts**,
//! and CPU utilization is averaged over the machines actually used.
//!
//! ## Example
//!
//! ```
//! use rstorm_metrics::WindowedCounter;
//!
//! let mut counter = WindowedCounter::new(10_000.0); // 10 s windows
//! counter.record(500.0, 3);
//! counter.record(12_000.0, 5);
//! assert_eq!(counter.window_counts(), vec![3, 5]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod counter;
mod cpu;
mod report;
mod stats_server;
mod summary;

pub use counter::WindowedCounter;
pub use cpu::CpuUtilizationTracker;
pub use report::text_table;
pub use stats_server::{StatisticServer, ThroughputReport};
pub use summary::Summary;
