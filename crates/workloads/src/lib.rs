//! # rstorm-workloads
//!
//! The benchmark workloads of the R-Storm paper, reconstructed:
//!
//! * [`micro`] — the Linear, Diamond and Star micro-benchmark topologies
//!   of Figure 7, each in the *network-bound* (§6.3.1) and
//!   *computation-time-bound* (§6.3.2) configurations.
//! * [`yahoo`] — the PageLoad and Processing topologies modeled after the
//!   production layouts of Figure 11 (event-level advertising data
//!   pipelines for near-real-time analytical reporting).
//! * [`figures`] — the paper's Figs 8–13 and our ablation as one table
//!   of R-Storm-versus-baseline rows, with its runner and text renderer
//!   (`rstorm reproduce`).
//! * [`drifted`] — topologies whose declared profiles are deliberately
//!   wrong, the test cases of the adaptive rebalance plane.
//! * [`clusters`] — the Emulab cluster presets of §6.1: two racks
//!   ("VLANs") of six or twelve single-core 2 GB workers on 100 Mbps
//!   NICs with a 4 ms inter-rack RTT.
//! * [`sweep`] — the quick/full scenario-grid presets of the Monte-Carlo
//!   sweep fleet (`rstorm sweep`).
//! * [`scale`] — the 10k-task / 1k-node stress case plus its
//!   migration-churn variant (`rstorm scale`, the benchmark of record's
//!   `scale_*` workloads);
//!   sized to expose asymptotic engine costs, not to mirror the paper.
//!
//! Component execution profiles (per-tuple CPU cost, fan-out, tuple size)
//! and resource hints are calibrated so that the simulated experiments
//! reproduce the *shape* of the paper's results; the exact constants are
//! documented per workload and recorded in EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod cases;
pub mod clusters;
pub mod drifted;
pub mod figures;
pub mod micro;
pub mod scale;
pub mod sweep;
pub mod yahoo;
