//! # rstorm-bench
//!
//! The Criterion benches of the workspace (`cargo bench -p rstorm-bench`):
//!
//! * `scheduling_latency` times R-Storm, its scan reference and the even
//!   scheduler from 40 to 10 000 tasks, plus the reschedule after a node
//!   failure (§3's "snappy" requirement);
//! * `simulator_throughput` times the engine against the reference
//!   engine on the paper's workloads.
//!
//! The library itself is empty. The paper's figures are reproduced by
//! `rstorm reproduce` (`rstorm_workloads::figures`), the planes'
//! correctness pins are `cargo test` tests (`tests/pins.rs`,
//! `tests/sim_parity.rs` at the repository root), and speed per change is
//! judged by the benchmark of record (`benchmark/`).
