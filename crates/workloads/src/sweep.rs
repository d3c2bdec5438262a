//! The scenario-grid presets of the Monte-Carlo sweep fleet
//! (`rstorm sweep --grid quick|full`).
//!
//! Both grids crash the victim at t=20 s — after warm-up, with plenty of
//! horizon left — matching the crash-then-recover and replay pins in
//! `tests/pins.rs`, so sweep distributions are directly comparable to
//! those point estimates.
//! Replay budgets are generous (`max_replays = 8`): on the survivable
//! scenarios a root would need more than eight failures to be
//! quarantined, which the crash/heal timing cannot produce, so
//! `zero_loss_ratio == 1.0` is a hard correctness gate on every
//! survivable group (pinned on the quick grid by `tests/pins.rs`).

use crate::{cases, clusters, micro, yahoo};
use rstorm_sim::{SeedRange, SimConfig, SweepCase, SweepFault, SweepGrid};
use std::sync::Arc;

/// Replay budget: far above what a single survivable outage can consume.
const MAX_REPLAYS: u32 = 8;

/// No injected faults: the plain (replay-enabled) run.
const HEALTHY: &str = "";
/// Crash the host at 20 s and heal it at 35 s — the survivable outage of
/// the crash/replay pins.
const CRASH_RECOVER: &str = "crash 20000.0 {host}\nrecover 35000.0 {host}\n";
/// Crash the host at 20 s and never heal it: recovery depends entirely
/// on re-placement onto survivors, and long runs may legitimately
/// quarantine roots (not survivable, so zero-loss gates skip it).
const CRASH_LASTING: &str = "crash 20000.0 {host}\n";
/// Partition the host's rack over 20 s..35 s: 15 s of severed inter-rack
/// traffic and silenced heartbeats, well past the detection (miss)
/// window, healing with most of the horizon left.
const PARTITION: &str = "partition 20000.0 35000.0 {host_rack}\n";
/// A flap storm on the host: three 4 s outages 8 s apart from 20 s —
/// each long enough to be declared dead, short enough to exercise the
/// recovery plane's trust hysteresis and churn limiter.
const FLAP: &str = "\
crash 20000.0 {host}
recover 24000.0 {host}
crash 32000.0 {host}
recover 36000.0 {host}
crash 44000.0 {host}
recover 48000.0 {host}
";
/// 15 s of background traffic from 20 s squeezing every link on the fair
/// network plane: capacity shrinks to `100 / (100 + 400) = 20 %`.
const CONGESTION: &str = "degrade 20000.0 35000.0 400.0\n";
/// The survivable crash masked by a Nimbus outage: the control plane goes
/// dark 2 s before the crash and stays down for 10 s, so the crash falls
/// entirely inside the outage and only a journaled successor (the journal
/// is on for plans with control faults) can detect and reschedule it.
const NIMBUS_OUTAGE: &str = "\
crash 20000.0 {host}
recover 35000.0 {host}
nimbus 18000.0 10000.0
";

/// The quick grid: 2 cases × 2 schedulers × 2 faults × seeds, 60 s sims.
/// Small enough for a CI test run; every fault is survivable, so the
/// whole grid is zero-loss-gated.
pub fn quick_grid(seeds: SeedRange) -> SweepGrid {
    SweepGrid {
        cases: vec![
            SweepCase {
                name: "linear_net".to_owned(),
                topology: micro::linear_network_bound(),
                cluster: Arc::new(clusters::emulab_micro()),
            },
            SweepCase {
                name: "page_load".to_owned(),
                topology: yahoo::page_load(),
                cluster: Arc::new(clusters::emulab_multi()),
            },
        ],
        schedulers: vec!["rstorm".to_owned(), "even".to_owned()],
        faults: vec![
            SweepFault::new("healthy", HEALTHY),
            SweepFault::new("crash_recover", CRASH_RECOVER),
        ],
        seeds,
        sim: SimConfig::quick().with_max_replays(MAX_REPLAYS),
    }
}

/// The full grid: all five benchmark workloads × 3 schedulers × 7 faults
/// × seeds at the paper's 300 s horizon — the production-scale
/// validation sweep. Includes the non-survivable lasting crash, whose
/// groups are exempt from the zero-loss pin, plus the mixed-fault
/// vocabulary (rack partition, flap storm, background-traffic
/// congestion on the fair network plane, a worker crash masked by a
/// Nimbus outage and healed by journaled failover) of the chaos
/// fuzzer — all survivable, so zero-loss-gated.
pub fn full_grid(seeds: SeedRange) -> SweepGrid {
    let cases = cases::fig8_cases()
        .into_iter()
        .chain(cases::yahoo_cases())
        .map(|c| SweepCase {
            name: c.name.to_owned(),
            topology: c.topology,
            cluster: Arc::new(c.cluster),
        })
        .collect();
    SweepGrid {
        cases,
        schedulers: vec!["rstorm".to_owned(), "even".to_owned(), "offline".to_owned()],
        faults: vec![
            SweepFault::new("healthy", HEALTHY),
            SweepFault::new("crash_recover", CRASH_RECOVER),
            SweepFault::new("crash_lasting", CRASH_LASTING),
            SweepFault::new("partition", PARTITION),
            SweepFault::new("flap", FLAP),
            SweepFault {
                fair_network: true,
                ..SweepFault::new("congestion", CONGESTION)
            },
            SweepFault::new("nimbus_outage", NIMBUS_OUTAGE),
        ],
        seeds,
        sim: SimConfig::default().with_max_replays(MAX_REPLAYS),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstorm_core::{schedulers, GlobalState};
    use rstorm_sim::sweep::survivable;
    use rstorm_sim::FaultPlan;

    /// Every fault of both grids parses, fills for every case's host and
    /// rack exactly as the text substitution would, round-trips as
    /// canonical plan text, and derives the
    /// per-fault rules from the plan: only the lasting crash is not
    /// survivable, only the Nimbus outage turns the journal on, and only
    /// congestion runs on the fair plane.
    #[test]
    fn preset_faults_fill_parse_and_derive_their_rules() {
        let seeds = SeedRange::new(0, 4).unwrap();
        let quick = quick_grid(seeds);
        let full = full_grid(seeds);
        assert_eq!(quick.job_count(), 2 * 2 * 2 * 4);
        let labels = |grid: &SweepGrid| -> Vec<String> {
            grid.faults.iter().map(|f| f.label.clone()).collect()
        };
        assert_eq!(labels(&quick), ["healthy", "crash_recover"]);
        assert_eq!(
            labels(&full),
            [
                "healthy",
                "crash_recover",
                "crash_lasting",
                "partition",
                "flap",
                "congestion",
                "nimbus_outage"
            ]
        );
        for grid in [&quick, &full] {
            for case in &grid.cases {
                for node in case.cluster.nodes() {
                    let (host, rack) = (node.id().as_str(), node.rack().as_str());
                    for fault in &grid.faults {
                        let filled = fault
                            .plan
                            .replace("{host}", host)
                            .replace("{host_rack}", rack);
                        let plan = FaultPlan::from_text(&fault.plan)
                            .unwrap_or_else(|e| panic!("{}: {e}", fault.label))
                            .fill_placeholders(host, rack);
                        assert_eq!(plan.to_text(), filled, "{}", fault.label);
                        let label = fault.label.as_str();
                        assert_eq!(survivable(&plan), label != "crash_lasting", "{label}");
                        assert_eq!(
                            plan.has_control_faults(),
                            label == "nimbus_outage",
                            "{label}"
                        );
                        assert_eq!(fault.fair_network, label == "congestion", "{label}");
                    }
                }
            }
        }
    }

    /// Every (case, scheduler) pair of the full grid must place: a
    /// scheduler that cannot place a grid case would panic a sweep
    /// worker mid-run.
    #[test]
    fn full_grid_pairs_are_schedulable() {
        let grid = full_grid(SeedRange::new(0, 1).unwrap());
        for case in &grid.cases {
            for name in &grid.schedulers {
                let s = schedulers::by_name(name).unwrap();
                let mut state = GlobalState::new(&case.cluster);
                let a = s
                    .schedule(&case.topology, &case.cluster, &mut state)
                    .unwrap_or_else(|e| panic!("{name} cannot place {}: {e}", case.name));
                assert!(a.iter().next().is_some(), "{name}/{}", case.name);
            }
        }
    }
}
