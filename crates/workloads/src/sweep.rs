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
use rstorm_sim::{FaultSpec, SeedRange, SimConfig, SweepCase, SweepGrid};
use std::sync::Arc;

/// Crash time shared by both grids (milliseconds).
const CRASH_AT_MS: f64 = 20_000.0;
/// Heal time of the survivable outage (milliseconds).
const HEAL_AT_MS: f64 = 35_000.0;
/// Replay budget: far above what a single survivable outage can consume.
const MAX_REPLAYS: u32 = 8;

/// The quick grid: 2 cases × 2 schedulers × 2 faults × seeds, 60 s sims.
/// Small enough for a CI test run; every fault spec is survivable, so
/// the whole grid is zero-loss-gated.
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
            FaultSpec::Healthy,
            FaultSpec::CrashRecover {
                crash_at_ms: CRASH_AT_MS,
                heal_at_ms: HEAL_AT_MS,
            },
        ],
        seeds,
        sim: SimConfig::quick().with_max_replays(MAX_REPLAYS),
    }
}

/// Partition window of the full grid's mixed-fault specs (milliseconds):
/// 15 s of severed inter-rack traffic and silenced heartbeats, well past
/// the detection window, healing with most of the horizon left.
const PARTITION_UNTIL_MS: f64 = 35_000.0;
/// Flap-storm shape of the full grid: three 4 s outages 8 s apart —
/// each long enough to be declared dead, short enough to exercise the
/// recovery plane's trust hysteresis and churn limiter.
const FLAP_DOWN_MS: f64 = 4_000.0;
/// Up time between flap outages (milliseconds).
const FLAP_UP_MS: f64 = 8_000.0;
/// Number of flap cycles.
const FLAPS: u32 = 3;
/// Congestion window end of the full grid (milliseconds): 15 s of
/// background traffic squeezing every link on the fair network plane.
const CONGESTION_UNTIL_MS: f64 = 35_000.0;
/// Congestion severity: capacity shrinks to
/// `100 / (100 + 400) = 20 %` for the window's duration.
const CONGESTION_EXTRA_MS: f64 = 400.0;
/// Nimbus-outage shape of the full grid: the control plane goes dark
/// 2 s before the worker crash and stays down for 10 s, so the crash
/// falls entirely inside the outage and only a journaled successor
/// (the spec runs journal-on) can detect and reschedule it.
const NIMBUS_AT_MS: f64 = 18_000.0;
/// Length of the Nimbus outage (milliseconds).
const NIMBUS_DOWN_MS: f64 = 10_000.0;

/// The full grid: all five benchmark workloads × 3 schedulers × 7 faults
/// × seeds at the paper's 300 s horizon — the production-scale
/// validation sweep. Includes the non-survivable lasting-crash
/// scenario, whose groups are exempt from the zero-loss pin, plus the
/// mixed-fault vocabulary (rack partition, flap storm, background-traffic
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
            FaultSpec::Healthy,
            FaultSpec::CrashRecover {
                crash_at_ms: CRASH_AT_MS,
                heal_at_ms: HEAL_AT_MS,
            },
            FaultSpec::CrashLasting {
                crash_at_ms: CRASH_AT_MS,
            },
            FaultSpec::Partition {
                at_ms: CRASH_AT_MS,
                until_ms: PARTITION_UNTIL_MS,
            },
            FaultSpec::Flap {
                first_at_ms: CRASH_AT_MS,
                flaps: FLAPS,
                down_ms: FLAP_DOWN_MS,
                up_ms: FLAP_UP_MS,
            },
            FaultSpec::Congestion {
                at_ms: CRASH_AT_MS,
                until_ms: CONGESTION_UNTIL_MS,
                extra_ms: CONGESTION_EXTRA_MS,
            },
            FaultSpec::NimbusOutage {
                crash_at_ms: CRASH_AT_MS,
                heal_at_ms: HEAL_AT_MS,
                nimbus_at_ms: NIMBUS_AT_MS,
                nimbus_down_ms: NIMBUS_DOWN_MS,
            },
        ],
        seeds,
        sim: SimConfig::default().with_max_replays(MAX_REPLAYS),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstorm_core::{schedulers, GlobalState};

    #[test]
    fn quick_grid_is_fully_survivable() {
        let grid = quick_grid(SeedRange::new(0, 4).unwrap());
        assert!(grid.faults.iter().all(FaultSpec::survivable));
        assert_eq!(grid.job_count(), 2 * 2 * 2 * 4);
    }

    #[test]
    fn full_grid_covers_the_mixed_fault_vocabulary() {
        let grid = full_grid(SeedRange::new(0, 1).unwrap());
        let labels: Vec<&str> = grid.faults.iter().map(FaultSpec::label).collect();
        assert_eq!(
            labels,
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
        // Everything but the lasting crash is survivable and therefore
        // zero-loss-gated — including both new mixed-fault specs.
        for fault in &grid.faults {
            assert_eq!(
                fault.survivable(),
                fault.label() != "crash_lasting",
                "{}",
                fault.label()
            );
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
