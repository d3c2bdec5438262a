//! Golden-report regression test: the simulator's exact output —
//! deterministic JSON, every float formatted from its full bit pattern —
//! is pinned for a fixed workload, schedule, seed and horizon. Any
//! change to event ordering, RNG consumption, float arithmetic order or
//! the report boundary shows up as a diff here, even if it is too small
//! to fail a statistical assertion.
//!
//! To bless an *intentional* behaviour change, regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test golden_report` and review the
//! diff like any other code change.

use rstorm::prelude::*;
use rstorm::workloads::cases::fig8_cases;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "{name}: report drifted from {}.\n\
         If the change is intentional, regenerate with UPDATE_GOLDEN=1 \
         and review the diff.\n--- expected ---\n{expected}\n--- actual ---\n{actual}",
        path.display()
    );
}

#[test]
fn linear_net_quick_report_is_stable() {
    let case = fig8_cases()
        .into_iter()
        .find(|c| c.name == "linear_net")
        .expect("linear_net case exists");
    let assignment = RStormScheduler::new()
        .schedule(
            &case.topology,
            &case.cluster,
            &mut GlobalState::new(&case.cluster),
        )
        .expect("linear_net is feasible");
    let mut sim = Simulation::new(case.cluster, SimConfig::quick());
    sim.add_topology(&case.topology, &assignment);
    let report = sim.run();
    check_golden("linear_net_quick", &report.to_json());
}

/// The fair-share network plane's transitions, pinned: the fig-8
/// linear-net case spread across both racks (so flows cross the trunks)
/// on `NetworkModel::Fair`, with one link-degradation window and one
/// rack partition. Every plane transition — admit, complete, degrade
/// and mid-transfer sever — feeds the report, including the per-link
/// telemetry block.
#[test]
fn linear_net_fair_faulted_report_is_stable() {
    let case = fig8_cases()
        .into_iter()
        .find(|c| c.name == "linear_net")
        .expect("linear_net case exists");
    let assignment = EvenScheduler::new()
        .schedule(
            &case.topology,
            &case.cluster,
            &mut GlobalState::new(&case.cluster),
        )
        .expect("linear_net is feasible");
    let rack = case.cluster.racks()[0].as_str().to_owned();
    let mut config = SimConfig::quick()
        .with_sim_time_ms(20_000.0)
        .with_network_model(NetworkModel::Fair);
    config.max_pending = 8; // bound concurrent flows; debug builds stay fast
    let mut sim = Simulation::new(case.cluster, config);
    sim.add_topology(&case.topology, &assignment);
    sim.set_fault_plan(
        FaultPlan::new()
            .degrade_links(4_000.0, 8_000.0, 100.0)
            .partition_rack(11_000.0, 14_000.0, &rack),
    );
    let report = sim.run();
    let net = report.network.as_ref().expect("fair runs export telemetry");
    assert!(
        net.links
            .iter()
            .filter(|l| l.link.ends_with(".uplink"))
            .any(|l| l.mb_carried > 0.0),
        "the spread placement must cross the trunks"
    );
    assert!(
        report.totals.tuples_lost > 0,
        "the partition must sever in-flight trunk flows"
    );
    check_golden("linear_net_fair_faulted", &report.to_json());
}
