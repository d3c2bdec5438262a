//! Inputs shared by more than one integration-test binary.

use rstorm::prelude::*;
use rstorm::workloads::cases::fig8_cases;

/// The fig-8 linear-net case spread across both racks (so flows cross
/// the trunks) on `NetworkModel::Fair`, with one link-degradation window
/// and one rack partition: every fair-plane transition — admit,
/// complete, degrade and mid-transfer sever — runs.
pub fn linear_net_fair_faulted() -> SimReport {
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
    sim.run()
}
