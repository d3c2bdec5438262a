//! Chaos-harness integration: crash-then-recover scenarios on the
//! paper's workloads, exercised through the public facade.
//!
//! These pin the PR's acceptance criteria: the same fault plan and seed
//! produce bit-identical reports, and a crash-then-recover on the Yahoo
//! PageLoad topology ends with the full topology re-placed and zero
//! memory-overcommit violations.

use rstorm::prelude::*;
use rstorm::workloads::{clusters, micro, yahoo};
use std::sync::Arc;

/// The node the initial R-Storm placement put tasks on — the only kind
/// of victim whose crash actually displaces the topology.
fn host_node(cluster: &Cluster, topology: &Topology) -> String {
    let mut state = GlobalState::new(cluster);
    let a = RStormScheduler::new()
        .schedule(topology, cluster, &mut state)
        .unwrap();
    let host = a.iter().next().unwrap().1.node.as_str().to_owned();
    host
}

/// Crashes `victim` at `crash_at_ms`, heals it at `heal_at_ms`, and runs
/// that plan for a quick horizon under R-Storm and default recovery.
fn crash_recover(
    cluster: &Arc<Cluster>,
    topology: &Topology,
    victim: &str,
    crash_at_ms: f64,
    heal_at_ms: f64,
) -> ChaosOutcome {
    let plan = FaultPlan::new()
        .crash_node(crash_at_ms, victim)
        .recover_node(heal_at_ms, victim);
    run_fault_plan_with(
        cluster,
        topology,
        &plan,
        &SimConfig::quick(),
        &RecoveryConfig::default(),
        &RStormScheduler::new(),
    )
    .unwrap()
}

#[test]
fn same_fault_plan_and_seed_are_bit_identical() {
    let cluster = Arc::new(clusters::emulab_micro());
    let topology = micro::linear_network_bound();
    let victim = host_node(&cluster, &topology);
    let a = crash_recover(&cluster, &topology, &victim, 20_000.0, 35_000.0);
    let b = crash_recover(&cluster, &topology, &victim, 20_000.0, 35_000.0);
    assert_eq!(a.report, b.report);
    assert_eq!(a.report.to_json(), b.report.to_json());
    assert_eq!(a.events, b.events);
    assert_eq!(a.plan, b.plan);
}

#[test]
fn seeded_fault_plans_replay_identically_in_the_simulator() {
    let cluster = clusters::emulab_micro();
    let topology = micro::linear_network_bound();
    let mut state = GlobalState::new(&cluster);
    let assignment = RStormScheduler::new()
        .schedule(&topology, &cluster, &mut state)
        .unwrap();
    let nodes: Vec<String> = cluster
        .nodes()
        .iter()
        .map(|n| n.id().as_str().to_owned())
        .collect();
    let names: Vec<&str> = nodes.iter().map(String::as_str).collect();
    let plan = FaultPlan::seeded_crashes(7, &names, 2, 10_000.0, 40_000.0, 5_000.0);

    let run = |plan: FaultPlan| {
        let mut sim = Simulation::new(cluster.clone(), SimConfig::quick());
        sim.add_topology(&topology, &assignment);
        sim.set_fault_plan(plan);
        sim.run()
    };
    let r1 = run(plan.clone());
    let r2 = run(plan.clone());
    assert_eq!(r1, r2, "same plan, same seed, same bits");
    // And a different seed is a genuinely different plan.
    assert_ne!(
        plan,
        FaultPlan::seeded_crashes(8, &names, 2, 10_000.0, 40_000.0, 5_000.0)
    );
}

#[test]
fn survivable_seeded_crashes_lose_nothing_under_replay() {
    // Property: when every crashed node recovers (seeded_crashes always
    // pairs a crash with a recovery) and the replay budget is ample, the
    // guaranteed-processing plane quarantines nothing and every root that
    // settled within the run acked — across seeds, and bit-identically
    // on repeat runs of the same seed.
    let cluster = clusters::emulab_micro();
    let topology = micro::linear_network_bound();
    let mut state = GlobalState::new(&cluster);
    let assignment = RStormScheduler::new()
        .schedule(&topology, &cluster, &mut state)
        .unwrap();
    let nodes: Vec<String> = cluster
        .nodes()
        .iter()
        .map(|n| n.id().as_str().to_owned())
        .collect();
    let names: Vec<&str> = nodes.iter().map(String::as_str).collect();

    let run = |plan: FaultPlan| {
        let mut sim = Simulation::new(cluster.clone(), SimConfig::quick().with_max_replays(8));
        sim.add_topology(&topology, &assignment);
        sim.set_fault_plan(plan);
        sim.run()
    };

    let mut total_replays = 0;
    for seed in [1, 7, 42, 1337] {
        let plan = FaultPlan::seeded_crashes(seed, &names, 2, 10_000.0, 40_000.0, 5_000.0);
        let report = run(plan.clone());
        assert_eq!(
            report.tuples_quarantined(),
            0,
            "seed {seed}: survivable crashes must quarantine nothing"
        );
        assert_eq!(
            report.zero_loss_ratio(),
            1.0,
            "seed {seed}: every settled root must ack ({:?})",
            report.totals
        );
        total_replays += report.totals.roots_replayed;

        // Same seed, same bits — in the report and its JSON rendering.
        let again = run(plan);
        assert_eq!(report, again, "seed {seed}: replay runs are deterministic");
        assert_eq!(report.to_json(), again.to_json());
    }
    assert!(
        total_replays > 0,
        "at least one seed must actually exercise the replay path"
    );
}

#[test]
fn adaptive_rebalance_never_targets_a_dead_node() {
    use rstorm::cluster::NodeId;
    use rstorm::workloads::drifted;
    use std::collections::BTreeSet;

    let mut cluster = clusters::emulab_micro();
    let topology = drifted::under_declared_linear();
    let mut state = GlobalState::new(&cluster);
    let assignment = RStormScheduler::new()
        .schedule(&topology, &cluster, &mut state)
        .unwrap();
    let host = assignment.iter().next().unwrap().1.node.as_str().to_owned();

    // An idle node goes silent: it displaces nothing (the drifted
    // pipeline is packed on `host`), but being empty it has maximal CPU
    // headroom — exactly the node a naive target pick would migrate onto.
    let victim = cluster
        .nodes()
        .iter()
        .map(|n| n.id().as_str().to_owned())
        .find(|n| *n != host)
        .unwrap();
    let mut manager = RecoveryManager::new(RecoveryConfig::default());
    for node in cluster.nodes() {
        manager.observe_heartbeat(node.id().as_str(), 0.0);
    }
    let names: Vec<String> = cluster
        .nodes()
        .iter()
        .map(|n| n.id().as_str().to_owned())
        .collect();
    for node in &names {
        if *node != victim {
            manager.observe_heartbeat(node, 10_000.0);
        }
    }
    let scheduler = RStormScheduler::new();
    let events = manager.tick(10_000.0, &mut cluster, &mut state, &scheduler, &[&topology]);
    assert!(
        events
            .iter()
            .any(|e| matches!(e, RecoveryEvent::NodeDeclaredDead { node, .. } if *node == victim)),
        "victim declared dead: {events:?}"
    );
    let forbidden: BTreeSet<NodeId> = manager.dead_nodes().map(NodeId::new).collect();
    assert!(forbidden.contains(&NodeId::new(victim.as_str())));

    // The drift the adaptive plane would see: the hot bolt grossly
    // under-declared, the hosting node saturated, everything else starved
    // (the dead node's last observation included).
    let mut refiner = ProfileRefiner::new(1.0);
    refiner.observe(
        topology.id().as_str(),
        "crunch",
        drifted::HOT_DECLARED_POINTS,
        30.0,
    );
    let utils: Vec<(String, f64)> = names
        .iter()
        .map(|n| (n.clone(), if *n == host { 0.97 } else { 0.02 }))
        .collect();
    let drift = DriftDetector::default().detect(&topology, &refiner, &utils);
    assert!(!drift.is_clean());

    let plan = DeltaScheduler::new()
        .plan(
            &topology, &cluster, &mut state, &drift, &refiner, &forbidden,
        )
        .unwrap();
    assert!(!plan.is_empty(), "the saturated host sheds tasks");
    for m in &plan.moves {
        assert!(
            !forbidden.contains(&m.to),
            "move {m:?} targets the dead node {victim}"
        );
    }
    for (task, slot) in plan.updated.iter() {
        assert!(
            slot.node.as_str() != victim,
            "task {task} placed on the dead node {victim}"
        );
    }
}

#[test]
fn yahoo_page_load_crash_then_recover_replaces_everything() {
    let cluster = Arc::new(clusters::emulab_multi());
    let topology = yahoo::page_load();
    let victim = host_node(&cluster, &topology);
    let out = crash_recover(&cluster, &topology, &victim, 15_000.0, 30_000.0);

    // The outage was seen and fully recovered from.
    let obs = out.observations;
    assert!(obs.time_to_detect_ms > 0.0, "crash detected: {obs:?}");
    assert!(
        obs.time_to_recover_ms >= obs.time_to_detect_ms,
        "fully re-placed after detection: {obs:?}"
    );
    assert!(obs.reschedule_attempts >= 1);

    // The final plan places every task and violates nothing — in
    // particular zero memory overcommit.
    let assignment = out
        .plan
        .assignment(topology.id().as_str())
        .expect("topology re-placed");
    assert!(!assignment.is_degraded(), "no unplaced tasks remain");
    let violations = verify_plan(&out.plan, &[&topology], &cluster);
    assert!(violations.is_empty(), "clean plan, got {violations:?}");

    // The recovery metrics ride along in the report and its JSON.
    assert_eq!(out.report.recovery, Some(obs));
    assert!(out.report.to_json().contains("\"recovery\""));
}
