//! Multi-topology scheduling (§6.5): several applications sharing one
//! cluster through one `GlobalState`.

use rstorm::prelude::*;
use rstorm::workloads::{clusters, yahoo};

#[test]
fn rstorm_separates_the_yahoo_topologies() {
    let cluster = clusters::emulab_multi();
    let processing = yahoo::processing();
    let page_load = yahoo::page_load();
    let plan = schedule_all(
        &RStormScheduler::new(),
        &[&processing, &page_load],
        &cluster,
    )
    .expect("both fit the 24-node cluster");

    assert!(verify_plan(&plan, &[&processing, &page_load], &cluster).is_empty());

    let a = plan.assignment("processing").unwrap().used_nodes();
    let b = plan.assignment("page-load").unwrap().used_nodes();
    let overlap = a.intersection(&b).count();
    assert!(
        overlap <= 2,
        "R-Storm should keep the topologies mostly apart, overlapped on {overlap} nodes"
    );
}

#[test]
fn default_scheduler_interleaves_the_topologies() {
    let cluster = clusters::emulab_multi();
    let processing = yahoo::processing();
    let page_load = yahoo::page_load();
    let plan = schedule_all(&EvenScheduler::new(), &[&processing, &page_load], &cluster).unwrap();

    let a = plan.assignment("processing").unwrap().used_nodes();
    let b = plan.assignment("page-load").unwrap().used_nodes();
    assert!(
        a.intersection(&b).count() >= 4,
        "round-robin wrap-around shares machines between topologies"
    );
}

#[test]
fn shared_state_accumulates_reservations() {
    let cluster = clusters::emulab_multi();
    let processing = yahoo::processing();
    let page_load = yahoo::page_load();

    let mut state = GlobalState::new(&cluster);
    let scheduler = RStormScheduler::new();
    scheduler
        .schedule(&processing, &cluster, &mut state)
        .unwrap();
    let remaining_after_first: f64 = state.iter_remaining().map(|(_, r)| r.cpu_points).sum();
    scheduler
        .schedule(&page_load, &cluster, &mut state)
        .unwrap();
    let remaining_after_second: f64 = state.iter_remaining().map(|(_, r)| r.cpu_points).sum();
    assert!(
        remaining_after_second < remaining_after_first,
        "the second topology must see the first one's reservations"
    );

    // Releasing the first returns exactly its demand.
    state.release_topology("processing");
    let after_release: f64 = state.iter_remaining().map(|(_, r)| r.cpu_points).sum();
    let expected = remaining_after_second + processing.total_resources().cpu_points;
    assert!((after_release - expected).abs() < 1e-6);
}

#[test]
fn joint_simulation_runs_both_topologies() {
    let cluster = clusters::emulab_multi();
    let processing = yahoo::processing();
    let page_load = yahoo::page_load();
    let plan = schedule_all(
        &RStormScheduler::new(),
        &[&processing, &page_load],
        &cluster,
    )
    .unwrap();

    let mut sim = Simulation::new(cluster, SimConfig::quick());
    sim.add_topology(&page_load, plan.assignment("page-load").unwrap());
    sim.add_topology(&processing, plan.assignment("processing").unwrap());
    let report = sim.run();

    assert!(report.steady_throughput("page-load", 1) > 0.0);
    assert!(report.steady_throughput("processing", 1) > 0.0);
    assert_eq!(report.totals.roots_timed_out, 0, "R-Storm plan is healthy");
}

#[test]
fn degraded_processing_under_default_schedule() {
    // The Figure 13 mechanism in miniature: under the default scheduler
    // the Processing pipeline loses throughput it keeps under R-Storm.
    // (The full death spiral needs the 15-minute run of
    // `rstorm reproduce --figure 13`.)
    let cluster = clusters::emulab_multi();
    let processing = yahoo::processing();
    let page_load = yahoo::page_load();

    let run = |scheduler: &dyn Scheduler| {
        let plan = schedule_all(scheduler, &[&processing, &page_load], &cluster).unwrap();
        let mut sim = Simulation::new(cluster.clone(), SimConfig::quick());
        sim.add_topology(&page_load, plan.assignment("page-load").unwrap());
        sim.add_topology(&processing, plan.assignment("processing").unwrap());
        sim.run()
    };

    let rstorm = run(&RStormScheduler::new());
    let default = run(&EvenScheduler::new());
    let r = rstorm.steady_throughput("processing", 2);
    let d = default.steady_throughput("processing", 2);
    assert!(
        d < 0.95 * r,
        "processing under default ({d:.0}) should trail R-Storm ({r:.0})"
    );
}

#[test]
fn duplicate_submission_is_rejected() {
    let cluster = clusters::emulab_multi();
    let t = yahoo::page_load();
    let err = schedule_all(&RStormScheduler::new(), &[&t, &t], &cluster).unwrap_err();
    assert!(matches!(err, ScheduleError::AlreadyScheduled(_)));
}

/// A migration plan's task indices belong to the topology it names. With
/// two topologies in one simulation, an index one past `processing`'s
/// last task would otherwise land on `page_load`'s first task and move
/// it silently; the engine rejects the plan instead.
#[test]
#[should_panic(expected = "migration references unknown task 13 of topology `processing`")]
fn migration_past_a_topology_cannot_move_its_neighbour() {
    use std::collections::BTreeMap;
    let cluster = clusters::emulab_multi();
    let processing = yahoo::processing();
    let page_load = yahoo::page_load();
    let plan = schedule_all(
        &RStormScheduler::new(),
        &[&processing, &page_load],
        &cluster,
    )
    .expect("both fit the 24-node cluster");
    let a = plan.assignment("processing").unwrap();
    let b = plan.assignment("page-load").unwrap();
    assert_eq!(processing.total_tasks(), 13);
    let ghost = rstorm::topology::TaskId(13);
    let dest = cluster.nodes()[cluster.nodes().len() - 1].id().clone();
    let mut slots: BTreeMap<_, _> = a.iter().map(|(t, s)| (t, s.clone())).collect();
    slots.insert(ghost, WorkerSlot::new(dest.as_str(), 6700));
    let migration = MigrationPlan {
        topology: processing.id().clone(),
        moves: vec![MigrationMove {
            task: ghost,
            component: "decode".to_owned(),
            from: dest.clone(),
            to: dest,
        }],
        updated: Assignment::new(processing.id().clone(), slots),
    };
    let mut sim = Simulation::new(cluster, SimConfig::quick());
    sim.add_topology(&processing, a);
    sim.add_topology(&page_load, b);
    sim.schedule_migration(&migration, 1_000.0, 0.0);
    sim.run();
}
