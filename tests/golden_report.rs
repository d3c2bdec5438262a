//! Golden-report regression test: the simulator's exact output —
//! deterministic JSON, every float formatted from its full bit pattern —
//! is pinned for a fixed workload, schedule, seed and horizon, and so is
//! the text of the paper's figures (`rstorm reproduce`). Any
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

/// `file` (a name with its extension) under `tests/golden/`.
fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
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
    check_golden("linear_net_quick.json", &report.to_json());
}

/// The fig-8 linear-net case spread across both racks (so flows cross
/// the trunks) on `NetworkModel::Fair`, with one link-degradation window
/// and one rack partition: every fair-plane transition — admit,
/// complete, degrade and mid-transfer sever — runs.
fn linear_net_fair_faulted() -> SimReport {
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

/// The fair-share network plane's transitions, pinned: every one feeds
/// the report, including the per-link telemetry block.
#[test]
fn linear_net_fair_faulted_report_is_stable() {
    let report = linear_net_fair_faulted();
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
    check_golden("linear_net_fair_faulted.json", &report.to_json());
}

/// The fair plane's fill work on the same run, pinned exactly: fills run
/// (one per transition), flows re-rated, filling rounds and links the
/// bottleneck searches visited. The report bytes above cannot see how
/// much work produced them.
#[test]
fn fair_plane_fill_work_is_pinned() {
    let d = linear_net_fair_faulted().debug;
    assert_eq!(
        (
            d.net_transitions,
            d.net_fill_flows,
            d.net_fill_rounds,
            d.net_links_scanned
        ),
        (180_815, 783_499, 448_752, 4_710_088)
    );
}

/// Migration churn, pinned: a scaled-down scale-plane run (400 tasks on
/// 40 nodes) with ten rounds of delta-scheduler migrations cut over
/// mid-run. Every move re-derives the moved tasks' link kinds, receiver
/// nodes and latencies, so any drift in how routing follows placement
/// shows up here.
#[test]
fn scale_churn_report_is_stable() {
    use rstorm::workloads::scale::{churn_plans, scale_cluster, scale_topology, schedule_churn};
    const HORIZON_MS: f64 = 10_000.0;
    let topology = scale_topology(400);
    let cluster = scale_cluster(40);
    let (assignment, plans) = churn_plans(&topology, &cluster, 10);
    let moves: usize = plans.iter().map(MigrationPlan::len).sum();
    assert!(moves >= 10, "expected sustained churn, got {moves} moves");
    let mut sim = Simulation::new(cluster, SimConfig::quick().with_sim_time_ms(HORIZON_MS));
    sim.add_topology(&topology, &assignment);
    schedule_churn(&mut sim, &plans, HORIZON_MS);
    let report = sim.run();
    assert!(report.totals.tuples_completed > 0, "the chain flows");
    check_golden("scale_churn_400.json", &report.to_json());
}

/// Local-or-shuffle routing across a migration, pinned: PageLoad's
/// `parse → geo-enrich` edge is local-or-shuffle, so its preference pools
/// depend on placement. One `parse` task (an LoS producer) and one
/// `geo-enrich` task (an LoS consumer) move into the same worker on a
/// node the topology did not use, and that node then crashes and
/// recovers. The roots lost in the crash time out after 30 s, so the
/// last windows show traffic flowing through the recovered node.
#[test]
fn page_load_los_migration_report_is_stable() {
    use rstorm::workloads::{clusters, yahoo};
    use std::collections::BTreeMap;
    let topology = yahoo::page_load();
    let cluster = clusters::emulab_multi();
    let assignment = RStormScheduler::new()
        .schedule(&topology, &cluster, &mut GlobalState::new(&cluster))
        .expect("page_load fits the multi cluster");
    let used = assignment.used_nodes();
    let dest = cluster
        .nodes()
        .iter()
        .map(|n| n.id().clone())
        .find(|n| !used.contains(n))
        .expect("page_load leaves nodes free");
    let tasks = topology.task_set();
    let moved = [tasks.tasks_of("parse")[0], tasks.tasks_of("geo-enrich")[0]];
    let mut slots: BTreeMap<_, _> = assignment
        .iter()
        .map(|(task, slot)| (task, slot.clone()))
        .collect();
    let moves = moved
        .iter()
        .map(|&task| {
            let from = slots[&task].node.clone();
            slots.insert(task, WorkerSlot::new(dest.as_str(), 6700));
            let component = tasks.task(task).expect("task exists").component.as_str();
            MigrationMove {
                task,
                component: component.to_owned(),
                from,
                to: dest.clone(),
            }
        })
        .collect();
    let plan = MigrationPlan {
        topology: topology.id().clone(),
        moves,
        updated: Assignment::new(topology.id().clone(), slots),
    };
    let mut sim = Simulation::new(cluster, SimConfig::quick());
    sim.add_topology(&topology, &assignment);
    sim.schedule_migration(&plan, 5_000.0, 200.0);
    sim.set_fault_plan(
        FaultPlan::new()
            .crash_node(8_000.0, dest.as_str())
            .recover_node(10_000.0, dest.as_str()),
    );
    let report = sim.run();
    assert!(report.totals.tuples_completed > 0, "the pipeline flows");
    check_golden("page_load_los_migration.json", &report.to_json());
}

/// The quick sweep grid's aggregated payload (seeds 0..8), pinned byte
/// for byte: every job's placement, fault plan, closed-loop recovery and
/// report feed the per-group distributions, so any drift in how a sweep
/// job runs shows up here. The grid costs more than a minute in a debug
/// build, so it only runs with optimisations.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: CI runs it in the release test step"
)]
fn quick_sweep_payload_is_stable() {
    use rstorm::sim::{run_sweep, SeedRange};
    use rstorm::workloads::sweep::quick_grid;
    let grid = quick_grid(SeedRange::new(0, 8).expect("0..8 is a valid range"));
    check_golden("sweep_quick.json", &run_sweep(&grid, 1).summary.to_json());
}

/// The paper's figures as `rstorm reproduce` prints them, pinned byte for
/// byte: every row of Figs 8–13 and the ablation at its full horizon
/// (five simulated minutes, fifteen for Fig 13). Any model change that
/// moves a figure shows up here as one diff against the paper's numbers.
/// The runs cost minutes in a debug build, so this only runs with
/// optimisations.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: CI runs it in the release test step"
)]
fn paper_figures_are_stable() {
    use rstorm::workloads::figures::{render, table};
    check_golden("paper_figures.txt", &render(&table()));
}
