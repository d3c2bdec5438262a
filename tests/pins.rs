//! Correctness pins of the scheduler and simulator planes, one test per
//! plane, each on fixed inputs with fixed thresholds.
//!
//! The hard pins are exact and have no override:
//!
//! * `zero_loss_ratio == 1.0` — spout replay through a survivable
//!   crash-then-recover outage, and every group of the quick sweep grid;
//! * `fuzz_violations == 0` — the fixed-seed clean and planted fuzz
//!   campaigns;
//! * `rstorm_beats_even_on_trunk >= 1.0` — proximity packing against the
//!   spread baseline on an oversubscribed fabric under the fair network
//!   plane;
//! * `failover_zero_loss == 1.0` and `reconciliation_convergence == 1.0`
//!   — journaled Nimbus failover and its reconciliation audits.
//!
//! Speed is not pinned here: the benchmark of record (`benchmark/`) and
//! the Criterion benches (`cargo bench -p rstorm-bench`) measure it.
//!
//! The sweep grid and the fuzz campaigns cost more than a minute in a
//! debug build, so they only run with optimisations:
//!
//! ```text
//! cargo test --release -q --test pins --test sim_parity
//! ```

use rstorm::prelude::*;
use rstorm::scheduler::schedulers;
use rstorm::sim::sweep::run_sweep;
use rstorm::sim::{check_fault_plan, run_fuzz_campaign, FuzzConfig, OracleKind, SeedRange};
use rstorm::topology::TaskSet;
use rstorm::workloads::cases::{drifted_cases, fig8_cases, yahoo_cases, WorkloadCase};
use rstorm::workloads::scale::{scale_cluster, scale_topology, SCALE_NODES, SCALE_TASKS};
use rstorm::workloads::sweep::quick_grid;
use rstorm::workloads::{clusters, micro};
use std::sync::Arc;

/// Workers on the parallel side of the worker-count identity checks: all
/// cores, capped at 8.
fn parallel_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

fn place(scheduler: &dyn Scheduler, topology: &Topology, cluster: &Cluster) -> Assignment {
    scheduler
        .schedule(topology, cluster, &mut GlobalState::new(cluster))
        .unwrap_or_else(|e| panic!("{} cannot place {}: {e}", scheduler.name(), topology.id()))
}

fn simulate(
    cluster: &Arc<Cluster>,
    topology: &Topology,
    assignment: &Assignment,
    config: SimConfig,
) -> SimReport {
    let mut sim = Simulation::new(Arc::clone(cluster), config);
    sim.add_topology(topology, assignment);
    sim.run()
}

/// The fig8 Linear/network case and the Yahoo PageLoad layout: the two
/// workloads the crash-then-recover pins run on.
fn outage_cases() -> Vec<WorkloadCase> {
    let linear = fig8_cases()
        .into_iter()
        .find(|c| c.name == "linear_net")
        .expect("linear_net case exists");
    let page_load = yahoo_cases()
        .into_iter()
        .find(|c| c.name == "page_load")
        .expect("page_load case exists");
    vec![linear, page_load]
}

/// Crash of the first assigned task's host a third of the way into the
/// 60 s run, healed 15 s later — inside the 30 s tuple timeout.
const CRASH_AT_MS: f64 = 20_000.0;
const HEAL_AT_MS: f64 = 35_000.0;

/// A linear topology with `stages` components of `parallelism` tasks.
fn chain(stages: u32, parallelism: u32) -> Topology {
    let mut b = TopologyBuilder::new(format!("chain-{stages}x{parallelism}"));
    b.set_spout("c0", parallelism)
        .set_cpu_load(10.0)
        .set_memory_load(64.0);
    for i in 1..stages {
        b.set_bolt(format!("c{i}"), parallelism)
            .shuffle_grouping(format!("c{}", i - 1))
            .set_cpu_load(10.0)
            .set_memory_load(64.0);
    }
    b.build().expect("valid chain")
}

fn chain_cluster(racks: u32, nodes_per_rack: u32) -> Cluster {
    ClusterBuilder::new()
        .homogeneous_racks(
            racks,
            nodes_per_rack,
            ResourceCapacity::for_machine(16, 65536.0),
            4,
        )
        .build()
        .expect("valid cluster")
}

/// The scheduling-latency cases (the Criterion `schedule` group's sizes
/// plus the 10k-task / 1k-node scale case): every scheduler places every
/// task, the indexed R-Storm scheduler agrees with the scan reference,
/// and both reschedule a chain onto the survivors of a node failure.
#[test]
fn schedulers_place_the_latency_cases_and_reschedule_after_failure() {
    let mut cases: Vec<(Topology, Cluster)> = [
        (4u32, 10u32, 2u32, 6u32),
        (5, 40, 2, 12),
        (10, 100, 4, 16),
        (20, 500, 8, 32),
    ]
    .into_iter()
    .map(|(stages, parallelism, racks, nodes)| {
        (chain(stages, parallelism), chain_cluster(racks, nodes))
    })
    .collect();
    cases.push((scale_topology(SCALE_TASKS), scale_cluster(SCALE_NODES)));
    for (topology, cluster) in &cases {
        let fast = place(&RStormScheduler::new(), topology, cluster);
        let reference = place(&ReferenceRStormScheduler::new(), topology, cluster);
        assert_eq!(
            fast,
            reference,
            "{}: indexed and scan schedulers disagree",
            topology.id()
        );
        assert_eq!(fast.len(), topology.task_set().len());
        let even = place(&EvenScheduler::new(), topology, cluster);
        assert_eq!(even.len(), topology.task_set().len());
    }

    let topology = chain(5, 40);
    let base = chain_cluster(2, 12);
    for scheduler in [
        &RStormScheduler::new() as &dyn Scheduler,
        &ReferenceRStormScheduler::new(),
    ] {
        let mut cluster = base.clone();
        let mut state = GlobalState::new(&cluster);
        scheduler
            .schedule(&topology, &cluster, &mut state)
            .expect("feasible");
        cluster.kill_node("rack-0-node-0");
        for t in state.handle_node_failure("rack-0-node-0") {
            state.release_topology(t.as_str());
        }
        scheduler
            .schedule(&topology, &cluster, &mut state)
            .unwrap_or_else(|e| panic!("{}: survivors must suffice: {e}", scheduler.name()));
    }
}

/// An empty fault plan costs nothing in bits, and a crash of a tasked
/// node is detected, fully re-placed and leaves a clean plan.
#[test]
fn crash_then_recover_is_detected_and_fully_replaced() {
    for case in outage_cases() {
        let cluster = Arc::new(case.cluster.clone());
        let assignment = place(&RStormScheduler::new(), &case.topology, &cluster);
        let config = SimConfig::quick();

        let mut faultless = Simulation::new(Arc::clone(&cluster), config.clone());
        faultless.add_topology(&case.topology, &assignment);
        faultless.set_fault_plan(FaultPlan::new());
        let mut reference = ReferenceSimulation::new(Arc::clone(&cluster), config.clone());
        reference.add_topology(&case.topology, &assignment);
        assert_eq!(
            faultless.run(),
            reference.run(),
            "{}: empty fault plan diverges from the reference engine",
            case.name
        );

        let victim = assignment.iter().next().unwrap().1.node.as_str().to_owned();
        let plan = FaultPlan::new()
            .crash_node(CRASH_AT_MS, &victim)
            .recover_node(HEAL_AT_MS, &victim);
        let out = run_fault_plan_with(
            &cluster,
            &case.topology,
            &plan,
            &config,
            &RecoveryConfig::default(),
            &RStormScheduler::new(),
        )
        .expect("chaos scenario runs");
        let obs = out.observations;
        assert!(
            obs.time_to_detect_ms > 0.0,
            "{}: crash undetected",
            case.name
        );
        assert!(
            obs.time_to_recover_ms >= obs.time_to_detect_ms,
            "{}: not fully recovered ({obs:?})",
            case.name
        );
        let violations = verify_plan(&out.plan, &[&case.topology], &cluster);
        assert!(violations.is_empty(), "{}: {violations:?}", case.name);
    }
}

/// Spout replay (`max_replays` 8) carries the same survivable outage
/// with no loss. The replay-disabled parity check on these inputs is the
/// empty-plan check of `crash_then_recover_is_detected_and_fully_replaced`.
#[test]
fn replay_carries_a_survivable_outage_with_zero_loss() {
    for case in outage_cases() {
        let cluster = Arc::new(case.cluster.clone());
        let assignment = place(&RStormScheduler::new(), &case.topology, &cluster);
        let victim = assignment.iter().next().unwrap().1.node.as_str().to_owned();
        let mut sim = Simulation::new(Arc::clone(&cluster), SimConfig::quick().with_max_replays(8));
        sim.add_topology(&case.topology, &assignment);
        sim.set_fault_plan(
            FaultPlan::new()
                .crash_node(CRASH_AT_MS, &victim)
                .recover_node(HEAL_AT_MS, &victim),
        );
        let report = sim.run();

        let zero_loss_ratio = report.zero_loss_ratio();
        assert!(
            zero_loss_ratio == 1.0,
            "{}: zero-loss ratio {zero_loss_ratio} != 1.0",
            case.name
        );
        assert_eq!(
            report.tuples_quarantined(),
            0,
            "{}: survivable fault quarantined tuples",
            case.name
        );
        assert!(
            report.totals.roots_replayed > 0,
            "{}: the outage scenario exercised no replays",
            case.name
        );
    }
}

/// The adaptive plane detects the drift the workloads embed, moves no
/// more tasks than a full reschedule, and beats the static placement net
/// of its migration cost.
#[test]
fn adaptive_rebalance_beats_static_on_drifted_cases() {
    for case in drifted_cases() {
        let cluster = Arc::new(case.cluster.clone());
        let out = run_adaptive_rebalance(&cluster, &case.topology, &AdaptiveConfig::quick())
            .expect("adaptive scenario runs");
        assert!(
            !out.drift.is_clean(),
            "{}: no drift detected on a drifted workload",
            case.name
        );
        assert!(
            !out.drift.saturated_nodes.is_empty(),
            "{}: no node saturated despite the packed hot component ({:?})",
            case.name,
            out.profile_report.node_utilization
        );
        assert!(!out.plan.is_empty(), "{}: empty migration plan", case.name);
        assert!(
            out.plan.len() <= out.rescheduled_moves,
            "{}: delta plan moves {} tasks, full reschedule only {}",
            case.name,
            out.plan.len(),
            out.rescheduled_moves
        );
        assert!(
            out.adaptive_net() > out.static_net(),
            "{}: adaptive {} <= static {} net tuples",
            case.name,
            out.adaptive_net(),
            out.static_net()
        );
    }
}

/// The quick sweep grid (seeds 0..8) aggregates byte-identically on one
/// and on many workers, loses nothing in any group, and measures real
/// detect and recover latencies on every crash group.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: CI runs it in the release test step"
)]
fn quick_sweep_grid_is_lossless_and_worker_count_independent() {
    let grid = quick_grid(SeedRange::new(0, 8).expect("0..8 is a valid range"));
    let serial = run_sweep(&grid, 1);
    let parallel = run_sweep(&grid, parallel_workers());
    assert_eq!(
        serial.summary.to_json(),
        parallel.summary.to_json(),
        "aggregated sweep payload differs between 1 and {} workers",
        parallel.workers
    );
    for g in &serial.summary.groups {
        assert!(g.survivable, "the quick grid must stay survivable");
        let zero_loss_ratio = g.zero_loss_min;
        assert!(
            zero_loss_ratio == 1.0,
            "{}: a survivable scenario lost settled roots ({zero_loss_ratio})",
            g.name
        );
        if g.name.ends_with("/crash_recover") {
            assert!(g.detect_ms.p99 > 0.0, "{}: crash undetected", g.name);
            assert!(
                g.recover_ms.p99 >= g.detect_ms.p50,
                "{}: not fully re-placed",
                g.name
            );
        }
    }
}

/// The 10k-task / 1k-node base case: the fast engine matches the
/// reference engine over a 20 s horizon.
#[test]
fn scale_base_matches_the_reference_engine() {
    let topology = scale_topology(SCALE_TASKS);
    let cluster = Arc::new(scale_cluster(SCALE_NODES));
    let config = SimConfig::default().with_sim_time_ms(20_000.0);
    let assignment = place(&RStormScheduler::new(), &topology, &cluster);
    let fast = simulate(&cluster, &topology, &assignment, config.clone());
    let mut reference = ReferenceSimulation::new(Arc::clone(&cluster), config);
    reference.add_topology(&topology, &assignment);
    assert_eq!(
        fast,
        reference.run(),
        "scale/base: fast and reference engines disagree"
    );
}

/// Two Emulab racks of two nodes: enough for rack partitions and crash
/// bursts to differ, small enough to stay fast.
fn small_cluster() -> Arc<Cluster> {
    Arc::new(
        ClusterBuilder::new()
            .homogeneous_racks(2, 2, ResourceCapacity::emulab_node(), 4)
            .build()
            .expect("2x2 emulab cluster builds"),
    )
}

/// A topology whose two components cannot colocate (1.4 GB each on 2 GB
/// nodes): the spout-to-sink path always crosses nodes, so node faults
/// disturb the data plane.
fn split_topology(name: &str) -> Topology {
    let mut b = TopologyBuilder::new(name);
    b.set_spout("src", 1)
        .set_profile(ExecutionProfile::network_bound(100))
        .set_cpu_load(20.0)
        .set_memory_load(1_400.0);
    b.set_bolt("sink", 1)
        .shuffle_grouping("src")
        .set_profile(ExecutionProfile::network_bound(100).into_sink())
        .set_cpu_load(20.0)
        .set_memory_load(1_400.0);
    b.build().expect("split topology builds")
}

/// Two fixed-seed campaigns on the split workload. The clean one (24
/// iterations, generous replay budget) trips no oracle and logs the same
/// campaign on any worker count. The planted one (12 iterations, the
/// planted drain bug, a tight replay budget) finds the planted bug, trips
/// no other oracle, and shrinks it to at most 6 events that still trip it.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: CI runs it in the release test step"
)]
fn fixed_seed_fuzz_campaigns_find_only_the_planted_bug() {
    let cluster = small_cluster();
    let topology = split_topology("fuzz-smoke");
    let scheduler = schedulers::by_name("rstorm").expect("rstorm scheduler exists");
    let workers = parallel_workers();

    let clean_cfg = FuzzConfig {
        iterations: 24,
        seed: 42,
        max_atoms: 3,
        sim: SimConfig::quick()
            .with_sim_time_ms(30_000.0)
            .with_max_replays(8),
        recovery: RecoveryConfig::default(),
    };
    let clean = run_fuzz_campaign(&cluster, &topology, &*scheduler, &clean_cfg, workers);
    let serial = run_fuzz_campaign(&cluster, &topology, &*scheduler, &clean_cfg, 1);
    assert_eq!(
        clean.campaign_log(),
        serial.campaign_log(),
        "fuzz campaign log differs between 1 and {workers} workers"
    );
    let fuzz_violations = clean.reproducers.len();
    assert!(
        fuzz_violations == 0,
        "clean campaign tripped oracles:\n{}",
        clean.campaign_log()
    );

    let mut sim = SimConfig::quick()
        .with_sim_time_ms(30_000.0)
        .with_max_replays(1)
        .with_planted_quarantine_bug(true);
    sim.tuple_timeout_ms = 3_000.0;
    let planted_cfg = FuzzConfig {
        iterations: 12,
        sim,
        ..clean_cfg
    };
    let planted_oracle = OracleKind::Invariant("drain_imbalance".to_owned());
    let planted = run_fuzz_campaign(&cluster, &topology, &*scheduler, &planted_cfg, workers);
    let fuzz_violations = planted
        .reproducers
        .iter()
        .filter(|r| r.oracle != planted_oracle)
        .count();
    assert!(
        fuzz_violations == 0,
        "planted campaign tripped an unplanted oracle:\n{}",
        planted.campaign_log()
    );
    let smallest = planted
        .reproducers
        .iter()
        .filter(|r| r.oracle == planted_oracle)
        .min_by_key(|r| r.plan.events().len())
        .unwrap_or_else(|| {
            panic!(
                "planted drain-invariant bug not found in 12 iterations:\n{}",
                planted.campaign_log()
            )
        });
    assert!(
        smallest.plan.events().len() <= 6,
        "shrunk reproducer still has {} events (> 6):\n{}",
        smallest.plan.events().len(),
        smallest.to_text()
    );
    assert_eq!(
        check_fault_plan(
            &cluster,
            &topology,
            &*scheduler,
            &planted_cfg,
            &smallest.plan
        )
        .as_ref(),
        Some(&planted_oracle),
        "shrunk reproducer no longer trips the planted oracle"
    );
}

/// The network-bound Linear chain on a 4:1 oversubscribed two-rack
/// fabric, 60 s on the fair plane: the even spread saturates a rack
/// uplink and R-Storm's packed placement beats it. Explicit `Legacy` is
/// the default engine bit for bit.
#[test]
fn packing_beats_spreading_on_a_saturated_trunk() {
    let cluster = Arc::new(clusters::emulab_oversubscribed());
    let topology = micro::linear_network_bound();
    let name = topology.id().as_str().to_owned();
    let rstorm = place(&RStormScheduler::new(), &topology, &cluster);
    let even = place(&EvenScheduler::new(), &topology, &cluster);

    let fair = SimConfig::quick()
        .with_sim_time_ms(60_000.0)
        .with_network_model(NetworkModel::Fair);
    let rstorm_net =
        simulate(&cluster, &topology, &rstorm, fair.clone()).steady_throughput(&name, 2);
    let even_report = simulate(&cluster, &topology, &even, fair);
    let even_net = even_report.steady_throughput(&name, 2);
    let network = even_report
        .network
        .as_ref()
        .expect("fair-plane runs export link telemetry");
    let uplinks = || network.links.iter().filter(|l| l.link.ends_with(".uplink"));
    let saturated_windows: u64 = uplinks().map(|l| l.saturated_windows).sum();
    let peak = uplinks().map(|l| l.mean_utilization).fold(0.0, f64::max);
    let rstorm_beats_even_on_trunk = rstorm_net / even_net;
    assert!(
        rstorm_beats_even_on_trunk >= 1.0,
        "proximity packing must beat spreading under trunk saturation: \
         rstorm {rstorm_net:.0} vs even {even_net:.0} tuples/window"
    );
    assert!(
        saturated_windows > 0,
        "the spread placement must saturate a rack uplink (peak utilization {peak:.3})"
    );
    assert!(
        even_net > 0.0,
        "the even placement must still make progress under contention"
    );

    let legacy = SimConfig::quick().with_sim_time_ms(60_000.0);
    let default_report = simulate(&cluster, &topology, &rstorm, legacy.clone());
    let explicit_report = simulate(
        &cluster,
        &topology,
        &rstorm,
        legacy.with_network_model(NetworkModel::Legacy),
    );
    assert_eq!(
        default_report, explicit_report,
        "explicit Legacy must be the default engine bit for bit"
    );
    assert!(
        default_report.network.is_none(),
        "the legacy path must not export fair-plane telemetry"
    );
}

/// The node hosting the split topology's sink under R-Storm: crashing it
/// severs the tuple path while the spout keeps emitting.
fn sink_node(cluster: &Cluster, topology: &Topology) -> String {
    let assignment = place(&RStormScheduler::new(), topology, cluster);
    let sink = TaskSet::instantiate(topology)
        .tasks()
        .iter()
        .find(|t| t.component.as_str() == "sink")
        .expect("the topology has a sink")
        .id;
    let host = assignment
        .iter()
        .find(|(task, _)| *task == sink)
        .expect("the sink is placed")
        .1
        .node
        .as_str()
        .to_owned();
    host
}

/// Nimbus outages on the split workload. Failover case: the sink's node
/// crashes at 15 s inside a `[13 s, 23 s)` outage and heals at 55 s; a
/// journaled successor detects it within a 3-replay, 5 s-timeout budget
/// and loses nothing, while the journal-less twin stays blind and loses
/// roots. Replay case: crash at 5 s, heal at 12 s, outage `[14 s, 22 s)`;
/// the successor replays the pre-outage decisions. Both composed plans
/// pass the reconciliation audit.
#[test]
fn journaled_failover_is_lossless_and_reconciles() {
    let cluster = small_cluster();
    let topology = split_topology("control-smoke");
    let victim = sink_node(&cluster, &topology);
    let scheduler = schedulers::by_name("rstorm").expect("rstorm scheduler exists");

    let journal_on = RecoveryConfig {
        journal: true,
        ..RecoveryConfig::default()
    };
    let failover = FaultPlan::new()
        .crash_node(15_000.0, &victim)
        .recover_node(55_000.0, &victim)
        .nimbus_crash(13_000.0, 10_000.0);
    let mut failover_sim = SimConfig::quick().with_max_replays(3);
    failover_sim.tuple_timeout_ms = 5_000.0;
    let journaled = run_fault_plan_with(
        &cluster,
        &topology,
        &failover,
        &failover_sim,
        &journal_on,
        &*scheduler,
    )
    .expect("failover case runs");
    let failover_zero_loss = journaled.report.zero_loss_ratio();
    assert!(
        failover_zero_loss == 1.0,
        "journaled failover lost settled roots (ratio {failover_zero_loss})"
    );
    let audit = journaled
        .reconciliation
        .expect("an outage carries an audit");
    assert!(
        audit.time_to_reassume_ms >= 10_000.0,
        "successor reassumed after {} ms of a 10000 ms outage",
        audit.time_to_reassume_ms
    );
    assert!(
        journaled.observations.time_to_detect_ms > 0.0,
        "the journaled successor must detect the masked crash"
    );

    let cold = run_fault_plan_with(
        &cluster,
        &topology,
        &failover,
        &failover_sim,
        &RecoveryConfig::default(),
        &*scheduler,
    )
    .expect("cold twin runs");
    assert_eq!(
        cold.observations.time_to_detect_ms, -1.0,
        "a cold successor cannot detect a pre-failover silence"
    );
    let cold_zero_loss = cold.report.zero_loss_ratio();
    assert!(
        cold_zero_loss < 1.0,
        "the journal-less twin must lose roots, or the pin proves nothing \
         (ratio {cold_zero_loss})"
    );

    let replay = FaultPlan::new()
        .crash_node(5_000.0, &victim)
        .recover_node(12_000.0, &victim)
        .nimbus_crash(14_000.0, 8_000.0);
    let replayed = run_fault_plan_with(
        &cluster,
        &topology,
        &replay,
        &SimConfig::quick().with_max_replays(8),
        &journal_on,
        &*scheduler,
    )
    .expect("replay case runs");
    let decisions_replayed = replayed
        .reconciliation
        .expect("an outage carries an audit")
        .decisions_replayed;
    assert!(
        decisions_replayed >= 2,
        "expected the declare + reschedule records in the journal, replayed {decisions_replayed}"
    );
    assert_eq!(
        replayed.report.zero_loss_ratio(),
        1.0,
        "the pre-outage reschedule keeps the replay case lossless"
    );

    let plans = [
        FaultPlan::new()
            .crash_node(15_000.0, &victim)
            .recover_node(40_000.0, &victim)
            .nimbus_crash(13_000.0, 10_000.0),
        FaultPlan::new()
            .crash_node(5_000.0, &victim)
            .recover_node(12_000.0, &victim)
            .nimbus_crash(14_000.0, 8_000.0),
    ];
    let mut converged = 0_u32;
    for plan in &plans {
        let out = run_fault_plan_with(
            &cluster,
            &topology,
            plan,
            &SimConfig::quick().with_max_replays(8),
            &journal_on,
            &*scheduler,
        )
        .expect("audit plan runs");
        let audit = out
            .reconciliation
            .expect("control-fault plans carry a reconciliation audit");
        if audit.converged && !audit.double_placed_or_orphaned {
            converged += 1;
        }
    }
    let reconciliation_convergence = f64::from(converged) / plans.len() as f64;
    assert!(
        reconciliation_convergence == 1.0,
        "{converged} of {} reconciliation audits converged with nothing double-placed or orphaned",
        plans.len()
    );
}
