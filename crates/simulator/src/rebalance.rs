//! The adaptive rebalance plane: profile → detect drift → migrate.
//!
//! [`run_adaptive_rebalance`] wires the adaptive subsystem together for
//! one topology, end to end:
//!
//! 1. **Profile** — schedule the topology with [`RStormScheduler`] on a
//!    live [`GlobalState`], then run a short profiling simulation with
//!    the stats-export hook attached. The [`StatisticServer`] collects
//!    each component's observed CPU busy-time; the report's per-node
//!    utilization doubles as the saturation signal (one source of truth
//!    with the paper's Fig. 10 comparison).
//! 2. **Refine & detect** — blend observed against declared per-task CPU
//!    load with a [`ProfileRefiner`] and let the [`DriftDetector`] flag
//!    components whose declarations have drifted plus saturated and
//!    starved nodes.
//! 3. **Plan** — ask the [`DeltaScheduler`] for a minimal-move migration
//!    plan against the *live* scheduling state — no reschedule from
//!    scratch, every unmoved task keeps its slot. When the plan is
//!    applied mid-run, the engine rewrites only the moved tasks'
//!    placement: each transfer derives its link from where the two
//!    tasks sit, so no routing table needs repair.
//! 4. **Compare** — run the full horizon three ways from the same
//!    initial placement: untouched (*static*), with the minimal-move
//!    plan applied mid-run (*adaptive*), and with a full
//!    reschedule-from-scratch of the refined topology applied mid-run
//!    at the same per-task pause cost (*rescheduled*). Each migrated
//!    task pays a pause/drain/restore freeze, so the comparison is net
//!    of migration cost.
//!
//! Everything is deterministic: the whole [`AdaptiveOutcome`] is a pure
//! function of `(cluster, topology, config)`. A workload with no drift
//! produces an empty plan, and the adaptive run is then bit-identical to
//! the static one.

use crate::chaos::ChaosError;
use crate::config::SimConfig;
use crate::report::SimReport;
use crate::sim::Simulation;
use rstorm_cluster::Cluster;
use rstorm_core::{
    DeltaScheduler, DriftConfig, DriftDetector, DriftReport, GlobalState, MigrationMove,
    MigrationPlan, ProfileRefiner, RStormScheduler, Scheduler,
};
use rstorm_metrics::StatisticServer;
use rstorm_topology::{Topology, TopologyBuilder};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Knobs of one adaptive-rebalance scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Full-horizon simulation parameters (all three comparison runs).
    pub sim: SimConfig,
    /// Length of the profiling run, in simulated milliseconds.
    pub observe_ms: f64,
    /// Stats-export snapshot interval during the profiling run.
    pub stats_interval_ms: f64,
    /// When, in the full-horizon runs, the migration plan is applied.
    pub rebalance_at_ms: f64,
    /// Pause/drain/restore freeze each migrated task pays.
    pub pause_ms: f64,
    /// EWMA blend factor of the profile refiner (`1.0` = trust the
    /// observation outright).
    pub alpha: f64,
    /// Drift-detector thresholds.
    pub drift: DriftConfig,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            sim: SimConfig::default(),
            observe_ms: 60_000.0,
            stats_interval_ms: 5_000.0,
            rebalance_at_ms: 60_000.0,
            pause_ms: 2_000.0,
            alpha: ProfileRefiner::DEFAULT_ALPHA,
            drift: DriftConfig::default(),
        }
    }
}

impl AdaptiveConfig {
    /// A scenario sized for tests: quick simulation horizon, a short
    /// profiling run and an early rebalance point.
    pub fn quick() -> Self {
        Self {
            sim: SimConfig::quick(),
            observe_ms: 20_000.0,
            stats_interval_ms: 2_000.0,
            rebalance_at_ms: 15_000.0,
            ..Self::default()
        }
    }
}

/// Everything one adaptive-rebalance scenario produced.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// What the detector flagged after the profiling run.
    pub drift: DriftReport,
    /// The minimal-move plan the delta scheduler produced.
    pub plan: MigrationPlan,
    /// Number of tasks a reschedule-from-scratch of the refined topology
    /// would relocate — the move count the delta scheduler avoided.
    pub rescheduled_moves: usize,
    /// The profiling run's report (length [`AdaptiveConfig::observe_ms`]).
    pub profile_report: SimReport,
    /// Full horizon, untouched initial placement.
    pub static_report: SimReport,
    /// Full horizon with the minimal-move plan applied mid-run.
    pub adaptive_report: SimReport,
    /// Full horizon with the full reschedule applied mid-run at the same
    /// per-task pause cost.
    pub rescheduled_report: SimReport,
}

impl AdaptiveOutcome {
    /// Net tuples completed by the static run over the whole horizon.
    pub fn static_net(&self) -> u64 {
        self.static_report.totals.tuples_completed
    }

    /// Net tuples completed by the adaptive run (migration cost
    /// included — the pause windows happen inside the horizon).
    pub fn adaptive_net(&self) -> u64 {
        self.adaptive_report.totals.tuples_completed
    }

    /// Net tuples completed by the reschedule-from-scratch run.
    pub fn rescheduled_net(&self) -> u64 {
        self.rescheduled_report.totals.tuples_completed
    }
}

/// Runs the profile → detect → plan → compare scenario described by
/// `cfg` for one topology. See the module docs for the four stages.
///
/// # Errors
///
/// [`ChaosError::InitialPlacement`] when the topology does not fit the
/// cluster (the scenario needs a valid initial placement to improve
/// on), and [`ChaosError::MigrationPlanning`] when a delta plan or the
/// full-reschedule baseline meets inconsistent state (a task outside
/// the task set, an incomplete "complete" placement).
///
/// # Panics
///
/// Panics when `cfg.observe_ms` is not positive and finite — that is a
/// caller contract, not a property of the fuzzed inputs.
pub fn run_adaptive_rebalance(
    cluster: &Arc<Cluster>,
    topology: &Topology,
    cfg: &AdaptiveConfig,
) -> Result<AdaptiveOutcome, ChaosError> {
    assert!(
        cfg.observe_ms > 0.0 && cfg.observe_ms.is_finite(),
        "observe_ms must be positive, got {}",
        cfg.observe_ms
    );
    let tname = topology.id().as_str();

    // -- Stage 1: initial placement + profiling run with stats export. --
    let mut state = GlobalState::new(cluster);
    let scheduler = RStormScheduler::new();
    let initial = scheduler
        .schedule(topology, cluster, &mut state)
        .map_err(|error| ChaosError::InitialPlacement {
            topology: tname.to_owned(),
            error,
        })?;

    let mut profile_cfg = cfg.sim.clone();
    profile_cfg.sim_time_ms = cfg.observe_ms;
    let server = Arc::new(StatisticServer::new(profile_cfg.window_ms));
    let mut profiler = Simulation::new(Arc::clone(cluster), profile_cfg);
    profiler.add_topology(topology, &initial);
    profiler.export_stats(Arc::clone(&server), cfg.stats_interval_ms);
    let profile_report = profiler.run();

    // -- Stage 2: refine profiles and detect drift. --
    let mut refiner = ProfileRefiner::new(cfg.alpha);
    for component in topology.components() {
        let per_task = observed_per_task_demand(&server, tname, component, cfg.observe_ms);
        if per_task <= 0.0 {
            continue; // never ran: keep the declaration
        }
        refiner.observe(
            tname,
            component.id().as_str(),
            component.resources().cpu_points,
            per_task,
        );
    }
    let trunk_utilization = profile_report
        .network
        .as_ref()
        .map(|n| n.trunk_utilization())
        .unwrap_or_default();
    let drift = DriftDetector::new(cfg.drift.clone()).detect_with_network(
        topology,
        &refiner,
        &profile_report.node_utilization,
        &trunk_utilization,
        cluster,
    );

    // -- Stage 3: minimal-move plan on the live state. --
    let plan = DeltaScheduler::new()
        .plan(
            topology,
            cluster,
            &mut state,
            &drift,
            &refiner,
            &BTreeSet::new(),
        )
        .map_err(|e| ChaosError::MigrationPlanning {
            topology: tname.to_owned(),
            reason: format!("delta plan failed on the just-scheduled state: {e}"),
        })?;

    // -- Stage 4: three full-horizon runs off the same initial placement. --
    let run = |migration: Option<&MigrationPlan>| {
        let mut sim = Simulation::new(Arc::clone(cluster), cfg.sim.clone());
        sim.add_topology(topology, &initial);
        if let Some(plan) = migration {
            sim.schedule_migration(plan, cfg.rebalance_at_ms, cfg.pause_ms);
        }
        sim.run()
    };
    let static_report = run(None);
    let adaptive_report = run(Some(&plan));

    let full = full_reschedule_plan(cluster, topology, &refiner, &initial)?;
    let rescheduled_moves = full.len();
    let rescheduled_report = run(Some(&full));

    Ok(AdaptiveOutcome {
        drift,
        plan,
        rescheduled_moves,
        profile_report,
        static_report,
        adaptive_report,
        rescheduled_report,
    })
}

/// The utilization-law demand estimate of one component's per-task CPU
/// load, in the paper's points.
///
/// Observed busy-time on a saturated node is capped by what the node
/// could actually serve, so raw busy-time systematically under-states
/// the demand of exactly the components worth migrating. When upstream
/// components offered more tuples than this one processed (its input
/// queues grew), the busy-time is scaled by `offered / processed` — the
/// work the component *would* have burned had it kept up. Components
/// that kept up are reported as observed.
///
/// The offered count sums each upstream component's emits, which is
/// exact for the one-task-per-consumer groupings (shuffle, fields,
/// local-or-shuffle, global) and a lower bound under `All` grouping.
fn observed_per_task_demand(
    server: &StatisticServer,
    topology: &str,
    component: &rstorm_topology::Component,
    observe_ms: f64,
) -> f64 {
    let name = component.id().as_str();
    let observed_total = server.observed_cpu_points(topology, name, observe_ms);
    if observed_total <= 0.0 {
        return 0.0;
    }
    let processed = server.component_total(topology, name);
    let offered: u64 = component
        .inputs()
        .iter()
        .map(|input| server.component_emitted_total(topology, input.from.as_str()))
        .sum();
    let backlog_scale = if processed > 0 && offered > processed {
        offered as f64 / processed as f64
    } else {
        1.0
    };
    observed_total * backlog_scale / f64::from(component.parallelism())
}

/// The comparison baseline: reschedule the *refined* topology from
/// scratch on a fresh state and migrate every task whose node changed.
/// Any inconsistency — the refined topology no longer fitting an empty
/// cluster, a task missing from the task set, a hole in the "complete"
/// initial placement — surfaces as [`ChaosError::MigrationPlanning`].
fn full_reschedule_plan(
    cluster: &Arc<Cluster>,
    topology: &Topology,
    refiner: &ProfileRefiner,
    initial: &rstorm_core::Assignment,
) -> Result<MigrationPlan, ChaosError> {
    let tname = topology.id().as_str();
    let planning = |reason: String| ChaosError::MigrationPlanning {
        topology: tname.to_owned(),
        reason,
    };
    let refined_topology = refined_clone(topology, refiner);
    let mut fresh = GlobalState::new(cluster);
    let assignment = RStormScheduler::new()
        .schedule(&refined_topology, cluster, &mut fresh)
        .map_err(|e| {
            planning(format!(
                "the refined topology no longer fits an empty cluster: {e}"
            ))
        })?;

    let task_set = topology.task_set();
    let mut moves = Vec::new();
    for (task, slot) in assignment.iter() {
        let moved = match initial.slot_of(task) {
            Some(old) => old.node != slot.node,
            None => true,
        };
        if !moved {
            continue;
        }
        let component = task_set
            .task(task)
            .ok_or_else(|| planning(format!("task {task} is outside the task set")))?
            .component
            .as_str()
            .to_owned();
        let from = initial
            .node_of(task)
            .ok_or_else(|| planning(format!("task {task} has no node in the initial placement")))?
            .clone();
        moves.push(MigrationMove {
            task,
            component,
            from,
            to: slot.node.clone(),
        });
    }
    Ok(MigrationPlan {
        topology: topology.id().clone(),
        moves,
        updated: assignment,
    })
}

/// A structural clone of `topology` with each component's CPU
/// declaration replaced by the refiner's blended estimate. Memory and
/// bandwidth stay declared, as does everything structural: parallelism,
/// groupings, streams, execution profiles and worker hints.
pub fn refined_clone(topology: &Topology, refiner: &ProfileRefiner) -> Topology {
    let tname = topology.id().as_str();
    let mut b = TopologyBuilder::new(topology.id().clone());
    if let Some(workers) = topology.num_workers() {
        b.set_num_workers(workers);
    }
    if let Some(pending) = topology.max_spout_pending() {
        b.set_max_spout_pending(pending);
    }
    for component in topology.components() {
        let refined =
            refiner.refined_request(tname, component.id().as_str(), component.resources());
        let mut streams: Vec<_> = topology
            .declared_streams(component.id().as_str())
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default();
        streams.sort();
        if component.is_spout() {
            let mut d = b.set_spout(component.id().clone(), component.parallelism());
            d.set_profile(*component.profile())
                .set_cpu_load(refined.cpu_points)
                .set_memory_load(refined.memory_mb)
                .set_bandwidth_load(refined.bandwidth);
            for stream in streams {
                d.declare_stream(stream);
            }
        } else {
            let mut d = b.set_bolt(component.id().clone(), component.parallelism());
            d.set_profile(*component.profile())
                .set_cpu_load(refined.cpu_points)
                .set_memory_load(refined.memory_mb)
                .set_bandwidth_load(refined.bandwidth);
            for input in component.inputs() {
                d.grouping_on_stream(
                    input.from.clone(),
                    input.stream.clone(),
                    input.grouping.clone(),
                );
            }
            for stream in streams {
                d.declare_stream(stream);
            }
        }
    }
    b.build()
        .expect("a valid topology stays valid under refined loads")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstorm_cluster::{ClusterBuilder, ResourceCapacity};
    use rstorm_topology::ExecutionProfile;

    /// A workload whose declarations are wrong: "crunch" claims almost
    /// no CPU but burns it, so R-Storm packs everything onto few nodes
    /// and saturates them.
    fn drifted_topology() -> Topology {
        let mut b = TopologyBuilder::new("drifted");
        b.set_spout("feed", 2)
            .set_profile(ExecutionProfile::new(0.2, 1.0, 120))
            .set_cpu_load(10.0)
            .set_memory_load(128.0);
        b.set_bolt("crunch", 6)
            .shuffle_grouping("feed")
            .set_profile(ExecutionProfile::new(8.0, 1.0, 120))
            .set_cpu_load(5.0) // declared: nearly free; actual: a core hog
            .set_memory_load(128.0);
        b.set_bolt("sink", 2)
            .shuffle_grouping("crunch")
            .set_profile(ExecutionProfile::new(0.2, 0.0, 120).into_sink())
            .set_cpu_load(10.0)
            .set_memory_load(128.0);
        b.build().unwrap()
    }

    /// A workload whose declarations are accurate: light rates keep the
    /// node comfortable and observed per-task CPU lands within the drift
    /// thresholds of the declarations.
    fn honest_topology() -> Topology {
        let mut b = TopologyBuilder::new("honest");
        b.set_spout("feed", 2)
            .set_profile(ExecutionProfile::new(0.2, 1.0, 120).with_max_rate(400.0))
            .set_cpu_load(8.0)
            .set_memory_load(128.0);
        b.set_bolt("sink", 2)
            .shuffle_grouping("feed")
            .set_profile(ExecutionProfile::new(0.2, 0.0, 120).into_sink())
            .set_cpu_load(8.0)
            .set_memory_load(128.0);
        b.build().unwrap()
    }

    fn cluster() -> Arc<Cluster> {
        Arc::new(
            ClusterBuilder::new()
                .homogeneous_racks(2, 4, ResourceCapacity::emulab_node(), 4)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn drifted_workload_is_detected_and_adaptive_beats_static() {
        let cluster = cluster();
        let t = drifted_topology();
        let out = run_adaptive_rebalance(&cluster, &t, &AdaptiveConfig::quick()).unwrap();

        assert!(!out.drift.is_clean(), "the under-declared bolt drifts");
        assert!(
            out.drift.drifted.iter().any(|d| d.component == "crunch"),
            "drifted: {:?}",
            out.drift.drifted
        );
        assert!(
            !out.drift.saturated_nodes.is_empty(),
            "packing a core hog saturates nodes: {:?}",
            out.profile_report.node_utilization
        );
        assert!(!out.plan.is_empty(), "the delta scheduler found moves");
        assert!(
            out.plan.len() <= out.rescheduled_moves,
            "minimal-move: {} moves vs {} for a full reschedule",
            out.plan.len(),
            out.rescheduled_moves
        );
        assert!(
            out.adaptive_net() > out.static_net(),
            "adaptive {} <= static {}",
            out.adaptive_net(),
            out.static_net()
        );
    }

    #[test]
    fn honest_workload_yields_empty_plan_and_identical_run() {
        let cluster = cluster();
        let t = honest_topology();
        let out = run_adaptive_rebalance(&cluster, &t, &AdaptiveConfig::quick()).unwrap();
        assert!(out.drift.is_clean(), "drift: {:?}", out.drift.drifted);
        assert!(out.plan.is_empty());
        assert_eq!(
            out.static_report, out.adaptive_report,
            "an empty plan keeps the run bit-identical"
        );
    }

    #[test]
    fn fair_network_profile_feeds_trunk_telemetry_into_detection() {
        let cluster = cluster();
        let t = honest_topology();
        let mut cfg = AdaptiveConfig::quick();
        cfg.sim = cfg
            .sim
            .with_network_model(crate::config::NetworkModel::Fair);
        let out = run_adaptive_rebalance(&cluster, &t, &cfg).unwrap();
        let network = out
            .profile_report
            .network
            .as_ref()
            .expect("fair-plane profiling exports link telemetry");
        let trunks = network.trunk_utilization();
        assert_eq!(trunks.len(), cluster.racks().len());
        // Every congested rack the detector reports really crossed the
        // threshold in the profiling telemetry.
        for rack in &out.drift.congested_racks {
            let (_, util) = trunks
                .iter()
                .find(|(r, _)| r == rack)
                .expect("congested rack has a trunk");
            assert!(*util >= cfg.drift.congested_trunk_utilization);
        }
        // The honest workload is light: calm trunks, clean report, and
        // the empty plan keeps the fair-plane runs bit-identical too.
        assert!(out.drift.congested_racks.is_empty(), "{trunks:?}");
        assert!(out.plan.is_empty());
        assert_eq!(out.static_report, out.adaptive_report);
    }

    #[test]
    fn adaptive_runs_are_deterministic() {
        let cluster = cluster();
        let t = drifted_topology();
        let a = run_adaptive_rebalance(&cluster, &t, &AdaptiveConfig::quick()).unwrap();
        let b = run_adaptive_rebalance(&cluster, &t, &AdaptiveConfig::quick()).unwrap();
        assert_eq!(a.drift, b.drift);
        assert_eq!(a.plan.moves, b.plan.moves);
        assert_eq!(a.adaptive_report, b.adaptive_report);
        assert_eq!(a.rescheduled_report, b.rescheduled_report);
    }

    #[test]
    fn unplaceable_topology_surfaces_as_typed_error() {
        let cluster = cluster();
        let mut b = TopologyBuilder::new("galaxy");
        b.set_spout("feed", 4)
            .set_profile(ExecutionProfile::new(0.2, 1.0, 120))
            .set_cpu_load(10.0)
            .set_memory_load(1_000_000.0); // no emulab node holds a TB
        let t = b.build().unwrap();

        let err = run_adaptive_rebalance(&cluster, &t, &AdaptiveConfig::quick())
            .expect_err("a topology that fits no node cannot be placed");
        match &err {
            ChaosError::InitialPlacement { topology, .. } => assert_eq!(topology, "galaxy"),
            other => panic!("expected InitialPlacement, got {other}"),
        }
        assert!(err.to_string().contains("galaxy"), "{err}");
    }

    #[test]
    fn refined_clone_preserves_structure_and_updates_cpu() {
        let t = drifted_topology();
        let mut refiner = ProfileRefiner::new(1.0);
        refiner.observe("drifted", "crunch", 5.0, 90.0);
        let refined = refined_clone(&t, &refiner);
        assert_eq!(refined.id(), t.id());
        assert_eq!(refined.total_tasks(), t.total_tasks());
        let crunch = refined.component("crunch").unwrap();
        assert_eq!(crunch.resources().cpu_points, 90.0);
        assert_eq!(crunch.resources().memory_mb, 128.0);
        let feed = refined.component("feed").unwrap();
        assert_eq!(feed.resources().cpu_points, 10.0, "unobserved: declared");
        // Graph structure carried over: same consumers, same sinks.
        assert_eq!(t.consumers("feed").len(), refined.consumers("feed").len());
        assert_eq!(t.sinks().count(), refined.sinks().count());
    }
}
