//! The chaos harness: one two-plane runner behind every fault scenario.
//!
//! Each scenario is a [`FaultPlan`] handed to the same private core:
//! [`run_crash_recover`] crashes one victim and heals it,
//! [`run_control_outage`] does the same through a Nimbus outage, and
//! [`run_fault_plan_with`] runs an arbitrary plan (the chaos fuzzer's
//! input). The core
//!
//! 1. resolves every node and rack name the plan references;
//! 2. replays the **control plane**: it clones the cluster, places the
//!    topology, then steps a [`RecoveryManager`] one heartbeat interval
//!    at a time. A node is silent while one of its
//!    [`FaultPlan::node_down_windows`] covers the tick, or one of its
//!    rack's [`FaultPlan::rack_partition_windows`] does (heartbeats
//!    cross racks to reach the control loop). During a
//!    [`FaultEvent::ControlLoss`] window no heartbeat arrives; during a
//!    [`FaultEvent::NimbusCrash`] window nothing happens at all, and at
//!    the first tick after it a successor reassumes, replaying the
//!    write-ahead [`rstorm_core::ControlJournal`] when journaling is on
//!    and starting cold otherwise;
//! 3. runs the **data plane**: a checked fault-injected [`Simulation`]
//!    of the *initial* assignment ([`Simulation::run_checked`]);
//! 4. folds the recovery events and the report into one
//!    [`RecoveryObservations`];
//! 5. attaches a [`ReconcileAudit`] when the plan carries control faults.
//!
//! The victim scenarios differ from a plain plan in two ways. Their data
//! plane crashes the victim at `crash_at_ms` and revives it when the
//! control plane first re-placed the topology, modelling Storm handing
//! the displaced executors to replacement workers at that moment. (The
//! simulator replays one fixed assignment, so "recovery" is the original
//! workers coming back rather than a mid-run re-placement; detection and
//! re-placement latency still come from the control-plane replay.) And
//! their observations anchor on the crash, where a plain plan's anchor
//! on its earliest fault.
//!
//! Both planes are deterministic, so the whole [`ChaosOutcome`] — report
//! bits included — is a pure function of the scenario's inputs. Crash
//! and recover never touch routing: placement is unchanged, only
//! liveness flips.

use crate::config::SimConfig;
use crate::faults::{FaultEvent, FaultPlan};
use crate::report::{InvariantViolation, RecoveryObservations, SimReport};
use crate::sim::{CheckedReport, Simulation};
use rstorm_cluster::Cluster;
use rstorm_core::{
    Assignment, GlobalState, RecoveryConfig, RecoveryEvent, RecoveryManager, ScheduleError,
    Scheduler, SchedulingPlan,
};
use rstorm_topology::Topology;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Why a chaos scenario or fault-plan run could not start. Fuzzed
/// clusters and plans routinely hit these (an unschedulable topology, a
/// generated name that resolves nowhere); surfacing them as values lets
/// a campaign record the outcome and move on instead of aborting.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosError {
    /// The scenario's victim names no node of the cluster.
    UnknownVictim {
        /// The configured victim.
        victim: String,
    },
    /// A fault-plan event names no node of the cluster.
    UnknownNode {
        /// The unresolvable node name.
        node: String,
    },
    /// A fault-plan partition names no rack of the cluster.
    UnknownRack {
        /// The unresolvable rack name.
        rack: String,
    },
    /// The topology does not fit the healthy cluster — the scenario
    /// needs a valid initial placement to disrupt.
    InitialPlacement {
        /// The topology that failed to place.
        topology: String,
        /// The scheduler's reason.
        error: ScheduleError,
    },
    /// The adaptive-rebalance migration path hit an inconsistent
    /// lookup: a task outside the task set, an unplaced task in a
    /// supposedly complete assignment, or a delta plan over a topology
    /// the state never scheduled.
    MigrationPlanning {
        /// The topology whose migration could not be planned.
        topology: String,
        /// What was inconsistent.
        reason: String,
    },
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownVictim { victim } => {
                write!(f, "chaos victim `{victim}` is not a node of the cluster")
            }
            Self::UnknownNode { node } => {
                write!(f, "fault plan references unknown node `{node}`")
            }
            Self::UnknownRack { rack } => {
                write!(f, "fault plan references unknown rack `{rack}`")
            }
            Self::InitialPlacement { topology, error } => write!(
                f,
                "no initial placement for `{topology}` on the healthy cluster: {error}"
            ),
            Self::MigrationPlanning { topology, reason } => {
                write!(f, "cannot plan a migration for `{topology}`: {reason}")
            }
        }
    }
}

impl std::error::Error for ChaosError {}

/// One crash-then-recover scenario: which node dies, when, and for how
/// long, plus the simulation and recovery-loop knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// The node to crash. Must exist in the cluster.
    pub victim: String,
    /// Simulation time of the crash, in milliseconds.
    pub crash_at_ms: f64,
    /// Simulation time the victim starts heartbeating again. Use a value
    /// past `sim.sim_time_ms` for a crash that never heals.
    pub heal_at_ms: f64,
    /// Data-plane simulation parameters.
    pub sim: SimConfig,
    /// Control-plane recovery-loop parameters.
    pub recovery: RecoveryConfig,
}

impl ChaosConfig {
    /// A scenario with default simulation and recovery knobs.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= crash_at_ms < heal_at_ms` and both are finite.
    pub fn new(victim: impl Into<String>, crash_at_ms: f64, heal_at_ms: f64) -> Self {
        assert!(
            crash_at_ms.is_finite() && heal_at_ms.is_finite() && crash_at_ms >= 0.0,
            "chaos times must be finite and non-negative, got crash={crash_at_ms} heal={heal_at_ms}"
        );
        assert!(
            crash_at_ms < heal_at_ms,
            "the victim must heal after it crashes, got crash={crash_at_ms} heal={heal_at_ms}"
        );
        Self {
            victim: victim.into(),
            crash_at_ms,
            heal_at_ms,
            sim: SimConfig::default(),
            recovery: RecoveryConfig::default(),
        }
    }

    /// The control plane's view of the scenario: the victim is silent
    /// over `[crash_at_ms, heal_at_ms)`, for good when the heal time is
    /// not finite.
    fn fault_plan(&self) -> FaultPlan {
        let plan = FaultPlan::new().crash_node(self.crash_at_ms, &self.victim);
        if self.heal_at_ms.is_finite() {
            plan.recover_node(self.heal_at_ms, &self.victim)
        } else {
            plan
        }
    }

    /// The data plane's view: the victim crashes at `crash_at_ms` and its
    /// workers come back the moment the control plane first re-placed
    /// the topology (replacement workers taking over).
    fn data_plan(&self, first_resched: Option<f64>) -> FaultPlan {
        let plan = FaultPlan::new().crash_node(self.crash_at_ms, &self.victim);
        match first_resched {
            Some(at) if at > self.crash_at_ms => plan.recover_node(at, &self.victim),
            _ => plan,
        }
    }

    /// Runs `plan` (this scenario's control-plane view plus any extra
    /// faults) with the victim's data plane and crash-anchored
    /// observations.
    fn run_plan(
        &self,
        cluster: &Arc<Cluster>,
        topology: &Topology,
        plan: &FaultPlan,
        scheduler: &(dyn Scheduler + '_),
    ) -> Result<ChaosOutcome, ChaosError> {
        if !cluster
            .nodes()
            .iter()
            .any(|n| n.id().as_str() == self.victim)
        {
            return Err(ChaosError::UnknownVictim {
                victim: self.victim.clone(),
            });
        }
        run_two_planes(
            cluster,
            topology,
            plan,
            &self.sim,
            &self.recovery,
            scheduler,
            self.crash_at_ms,
            |first_resched| self.data_plan(first_resched),
        )
    }
}

/// One control-plane outage scenario: a [`ChaosConfig`] crash plus a
/// Nimbus outage over `[nimbus_down_at_ms, nimbus_down_at_ms +
/// nimbus_down_ms)`. Whether the failover is journaled is governed by
/// `chaos.recovery.journal` (see [`rstorm_core::RecoveryConfig`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ControlOutageConfig {
    /// The data-plane crash, the simulation and the recovery loop.
    pub chaos: ChaosConfig,
    /// Simulation time Nimbus goes down.
    pub nimbus_down_at_ms: f64,
    /// Length of the Nimbus outage in milliseconds.
    pub nimbus_down_ms: f64,
}

impl ControlOutageConfig {
    /// `chaos` with a Nimbus outage added (note the default journal is
    /// **off** — a cold failover).
    ///
    /// # Panics
    ///
    /// Panics unless the Nimbus window start is finite and non-negative
    /// and its duration is finite and positive.
    pub fn new(chaos: ChaosConfig, nimbus_down_at_ms: f64, nimbus_down_ms: f64) -> Self {
        assert!(
            nimbus_down_at_ms.is_finite() && nimbus_down_at_ms >= 0.0,
            "the Nimbus outage needs a finite non-negative start"
        );
        assert!(
            nimbus_down_ms.is_finite() && nimbus_down_ms > 0.0,
            "the Nimbus outage must last a positive duration"
        );
        Self {
            chaos,
            nimbus_down_at_ms,
            nimbus_down_ms,
        }
    }
}

/// Everything a chaos scenario or fault-plan run produced.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The fault-injected data-plane report, with
    /// [`SimReport::recovery`] populated.
    pub report: SimReport,
    /// Invariant violations the checked engine observed — always empty
    /// unless `check_invariants` was on in the simulation config (the
    /// fuzzer's oracle input).
    pub violations: Vec<InvariantViolation>,
    /// The control-plane recovery events, in occurrence order.
    pub events: Vec<RecoveryEvent>,
    /// The control plane's final scheduling plan — what the cluster runs
    /// after detection, rescheduling and (if the victim healed in time)
    /// the post-recovery upgrade.
    pub plan: SchedulingPlan,
    /// The derived recovery metrics (also embedded in `report`).
    pub observations: RecoveryObservations,
    /// Post-failover reconciliation audit — `Some` exactly when the plan
    /// carried control-plane events ([`FaultPlan::has_control_faults`]):
    /// every [`run_control_outage`], and the fuzz plane's
    /// reconciliation-oracle input.
    pub reconciliation: Option<ReconcileAudit>,
}

/// What a successor's post-failover reconciliation looked like — the
/// control-plane analog of [`RecoveryObservations`], derived whenever
/// the plan carries Nimbus or control-channel faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconcileAudit {
    /// Latency from the first Nimbus outage's start to the first tick a
    /// successor reassumed control; `-1.0` when no outage ended inside
    /// the run (or the plan had no Nimbus crash at all).
    pub time_to_reassume_ms: f64,
    /// Journal decisions the successor(s) replayed on reassumption —
    /// zero for a cold (journal-less) failover.
    pub decisions_replayed: u64,
    /// Reconciliation-convergence oracle: once the control plane
    /// quiesced (no reschedule pending), the surviving placement covers
    /// exactly as many tasks as a from-scratch reschedule of the same
    /// topology on the surviving cluster would — adopted placements may
    /// sit on different slots, but no capacity the successor could have
    /// used goes unused. Vacuously `true` while retries are still
    /// pending at the horizon.
    pub converged: bool,
    /// Placement-integrity oracle: `true` when some task ended up both
    /// placed and declared unplaced, covered by neither, parked on a
    /// node the control plane believes dead with nothing pending to fix
    /// it, or the whole assignment vanished without a pending
    /// reschedule.
    pub double_placed_or_orphaned: bool,
}

/// Runs the crash-then-recover scenario described by `cfg` for one
/// topology. `scheduler` computes both the initial placement and every
/// control-plane re-placement, so a scenario grid can compare recovery
/// behavior across schedulers. See the module docs for the two planes.
///
/// # Errors
///
/// [`ChaosError::UnknownVictim`] and [`ChaosError::InitialPlacement`].
pub fn run_crash_recover(
    cluster: &Arc<Cluster>,
    topology: &Topology,
    cfg: &ChaosConfig,
    scheduler: &(dyn Scheduler + '_),
) -> Result<ChaosOutcome, ChaosError> {
    cfg.run_plan(cluster, topology, &cfg.fault_plan(), scheduler)
}

/// Runs a crash-then-recover scenario through a Nimbus outage: the
/// victim goes silent as in [`run_crash_recover`], but during the
/// outage the control plane observes nothing and decides nothing. At
/// the first tick after the window a successor reassumes — replaying
/// the journal when `cfg.chaos.recovery.journal` is on, starting cold
/// (and blind to any node that fell silent before the failover)
/// otherwise. The outcome's [`ChaosOutcome::reconciliation`] carries
/// the time to reassume and the decisions replayed.
///
/// # Errors
///
/// [`ChaosError::UnknownVictim`] and [`ChaosError::InitialPlacement`].
pub fn run_control_outage(
    cluster: &Arc<Cluster>,
    topology: &Topology,
    cfg: &ControlOutageConfig,
    scheduler: &(dyn Scheduler + '_),
) -> Result<ChaosOutcome, ChaosError> {
    let plan = cfg
        .chaos
        .fault_plan()
        .nimbus_crash(cfg.nimbus_down_at_ms, cfg.nimbus_down_ms);
    cfg.chaos.run_plan(cluster, topology, &plan, scheduler)
}

/// Runs an arbitrary [`FaultPlan`] — crashes, recovers, flap storms,
/// crash bursts, link degradations, rack partitions, Nimbus outages and
/// control-channel losses — through both planes. The data plane runs
/// the full plan, and the observations anchor on the plan's earliest
/// fault (or `0` for an empty plan).
///
/// # Errors
///
/// [`ChaosError::UnknownNode`] / [`ChaosError::UnknownRack`] when the
/// plan references names the cluster does not have, and
/// [`ChaosError::InitialPlacement`] when the topology cannot place.
pub fn run_fault_plan_with(
    cluster: &Arc<Cluster>,
    topology: &Topology,
    plan: &FaultPlan,
    sim_cfg: &SimConfig,
    recovery: &RecoveryConfig,
    scheduler: &(dyn Scheduler + '_),
) -> Result<ChaosOutcome, ChaosError> {
    run_two_planes(
        cluster,
        topology,
        plan,
        sim_cfg,
        recovery,
        scheduler,
        plan.first_event_ms().unwrap_or(0.0),
        |_| plan.clone(),
    )
}

/// The one two-plane core (see the module docs): the control plane
/// replays `plan`, the data plane runs `data_plan(first reschedule)`,
/// and the observations measure from `anchor_ms`.
#[allow(clippy::too_many_arguments)]
fn run_two_planes(
    cluster: &Arc<Cluster>,
    topology: &Topology,
    plan: &FaultPlan,
    sim_cfg: &SimConfig,
    recovery: &RecoveryConfig,
    scheduler: &(dyn Scheduler + '_),
    anchor_ms: f64,
    data_plan: impl FnOnce(Option<f64>) -> FaultPlan,
) -> Result<ChaosOutcome, ChaosError> {
    // Resolve every name the plan references up front so fuzzed plans
    // surface as typed errors here instead of engine panics mid-run.
    for ev in plan.events() {
        match ev {
            FaultEvent::NodeCrash { node, .. } | FaultEvent::NodeRecover { node, .. } => {
                if !cluster.nodes().iter().any(|n| n.id().as_str() == node) {
                    return Err(ChaosError::UnknownNode { node: node.clone() });
                }
            }
            FaultEvent::RackPartition { rack, .. } => {
                if !cluster.racks().iter().any(|r| r.as_str() == rack) {
                    return Err(ChaosError::UnknownRack { rack: rack.clone() });
                }
            }
            // Link and control-plane events carry no node/rack names to
            // resolve.
            FaultEvent::LinkDegrade { .. }
            | FaultEvent::NimbusCrash { .. }
            | FaultEvent::ControlLoss { .. } => {}
        }
    }

    let replay = replay_control_plane(
        cluster,
        topology,
        plan,
        recovery,
        scheduler,
        sim_cfg.sim_time_ms,
    )?;
    let (detect_at, first_resched, recovered_at) = fold_recovery_events(&replay.events);

    let mut sim = Simulation::new(Arc::clone(cluster), sim_cfg.clone());
    sim.add_topology(topology, &replay.initial);
    sim.set_fault_plan(data_plan(first_resched));
    let CheckedReport {
        mut report,
        violations,
    } = sim.run_checked();

    let outage_end = first_resched.unwrap_or(sim_cfg.sim_time_ms);
    let dip = report
        .throughput
        .get(topology.id().as_str())
        .map_or(0.0, |t| {
            dip_depth(&t.windows, t.window_ms, anchor_ms, outage_end + t.window_ms)
        });
    let observations = RecoveryObservations {
        crash_at_ms: anchor_ms,
        time_to_detect_ms: detect_at.map_or(-1.0, |at| at - anchor_ms),
        time_to_recover_ms: recovered_at.map_or(-1.0, |at| at - anchor_ms),
        tuples_lost: report.totals.tuples_lost,
        throughput_dip_depth: dip,
        reschedule_attempts: replay.manager.reschedule_attempts(),
        roots_replayed: report.totals.roots_replayed,
        tuples_quarantined: report.totals.tuples_quarantined,
        suppressed_flaps: replay.manager.suppressed_flaps(),
    };
    report.recovery = Some(observations);

    let reconciliation = plan
        .has_control_faults()
        .then(|| reconcile_audit(cluster, topology, scheduler, &replay));
    Ok(ChaosOutcome {
        report,
        violations,
        plan: replay.state.plan().clone(),
        events: replay.events,
        observations,
        reconciliation,
    })
}

/// What [`replay_control_plane`] hands back to the core.
struct ControlReplay {
    manager: RecoveryManager,
    events: Vec<RecoveryEvent>,
    state: GlobalState,
    initial: Assignment,
    /// Latency from the first Nimbus outage's start to the first
    /// successor tick, `-1.0` when no successor took over.
    time_to_reassume_ms: f64,
    decisions_replayed: u64,
}

/// The control-plane replay: schedules the topology, then steps
/// heartbeat ticks to `horizon_ms` with the silences, channel losses
/// and Nimbus outages `plan` implies (see the module docs).
fn replay_control_plane(
    cluster: &Arc<Cluster>,
    topology: &Topology,
    plan: &FaultPlan,
    recovery: &RecoveryConfig,
    scheduler: &(dyn Scheduler + '_),
    horizon_ms: f64,
) -> Result<ControlReplay, ChaosError> {
    let mut control = (**cluster).clone();
    let mut state = GlobalState::new(&control);
    let initial = scheduler
        .schedule(topology, &control, &mut state)
        .map_err(|error| ChaosError::InitialPlacement {
            topology: topology.id().as_str().to_owned(),
            error,
        })?;
    let mut manager = RecoveryManager::new(recovery.clone());
    let mut events = Vec::new();

    // A node is silent while any of its own down windows or its rack's
    // partition windows covers the tick.
    let node_windows = plan.node_down_windows();
    let rack_windows = plan.rack_partition_windows();
    let down_windows: Vec<(String, Vec<(f64, f64)>)> = cluster
        .nodes()
        .iter()
        .map(|n| {
            let name = n.id().as_str().to_owned();
            let mut windows: Vec<(f64, f64)> =
                node_windows.get(name.as_str()).cloned().unwrap_or_default();
            if let Some(rw) = rack_windows.get(n.rack().as_str()) {
                windows.extend(rw.iter().copied());
            }
            (name, windows)
        })
        .collect();
    let roster: Vec<String> = down_windows.iter().map(|(name, _)| name.clone()).collect();
    let nimbus_windows = plan.nimbus_down_windows();
    let loss_windows = plan.control_loss_windows();

    let interval = recovery.heartbeat_interval_ms;
    let covers =
        |windows: &[(f64, f64)], t: f64| windows.iter().any(|&(at, until)| t >= at && t < until);
    let mut t = 0.0;
    let mut was_down = false;
    let mut reassumed_at_ms = None;
    let mut decisions_replayed = 0u64;
    while t <= horizon_ms {
        if covers(&nimbus_windows, t) {
            // Nimbus is down: no observation, no detection, no
            // rescheduling — the data plane runs on without it.
            was_down = true;
            t += interval;
            continue;
        }
        if was_down {
            was_down = false;
            let journal = manager.take_journal();
            let (successor, replayed) =
                RecoveryManager::reassume(recovery.clone(), journal, t, &roster);
            manager = successor;
            decisions_replayed += replayed;
            reassumed_at_ms.get_or_insert(t);
        }
        let channel_lost = covers(&loss_windows, t);
        for (name, windows) in &down_windows {
            if !channel_lost && !covers(windows, t) {
                manager.observe_heartbeat(name, t);
            }
        }
        events.extend(manager.tick(t, &mut control, &mut state, scheduler, &[topology]));
        t += interval;
    }

    let time_to_reassume_ms = match (nimbus_windows.first(), reassumed_at_ms) {
        (Some(&(down, _)), Some(up)) => up - down,
        _ => -1.0,
    };
    Ok(ControlReplay {
        manager,
        events,
        state,
        initial,
        time_to_reassume_ms,
        decisions_replayed,
    })
}

/// First detection, first reschedule, and first *full* reschedule times
/// in an event stream.
fn fold_recovery_events(events: &[RecoveryEvent]) -> (Option<f64>, Option<f64>, Option<f64>) {
    let mut detect_at = None;
    let mut first_resched = None;
    let mut recovered_at = None;
    for event in events {
        match event {
            RecoveryEvent::NodeDeclaredDead { at_ms, .. } => {
                detect_at.get_or_insert(*at_ms);
            }
            RecoveryEvent::TopologyRescheduled {
                at_ms, unplaced, ..
            } => {
                first_resched.get_or_insert(*at_ms);
                if *unplaced == 0 {
                    recovered_at.get_or_insert(*at_ms);
                }
            }
            _ => {}
        }
    }
    (detect_at, first_resched, recovered_at)
}

/// Derives the [`ReconcileAudit`] from the final control-plane state
/// (see the field docs for the two oracles).
fn reconcile_audit(
    cluster: &Arc<Cluster>,
    topology: &Topology,
    scheduler: &(dyn Scheduler + '_),
    replay: &ControlReplay,
) -> ReconcileAudit {
    let dead: BTreeSet<&str> = replay.manager.dead_nodes().collect();
    let quiesced = !replay.manager.has_pending_reschedules();
    let total = topology.total_tasks() as usize;
    let assignment = replay.state.plan().assignment(topology.id().as_str());

    let double_placed_or_orphaned = match assignment {
        Some(a) => {
            let placed: BTreeSet<_> = a.iter().map(|(task, _)| task).collect();
            let double = a.unplaced().iter().any(|task| placed.contains(task));
            let uncovered = placed.len() + a.unplaced().len() != total;
            let orphaned = quiesced && a.iter().any(|(_, slot)| dead.contains(slot.node.as_str()));
            double || uncovered || orphaned
        }
        // The topology placed initially; an assignment that vanished
        // with nothing pending to restore it is orphaned wholesale.
        None => quiesced,
    };

    let converged = if quiesced {
        let mut survivors = (**cluster).clone();
        for node in &dead {
            survivors.kill_node(node);
        }
        let mut fresh = GlobalState::new(&survivors);
        let from_scratch = scheduler
            .schedule(topology, &survivors, &mut fresh)
            .map_or(0, |a| a.len());
        assignment.map_or(0, Assignment::len) == from_scratch
    } else {
        // Still converging at the horizon — the oracle judges quiesced
        // states only.
        true
    };

    ReconcileAudit {
        time_to_reassume_ms: replay.time_to_reassume_ms,
        decisions_replayed: replay.decisions_replayed,
        converged,
        double_placed_or_orphaned,
    }
}

/// Depth of the throughput dip: `1 - worst_outage_window / steady_mean`,
/// clamped to `[0, 1]`. The steady mean averages the windows that ended
/// before the crash (window 0 is skipped as warm-up); the outage windows
/// are those overlapping `[crash_at_ms, outage_end_ms)`. Returns 0 when
/// either set is empty or the pre-crash throughput was zero.
fn dip_depth(windows: &[f64], window_ms: f64, crash_at_ms: f64, outage_end_ms: f64) -> f64 {
    let mut steady_sum = 0.0;
    let mut steady_n = 0u32;
    let mut outage_min = f64::INFINITY;
    for (i, &w) in windows.iter().enumerate() {
        let start = i as f64 * window_ms;
        let end = start + window_ms;
        if i > 0 && end <= crash_at_ms {
            steady_sum += w;
            steady_n += 1;
        }
        if start < outage_end_ms && end > crash_at_ms {
            outage_min = outage_min.min(w);
        }
    }
    if steady_n == 0 || outage_min.is_infinite() {
        return 0.0;
    }
    let steady_mean = steady_sum / f64::from(steady_n);
    if steady_mean <= 0.0 {
        return 0.0;
    }
    ((steady_mean - outage_min) / steady_mean).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstorm_cluster::{ClusterBuilder, ResourceCapacity};
    use rstorm_core::{verify_plan, RStormScheduler};
    use rstorm_topology::{ExecutionProfile, TopologyBuilder};

    fn topology() -> Topology {
        let mut b = TopologyBuilder::new("chaos-t");
        b.set_spout("src", 2)
            .set_profile(ExecutionProfile::network_bound(100))
            .set_cpu_load(25.0)
            .set_memory_load(256.0);
        b.set_bolt("sink", 2)
            .shuffle_grouping("src")
            .set_profile(ExecutionProfile::network_bound(100).into_sink())
            .set_cpu_load(25.0)
            .set_memory_load(256.0);
        b.build().unwrap()
    }

    fn cluster() -> Arc<Cluster> {
        Arc::new(
            ClusterBuilder::new()
                .homogeneous_racks(2, 3, ResourceCapacity::emulab_node(), 4)
                .build()
                .unwrap(),
        )
    }

    /// The node R-Storm colocates the topology on — crashing anything
    /// else would displace nothing.
    fn host_node(cluster: &Cluster, t: &Topology) -> String {
        let mut state = GlobalState::new(cluster);
        let a = RStormScheduler::new()
            .schedule(t, cluster, &mut state)
            .unwrap();
        let host = a.iter().next().unwrap().1.node.as_str().to_owned();
        host
    }

    fn scenario(victim: String) -> ChaosConfig {
        let mut cfg = ChaosConfig::new(victim, 20_000.0, 35_000.0);
        cfg.sim = SimConfig::quick();
        cfg
    }

    #[test]
    fn crash_is_detected_and_topology_fully_recovers() {
        let cluster = cluster();
        let t = topology();
        let cfg = scenario(host_node(&cluster, &t));
        let out = run_crash_recover(&cluster, &t, &cfg, &RStormScheduler::new()).unwrap();

        let obs = out.observations;
        // Detection takes at least the miss window measured from the
        // victim's last heartbeat — which precedes the crash by at most
        // one interval.
        let window = cfg.recovery.heartbeat_interval_ms * f64::from(cfg.recovery.miss_threshold);
        assert!(
            obs.time_to_detect_ms >= window - cfg.recovery.heartbeat_interval_ms
                && obs.time_to_detect_ms <= window + cfg.recovery.heartbeat_interval_ms,
            "detected after {} ms, window is {} ms",
            obs.time_to_detect_ms,
            window
        );
        // Full recovery happened, after (or at) detection.
        assert!(
            obs.time_to_recover_ms >= obs.time_to_detect_ms,
            "recover {} ms < detect {} ms",
            obs.time_to_recover_ms,
            obs.time_to_detect_ms
        );
        assert!(obs.reschedule_attempts >= 1);
        // The outage destroyed work and dented sink throughput.
        assert!(obs.tuples_lost > 0, "a crashed worker loses queued tuples");
        assert!(
            obs.throughput_dip_depth > 0.0 && obs.throughput_dip_depth <= 1.0,
            "dip depth {} out of range",
            obs.throughput_dip_depth
        );
        // The final control-plane plan is complete and verifiable.
        let assignment = out.plan.assignment(t.id().as_str()).expect("re-placed");
        assert!(!assignment.is_degraded());
        assert!(verify_plan(&out.plan, &[&t], &cluster).is_empty());
        // The report embeds the same observations.
        assert_eq!(out.report.recovery, Some(obs));
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let cluster = cluster();
        let t = topology();
        let cfg = scenario(host_node(&cluster, &t));
        let a = run_crash_recover(&cluster, &t, &cfg, &RStormScheduler::new()).unwrap();
        let b = run_crash_recover(&cluster, &t, &cfg, &RStormScheduler::new()).unwrap();
        assert_eq!(a.report, b.report, "same scenario, same bits");
        assert_eq!(a.events, b.events);
        assert_eq!(a.report.to_json(), b.report.to_json());
    }

    #[test]
    fn unhealed_crash_reports_sentinels_when_nothing_fits() {
        // A topology that only fits with every node alive: killing one
        // node leaves survivors that can hold part of it at best.
        let cluster = Arc::new(
            ClusterBuilder::new()
                .homogeneous_racks(1, 2, ResourceCapacity::new(400.0, 3_000.0, 100.0), 4)
                .build()
                .unwrap(),
        );
        let mut b = TopologyBuilder::new("big");
        b.set_spout("src", 2)
            .set_profile(ExecutionProfile::network_bound(100))
            .set_cpu_load(10.0)
            .set_memory_load(1_400.0);
        b.set_bolt("sink", 2)
            .shuffle_grouping("src")
            .set_profile(ExecutionProfile::network_bound(100).into_sink())
            .set_cpu_load(10.0)
            .set_memory_load(1_400.0);
        let t = b.build().unwrap();

        let victim = cluster.nodes()[0].id().as_str().to_owned();
        let mut cfg = ChaosConfig::new(victim, 10_000.0, 120_000.0); // never heals in a quick run
        cfg.sim = SimConfig::quick();
        let out = run_crash_recover(&cluster, &t, &cfg, &RStormScheduler::new()).unwrap();

        assert!(out.observations.time_to_detect_ms > 0.0, "crash detected");
        assert!(
            out.observations.time_to_recover_ms < 0.0,
            "full recovery is impossible while the victim is down"
        );
        // Whatever the control plane managed is degraded at best, and
        // never overcommits memory.
        if let Some(a) = out.plan.assignment(t.id().as_str()) {
            assert!(a.is_degraded());
        }
        assert!(!verify_plan(&out.plan, &[&t], &cluster)
            .iter()
            .any(|v| matches!(v, rstorm_core::Violation::MemoryOvercommit { .. })));
    }

    #[test]
    fn unknown_victim_is_rejected() {
        let err = run_crash_recover(
            &cluster(),
            &topology(),
            &ChaosConfig::new("ghost", 1.0, 2.0),
            &RStormScheduler::new(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            ChaosError::UnknownVictim {
                victim: "ghost".into()
            }
        );
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn unschedulable_topology_surfaces_as_typed_error() {
        // A topology no node can hold: the scenario cannot start, and a
        // fuzzed cluster must learn that as a result, not an abort.
        let cluster = cluster();
        let mut b = TopologyBuilder::new("huge");
        b.set_spout("src", 1)
            .set_profile(ExecutionProfile::network_bound(100))
            .set_cpu_load(10.0)
            .set_memory_load(1e9);
        b.set_bolt("sink", 1)
            .shuffle_grouping("src")
            .set_profile(ExecutionProfile::network_bound(100).into_sink())
            .set_cpu_load(10.0)
            .set_memory_load(1e9);
        let t = b.build().unwrap();
        let victim = cluster.nodes()[0].id().as_str().to_owned();
        let cfg = ChaosConfig::new(victim, 1_000.0, 2_000.0);
        let err = run_crash_recover(&cluster, &t, &cfg, &RStormScheduler::new()).unwrap_err();
        assert!(
            matches!(err, ChaosError::InitialPlacement { ref topology, .. } if topology == "huge"),
            "got {err:?}"
        );
        // The outage scenario surfaces the same failure the same way.
        let outage = ControlOutageConfig::new(cfg, 500.0, 1_000.0);
        let err = run_control_outage(&cluster, &t, &outage, &RStormScheduler::new()).unwrap_err();
        assert!(
            matches!(err, ChaosError::InitialPlacement { ref topology, .. } if topology == "huge"),
            "got {err:?}"
        );
    }

    #[test]
    fn victim_scenarios_share_the_plan_runners_control_plane() {
        // Given the same crash and heal, the crash scenario and the plan
        // runner replay the same control plane: same events, same final
        // plan, same recovery-loop counters. Only the data plane differs
        // (the victim's workers return at the first reschedule).
        let cluster = cluster();
        let t = topology();
        let scheduler = RStormScheduler::new();
        let mut cfg = scenario(host_node(&cluster, &t));
        cfg.recovery.journal = true;
        let plan = FaultPlan::new()
            .crash_node(cfg.crash_at_ms, &cfg.victim)
            .recover_node(cfg.heal_at_ms, &cfg.victim);
        let same_control_plane = |a: &ChaosOutcome, b: &ChaosOutcome| {
            assert_eq!(a.events, b.events);
            assert_eq!(a.plan, b.plan);
            assert_eq!(
                a.observations.reschedule_attempts,
                b.observations.reschedule_attempts
            );
            assert_eq!(
                a.observations.suppressed_flaps,
                b.observations.suppressed_flaps
            );
        };
        let victim = run_crash_recover(&cluster, &t, &cfg, &scheduler).unwrap();
        let planned =
            run_fault_plan_with(&cluster, &t, &plan, &cfg.sim, &cfg.recovery, &scheduler).unwrap();
        assert!(!victim.events.is_empty(), "the crash must be handled");
        same_control_plane(&victim, &planned);
        assert!(victim.reconciliation.is_none() && planned.reconciliation.is_none());

        // A Nimbus window after the detection: the outage scenario and
        // the plan runner also agree on the failover.
        let (down_at, down_ms) = (28_000.0, 4_000.0);
        let outage = ControlOutageConfig::new(cfg.clone(), down_at, down_ms);
        let victim = run_control_outage(&cluster, &t, &outage, &scheduler).unwrap();
        let plan = plan.nimbus_crash(down_at, down_ms);
        let planned =
            run_fault_plan_with(&cluster, &t, &plan, &cfg.sim, &cfg.recovery, &scheduler).unwrap();
        same_control_plane(&victim, &planned);
        let (a, b) = (
            victim.reconciliation.expect("outage audit"),
            planned.reconciliation.expect("plan audit"),
        );
        assert!(a.time_to_reassume_ms >= down_ms && a.decisions_replayed > 0);
        assert_eq!(a.time_to_reassume_ms, b.time_to_reassume_ms);
        assert_eq!(a.decisions_replayed, b.decisions_replayed);
    }

    #[test]
    fn fault_plan_runner_validates_names() {
        let cluster = cluster();
        let t = topology();
        let bad_node = FaultPlan::new().crash_node(1_000.0, "ghost");
        let err = run_fault_plan_with(
            &cluster,
            &t,
            &bad_node,
            &SimConfig::quick(),
            &RecoveryConfig::default(),
            &RStormScheduler::new(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            ChaosError::UnknownNode {
                node: "ghost".into()
            }
        );

        let bad_rack = FaultPlan::new().partition_rack(1_000.0, 2_000.0, "ghost-rack");
        let err = run_fault_plan_with(
            &cluster,
            &t,
            &bad_rack,
            &SimConfig::quick(),
            &RecoveryConfig::default(),
            &RStormScheduler::new(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            ChaosError::UnknownRack {
                rack: "ghost-rack".into()
            }
        );
    }

    #[test]
    fn partition_silences_heartbeats_and_is_detected() {
        // Partition the rack hosting the topology: workers keep running
        // and all traffic is intra-rack (R-Storm colocates), so the data
        // plane is untouched — but heartbeats cross racks, so the control
        // plane must declare the rack's nodes dead within the window.
        let cluster = cluster();
        let t = topology();
        let host = host_node(&cluster, &t);
        let rack = cluster.rack_of(&host).unwrap().as_str().to_owned();
        let plan = FaultPlan::new().partition_rack(20_000.0, 45_000.0, &rack);
        let sim_cfg = SimConfig::quick();
        let recovery = RecoveryConfig::default();
        let out = run_fault_plan_with(
            &cluster,
            &t,
            &plan,
            &sim_cfg,
            &recovery,
            &RStormScheduler::new(),
        )
        .unwrap();
        assert!(
            out.events.iter().any(
                |e| matches!(e, RecoveryEvent::NodeDeclaredDead { node, .. } if *node == host)
            ),
            "the partitioned host must miss enough heartbeats: {:?}",
            out.events
        );
        assert!(out.observations.time_to_detect_ms > 0.0);
        assert_eq!(
            out.report.totals.tuples_lost, 0,
            "intra-rack traffic is unaffected by the partition"
        );
        // Deterministic end to end.
        let again = run_fault_plan_with(
            &cluster,
            &t,
            &plan,
            &sim_cfg,
            &recovery,
            &RStormScheduler::new(),
        )
        .unwrap();
        assert_eq!(out.report, again.report);
        assert_eq!(out.report.to_json(), again.report.to_json());
        assert_eq!(out.events, again.events);
    }

    #[test]
    fn journaled_successor_detects_a_crash_masked_by_the_outage() {
        // The victim crashes while Nimbus is down, so the silence starts
        // before any successor exists. A journaled failover seeds the
        // roster's heartbeats on reassumption and still detects it.
        let cluster = cluster();
        let t = topology();
        let mut chaos = ChaosConfig::new(host_node(&cluster, &t), 20_000.0, 50_000.0);
        chaos.sim = SimConfig::quick();
        let mut cfg = ControlOutageConfig::new(chaos, 18_000.0, 12_000.0);
        cfg.chaos.recovery.journal = true;
        let out = run_control_outage(&cluster, &t, &cfg, &RStormScheduler::new()).unwrap();
        let audit = out.reconciliation.expect("an outage carries an audit");

        // Reassumption happens at the first tick past the 12 s window.
        assert!(
            audit.time_to_reassume_ms >= cfg.nimbus_down_ms
                && audit.time_to_reassume_ms
                    <= cfg.nimbus_down_ms + 2.0 * cfg.chaos.recovery.heartbeat_interval_ms,
            "reassumed after {} ms of a {} ms outage",
            audit.time_to_reassume_ms,
            cfg.nimbus_down_ms
        );
        // Nothing was journaled pre-outage, so nothing replays — the
        // win here is the seeded roster, not the record replay.
        assert_eq!(audit.decisions_replayed, 0);
        let declared = out
            .events
            .iter()
            .find_map(|e| match e {
                RecoveryEvent::NodeDeclaredDead { node, at_ms, .. }
                    if *node == cfg.chaos.victim =>
                {
                    Some(*at_ms)
                }
                _ => None,
            })
            .expect("the successor must declare the masked crash");
        assert!(
            declared >= cfg.nimbus_down_at_ms + cfg.nimbus_down_ms,
            "declared at {declared} ms, inside the outage"
        );
        assert!(out.observations.time_to_recover_ms >= out.observations.time_to_detect_ms);

        // Deterministic end to end.
        let again = run_control_outage(&cluster, &t, &cfg, &RStormScheduler::new()).unwrap();
        assert_eq!(out.report, again.report);
        assert_eq!(out.events, again.events);
        assert_eq!(out.reconciliation, again.reconciliation);
    }

    #[test]
    fn cold_successor_stays_blind_to_a_pre_failover_silence() {
        // Same scenario, journal off: the cold successor has never seen
        // a heartbeat from the victim, so it can never count the misses.
        let cluster = cluster();
        let t = topology();
        let mut chaos = ChaosConfig::new(host_node(&cluster, &t), 20_000.0, 50_000.0);
        chaos.sim = SimConfig::quick();
        let cfg = ControlOutageConfig::new(chaos, 18_000.0, 12_000.0);
        assert!(!cfg.chaos.recovery.journal, "cold failover is the default");
        let out = run_control_outage(&cluster, &t, &cfg, &RStormScheduler::new()).unwrap();

        assert_eq!(out.reconciliation.unwrap().decisions_replayed, 0);
        assert!(
            !out.events
                .iter()
                .any(|e| matches!(e, RecoveryEvent::NodeDeclaredDead { .. })),
            "a cold successor cannot detect a pre-failover silence: {:?}",
            out.events
        );
        assert_eq!(out.observations.time_to_detect_ms, -1.0);
        assert_eq!(out.observations.time_to_recover_ms, -1.0);
    }

    #[test]
    fn successor_replays_pre_outage_decisions_without_redeclaring() {
        // The crash is detected and rescheduled *before* Nimbus dies;
        // the successor replays those records and must not act twice.
        let cluster = cluster();
        let t = topology();
        let mut chaos = ChaosConfig::new(host_node(&cluster, &t), 5_000.0, 50_000.0);
        chaos.sim = SimConfig::quick();
        let mut cfg = ControlOutageConfig::new(chaos, 14_000.0, 8_000.0);
        cfg.chaos.recovery.journal = true;
        let out = run_control_outage(&cluster, &t, &cfg, &RStormScheduler::new()).unwrap();

        // At least the dead declaration and one reschedule were in the
        // journal when the outage hit.
        let replayed = out.reconciliation.unwrap().decisions_replayed;
        assert!(
            replayed >= 2,
            "expected the declare + reschedule records, replayed {replayed}"
        );
        let declarations = out
            .events
            .iter()
            .filter(|e| {
                matches!(e, RecoveryEvent::NodeDeclaredDead { node, .. } if *node == cfg.chaos.victim)
            })
            .count();
        assert_eq!(
            declarations, 1,
            "the replayed dead set must suppress a duplicate declaration"
        );
        assert!(out.observations.time_to_detect_ms > 0.0);
    }

    #[test]
    fn control_outage_rejects_unknown_victims_as_typed_error() {
        let err = run_control_outage(
            &cluster(),
            &topology(),
            &ControlOutageConfig::new(ChaosConfig::new("ghost", 1_000.0, 2_000.0), 500.0, 1_000.0),
            &RStormScheduler::new(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            ChaosError::UnknownVictim {
                victim: "ghost".into()
            }
        );
    }
}
