//! The chaos harness: one closed-loop runner behind every fault scenario.
//!
//! A scenario is a [`FaultPlan`] and nothing else: a crash-then-heal, a
//! crash under a Nimbus outage, a partition or the chaos fuzzer's
//! generated plans all run through [`run_fault_plan_with`], which
//!
//! 1. resolves every node and rack name the plan references;
//! 2. places the topology on the healthy cluster;
//! 3. runs one checked, fault-injected [`Simulation`] of that placement
//!    with the **recovery loop inside the engine**, as Nimbus runs
//!    beside its workers. A [`RecoveryManager`], with its own copy of
//!    the cluster and its own [`GlobalState`], ticks every heartbeat
//!    interval on the engine's fault lane. A node is silent while the
//!    engine has it down or its rack partitioned (heartbeats cross racks
//!    to reach the control loop). During a [`FaultEvent::ControlLoss`]
//!    window no heartbeat arrives; during a [`FaultEvent::NimbusCrash`]
//!    window nothing happens at all, and at the first tick after it a
//!    successor reassumes, replaying the write-ahead
//!    [`rstorm_core::ControlJournal`] when journaling is on and starting
//!    cold otherwise. Every reschedule moves the tasks whose node
//!    changed at that instant, so the data plane runs what the control
//!    plane decided;
//! 4. folds the recovery events and the report into one
//!    [`RecoveryObservations`], measured from the plan's anchor (see
//!    [`RecoveryObservations::crash_at_ms`]);
//! 5. attaches a [`ReconcileAudit`] when the plan carries control faults.
//!
//! The run is deterministic, so the whole [`ChaosOutcome`] — report bits
//! included — is a pure function of the scenario's inputs.

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

/// Why a fault-plan run could not start. Fuzzed clusters and plans
/// routinely hit these (an unschedulable topology, a generated name that
/// resolves nowhere); surfacing them as values lets a campaign record the
/// outcome and move on instead of aborting.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosError {
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

/// Everything a fault-plan run produced.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The fault-injected simulation report, with
    /// [`SimReport::recovery`] populated.
    pub report: SimReport,
    /// Invariant violations the checked engine observed — empty unless
    /// the engine broke an accounting identity or reported an insane
    /// metric (the fuzzer's oracle input).
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
    /// carried control-plane events ([`FaultPlan::has_control_faults`]);
    /// the fuzz plane's reconciliation-oracle input.
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

/// Runs a [`FaultPlan`] — crashes, recovers, flap storms, crash bursts,
/// link degradations, rack partitions, Nimbus outages and
/// control-channel losses — with the recovery loop inside the run.
/// `scheduler` computes both the initial placement and every
/// control-plane re-placement, so a scenario grid can compare recovery
/// behavior across schedulers. See the module docs for the run and
/// [`RecoveryObservations::crash_at_ms`] for the anchor the
/// observations measure from.
///
/// # Errors
///
/// [`ChaosError::UnknownNode`] / [`ChaosError::UnknownRack`] when the
/// plan references names the cluster does not have, and
/// [`ChaosError::InitialPlacement`] when the topology cannot place.
///
/// # Panics
///
/// In a debug build, if the run reports an [`InvariantViolation`] (the
/// fuzzer reads them through [`ChaosOutcome::violations`] instead).
pub fn run_fault_plan_with(
    cluster: &Arc<Cluster>,
    topology: &Topology,
    plan: &FaultPlan,
    sim_cfg: &SimConfig,
    recovery: &RecoveryConfig,
    scheduler: &(dyn Scheduler + '_),
) -> Result<ChaosOutcome, ChaosError> {
    let out = run_closed_loop(cluster, topology, plan, sim_cfg, recovery, scheduler)?.outcome;
    debug_assert!(
        out.violations.is_empty(),
        "invariant violations: {:?}",
        out.violations
    );
    Ok(out)
}

/// What the core hands back: the public outcome plus the
/// placement-agreement oracle, which needs the engine's final placement.
pub(crate) struct ClosedLoopRun {
    pub(crate) outcome: ChaosOutcome,
    /// Once the control plane quiesced (no reschedule pending), every
    /// task the final plan places runs on that node in the simulation.
    /// Vacuously `true` while a reschedule is still pending.
    pub(crate) placement_agrees: bool,
}

/// The one core behind [`run_fault_plan_with`] (see the module docs).
pub(crate) fn run_closed_loop(
    cluster: &Arc<Cluster>,
    topology: &Topology,
    plan: &FaultPlan,
    sim_cfg: &SimConfig,
    recovery: &RecoveryConfig,
    scheduler: &(dyn Scheduler + '_),
) -> Result<ClosedLoopRun, ChaosError> {
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

    let anchor_ms = anchor_ms(plan);
    let control = (**cluster).clone();
    let mut state = GlobalState::new(&control);
    let initial = scheduler
        .schedule(topology, &control, &mut state)
        .map_err(|error| ChaosError::InitialPlacement {
            topology: topology.id().as_str().to_owned(),
            error,
        })?;
    let control = ControlLoop {
        topology,
        scheduler,
        recovery: recovery.clone(),
        roster: cluster
            .nodes()
            .iter()
            .map(|n| n.id().as_str().to_owned())
            .collect(),
        cluster: control,
        state,
        manager: RecoveryManager::new(recovery.clone()),
        events: Vec::new(),
        was_down: false,
        reassumed_at_ms: None,
        decisions_replayed: 0,
        nimbus_open: 0,
        loss_open: 0,
        placement: Vec::new(),
    };
    let mut sim = Simulation::new(Arc::clone(cluster), sim_cfg.clone());
    sim.add_topology(topology, &initial);
    sim.set_fault_plan(plan.clone());
    let (
        CheckedReport {
            mut report,
            violations,
        },
        control,
    ) = sim.run_with_control(Some(control));
    let control = control.expect("the loop comes back");
    let (detect_at, first_resched, recovered_at) = fold_recovery_events(&control.events);

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
        reschedule_attempts: control.manager.reschedule_attempts(),
        roots_replayed: report.totals.roots_replayed,
        tuples_quarantined: report.totals.tuples_quarantined,
        suppressed_flaps: control.manager.suppressed_flaps(),
    };
    report.recovery = Some(observations);

    let final_plan = control.state.plan().clone();
    let placement_agrees = control.manager.has_pending_reschedules()
        || final_plan
            .assignment(topology.id().as_str())
            .is_none_or(|a| {
                a.iter()
                    .all(|(task, slot)| control.placement[task.index()] == slot.node.as_str())
            });
    let reconciliation = plan
        .has_control_faults()
        .then(|| control.audit(cluster, plan));
    Ok(ClosedLoopRun {
        outcome: ChaosOutcome {
            report,
            violations,
            plan: final_plan,
            events: control.events,
            observations,
            reconciliation,
        },
        placement_agrees,
    })
}

/// The recovery control loop the engine runs on its fault lane (see the
/// module docs): a [`RecoveryManager`] over its own copy of the cluster
/// and its own [`GlobalState`], re-placing one topology through
/// `scheduler`.
pub(crate) struct ControlLoop<'a> {
    pub(crate) topology: &'a Topology,
    scheduler: &'a (dyn Scheduler + 'a),
    pub(crate) recovery: RecoveryConfig,
    cluster: Cluster,
    state: GlobalState,
    manager: RecoveryManager,
    /// Node names in cluster order, the engine's dense node order.
    roster: Vec<String>,
    events: Vec<RecoveryEvent>,
    /// The previous tick fell inside a Nimbus outage.
    was_down: bool,
    reassumed_at_ms: Option<f64>,
    decisions_replayed: u64,
    /// Nimbus-outage and control-loss windows open now, counted by the
    /// engine's fault lane so overlapping windows act as their union.
    pub(crate) nimbus_open: i32,
    pub(crate) loss_open: i32,
    /// The engine's node for each task of `topology` when the run
    /// ended, in task order.
    pub(crate) placement: Vec<String>,
}

impl ControlLoop<'_> {
    /// One heartbeat tick at `now_ms`; `silent(k)` tells whether the
    /// k-th node of the cluster sends no heartbeat. Returns the
    /// topology's new assignment when this tick re-placed it.
    pub(crate) fn tick(
        &mut self,
        now_ms: f64,
        silent: impl Fn(usize) -> bool,
    ) -> Option<&Assignment> {
        if self.nimbus_open > 0 {
            // Nimbus is down: no observation, no detection, no
            // rescheduling — the workers run on without it.
            self.was_down = true;
            return None;
        }
        if self.was_down {
            self.was_down = false;
            let journal = self.manager.take_journal();
            let (successor, replayed) =
                RecoveryManager::reassume(self.recovery.clone(), journal, now_ms, &self.roster);
            self.manager = successor;
            self.decisions_replayed += replayed;
            self.reassumed_at_ms.get_or_insert(now_ms);
        }
        if self.loss_open == 0 {
            for (k, name) in self.roster.iter().enumerate() {
                if !silent(k) {
                    self.manager.observe_heartbeat(name, now_ms);
                }
            }
        }
        let events = self.manager.tick(
            now_ms,
            &mut self.cluster,
            &mut self.state,
            self.scheduler,
            &[self.topology],
        );
        let rescheduled = events
            .iter()
            .any(|e| matches!(e, RecoveryEvent::TopologyRescheduled { .. }));
        self.events.extend(events);
        if rescheduled {
            self.state.plan().assignment(self.topology.id().as_str())
        } else {
            None
        }
    }

    /// Derives the [`ReconcileAudit`] of `plan` from the final state
    /// (see the field docs for the two oracles).
    fn audit(&self, cluster: &Arc<Cluster>, plan: &FaultPlan) -> ReconcileAudit {
        let dead: BTreeSet<&str> = self.manager.dead_nodes().collect();
        let quiesced = !self.manager.has_pending_reschedules();
        let total = self.topology.total_tasks() as usize;
        let assignment = self.state.plan().assignment(self.topology.id().as_str());

        let double_placed_or_orphaned = match assignment {
            Some(a) => {
                let placed: BTreeSet<_> = a.iter().map(|(task, _)| task).collect();
                let double = a.unplaced().iter().any(|task| placed.contains(task));
                let uncovered = placed.len() + a.unplaced().len() != total;
                let orphaned =
                    quiesced && a.iter().any(|(_, slot)| dead.contains(slot.node.as_str()));
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
            let from_scratch = self
                .scheduler
                .schedule(self.topology, &survivors, &mut fresh)
                .map_or(0, |a| a.len());
            assignment.map_or(0, Assignment::len) == from_scratch
        } else {
            // Still converging at the horizon — the oracle judges
            // quiesced states only.
            true
        };

        ReconcileAudit {
            time_to_reassume_ms: match (plan.nimbus_down_windows().first(), self.reassumed_at_ms) {
                (Some(&(down, _)), Some(up)) => up - down,
                _ => -1.0,
            },
            decisions_replayed: self.decisions_replayed,
            converged,
            double_placed_or_orphaned,
        }
    }
}

/// The instant a run's observations measure from: the plan's earliest
/// data-plane fault (a node crash, rack partition or link degradation);
/// with none, its earliest event; `0` for an empty plan.
fn anchor_ms(plan: &FaultPlan) -> f64 {
    plan.events()
        .iter()
        .filter(|ev| {
            matches!(
                ev,
                FaultEvent::NodeCrash { .. }
                    | FaultEvent::RackPartition { .. }
                    | FaultEvent::LinkDegrade { .. }
            )
        })
        .map(FaultEvent::at_ms)
        .reduce(f64::min)
        .or_else(|| plan.first_event_ms())
        .unwrap_or(0.0)
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

/// The open-loop control-plane replay the in-engine loop replaced, kept
/// as a differential oracle: it steps a [`RecoveryManager`] over
/// heartbeat windows precomputed from the plan instead of reading the
/// engine's liveness. Wherever the two views of liveness agree, the
/// recovery events, the final plan and the [`ReconcileAudit`] must match
/// the in-engine loop's.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// Schedules the topology, then steps heartbeat ticks to
    /// `horizon_ms`. A node is silent while one of its
    /// [`FaultPlan::node_down_windows`] or its rack's
    /// [`FaultPlan::rack_partition_windows`] covers the tick; Nimbus
    /// outages and control-channel losses act as in the module docs.
    /// Returns the loop state the replay ended in (no engine ran, so
    /// `placement` stays empty).
    pub(crate) fn replay_control_plane<'a>(
        cluster: &Arc<Cluster>,
        topology: &'a Topology,
        plan: &FaultPlan,
        recovery: &RecoveryConfig,
        scheduler: &'a (dyn Scheduler + 'a),
        horizon_ms: f64,
    ) -> Result<ControlLoop<'a>, ChaosError> {
        let mut control = (**cluster).clone();
        let mut state = GlobalState::new(&control);
        scheduler
            .schedule(topology, &control, &mut state)
            .map_err(|error| ChaosError::InitialPlacement {
                topology: topology.id().as_str().to_owned(),
                error,
            })?;
        let mut manager = RecoveryManager::new(recovery.clone());
        let mut events = Vec::new();

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
        let covers = |windows: &[(f64, f64)], t: f64| {
            windows.iter().any(|&(at, until)| t >= at && t < until)
        };
        let mut t = 0.0;
        let mut was_down = false;
        let mut reassumed_at_ms = None;
        let mut decisions_replayed = 0u64;
        while t <= horizon_ms {
            if covers(&nimbus_windows, t) {
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

        Ok(ControlLoop {
            topology,
            scheduler,
            recovery: recovery.clone(),
            cluster: control,
            state,
            manager,
            roster,
            events,
            was_down,
            reassumed_at_ms,
            decisions_replayed,
            nimbus_open: 0,
            loss_open: 0,
            placement: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::{generate_plan, FuzzConfig, FuzzReproducer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
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

    /// Crashes `victim` at `crash_at_ms` and heals it at `heal_at_ms`.
    fn crash_heal(victim: &str, crash_at_ms: f64, heal_at_ms: f64) -> FaultPlan {
        FaultPlan::new()
            .crash_node(crash_at_ms, victim)
            .recover_node(heal_at_ms, victim)
    }

    /// Runs `plan` for a quick horizon under R-Storm.
    fn run_quick(
        cluster: &Arc<Cluster>,
        t: &Topology,
        plan: &FaultPlan,
        recovery: &RecoveryConfig,
    ) -> Result<ChaosOutcome, ChaosError> {
        run_fault_plan_with(
            cluster,
            t,
            plan,
            &SimConfig::quick(),
            recovery,
            &RStormScheduler::new(),
        )
    }

    fn journaled() -> RecoveryConfig {
        RecoveryConfig {
            journal: true,
            ..RecoveryConfig::default()
        }
    }

    #[test]
    fn crash_is_detected_and_topology_fully_recovers() {
        let cluster = cluster();
        let t = topology();
        let victim = host_node(&cluster, &t);
        let recovery = RecoveryConfig::default();
        let run = run_closed_loop(
            &cluster,
            &t,
            &crash_heal(&victim, 20_000.0, 35_000.0),
            &SimConfig::quick(),
            &recovery,
            &RStormScheduler::new(),
        )
        .unwrap();
        let out = run.outcome;

        let obs = out.observations;
        assert_eq!(obs.crash_at_ms, 20_000.0, "anchored on the crash");
        // Detection takes at least the miss window measured from the
        // victim's last heartbeat — which precedes the crash by at most
        // one interval.
        let window = recovery.heartbeat_interval_ms * f64::from(recovery.miss_threshold);
        assert!(
            obs.time_to_detect_ms >= window - recovery.heartbeat_interval_ms
                && obs.time_to_detect_ms <= window + recovery.heartbeat_interval_ms,
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
        // The re-placement really ran: every task sits where the final
        // plan put it, off the victim.
        assert!(run.placement_agrees);
        assert!(!assignment
            .used_nodes()
            .contains(&rstorm_cluster::NodeId::new(victim.as_str())));
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let cluster = cluster();
        let t = topology();
        let plan = crash_heal(&host_node(&cluster, &t), 20_000.0, 35_000.0);
        let recovery = RecoveryConfig::default();
        let a = run_quick(&cluster, &t, &plan, &recovery).unwrap();
        let b = run_quick(&cluster, &t, &plan, &recovery).unwrap();
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
        let plan = crash_heal(&victim, 10_000.0, 120_000.0); // never heals in a quick run
        let out = run_quick(&cluster, &t, &plan, &RecoveryConfig::default()).unwrap();

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
        let plan = crash_heal(&victim, 1_000.0, 2_000.0);
        // With and without a Nimbus outage, the failure surfaces the
        // same way.
        for plan in [plan.clone(), plan.nimbus_crash(500.0, 1_000.0)] {
            let err = run_quick(&cluster, &t, &plan, &RecoveryConfig::default()).unwrap_err();
            assert!(
                matches!(err, ChaosError::InitialPlacement { ref topology, .. } if topology == "huge"),
                "got {err:?}"
            );
        }
    }

    #[test]
    fn observations_anchor_on_the_first_data_plane_fault() {
        // Nimbus goes down at 3 s, before the crash at 4 s: the anchor is
        // the crash, and detection and recovery are measured from it.
        let cluster = cluster();
        let t = topology();
        let victim = host_node(&cluster, &t);
        let plan = crash_heal(&victim, 4_000.0, 12_000.0).nimbus_crash(3_000.0, 4_000.0);
        let out = run_quick(&cluster, &t, &plan, &journaled()).unwrap();
        let obs = out.observations;
        assert_eq!(obs.crash_at_ms, 4_000.0);
        let (detect_at, _, recovered_at) = fold_recovery_events(&out.events);
        let detect_at = detect_at.expect("the journaled successor detects the crash");
        let recovered_at = recovered_at.expect("the topology is fully re-placed");
        assert_eq!(obs.time_to_detect_ms, detect_at - 4_000.0);
        assert_eq!(obs.time_to_recover_ms, recovered_at - 4_000.0);

        // A plan with no data-plane fault anchors on its earliest event,
        // an empty plan on 0.
        assert_eq!(
            anchor_ms(&FaultPlan::new().nimbus_crash(3_000.0, 4_000.0)),
            3_000.0
        );
        assert_eq!(anchor_ms(&FaultPlan::new()), 0.0);
    }

    #[test]
    fn fault_plan_runner_validates_names() {
        let cluster = cluster();
        let t = topology();
        let bad_node = FaultPlan::new().crash_node(1_000.0, "ghost");
        let err = run_quick(&cluster, &t, &bad_node, &RecoveryConfig::default()).unwrap_err();
        assert_eq!(
            err,
            ChaosError::UnknownNode {
                node: "ghost".into()
            }
        );
        assert!(err.to_string().contains("ghost"));

        let bad_rack = FaultPlan::new().partition_rack(1_000.0, 2_000.0, "ghost-rack");
        let err = run_quick(&cluster, &t, &bad_rack, &RecoveryConfig::default()).unwrap_err();
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
        let recovery = RecoveryConfig::default();
        let out = run_quick(&cluster, &t, &plan, &recovery).unwrap();
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
        let again = run_quick(&cluster, &t, &plan, &recovery).unwrap();
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
        let victim = host_node(&cluster, &t);
        let (down_at, down_ms) = (18_000.0, 12_000.0);
        let plan = crash_heal(&victim, 20_000.0, 50_000.0).nimbus_crash(down_at, down_ms);
        let recovery = journaled();
        let out = run_quick(&cluster, &t, &plan, &recovery).unwrap();
        let audit = out.reconciliation.expect("an outage carries an audit");

        // Reassumption happens at the first tick past the 12 s window.
        assert!(
            audit.time_to_reassume_ms >= down_ms
                && audit.time_to_reassume_ms <= down_ms + 2.0 * recovery.heartbeat_interval_ms,
            "reassumed after {} ms of a {} ms outage",
            audit.time_to_reassume_ms,
            down_ms
        );
        // Nothing was journaled pre-outage, so nothing replays — the
        // win here is the seeded roster, not the record replay.
        assert_eq!(audit.decisions_replayed, 0);
        let declared = out
            .events
            .iter()
            .find_map(|e| match e {
                RecoveryEvent::NodeDeclaredDead { node, at_ms, .. } if *node == victim => {
                    Some(*at_ms)
                }
                _ => None,
            })
            .expect("the successor must declare the masked crash");
        assert!(
            declared >= down_at + down_ms,
            "declared at {declared} ms, inside the outage"
        );
        assert!(out.observations.time_to_recover_ms >= out.observations.time_to_detect_ms);

        // Deterministic end to end.
        let again = run_quick(&cluster, &t, &plan, &recovery).unwrap();
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
        let plan = crash_heal(&host_node(&cluster, &t), 20_000.0, 50_000.0)
            .nimbus_crash(18_000.0, 12_000.0);
        let recovery = RecoveryConfig::default();
        assert!(!recovery.journal, "cold failover is the default");
        let out = run_quick(&cluster, &t, &plan, &recovery).unwrap();

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
        let victim = host_node(&cluster, &t);
        let plan = crash_heal(&victim, 5_000.0, 50_000.0).nimbus_crash(14_000.0, 8_000.0);
        let out = run_quick(&cluster, &t, &plan, &journaled()).unwrap();

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
            .filter(
                |e| matches!(e, RecoveryEvent::NodeDeclaredDead { node, .. } if *node == victim),
            )
            .count();
        assert_eq!(
            declarations, 1,
            "the replayed dead set must suppress a duplicate declaration"
        );
        assert!(out.observations.time_to_detect_ms > 0.0);
    }

    /// The fuzz corpus's cluster (two racks of two nodes) and workload
    /// (spout and sink on different nodes), under the fuzzer's clean
    /// configuration.
    fn fuzz_cluster() -> Arc<Cluster> {
        Arc::new(
            ClusterBuilder::new()
                .homogeneous_racks(2, 2, ResourceCapacity::emulab_node(), 4)
                .build()
                .unwrap(),
        )
    }

    fn split_topology() -> Topology {
        let mut b = TopologyBuilder::new("fuzz-t");
        b.set_spout("src", 1)
            .set_profile(ExecutionProfile::network_bound(100))
            .set_cpu_load(20.0)
            .set_memory_load(1_400.0);
        b.set_bolt("sink", 1)
            .shuffle_grouping("src")
            .set_profile(ExecutionProfile::network_bound(100).into_sink())
            .set_cpu_load(20.0)
            .set_memory_load(1_400.0);
        b.build().unwrap()
    }

    fn clean_cfg() -> FuzzConfig {
        FuzzConfig {
            sim: SimConfig::quick()
                .with_sim_time_ms(30_000.0)
                .with_max_replays(8),
            ..FuzzConfig::default()
        }
    }

    /// True when the engine's liveness can differ from the plan's
    /// heartbeat windows: two partitions of one rack that overlap or
    /// touch. The windows keep the rack silent until the later heal; the
    /// engine heals it at the first (partitions are idempotent, not
    /// counted).
    fn liveness_views_disagree(plan: &FaultPlan) -> bool {
        plan.rack_partition_windows().values().any(|windows| {
            windows.iter().enumerate().any(|(i, &(a1, u1))| {
                windows[i + 1..]
                    .iter()
                    .any(|&(a2, u2)| a1 <= u2 && a2 <= u1)
            })
        })
    }

    /// Runs `plan` through the in-engine loop and the replay oracle and
    /// asserts the control side agrees: events, final plan, recovery
    /// counters and, with control faults, the reconciliation audit.
    fn assert_loop_matches_oracle(
        cluster: &Arc<Cluster>,
        t: &Topology,
        plan: &FaultPlan,
        sim: &SimConfig,
        recovery: &RecoveryConfig,
    ) {
        let scheduler = RStormScheduler::new();
        let run = run_closed_loop(cluster, t, plan, sim, recovery, &scheduler)
            .unwrap()
            .outcome;
        let replay =
            oracle::replay_control_plane(cluster, t, plan, recovery, &scheduler, sim.sim_time_ms)
                .unwrap();
        let text = plan.to_text();
        assert_eq!(run.events, replay.events, "events differ on\n{text}");
        assert_eq!(
            &run.plan,
            replay.state.plan(),
            "final plan differs on\n{text}"
        );
        assert_eq!(
            run.observations.reschedule_attempts,
            replay.manager.reschedule_attempts()
        );
        assert_eq!(
            run.observations.suppressed_flaps,
            replay.manager.suppressed_flaps()
        );
        let audit = plan
            .has_control_faults()
            .then(|| replay.audit(cluster, plan));
        assert_eq!(run.reconciliation, audit, "audit differs on\n{text}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The in-engine control loop decides exactly what the open-loop
        /// replay it replaced decided, over plans drawn from the fuzz
        /// grammar and a spread of recovery knobs, wherever the two
        /// views of liveness agree.
        #[test]
        fn in_engine_loop_matches_the_replay_oracle(
            seed in 0u64..u64::MAX,
            journal in 0u8..2,
            trust_threshold in 1u32..=3,
            churn in 0u8..2,
        ) {
            let cluster = fuzz_cluster();
            let cfg = clean_cfg();
            let plan = generate_plan(&mut StdRng::seed_from_u64(seed), &cluster, &cfg);
            if liveness_views_disagree(&plan) {
                return Ok(());
            }
            let recovery = RecoveryConfig {
                journal: journal == 1,
                trust_threshold,
                min_reschedule_interval_ms: if churn == 1 { 5_000.0 } else { 0.0 },
                ..RecoveryConfig::default()
            };
            assert_loop_matches_oracle(&cluster, &split_topology(), &plan, &cfg.sim, &recovery);
        }
    }

    #[test]
    fn in_engine_loop_matches_the_replay_oracle_on_the_corpus() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fuzz_corpus");
        let mut plans = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|ext| ext == "plan") {
                let text = std::fs::read_to_string(&path).unwrap();
                let plan = FuzzReproducer::from_text(&text).unwrap().plan;
                assert!(!liveness_views_disagree(&plan), "{}", path.display());
                let cfg = clean_cfg();
                assert_loop_matches_oracle(
                    &fuzz_cluster(),
                    &split_topology(),
                    &plan,
                    &cfg.sim,
                    &cfg.recovery,
                );
                plans += 1;
            }
        }
        assert!(plans > 0, "the corpus must not be empty");
    }

    #[test]
    fn overlapping_same_rack_partitions_are_the_known_disagreement() {
        // The split topology starts on rack-0. The windows keep rack-0
        // silent until 12 s; the engine heals it at the first heal, 8 s,
        // so the in-engine loop readmits its nodes earlier.
        let cluster = fuzz_cluster();
        let overlap = FaultPlan::new()
            .partition_rack(2_000.0, 8_000.0, "rack-0")
            .partition_rack(5_000.0, 12_000.0, "rack-0");
        assert!(liveness_views_disagree(&overlap));
        let cfg = clean_cfg();
        let scheduler = RStormScheduler::new();
        let t = split_topology();
        let run = run_closed_loop(&cluster, &t, &overlap, &cfg.sim, &cfg.recovery, &scheduler)
            .unwrap()
            .outcome;
        let replay = oracle::replay_control_plane(
            &cluster,
            &t,
            &overlap,
            &cfg.recovery,
            &scheduler,
            cfg.sim.sim_time_ms,
        )
        .unwrap();
        assert_ne!(run.events, replay.events);

        let apart = FaultPlan::new()
            .partition_rack(2_000.0, 8_000.0, "rack-0")
            .partition_rack(9_000.0, 12_000.0, "rack-0")
            .partition_rack(5_000.0, 12_000.0, "rack-1");
        assert!(!liveness_views_disagree(&apart));
        assert_loop_matches_oracle(&cluster, &t, &apart, &cfg.sim, &cfg.recovery);
    }
}
