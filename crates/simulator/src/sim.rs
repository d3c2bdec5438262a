//! The discrete-event simulation engine (fast path).
//!
//! The steady-state event loop touches only dense structures prepared at
//! build time by [`crate::build`]:
//!
//! * routing reads one shared target list per (component, subscription);
//!   the link path and latency of each transfer are derived from the two
//!   tasks' dense placement (node, port, rack), so emitting costs one RNG
//!   draw (for pick groupings) and zero allocation, and a migration only
//!   rewrites placement;
//! * in-flight tuple trees live in a generational slab with a free-list
//!   pool ([`crate::slab`]), not a `HashMap`, and their tuple timeouts
//!   on a list through that slab, so the event set holds only live
//!   events (see [`Engine::run`]);
//! * per-node CPU contention state is a dense `Vec` indexed by
//!   build-time slots ([`crate::servers::DenseCpuServer`]); a batch
//!   start runs the max-min fair-share scan only when an exp-free demand
//!   bound (undecayed demands, each at least its decayed value) exceeds
//!   the node's capacity, since under it the scan's stretch is exactly 1;
//! * throughput counters are a dense `Vec` indexed by interned sink ids —
//!   no `String` is hashed, cloned or compared between the first and the
//!   last event.
//!
//! The original string-keyed implementation is kept as a test oracle
//! (the `oracle` module, compiled for tests and under the `oracle`
//! feature only); parity tests assert both engines emit identical
//! [`SimReport`]s, which pins every reordering here to the reference
//! semantics (same RNG draw sequence, same event order, same float
//! arithmetic).

use crate::build::{ClusterIndex, LinkKind, SimBuild, NO_SINK};
use crate::chaos::ControlLoop;
use crate::config::{NetworkModel, SimConfig};
use crate::event::EventQueue;
use crate::faults::{FaultEvent, FaultPlan};
use crate::network::{FairNetwork, LinkClass};
use crate::report::{
    InvariantViolation, LinkUtilization, NetworkObservations, SimDebugStats, SimReport, SimTotals,
};
use crate::servers::{legacy_link_fabric, DenseCpuServer, LinkServer};
use crate::slab::{RootSlab, RootState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rstorm_cluster::{Cluster, WorkerSlot};
use rstorm_core::{Assignment, MigrationPlan};
use rstorm_metrics::{CpuUtilizationTracker, StatisticServer, ThroughputReport, WindowedCounter};
use rstorm_topology::Topology;
use std::collections::VecDeque;
use std::sync::Arc;

/// A batch of tuples in flight, tagged with the root (spout emission) it
/// descends from for acking purposes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Batch {
    pub root: u64,
    pub tuples: u32,
}

/// The fast engine's heap payload, packed to 16 bytes so a scheduled
/// event is one 32-byte heap element. Tuple timeouts and the fair plane's
/// wake-up never enter the heap: they are sidecar lanes (see
/// [`Engine::run`]).
#[derive(Debug, Clone, Copy)]
struct FastEv {
    root: u64,
    /// Event tag in the top two bits, global task index below.
    task_tag: u32,
    tuples: u32,
}

const TAG_SHIFT: u32 = 30;
const TASK_MASK: u32 = (1 << TAG_SHIFT) - 1;
const TAG_TRY_SPOUT: u32 = 0 << TAG_SHIFT;
const TAG_WORK_DONE: u32 = 1 << TAG_SHIFT;
const TAG_DELIVER: u32 = 2 << TAG_SHIFT;
const TAG_FAULT: u32 = 3 << TAG_SHIFT;

/// Why a control-loop action can rely on a loop: it is scheduled only
/// when one is attached.
const ATTACHED: &str = "control-loop actions are scheduled only with a loop attached";

/// A control event resolved to dense engine indices at build time (the
/// heap payload only carries an index into [`Engine::faults`]).
/// The heap's two tag bits are exhausted, so every control-plane event —
/// faults, stats-export ticks, live migrations and recovery-loop ticks —
/// rides the [`TAG_FAULT`] lane and dispatches through this side table.
#[derive(Debug, Clone, Copy)]
enum FaultAction {
    Crash(u32),
    Recover(u32),
    SetLinkExtra(f64),
    /// Start dropping inter-rack transfers whose producer or consumer
    /// lives on this dense rack id (see [`FaultEvent::RackPartition`]).
    PartitionRack(u32),
    /// End the partition window for this dense rack id.
    HealRack(u32),
    /// Snapshot per-component stats into the exported
    /// [`StatisticServer`] and reschedule the next tick.
    StatsTick,
    /// Apply the migration at this index of [`Engine::migrations`].
    Migrate(u32),
    /// Run one heartbeat tick of the attached [`ControlLoop`] and
    /// reschedule the next.
    ControlTick,
    /// A Nimbus-outage window opens (`+1`) or closes (`-1`). Only
    /// scheduled when a control loop is attached.
    NimbusWindow(i32),
    /// A control-channel loss window opens (`+1`) or closes (`-1`).
    /// Only scheduled when a control loop is attached.
    LossWindow(i32),
}

impl FastEv {
    fn try_spout(task: usize) -> Self {
        Self {
            root: 0,
            task_tag: TAG_TRY_SPOUT | task as u32,
            tuples: 0,
        }
    }

    fn work_done(task: usize, batch: Batch) -> Self {
        Self {
            root: batch.root,
            task_tag: TAG_WORK_DONE | task as u32,
            tuples: batch.tuples,
        }
    }

    fn deliver(task: usize, batch: Batch) -> Self {
        Self {
            root: batch.root,
            task_tag: TAG_DELIVER | task as u32,
            tuples: batch.tuples,
        }
    }

    fn fault(action: usize) -> Self {
        Self {
            root: 0,
            task_tag: TAG_FAULT | action as u32,
            tuples: 0,
        }
    }
}

#[derive(Debug, Default)]
pub(crate) struct TaskRt {
    pub queue: VecDeque<Batch>,
    pub busy: bool,
    pub credits: u32,
    pub waiting_for_credit: bool,
    pub emit_acc: f64,
    /// Earliest time a rate-limited spout may emit its next root batch.
    pub next_emit_ms: f64,
    /// Set when this task's node crashed while a batch was being served:
    /// the already-scheduled `WorkDone` belongs to the dead worker and
    /// must be discarded (its batch is lost) instead of emitting.
    pub drop_next_work_done: bool,
    /// Earliest time this task may start serving a batch again — set by a
    /// live migration to `now + pause_ms` (the pause/drain/restore cost).
    /// Zero when the task never migrated, making the start-time clamp
    /// `now.max(resume_at_ms)` bit-neutral for untouched runs.
    pub resume_at_ms: f64,
    /// Total core-milliseconds of work this task has submitted — the
    /// stats-export hook's observed-CPU source. Write-only unless a
    /// [`StatisticServer`] is attached, so it cannot perturb the run.
    pub work_acc_ms: f64,
    /// Tuples this (bolt) task has processed, for stats export.
    pub processed_acc: u64,
    /// Tuples this task has emitted downstream, for stats export.
    pub emitted_acc: u64,
    /// Set when the task moved off a down node while its dead worker's
    /// `WorkDone` was still pending: once that batch is dropped, the
    /// task resumes idle on its new node (see [`Engine::apply_moves`]).
    pub resume_after_drop: bool,
    /// The spout's replay buffer (replay mode only — always empty when
    /// `max_replays == 0`): failed logical roots awaiting re-emission as
    /// `(attempt, lost_tuples)` where `attempt` is the upcoming attempt
    /// number and `lost_tuples` carries crash-destroyed tuples from all
    /// prior attempts. Entries hold their original spout credit, so
    /// replays drain through the same `max_spout_pending` window as
    /// fresh emits — backpressure, not amplification. Crash draining
    /// must never touch this buffer: in Storm the pending buffer lives
    /// with the spout's acker ledger and survives worker restarts.
    pub replay_queue: VecDeque<(u32, u64)>,
}

/// Streaming accumulator for completed-root latencies (the population is
/// far too large to retain).
#[derive(Debug, Default)]
pub(crate) struct LatencyAccumulator {
    count: usize,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl LatencyAccumulator {
    pub fn record(&mut self, latency_ms: f64) {
        if self.count == 0 {
            self.min = latency_ms;
            self.max = latency_ms;
        } else {
            self.min = self.min.min(latency_ms);
            self.max = self.max.max(latency_ms);
        }
        self.count += 1;
        self.sum += latency_ms;
        self.sum_sq += latency_ms * latency_ms;
    }

    pub fn summary(&self) -> rstorm_metrics::Summary {
        if self.count == 0 {
            return rstorm_metrics::Summary::of([]);
        }
        let n = self.count as f64;
        let mean = self.sum / n;
        let variance = (self.sum_sq / n - mean * mean).max(0.0);
        rstorm_metrics::Summary {
            count: self.count,
            mean,
            stddev: variance.sqrt(),
            min: self.min,
            max: self.max,
        }
    }
}

/// The per-task constants the hot loop reads, packed densely (the full
/// [`crate::build::SimTaskSpec`] — strings, slots — is only consulted at
/// the report boundary).
#[derive(Debug, Clone, Copy)]
struct TaskStatic {
    node: u32,
    /// Worker port on `node`: same node and port is the same worker.
    port: u16,
    cpu_slot: u32,
    sink_ctr: u32,
    tuple_bytes: u32,
    work_ms_per_tuple: f64,
    emit_factor: f64,
    /// Spout pacing rate in tuples/s; negative means unlimited.
    max_rate: f64,
    is_spout: bool,
    is_sink: bool,
}

/// A migration request as handed to [`Simulation::schedule_migration`],
/// kept in source form until [`Engine::new`] resolves names to dense ids.
#[derive(Debug, Clone)]
struct PendingMigration {
    topology: String,
    at_ms: f64,
    pause_ms: f64,
    /// (task index within the topology, destination worker slot).
    moves: Vec<(u32, WorkerSlot)>,
}

/// A migration resolved to global task and dense node indices.
#[derive(Debug, Clone, Default)]
struct ResolvedMigration {
    pause_ms: f64,
    /// (global task index, destination dense node, destination slot).
    moves: Vec<(usize, usize, WorkerSlot)>,
}

/// Engine-side state of the stats-export hook.
#[derive(Debug)]
struct StatsState {
    server: Arc<StatisticServer>,
    interval_ms: f64,
    /// The `FaultAction::StatsTick` index, for self-rescheduling.
    action: usize,
    /// Per-task accumulator values at the previous tick, so each tick
    /// records only the delta into the windowed counters.
    last_work_ms: Vec<f64>,
    last_processed: Vec<u64>,
    last_emitted: Vec<u64>,
}

/// A configured simulation of one cluster executing any number of
/// scheduled topologies. See the [crate docs](crate) for the model.
#[derive(Debug)]
pub struct Simulation {
    cluster: Arc<Cluster>,
    config: SimConfig,
    index: ClusterIndex,
    build: SimBuild,
    faults: FaultPlan,
    stats: Option<(Arc<StatisticServer>, f64)>,
    migrations: Vec<PendingMigration>,
}

impl Simulation {
    /// Creates an empty simulation over `cluster`. Accepts either an
    /// owned [`Cluster`] or an `Arc<Cluster>` — harnesses that construct
    /// many simulations over the same cluster should share one `Arc`
    /// instead of deep-copying the cluster per run.
    pub fn new(cluster: impl Into<Arc<Cluster>>, config: SimConfig) -> Self {
        let cluster = cluster.into();
        let index = ClusterIndex::new(&cluster);
        let build = SimBuild::new(cluster.nodes().len());
        Self {
            cluster,
            config,
            index,
            build,
            faults: FaultPlan::new(),
            stats: None,
            migrations: Vec::new(),
        }
    }

    /// Attaches a [`StatisticServer`] and snapshots per-component stats
    /// into it every `interval_ms` of simulated time: observed CPU
    /// busy-time and processed/emitted tuple counts.
    ///
    /// The export is a pure observer — it draws no randomness and mutates
    /// no engine state — so an exporting run produces the same
    /// [`SimReport`] as a plain one.
    ///
    /// # Panics
    ///
    /// Panics unless `interval_ms` is positive and finite.
    pub fn export_stats(&mut self, server: Arc<StatisticServer>, interval_ms: f64) {
        assert!(
            interval_ms.is_finite() && interval_ms > 0.0,
            "stats interval must be positive, got {interval_ms}"
        );
        self.stats = Some((server, interval_ms));
    }

    /// Schedules a live migration: at `at_ms`, every task in `plan.moves`
    /// relocates to its slot in `plan.updated`, paying a
    /// pause/drain/restore cost — the batch in service drains on the old
    /// node, carried queue contents and all future batches wait out a
    /// `pause_ms` service freeze on the destination.
    ///
    /// An empty plan schedules nothing, keeping the run bit-identical to
    /// an untouched one. Names are resolved when the simulation runs;
    /// unknown topologies or nodes panic there, consistent with
    /// [`Self::add_topology`].
    ///
    /// # Panics
    ///
    /// Panics if the times are negative or non-finite, or if the plan
    /// omits the destination slot of a moved task.
    pub fn schedule_migration(&mut self, plan: &MigrationPlan, at_ms: f64, pause_ms: f64) {
        assert!(
            at_ms.is_finite() && at_ms >= 0.0 && pause_ms.is_finite() && pause_ms >= 0.0,
            "migration times must be finite and non-negative, got at={at_ms} pause={pause_ms}"
        );
        if plan.is_empty() {
            return;
        }
        let moves = plan
            .moves
            .iter()
            .map(|m| {
                let slot = plan
                    .updated
                    .slot_of(m.task)
                    .unwrap_or_else(|| panic!("migration plan does not place {}", m.task))
                    .clone();
                (m.task.index() as u32, slot)
            })
            .collect();
        self.migrations.push(PendingMigration {
            topology: plan.topology.as_str().to_owned(),
            at_ms,
            pause_ms,
            moves,
        });
    }

    /// Injects a fault plan (see [`FaultPlan`]). Replaces any previously
    /// set plan; an empty plan restores fault-free behavior bit-for-bit.
    ///
    /// Node names are resolved against the cluster when the simulation
    /// runs; unknown names panic there, consistent with
    /// [`Self::add_topology`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// The currently configured fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Adds a scheduled topology to the simulation.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is incomplete or references nodes not in
    /// the cluster (verify foreign plans with `rstorm_core::verify_plan`
    /// first).
    pub fn add_topology(&mut self, topology: &Topology, assignment: &Assignment) {
        assert_eq!(
            topology.id().as_str(),
            assignment.topology().as_str(),
            "assignment belongs to a different topology"
        );
        self.build
            .append_topology(&self.index, topology, assignment);
    }

    /// Runs the simulation to completion and reports. Debug builds
    /// assert that the run broke no invariant (see [`Self::run_checked`]).
    ///
    /// # Panics
    ///
    /// Panics if no topology was added, and in a debug build if the run
    /// reports an [`InvariantViolation`].
    pub fn run(self) -> SimReport {
        let CheckedReport { report, violations } = self.run_checked();
        debug_assert!(
            violations.is_empty(),
            "invariant violations: {violations:?}"
        );
        report
    }

    /// Runs the simulation to completion and reports, together with every
    /// [`InvariantViolation`] the run produced. Every run is checked, in
    /// every build profile: the replay plane's drain invariant
    /// `emitted == acked + quarantined + in_flight`, the live-root ledger
    /// and [`SimReport::sanity_violations`]. Checking only observes: the
    /// report is the one [`Self::run`] returns.
    ///
    /// # Panics
    ///
    /// Panics if no topology was added.
    pub fn run_checked(self) -> CheckedReport {
        self.run_with_control(None).0
    }

    /// Runs with `control`, if any, ticking on the fault lane, so its
    /// reschedules move tasks in this run (see [`crate::chaos`]). The
    /// loop comes back with its `placement` filled in.
    pub(crate) fn run_with_control<'c>(
        self,
        control: Option<ControlLoop<'c>>,
    ) -> (CheckedReport, Option<ControlLoop<'c>>) {
        assert!(
            !self.build.specs.is_empty(),
            "add at least one topology before running"
        );
        let (report, violations, control) = Engine::new(self, control).run();
        (CheckedReport { report, violations }, control)
    }
}

/// The outcome of [`Simulation::run_checked`]: the ordinary report plus
/// every invariant violation the engine observed (empty unless something
/// is actually broken — the chaos fuzzer's oracle input).
#[derive(Debug, Clone)]
pub struct CheckedReport {
    /// The report, bit-identical to what [`Simulation::run`] returns.
    pub report: SimReport,
    /// Typed accounting/sanity violations, in detection order.
    pub violations: Vec<InvariantViolation>,
}

/// Mutable engine state, split from `Simulation` so the borrow checker
/// lets us index tasks and servers independently.
struct Engine<'c> {
    config: SimConfig,
    build: SimBuild,
    /// Rack names for the report's per-link telemetry.
    cluster: Arc<Cluster>,
    index: ClusterIndex,
    statics: Vec<TaskStatic>,

    queue: EventQueue<FastEv>,
    /// The fair plane's one pending wake-up, at its earliest flow
    /// completion: the `(key, seq)` event slot that the last transition
    /// drew, or `None` when no flow can complete. Each transition
    /// overwrites it, so a superseded wake-up is never queued.
    net_wake: Option<(u64, u64)>,
    cpus: Vec<DenseCpuServer>,
    egress: Vec<LinkServer>,
    ingress: Vec<LinkServer>,
    uplink: LinkServer,
    tasks: Vec<TaskRt>,
    roots: RootSlab,
    sink_counters: Vec<WindowedCounter>,
    rng: StdRng,
    totals: SimTotals,
    latency: LatencyAccumulator,
    /// Heap events handled, per tag.
    heap_events: [u64; 4],
    /// The lanes' other event counts; `report` fills in the rest.
    debug: SimDebugStats,

    /// `config.max_replays > 0`. Every replay-plane branch and counter is
    /// gated on this so a replay-disabled run stays bit-identical to the
    /// legacy at-most-once engine (and to the reference oracle).
    replay_enabled: bool,
    /// Logical roots emitted but not yet settled (acked or quarantined):
    /// each is either a live unfailed slab attempt or a `replay_queue`
    /// entry. Maintains the drain invariant
    /// `roots_emitted == roots_completed + roots_quarantined + live_logical`.
    live_logical: u64,

    /// Liveness per dense node id; flipped by fault events only.
    node_down: Vec<bool>,
    /// Partition state per dense rack id; flipped by fault events only.
    rack_down: Vec<bool>,
    /// Count of currently partitioned racks. The hot transfer path
    /// checks this single integer; a plan with no partitions keeps it at
    /// zero forever, so fault-free and crash-only runs stay bit-identical
    /// to the legacy engine.
    racks_partitioned: u32,
    /// Global task indices hosted on each node (for crash draining and
    /// recovery re-kicks).
    node_tasks: Vec<Vec<usize>>,
    /// Extra per-transfer latency while a link degradation is active.
    link_extra_ms: f64,
    /// The fair-share network plane, present only when
    /// `config.network_model == NetworkModel::Fair`. `None` keeps every
    /// legacy run bit-identical to the pre-plane engine: all fair-plane
    /// branches are `is_some()` checks that never fire.
    network: Option<FairNetwork>,
    /// `(at_ms, action)` pairs resolved to dense ids, scheduled into the
    /// queue by `run`; heap events carry an index into this table.
    faults: Vec<(f64, FaultAction)>,
    /// Stats-export hook, `None` unless a server was attached.
    stats: Option<StatsState>,
    /// Scheduled migrations resolved to dense ids.
    migrations: Vec<ResolvedMigration>,
    /// The recovery control loop, `None` unless the chaos core attached
    /// one.
    control: Option<ControlLoop<'c>>,
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("tasks", &self.tasks.len())
            .field("now", &self.queue.now())
            .finish_non_exhaustive()
    }
}

/// Resolves `(task index within topology, destination slot)` moves to
/// `(global task, dense destination node, slot)`. Task indices resolve
/// within the named topology's own tasks, so a move can never land on
/// another topology's task.
///
/// # Panics
///
/// Panics on an unknown topology, task or node.
fn resolve_moves<'s>(
    build: &SimBuild,
    index: &ClusterIndex,
    topology: &str,
    moves: impl IntoIterator<Item = (u32, &'s WorkerSlot)>,
) -> Vec<(usize, usize, WorkerSlot)> {
    let tasks: Vec<usize> = (0..build.specs.len())
        .filter(|&i| build.specs[i].topology == topology)
        .collect();
    assert!(
        !tasks.is_empty(),
        "migration references unknown topology `{topology}`"
    );
    moves
        .into_iter()
        .map(|(task, slot)| {
            let global = *tasks.get(task as usize).unwrap_or_else(|| {
                panic!("migration references unknown task {task} of topology `{topology}`")
            });
            let node = *index
                .node_of
                .get(slot.node.as_str())
                .unwrap_or_else(|| panic!("migration references unknown node `{}`", slot.node));
            (global, node, slot.clone())
        })
        .collect()
}

impl<'c> Engine<'c> {
    fn new(sim: Simulation, control: Option<ControlLoop<'c>>) -> Self {
        let Simulation {
            cluster,
            config,
            index,
            mut build,
            faults: plan,
            stats: sim_stats,
            migrations: sim_migrations,
        } = sim;

        // Borrow the cost matrix; nothing here outlives this scope and
        // the per-relation latencies were interned by `ClusterIndex`.
        let costs = cluster.costs();
        let node_tasks = std::mem::take(&mut build.node_tasks);
        let cpus: Vec<DenseCpuServer> = index
            .cores
            .iter()
            .zip(&build.node_mem_demand)
            .zip(&index.memory_mb)
            .zip(&node_tasks)
            .map(|(((&cores, &demand), &capacity), globals)| {
                let thrash = if demand > capacity && config.oom_thrash_factor < 1.0 {
                    // Over-committed memory: the node pages/crash-loops.
                    config.oom_thrash_factor
                } else {
                    1.0
                };
                DenseCpuServer::new(cores, thrash, globals.clone())
            })
            .collect();

        // Resolve the fault plan to dense node ids now so the hot loop
        // never touches a string. Unknown names panic, consistent with
        // `add_topology`.
        let resolve = |node: &str| -> u32 {
            *index
                .node_of
                .get(node)
                .unwrap_or_else(|| panic!("fault plan references unknown node `{node}`"))
                as u32
        };
        let mut faults = Vec::new();
        for ev in plan.events() {
            match ev {
                FaultEvent::NodeCrash { at_ms, node } => {
                    faults.push((*at_ms, FaultAction::Crash(resolve(node))));
                }
                FaultEvent::NodeRecover { at_ms, node } => {
                    faults.push((*at_ms, FaultAction::Recover(resolve(node))));
                }
                FaultEvent::LinkDegrade {
                    at_ms,
                    until_ms,
                    extra_latency_ms,
                } => {
                    faults.push((*at_ms, FaultAction::SetLinkExtra(*extra_latency_ms)));
                    faults.push((*until_ms, FaultAction::SetLinkExtra(0.0)));
                }
                FaultEvent::RackPartition {
                    at_ms,
                    until_ms,
                    rack,
                } => {
                    // `cluster.racks()` order is the dense rack-index
                    // order used by `ClusterIndex::rack_of_node`.
                    let r = cluster
                        .racks()
                        .iter()
                        .position(|id| id.as_str() == rack)
                        .unwrap_or_else(|| panic!("fault plan references unknown rack `{rack}`"))
                        as u32;
                    faults.push((*at_ms, FaultAction::PartitionRack(r)));
                    faults.push((*until_ms, FaultAction::HealRack(r)));
                }
                // Control-plane events have no data-plane effect: they
                // only gate an attached control loop's ticks.
                FaultEvent::NimbusCrash { at_ms, down_ms } if control.is_some() => {
                    faults.push((*at_ms, FaultAction::NimbusWindow(1)));
                    faults.push((*at_ms + *down_ms, FaultAction::NimbusWindow(-1)));
                }
                FaultEvent::ControlLoss { at_ms, until_ms } if control.is_some() => {
                    faults.push((*at_ms, FaultAction::LossWindow(1)));
                    faults.push((*until_ms, FaultAction::LossWindow(-1)));
                }
                FaultEvent::NimbusCrash { .. } | FaultEvent::ControlLoss { .. } => {}
            }
        }

        // Stats export and migrations share the fault lane (see
        // `FaultAction`). The first stats tick fires one interval in;
        // later ticks self-reschedule.
        let stats = sim_stats.map(|(server, interval_ms)| {
            let action = faults.len();
            faults.push((interval_ms, FaultAction::StatsTick));
            StatsState {
                server,
                interval_ms,
                action,
                last_work_ms: vec![0.0; build.specs.len()],
                last_processed: vec![0; build.specs.len()],
                last_emitted: vec![0; build.specs.len()],
            }
        });
        let mut migrations = Vec::new();
        for m in sim_migrations {
            let moves = m.moves.iter().map(|(task, slot)| (*task, slot));
            faults.push((m.at_ms, FaultAction::Migrate(migrations.len() as u32)));
            migrations.push(ResolvedMigration {
                pause_ms: m.pause_ms,
                moves: resolve_moves(&build, &index, &m.topology, moves),
            });
        }
        // The control loop ticks from t = 0; queued after every plan
        // event, each tick sees the faults that fire at its instant.
        if control.is_some() {
            faults.push((0.0, FaultAction::ControlTick));
        }
        let (egress, ingress, uplink) = legacy_link_fabric(
            index.cores.len(),
            costs.node_bandwidth_mbps,
            costs.inter_rack_bandwidth_mbps,
        );
        let network = match config.network_model {
            NetworkModel::Legacy => None,
            NetworkModel::Fair => Some(FairNetwork::new(
                index.cores.len(),
                cluster.racks().len(),
                costs.node_bandwidth_mbps,
                costs.inter_rack_bandwidth_mbps,
                config.window_ms,
                config.sim_time_ms,
            )),
        };

        let tasks = build
            .specs
            .iter()
            .map(|s| TaskRt {
                credits: if s.is_spout {
                    s.max_spout_pending.unwrap_or(config.max_pending)
                } else {
                    0
                },
                ..TaskRt::default()
            })
            .collect();
        let statics = build
            .specs
            .iter()
            .map(|s| TaskStatic {
                node: s.node_idx as u32,
                port: s.slot.port,
                cpu_slot: s.cpu_slot,
                sink_ctr: s.sink_ctr,
                tuple_bytes: s.tuple_bytes,
                work_ms_per_tuple: s.work_ms_per_tuple,
                emit_factor: s.emit_factor,
                max_rate: s.max_rate_tuples_per_sec.unwrap_or(-1.0),
                is_spout: s.is_spout,
                is_sink: s.is_sink,
            })
            .collect();
        let sink_counters = (0..build.sink_counters)
            .map(|_| WindowedCounter::new(config.window_ms))
            .collect();

        let rng = StdRng::seed_from_u64(config.seed);
        let node_down = vec![false; index.cores.len()];
        let rack_down = vec![false; cluster.racks().len()];
        let replay_enabled = config.max_replays > 0;
        Self {
            config,
            build,
            cluster,
            index,
            statics,
            queue: EventQueue::new(),
            net_wake: None,
            cpus,
            egress,
            ingress,
            uplink,
            tasks,
            roots: RootSlab::new(),
            sink_counters,
            rng,
            totals: SimTotals::default(),
            latency: LatencyAccumulator::default(),
            heap_events: [0; 4],
            debug: SimDebugStats::default(),
            replay_enabled,
            live_logical: 0,
            node_down,
            rack_down,
            racks_partitioned: 0,
            node_tasks,
            link_extra_ms: 0.0,
            network,
            faults,
            stats,
            migrations,
            control,
        }
    }

    fn run(mut self) -> (SimReport, Vec<InvariantViolation>, Option<ControlLoop<'c>>) {
        for i in 0..self.statics.len() {
            if self.statics[i].is_spout {
                self.queue.schedule(0.0, FastEv::try_spout(i));
            }
        }
        for (action, &(at_ms, _)) in self.faults.iter().enumerate() {
            self.queue.schedule(at_ms, FastEv::fault(action));
        }

        // Three lanes hold the pending events: the heap, the slab's
        // timeout list and the fair plane's wake slot. Every event's
        // `(key, seq)` comes from the queue's one counter, so taking the
        // earliest of the three heads is the order a single queue would
        // pop. An empty lane reads as `NO_EVENT`, which no event's slot
        // reaches (the largest finite time's key is below `u64::MAX`).
        const NO_EVENT: (u64, u64) = (u64::MAX, u64::MAX);
        loop {
            let heap = self.queue.peek_key().unwrap_or(NO_EVENT);
            let timeout = self.roots.next_timeout().unwrap_or(NO_EVENT);
            let wake = self.net_wake.unwrap_or(NO_EVENT);
            let first = heap.min(timeout).min(wake);
            if first == NO_EVENT || f64::from_bits(first.0) > self.config.sim_time_ms {
                break;
            }
            if first == heap {
                let (_, ev) = self.queue.pop().expect("peek checked");
                self.heap_events[(ev.task_tag >> TAG_SHIFT) as usize] += 1;
                let task = (ev.task_tag & TASK_MASK) as usize;
                let batch = Batch {
                    root: ev.root,
                    tuples: ev.tuples,
                };
                match ev.task_tag & !TASK_MASK {
                    TAG_TRY_SPOUT => self.try_spout(task),
                    TAG_WORK_DONE => self.work_done(task, batch),
                    TAG_DELIVER => self.deliver(task, batch),
                    _ => self.apply_fault(task),
                }
            } else if first == timeout {
                self.queue.advance_to(first.0);
                self.debug.timeouts_fired += 1;
                self.root_timeout();
            } else {
                self.queue.advance_to(first.0);
                self.net_wake = None;
                self.debug.net_wakes += 1;
                self.net_wake();
            }
        }

        let control = self.control.take().map(|mut control| {
            let topology: &Topology = control.topology;
            control.placement = self
                .build
                .specs
                .iter()
                .filter(|s| s.topology == topology.id().as_str())
                .map(|s| self.index.node_names[s.node_idx].clone())
                .collect();
            control
        });
        let (report, violations) = self.report();
        (report, violations, control)
    }

    // ---- spout production --------------------------------------------

    fn try_spout(&mut self, i: usize) {
        if self.node_down[self.statics[i].node as usize] {
            return; // Crashed worker: the recovery event re-kicks spouts.
        }
        if self.tasks[i].busy {
            return; // WorkDone will retry.
        }
        // Replays drain first: the failed logical root still holds the
        // credit it took at first emission, so it bypasses the credit
        // gate and the pacing clock (a re-send is not a fresh arrival),
        // while fresh emits stay throttled by the shrunken window.
        if self.replay_enabled {
            if let Some((attempt, carried)) = self.tasks[i].replay_queue.pop_front() {
                self.totals.roots_replayed += 1;
                self.emit_root(i, attempt, carried);
                return;
            }
        }
        if self.tasks[i].credits == 0 {
            self.tasks[i].waiting_for_credit = true;
            return;
        }
        let now = self.queue.now();
        let spec = self.statics[i];
        // A rate-limited source paces its emissions regardless of credit
        // availability (the stream arrives at its own rate).
        if spec.max_rate >= 0.0 {
            if now + 1e-9 < self.tasks[i].next_emit_ms {
                let at = self.tasks[i].next_emit_ms;
                self.queue.schedule(at, FastEv::try_spout(i));
                return;
            }
            let interval = f64::from(self.config.batch_tuples) / spec.max_rate * 1000.0;
            let base = self.tasks[i].next_emit_ms.max(now);
            self.tasks[i].next_emit_ms = base + interval;
        }
        self.tasks[i].credits -= 1;
        if self.replay_enabled {
            self.totals.roots_emitted += 1;
            self.live_logical += 1;
        }
        self.emit_root(i, 0, 0);
    }

    /// Emits one root batch from spout `i` — attempt 0 for a fresh
    /// emission, attempt n with the carried `lost_tuples` tally for a
    /// replay. The caller has already settled admission (credit, pacing);
    /// the operation order below is the legacy `try_spout` tail, bit-for-bit.
    fn emit_root(&mut self, i: usize, attempt: u32, lost_tuples: u64) {
        let now = self.queue.now();
        let spec = self.statics[i];
        let deadline = now + self.config.tuple_timeout_ms;
        let timeout = self.queue.alloc_slot(deadline);
        let root = self.roots.insert(
            RootState {
                pending: 1,
                born: now,
                deadline,
                spout: i as u32,
                failed: false,
                lost: 0,
                attempt,
                lost_tuples,
            },
            timeout,
        );

        let batch = Batch {
            root,
            tuples: self.config.batch_tuples,
        };
        let work = f64::from(batch.tuples) * spec.work_ms_per_tuple;
        self.tasks[i].work_acc_ms += work;
        // `resume_at_ms` is 0.0 unless the task just migrated, so the
        // clamp is bit-neutral for untouched runs.
        let start = now.max(self.tasks[i].resume_at_ms);
        let done = self.cpus[spec.node as usize].serve(start, spec.cpu_slot as usize, work);
        self.tasks[i].busy = true;
        self.queue.schedule(done, FastEv::work_done(i, batch));
    }

    // ---- work completion ---------------------------------------------

    fn work_done(&mut self, i: usize, batch: Batch) {
        if self.tasks[i].drop_next_work_done {
            // The worker serving this batch died mid-service; the batch
            // is lost and nothing downstream of it ever happens. `busy`
            // guarantees exactly one WorkDone was in flight, so clearing
            // both flags fully resets the task.
            self.tasks[i].drop_next_work_done = false;
            self.tasks[i].busy = false;
            self.lose_batch(batch);
            if std::mem::take(&mut self.tasks[i].resume_after_drop) {
                self.resume_idle(i);
            }
            return;
        }
        let now = self.queue.now();
        let spec = self.statics[i];

        if spec.is_spout {
            self.totals.spout_batches += 1;
        } else {
            self.totals.tuples_processed += u64::from(batch.tuples);
            self.tasks[i].processed_acc += u64::from(batch.tuples);
        }

        if spec.is_sink {
            let alive = self
                .roots
                .get(batch.root)
                .is_some_and(|r| !r.failed && now <= r.deadline);
            if alive {
                self.totals.tuples_completed += u64::from(batch.tuples);
                debug_assert_ne!(spec.sink_ctr, NO_SINK);
                self.sink_counters[spec.sink_ctr as usize].record(now, u64::from(batch.tuples));
            }
        }

        // Emission: anchor new copies on the root *before* releasing this
        // batch's own pending slot, so the root cannot complete early.
        if spec.emit_factor > 0.0 && !self.build.consumers(i).is_empty() {
            self.tasks[i].emit_acc += spec.emit_factor;
            let n_out = self.tasks[i].emit_acc.floor() as u32;
            self.tasks[i].emit_acc -= f64::from(n_out);
            self.tasks[i].emitted_acc += u64::from(n_out) * u64::from(batch.tuples);
            for _ in 0..n_out {
                self.emit(i, batch);
            }
        }

        self.finish_pending(batch.root);

        self.tasks[i].busy = false;
        if spec.is_spout {
            let now = self.queue.now();
            self.queue.schedule(now, FastEv::try_spout(i));
        } else if let Some(next) = self.tasks[i].queue.pop_front() {
            self.start_processing(i, next);
        }
    }

    /// Restarts an idle task whose worker moved: a spout tries to emit,
    /// a bolt serves its next queued batch.
    fn resume_idle(&mut self, i: usize) {
        if self.statics[i].is_spout {
            let now = self.queue.now();
            self.queue.schedule(now, FastEv::try_spout(i));
        } else if let Some(next) = self.tasks[i].queue.pop_front() {
            self.start_processing(i, next);
        }
    }

    fn start_processing(&mut self, i: usize, batch: Batch) {
        let now = self.queue.now();
        let spec = self.statics[i];
        let work = f64::from(batch.tuples) * spec.work_ms_per_tuple;
        self.tasks[i].work_acc_ms += work;
        // Bit-neutral unless the task just migrated (see `try_spout`).
        let start = now.max(self.tasks[i].resume_at_ms);
        let done = self.cpus[spec.node as usize].serve(start, spec.cpu_slot as usize, work);
        self.tasks[i].busy = true;
        self.queue.schedule(done, FastEv::work_done(i, batch));
    }

    // ---- routing -------------------------------------------------------

    fn emit(&mut self, from: usize, batch: Batch) {
        for g in 0..self.build.consumers(from).len() {
            let pool = self.build.candidates(from, g);
            if self.build.consumers(from)[g].fans_out() {
                for k in 0..pool.len() {
                    self.transfer(from, self.build.candidates(from, g)[k], batch);
                }
            } else {
                let to = pool[self.rng.gen_range(0..pool.len())];
                self.transfer(from, to, batch);
            }
        }
    }

    fn transfer(&mut self, from: usize, to: usize, batch: Batch) {
        let now = self.queue.now();
        let spec = self.statics[from];
        let bytes = spec.tuple_bytes.saturating_mul(batch.tuples);
        let dst = self.statics[to];
        let (kind, latency_ms) = self
            .index
            .link((spec.node, spec.port), (dst.node, dst.port));

        // An active rack partition severs new inter-rack sends touching
        // the partitioned rack *before* any link server is consulted:
        // the dropped transfer consumes no egress/uplink/ingress
        // capacity, exactly as if the consumer's node had crashed. The
        // guard is a single integer compare when no partition is active,
        // keeping partition-free runs bit-identical.
        if self.racks_partitioned > 0 && kind == LinkKind::InterRack {
            let src_rack = self.index.rack_of_node[spec.node as usize];
            let dst_rack = self.index.rack_of_node[dst.node as usize];
            if self.rack_down[src_rack] || self.rack_down[dst_rack] {
                // Mirror the crashed-consumer path: the batch takes its
                // pending slot (as every transfer does) and is then lost,
                // so the tuple tree fails through the ordinary timeout.
                if let Some(root) = self.roots.get_mut(batch.root) {
                    root.pending += 1;
                }
                self.lose_batch(batch);
                return;
            }
        }

        // The fair-share plane (opt-in) turns every non-local transfer
        // into a flow that shares link capacity max-min fairly with all
        // concurrent flows; delivery is scheduled when the plane hands
        // the serialized batch back. Under the plane a degradation
        // shapes *capacity*, so `link_extra_ms` is not added here.
        if self.network.is_some() && kind != LinkKind::Local {
            let src_node = spec.node as usize;
            let dst_node = dst.node as usize;
            let src_rack = self.index.rack_of_node[src_node];
            let dst_rack = self.index.rack_of_node[dst_node];
            if let Some(root) = self.roots.get_mut(batch.root) {
                root.pending += 1;
            }
            let net = self.network.as_mut().expect("checked above");
            net.admit(
                now,
                src_node,
                dst_node,
                src_rack,
                dst_rack,
                kind == LinkKind::InterRack,
                f64::from(bytes),
                latency_ms,
                to as u32,
                batch.root,
                batch.tuples,
            );
            self.finish_net_transition();
            return;
        }

        // `link_extra_ms` is 0.0 outside degradation windows; adding it
        // is then bit-neutral, preserving fault-free reference parity.
        let arrival = match kind {
            LinkKind::Local => now + latency_ms,
            LinkKind::SameRack => {
                let t1 = self.egress[spec.node as usize].serve(now, bytes);
                let t2 = self.ingress[dst.node as usize].serve(t1, bytes);
                t2 + latency_ms + self.link_extra_ms
            }
            LinkKind::InterRack => {
                let t1 = self.egress[spec.node as usize].serve(now, bytes);
                let t2 = self.uplink.serve(t1, bytes);
                let t3 = self.ingress[dst.node as usize].serve(t2, bytes);
                t3 + latency_ms + self.link_extra_ms
            }
        };

        if let Some(root) = self.roots.get_mut(batch.root) {
            root.pending += 1;
        }
        self.queue.schedule(arrival, FastEv::deliver(to, batch));
    }

    // ---- fair-share network plane ---------------------------------------

    /// Handles the fair plane's wake-up: advance every flow to now,
    /// deliver the completed ones and re-arm.
    fn net_wake(&mut self) {
        let now = self.queue.now();
        let net = self.network.as_mut().expect("only a plane arms a wake");
        net.advance(now);
        self.finish_net_transition();
    }

    /// The tail of every fair-plane transition: drain the plane's
    /// completed buffer into one delivery per flow (serialization
    /// finished at the transition instant; propagation latency is added
    /// on top) and move the single wake-up to the new earliest
    /// completion time, or clear it when no flow can complete.
    fn finish_net_transition(&mut self) {
        let now = self.queue.now();
        let net = self.network.as_mut().expect("transition implies a plane");
        for f in net.drain_completed() {
            self.queue.schedule(
                now + f.latency_ms,
                FastEv::deliver(
                    f.to_task as usize,
                    Batch {
                        root: f.root,
                        tuples: f.tuples,
                    },
                ),
            );
        }
        let next = net.next_completion();
        if let Some((key, _)) = self.net_wake {
            if f64::from_bits(key) <= self.config.sim_time_ms {
                self.debug.wakes_superseded += 1;
            }
        }
        self.net_wake = next.map(|at| self.queue.alloc_slot(at));
    }

    // ---- delivery ------------------------------------------------------

    fn deliver(&mut self, i: usize, batch: Batch) {
        self.totals.batches_delivered += 1;
        // Shed batches whose root already timed out: the real system's
        // queues would be drained of them by the replay mechanism, and
        // processing them would let queues grow without bound.
        let stale = self.roots.get(batch.root).is_none_or(|r| r.failed);
        if stale {
            self.totals.batches_dropped += 1;
            self.finish_pending(batch.root);
            return;
        }
        if self.node_down[self.statics[i].node as usize] {
            // Arrived at a crashed worker: the batch is lost and its
            // root will fail through the timeout path.
            self.lose_batch(batch);
            return;
        }
        if self.tasks[i].busy {
            self.tasks[i].queue.push_back(batch);
        } else {
            self.start_processing(i, batch);
        }
    }

    // ---- root lifecycle -------------------------------------------------

    /// Releases one pending slot of `root`, completing it if this was the
    /// last one.
    fn finish_pending(&mut self, root: u64) {
        let Some(state) = self.roots.get_mut(root) else {
            return;
        };
        state.pending -= 1;
        if state.pending > 0 {
            return;
        }
        let failed = state.failed;
        let spout = state.spout as usize;
        let born = state.born;
        let deadline = state.deadline;
        self.roots.remove(root);
        if !failed {
            if deadline <= self.config.sim_time_ms {
                self.debug.timeouts_retired += 1;
            }
            self.totals.roots_completed += 1;
            self.latency.record(self.queue.now() - born);
            if self.replay_enabled {
                // The logical root settles as acked. Any `lost_tuples`
                // carried from prior attempts die here uncharged: the
                // replay retransmitted that data, so nothing was lost
                // (an attempt with its own crash-lost batch can never
                // ack — only a later attempt can).
                self.live_logical -= 1;
            }
            self.return_credit(spout);
        }
    }

    /// Fails the root whose tuple timeout is the earliest pending one.
    fn root_timeout(&mut self) {
        let (root, state) = self.roots.fire_timeout();
        let spout = state.spout as usize;
        let attempt = state.attempt;
        let carried = state.lost_tuples;
        // Pending slots held by crash-lost batches can never be released
        // by processing (the batches no longer exist); the timeout drains
        // them so the slab slot is reclaimed. A live root always has
        // `pending >= 1`, and `pending` only reaches zero here when every
        // outstanding descendant was lost.
        state.pending -= state.lost;
        state.lost = 0;
        let fully_drained = state.pending == 0;
        if fully_drained {
            self.roots.remove(root);
        }
        self.totals.roots_timed_out += 1;
        if !self.replay_enabled {
            // Legacy at-most-once mode: the tuple is dropped and the
            // credit returns to the spout even though stale descendants
            // may still be in flight.
            self.return_credit(spout);
            return;
        }
        if attempt < self.config.max_replays {
            // At-least-once: queue the root on its spout's replay buffer.
            // The credit is NOT returned — the logical root keeps the one
            // it took at first emission until it acks or quarantines, so
            // replay pressure flows through the `max_spout_pending`
            // window instead of amplifying the emit rate.
            self.tasks[spout]
                .replay_queue
                .push_back((attempt + 1, carried));
            let now = self.queue.now();
            // Safe no-op if the spout is busy or its node is down; the
            // spout's WorkDone / node recovery re-kick it then.
            self.queue.schedule(now, FastEv::try_spout(spout));
        } else {
            // Retry budget exhausted: quarantine the poison tuple. Only
            // now do the crash-destroyed tuples of every attempt count as
            // lost — no replay will retransmit them. The planted-bug hook
            // (fuzzer self-test only, absent from a default build) skips
            // the settled-roots increment, breaking the drain invariant on
            // the first quarantine.
            #[cfg(any(test, feature = "oracle"))]
            let planted = self.config.planted_quarantine_bug;
            #[cfg(not(any(test, feature = "oracle")))]
            let planted = false;
            if !planted {
                self.totals.roots_quarantined += 1;
            }
            self.totals.tuples_quarantined += u64::from(self.config.batch_tuples);
            self.totals.tuples_lost += carried;
            self.live_logical -= 1;
            self.return_credit(spout);
        }
    }

    fn return_credit(&mut self, spout: usize) {
        self.tasks[spout].credits += 1;
        if self.tasks[spout].waiting_for_credit {
            self.tasks[spout].waiting_for_credit = false;
            let now = self.queue.now();
            self.queue.schedule(now, FastEv::try_spout(spout));
        }
    }

    // ---- fault injection ------------------------------------------------

    fn apply_fault(&mut self, action: usize) {
        match self.faults[action].1 {
            FaultAction::Crash(node) => self.crash_node(node as usize),
            FaultAction::Recover(node) => self.recover_node(node as usize),
            FaultAction::SetLinkExtra(extra_ms) => {
                self.link_extra_ms = extra_ms;
                // Under the fair plane the same knob degrades *capacity*
                // (a transition: flows slow down mid-transfer) instead of
                // adding per-transfer latency.
                if self.network.is_some() {
                    let now = self.queue.now();
                    self.network
                        .as_mut()
                        .expect("checked above")
                        .set_degrade(now, extra_ms);
                    self.finish_net_transition();
                }
            }
            FaultAction::PartitionRack(rack) => self.partition_rack(rack as usize),
            FaultAction::HealRack(rack) => self.heal_rack(rack as usize),
            FaultAction::StatsTick => self.stats_tick(),
            FaultAction::Migrate(m) => {
                let migration = std::mem::take(&mut self.migrations[m as usize]);
                self.apply_moves(&migration.moves, migration.pause_ms);
            }
            FaultAction::ControlTick => self.control_tick(action),
            FaultAction::NimbusWindow(delta) => {
                self.control.as_mut().expect(ATTACHED).nimbus_open += delta;
            }
            FaultAction::LossWindow(delta) => {
                self.control.as_mut().expect(ATTACHED).loss_open += delta;
            }
        }
    }

    /// One heartbeat tick of the attached control loop. A node is silent
    /// while it is down or its rack is partitioned (heartbeats cross
    /// racks to reach Nimbus). A reschedule moves every task whose node
    /// changed at once (pause 0); tasks it leaves unplaced stay put.
    fn control_tick(&mut self, action: usize) {
        let mut control = self.control.take().expect(ATTACHED);
        let now = self.queue.now();
        let topology: &Topology = control.topology;
        let (down, racks, rack_of) = (&self.node_down, &self.rack_down, &self.index.rack_of_node);
        let placed = control
            .tick(now, |k| down[k] || racks[rack_of[k]])
            .map(|a| {
                let moves = a.iter().map(|(task, slot)| (task.index() as u32, slot));
                resolve_moves(&self.build, &self.index, topology.id().as_str(), moves)
            });
        if let Some(moves) = placed {
            self.apply_moves(&moves, 0.0);
        }
        let next = now + control.recovery.heartbeat_interval_ms;
        if next <= self.config.sim_time_ms {
            self.queue.schedule(next, FastEv::fault(action));
        }
        self.control = Some(control);
    }

    /// Flushes the write-only per-task accumulators into the statistic
    /// server as window deltas and re-arms the next tick. Reads never
    /// feed back into the simulation, so an exporting run stays
    /// bit-identical to a plain one.
    fn stats_tick(&mut self) {
        let Some(mut stats) = self.stats.take() else {
            return;
        };
        let now = self.queue.now();
        // Attribute the delta to the middle of the elapsed interval so
        // the windowed counters bucket it where the work happened.
        let at_ms = now - 0.5 * stats.interval_ms;
        for i in 0..self.statics.len() {
            let spec = &self.build.specs[i];
            let rt = &self.tasks[i];
            let busy_delta = rt.work_acc_ms - stats.last_work_ms[i];
            if busy_delta > 0.0 {
                stats.server.record_busy_us(
                    &spec.topology,
                    &spec.component,
                    at_ms,
                    (busy_delta * 1000.0).round() as u64,
                );
                stats.last_work_ms[i] = rt.work_acc_ms;
            }
            let processed_delta = rt.processed_acc - stats.last_processed[i];
            if processed_delta > 0 {
                stats.server.record_processed(
                    &spec.topology,
                    &spec.component,
                    at_ms,
                    processed_delta,
                );
                stats.last_processed[i] = rt.processed_acc;
            }
            let emitted_delta = rt.emitted_acc - stats.last_emitted[i];
            if emitted_delta > 0 {
                stats
                    .server
                    .record_emitted(&spec.topology, &spec.component, at_ms, emitted_delta);
                stats.last_emitted[i] = rt.emitted_acc;
            }
        }
        let next = now + stats.interval_ms;
        if next <= self.config.sim_time_ms {
            self.queue.schedule(next, FastEv::fault(stats.action));
        }
        self.stats = Some(stats);
    }

    /// Executes migration moves: each moved task's CPU slot deactivates
    /// on its old node (in-flight work completes there — `work_done`
    /// never consults the node), its queued batches carry over, and the
    /// task cold-starts on the destination once its pause window ends
    /// (`resume_at_ms` clamps the next service start). Memory demand and
    /// thrash follow the task. Routing needs only the new placement,
    /// since each transfer derives its link from it, plus refreshed
    /// local-or-shuffle pools. A move within a node is a no-op.
    ///
    /// Moves may touch down nodes (the control loop re-places before
    /// every crash is declared). A task landing on a down node is killed
    /// as [`Self::crash_node`] kills its tasks. A task leaving a down
    /// node starts idle on its destination: a spout is re-kicked, and a
    /// task whose dead worker still owes a dropped `WorkDone` resumes
    /// once that batch is lost.
    fn apply_moves(&mut self, moves: &[(usize, usize, WorkerSlot)], pause_ms: f64) {
        let now = self.queue.now();
        for &(task, dest, ref slot) in moves {
            let old = self.statics[task].node as usize;
            if old == dest {
                continue;
            }
            self.cpus[old].deactivate(self.statics[task].cpu_slot as usize);
            let new_local = self.cpus[dest].add_task(task);
            let pos = self.node_tasks[old]
                .binary_search(&task)
                .expect("a migrating task lives on its source node");
            // The membership lists stay sorted by global task id (the
            // build appends in id order), so crash/recover can iterate
            // them directly without re-sorting a clone.
            self.node_tasks[old].remove(pos);
            let ins = self.node_tasks[dest]
                .binary_search(&task)
                .expect_err("a migrating task cannot already live on its destination");
            self.node_tasks[dest].insert(ins, task);
            let mem = self.build.specs[task].memory_mb;
            self.build.node_mem_demand[old] -= mem;
            self.build.node_mem_demand[dest] += mem;
            let spec = &mut self.build.specs[task];
            spec.node_idx = dest;
            spec.rack_idx = self.index.rack_of_node[dest];
            spec.slot = slot.clone();
            self.statics[task].node = dest as u32;
            self.statics[task].port = slot.port;
            self.statics[task].cpu_slot = new_local;
            self.tasks[task].resume_at_ms = now + pause_ms;
            self.refresh_thrash(old);
            self.refresh_thrash(dest);
            if self.node_down[dest] {
                self.kill_task(task);
            } else if self.node_down[old] {
                if self.tasks[task].busy {
                    self.tasks[task].resume_after_drop = true;
                } else {
                    self.resume_idle(task);
                }
            }
        }
        self.build.refresh_los_pools();
    }

    /// Recomputes a node's thrash factor after memory demand changed,
    /// mirroring the build-time rule.
    fn refresh_thrash(&mut self, node: usize) {
        let demand = self.build.node_mem_demand[node];
        let capacity = self.index.memory_mb[node];
        let thrash = if demand > capacity && self.config.oom_thrash_factor < 1.0 {
            self.config.oom_thrash_factor
        } else {
            1.0
        };
        self.cpus[node].set_thrash(thrash);
    }

    /// Kills every worker on `node`: queued and in-service batches are
    /// lost, spouts go dormant, future deliveries are lost on arrival
    /// (see [`Self::deliver`]). Idempotent.
    fn crash_node(&mut self, node: usize) {
        if self.node_down[node] {
            return;
        }
        self.node_down[node] = true;
        // `node_tasks` is kept sorted by global task id (`apply_moves`
        // inserts in order), so iterating it directly drains in a
        // migration-independent order — no clone-and-sort on the hot path.
        for k in 0..self.node_tasks[node].len() {
            self.kill_task(self.node_tasks[node][k]);
        }
    }

    /// Kills task `i`'s worker: its queued batches are lost, and a batch
    /// in service is dropped when its `WorkDone` fires.
    fn kill_task(&mut self, i: usize) {
        while let Some(batch) = self.tasks[i].queue.pop_front() {
            self.lose_batch(batch);
        }
        if self.tasks[i].busy {
            self.tasks[i].drop_next_work_done = true;
        }
    }

    /// Brings `node` back: deliveries succeed again and dormant spouts
    /// are re-kicked (a spout that still has credit resumes immediately;
    /// `try_spout` re-checks `busy`/credits, so the kick is always safe).
    /// Idempotent.
    fn recover_node(&mut self, node: usize) {
        if !self.node_down[node] {
            return;
        }
        self.node_down[node] = false;
        let now = self.queue.now();
        // Sorted membership (see `crash_node`) keeps spout re-kicks in a
        // migration-independent enqueue order.
        for k in 0..self.node_tasks[node].len() {
            let i = self.node_tasks[node][k];
            if self.statics[i].is_spout {
                self.queue.schedule(now, FastEv::try_spout(i));
            }
        }
    }

    /// Starts a partition window on `rack`: from now until the matching
    /// [`Self::heal_rack`], inter-rack transfers whose producer or
    /// consumer lives on this rack are dropped at send time (see
    /// [`Self::transfer`]). Workers keep running and intra-rack/local
    /// traffic is unaffected; transfers already in flight still arrive —
    /// the uplink queue drains, new sends are severed. Idempotent.
    fn partition_rack(&mut self, rack: usize) {
        if self.rack_down[rack] {
            return;
        }
        self.rack_down[rack] = true;
        self.racks_partitioned += 1;
        // Under the fair plane the partition also cuts the rack's trunks
        // *mid-transfer*: in-flight flows crossing them are severed and
        // their batches lost (each already holds its root's pending slot
        // from admission, so the tree fails through the timeout path,
        // exactly like the legacy send-time drop).
        if self.network.is_some() {
            let now = self.queue.now();
            let severed = self
                .network
                .as_mut()
                .expect("checked above")
                .sever_rack(now, rack);
            for f in severed {
                self.lose_batch(Batch {
                    root: f.root,
                    tuples: f.tuples,
                });
            }
            self.finish_net_transition();
        }
    }

    /// Ends the partition window on `rack`. Idempotent.
    fn heal_rack(&mut self, rack: usize) {
        if !self.rack_down[rack] {
            return;
        }
        self.rack_down[rack] = false;
        self.racks_partitioned -= 1;
    }

    /// Accounts for a batch destroyed by a crash. A live root keeps the
    /// batch's pending slot occupied but remembers it as `lost`, so the
    /// tuple tree fails through the ordinary timeout path and the slot is
    /// drained there (see [`Self::root_timeout`]). Stale batches behave
    /// exactly as in [`Self::deliver`].
    fn lose_batch(&mut self, batch: Batch) {
        match self.roots.get_mut(batch.root) {
            Some(root) if !root.failed => {
                root.lost += 1;
                if self.replay_enabled {
                    // Defer the loss to the root's settlement: a replayed
                    // -then-acked root retransmitted this data, so
                    // charging `tuples_lost` here would double-count it
                    // as both lost and processed. Quarantine charges it.
                    root.lost_tuples += u64::from(batch.tuples);
                } else {
                    self.totals.tuples_lost += u64::from(batch.tuples);
                }
            }
            _ => {
                self.totals.batches_dropped += 1;
                self.finish_pending(batch.root);
            }
        }
    }

    // ---- reporting ------------------------------------------------------

    fn report(mut self) -> (SimReport, Vec<InvariantViolation>) {
        let mut violations = Vec::new();
        if self.replay_enabled {
            self.totals.roots_in_flight = self.live_logical;
            // The accounting identities, evaluated on every run and
            // surfaced as typed violations.
            let queued: u64 = self.tasks.iter().map(|t| t.replay_queue.len() as u64).sum();
            let slab_live = self.roots.unfailed_live();
            if self.live_logical != slab_live + queued {
                violations.push(InvariantViolation::LedgerMismatch {
                    live_logical: self.live_logical,
                    slab_live,
                    replay_queued: queued,
                });
            }
            let settled = self
                .totals
                .roots_completed
                .checked_add(self.totals.roots_quarantined)
                .and_then(|s| s.checked_add(self.live_logical));
            if settled != Some(self.totals.roots_emitted) {
                violations.push(InvariantViolation::DrainImbalance {
                    emitted: self.totals.roots_emitted,
                    completed: self.totals.roots_completed,
                    quarantined: self.totals.roots_quarantined,
                    in_flight: self.live_logical,
                });
            }
        }
        let elapsed = self.config.sim_time_ms;
        let mut tracker = CpuUtilizationTracker::new();
        for (i, cpu) in self.cpus.iter().enumerate() {
            tracker.register_node(self.index.node_names[i].clone(), cpu.cores());
            if cpu.busy_core_ms() > 0.0 {
                // Work committed past the horizon is clamped so that
                // utilization stays within physical capacity.
                let capacity = cpu.cores() * cpu.thrash() * elapsed;
                tracker.add_busy(&self.index.node_names[i], cpu.busy_core_ms().min(capacity));
            }
        }

        // Used-node counts from dense ids; the String keys of the report
        // maps are attached only here, at the boundary.
        let topo_count = self.build.topo_names.len();
        let node_count = self.index.node_names.len();
        let mut seen = vec![false; topo_count * node_count];
        let mut used_counts = vec![0usize; topo_count];
        for s in &self.build.specs {
            let cell = s.topo_id as usize * node_count + s.node_idx;
            if !seen[cell] {
                seen[cell] = true;
                used_counts[s.topo_id as usize] += 1;
            }
        }

        // Per-topology throughput from the dense sink counters. The float
        // arithmetic replicates `StatisticServer::topology_throughput`
        // exactly: sinks are summed in sorted-component-name order (the
        // interning order), then averaged.
        let num_windows = (elapsed / self.config.window_ms).floor() as usize;
        let mut throughput = std::collections::BTreeMap::new();
        let mut used_by_topology = std::collections::BTreeMap::new();
        for (tid, name) in self.build.topo_names.iter().enumerate() {
            let sinks = &self.build.sink_ctrs_by_topo[tid];
            let mut windows = vec![0.0f64; num_windows];
            if !sinks.is_empty() {
                for &ctr in sinks {
                    let counts = self.sink_counters[ctr as usize].complete_window_counts(elapsed);
                    for (w, c) in windows.iter_mut().zip(counts) {
                        *w += c as f64;
                    }
                }
                let n = sinks.len() as f64;
                for w in &mut windows {
                    *w /= n;
                }
            }
            throughput.insert(
                name.clone(),
                ThroughputReport {
                    window_ms: self.config.window_ms,
                    windows,
                },
            );
            used_by_topology.insert(name.clone(), used_counts[tid]);
        }

        let node_utilization = tracker.used_node_utilizations(elapsed);
        // Under the fair plane, inter-rack traffic is what the per-rack
        // uplink trunks carried; the legacy path keeps its single global
        // uplink counter. Link names are attached only here, at the
        // boundary — the plane itself knows only dense ids.
        let (inter_rack_mb, network) = match &self.network {
            Some(net) => {
                let links = net
                    .link_stats(elapsed)
                    .into_iter()
                    .map(|l| LinkUtilization {
                        link: match l.class {
                            LinkClass::Egress => {
                                format!("{}.egress", self.index.node_names[l.owner])
                            }
                            LinkClass::Ingress => {
                                format!("{}.ingress", self.index.node_names[l.owner])
                            }
                            LinkClass::Uplink => {
                                format!("{}.uplink", self.cluster.racks()[l.owner].as_str())
                            }
                            LinkClass::Downlink => {
                                format!("{}.downlink", self.cluster.racks()[l.owner].as_str())
                            }
                            LinkClass::Core => "core".to_owned(),
                        },
                        capacity_mbps: l.capacity_mbps,
                        mean_utilization: l.mean_utilization,
                        saturated_windows: l.saturated_windows,
                        mb_carried: l.carried_bytes / 1e6,
                    })
                    .collect();
                (
                    net.uplink_bytes() / 1e6,
                    Some(NetworkObservations { links }),
                )
            }
            None => (self.uplink.served_bytes() / 1e6, None),
        };
        let fill = self
            .network
            .as_ref()
            .map(FairNetwork::counters)
            .unwrap_or_default();
        let report = SimReport {
            duration_ms: elapsed,
            window_ms: self.config.window_ms,
            throughput,
            mean_used_cpu_utilization: tracker.mean_used_utilization(elapsed),
            used_nodes: tracker.used_node_count(),
            used_nodes_by_topology: used_by_topology,
            node_utilization,
            inter_rack_mb,
            latency_ms: self.latency.summary(),
            totals: self.totals,
            recovery: None,
            network,
            debug: SimDebugStats {
                root_pool_hits: self.roots.pool_hits,
                root_pool_misses: self.roots.pool_misses,
                max_live_roots: self.roots.max_live,
                route_entries: self.build.route_entries() as u64,
                cpu_serves: self.cpus.iter().map(DenseCpuServer::serves).sum(),
                cpu_fair_scans: self.cpus.iter().map(DenseCpuServer::fair_scans).sum(),
                net_transitions: fill.transitions,
                net_fill_flows: fill.flows,
                net_fill_rounds: fill.rounds,
                net_links_scanned: fill.links_scanned,
                events: self.heap_events.iter().sum::<u64>()
                    + self.debug.timeouts_fired
                    + self.debug.net_wakes,
                spout_events: self.heap_events[(TAG_TRY_SPOUT >> TAG_SHIFT) as usize],
                work_done_events: self.heap_events[(TAG_WORK_DONE >> TAG_SHIFT) as usize],
                deliver_events: self.heap_events[(TAG_DELIVER >> TAG_SHIFT) as usize],
                fault_events: self.heap_events[(TAG_FAULT >> TAG_SHIFT) as usize],
                ..self.debug
            },
        };
        violations.extend(report.sanity_violations());
        (report, violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstorm_cluster::{ClusterBuilder, ResourceCapacity};
    use rstorm_core::schedulers::EvenScheduler;
    use rstorm_core::{schedule_all, GlobalState, RStormScheduler, Scheduler};
    use rstorm_topology::{ExecutionProfile, StreamGrouping, TopologyBuilder};

    fn emulab(racks: u32, nodes: u32) -> Cluster {
        ClusterBuilder::new()
            .homogeneous_racks(racks, nodes, ResourceCapacity::emulab_node(), 4)
            .build()
            .unwrap()
    }

    fn linear_topology(
        name: &str,
        parallelism: u32,
        profile: ExecutionProfile,
        cpu: f64,
        mem: f64,
    ) -> Topology {
        let mut b = TopologyBuilder::new(name);
        b.set_spout("c0", parallelism)
            .set_profile(profile)
            .set_cpu_load(cpu)
            .set_memory_load(mem);
        for i in 1..4 {
            let p = if i == 3 { profile.into_sink() } else { profile };
            b.set_bolt(format!("c{i}"), parallelism)
                .shuffle_grouping(format!("c{}", i - 1))
                .set_profile(p)
                .set_cpu_load(cpu)
                .set_memory_load(mem);
        }
        b.build().unwrap()
    }

    fn run_with<S: Scheduler>(
        scheduler: &S,
        topology: &Topology,
        cluster: &Cluster,
        config: SimConfig,
    ) -> SimReport {
        let mut state = GlobalState::new(cluster);
        let assignment = scheduler.schedule(topology, cluster, &mut state).unwrap();
        let mut sim = Simulation::new(cluster.clone(), config);
        sim.add_topology(topology, &assignment);
        sim.run()
    }

    #[test]
    fn tuples_flow_end_to_end() {
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::new(0.1, 1.0, 100), 20.0, 128.0);
        let report = run_with(&RStormScheduler::new(), &t, &cluster, SimConfig::quick());
        let thr = &report.throughput["t"];
        assert!(
            thr.steady_state(1).mean > 0.0,
            "sink saw tuples: {:?}",
            thr.windows
        );
        assert!(report.totals.spout_batches > 0);
        assert!(report.totals.roots_completed > 0);
        assert!(report.totals.tuples_completed > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::new(0.1, 1.0, 100), 20.0, 128.0);
        let r1 = run_with(&RStormScheduler::new(), &t, &cluster, SimConfig::quick());
        let r2 = run_with(&RStormScheduler::new(), &t, &cluster, SimConfig::quick());
        assert_eq!(r1.throughput["t"].windows, r2.throughput["t"].windows);
        assert_eq!(r1.totals, r2.totals);
    }

    #[test]
    fn conservation_invariants() {
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::new(0.2, 1.0, 200), 20.0, 128.0);
        let report = run_with(&RStormScheduler::new(), &t, &cluster, SimConfig::quick());
        let totals = &report.totals;
        assert!(totals.roots_completed + totals.roots_timed_out <= totals.spout_batches);
        assert!(totals.tuples_completed <= totals.tuples_processed);
        assert!(totals.batches_dropped <= totals.batches_delivered);
    }

    #[test]
    fn debug_stats_show_pool_reuse_and_routing() {
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::new(0.1, 1.0, 100), 20.0, 128.0);
        let report = run_with(&RStormScheduler::new(), &t, &cluster, SimConfig::quick());
        let d = &report.debug;
        assert!(d.events > 0, "events counted");
        assert!(d.route_entries > 0, "subscription targets stored");
        // Root slots recycle: far more roots complete than the slab ever
        // holds at once, so the pool must be hit.
        assert!(
            d.root_pool_hits > 0,
            "root pool reused: {:?} (completed {})",
            d,
            report.totals.roots_completed
        );
        assert!(
            d.root_pool_misses <= d.max_live_roots,
            "slab only grows to the in-flight high-water mark: {d:?}"
        );
        // Roots are allocated at emission; a few may still be in flight
        // when the horizon cuts the run off.
        assert!(
            d.root_pool_hits + d.root_pool_misses >= report.totals.spout_batches,
            "every spout batch allocates a root: {:?} vs {}",
            d,
            report.totals.spout_batches
        );
        // Every batch start is one CPU serve. These spouts run flat out,
        // so on the nodes hosting them the exp-free demand bound exceeds
        // the cores and most serves fall through to the max-min scan.
        assert_eq!((d.cpu_serves, d.cpu_fair_scans), (99_127, 59_712));
        // Paced at 1,000 tuples/s per spout, every node stays well under
        // its cores and the bound certifies every serve: no scan runs.
        let paced = linear_topology(
            "t",
            2,
            ExecutionProfile::new(0.1, 1.0, 100).with_max_rate(1_000.0),
            20.0,
            128.0,
        );
        let paced = run_with(
            &RStormScheduler::new(),
            &paced,
            &cluster,
            SimConfig::quick(),
        );
        assert_eq!(paced.totals.roots_completed, 12_000);
        assert_eq!(
            (paced.debug.cpu_serves, paced.debug.cpu_fair_scans),
            (48_002, 0)
        );
    }

    #[test]
    fn backpressure_bounds_inflight_roots() {
        // A tiny, heavily CPU-bound sink limits end-to-end throughput;
        // max_pending must keep spout emission in check rather than let
        // it run at CPU speed.
        let cluster = emulab(1, 2);
        let mut b = TopologyBuilder::new("bp");
        b.set_spout("fast", 1)
            .set_profile(ExecutionProfile::new(0.01, 1.0, 100))
            .set_memory_load(64.0);
        b.set_bolt("slow-sink", 1)
            .shuffle_grouping("fast")
            .set_profile(ExecutionProfile::new(5.0, 0.0, 100))
            .set_memory_load(64.0);
        let t = b.build().unwrap();
        let mut config = SimConfig::quick();
        config.max_pending = 10;
        config.tuple_timeout_ms = 1e9; // no timeouts: pure backpressure
        let report = run_with(&RStormScheduler::new(), &t, &cluster, config);
        // The spout can only ever be max_pending roots ahead of the sink.
        assert!(
            report.totals.spout_batches <= report.totals.roots_completed + 10,
            "spout {} vs completed {}",
            report.totals.spout_batches,
            report.totals.roots_completed
        );
        assert!(
            report.debug.max_live_roots <= 10 + 1,
            "slab high-water mark tracks max_pending: {:?}",
            report.debug
        );
    }

    #[test]
    fn overload_causes_timeouts() {
        // One single-core node, CPU demand far beyond capacity, short
        // timeout: roots must start failing.
        let cluster = ClusterBuilder::new()
            .add_node("only", "r0", ResourceCapacity::emulab_node(), 4)
            .build()
            .unwrap();
        let mut b = TopologyBuilder::new("ovl");
        b.set_spout("s", 4)
            .set_profile(ExecutionProfile::new(1.0, 1.0, 100))
            .set_memory_load(64.0);
        b.set_bolt("heavy", 4)
            .shuffle_grouping("s")
            .set_profile(ExecutionProfile::new(50.0, 0.0, 100))
            .set_memory_load(64.0);
        let t = b.build().unwrap();
        let mut config = SimConfig::quick();
        config.tuple_timeout_ms = 2_000.0;
        let report = run_with(&EvenScheduler::new(), &t, &cluster, config);
        assert!(
            report.totals.roots_timed_out > 0,
            "expected timeouts under overload: {:?}",
            report.totals
        );
        // Eight tasks on one over-committed node: nearly every batch
        // start falls through the under-commit bound to the max-min scan.
        assert_eq!(
            (report.debug.cpu_serves, report.debug.cpu_fair_scans),
            (3_797, 3_782)
        );
    }

    #[test]
    fn memory_overcommit_thrashes_node() {
        // 10 × 512 MB on a 2048 MB node → thrash; same workload on a big
        // node → healthy. The thrashing run must complete far fewer roots.
        let small = ClusterBuilder::new()
            .add_node("n", "r0", ResourceCapacity::new(400.0, 2048.0, 100.0), 4)
            .build()
            .unwrap();
        let big = ClusterBuilder::new()
            .add_node("n", "r0", ResourceCapacity::new(400.0, 65536.0, 100.0), 4)
            .build()
            .unwrap();
        let mut b = TopologyBuilder::new("mem");
        b.set_spout("s", 5)
            .set_profile(ExecutionProfile::new(0.5, 1.0, 100))
            .set_memory_load(512.0);
        b.set_bolt("k", 5)
            .shuffle_grouping("s")
            .set_profile(ExecutionProfile::new(0.5, 0.0, 100))
            .set_memory_load(512.0);
        let t = b.build().unwrap();
        let thrashed = run_with(&EvenScheduler::new(), &t, &small, SimConfig::quick());
        let healthy = run_with(&EvenScheduler::new(), &t, &big, SimConfig::quick());
        assert!(
            healthy.totals.roots_completed > 3 * thrashed.totals.roots_completed,
            "healthy {} vs thrashed {}",
            healthy.totals.roots_completed,
            thrashed.totals.roots_completed
        );
    }

    #[test]
    fn colocation_beats_spreading_for_network_bound_work() {
        // The core network-bound claim (Fig 8): with trivial per-tuple
        // work and fat tuples, R-Storm's colocated placement outperforms
        // the round-robin spread.
        let cluster = emulab(2, 6);
        let t = linear_topology("net", 6, ExecutionProfile::network_bound(400), 15.0, 128.0);
        // In-flight-limited regime (Fig 8 in `rstorm_workloads::figures`):
        // placement quality shows up as end-to-end latency.
        let mut config = SimConfig::quick();
        config.max_pending = 4;
        let rstorm = run_with(&RStormScheduler::new(), &t, &cluster, config.clone());
        let even = run_with(&EvenScheduler::new(), &t, &cluster, config);
        let r = rstorm.throughput["net"].steady_state(2).mean;
        let e = even.throughput["net"].steady_state(2).mean;
        assert!(
            r > e * 1.2,
            "R-Storm {r:.0} should clearly beat default {e:.0}"
        );
    }

    #[test]
    fn all_grouping_replicates_to_every_task() {
        // spout → bolt(all, p=3): every batch is processed three times.
        let cluster = emulab(1, 2);
        let mut b = TopologyBuilder::new("rep");
        b.set_spout("s", 1)
            .set_profile(ExecutionProfile::new(0.1, 1.0, 100))
            .set_memory_load(64.0);
        b.set_bolt("k", 3)
            .all_grouping("s")
            .set_profile(ExecutionProfile::new(0.05, 0.0, 100))
            .set_memory_load(64.0);
        let t = b.build().unwrap();
        let report = run_with(&RStormScheduler::new(), &t, &cluster, SimConfig::quick());
        let emitted = report.totals.spout_batches * 10; // 10 tuples/batch
        let processed = report.totals.tuples_processed;
        let ratio = processed as f64 / emitted as f64;
        assert!(
            (2.5..=3.0).contains(&ratio),
            "all-grouping fan-out should be ~3×, got {ratio:.2}"
        );
    }

    #[test]
    fn global_grouping_funnels_into_one_task() {
        // spout(p=2) → bolt(global, p=4): exactly one bolt task works, so
        // throughput is capped by a single task's service rate.
        let cluster = emulab(1, 4);
        let mut b = TopologyBuilder::new("glob");
        b.set_spout("s", 2)
            .set_profile(ExecutionProfile::new(0.05, 1.0, 100))
            .set_memory_load(64.0);
        b.set_bolt("k", 4)
            .global_grouping("s")
            .set_profile(ExecutionProfile::new(1.0, 0.0, 100))
            .set_memory_load(64.0);
        let t = b.build().unwrap();
        let report = run_with(&EvenScheduler::new(), &t, &cluster, SimConfig::quick());
        // One task at 1 ms/tuple can do at most 1000 tuples/s = 10 000
        // per window; with 4 tasks sharing it would be ~4×.
        let thr = report.steady_throughput("glob", 1);
        assert!(
            thr <= 10_500.0,
            "global grouping must serialize through one task, got {thr:.0}"
        );
        assert!(
            thr > 5_000.0,
            "but the single task should be busy: {thr:.0}"
        );
    }

    #[test]
    fn local_or_shuffle_prefers_the_local_task() {
        // Identical topologies, one shuffle and one local-or-shuffle;
        // under R-Storm's colocation the local variant keeps traffic in
        // the worker and completes faster.
        let make = |name: &str, local: bool| {
            let mut b = TopologyBuilder::new(name);
            b.set_max_spout_pending(4);
            b.set_spout("s", 4)
                .set_profile(ExecutionProfile::new(0.02, 1.0, 400))
                .set_cpu_load(20.0)
                .set_memory_load(64.0);
            let mut bolt = b.set_bolt("k", 4);
            if local {
                bolt.local_or_shuffle_grouping("s");
            } else {
                bolt.shuffle_grouping("s");
            }
            bolt.set_profile(ExecutionProfile::new(0.02, 0.0, 400))
                .set_cpu_load(20.0)
                .set_memory_load(64.0);
            b.build().unwrap()
        };
        let cluster = emulab(2, 6);
        let local = run_with(
            &RStormScheduler::new(),
            &make("local", true),
            &cluster,
            SimConfig::quick(),
        );
        let shuffled = run_with(
            &RStormScheduler::new(),
            &make("shuffled", false),
            &cluster,
            SimConfig::quick(),
        );
        assert!(
            local.latency_ms.mean < shuffled.latency_ms.mean,
            "local {:.3} ms vs shuffle {:.3} ms",
            local.latency_ms.mean,
            shuffled.latency_ms.mean
        );
    }

    #[test]
    fn colocated_placement_has_lower_latency() {
        let cluster = emulab(2, 6);
        let t = linear_topology("lat", 6, ExecutionProfile::network_bound(400), 15.0, 128.0);
        let mut config = SimConfig::quick();
        config.max_pending = 4;
        let rstorm = run_with(&RStormScheduler::new(), &t, &cluster, config.clone());
        let even = run_with(&EvenScheduler::new(), &t, &cluster, config);
        assert!(rstorm.latency_ms.count > 0 && even.latency_ms.count > 0);
        assert!(
            rstorm.latency_ms.mean < even.latency_ms.mean,
            "colocated {:.2} ms vs spread {:.2} ms",
            rstorm.latency_ms.mean,
            even.latency_ms.mean
        );
        // The throughput advantage IS the latency advantage in the
        // in-flight-limited regime (Little's law).
        assert!(rstorm.inter_rack_mb < even.inter_rack_mb);
    }

    #[test]
    fn multiple_topologies_share_the_cluster() {
        let cluster = emulab(2, 6);
        let t1 = linear_topology("a", 3, ExecutionProfile::new(0.2, 1.0, 100), 20.0, 128.0);
        let t2 = linear_topology("b", 3, ExecutionProfile::new(0.2, 1.0, 100), 20.0, 128.0);
        let plan = schedule_all(&RStormScheduler::new(), &[&t1, &t2], &cluster).unwrap();
        let mut sim = Simulation::new(cluster.clone(), SimConfig::quick());
        sim.add_topology(&t1, plan.assignment("a").unwrap());
        sim.add_topology(&t2, plan.assignment("b").unwrap());
        let report = sim.run();
        assert!(report.throughput["a"].steady_state(1).mean > 0.0);
        assert!(report.throughput["b"].steady_state(1).mean > 0.0);
        assert_eq!(report.used_nodes_by_topology.len(), 2);
    }

    #[test]
    fn shared_arc_cluster_avoids_per_sim_deep_copy() {
        // Constructing many simulations over one Arc'd cluster must not
        // clone the cluster (the pattern `rstorm_workloads::figures` runs).
        let cluster = Arc::new(emulab(2, 3));
        let t = linear_topology("t", 2, ExecutionProfile::new(0.1, 1.0, 100), 20.0, 128.0);
        let mut state = GlobalState::new(&cluster);
        let assignment = RStormScheduler::new()
            .schedule(&t, &cluster, &mut state)
            .unwrap();
        let mut reports = Vec::new();
        for _ in 0..3 {
            let mut sim = Simulation::new(Arc::clone(&cluster), SimConfig::quick());
            sim.add_topology(&t, &assignment);
            reports.push(sim.run());
        }
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[1], reports[2]);
    }

    #[test]
    fn grouping_variants_route_without_string_keys() {
        // Exercise every grouping through the shared target lists in one
        // topology.
        let cluster = emulab(2, 3);
        let mut b = TopologyBuilder::new("mix");
        b.set_spout("s", 2)
            .set_profile(ExecutionProfile::new(0.05, 1.0, 100))
            .set_memory_load(64.0);
        b.set_bolt("all", 2)
            .all_grouping("s")
            .set_profile(ExecutionProfile::new(0.02, 1.0, 100))
            .set_memory_load(64.0);
        b.set_bolt("fields", 2)
            .fields_grouping("all", ["k"])
            .set_profile(ExecutionProfile::new(0.02, 1.0, 100))
            .set_memory_load(64.0);
        b.set_bolt("local", 2)
            .local_or_shuffle_grouping("fields")
            .set_profile(ExecutionProfile::new(0.02, 1.0, 100))
            .set_memory_load(64.0);
        b.set_bolt("sink", 1)
            .global_grouping("local")
            .set_profile(ExecutionProfile::new(0.02, 0.0, 100))
            .set_memory_load(64.0);
        let t = b.build().unwrap();
        assert!(matches!(
            t.consumers("s")[0].1.grouping,
            StreamGrouping::All
        ));
        let report = run_with(&RStormScheduler::new(), &t, &cluster, SimConfig::quick());
        assert!(report.totals.tuples_completed > 0);
    }

    #[test]
    #[should_panic(expected = "different topology")]
    fn mismatched_assignment_rejected() {
        let cluster = emulab(1, 2);
        let t = linear_topology("t", 1, ExecutionProfile::default(), 10.0, 64.0);
        let other = linear_topology("other", 1, ExecutionProfile::default(), 10.0, 64.0);
        let mut state = GlobalState::new(&cluster);
        let a = RStormScheduler::new()
            .schedule(&other, &cluster, &mut state)
            .unwrap();
        let mut sim = Simulation::new(cluster, SimConfig::quick());
        sim.add_topology(&t, &a);
    }

    #[test]
    #[should_panic(expected = "at least one topology")]
    fn empty_simulation_rejected() {
        let cluster = emulab(1, 1);
        Simulation::new(cluster, SimConfig::quick()).run();
    }

    // ---- fault injection ----

    fn assigned(topology: &Topology, cluster: &Cluster) -> Assignment {
        let mut state = GlobalState::new(cluster);
        RStormScheduler::new()
            .schedule(topology, cluster, &mut state)
            .unwrap()
    }

    fn run_faulted(
        topology: &Topology,
        cluster: &Cluster,
        assignment: &Assignment,
        plan: FaultPlan,
    ) -> SimReport {
        let mut sim = Simulation::new(cluster.clone(), SimConfig::quick());
        sim.add_topology(topology, assignment);
        sim.set_fault_plan(plan);
        sim.run()
    }

    /// A node of the assignment that hosts tasks (R-Storm colocates, so
    /// crashing an arbitrary node could miss the topology entirely).
    fn host_of(assignment: &Assignment) -> String {
        let host = assignment.iter().next().unwrap().1.node.as_str().to_owned();
        host
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::new(0.1, 1.0, 100), 20.0, 128.0);
        let a = assigned(&t, &cluster);
        let plain = run_with(&RStormScheduler::new(), &t, &cluster, SimConfig::quick());
        let faulted = run_faulted(&t, &cluster, &a, FaultPlan::new());
        assert_eq!(plain, faulted, "an empty plan is bit-identical");
        assert_eq!(faulted.totals.tuples_lost, 0);
    }

    #[test]
    fn node_crash_destroys_tuples_and_halts_its_tasks() {
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::new(0.1, 1.0, 100), 20.0, 128.0);
        let a = assigned(&t, &cluster);
        let victim = host_of(&a);
        let healthy = run_faulted(&t, &cluster, &a, FaultPlan::new());
        let crashed = run_faulted(
            &t,
            &cluster,
            &a,
            FaultPlan::new().crash_node(20_000.0, &victim),
        );
        assert!(crashed.totals.tuples_lost > 0, "queued work was destroyed");
        assert!(
            crashed.totals.roots_timed_out > healthy.totals.roots_timed_out,
            "in-flight trees fail through the timeout path"
        );
        assert!(
            crashed.totals.tuples_completed < healthy.totals.tuples_completed,
            "the outage costs throughput"
        );
        // Every window after the crash (+ timeout drain) is dead if the
        // whole topology lived on the victim; at minimum the tail is no
        // better than healthy.
        let w = &crashed.throughput["t"].windows;
        assert!(
            *w.last().unwrap() <= *healthy.throughput["t"].windows.last().unwrap(),
            "no recovery was scheduled: {w:?}"
        );
    }

    #[test]
    fn node_recovery_restores_flow() {
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::new(0.1, 1.0, 100), 20.0, 128.0);
        let a = assigned(&t, &cluster);
        let victim = host_of(&a);
        let plan = FaultPlan::new()
            .crash_node(20_000.0, &victim)
            .recover_node(30_000.0, &victim);
        let report = run_faulted(&t, &cluster, &a, plan);
        let windows = &report.throughput["t"].windows;
        // Window 2 covers [20 s, 30 s): the outage. The final window runs
        // well after recovery plus the 30 s tuple-timeout drain... which
        // the quick 60 s horizon does not reach for timed-out roots, but
        // fresh spout emissions restart immediately at recovery.
        assert!(
            *windows.last().unwrap() > 0.0,
            "flow resumed after recovery: {windows:?}"
        );
        assert!(report.totals.tuples_lost > 0);
    }

    #[test]
    fn link_degradation_inflates_latency() {
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::new(0.1, 1.0, 100), 20.0, 128.0);
        // Spread the topology across nodes so batches actually cross the
        // degraded links.
        let mut state = GlobalState::new(&cluster);
        let a = EvenScheduler::new()
            .schedule(&t, &cluster, &mut state)
            .unwrap();
        let healthy = run_faulted(&t, &cluster, &a, FaultPlan::new());
        let degraded = run_faulted(
            &t,
            &cluster,
            &a,
            FaultPlan::new().degrade_links(0.0, 60_000.0, 25.0),
        );
        assert!(
            degraded.latency_ms.mean > healthy.latency_ms.mean,
            "degraded {} ms <= healthy {} ms",
            degraded.latency_ms.mean,
            healthy.latency_ms.mean
        );
        assert_eq!(degraded.totals.tuples_lost, 0, "latency, not loss");
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::new(0.1, 1.0, 100), 20.0, 128.0);
        let a = assigned(&t, &cluster);
        let victim = host_of(&a);
        let plan = FaultPlan::new()
            .crash_node(15_000.0, &victim)
            .recover_node(25_000.0, &victim)
            .degrade_links(30_000.0, 40_000.0, 10.0);
        let r1 = run_faulted(&t, &cluster, &a, plan.clone());
        let r2 = run_faulted(&t, &cluster, &a, plan);
        assert_eq!(r1, r2);
        assert_eq!(r1.to_json(), r2.to_json());
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn fault_plan_with_unknown_node_rejected() {
        let cluster = emulab(1, 2);
        let t = linear_topology("t", 1, ExecutionProfile::default(), 10.0, 64.0);
        let a = assigned(&t, &cluster);
        run_faulted(
            &t,
            &cluster,
            &a,
            FaultPlan::new().crash_node(1_000.0, "ghost"),
        );
    }

    #[test]
    #[should_panic(expected = "unknown rack")]
    fn fault_plan_with_unknown_rack_rejected() {
        let cluster = emulab(1, 2);
        let t = linear_topology("t", 1, ExecutionProfile::default(), 10.0, 64.0);
        let a = assigned(&t, &cluster);
        run_faulted(
            &t,
            &cluster,
            &a,
            FaultPlan::new().partition_rack(1_000.0, 2_000.0, "ghost-rack"),
        );
    }

    #[test]
    fn rack_partition_severs_cross_rack_traffic_then_heals() {
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::new(0.1, 1.0, 100), 20.0, 128.0);
        // Spread the pipeline across nodes (and racks) so batches really
        // cross the uplink the partition severs.
        let mut state = GlobalState::new(&cluster);
        let a = EvenScheduler::new()
            .schedule(&t, &cluster, &mut state)
            .unwrap();
        let healthy = run_faulted(&t, &cluster, &a, FaultPlan::new());
        assert!(
            healthy.inter_rack_mb > 0.0,
            "the spread placement must exercise the uplink"
        );
        let rack = cluster.racks()[0].as_str().to_owned();
        let partitioned = run_faulted(
            &t,
            &cluster,
            &a,
            FaultPlan::new().partition_rack(20_000.0, 35_000.0, &rack),
        );
        assert!(
            partitioned.totals.tuples_lost > 0,
            "cross-rack sends die during the window"
        );
        assert!(
            partitioned.totals.roots_timed_out > healthy.totals.roots_timed_out,
            "severed trees fail through the timeout path"
        );
        assert!(
            partitioned.inter_rack_mb < healthy.inter_rack_mb,
            "dropped sends consume no uplink capacity: {} vs {}",
            partitioned.inter_rack_mb,
            healthy.inter_rack_mb
        );
        // Flow resumes once the window closes (fresh emissions cross
        // again well before the horizon).
        let windows = &partitioned.throughput["t"].windows;
        assert!(
            *windows.last().unwrap() > 0.0,
            "flow resumed after the heal: {windows:?}"
        );
    }

    #[test]
    fn partition_of_an_untouched_rack_changes_nothing() {
        // R-Storm colocates this topology onto one rack; partitioning
        // the *other* rack severs no route the run ever takes, so the
        // report must stay bit-identical to the healthy one.
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::new(0.1, 1.0, 100), 20.0, 128.0);
        let a = assigned(&t, &cluster);
        let host = host_of(&a);
        let host_rack = cluster.rack_of(&host).unwrap().as_str().to_owned();
        let other = cluster
            .racks()
            .iter()
            .find(|r| r.as_str() != host_rack)
            .expect("a second rack exists")
            .as_str()
            .to_owned();
        let healthy = run_faulted(&t, &cluster, &a, FaultPlan::new());
        let partitioned = run_faulted(
            &t,
            &cluster,
            &a,
            FaultPlan::new().partition_rack(10_000.0, 50_000.0, &other),
        );
        assert_eq!(healthy, partitioned, "no exercised route was severed");
        assert_eq!(healthy.to_json(), partitioned.to_json());
    }

    #[test]
    fn flap_storm_loses_and_recovers_repeatedly() {
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::new(0.1, 1.0, 100), 20.0, 128.0);
        let a = assigned(&t, &cluster);
        let victim = host_of(&a);
        let flapped = run_faulted(
            &t,
            &cluster,
            &a,
            FaultPlan::new().flap_storm(15_000.0, &victim, 3, 2_000.0, 8_000.0),
        );
        assert!(flapped.totals.tuples_lost > 0, "each dip destroys work");
        let windows = &flapped.throughput["t"].windows;
        assert!(
            *windows.last().unwrap() > 0.0,
            "the storm ends healed: {windows:?}"
        );
    }

    #[test]
    fn stats_export_is_a_pure_observer() {
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::new(0.1, 1.0, 100), 20.0, 128.0);
        let a = assigned(&t, &cluster);
        let plain = run_faulted(&t, &cluster, &a, FaultPlan::new());

        let server = Arc::new(StatisticServer::new(SimConfig::quick().window_ms));
        let mut sim = Simulation::new(cluster.clone(), SimConfig::quick());
        sim.add_topology(&t, &a);
        sim.export_stats(server.clone(), 5_000.0);
        let exported = sim.run();

        assert_eq!(plain, exported, "the export hook never perturbs the run");
        // ... while the server really did see the workload.
        let elapsed = SimConfig::quick().sim_time_ms;
        for c in ["c0", "c1", "c2", "c3"] {
            assert!(
                server.observed_cpu_points("t", c, elapsed) > 0.0,
                "{c} observed busy time"
            );
        }
        assert!(server.component_total("t", "c1") > 0, "processed counted");
        assert!(
            server.component_emitted_total("t", "c0") > 0,
            "emits counted"
        );
    }

    #[test]
    fn migration_relocates_work_and_stays_deterministic() {
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::new(0.1, 1.0, 100), 20.0, 128.0);
        let a = assigned(&t, &cluster);

        // Move every task off the busiest node onto a node the
        // assignment does not use at all.
        let used = a.used_nodes();
        let from = host_of(&a);
        let dest = cluster
            .nodes()
            .iter()
            .map(|n| n.id().as_str().to_owned())
            .find(|n| !used.contains(&rstorm_cluster::NodeId::new(n.as_str())))
            .expect("an idle node exists");
        let moved: Vec<rstorm_topology::TaskId> = a.tasks_on_node(&from);
        assert!(!moved.is_empty());
        let mut slots: std::collections::BTreeMap<_, _> =
            a.iter().map(|(task, slot)| (task, slot.clone())).collect();
        for &task in &moved {
            slots.insert(task, WorkerSlot::new(dest.as_str(), 6700));
        }
        let plan = MigrationPlan {
            topology: t.id().clone(),
            moves: moved
                .iter()
                .map(|&task| rstorm_core::MigrationMove {
                    task,
                    component: "c".to_owned(),
                    from: rstorm_cluster::NodeId::new(from.as_str()),
                    to: rstorm_cluster::NodeId::new(dest.as_str()),
                })
                .collect(),
            updated: Assignment::new(t.id().clone(), slots),
        };

        let run = |plan: &MigrationPlan| {
            let mut sim = Simulation::new(cluster.clone(), SimConfig::quick());
            sim.add_topology(&t, &a);
            sim.schedule_migration(plan, 20_000.0, 500.0);
            sim.run()
        };
        let r1 = run(&plan);
        let r2 = run(&plan);
        assert_eq!(r1, r2, "migration runs are deterministic");

        // Work flows both before and after the cut-over, and the report's
        // placement-derived stats reflect the move.
        let plain = run_faulted(&t, &cluster, &a, FaultPlan::new());
        assert!(r1.totals.tuples_completed > 0);
        assert!(
            r1.used_nodes > plain.used_nodes,
            "the idle destination shows up as used: {} vs {}",
            r1.used_nodes,
            plain.used_nodes
        );
        assert!(
            r1.node_utilization
                .iter()
                .any(|(n, u)| *n == dest && *u > 0.0),
            "destination accrued busy time: {:?}",
            r1.node_utilization
        );
    }

    /// A plan moving every task of `a` to `to`.
    fn move_everything(t: &Topology, a: &Assignment, to: &str) -> MigrationPlan {
        MigrationPlan {
            topology: t.id().clone(),
            moves: a
                .iter()
                .map(|(task, slot)| rstorm_core::MigrationMove {
                    task,
                    component: "c".to_owned(),
                    from: slot.node.clone(),
                    to: rstorm_cluster::NodeId::new(to),
                })
                .collect(),
            updated: Assignment::new(
                t.id().clone(),
                a.iter()
                    .map(|(task, _)| (task, WorkerSlot::new(to, 6700)))
                    .collect(),
            ),
        }
    }

    /// The first node of `cluster` that `a` leaves idle.
    fn idle_node(cluster: &Cluster, a: &Assignment) -> String {
        let used = a.used_nodes();
        cluster
            .nodes()
            .iter()
            .map(|n| n.id().as_str().to_owned())
            .find(|n| !used.contains(&rstorm_cluster::NodeId::new(n.as_str())))
            .expect("an idle node exists")
    }

    /// Sink throughput per 10 s window of `report` for topology `t`.
    fn windows(report: &SimReport, t: &Topology) -> Vec<f64> {
        report.throughput[t.id().as_str()].windows.clone()
    }

    #[test]
    fn migration_onto_a_down_node_kills_the_moved_tasks_until_it_recovers() {
        // An idle node crashes at 10 s; at 20 s every task moves onto it
        // while it is still down, which is legal; it recovers at 40 s.
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::new(0.1, 1.0, 100), 20.0, 128.0);
        let a = assigned(&t, &cluster);
        let dest = idle_node(&cluster, &a);
        let mut sim = Simulation::new(cluster.clone(), SimConfig::quick());
        sim.add_topology(&t, &a);
        sim.schedule_migration(&move_everything(&t, &a, &dest), 20_000.0, 0.0);
        sim.set_fault_plan(
            FaultPlan::new()
                .crash_node(10_000.0, &dest)
                .recover_node(40_000.0, &dest),
        );
        let report = sim.run();
        let w = windows(&report, &t);
        assert_eq!(report.window_ms, 10_000.0);
        assert!(w[1] > 0.0, "work flows before the move: {w:?}");
        // The moved tasks run on a down node: nothing completes, and the
        // work queued or in service at the move is lost.
        assert_eq!((w[2], w[3]), (0.0, 0.0), "{w:?}");
        assert!(report.totals.tuples_lost > 0);
        // The node's recovery re-kicks the moved spouts.
        assert!(w[4] > 0.0 && w[5] > 0.0, "flow resumes on recovery: {w:?}");
    }

    #[test]
    fn spout_moved_off_a_dead_node_resumes_emitting() {
        // Every node the topology uses dies at 10 s for good. Left
        // alone, its spouts stay dormant. Moved onto a live node, they
        // are re-kicked: at once when the move finds them idle (20 s),
        // and once the dead worker's batch is dropped when the move comes
        // 1 ms after the crash, while a 500 ms spout batch is in service.
        let cluster = emulab(2, 3);
        let mut b = TopologyBuilder::new("t");
        b.set_spout("src", 2)
            .set_profile(ExecutionProfile::new(50.0, 1.0, 100))
            .set_cpu_load(20.0)
            .set_memory_load(128.0);
        b.set_bolt("sink", 2)
            .shuffle_grouping("src")
            .set_profile(ExecutionProfile::new(0.1, 1.0, 100).into_sink())
            .set_cpu_load(20.0)
            .set_memory_load(128.0);
        let t = b.build().unwrap();
        let a = assigned(&t, &cluster);
        let dest = idle_node(&cluster, &a);
        let used: Vec<String> = a
            .used_nodes()
            .iter()
            .map(|n| n.as_str().to_owned())
            .collect();
        let run = |migrate_at: Option<f64>| {
            let mut sim = Simulation::new(cluster.clone(), SimConfig::quick());
            sim.add_topology(&t, &a);
            if let Some(at) = migrate_at {
                sim.schedule_migration(&move_everything(&t, &a, &dest), at, 0.0);
            }
            sim.set_fault_plan(FaultPlan::new().crash_burst(10_000.0, &used, 1e9));
            sim.run()
        };
        let stranded = windows(&run(None), &t);
        assert!(stranded[2..].iter().all(|&w| w == 0.0), "{stranded:?}");
        for at in [20_000.0, 10_001.0] {
            let moved = windows(&run(Some(at)), &t);
            assert_eq!(moved[..1], stranded[..1], "identical before the move");
            assert!(
                moved[2..].iter().all(|&w| w > 0.0),
                "moved at {at} ms, the spouts emit again: {moved:?}"
            );
        }
    }

    #[test]
    fn empty_migration_plan_is_bit_identical() {
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::new(0.1, 1.0, 100), 20.0, 128.0);
        let a = assigned(&t, &cluster);
        let plain = run_faulted(&t, &cluster, &a, FaultPlan::new());
        let empty = MigrationPlan {
            topology: t.id().clone(),
            moves: Vec::new(),
            updated: Assignment::new(t.id().clone(), std::collections::BTreeMap::new()),
        };
        let mut sim = Simulation::new(cluster.clone(), SimConfig::quick());
        sim.add_topology(&t, &a);
        sim.schedule_migration(&empty, 10_000.0, 500.0);
        let report = sim.run();
        assert_eq!(plain, report);
        // Even the event count matches: an empty plan schedules nothing.
        assert_eq!(plain.debug.events, report.debug.events);
    }

    #[test]
    #[should_panic(expected = "migration references unknown task")]
    fn migration_of_a_task_past_the_topology_is_rejected() {
        // Task indices are resolved against the named topology: one past
        // its last task is not a valid move, even with a single topology.
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::new(0.1, 1.0, 100), 20.0, 128.0);
        let a = assigned(&t, &cluster);
        let ghost = rstorm_topology::TaskId(t.total_tasks());
        let mut slots: std::collections::BTreeMap<_, _> =
            a.iter().map(|(task, slot)| (task, slot.clone())).collect();
        let dest = cluster.nodes()[0].id().clone();
        slots.insert(ghost, WorkerSlot::new(dest.as_str(), 6700));
        let plan = MigrationPlan {
            topology: t.id().clone(),
            moves: vec![rstorm_core::MigrationMove {
                task: ghost,
                component: "c".to_owned(),
                from: dest.clone(),
                to: dest,
            }],
            updated: Assignment::new(t.id().clone(), slots),
        };
        let mut sim = Simulation::new(cluster, SimConfig::quick());
        sim.add_topology(&t, &a);
        sim.schedule_migration(&plan, 1_000.0, 0.0);
        sim.run();
    }

    #[test]
    fn migration_bookkeeping_is_move_order_insensitive() {
        // `apply_moves` keeps the membership lists sorted by global
        // task id, so a later crash/recover of a migration-touched node
        // must still produce identical results whatever order the moves
        // were listed in — the drain order never depends on move order.
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::new(0.1, 1.0, 100), 20.0, 128.0);
        let a = assigned(&t, &cluster);

        let used = a.used_nodes();
        let from = host_of(&a);
        let dest = cluster
            .nodes()
            .iter()
            .map(|n| n.id().as_str().to_owned())
            .find(|n| !used.contains(&rstorm_cluster::NodeId::new(n.as_str())))
            .expect("an idle node exists");
        let moved: Vec<rstorm_topology::TaskId> = a.tasks_on_node(&from);
        assert!(moved.len() >= 2, "need several moves to permute");
        let mut slots: std::collections::BTreeMap<_, _> =
            a.iter().map(|(task, slot)| (task, slot.clone())).collect();
        for &task in &moved {
            slots.insert(task, WorkerSlot::new(dest.as_str(), 6700));
        }
        let plan_with = |order: Vec<rstorm_topology::TaskId>| MigrationPlan {
            topology: t.id().clone(),
            moves: order
                .into_iter()
                .map(|task| rstorm_core::MigrationMove {
                    task,
                    component: "c".to_owned(),
                    from: rstorm_cluster::NodeId::new(from.as_str()),
                    to: rstorm_cluster::NodeId::new(dest.as_str()),
                })
                .collect(),
            updated: Assignment::new(t.id().clone(), slots.clone()),
        };
        let forward = plan_with(moved.clone());
        let reversed = plan_with(moved.iter().rev().copied().collect());

        // Crash the destination after the cut-over, then heal it: both
        // the drain and the spout re-kick iterate the perturbed list.
        let faults = FaultPlan::new()
            .crash_node(40_000.0, dest.as_str())
            .recover_node(50_000.0, dest.as_str());
        let run = |plan: &MigrationPlan| {
            let mut sim = Simulation::new(cluster.clone(), SimConfig::quick());
            sim.add_topology(&t, &a);
            sim.schedule_migration(plan, 20_000.0, 500.0);
            sim.set_fault_plan(faults.clone());
            sim.run()
        };
        let r_fwd = run(&forward);
        let r_rev = run(&reversed);
        assert_eq!(r_fwd, r_rev, "move order must not leak into the run");
        assert!(
            r_fwd.totals.tuples_lost > 0,
            "the post-migration crash actually destroyed work"
        );
    }

    // ---- guaranteed processing (spout replay) -------------------------

    fn run_replay(
        topology: &Topology,
        cluster: &Cluster,
        assignment: &Assignment,
        plan: FaultPlan,
        max_replays: u32,
    ) -> SimReport {
        let mut sim = Simulation::new(
            cluster.clone(),
            SimConfig::quick().with_max_replays(max_replays),
        );
        sim.add_topology(topology, assignment);
        sim.set_fault_plan(plan);
        sim.run()
    }

    #[test]
    fn replay_mode_only_adds_counters_on_a_healthy_run() {
        // Without faults nothing ever fails, so enabling replay must not
        // change the physics — every legacy observable matches the
        // replay-disabled run; only the new admission counters appear.
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::new(0.1, 1.0, 100), 20.0, 128.0);
        let a = assigned(&t, &cluster);
        let off = run_faulted(&t, &cluster, &a, FaultPlan::new());
        let on = run_replay(&t, &cluster, &a, FaultPlan::new(), 3);
        assert_eq!(off.throughput, on.throughput);
        assert_eq!(off.latency_ms, on.latency_ms);
        assert_eq!(off.inter_rack_mb, on.inter_rack_mb);
        assert_eq!(off.totals.spout_batches, on.totals.spout_batches);
        assert_eq!(off.totals.roots_completed, on.totals.roots_completed);
        assert_eq!(off.totals.tuples_completed, on.totals.tuples_completed);
        assert_eq!(on.totals.roots_replayed, 0);
        assert_eq!(on.totals.roots_quarantined, 0);
        assert!(on.totals.roots_emitted > 0, "admissions are now counted");
        assert_eq!(on.zero_loss_ratio(), 1.0);
        // The disabled run keeps every replay counter at zero.
        assert_eq!(off.totals.roots_emitted, 0);
        assert_eq!(off.zero_loss_ratio(), 1.0, "vacuous without admissions");
    }

    #[test]
    fn replay_recovers_every_root_of_a_survivable_crash() {
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::new(0.1, 1.0, 100), 20.0, 128.0);
        let a = assigned(&t, &cluster);
        let victim = host_of(&a);
        let plan = FaultPlan::new()
            .crash_node(20_000.0, &victim)
            .recover_node(25_000.0, &victim);
        let dropped = run_faulted(&t, &cluster, &a, plan.clone());
        assert!(dropped.totals.tuples_lost > 0, "the outage destroys work");

        let replayed = run_replay(&t, &cluster, &a, plan, 8);
        assert!(replayed.totals.roots_replayed > 0, "failed roots re-emit");
        assert_eq!(
            replayed.totals.roots_quarantined, 0,
            "a healed outage never exhausts an 8-replay budget"
        );
        assert_eq!(replayed.tuples_quarantined(), 0);
        assert_eq!(
            replayed.totals.tuples_lost, 0,
            "replayed-then-acked roots retransmitted their lost tuples"
        );
        assert_eq!(replayed.zero_loss_ratio(), 1.0);
        // The drain invariant the engine debug-asserts, re-checked here
        // in release builds too: emitted == acked + quarantined + in_flight.
        let tot = &replayed.totals;
        assert_eq!(
            tot.roots_emitted,
            tot.roots_completed + tot.roots_quarantined + tot.roots_in_flight
        );
    }

    /// Places every task of `spout_component` on node 0 and everything
    /// else on node 1 — a hand-built split so a test can kill the bolt
    /// side while the spouts keep running.
    fn split_assignment(t: &Topology, cluster: &Cluster, spout_component: &str) -> Assignment {
        let spout_node = cluster.nodes()[0].id().as_str().to_owned();
        let bolt_node = cluster.nodes()[1].id().as_str().to_owned();
        let task_set = t.task_set();
        let spouts: std::collections::BTreeSet<_> =
            task_set.tasks_of(spout_component).iter().copied().collect();
        let slots = task_set
            .tasks()
            .iter()
            .map(|task| {
                let node = if spouts.contains(&task.id) {
                    spout_node.as_str()
                } else {
                    bolt_node.as_str()
                };
                (task.id, WorkerSlot::new(node, 6700))
            })
            .collect();
        Assignment::new(t.id().clone(), slots)
    }

    #[test]
    fn replay_budget_exhaustion_quarantines_poison_roots() {
        // Spread the stages so a mid-pipeline node can die while the
        // spouts stay alive: their replays then keep re-failing until the
        // budget runs out and the roots quarantine.
        let cluster = emulab(1, 2);
        let t = linear_topology("t", 2, ExecutionProfile::new(0.1, 1.0, 100), 20.0, 128.0);
        let a = split_assignment(&t, &cluster, "c0");
        let victim = cluster.nodes()[1].id().as_str().to_owned();
        let mut config = SimConfig::quick().with_max_replays(1);
        config.tuple_timeout_ms = 5_000.0; // fail fast enough to exhaust
        let mut sim = Simulation::new(cluster.clone(), config);
        sim.add_topology(&t, &a);
        sim.set_fault_plan(FaultPlan::new().crash_node(10_000.0, &victim));
        let report = sim.run();
        assert!(
            report.totals.roots_quarantined > 0,
            "an unhealed outage defeats a 1-replay budget: {:?}",
            report.totals
        );
        assert!(report.tuples_quarantined() > 0);
        assert!(report.zero_loss_ratio() < 1.0);
        let tot = &report.totals;
        assert_eq!(
            tot.roots_emitted,
            tot.roots_completed + tot.roots_quarantined + tot.roots_in_flight
        );
    }

    #[test]
    fn replays_ride_the_spout_pending_window() {
        // Backpressure, not amplification: replays spend the credit the
        // root took at first emission, so in-flight logical roots — fresh
        // and replayed together — never exceed max_pending per spout,
        // even while a dead sink fails every tree.
        let cluster = emulab(1, 2);
        let mut b = TopologyBuilder::new("bp");
        b.set_spout("src", 1)
            .set_profile(ExecutionProfile::new(0.01, 1.0, 100))
            .set_memory_load(64.0);
        b.set_bolt("sink", 1)
            .shuffle_grouping("src")
            .set_profile(ExecutionProfile::new(0.05, 0.0, 100).into_sink())
            .set_memory_load(64.0);
        let t = b.build().unwrap();
        let a = split_assignment(&t, &cluster, "src");
        let sink_node = cluster.nodes()[1].id().as_str().to_owned();
        let mut config = SimConfig::quick().with_max_replays(3);
        config.max_pending = 10;
        config.tuple_timeout_ms = 2_000.0;
        let mut sim = Simulation::new(cluster.clone(), config);
        sim.add_topology(&t, &a);
        sim.set_fault_plan(FaultPlan::new().crash_node(5_000.0, &sink_node));
        let report = sim.run();
        let tot = &report.totals;
        assert!(tot.roots_replayed > 0, "the dead sink forces replays");
        assert!(
            tot.roots_emitted <= tot.roots_completed + tot.roots_quarantined + 10,
            "fresh admissions stall until replays settle: {tot:?}"
        );
        assert_eq!(
            tot.roots_emitted,
            tot.roots_completed + tot.roots_quarantined + tot.roots_in_flight
        );
        assert!(tot.roots_in_flight <= 10, "window bounds in-flight roots");
    }

    #[test]
    fn replay_runs_are_deterministic() {
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::new(0.1, 1.0, 100), 20.0, 128.0);
        let a = assigned(&t, &cluster);
        let victim = host_of(&a);
        let plan = FaultPlan::new()
            .crash_node(20_000.0, &victim)
            .recover_node(25_000.0, &victim);
        let r1 = run_replay(&t, &cluster, &a, plan.clone(), 4);
        let r2 = run_replay(&t, &cluster, &a, plan, 4);
        assert_eq!(r1, r2, "same plan, same seed, same bits");
        assert_eq!(r1.to_json(), r2.to_json());
        assert!(r1.to_json().contains("\"roots_replayed\""));
    }

    // ---- checked invariants (the fuzzer's oracle mode) -----------------

    /// The quarantine scenario of
    /// `replay_budget_exhaustion_quarantines_poison_roots`, optionally
    /// with the planted accounting bug.
    fn quarantine_sim(planted: bool) -> Simulation {
        let cluster = emulab(1, 2);
        let t = linear_topology("t", 2, ExecutionProfile::new(0.1, 1.0, 100), 20.0, 128.0);
        let a = split_assignment(&t, &cluster, "c0");
        let victim = cluster.nodes()[1].id().as_str().to_owned();
        let mut config = SimConfig::quick()
            .with_max_replays(1)
            .with_planted_quarantine_bug(planted);
        config.tuple_timeout_ms = 5_000.0;
        let mut sim = Simulation::new(cluster.clone(), config);
        sim.add_topology(&t, &a);
        sim.set_fault_plan(FaultPlan::new().crash_node(10_000.0, &victim));
        sim
    }

    #[test]
    fn checked_run_is_clean_and_bit_identical() {
        let plain = quarantine_sim(false).run();
        let checked = quarantine_sim(false).run_checked();
        assert!(
            checked.violations.is_empty(),
            "a correct engine has nothing to report: {:?}",
            checked.violations
        );
        assert_eq!(plain.to_json(), checked.report.to_json());
        assert!(
            checked.report.totals.roots_quarantined > 0,
            "the scenario really exercises the quarantine path"
        );
    }

    #[test]
    fn planted_quarantine_bug_trips_the_drain_invariant() {
        let broken = quarantine_sim(true).run_checked();
        assert!(
            broken
                .violations
                .iter()
                .any(|v| v.kind() == "drain_imbalance"),
            "the planted bug must surface as a typed violation: {:?}",
            broken.violations
        );
    }

    // ---- fair-share network plane --------------------------------------

    /// An even (spread) placement of a network-bound pipeline: the
    /// traffic pattern that actually exercises NICs and trunks.
    fn spread_net_assignment(topology: &Topology, cluster: &Cluster) -> Assignment {
        let mut state = GlobalState::new(cluster);
        EvenScheduler::new()
            .schedule(topology, cluster, &mut state)
            .unwrap()
    }

    fn run_faulted_with(
        topology: &Topology,
        cluster: &Cluster,
        assignment: &Assignment,
        plan: FaultPlan,
        config: SimConfig,
    ) -> SimReport {
        let mut sim = Simulation::new(cluster.clone(), config);
        sim.add_topology(topology, assignment);
        sim.set_fault_plan(plan);
        sim.run()
    }

    #[test]
    fn network_gate_default_is_bit_identical_to_explicit_legacy() {
        // `network_model` defaults to Legacy; spelling it out must change
        // nothing, down to the engine's event count — the same license
        // the replay gate carries.
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::network_bound(400), 15.0, 128.0);
        let a = spread_net_assignment(&t, &cluster);
        let default_run = run_faulted(&t, &cluster, &a, FaultPlan::new());
        let explicit = run_faulted_with(
            &t,
            &cluster,
            &a,
            FaultPlan::new(),
            SimConfig::quick().with_network_model(NetworkModel::Legacy),
        );
        assert_eq!(default_run, explicit);
        assert_eq!(default_run.to_json(), explicit.to_json());
        assert_eq!(default_run.debug.events, explicit.debug.events);
        assert!(default_run.network.is_none(), "legacy exports no telemetry");
    }

    #[test]
    fn fair_plane_delivers_tuples_and_exports_link_telemetry() {
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::network_bound(400), 15.0, 128.0);
        let a = spread_net_assignment(&t, &cluster);
        let mut fair = SimConfig::quick().with_network_model(NetworkModel::Fair);
        fair.max_pending = 8; // bound concurrent flows; debug builds stay fast
        let r = run_faulted_with(&t, &cluster, &a, FaultPlan::new(), fair.clone());
        assert!(r.throughput["t"].steady_state(1).mean > 0.0);
        assert_eq!(r.totals.tuples_lost, 0, "a healthy fair run loses nothing");
        let net = r.network.as_ref().expect("fair runs export telemetry");
        // 6 NIC pairs + 2 trunk pairs + core for emulab(2, 3).
        assert_eq!(net.links.len(), 2 * 6 + 2 * 2 + 1);
        assert!(net.links.iter().any(|l| l.link.ends_with(".uplink")));
        assert!(
            net.links
                .iter()
                .filter(|l| l.link.ends_with(".uplink"))
                .any(|l| l.mb_carried > 0.0),
            "the spread placement pushes traffic through a trunk"
        );
        assert_eq!(net.trunk_utilization().len(), 2, "one entry per rack");
        assert!(
            r.inter_rack_mb > 0.0,
            "trunk bytes feed the inter_rack_mb metric"
        );
        // Determinism: the fair plane is driven by the same event queue.
        let r2 = run_faulted_with(&t, &cluster, &a, FaultPlan::new(), fair);
        assert_eq!(r, r2);
        assert_eq!(r.to_json(), r2.to_json());
    }

    #[test]
    fn fair_degradation_throttles_capacity_not_just_latency() {
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::network_bound(400), 15.0, 128.0);
        let a = spread_net_assignment(&t, &cluster);
        let mut fair = SimConfig::quick().with_network_model(NetworkModel::Fair);
        fair.max_pending = 8;
        let healthy = run_faulted_with(&t, &cluster, &a, FaultPlan::new(), fair.clone());
        // extra = 400 ms → capacity factor 0.2 for the whole run.
        let degraded = run_faulted_with(
            &t,
            &cluster,
            &a,
            FaultPlan::new().degrade_links(0.0, 60_000.0, 400.0),
            fair,
        );
        assert!(
            degraded.totals.tuples_completed < healthy.totals.tuples_completed,
            "a 5x capacity cut costs throughput: {} vs {}",
            degraded.totals.tuples_completed,
            healthy.totals.tuples_completed
        );
        assert_eq!(degraded.totals.tuples_lost, 0, "congestion, not loss");
    }

    #[test]
    fn fair_partition_severs_flows_mid_transfer_then_heals() {
        let cluster = emulab(2, 3);
        let t = linear_topology("t", 2, ExecutionProfile::network_bound(400), 15.0, 128.0);
        let a = spread_net_assignment(&t, &cluster);
        let mut fair = SimConfig::quick().with_network_model(NetworkModel::Fair);
        fair.max_pending = 8;
        let healthy = run_faulted_with(&t, &cluster, &a, FaultPlan::new(), fair.clone());
        assert!(healthy.inter_rack_mb > 0.0, "the trunk is exercised");
        let rack = cluster.racks()[0].as_str().to_owned();
        let partitioned = run_faulted_with(
            &t,
            &cluster,
            &a,
            FaultPlan::new().partition_rack(20_000.0, 35_000.0, &rack),
            fair,
        );
        assert!(
            partitioned.totals.tuples_lost > 0,
            "in-flight trunk flows are severed, not drained"
        );
        assert!(
            partitioned.totals.roots_timed_out > healthy.totals.roots_timed_out,
            "severed trees fail through the timeout path"
        );
        assert!(partitioned.inter_rack_mb < healthy.inter_rack_mb);
        let windows = &partitioned.throughput["t"].windows;
        assert!(
            *windows.last().unwrap() > 0.0,
            "flow resumed after the heal: {windows:?}"
        );
    }

    #[test]
    fn fair_colocation_beats_spreading_for_network_bound_work() {
        // The paper's Figure-8 argument at the network layer: under the
        // fair plane, R-Storm's proximity packing avoids the shared
        // trunks and NIC contention that an even spread pays for.
        let cluster = emulab(2, 6);
        let t = linear_topology("net", 6, ExecutionProfile::network_bound(400), 15.0, 128.0);
        let mut config = SimConfig::quick().with_network_model(NetworkModel::Fair);
        config.max_pending = 4;
        let r = run_with(&RStormScheduler::new(), &t, &cluster, config.clone());
        let e = run_with(&EvenScheduler::new(), &t, &cluster, config);
        let rt = r.throughput["net"].steady_state(2).mean;
        let et = e.throughput["net"].steady_state(2).mean;
        assert!(
            rt > et * 1.2,
            "proximity packing wins under contention: rstorm {rt} vs even {et}"
        );
        // The even spread pays in trunk traffic too.
        let trunk = |rep: &SimReport| {
            rep.network
                .as_ref()
                .unwrap()
                .links
                .iter()
                .filter(|l| l.link.ends_with(".uplink"))
                .map(|l| l.mb_carried)
                .sum::<f64>()
        };
        assert!(
            trunk(&e) > trunk(&r),
            "spreading crosses racks more: even {} MB vs rstorm {} MB",
            trunk(&e),
            trunk(&r)
        );
    }
}
