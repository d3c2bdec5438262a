//! The Nimbus-style recovery control loop.
//!
//! Storm's Nimbus daemon detects worker/node failures through missed
//! heartbeats and invokes the configured `IScheduler` to re-place the
//! displaced executors; the paper motivates doing this *quickly* — "if
//! executors are not rescheduled quickly, whole topologies may be
//! stalled" (§3). [`RecoveryManager`] reproduces that loop against this
//! workspace's scheduling core:
//!
//! * **Detection** — callers feed node heartbeats through
//!   [`RecoveryManager::observe_heartbeat`]; a node silent for
//!   `miss_threshold × heartbeat_interval_ms` is declared dead on the
//!   next [`RecoveryManager::tick`], which kills it in the [`Cluster`],
//!   fails it in [`GlobalState`] and releases every displaced topology.
//! * **Rescheduling** — displaced topologies are re-placed through the
//!   live scheduler. An unschedulable topology retries with exponential
//!   backoff plus deterministic seeded jitter, never busy-looping against
//!   a cluster that cannot fit it.
//! * **Graceful degradation** — when the full topology does not fit the
//!   survivors, the manager places a best-effort subset instead of
//!   failing: components are considered in BFS order and a component is
//!   only placed when all its upstream components were placed (a bolt
//!   without its upstream would never see a tuple), each component
//!   placed atomically via an [`UndoLog`](crate::UndoLog) so the hard
//!   memory constraint is never violated by a partial component. The
//!   resulting [`Assignment`] declares the remainder
//!   [`unplaced`](Assignment::unplaced) — an explicit, verifiable
//!   deficit rather than a silent gap — and the manager keeps retrying
//!   (with backoff) to upgrade it to a full placement, e.g. once the
//!   node recovers and capacity returns.

use crate::assignment::Assignment;
use crate::control::{ControlJournal, ControlRecord, FlapKind};
use crate::global_state::GlobalState;
use crate::resource::SoftConstraintWeights;
use crate::rstorm::Placement;
use crate::scheduler::Scheduler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rstorm_cluster::Cluster;
use rstorm_topology::{bfs_component_order, TaskId, Topology, TopologyId};
use std::collections::{BTreeMap, BTreeSet};

/// Tuning knobs of the recovery loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryConfig {
    /// Expected gap between two heartbeats of a healthy node.
    pub heartbeat_interval_ms: f64,
    /// Consecutive missed heartbeats before a node is declared dead
    /// (Storm's `nimbus.task.timeout` analog).
    pub miss_threshold: u32,
    /// First retry delay after an unschedulable reschedule attempt.
    pub backoff_base_ms: f64,
    /// Ceiling of the exponential backoff.
    pub backoff_max_ms: f64,
    /// Seed of the deterministic jitter added to each backoff delay.
    pub jitter_seed: u64,
    /// Consecutive heartbeats a declared-dead node must deliver before it
    /// is trusted and readmitted — the "M beats to trust" half of the
    /// suspicion hysteresis (`miss_threshold` is the "K misses to
    /// declare" half). A single missed beat resets the count. The default
    /// of 1 readmits on the first returning beat, the pre-hysteresis
    /// behavior.
    pub trust_threshold: u32,
    /// Minimum interval between two full reschedules of the same
    /// topology. A reschedule falling due earlier is deferred (and
    /// counted in [`RecoveryManager::suppressed_flaps`]) so a flapping
    /// node cannot thrash the scheduler. The default of 0 disables the
    /// limiter.
    pub min_reschedule_interval_ms: f64,
    /// Attach a [`ControlJournal`] and append every control decision to
    /// it before acting — the durable state a successor replays after a
    /// Nimbus outage ([`RecoveryManager::reassume`]). Journaling is
    /// strictly passive: it never changes what the live manager
    /// decides, so the default of `false` (no journal) is behaviorally
    /// identical, not just bit-identical.
    pub journal: bool,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            heartbeat_interval_ms: 1_000.0,
            miss_threshold: 3,
            backoff_base_ms: 500.0,
            backoff_max_ms: 30_000.0,
            jitter_seed: 42,
            trust_threshold: 1,
            min_reschedule_interval_ms: 0.0,
            journal: false,
        }
    }
}

impl RecoveryConfig {
    /// The silence that declares a node dead:
    /// `miss_threshold × heartbeat_interval_ms`. The detector uses this
    /// exact expression, so oracles built on it cannot drift from it.
    pub fn detection_window_ms(&self) -> f64 {
        self.heartbeat_interval_ms * f64::from(self.miss_threshold)
    }

    /// The outage length beyond which a missing dead declaration is a
    /// detection-liveness bug: the detection window plus
    /// [`RecoveryManager::DETECTION_SLACK_INTERVALS`] intervals of
    /// slack for tick alignment.
    pub fn detection_slack_ms(&self) -> f64 {
        f64::from(self.miss_threshold + RecoveryManager::DETECTION_SLACK_INTERVALS)
            * self.heartbeat_interval_ms
    }
}

/// What a [`RecoveryManager::tick`] did, in occurrence order.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryEvent {
    /// A node exceeded the heartbeat-miss threshold and was removed from
    /// the schedulable pool.
    NodeDeclaredDead {
        /// The failed node.
        node: String,
        /// Tick time of the declaration.
        at_ms: f64,
        /// Time since the node's last heartbeat.
        time_to_detect_ms: f64,
        /// Topologies that had tasks on the node, now awaiting
        /// rescheduling.
        displaced: Vec<TopologyId>,
    },
    /// A declared-dead node heartbeated again and rejoined the pool.
    NodeRecovered {
        /// The recovered node.
        node: String,
        /// Tick time of the recovery.
        at_ms: f64,
    },
    /// A displaced topology was re-placed (fully if `unplaced == 0`,
    /// degraded otherwise; a degraded topology stays queued for an
    /// upgrade retry).
    TopologyRescheduled {
        /// The re-placed topology.
        topology: TopologyId,
        /// Tick time of the placement.
        at_ms: f64,
        /// Reschedule attempts this topology has consumed so far.
        attempts: u32,
        /// Tasks the surviving cluster could not fit (0 = full).
        unplaced: usize,
    },
    /// Not even a degraded placement fit; the retry was pushed back with
    /// exponential backoff.
    RescheduleDeferred {
        /// The still-unplaced topology.
        topology: TopologyId,
        /// Tick time of the attempt.
        at_ms: f64,
        /// Reschedule attempts this topology has consumed so far.
        attempts: u32,
        /// When the next attempt becomes due.
        retry_at_ms: f64,
    },
}

#[derive(Debug, Clone, Copy)]
struct Retry {
    attempts: u32,
    next_try_ms: f64,
}

/// Heartbeat-driven failure detector and rescheduling loop. See the
/// module docs.
#[derive(Debug)]
pub struct RecoveryManager {
    config: RecoveryConfig,
    last_heartbeat: BTreeMap<String, f64>,
    declared_dead: BTreeSet<String>,
    /// Consecutive beats each declared-dead node has delivered since its
    /// last miss — the trust-hysteresis counter. Entries exist only for
    /// dead nodes and are dropped on readmission.
    consecutive_beats: BTreeMap<String, u32>,
    pending: BTreeMap<TopologyId, Retry>,
    /// When each topology was last actually handed to the scheduler, for
    /// the churn limiter.
    last_reschedule_ms: BTreeMap<TopologyId, f64>,
    rng: StdRng,
    total_reschedule_attempts: u64,
    suppressed_readmissions: u64,
    suppressed_reschedules: u64,
    journal: Option<ControlJournal>,
}

impl RecoveryManager {
    /// Extra heartbeat intervals of slack granted on top of the
    /// detection window before a missing dead declaration counts as a
    /// liveness bug: one interval for tick alignment of the last beat,
    /// one for the declaration tick itself. Shared by the detector
    /// ([`RecoveryConfig::detection_slack_ms`]) and the fuzz oracle so
    /// the two cannot drift apart.
    pub const DETECTION_SLACK_INTERVALS: u32 = 2;

    /// Creates a manager with no heartbeat history.
    pub fn new(config: RecoveryConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.jitter_seed);
        let journal = config.journal.then(ControlJournal::new);
        Self {
            config,
            last_heartbeat: BTreeMap::new(),
            declared_dead: BTreeSet::new(),
            consecutive_beats: BTreeMap::new(),
            pending: BTreeMap::new(),
            last_reschedule_ms: BTreeMap::new(),
            rng,
            total_reschedule_attempts: 0,
            suppressed_readmissions: 0,
            suppressed_reschedules: 0,
            journal,
        }
    }

    /// A successor taking over at `now_ms` after the predecessor
    /// crashed — the Nimbus failover path.
    ///
    /// With a journal, the successor replays it (idempotency keys
    /// applied at most once) and **reconciles** against the live
    /// cluster:
    ///
    /// * assignments already committed to [`GlobalState`] are adopted
    ///   as-is — no from-scratch reschedule of healthy topologies;
    /// * every journal-known-alive node in `roster` is seeded with a
    ///   handoff heartbeat one interval old, so a node that died while
    ///   the control plane was down (state diverged from the journal's
    ///   belief) is re-declared dead within the ordinary detection
    ///   window instead of never;
    /// * pending retries resume with their journaled attempt counts, so
    ///   exponential backoff continues rather than restarting, and
    ///   deadlines that expired during the outage become due at the
    ///   first tick.
    ///
    /// Without a journal the successor is cold: no roster, no dead set,
    /// no pending queue. It learns only from post-failover heartbeats,
    /// so a node that went silent during the outage is never observed
    /// and never declared — the blind spot the journal exists to close.
    ///
    /// Returns the successor and the number of journal decisions
    /// replayed.
    pub fn reassume(
        config: RecoveryConfig,
        journal: Option<ControlJournal>,
        now_ms: f64,
        roster: &[String],
    ) -> (Self, u64) {
        let mut successor = Self::new(config);
        let Some(journal) = journal else {
            return (successor, 0);
        };
        let replayed = journal.replay();
        for node in roster {
            if !replayed.dead.contains(node) {
                successor.last_heartbeat.insert(
                    node.clone(),
                    now_ms - successor.config.heartbeat_interval_ms,
                );
            }
        }
        successor.declared_dead = replayed.dead;
        for (topology, (attempts, retry_at_ms)) in &replayed.pending {
            successor.pending.insert(
                TopologyId::new(topology.clone()),
                Retry {
                    attempts: *attempts,
                    next_try_ms: retry_at_ms.max(now_ms),
                },
            );
        }
        for (topology, at_ms) in &replayed.last_reschedule_ms {
            successor
                .last_reschedule_ms
                .insert(TopologyId::new(topology.clone()), *at_ms);
        }
        successor.total_reschedule_attempts = replayed.reschedule_attempts;
        successor.suppressed_readmissions = replayed.suppressed_readmissions;
        successor.suppressed_reschedules = replayed.suppressed_reschedules;
        let applied = replayed.applied;
        successor.journal = Some(journal);
        (successor, applied)
    }

    /// The attached write-ahead journal, when
    /// [`RecoveryConfig::journal`] is enabled.
    pub fn journal(&self) -> Option<&ControlJournal> {
        self.journal.as_ref()
    }

    /// Detaches and returns the journal — what a crashing predecessor
    /// leaves behind for [`RecoveryManager::reassume`].
    pub fn take_journal(&mut self) -> Option<ControlJournal> {
        self.journal.take()
    }

    /// Appends to the journal when one is attached; a no-op otherwise.
    fn log(&mut self, record: ControlRecord) {
        if let Some(journal) = &mut self.journal {
            journal.append(record);
        }
    }

    /// Records a heartbeat from `node` at `now_ms`. Only nodes with at
    /// least one observed heartbeat are subject to failure detection.
    pub fn observe_heartbeat(&mut self, node: &str, now_ms: f64) {
        // Look the node up before inserting: a key is allocated only the
        // first time a node is seen, not on every tick.
        if let Some(last) = self.last_heartbeat.get_mut(node) {
            *last = last.max(now_ms);
        } else {
            self.last_heartbeat.insert(node.to_owned(), now_ms);
        }
        // `consecutive_beats` only holds declared-dead nodes.
        if let Some(beats) = self.consecutive_beats.get_mut(node) {
            *beats += 1;
        } else if self.declared_dead.contains(node) {
            self.consecutive_beats.insert(node.to_owned(), 1);
        }
    }

    /// Scheduler invocations spent on recovery rescheduling so far.
    pub fn reschedule_attempts(&self) -> u64 {
        self.total_reschedule_attempts
    }

    /// Flap events the manager absorbed instead of acting on:
    /// readmissions withheld by the trust hysteresis plus reschedules
    /// deferred by the churn limiter. Zero with the default (neutral)
    /// configuration.
    pub fn suppressed_flaps(&self) -> u64 {
        self.suppressed_readmissions + self.suppressed_reschedules
    }

    /// Nodes currently declared dead, in name order.
    pub fn dead_nodes(&self) -> impl Iterator<Item = &str> {
        self.declared_dead.iter().map(String::as_str)
    }

    /// True if any displaced topology still awaits a (full) placement.
    pub fn has_pending_reschedules(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Runs one control-loop iteration at `now_ms`: detect newly dead
    /// nodes, readmit recovered ones, and re-place every displaced
    /// topology whose retry is due. Returns what happened.
    ///
    /// `topologies` must contain every topology the plan may reference;
    /// displaced topologies missing from it are dropped from the retry
    /// queue (they can never be re-placed).
    pub fn tick<S: Scheduler + ?Sized>(
        &mut self,
        now_ms: f64,
        cluster: &mut Cluster,
        state: &mut GlobalState,
        scheduler: &S,
        topologies: &[&Topology],
    ) -> Vec<RecoveryEvent> {
        let mut events = Vec::new();
        self.detect(now_ms, cluster, state, &mut events);
        self.reschedule_due(now_ms, cluster, state, scheduler, topologies, &mut events);
        events
    }

    fn detect(
        &mut self,
        now_ms: f64,
        cluster: &mut Cluster,
        state: &mut GlobalState,
        events: &mut Vec<RecoveryEvent>,
    ) {
        let window = self.config.detection_window_ms();
        let nodes: Vec<(String, f64)> = self
            .last_heartbeat
            .iter()
            .map(|(n, &t)| (n.clone(), t))
            .collect();
        for (node, last) in nodes {
            let silent = now_ms - last >= window;
            if silent && !self.declared_dead.contains(&node) {
                self.log(ControlRecord::DeclareDead {
                    at_ms: now_ms,
                    node: node.clone(),
                });
                cluster.kill_node(&node);
                let displaced = state.handle_node_failure(&node);
                for tid in &displaced {
                    state.release_topology(tid.as_str());
                    self.pending.entry(tid.clone()).or_insert(Retry {
                        attempts: 0,
                        next_try_ms: now_ms,
                    });
                }
                self.declared_dead.insert(node.clone());
                events.push(RecoveryEvent::NodeDeclaredDead {
                    node,
                    at_ms: now_ms,
                    time_to_detect_ms: now_ms - last,
                    displaced,
                });
            } else if !silent && self.declared_dead.contains(&node) {
                // Trust hysteresis (active when `trust_threshold > 1`; 1
                // keeps the legacy readmit-on-first-beat behavior): a
                // returning node must deliver `trust_threshold`
                // consecutive beats before it rejoins the pool, and a
                // single miss restarts the streak — a flapper stays out.
                if self.config.trust_threshold > 1 {
                    if now_ms - last >= self.config.heartbeat_interval_ms {
                        // It went quiet again since its last beat.
                        self.consecutive_beats.insert(node.clone(), 0);
                        continue;
                    }
                    let beats = self.consecutive_beats.get(&node).copied().unwrap_or(0);
                    if beats < self.config.trust_threshold {
                        self.suppressed_readmissions += 1;
                        self.log(ControlRecord::SuppressFlap {
                            at_ms: now_ms,
                            subject: node.clone(),
                            kind: FlapKind::Readmission,
                        });
                        continue;
                    }
                }
                self.consecutive_beats.remove(&node);
                self.log(ControlRecord::DeclareAlive {
                    at_ms: now_ms,
                    node: node.clone(),
                });
                cluster.revive_node(&node);
                state.handle_node_recovery(&node);
                self.declared_dead.remove(&node);
                // Fresh capacity: give every degraded topology an
                // immediate upgrade attempt instead of waiting out its
                // backoff.
                let degraded: Vec<TopologyId> = state
                    .plan()
                    .iter()
                    .filter(|a| a.is_degraded())
                    .map(|a| a.topology().clone())
                    .collect();
                for tid in degraded {
                    let retry = self.pending.entry(tid).or_insert(Retry {
                        attempts: 0,
                        next_try_ms: now_ms,
                    });
                    retry.next_try_ms = retry.next_try_ms.min(now_ms);
                }
                events.push(RecoveryEvent::NodeRecovered {
                    node,
                    at_ms: now_ms,
                });
            } else if silent {
                // Still dead and silent for a full window again: any
                // partial trust streak is broken.
                self.consecutive_beats.remove(&node);
            }
        }
    }

    fn reschedule_due<S: Scheduler + ?Sized>(
        &mut self,
        now_ms: f64,
        cluster: &Cluster,
        state: &mut GlobalState,
        scheduler: &S,
        topologies: &[&Topology],
        events: &mut Vec<RecoveryEvent>,
    ) {
        let due: Vec<TopologyId> = self
            .pending
            .iter()
            .filter(|(_, r)| r.next_try_ms <= now_ms)
            .map(|(t, _)| t.clone())
            .collect();
        for tid in due {
            let Some(topology) = topologies.iter().find(|t| t.id() == &tid) else {
                self.pending.remove(&tid);
                continue;
            };
            // Churn limiter: a topology rescheduled less than
            // `min_reschedule_interval_ms` ago is deferred, not re-placed
            // — a flapping node pulling retries forward on every return
            // beat cannot thrash the scheduler. The deferred attempt
            // stays queued for when the quiet period ends.
            if self.config.min_reschedule_interval_ms > 0.0 {
                if let Some(&last) = self.last_reschedule_ms.get(&tid) {
                    let earliest = last + self.config.min_reschedule_interval_ms;
                    if now_ms < earliest {
                        // A topology that left the queue since `due`
                        // was computed has nothing to defer: skip it
                        // instead of panicking on the stale lookup.
                        let Some(retry) = self.pending.get_mut(&tid) else {
                            continue;
                        };
                        retry.next_try_ms = earliest;
                        let attempts = retry.attempts;
                        self.suppressed_reschedules += 1;
                        self.log(ControlRecord::SuppressFlap {
                            at_ms: now_ms,
                            subject: tid.as_str().to_owned(),
                            kind: FlapKind::Reschedule,
                        });
                        events.push(RecoveryEvent::RescheduleDeferred {
                            topology: tid,
                            at_ms: now_ms,
                            attempts,
                            retry_at_ms: earliest,
                        });
                        continue;
                    }
                }
            }
            // A stale entry that left the queue since `due` was
            // computed is skipped, not unwrapped.
            let attempts = {
                let Some(retry) = self.pending.get_mut(&tid) else {
                    continue;
                };
                retry.attempts += 1;
                retry.attempts
            };
            // A degraded placement from an earlier attempt is released so
            // this attempt can try for a strictly better one.
            let previous = if state
                .plan()
                .assignment(tid.as_str())
                .is_some_and(Assignment::is_degraded)
            {
                state.release_topology(tid.as_str())
            } else {
                None
            };
            self.total_reschedule_attempts += 1;
            self.last_reschedule_ms.insert(tid.clone(), now_ms);
            match scheduler.schedule(topology, cluster, state) {
                Ok(assignment) => {
                    self.log(ControlRecord::Reschedule {
                        at_ms: now_ms,
                        topology: tid.as_str().to_owned(),
                        attempts,
                        unplaced: assignment.unplaced().len(),
                    });
                    self.pending.remove(&tid);
                    events.push(RecoveryEvent::TopologyRescheduled {
                        topology: tid,
                        at_ms: now_ms,
                        attempts,
                        unplaced: assignment.unplaced().len(),
                    });
                }
                Err(_) => {
                    let degraded = place_degraded(topology, cluster, state);
                    let retry_at = self.next_backoff(now_ms, attempts);
                    match degraded {
                        Some(assignment) => {
                            // Partially running beats not running; keep
                            // the topology queued for an upgrade.
                            self.log(ControlRecord::Reschedule {
                                at_ms: now_ms,
                                topology: tid.as_str().to_owned(),
                                attempts,
                                unplaced: assignment.unplaced().len(),
                            });
                            if let Some(retry) = self.pending.get_mut(&tid) {
                                retry.next_try_ms = retry_at;
                            }
                            events.push(RecoveryEvent::TopologyRescheduled {
                                topology: tid,
                                at_ms: now_ms,
                                attempts,
                                unplaced: assignment.unplaced().len(),
                            });
                        }
                        None => {
                            // Nothing fit at all. If this attempt had
                            // released a previous degraded placement,
                            // restore it — shrinking to zero would be a
                            // regression, not degradation.
                            if let Some(prev) = previous {
                                restore_assignment(topology, &prev, cluster, state);
                            }
                            self.log(ControlRecord::Defer {
                                at_ms: now_ms,
                                topology: tid.as_str().to_owned(),
                                attempts,
                                retry_at_ms: retry_at,
                            });
                            if let Some(retry) = self.pending.get_mut(&tid) {
                                retry.next_try_ms = retry_at;
                            }
                            events.push(RecoveryEvent::RescheduleDeferred {
                                topology: tid,
                                at_ms: now_ms,
                                attempts,
                                retry_at_ms: retry_at,
                            });
                        }
                    }
                }
            }
        }
    }

    /// `now + min(base·2^(attempts-1), max) + jitter`, jitter uniform in
    /// `[0, base)` from the seeded generator — deterministic for a given
    /// config and call sequence, yet de-synchronized across topologies.
    fn next_backoff(&mut self, now_ms: f64, attempts: u32) -> f64 {
        let exponent = i32::try_from(attempts.saturating_sub(1).min(30)).expect("capped at 30");
        let delay = (self.config.backoff_base_ms * f64::powi(2.0, exponent))
            .min(self.config.backoff_max_ms);
        let jitter = self
            .rng
            .gen_range(0.0..self.config.backoff_base_ms.max(1.0));
        now_ms + delay + jitter
    }
}

/// Best-effort placement of `topology` on the surviving cluster.
///
/// Components are visited in BFS order (the same order the full
/// scheduler uses) and a component is eligible only when every upstream
/// component was itself placed — a tuple must have a complete path from
/// a spout to reach it. Each component's tasks go through the scheduler's
/// own placement loop ([`Placement`], Algorithm-4 node selection, which
/// enforces the hard memory constraint) as one atomic batch: if any task
/// of the component does not fit, the whole component rolls back
/// bit-exactly and is declared unplaced. Returns `None` when not a single
/// component fit, leaving `state` untouched.
fn place_degraded(
    topology: &Topology,
    cluster: &Cluster,
    state: &mut GlobalState,
) -> Option<Assignment> {
    let weights = SoftConstraintWeights::default();
    let mut placement = Placement::new(cluster, &weights, state, topology.id());
    let task_set = topology.task_set();
    let mut placed_components: BTreeSet<String> = BTreeSet::new();
    let mut unplaced: BTreeSet<TaskId> = BTreeSet::new();

    for component in bfs_component_order(topology) {
        let component = component.as_str();
        let upstream_complete = topology
            .upstream_ids(component)
            .iter()
            .all(|u| placed_components.contains(u.as_str()));
        let tasks = task_set.tasks_of(component);
        let placed = upstream_complete
            && placement
                .place(cluster, state, &task_set, tasks.iter().copied())
                .is_ok();
        if placed {
            placed_components.insert(component.to_owned());
        } else {
            unplaced.extend(tasks.iter().copied());
        }
    }

    if placement.is_empty() {
        return None;
    }
    let assignment =
        Assignment::with_unplaced(topology.id().clone(), placement.into_slots(), unplaced);
    state.commit(assignment.clone());
    Some(assignment)
}

/// Re-reserves and re-commits a previously released (degraded)
/// assignment. Reservations on nodes that died in the meantime are
/// dropped, exactly as [`GlobalState::rebuild`] treats them.
fn restore_assignment(
    topology: &Topology,
    assignment: &Assignment,
    cluster: &Cluster,
    state: &mut GlobalState,
) {
    let tid = assignment.topology().clone();
    let task_set = topology.task_set();
    for (task, slot) in assignment.iter() {
        if let Some(request) = task_set.resources(task) {
            let _ = state.reserve(&tid, &slot.node, request);
        }
        let _ = state.slot_for(cluster, &tid, &slot.node);
    }
    state.commit(assignment.clone());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rstorm::RStormScheduler;
    use crate::verify::{verify_plan, Violation};
    use rstorm_cluster::{ClusterBuilder, ResourceCapacity};
    use rstorm_topology::TopologyBuilder;

    fn two_node_cluster(memory_mb: f64) -> Cluster {
        ClusterBuilder::new()
            .add_node(
                "n0",
                "r0",
                ResourceCapacity::new(400.0, memory_mb, 100.0),
                4,
            )
            .add_node(
                "n1",
                "r0",
                ResourceCapacity::new(400.0, memory_mb, 100.0),
                4,
            )
            .build()
            .unwrap()
    }

    fn linear(name: &str, parallelism: u32, mem: f64) -> Topology {
        let mut b = TopologyBuilder::new(name);
        b.set_spout("s", parallelism)
            .set_cpu_load(10.0)
            .set_memory_load(mem);
        b.set_bolt("k", parallelism)
            .shuffle_grouping("s")
            .set_cpu_load(10.0)
            .set_memory_load(mem);
        b.build().unwrap()
    }

    struct Harness {
        cluster: Cluster,
        state: GlobalState,
        scheduler: RStormScheduler,
        manager: RecoveryManager,
    }

    fn harness(cluster: Cluster, topology: &Topology, config: RecoveryConfig) -> Harness {
        let mut state = GlobalState::new(&cluster);
        let scheduler = RStormScheduler::new();
        scheduler.schedule(topology, &cluster, &mut state).unwrap();
        Harness {
            cluster,
            state,
            scheduler,
            manager: RecoveryManager::new(config),
        }
    }

    /// One heartbeat round + tick: every node except those in `down`
    /// heartbeats at `t`.
    fn step(h: &mut Harness, topology: &Topology, t: f64, down: &[&str]) -> Vec<RecoveryEvent> {
        let names: Vec<String> = h
            .cluster
            .nodes()
            .iter()
            .map(|n| n.id().as_str().to_owned())
            .collect();
        for name in names {
            if !down.contains(&name.as_str()) {
                h.manager.observe_heartbeat(&name, t);
            }
        }
        h.manager
            .tick(t, &mut h.cluster, &mut h.state, &h.scheduler, &[topology])
    }

    #[test]
    fn silence_is_detected_after_the_miss_threshold() {
        // The small topology colocates entirely on n0, so n0 is the
        // victim whose loss displaces it.
        let t = linear("t", 2, 128.0);
        let mut h = harness(two_node_cluster(2048.0), &t, RecoveryConfig::default());
        assert!(step(&mut h, &t, 0.0, &[]).is_empty());
        // n0 goes silent after t=0; threshold is 3 × 1000 ms.
        assert!(step(&mut h, &t, 1_000.0, &["n0"]).is_empty());
        assert!(step(&mut h, &t, 2_000.0, &["n0"]).is_empty());
        let events = step(&mut h, &t, 3_000.0, &["n0"]);
        match &events[0] {
            RecoveryEvent::NodeDeclaredDead {
                node,
                at_ms,
                time_to_detect_ms,
                displaced,
            } => {
                assert_eq!(node, "n0");
                assert_eq!(*at_ms, 3_000.0);
                assert_eq!(*time_to_detect_ms, 3_000.0);
                assert_eq!(displaced.len(), 1, "the topology lived on n0");
            }
            other => panic!("expected NodeDeclaredDead, got {other:?}"),
        }
        assert!(!h.cluster.is_alive("n0"));
        assert_eq!(h.manager.dead_nodes().collect::<Vec<_>>(), ["n0"]);
    }

    #[test]
    fn displaced_topology_is_rescheduled_onto_survivors() {
        // The small topology colocates on n0; kill n0 and it must be
        // fully re-placed on the survivor.
        let t = linear("t", 2, 128.0);
        let mut h = harness(two_node_cluster(2048.0), &t, RecoveryConfig::default());
        step(&mut h, &t, 0.0, &[]);
        for ms in 1..3 {
            step(&mut h, &t, f64::from(ms) * 1_000.0, &["n0"]);
        }
        let events = step(&mut h, &t, 3_000.0, &["n0"]);
        // Detection and the full re-placement happen in the same tick:
        // the survivor has room for all four tasks.
        assert!(matches!(
            events[1],
            RecoveryEvent::TopologyRescheduled {
                attempts: 1,
                unplaced: 0,
                ..
            }
        ));
        let assignment = h.state.plan().assignment("t").unwrap();
        assert_eq!(assignment.len(), 4);
        assert!(assignment
            .iter()
            .all(|(_, slot)| slot.node.as_str() == "n1"));
        assert!(!h.manager.has_pending_reschedules());
        assert!(verify_plan(h.state.plan(), &[&t], &h.cluster).is_empty());
    }

    #[test]
    fn degraded_placement_respects_memory_and_upstream_order() {
        // 2 + 2 tasks × 700 MB: fits two 2048 MB nodes, not one. After
        // n1 dies only the spout component fits the survivor.
        let t = linear("t", 2, 700.0);
        let mut h = harness(two_node_cluster(2048.0), &t, RecoveryConfig::default());
        step(&mut h, &t, 0.0, &[]);
        for ms in 1..3 {
            step(&mut h, &t, f64::from(ms) * 1_000.0, &["n1"]);
        }
        let events = step(&mut h, &t, 3_000.0, &["n1"]);
        let Some(RecoveryEvent::TopologyRescheduled { unplaced, .. }) = events.get(1) else {
            panic!("expected a degraded TopologyRescheduled, got {events:?}");
        };
        assert_eq!(*unplaced, 2, "the bolt component is deferred");
        let assignment = h.state.plan().assignment("t").unwrap();
        assert!(assignment.is_degraded());
        let task_set = t.task_set();
        for &task in task_set.tasks_of("s") {
            assert!(assignment.slot_of(task).is_some(), "spouts are placed");
        }
        for &task in task_set.tasks_of("k") {
            assert!(assignment.unplaced().contains(&task), "bolts are declared");
        }
        // The explicit deficit passes verification; memory is not
        // overcommitted.
        let violations = verify_plan(h.state.plan(), &[&t], &h.cluster);
        assert!(
            violations.is_empty(),
            "degraded plan must verify cleanly: {violations:?}"
        );
        assert!(h.manager.has_pending_reschedules(), "upgrade still queued");
    }

    #[test]
    fn node_recovery_upgrades_a_degraded_placement() {
        let t = linear("t", 2, 700.0);
        let mut h = harness(two_node_cluster(2048.0), &t, RecoveryConfig::default());
        step(&mut h, &t, 0.0, &[]);
        for ms in 1..4 {
            step(&mut h, &t, f64::from(ms) * 1_000.0, &["n1"]);
        }
        assert!(h.state.plan().assignment("t").unwrap().is_degraded());
        // n1 heartbeats again: readmitted, and the pending upgrade
        // becomes due immediately.
        let events = step(&mut h, &t, 4_000.0, &[]);
        assert!(matches!(
            events[0],
            RecoveryEvent::NodeRecovered { ref node, .. } if node == "n1"
        ));
        assert!(matches!(
            events[1],
            RecoveryEvent::TopologyRescheduled { unplaced: 0, .. }
        ));
        let assignment = h.state.plan().assignment("t").unwrap();
        assert!(!assignment.is_degraded());
        assert_eq!(assignment.len(), 4);
        assert!(!h.manager.has_pending_reschedules());
        assert!(h.cluster.is_alive("n1"));
        assert!(verify_plan(h.state.plan(), &[&t], &h.cluster).is_empty());
    }

    #[test]
    fn unschedulable_topology_backs_off_exponentially() {
        // The spout component alone (2 × 1600 MB) exceeds the surviving
        // 3000 MB node, so after the failure not even a degraded
        // placement fits: every attempt is a total failure and must be
        // deferred with exponentially growing delays.
        let mut b = TopologyBuilder::new("t");
        b.set_spout("s", 2)
            .set_cpu_load(10.0)
            .set_memory_load(1_600.0);
        b.set_bolt("k", 2)
            .shuffle_grouping("s")
            .set_cpu_load(10.0)
            .set_memory_load(100.0);
        let t = b.build().unwrap();
        let mut h = harness(two_node_cluster(3_000.0), &t, RecoveryConfig::default());
        step(&mut h, &t, 0.0, &[]);
        for ms in 1..3 {
            step(&mut h, &t, f64::from(ms) * 1_000.0, &["n1"]);
        }
        let mut retries = Vec::new();
        let mut now = 3_000.0;
        for _ in 0..4 {
            let events = step(&mut h, &t, now, &["n1"]);
            // Jump straight to the scheduled retry so every loop
            // iteration performs exactly one more attempt.
            let mut next = now + 1.0;
            for e in events {
                if let RecoveryEvent::RescheduleDeferred {
                    retry_at_ms, at_ms, ..
                } = e
                {
                    retries.push(retry_at_ms - at_ms);
                    next = next.max(retry_at_ms);
                }
            }
            now = next;
        }
        assert_eq!(retries.len(), 4, "every attempt defers: {retries:?}");
        for (i, gap) in retries.iter().enumerate() {
            // Attempt n waits base·2^(n-1) + jitter, jitter ∈ [0, base).
            let floor = 500.0 * f64::powi(2.0, i32::try_from(i).unwrap());
            assert!(
                *gap >= floor && *gap < floor + 500.0,
                "retry {i} gap {gap} outside [{floor}, {floor} + 500)"
            );
        }
        assert!(
            h.state.plan().assignment("t").is_none(),
            "nothing could be placed"
        );
        assert!(h.manager.has_pending_reschedules(), "still queued");
    }

    #[test]
    fn backoff_jitter_is_deterministic_per_seed() {
        let mut a = RecoveryManager::new(RecoveryConfig::default());
        let mut b = RecoveryManager::new(RecoveryConfig::default());
        let mut c = RecoveryManager::new(RecoveryConfig {
            jitter_seed: 7,
            ..RecoveryConfig::default()
        });
        let seq_a: Vec<f64> = (1..6).map(|n| a.next_backoff(0.0, n)).collect();
        let seq_b: Vec<f64> = (1..6).map(|n| b.next_backoff(0.0, n)).collect();
        let seq_c: Vec<f64> = (1..6).map(|n| c.next_backoff(0.0, n)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same jitter sequence");
        assert_ne!(seq_a, seq_c, "different seed decorrelates");
        // The exponential delay is capped at backoff_max_ms.
        let mut m = RecoveryManager::new(RecoveryConfig::default());
        let capped = m.next_backoff(0.0, 30);
        assert!(capped <= 30_000.0 + 500.0, "cap applies: {capped}");
    }

    #[test]
    fn tick_without_failures_is_a_no_op() {
        let t = linear("t", 2, 128.0);
        let mut h = harness(two_node_cluster(2048.0), &t, RecoveryConfig::default());
        let before = format!("{:?}", h.state.plan());
        for ms in 0..10 {
            assert!(step(&mut h, &t, f64::from(ms) * 1_000.0, &[]).is_empty());
        }
        assert_eq!(format!("{:?}", h.state.plan()), before);
        assert_eq!(h.manager.reschedule_attempts(), 0);
    }

    /// Flap injection: n1 beats on even ticks and misses on odd ones.
    /// With a 1-miss suspicion threshold each miss re-declares it and
    /// each beat pulls the degraded topology's upgrade retry forward —
    /// exactly the thrash pattern the churn limiter absorbs.
    #[test]
    fn flapping_node_triggers_at_most_one_reschedule_under_the_churn_limiter() {
        // 2 + 2 tasks × 700 MB span both 2048 MB nodes, so losing n1
        // degrades the topology and every readmission queues an upgrade
        // that would land work right back on the flapper.
        let t = linear("t", 2, 700.0);
        let config = RecoveryConfig {
            miss_threshold: 1,
            trust_threshold: 1,
            min_reschedule_interval_ms: 60_000.0,
            ..RecoveryConfig::default()
        };
        let mut h = harness(two_node_cluster(2048.0), &t, config);
        step(&mut h, &t, 0.0, &[]);
        let mut rescheduled = 0u32;
        let mut deferred = 0u32;
        for tick in 1..12 {
            let down: &[&str] = if tick % 2 == 1 { &["n1"] } else { &[] };
            for e in step(&mut h, &t, f64::from(tick) * 1_000.0, down) {
                match e {
                    RecoveryEvent::TopologyRescheduled { .. } => rescheduled += 1,
                    RecoveryEvent::RescheduleDeferred { .. } => deferred += 1,
                    _ => {}
                }
            }
        }
        assert_eq!(
            rescheduled, 1,
            "the flapper gets exactly the initial re-placement"
        );
        assert_eq!(h.manager.reschedule_attempts(), 1, "one scheduler call");
        assert!(deferred >= 2, "later flap cycles defer: {deferred}");
        assert_eq!(h.manager.suppressed_flaps(), u64::from(deferred));
    }

    #[test]
    fn trust_hysteresis_keeps_a_flapper_out_and_readmits_after_a_streak() {
        let t = linear("t", 2, 128.0);
        let config = RecoveryConfig {
            miss_threshold: 1,
            trust_threshold: 3,
            ..RecoveryConfig::default()
        };
        let mut h = harness(two_node_cluster(2048.0), &t, config);
        step(&mut h, &t, 0.0, &[]);
        // One miss declares n0 dead (threshold 1).
        let events = step(&mut h, &t, 1_000.0, &["n0"]);
        assert!(matches!(events[0], RecoveryEvent::NodeDeclaredDead { .. }));
        // Strict alternation: single beats never reach the 3-beat trust
        // streak, so the flapper is never readmitted.
        for tick in 2..10 {
            let down: &[&str] = if tick % 2 == 1 { &["n0"] } else { &[] };
            let events = step(&mut h, &t, f64::from(tick) * 1_000.0, down);
            assert!(
                !events
                    .iter()
                    .any(|e| matches!(e, RecoveryEvent::NodeRecovered { .. })),
                "flapper readmitted at tick {tick}: {events:?}"
            );
        }
        assert!(h.manager.dead_nodes().any(|n| n == "n0"));
        assert!(h.manager.suppressed_flaps() > 0, "withheld readmissions");
        // Three consecutive beats rebuild trust and readmit.
        let mut recovered = false;
        for tick in 10..14 {
            let events = step(&mut h, &t, f64::from(tick) * 1_000.0, &[]);
            recovered |= events.iter().any(
                |e| matches!(e, RecoveryEvent::NodeRecovered { ref node, .. } if node == "n0"),
            );
        }
        assert!(recovered, "a steady streak earns readmission");
        assert!(h.cluster.is_alive("n0"));
    }

    #[test]
    fn hysteresis_never_declares_a_steadily_beating_node_dead() {
        let t = linear("t", 2, 128.0);
        let config = RecoveryConfig {
            miss_threshold: 2,
            trust_threshold: 3,
            min_reschedule_interval_ms: 30_000.0,
            ..RecoveryConfig::default()
        };
        let mut h = harness(two_node_cluster(2048.0), &t, config);
        for tick in 0..50 {
            let events = step(&mut h, &t, f64::from(tick) * 1_000.0, &[]);
            assert!(events.is_empty(), "tick {tick} acted on a healthy node");
        }
        assert_eq!(h.manager.dead_nodes().count(), 0);
        assert_eq!(h.manager.suppressed_flaps(), 0);
        assert_eq!(h.manager.reschedule_attempts(), 0);
    }

    #[test]
    fn degraded_memory_never_exceeds_survivor_capacity() {
        // Wide topology: only a prefix of components can fit; whatever
        // is placed must respect the hard constraint exactly.
        let mut b = TopologyBuilder::new("wide");
        b.set_spout("s", 3).set_cpu_load(5.0).set_memory_load(500.0);
        b.set_bolt("k1", 3)
            .shuffle_grouping("s")
            .set_cpu_load(5.0)
            .set_memory_load(500.0);
        b.set_bolt("k2", 3)
            .shuffle_grouping("k1")
            .set_cpu_load(5.0)
            .set_memory_load(500.0);
        let t = b.build().unwrap();
        let mut h = harness(two_node_cluster(4096.0), &t, RecoveryConfig::default());
        step(&mut h, &t, 0.0, &[]);
        for ms in 1..4 {
            step(&mut h, &t, f64::from(ms) * 1_000.0, &["n1"]);
        }
        let assignment = h.state.plan().assignment("wide").unwrap();
        assert!(assignment.is_degraded());
        let placed_mb = assignment.len() as f64 * 500.0;
        assert!(
            placed_mb <= 4096.0,
            "placed {placed_mb} MB exceeds the survivor"
        );
        let violations = verify_plan(h.state.plan(), &[&t], &h.cluster);
        assert!(
            !violations
                .iter()
                .any(|v| matches!(v, Violation::MemoryOvercommit { .. })),
            "hard constraint violated: {violations:?}"
        );
    }

    #[test]
    fn the_shared_detection_window_and_slack_are_consistent() {
        let cfg = RecoveryConfig::default();
        assert_eq!(cfg.detection_window_ms(), 3_000.0);
        assert_eq!(
            cfg.detection_slack_ms(),
            cfg.detection_window_ms()
                + f64::from(RecoveryManager::DETECTION_SLACK_INTERVALS) * cfg.heartbeat_interval_ms
        );
    }

    /// Satellite boundary: at exactly `miss_threshold` consecutive
    /// misses — silence of exactly `detection_window_ms` — the
    /// declaration fires; one tick inside the window it does not.
    #[test]
    fn declaration_fires_exactly_at_the_miss_threshold_boundary() {
        let t = linear("t", 2, 128.0);
        let cfg = RecoveryConfig::default();
        let window = cfg.detection_window_ms();
        let mut h = harness(two_node_cluster(2048.0), &t, cfg);
        step(&mut h, &t, 0.0, &[]);
        // Strictly inside the window: not yet the threshold's worth of
        // consecutive misses.
        assert!(step(&mut h, &t, window - 1.0, &["n0"]).is_empty());
        // At exactly the window boundary the `>=` closes it.
        let events = step(&mut h, &t, window, &["n0"]);
        match &events[0] {
            RecoveryEvent::NodeDeclaredDead {
                node,
                time_to_detect_ms,
                ..
            } => {
                assert_eq!(node, "n0");
                assert_eq!(*time_to_detect_ms, window);
            }
            other => panic!("expected NodeDeclaredDead, got {other:?}"),
        }
    }

    /// Satellite hysteresis boundary: a declared-dead node is readmitted
    /// on exactly its `trust_threshold`-th consecutive beat, not one
    /// earlier.
    #[test]
    fn readmission_lands_exactly_at_trust_threshold_beats() {
        let t = linear("t", 2, 128.0);
        let config = RecoveryConfig {
            miss_threshold: 1,
            trust_threshold: 3,
            ..RecoveryConfig::default()
        };
        let mut h = harness(two_node_cluster(2048.0), &t, config);
        step(&mut h, &t, 0.0, &[]);
        let events = step(&mut h, &t, 1_000.0, &["n0"]);
        assert!(matches!(events[0], RecoveryEvent::NodeDeclaredDead { .. }));
        // Beats one and two are withheld by the hysteresis.
        for tick in 2..4 {
            let events = step(&mut h, &t, f64::from(tick) * 1_000.0, &[]);
            assert!(
                !events
                    .iter()
                    .any(|e| matches!(e, RecoveryEvent::NodeRecovered { .. })),
                "readmitted after only {} beats: {events:?}",
                tick - 1
            );
        }
        assert_eq!(h.manager.suppressed_flaps(), 2);
        // The third consecutive beat readmits.
        let events = step(&mut h, &t, 4_000.0, &[]);
        assert!(
            events.iter().any(
                |e| matches!(e, RecoveryEvent::NodeRecovered { ref node, .. } if node == "n0")
            ),
            "the trust_threshold-th beat readmits: {events:?}"
        );
        assert!(h.cluster.is_alive("n0"));
    }

    /// Satellite: replaying a flap storm's journal reproduces the live
    /// manager's suppression bookkeeping exactly.
    #[test]
    fn journal_replay_of_a_flap_storm_matches_live_suppressed_flaps() {
        // The 700 MB topology spans both nodes, so flapping n1 degrades
        // it and queues upgrade retries that the churn limiter defers,
        // while the trust hysteresis withholds n1's readmissions.
        let t = linear("t", 2, 700.0);
        let config = RecoveryConfig {
            miss_threshold: 1,
            trust_threshold: 2,
            min_reschedule_interval_ms: 60_000.0,
            journal: true,
            ..RecoveryConfig::default()
        };
        let mut h = harness(two_node_cluster(2048.0), &t, config);
        step(&mut h, &t, 0.0, &[]);
        for tick in 1..12 {
            let down: &[&str] = if tick % 2 == 1 { &["n1"] } else { &[] };
            step(&mut h, &t, f64::from(tick) * 1_000.0, down);
        }
        assert!(h.manager.suppressed_flaps() > 0, "the storm was absorbed");
        let replayed = h.manager.journal().expect("journal attached").replay();
        assert_eq!(replayed.suppressed_flaps(), h.manager.suppressed_flaps());
        assert!(replayed.suppressed_readmissions > 0);
        assert!(replayed.suppressed_reschedules > 0);
        assert_eq!(
            replayed.dead.iter().map(String::as_str).collect::<Vec<_>>(),
            h.manager.dead_nodes().collect::<Vec<_>>()
        );
        assert_eq!(
            replayed.reschedule_attempts,
            h.manager.reschedule_attempts()
        );
    }

    /// Journaling is passive: the same scenario with and without the
    /// journal produces identical events and counters.
    #[test]
    fn journaling_never_changes_control_decisions() {
        let t = linear("t", 2, 700.0);
        let base = RecoveryConfig {
            miss_threshold: 1,
            trust_threshold: 2,
            min_reschedule_interval_ms: 60_000.0,
            ..RecoveryConfig::default()
        };
        let journaled = RecoveryConfig {
            journal: true,
            ..base.clone()
        };
        let run = |config: RecoveryConfig| {
            let mut h = harness(two_node_cluster(2048.0), &t, config);
            let mut all = Vec::new();
            for tick in 0..12 {
                let down: &[&str] = if tick % 2 == 1 { &["n1"] } else { &[] };
                all.extend(step(&mut h, &t, f64::from(tick) * 1_000.0, down));
            }
            (
                all,
                h.manager.suppressed_flaps(),
                h.manager.reschedule_attempts(),
            )
        };
        assert_eq!(run(base), run(journaled));
    }

    #[test]
    fn reassume_replays_the_journal_and_redeclares_diverged_nodes() {
        let t = linear("t", 2, 128.0);
        let config = RecoveryConfig {
            journal: true,
            ..RecoveryConfig::default()
        };
        let mut h = harness(two_node_cluster(2048.0), &t, config.clone());
        step(&mut h, &t, 0.0, &[]);
        for ms in 1..=3 {
            step(&mut h, &t, f64::from(ms) * 1_000.0, &["n0"]);
        }
        assert!(h.manager.dead_nodes().any(|n| n == "n0"));
        assert!(!h.manager.has_pending_reschedules());

        // Nimbus crashes at t=3 s and a successor reassumes at t=10 s
        // from the predecessor's journal.
        let journal = h.manager.take_journal();
        let roster: Vec<String> = h
            .cluster
            .nodes()
            .iter()
            .map(|n| n.id().as_str().to_owned())
            .collect();
        let (mut successor, replayed) =
            RecoveryManager::reassume(config, journal, 10_000.0, &roster);
        assert!(replayed >= 2, "dead declaration + reschedule: {replayed}");
        assert!(
            successor.dead_nodes().any(|n| n == "n0"),
            "the journaled dead set is adopted"
        );
        assert_eq!(
            successor.reschedule_attempts(),
            h.manager.reschedule_attempts(),
            "attempt counters continue, they do not restart"
        );

        // n1 went silent during the outage: its live state diverged from
        // the journal's believed-alive. The seeded handoff heartbeat
        // re-declares it within an ordinary detection window.
        let events = successor.tick(13_000.0, &mut h.cluster, &mut h.state, &h.scheduler, &[&t]);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, RecoveryEvent::NodeDeclaredDead { node, .. } if node == "n1")),
            "diverged node re-declared: {events:?}"
        );
    }

    #[test]
    fn reassume_without_a_journal_is_cold_and_blind() {
        let t = linear("t", 2, 128.0);
        let mut h = harness(two_node_cluster(2048.0), &t, RecoveryConfig::default());
        step(&mut h, &t, 0.0, &[]);
        let roster: Vec<String> = h
            .cluster
            .nodes()
            .iter()
            .map(|n| n.id().as_str().to_owned())
            .collect();
        let (mut cold, replayed) =
            RecoveryManager::reassume(RecoveryConfig::default(), None, 10_000.0, &roster);
        assert_eq!(replayed, 0);
        assert_eq!(cold.dead_nodes().count(), 0);
        // n0 has been silent since before the failover: the cold
        // successor never observes it, so it is never declared — the
        // blind spot the journal closes.
        for ms in [13_000.0, 16_000.0, 30_000.0] {
            let events = cold.tick(ms, &mut h.cluster, &mut h.state, &h.scheduler, &[&t]);
            assert!(events.is_empty(), "a cold successor cannot act: {events:?}");
        }
    }
}
