//! The original string-keyed simulation engine, kept as a semantic
//! oracle. Compiled only for tests and under the `oracle` cargo feature,
//! which only dev-dependencies switch on.
//!
//! [`ReferenceSimulation`] interprets groupings per emission, keeps
//! in-flight tuple trees in a `HashMap`, shares each node's CPU through
//! the hash-keyed `CpuServer` and records statistics through the
//! string-keyed `StatisticServer` — exactly the straightforward
//! implementation the fast engine in `crate::sim` optimizes. It mirrors
//! the reference scheduler in `rstorm_core::oracle`: parity tests assert
//! that [`crate::Simulation`] produces bit-for-bit identical
//! [`SimReport`]s, so every fast-path shortcut stays pinned to these
//! semantics.

use crate::build::{ClusterIndex, SimBuild, SimTaskSpec};
use crate::config::SimConfig;
use crate::event::EventQueue;
use crate::report::{SimDebugStats, SimReport, SimTotals};
use crate::servers::{legacy_link_fabric, max_min_alloc, LinkServer, DEMAND_TAU_MS};
use crate::sim::{Batch, LatencyAccumulator, TaskRt};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rstorm_cluster::{Cluster, PlacementRelation};
use rstorm_core::Assignment;
use rstorm_metrics::{CpuUtilizationTracker, StatisticServer};
use rstorm_topology::{StreamGrouping, Topology};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// The reference engine's event payload (the fast engine uses a packed
/// representation instead; see `crate::sim`).
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A spout attempts to emit its next root batch.
    TrySpout(usize),
    /// A task finishes processing the batch at the head of its queue.
    WorkDone(usize, Batch),
    /// A batch arrives at a downstream task.
    Deliver(usize, Batch),
    /// A tuple tree hit `message_timeout_ms` without completing.
    RootTimeout(u64),
}

#[derive(Debug)]
struct RootState {
    pending: u32,
    born: f64,
    deadline: f64,
    spout: usize,
    failed: bool,
}

/// The original simulation engine (see the module docs). Same public
/// surface as [`crate::Simulation`]; use it to cross-check the fast
/// engine or to benchmark against it.
#[derive(Debug)]
pub struct ReferenceSimulation {
    cluster: Arc<Cluster>,
    config: SimConfig,
    index: ClusterIndex,
    build: SimBuild,
    stats: StatisticServer,
}

impl ReferenceSimulation {
    /// Creates an empty simulation over `cluster`.
    pub fn new(cluster: impl Into<Arc<Cluster>>, config: SimConfig) -> Self {
        let cluster = cluster.into();
        let index = ClusterIndex::new(&cluster);
        let build = SimBuild::new(cluster.nodes().len());
        let stats = StatisticServer::new(config.window_ms);
        Self {
            cluster,
            config,
            index,
            build,
            stats,
        }
    }

    /// Adds a scheduled topology to the simulation.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is incomplete or references nodes not in
    /// the cluster.
    pub fn add_topology(&mut self, topology: &Topology, assignment: &Assignment) {
        assert_eq!(
            topology.id().as_str(),
            assignment.topology().as_str(),
            "assignment belongs to a different topology"
        );
        for sink in topology.sinks() {
            self.stats
                .declare_sink(topology.id().as_str(), sink.id().as_str());
        }
        self.build
            .append_topology(&self.index, topology, assignment);
    }

    /// Runs the simulation to completion and reports.
    ///
    /// # Panics
    ///
    /// Panics if no topology was added.
    pub fn run(self) -> SimReport {
        assert!(
            !self.build.specs.is_empty(),
            "add at least one topology before running"
        );
        RefEngine::new(self).run()
    }
}

struct RefEngine {
    cluster: Arc<Cluster>,
    config: SimConfig,
    build: SimBuild,
    stats: StatisticServer,
    node_names: Vec<String>,

    queue: EventQueue<Ev>,
    cpus: Vec<CpuServer>,
    egress: Vec<LinkServer>,
    ingress: Vec<LinkServer>,
    uplink: LinkServer,
    tasks: Vec<TaskRt>,
    roots: HashMap<u64, RootState>,
    next_root: u64,
    rng: StdRng,
    totals: SimTotals,
    latency: LatencyAccumulator,
    events: u64,
}

impl std::fmt::Debug for RefEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RefEngine")
            .field("tasks", &self.tasks.len())
            .field("now", &self.queue.now())
            .finish_non_exhaustive()
    }
}

impl RefEngine {
    fn new(sim: ReferenceSimulation) -> Self {
        let ReferenceSimulation {
            cluster,
            config,
            index,
            build,
            stats,
        } = sim;

        // Borrow the cost matrix; the reference engine re-reads it per
        // transfer through the shared `Arc` instead of deep-copying it.
        let costs = cluster.costs();
        let cpus = index
            .cores
            .iter()
            .zip(&build.node_mem_demand)
            .zip(&index.memory_mb)
            .map(|((&cores, &demand), &capacity)| {
                let thrash = if demand > capacity && config.oom_thrash_factor < 1.0 {
                    // Over-committed memory: the node pages/crash-loops.
                    config.oom_thrash_factor
                } else {
                    1.0
                };
                CpuServer::new(cores, thrash)
            })
            .collect();
        let (egress, ingress, uplink) = legacy_link_fabric(
            index.cores.len(),
            costs.node_bandwidth_mbps,
            costs.inter_rack_bandwidth_mbps,
        );

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

        let rng = StdRng::seed_from_u64(config.seed);
        Self {
            cluster,
            config,
            build,
            stats,
            node_names: index.node_names,
            queue: EventQueue::new(),
            cpus,
            egress,
            ingress,
            uplink,
            tasks,
            roots: HashMap::new(),
            next_root: 0,
            rng,
            totals: SimTotals::default(),
            latency: LatencyAccumulator::default(),
            events: 0,
        }
    }

    fn run(mut self) -> SimReport {
        for i in 0..self.build.specs.len() {
            if self.build.specs[i].is_spout {
                self.queue.schedule(0.0, Ev::TrySpout(i));
            }
        }

        while let Some((t, ev)) = self.queue.pop() {
            if t > self.config.sim_time_ms {
                break;
            }
            self.events += 1;
            match ev {
                Ev::TrySpout(i) => self.try_spout(i),
                Ev::WorkDone(i, batch) => self.work_done(i, batch),
                Ev::Deliver(i, batch) => self.deliver(i, batch),
                Ev::RootTimeout(root) => self.root_timeout(root),
            }
        }

        self.report()
    }

    // ---- spout production --------------------------------------------

    fn try_spout(&mut self, i: usize) {
        if self.tasks[i].busy {
            return; // WorkDone will retry.
        }
        if self.tasks[i].credits == 0 {
            self.tasks[i].waiting_for_credit = true;
            return;
        }
        let now = self.queue.now();
        // A rate-limited source paces its emissions regardless of credit
        // availability (the stream arrives at its own rate).
        if let Some(rate) = self.build.specs[i].max_rate_tuples_per_sec {
            if now + 1e-9 < self.tasks[i].next_emit_ms {
                let at = self.tasks[i].next_emit_ms;
                self.queue.schedule(at, Ev::TrySpout(i));
                return;
            }
            let interval = f64::from(self.config.batch_tuples) / rate * 1000.0;
            let base = self.tasks[i].next_emit_ms.max(now);
            self.tasks[i].next_emit_ms = base + interval;
        }
        self.tasks[i].credits -= 1;
        let root = self.next_root;
        self.next_root += 1;
        let deadline = now + self.config.tuple_timeout_ms;
        self.roots.insert(
            root,
            RootState {
                pending: 1,
                born: now,
                deadline,
                spout: i,
                failed: false,
            },
        );
        self.queue.schedule(deadline, Ev::RootTimeout(root));

        let batch = Batch {
            root,
            tuples: self.config.batch_tuples,
        };
        let work = f64::from(batch.tuples) * self.build.specs[i].work_ms_per_tuple;
        let done = self.cpus[self.build.specs[i].node_idx].serve(now, i, work);
        self.tasks[i].busy = true;
        self.queue.schedule(done, Ev::WorkDone(i, batch));
    }

    // ---- work completion ---------------------------------------------

    fn work_done(&mut self, i: usize, batch: Batch) {
        let now = self.queue.now();
        let spec_is_spout = self.build.specs[i].is_spout;
        let spec_is_sink = self.build.specs[i].is_sink;

        if spec_is_spout {
            self.totals.spout_batches += 1;
            self.stats.record_emitted(
                &self.build.specs[i].topology,
                &self.build.specs[i].component,
                now,
                u64::from(batch.tuples),
            );
        } else {
            self.totals.tuples_processed += u64::from(batch.tuples);
        }

        if spec_is_sink {
            let alive = self
                .roots
                .get(&batch.root)
                .is_some_and(|r| !r.failed && now <= r.deadline);
            if alive {
                self.totals.tuples_completed += u64::from(batch.tuples);
                self.stats.record_processed(
                    &self.build.specs[i].topology,
                    &self.build.specs[i].component,
                    now,
                    u64::from(batch.tuples),
                );
            }
        } else if !spec_is_spout {
            self.stats.record_processed(
                &self.build.specs[i].topology,
                &self.build.specs[i].component,
                now,
                u64::from(batch.tuples),
            );
        }

        // Emission: anchor new copies on the root *before* releasing this
        // batch's own pending slot, so the root cannot complete early.
        if self.build.specs[i].emit_factor > 0.0 && !self.build.consumers(i).is_empty() {
            self.tasks[i].emit_acc += self.build.specs[i].emit_factor;
            let n_out = self.tasks[i].emit_acc.floor() as u32;
            self.tasks[i].emit_acc -= f64::from(n_out);
            for _ in 0..n_out {
                self.emit(i, batch);
            }
        }

        self.finish_pending(batch.root);

        self.tasks[i].busy = false;
        if spec_is_spout {
            let now = self.queue.now();
            self.queue.schedule(now, Ev::TrySpout(i));
        } else if let Some(next) = self.tasks[i].queue.pop_front() {
            self.start_processing(i, next);
        }
    }

    fn start_processing(&mut self, i: usize, batch: Batch) {
        let now = self.queue.now();
        let work = f64::from(batch.tuples) * self.build.specs[i].work_ms_per_tuple;
        let done = self.cpus[self.build.specs[i].node_idx].serve(now, i, work);
        self.tasks[i].busy = true;
        self.queue.schedule(done, Ev::WorkDone(i, batch));
    }

    // ---- routing -------------------------------------------------------

    fn emit(&mut self, from: usize, batch: Batch) {
        let group_count = self.build.consumers(from).len();
        for g in 0..group_count {
            let targets = self.pick_targets(from, g);
            for to in targets {
                self.transfer(from, to, batch);
            }
        }
    }

    fn pick_targets(&mut self, from: usize, group: usize) -> Vec<usize> {
        let group = &self.build.consumers(from)[group];
        let targets = &group.targets;
        debug_assert!(!targets.is_empty(), "validated topologies have tasks");
        match &group.grouping {
            StreamGrouping::Shuffle | StreamGrouping::Fields(_) => {
                // Fields grouping with uniformly distributed keys is
                // statistically identical to shuffle at this granularity.
                vec![targets[self.rng.gen_range(0..targets.len())]]
            }
            StreamGrouping::All => targets.clone(),
            StreamGrouping::Global => vec![targets[0]],
            StreamGrouping::LocalOrShuffle => {
                let from_slot = &self.build.specs[from].slot;
                let local: Vec<usize> = targets
                    .iter()
                    .copied()
                    .filter(|&t| self.build.specs[t].slot == *from_slot)
                    .collect();
                let pool = if local.is_empty() { targets } else { &local };
                vec![pool[self.rng.gen_range(0..pool.len())]]
            }
        }
    }

    fn transfer(&mut self, from: usize, to: usize, batch: Batch) {
        let now = self.queue.now();
        let costs = self.cluster.costs();
        let relation = relation_of(&self.build.specs[from], &self.build.specs[to]);
        let bytes = self.build.specs[from]
            .tuple_bytes
            .saturating_mul(batch.tuples);
        let latency = costs.latency_ms(relation);

        let arrival = match relation {
            PlacementRelation::SameWorker | PlacementRelation::SameNode => now + latency,
            PlacementRelation::SameRack => {
                let t1 = self.egress[self.build.specs[from].node_idx].serve(now, bytes);
                let t2 = self.ingress[self.build.specs[to].node_idx].serve(t1, bytes);
                t2 + latency
            }
            PlacementRelation::InterRack => {
                let t1 = self.egress[self.build.specs[from].node_idx].serve(now, bytes);
                let t2 = self.uplink.serve(t1, bytes);
                let t3 = self.ingress[self.build.specs[to].node_idx].serve(t2, bytes);
                t3 + latency
            }
        };

        if let Some(root) = self.roots.get_mut(&batch.root) {
            root.pending += 1;
        }
        self.queue.schedule(arrival, Ev::Deliver(to, batch));
    }

    // ---- delivery ------------------------------------------------------

    fn deliver(&mut self, i: usize, batch: Batch) {
        self.totals.batches_delivered += 1;
        // Shed batches whose root already timed out: the real system's
        // queues would be drained of them by the replay mechanism, and
        // processing them would let queues grow without bound.
        let stale = self.roots.get(&batch.root).is_none_or(|r| r.failed);
        if stale {
            self.totals.batches_dropped += 1;
            self.finish_pending(batch.root);
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
        let Some(state) = self.roots.get_mut(&root) else {
            return;
        };
        state.pending -= 1;
        if state.pending > 0 {
            return;
        }
        let failed = state.failed;
        let spout = state.spout;
        let born = state.born;
        self.roots.remove(&root);
        if !failed {
            self.totals.roots_completed += 1;
            self.latency.record(self.queue.now() - born);
            self.return_credit(spout);
        }
    }

    fn root_timeout(&mut self, root: u64) {
        let Some(state) = self.roots.get_mut(&root) else {
            return; // Completed before the deadline.
        };
        if state.failed {
            return;
        }
        state.failed = true;
        let spout = state.spout;
        self.totals.roots_timed_out += 1;
        // Storm replays the tuple: the credit returns to the spout even
        // though stale descendants may still be in flight.
        self.return_credit(spout);
    }

    fn return_credit(&mut self, spout: usize) {
        self.tasks[spout].credits += 1;
        if self.tasks[spout].waiting_for_credit {
            self.tasks[spout].waiting_for_credit = false;
            let now = self.queue.now();
            self.queue.schedule(now, Ev::TrySpout(spout));
        }
    }

    // ---- reporting ------------------------------------------------------

    fn report(self) -> SimReport {
        let elapsed = self.config.sim_time_ms;
        let mut tracker = CpuUtilizationTracker::new();
        for (i, cpu) in self.cpus.iter().enumerate() {
            tracker.register_node(self.node_names[i].clone(), cpu.cores());
            if cpu.busy_core_ms() > 0.0 {
                // Work committed past the horizon is clamped so that
                // utilization stays within physical capacity.
                let capacity = cpu.cores() * cpu.thrash() * elapsed;
                tracker.add_busy(&self.node_names[i], cpu.busy_core_ms().min(capacity));
            }
        }

        let mut throughput = std::collections::BTreeMap::new();
        let mut used_by_topology = std::collections::BTreeMap::new();
        for t in &self.build.topo_names {
            throughput.insert(t.clone(), self.stats.topology_throughput(t, elapsed));
            let used: BTreeSet<String> = self
                .build
                .specs
                .iter()
                .filter(|s| &s.topology == t)
                .map(|s| s.slot.node.as_str().to_owned())
                .collect();
            used_by_topology.insert(t.clone(), used.len());
        }

        let node_utilization = tracker.used_node_utilizations(elapsed);
        SimReport {
            duration_ms: elapsed,
            window_ms: self.config.window_ms,
            throughput,
            mean_used_cpu_utilization: tracker.mean_used_utilization(elapsed),
            used_nodes: tracker.used_node_count(),
            used_nodes_by_topology: used_by_topology,
            node_utilization,
            inter_rack_mb: self.uplink.served_bytes() / 1e6,
            latency_ms: self.latency.summary(),
            totals: self.totals,
            // The reference engine models no faults and only the legacy
            // network; parity runs compare against fast runs where both
            // sections are `None` too.
            recovery: None,
            network: None,
            // The reference engine has no root pool and stores no
            // routing entries; only the event count is meaningful here.
            debug: SimDebugStats {
                events: self.events,
                ..SimDebugStats::default()
            },
        }
    }
}

/// The placement relation between two placed tasks: the same slot is
/// the same worker.
pub(crate) fn relation_of(a: &SimTaskSpec, b: &SimTaskSpec) -> PlacementRelation {
    if a.slot == b.slot {
        PlacementRelation::SameWorker
    } else if a.node_idx == b.node_idx {
        PlacementRelation::SameNode
    } else if a.rack_idx == b.rack_idx {
        PlacementRelation::SameRack
    } else {
        PlacementRelation::InterRack
    }
}

/// A node's CPU under the max-min fair processor-sharing model of
/// the engine's `DenseCpuServer`, with per-task state in a
/// `HashMap` created lazily on first submission and the demand vector
/// rebuilt on every call. The dense server must match its completion
/// times bit for bit.
#[derive(Debug, Clone)]
pub(crate) struct CpuServer {
    cores: f64,
    /// Thrash multiplier in (0, 1]: < 1 when the node's memory is
    /// over-committed.
    thrash: f64,
    tasks: std::collections::HashMap<usize, TaskCpu>,
    busy_core_ms: f64,
}

#[derive(Debug, Clone, Copy)]
struct TaskCpu {
    busy_until: f64,
    demand_acc: f64,
    last_update: f64,
}

impl CpuServer {
    /// Creates a CPU server.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is not positive or `thrash` is outside (0, 1].
    pub fn new(cores: f64, thrash: f64) -> Self {
        assert!(
            cores.is_finite() && cores > 0.0,
            "core count must be positive, got {cores}"
        );
        assert!(
            thrash.is_finite() && thrash > 0.0 && thrash <= 1.0,
            "thrash factor must be in (0, 1], got {thrash}"
        );
        Self {
            cores,
            thrash,
            tasks: std::collections::HashMap::new(),
            busy_core_ms: 0.0,
        }
    }

    /// Commits `work_core_ms` of work for `task` submitted at `at`;
    /// returns the completion time.
    pub fn serve(&mut self, at: f64, task: usize, work_core_ms: f64) -> f64 {
        // Update the submitting task's decayed demand estimate.
        {
            let entry = self.tasks.entry(task).or_insert(TaskCpu {
                busy_until: 0.0,
                demand_acc: 0.0,
                last_update: at,
            });
            let dt = (at - entry.last_update).max(0.0);
            entry.demand_acc = entry.demand_acc * (-dt / DEMAND_TAU_MS).exp() + work_core_ms;
            entry.last_update = at;
        }

        // Demands in cores, capped at 1.0 (a task is single-threaded).
        let mut demands: Vec<(usize, f64)> = self
            .tasks
            .iter()
            .map(|(&id, t)| {
                let dt = (at - t.last_update).max(0.0);
                let d = t.demand_acc * (-dt / DEMAND_TAU_MS).exp() / DEMAND_TAU_MS;
                (id, d.min(1.0))
            })
            .collect();

        let capacity = self.cores * self.thrash;
        let alloc = max_min_alloc(&mut demands, capacity, task);
        let demand = demands
            .iter()
            .find(|(id, _)| *id == task)
            .map_or(0.0, |&(_, d)| d);
        // A task whose demand fits its fair share runs at single-core
        // speed (it simply idles between batches); a starved task runs at
        // its allocation — `1/alloc` cores — which is what makes its
        // backlog diverge while protected neighbours are unaffected. The
        // thrash factor always applies.
        let fair_stretch = if demand > alloc + 1e-9 {
            (1.0 / alloc.max(1e-6)).max(1.0)
        } else {
            1.0
        };
        let multiplier = fair_stretch / self.thrash;

        let entry = self.tasks.get_mut(&task).expect("inserted above");
        let start = entry.busy_until.max(at);
        let done = start + work_core_ms * multiplier;
        entry.busy_until = done;
        self.busy_core_ms += work_core_ms;
        done
    }

    /// Total core-milliseconds of work served.
    pub fn busy_core_ms(&self) -> f64 {
        self.busy_core_ms
    }

    /// The configured core count.
    pub fn cores(&self) -> f64 {
        self.cores
    }

    /// The thrash multiplier.
    pub fn thrash(&self) -> f64 {
        self.thrash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;
    use rstorm_cluster::{ClusterBuilder, ResourceCapacity};
    use rstorm_core::{GlobalState, RStormScheduler, Scheduler};
    use rstorm_topology::{ExecutionProfile, TopologyBuilder};

    fn mixed_topology(name: &str) -> Topology {
        let mut b = TopologyBuilder::new(name);
        b.set_spout("s", 2)
            .set_profile(ExecutionProfile::new(0.05, 1.0, 200))
            .set_memory_load(64.0);
        b.set_bolt("all", 2)
            .all_grouping("s")
            .set_profile(ExecutionProfile::new(0.02, 1.0, 200))
            .set_memory_load(64.0);
        b.set_bolt("local", 3)
            .local_or_shuffle_grouping("all")
            .set_profile(ExecutionProfile::new(0.02, 1.0, 200))
            .set_memory_load(64.0);
        b.set_bolt("sink", 1)
            .global_grouping("local")
            .set_profile(ExecutionProfile::new(0.02, 0.0, 200))
            .set_memory_load(64.0);
        b.build().unwrap()
    }

    #[test]
    fn reference_matches_fast_engine_bit_for_bit() {
        let cluster = Arc::new(
            ClusterBuilder::new()
                .homogeneous_racks(2, 3, ResourceCapacity::emulab_node(), 4)
                .build()
                .unwrap(),
        );
        let t = mixed_topology("mix");
        let mut state = GlobalState::new(&cluster);
        let assignment = RStormScheduler::new()
            .schedule(&t, &cluster, &mut state)
            .unwrap();

        let mut fast = Simulation::new(Arc::clone(&cluster), SimConfig::quick());
        fast.add_topology(&t, &assignment);
        let fast = fast.run();

        let mut reference = ReferenceSimulation::new(Arc::clone(&cluster), SimConfig::quick());
        reference.add_topology(&t, &assignment);
        let reference = reference.run();

        // `==` covers every physical field; sharpen the float-bearing
        // ones to bit equality explicitly.
        assert_eq!(fast, reference);
        assert_eq!(
            fast.inter_rack_mb.to_bits(),
            reference.inter_rack_mb.to_bits()
        );
        assert_eq!(
            fast.latency_ms.mean.to_bits(),
            reference.latency_ms.mean.to_bits()
        );
        for (topo, thr) in &fast.throughput {
            let ref_thr = &reference.throughput[topo];
            for (a, b) in thr.windows.iter().zip(&ref_thr.windows) {
                assert_eq!(a.to_bits(), b.to_bits(), "window mismatch in {topo}");
            }
        }
        // Both engines processed the same event sequence, less the
        // timeouts of completed roots, which only the reference queues.
        assert_eq!(
            fast.debug.events + fast.debug.timeouts_retired,
            reference.debug.events
        );
        assert_eq!(fast.to_json(), reference.to_json());
    }

    #[test]
    #[should_panic(expected = "at least one topology")]
    fn empty_reference_simulation_rejected() {
        let cluster = ClusterBuilder::new()
            .add_node("n", "r0", ResourceCapacity::emulab_node(), 4)
            .build()
            .unwrap();
        ReferenceSimulation::new(cluster, SimConfig::quick()).run();
    }
}
