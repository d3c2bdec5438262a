//! `GlobalState`: scheduling and resource bookkeeping across invocations.
//!
//! Mirrors the paper's module of the same name (§5.1): "stores important
//! state information regarding the scheduling and resource availability of
//! a Storm Cluster ... where each task is placed in the cluster ... all
//! the resource availability information of physical machines and the
//! resource demand information of all tasks." Storm's Nimbus is stateless
//! between scheduler invocations, so this state is owned by the embedding
//! application and passed to every [`crate::Scheduler::schedule`] call.
//!
//! ## Representation
//!
//! Remaining resources live in a dense `Vec` keyed by the cluster's
//! [`ClusterIndex`] node indices (sorted-id order), with a parallel
//! liveness vector. The string-keyed API (`remaining`, `iter_remaining`,
//! `reserve`, ...) is preserved on top and behaves exactly like the
//! previous `BTreeMap` representation: iteration is in node-id order and
//! dead nodes are invisible.
//!
//! Per-rack aggregates (abundance sum, max remaining memory, alive count)
//! are maintained on every mutation so the R-Storm node-selection fast
//! path can pick reference racks and skip memory-infeasible racks without
//! re-scanning every node. Aggregates are *recomputed* over the affected
//! rack in node declaration order — never incrementally adjusted — so
//! they stay bit-identical to a from-scratch scan (incremental float
//! add/subtract would drift).
//!
//! Every recomputation also gives the rack a fresh **stamp** from a
//! process-wide counter ([`GlobalState::rack_stamps`]). All writes to the
//! dense or liveness vectors go through that recomputation, so a rack
//! whose stamp is unchanged has unchanged contents; and since no stamp is
//! ever issued twice, equal stamps mean equal contents even across clones
//! of a state. Node selection keys its per-rack memo on them: when two
//! consecutive picks send bit-identical requests (consecutive picks come
//! from different components, since task ordering interleaves them), the
//! second rescans only the racks touched since the first, so it costs
//! O(racks + rack size) instead of O(alive nodes). Stamps are identity,
//! not state — their `Debug` prints a constant, so a rollback (which
//! restores contents under fresh stamps) prints exactly the state it
//! restored.

use crate::assignment::{Assignment, SchedulingPlan};
use crate::error::ScheduleError;
use rstorm_cluster::{Cluster, ClusterIndex, NodeId, WorkerSlot};
use rstorm_topology::{ResourceRequest, Topology, TopologyId};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Source of rack stamps, shared by every state in the process so a stamp
/// is never issued twice. Starts at 1: 0 is free for "never computed".
static NEXT_RACK_STAMP: AtomicU64 = AtomicU64::new(1);

/// Per-rack stamps. They are identity, not state, so their `Debug` prints
/// a constant: a rollback restores contents under fresh stamps and must
/// still print exactly the state it restored.
#[derive(Clone)]
struct RackStamps(Vec<u64>);

impl fmt::Debug for RackStamps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RackStamps(..)")
    }
}

/// A node's remaining (unreserved) resources.
///
/// Soft dimensions (CPU, bandwidth) may go negative when a
/// non-resource-aware scheduler (or an explicitly over-subscribed
/// reservation) overloads a node; memory is the hard dimension and is
/// kept non-negative by the checked reservation path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemainingResources {
    /// Remaining CPU points (may go negative under overload).
    pub cpu_points: f64,
    /// Remaining memory in MB (non-negative on the checked path).
    pub memory_mb: f64,
    /// Remaining bandwidth units (may go negative under overload).
    pub bandwidth: f64,
}

impl RemainingResources {
    fn subtract(&mut self, r: &ResourceRequest) {
        self.cpu_points -= r.cpu_points;
        self.memory_mb -= r.memory_mb;
        self.bandwidth -= r.bandwidth;
    }

    fn add(&mut self, r: &ResourceRequest) {
        self.cpu_points += r.cpu_points;
        self.memory_mb += r.memory_mb;
        self.bandwidth += r.bandwidth;
    }

    /// A "more resources" ordering key used by Algorithm 4's
    /// `findServerRackWithMostResources` / `findNodeWithMostResources`:
    /// the normalized sum of remaining CPU and memory.
    pub fn abundance(&self, max_cpu: f64, max_memory: f64) -> f64 {
        self.cpu_points / max_cpu.max(1e-9) + self.memory_mb / max_memory.max(1e-9)
    }
}

/// A reversible record of the mutations one scheduling attempt made to a
/// [`GlobalState`], so a failed attempt can be rejected in O(tasks placed)
/// instead of cloning the whole state up front (O(cluster) per call).
///
/// Entries store the exact previous values and are replayed in reverse by
/// [`GlobalState::rollback`], restoring the state bit-for-bit — inverse
/// arithmetic (`(x - a) + a`) would not, in floating point.
#[derive(Debug, Default)]
pub struct UndoLog {
    entries: Vec<UndoEntry>,
}

impl UndoLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded mutations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends every entry of `other` (preserving order) so several
    /// per-step logs can be merged into one atomic unit: the delta
    /// scheduler validates each task move against its own small log,
    /// then absorbs it into the plan-wide log that guards the whole
    /// migration.
    pub fn absorb(&mut self, mut other: UndoLog) {
        self.entries.append(&mut other.entries);
    }
}

#[derive(Debug)]
enum UndoEntry {
    /// A node's remaining resources were overwritten.
    Remaining {
        index: u32,
        prev: RemainingResources,
    },
    /// A per-topology reserved total was created or grown.
    ReservedTotal {
        topology: TopologyId,
        node: NodeId,
        prev: Option<ResourceRequest>,
        topology_was_present: bool,
    },
    /// A (topology, node) → port mapping was inserted (never overwritten).
    TopologySlot { topology: TopologyId, node: NodeId },
    /// A slot's occupancy count was bumped.
    SlotOccupancy {
        slot: WorkerSlot,
        prev: Option<usize>,
    },
}

/// Cluster-wide scheduling state shared across scheduler invocations.
#[derive(Debug, Clone)]
pub struct GlobalState {
    /// The immutable layout this state's dense vectors are keyed by.
    index: Arc<ClusterIndex>,
    /// Remaining resources by dense node index (meaningful iff alive).
    dense: Vec<RemainingResources>,
    /// Liveness by dense node index. Nodes dead at snapshot time or
    /// failed via [`GlobalState::handle_node_failure`] are invisible to
    /// the string API, exactly as if they had been removed from a map.
    alive: Vec<bool>,
    /// Per-rack abundance sum over alive members, declaration order.
    rack_abundance: Vec<f64>,
    /// Per-rack max remaining memory over alive members
    /// (`NEG_INFINITY` when the rack has no alive member).
    rack_max_mem: Vec<f64>,
    /// Per-rack alive-member count.
    rack_alive: Vec<u32>,
    /// Per-rack stamp, fresh from [`NEXT_RACK_STAMP`] at every
    /// recomputation of the rack's aggregates.
    rack_stamp: RackStamps,
    plan: SchedulingPlan,
    /// Per-topology, per-node reserved totals, for release on unschedule.
    reserved: HashMap<TopologyId, BTreeMap<NodeId, ResourceRequest>>,
    /// The worker slot port each topology packs its tasks into, per node.
    /// Nested so a lookup borrows both ids; a topology with no slots has
    /// no entry.
    topology_slots: HashMap<TopologyId, HashMap<NodeId, u16>>,
    /// Number of distinct topologies occupying each slot.
    slot_occupancy: BTreeMap<WorkerSlot, usize>,
}

impl GlobalState {
    /// Snapshots the remaining resources of every *alive* node of
    /// `cluster`, with no topologies scheduled.
    pub fn new(cluster: &Cluster) -> Self {
        let index = cluster.shared_index();
        let n = index.len();
        let mut dense = Vec::with_capacity(n);
        let mut alive = Vec::with_capacity(n);
        for i in 0..n as u32 {
            let cap = index.capacity(i);
            dense.push(RemainingResources {
                cpu_points: cap.cpu_points,
                memory_mb: cap.memory_mb,
                bandwidth: cap.bandwidth,
            });
            alive.push(cluster.is_alive(index.node_id(i).as_str()));
        }
        let racks = index.rack_count();
        let mut state = Self {
            index,
            dense,
            alive,
            rack_abundance: vec![0.0; racks],
            rack_max_mem: vec![f64::NEG_INFINITY; racks],
            rack_alive: vec![0; racks],
            rack_stamp: RackStamps(vec![0; racks]),
            plan: SchedulingPlan::new(),
            reserved: HashMap::new(),
            topology_slots: HashMap::new(),
            slot_occupancy: BTreeMap::new(),
        };
        for rack in 0..racks as u32 {
            state.recompute_rack(rack);
        }
        state
    }

    /// Recomputes one rack's aggregates from scratch, scanning alive
    /// members in declaration order (bit-identical to the scan the
    /// pre-index `find_ref_node` performed per call), and stamps the rack.
    fn recompute_rack(&mut self, rack: u32) {
        let index = Arc::clone(&self.index);
        let (max_cpu, max_mem) = (index.max_cpu_points(), index.max_memory_mb());
        let mut abundance = 0.0;
        let mut best_mem = f64::NEG_INFINITY;
        let mut alive_count = 0u32;
        for &i in index.rack_members(rack) {
            if !self.alive[i as usize] {
                continue;
            }
            let r = &self.dense[i as usize];
            abundance += r.abundance(max_cpu, max_mem);
            if r.memory_mb > best_mem {
                best_mem = r.memory_mb;
            }
            alive_count += 1;
        }
        self.rack_abundance[rack as usize] = abundance;
        self.rack_max_mem[rack as usize] = best_mem;
        self.rack_alive[rack as usize] = alive_count;
        // `Relaxed` suffices: only uniqueness matters, which `fetch_add`
        // guarantees under any ordering, and a stamp publishes no data.
        self.rack_stamp.0[rack as usize] = NEXT_RACK_STAMP.fetch_add(1, Ordering::Relaxed);
    }

    /// The cluster layout index this state is keyed by. Fast paths that
    /// consume the dense accessors must verify (via [`Arc::ptr_eq`]) that
    /// this is the same index as the cluster they were built against.
    pub fn cluster_index(&self) -> &Arc<ClusterIndex> {
        &self.index
    }

    /// Remaining resources by dense node index; entries of dead nodes are
    /// stale and must be masked with [`GlobalState::alive_dense`].
    pub fn remaining_dense(&self) -> &[RemainingResources] {
        &self.dense
    }

    /// Liveness by dense node index.
    pub fn alive_dense(&self) -> &[bool] {
        &self.alive
    }

    /// Per-rack abundance sums over alive members (see
    /// [`RemainingResources::abundance`], normalized by the index's
    /// capacity maxima).
    pub fn rack_abundances(&self) -> &[f64] {
        &self.rack_abundance
    }

    /// Per-rack max remaining memory over alive members
    /// (`NEG_INFINITY` for racks with no alive member).
    pub fn rack_max_memories(&self) -> &[f64] {
        &self.rack_max_mem
    }

    /// Per-rack alive-member counts.
    pub fn rack_alive_counts(&self) -> &[u32] {
        &self.rack_alive
    }

    /// Per-rack stamps: a rack's stamp changes whenever any of its
    /// members' remaining resources or liveness may have, and two equal
    /// stamps (in this or any other state of the process) denote
    /// identical rack contents.
    pub fn rack_stamps(&self) -> &[u64] {
        &self.rack_stamp.0
    }

    /// Remaining resources of a node ([`None`] for unknown/dead nodes).
    pub fn remaining(&self, node: &str) -> Option<&RemainingResources> {
        let i = self.index.node_index(node)?;
        if self.alive[i as usize] {
            Some(&self.dense[i as usize])
        } else {
            None
        }
    }

    /// Iterates `(node, remaining)` in node-id order.
    pub fn iter_remaining(&self) -> impl Iterator<Item = (&NodeId, &RemainingResources)> {
        self.index
            .node_ids()
            .iter()
            .zip(&self.dense)
            .zip(&self.alive)
            .filter(|&(_, &alive)| alive)
            .map(|((id, r), _)| (id, r))
    }

    /// Reserves `request` on `node` for `topology`. Soft dimensions may go
    /// negative; callers enforcing the hard memory constraint must check
    /// [`GlobalState::remaining`] first (the R-Storm node-selection loop
    /// does).
    ///
    /// # Errors
    ///
    /// [`ScheduleError::UnknownNode`] if `node` is unknown or dead — the
    /// state is left untouched.
    pub fn reserve(
        &mut self,
        topology: &TopologyId,
        node: &NodeId,
        request: &ResourceRequest,
    ) -> Result<(), ScheduleError> {
        let mut scratch = UndoLog::new();
        self.reserve_logged(topology, node, request, &mut scratch)
    }

    /// [`GlobalState::reserve`], recording the mutation in `log` so it can
    /// be reverted bit-exactly by [`GlobalState::rollback`].
    ///
    /// # Errors
    ///
    /// [`ScheduleError::UnknownNode`] if `node` is unknown or dead —
    /// neither the state nor `log` is touched, so a partially filled log
    /// still rolls back everything that *did* happen.
    pub fn reserve_logged(
        &mut self,
        topology: &TopologyId,
        node: &NodeId,
        request: &ResourceRequest,
        log: &mut UndoLog,
    ) -> Result<(), ScheduleError> {
        let i = self
            .index
            .node_index(node.as_str())
            .filter(|&i| self.alive[i as usize])
            .ok_or_else(|| ScheduleError::UnknownNode {
                node: node.as_str().to_owned(),
            })?;
        log.entries.push(UndoEntry::Remaining {
            index: i,
            prev: self.dense[i as usize],
        });
        self.dense[i as usize].subtract(request);
        // Look up before inserting: the ids are cloned only for a
        // topology's first reservation, and its first on this node.
        let topology_was_present = self.reserved.contains_key(topology);
        if !topology_was_present {
            self.reserved.insert(topology.clone(), BTreeMap::new());
        }
        let per_node = self
            .reserved
            .get_mut(topology)
            .expect("inserted above if absent");
        let prev = match per_node.get_mut(node) {
            Some(total) => {
                let prev = *total;
                total.add_assign(request);
                Some(prev)
            }
            None => {
                let mut total = ResourceRequest::zero();
                total.add_assign(request);
                per_node.insert(node.clone(), total);
                None
            }
        };
        log.entries.push(UndoEntry::ReservedTotal {
            topology: topology.clone(),
            node: node.clone(),
            prev,
            topology_was_present,
        });
        let rack = self.index.rack_of(i);
        self.recompute_rack(rack);
        Ok(())
    }

    /// Releases `request` — previously reserved on `node` for `topology`
    /// — back to the node, recording the mutation in `log`. This is the
    /// partial inverse of [`GlobalState::reserve_logged`]: where
    /// [`GlobalState::release_topology`] frees everything a topology
    /// holds, this frees one task's worth, so the delta scheduler can
    /// move a single reservation between nodes without tearing down the
    /// rest of the placement.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::UnknownNode`] if `node` is unknown or dead —
    /// neither the state nor `log` is touched.
    ///
    /// # Panics
    ///
    /// Panics if `topology` has no reservation on `node` (releasing what
    /// was never reserved is a caller bug, not a runtime condition).
    pub fn unreserve_logged(
        &mut self,
        topology: &TopologyId,
        node: &NodeId,
        request: &ResourceRequest,
        log: &mut UndoLog,
    ) -> Result<(), ScheduleError> {
        let i = self
            .index
            .node_index(node.as_str())
            .filter(|&i| self.alive[i as usize])
            .ok_or_else(|| ScheduleError::UnknownNode {
                node: node.as_str().to_owned(),
            })?;
        let per_node = self
            .reserved
            .get_mut(topology)
            .unwrap_or_else(|| panic!("topology `{topology}` has no reservations to release"));
        let prev = per_node
            .get(node)
            .cloned()
            .unwrap_or_else(|| panic!("topology `{topology}` reserved nothing on `{node}`"));
        log.entries.push(UndoEntry::Remaining {
            index: i,
            prev: self.dense[i as usize],
        });
        self.dense[i as usize].add(request);
        // Shrink the reserved total; clamp at zero so a release computed
        // from a refined (observed) profile can never drive the books
        // negative.
        per_node.insert(
            node.clone(),
            ResourceRequest {
                cpu_points: (prev.cpu_points - request.cpu_points).max(0.0),
                memory_mb: (prev.memory_mb - request.memory_mb).max(0.0),
                bandwidth: (prev.bandwidth - request.bandwidth).max(0.0),
            },
        );
        log.entries.push(UndoEntry::ReservedTotal {
            topology: topology.clone(),
            node: node.clone(),
            prev: Some(prev),
            topology_was_present: true,
        });
        let rack = self.index.rack_of(i);
        self.recompute_rack(rack);
        Ok(())
    }

    /// The worker slot tasks of `topology` use on `node`.
    ///
    /// R-Storm packs a topology's tasks on a node into a single worker
    /// process (so colocated tasks communicate intra-process); distinct
    /// topologies prefer distinct slots. The choice is stable for the
    /// lifetime of the assignment.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::UnknownNode`] if `node` is not part of `cluster`.
    pub fn slot_for(
        &mut self,
        cluster: &Cluster,
        topology: &TopologyId,
        node: &NodeId,
    ) -> Result<WorkerSlot, ScheduleError> {
        let mut scratch = UndoLog::new();
        self.slot_for_logged(cluster, topology, node, &mut scratch)
    }

    /// [`GlobalState::slot_for`], recording any new slot bookkeeping in
    /// `log` so it can be reverted by [`GlobalState::rollback`].
    ///
    /// # Errors
    ///
    /// [`ScheduleError::UnknownNode`] if `node` is not part of `cluster` —
    /// neither the state nor `log` is touched.
    pub fn slot_for_logged(
        &mut self,
        cluster: &Cluster,
        topology: &TopologyId,
        node: &NodeId,
        log: &mut UndoLog,
    ) -> Result<WorkerSlot, ScheduleError> {
        if let Some(&port) = self
            .topology_slots
            .get(topology)
            .and_then(|ports| ports.get(node))
        {
            return Ok(WorkerSlot::new(node.clone(), port));
        }
        let slots = cluster
            .node(node.as_str())
            .ok_or_else(|| ScheduleError::UnknownNode {
                node: node.as_str().to_owned(),
            })?
            .slots();
        // Prefer an unoccupied slot; otherwise share the least-occupied.
        let slot = slots
            .iter()
            .min_by_key(|s| self.slot_occupancy.get(*s).copied().unwrap_or(0))
            .expect("nodes always have at least one slot")
            .clone();
        let prev = self.slot_occupancy.get(&slot).copied();
        *self.slot_occupancy.entry(slot.clone()).or_insert(0) += 1;
        self.topology_slots
            .entry(topology.clone())
            .or_default()
            .insert(node.clone(), slot.port);
        log.entries.push(UndoEntry::SlotOccupancy {
            slot: slot.clone(),
            prev,
        });
        log.entries.push(UndoEntry::TopologySlot {
            topology: topology.clone(),
            node: node.clone(),
        });
        Ok(slot)
    }

    /// Reverts every mutation recorded in `log`, newest first, restoring
    /// the state bit-for-bit to what it was when the log was empty.
    pub fn rollback(&mut self, log: UndoLog) {
        let index = Arc::clone(&self.index);
        let mut touched_racks: Vec<u32> = Vec::new();
        for entry in log.entries.into_iter().rev() {
            match entry {
                UndoEntry::Remaining { index: i, prev } => {
                    self.dense[i as usize] = prev;
                    let rack = index.rack_of(i);
                    if !touched_racks.contains(&rack) {
                        touched_racks.push(rack);
                    }
                }
                UndoEntry::ReservedTotal {
                    topology,
                    node,
                    prev,
                    topology_was_present,
                } => {
                    if let Some(per_node) = self.reserved.get_mut(&topology) {
                        match prev {
                            Some(total) => {
                                per_node.insert(node, total);
                            }
                            None => {
                                per_node.remove(&node);
                            }
                        }
                    }
                    if !topology_was_present {
                        self.reserved.remove(&topology);
                    }
                }
                UndoEntry::TopologySlot { topology, node } => {
                    if let Some(ports) = self.topology_slots.get_mut(&topology) {
                        ports.remove(&node);
                        if ports.is_empty() {
                            self.topology_slots.remove(&topology);
                        }
                    }
                }
                UndoEntry::SlotOccupancy { slot, prev } => match prev {
                    Some(count) => {
                        self.slot_occupancy.insert(slot, count);
                    }
                    None => {
                        self.slot_occupancy.remove(&slot);
                    }
                },
            }
        }
        for rack in touched_racks {
            self.recompute_rack(rack);
        }
    }

    /// Increments a slot's occupancy count. Used by schedulers that pick
    /// slots directly (e.g. the even scheduler) instead of via
    /// [`GlobalState::slot_for`].
    pub fn occupy_slot(&mut self, slot: &WorkerSlot) {
        *self.slot_occupancy.entry(slot.clone()).or_insert(0) += 1;
    }

    /// How many occupants a slot currently has.
    pub fn slot_occupancy(&self, slot: &WorkerSlot) -> usize {
        self.slot_occupancy.get(slot).copied().unwrap_or(0)
    }

    /// Records a finished assignment in the plan (the "atomic commit" of
    /// §4.1).
    pub fn commit(&mut self, assignment: Assignment) {
        self.plan.insert(assignment);
    }

    /// True if `topology` currently has an assignment.
    pub fn is_scheduled(&self, topology: &str) -> bool {
        self.plan.assignment(topology).is_some()
    }

    /// The current plan.
    pub fn plan(&self) -> &SchedulingPlan {
        &self.plan
    }

    /// Releases everything reserved by `topology` and removes its
    /// assignment, returning it (used before rescheduling).
    pub fn release_topology(&mut self, topology: &str) -> Option<Assignment> {
        let index = Arc::clone(&self.index);
        let mut touched_racks: Vec<u32> = Vec::new();
        if let Some(per_node) = self.reserved.remove(topology) {
            for (node, total) in per_node {
                if let Some(i) = index.node_index(node.as_str()) {
                    if self.alive[i as usize] {
                        self.dense[i as usize].add(&total);
                        let rack = index.rack_of(i);
                        if !touched_racks.contains(&rack) {
                            touched_racks.push(rack);
                        }
                    }
                }
            }
        }
        for rack in touched_racks {
            self.recompute_rack(rack);
        }
        for (node, port) in self.topology_slots.remove(topology).unwrap_or_default() {
            let slot = WorkerSlot::new(node, port);
            if let Some(count) = self.slot_occupancy.get_mut(&slot) {
                *count = count.saturating_sub(1);
            }
        }
        self.plan.remove(topology)
    }

    /// Handles a node failure: removes the node from the resource pool and
    /// returns the topologies that had tasks on it (which the caller
    /// should release and reschedule). The paper motivates fast
    /// rescheduling: "if executors are not rescheduled quickly, whole
    /// topologies may be stalled" (§3).
    pub fn handle_node_failure(&mut self, node: &str) -> Vec<TopologyId> {
        if let Some(i) = self.index.node_index(node) {
            if self.alive[i as usize] {
                self.alive[i as usize] = false;
                let rack = self.index.rack_of(i);
                self.recompute_rack(rack);
            }
        }
        self.plan
            .topologies_on_node(node)
            .into_iter()
            .cloned()
            .collect()
    }

    /// Handles a node rejoining the cluster: marks it alive and sets its
    /// remaining resources to full capacity minus whatever reservations
    /// still name it (a topology that was never displaced keeps its claim
    /// across the outage). Returns `true` if the node was known and dead.
    ///
    /// The subtraction walks topologies in id order so the result is
    /// deterministic and — for exactly representable loads — bit-identical
    /// to a state rebuilt from scratch (see [`GlobalState::rebuild`]).
    pub fn handle_node_recovery(&mut self, node: &str) -> bool {
        let Some(i) = self.index.node_index(node) else {
            return false;
        };
        if self.alive[i as usize] {
            return false;
        }
        let cap = self.index.capacity(i);
        let mut remaining = RemainingResources {
            cpu_points: cap.cpu_points,
            memory_mb: cap.memory_mb,
            bandwidth: cap.bandwidth,
        };
        let mut topologies: Vec<&TopologyId> = self.reserved.keys().collect();
        topologies.sort();
        let node_id = NodeId::new(node);
        for topology in topologies {
            if let Some(total) = self.reserved[topology].get(&node_id) {
                remaining.subtract(total);
            }
        }
        self.dense[i as usize] = remaining;
        self.alive[i as usize] = true;
        let rack = self.index.rack_of(i);
        self.recompute_rack(rack);
        true
    }

    /// Reconstructs scheduling state from scratch — what a restarted
    /// Nimbus would do: snapshot the surviving cluster, then replay every
    /// assignment of `plan` (topologies in id order, tasks in task-id
    /// order), reserving each placed task's resources on its node and
    /// re-deriving slot occupancy. Tasks an assignment declares unplaced
    /// are skipped, and reservations on dead nodes are dropped, exactly as
    /// the incremental failure path leaves them.
    ///
    /// The recovery property test pins the incremental path
    /// ([`GlobalState::handle_node_failure`] /
    /// [`GlobalState::handle_node_recovery`]) against this rebuild.
    pub fn rebuild(cluster: &Cluster, topologies: &[&Topology], plan: &SchedulingPlan) -> Self {
        let mut state = Self::new(cluster);
        for assignment in plan.iter() {
            let tid = assignment.topology();
            let Some(topology) = topologies.iter().find(|t| t.id() == tid) else {
                continue;
            };
            let task_set = topology.task_set();
            let mut seen_slots: Vec<WorkerSlot> = Vec::new();
            for (task, slot) in assignment.iter() {
                if let Some(request) = task_set.resources(task) {
                    // Reservations on dead nodes are silently dropped:
                    // the incremental path never restores them either.
                    let _ = state.reserve(tid, &slot.node, request);
                }
                if !seen_slots.contains(slot) {
                    seen_slots.push(slot.clone());
                    state.occupy_slot(slot);
                    state
                        .topology_slots
                        .entry(tid.clone())
                        .or_default()
                        .insert(slot.node.clone(), slot.port);
                }
            }
            state.commit(assignment.clone());
        }
        state
    }
}

trait AddAssign {
    fn add_assign(&mut self, other: &ResourceRequest);
}

impl AddAssign for ResourceRequest {
    fn add_assign(&mut self, other: &ResourceRequest) {
        *self = self.saturating_add(other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstorm_cluster::{ClusterBuilder, ResourceCapacity};
    use rstorm_topology::TaskId;

    fn cluster() -> Cluster {
        ClusterBuilder::new()
            .homogeneous_racks(1, 2, ResourceCapacity::emulab_node(), 2)
            .build()
            .unwrap()
    }

    #[test]
    fn snapshot_matches_capacities() {
        let c = cluster();
        let s = GlobalState::new(&c);
        let r = s.remaining("rack-0-node-0").unwrap();
        assert_eq!(r.cpu_points, 100.0);
        assert_eq!(r.memory_mb, 2048.0);
        assert_eq!(s.iter_remaining().count(), 2);
        assert!(s.remaining("nope").is_none());
    }

    #[test]
    fn dead_nodes_are_not_snapshotted() {
        let mut c = cluster();
        c.kill_node("rack-0-node-1");
        let s = GlobalState::new(&c);
        assert!(s.remaining("rack-0-node-1").is_none());
    }

    #[test]
    fn reserve_and_release_roundtrip() {
        let c = cluster();
        let mut s = GlobalState::new(&c);
        let t = TopologyId::new("t");
        let n = NodeId::new("rack-0-node-0");
        s.reserve(&t, &n, &ResourceRequest::new(60.0, 1024.0, 0.0))
            .unwrap();
        s.reserve(&t, &n, &ResourceRequest::new(60.0, 512.0, 0.0))
            .unwrap();
        let r = s.remaining("rack-0-node-0").unwrap();
        assert_eq!(r.cpu_points, -20.0, "soft dimension may go negative");
        assert_eq!(r.memory_mb, 512.0);

        s.commit(Assignment::new("t", BTreeMap::new()));
        assert!(s.is_scheduled("t"));
        s.release_topology("t");
        assert!(!s.is_scheduled("t"));
        let r = s.remaining("rack-0-node-0").unwrap();
        assert_eq!(r.cpu_points, 100.0);
        assert_eq!(r.memory_mb, 2048.0);
    }

    #[test]
    fn slots_are_stable_and_topology_disjoint() {
        let c = cluster();
        let mut s = GlobalState::new(&c);
        let n = NodeId::new("rack-0-node-0");
        let t1 = TopologyId::new("t1");
        let t2 = TopologyId::new("t2");
        let s1 = s.slot_for(&c, &t1, &n).unwrap();
        let s1_again = s.slot_for(&c, &t1, &n).unwrap();
        assert_eq!(s1, s1_again, "slot choice is stable");
        let s2 = s.slot_for(&c, &t2, &n).unwrap();
        assert_ne!(s1, s2, "second topology gets its own worker");
        // A third topology shares the least-occupied slot (only 2 exist).
        let s3 = s.slot_for(&c, &TopologyId::new("t3"), &n).unwrap();
        assert!(s3 == s1 || s3 == s2);
    }

    #[test]
    fn node_failure_reports_affected_topologies() {
        let c = cluster();
        let mut s = GlobalState::new(&c);
        let mut m = BTreeMap::new();
        m.insert(TaskId(0), WorkerSlot::new("rack-0-node-0", 6700));
        s.commit(Assignment::new("t", m));
        let affected = s.handle_node_failure("rack-0-node-0");
        assert_eq!(affected, vec![TopologyId::new("t")]);
        assert!(s.remaining("rack-0-node-0").is_none());
        // Releasing and rescheduling is the caller's job.
        assert!(s.release_topology("t").is_some());
    }

    #[test]
    fn abundance_orders_nodes() {
        let a = RemainingResources {
            cpu_points: 100.0,
            memory_mb: 2048.0,
            bandwidth: 100.0,
        };
        let b = RemainingResources {
            cpu_points: 50.0,
            memory_mb: 2048.0,
            bandwidth: 100.0,
        };
        assert!(a.abundance(100.0, 2048.0) > b.abundance(100.0, 2048.0));
    }

    #[test]
    fn reserving_on_unknown_node_is_a_typed_error() {
        let c = cluster();
        let mut s = GlobalState::new(&c);
        let before = format!("{s:?}");
        let err = s
            .reserve(
                &TopologyId::new("t"),
                &NodeId::new("ghost"),
                &ResourceRequest::zero(),
            )
            .unwrap_err();
        assert!(matches!(
            &err,
            crate::error::ScheduleError::UnknownNode { node } if node == "ghost"
        ));
        let slot_err = s
            .slot_for(&c, &TopologyId::new("t"), &NodeId::new("ghost"))
            .unwrap_err();
        assert!(matches!(
            slot_err,
            crate::error::ScheduleError::UnknownNode { .. }
        ));
        assert_eq!(format!("{s:?}"), before, "failed lookups leave no trace");
    }

    /// Captures every observable bit of a state for exact comparisons.
    fn fingerprint(s: &GlobalState) -> Vec<(String, [u64; 3])> {
        s.iter_remaining()
            .map(|(n, r)| {
                (
                    n.as_str().to_owned(),
                    [
                        r.cpu_points.to_bits(),
                        r.memory_mb.to_bits(),
                        r.bandwidth.to_bits(),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn rollback_restores_bit_identical_state() {
        let c = cluster();
        let mut s = GlobalState::new(&c);
        let t0 = TopologyId::new("t0");
        let n0 = NodeId::new("rack-0-node-0");
        // Pre-existing reservations so the log must restore non-trivial
        // previous values, not just remove entries.
        s.reserve(&t0, &n0, &ResourceRequest::new(33.3, 123.4, 0.7))
            .unwrap();
        s.slot_for(&c, &t0, &n0).unwrap();
        let before = format!("{s:?}");
        let before_fp = fingerprint(&s);

        let t1 = TopologyId::new("t1");
        let n1 = NodeId::new("rack-0-node-1");
        let mut log = UndoLog::new();
        s.reserve_logged(&t1, &n0, &ResourceRequest::new(10.1, 20.2, 30.3), &mut log)
            .unwrap();
        s.reserve_logged(&t1, &n1, &ResourceRequest::new(1.0, 2.0, 3.0), &mut log)
            .unwrap();
        s.reserve_logged(&t0, &n0, &ResourceRequest::new(5.5, 6.6, 7.7), &mut log)
            .unwrap();
        s.slot_for_logged(&c, &t1, &n0, &mut log).unwrap();
        s.slot_for_logged(&c, &t1, &n1, &mut log).unwrap();
        assert!(!log.is_empty());
        assert_ne!(fingerprint(&s), before_fp, "mutations took effect");

        s.rollback(log);
        assert_eq!(fingerprint(&s), before_fp, "bits restored exactly");
        assert_eq!(format!("{s:?}"), before, "all bookkeeping restored");
    }

    #[test]
    fn unreserve_moves_one_reservation_and_rolls_back_bit_exactly() {
        let c = cluster();
        let mut s = GlobalState::new(&c);
        let t = TopologyId::new("t");
        let n0 = NodeId::new("rack-0-node-0");
        let n1 = NodeId::new("rack-0-node-1");
        let req = ResourceRequest::new(30.0, 256.0, 1.0);
        s.reserve(&t, &n0, &req).unwrap();
        s.reserve(&t, &n0, &req).unwrap();
        let before = format!("{s:?}");
        let before_fp = fingerprint(&s);

        // Move one of the two reservations to the other node, merging the
        // per-step logs the way the delta scheduler does.
        let mut plan_log = UndoLog::new();
        let mut step = UndoLog::new();
        s.unreserve_logged(&t, &n0, &req, &mut step).unwrap();
        s.reserve_logged(&t, &n1, &req, &mut step).unwrap();
        plan_log.absorb(step);
        assert_eq!(plan_log.len(), 4);
        assert_eq!(s.remaining("rack-0-node-0").unwrap().cpu_points, 70.0);
        assert_eq!(s.remaining("rack-0-node-1").unwrap().cpu_points, 70.0);

        s.rollback(plan_log);
        assert_eq!(fingerprint(&s), before_fp, "bits restored exactly");
        assert_eq!(format!("{s:?}"), before, "all bookkeeping restored");

        // Unknown/dead nodes are typed errors and leave no trace.
        let err = s
            .unreserve_logged(&t, &NodeId::new("ghost"), &req, &mut UndoLog::new())
            .unwrap_err();
        assert!(matches!(err, ScheduleError::UnknownNode { .. }));
        assert_eq!(format!("{s:?}"), before);
    }

    #[test]
    #[should_panic(expected = "reserved nothing")]
    fn unreserve_without_reservation_is_a_caller_bug() {
        let c = cluster();
        let mut s = GlobalState::new(&c);
        let t = TopologyId::new("t");
        s.reserve(
            &t,
            &NodeId::new("rack-0-node-0"),
            &ResourceRequest::new(1.0, 1.0, 0.0),
        )
        .unwrap();
        let _ = s.unreserve_logged(
            &t,
            &NodeId::new("rack-0-node-1"),
            &ResourceRequest::zero(),
            &mut UndoLog::new(),
        );
    }

    #[test]
    fn rack_aggregates_track_mutations() {
        let c = ClusterBuilder::new()
            .homogeneous_racks(2, 2, ResourceCapacity::emulab_node(), 2)
            .build()
            .unwrap();
        let mut s = GlobalState::new(&c);
        let idx = c.index();
        assert_eq!(s.rack_alive_counts(), &[2, 2]);
        assert_eq!(s.rack_max_memories(), &[2048.0, 2048.0]);
        let expected: f64 = (0..2)
            .map(|i| s.remaining_dense()[i].abundance(idx.max_cpu_points(), idx.max_memory_mb()))
            .sum();
        assert_eq!(s.rack_abundances()[0].to_bits(), expected.to_bits());

        let t = TopologyId::new("t");
        s.reserve(
            &t,
            &NodeId::new("rack-0-node-0"),
            &ResourceRequest::new(50.0, 1500.0, 0.0),
        )
        .unwrap();
        assert_eq!(s.rack_max_memories()[0], 2048.0, "node-1 untouched");
        s.reserve(
            &t,
            &NodeId::new("rack-0-node-1"),
            &ResourceRequest::new(0.0, 1000.0, 0.0),
        )
        .unwrap();
        assert_eq!(s.rack_max_memories()[0], 1048.0);
        assert_eq!(s.rack_max_memories()[1], 2048.0, "other rack untouched");

        s.handle_node_failure("rack-0-node-1");
        assert_eq!(s.rack_alive_counts()[0], 1);
        assert_eq!(s.rack_max_memories()[0], 548.0);
        s.handle_node_failure("rack-0-node-0");
        assert_eq!(s.rack_alive_counts()[0], 0);
        assert_eq!(s.rack_max_memories()[0], f64::NEG_INFINITY);
        assert_eq!(s.rack_abundances()[0], 0.0);
    }

    #[test]
    fn recovery_restores_capacity_minus_surviving_reservations() {
        let c = cluster();
        let mut s = GlobalState::new(&c);
        let t = TopologyId::new("t");
        let n = NodeId::new("rack-0-node-0");
        // Integer-valued loads so subtraction order cannot matter.
        s.reserve(&t, &n, &ResourceRequest::new(40.0, 512.0, 0.0))
            .unwrap();
        let mut m = BTreeMap::new();
        m.insert(TaskId(0), WorkerSlot::new("rack-0-node-0", 6700));
        s.commit(Assignment::new("t", m));
        let before = fingerprint(&s);

        assert_eq!(s.handle_node_failure("rack-0-node-0"), vec![t.clone()]);
        assert!(s.remaining("rack-0-node-0").is_none());
        assert!(!s.alive_dense()[0]);

        // Reviving without releasing the topology re-derives remaining
        // capacity from the reservations that are still on the books.
        assert!(s.handle_node_recovery("rack-0-node-0"));
        assert!(s.alive_dense()[0]);
        assert_eq!(fingerprint(&s), before, "crash + recover is a no-op");

        // Idempotence and unknown names.
        assert!(!s.handle_node_recovery("rack-0-node-0"), "already alive");
        assert!(!s.handle_node_recovery("ghost"));
    }

    #[test]
    fn rebuild_matches_incremental_state() {
        let c = cluster();
        let mut s = GlobalState::new(&c);
        let t = TopologyId::new("t");
        let n0 = NodeId::new("rack-0-node-0");
        let mut b = rstorm_topology::TopologyBuilder::new("t");
        b.set_spout("s", 2)
            .set_memory_load(256.0)
            .set_cpu_load(20.0);
        b.set_bolt("b", 2)
            .shuffle_grouping("s")
            .set_memory_load(128.0)
            .set_cpu_load(10.0);
        let topology = b.build().unwrap();
        let task_set = topology.task_set();
        let mut mapping = BTreeMap::new();
        for task in task_set.tasks() {
            let request = task_set.resources(task.id).unwrap();
            s.reserve(&t, &n0, request).unwrap();
            let slot = s.slot_for(&c, &t, &n0).unwrap();
            mapping.insert(task.id, slot);
        }
        s.commit(Assignment::new("t", mapping));

        let rebuilt = GlobalState::rebuild(&c, &[&topology], s.plan());
        assert_eq!(fingerprint(&rebuilt), fingerprint(&s));
        assert_eq!(rebuilt.alive_dense(), s.alive_dense());
        assert_eq!(format!("{:?}", rebuilt.plan()), format!("{:?}", s.plan()));
    }

    #[test]
    fn dense_view_matches_string_api() {
        let mut c = ClusterBuilder::new()
            .homogeneous_racks(2, 3, ResourceCapacity::emulab_node(), 2)
            .build()
            .unwrap();
        c.kill_node("rack-1-node-1");
        let s = GlobalState::new(&c);
        let idx = s.cluster_index();
        assert!(Arc::ptr_eq(idx, &c.shared_index()));
        for i in 0..idx.len() as u32 {
            let id = idx.node_id(i).as_str();
            match s.remaining(id) {
                Some(r) => {
                    assert!(s.alive_dense()[i as usize]);
                    assert_eq!(r, &s.remaining_dense()[i as usize]);
                }
                None => assert!(!s.alive_dense()[i as usize]),
            }
        }
        assert_eq!(s.iter_remaining().count(), 5);
    }
}
