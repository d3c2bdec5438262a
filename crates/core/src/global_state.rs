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
//! Everything a placement touches per task is keyed by the cluster's
//! dense [`ClusterIndex`] node indices (sorted-id order):
//!
//! - Remaining resources live in a dense `Vec`, with a parallel liveness
//!   vector.
//! - Each topology's reserved totals and worker ports live in a dense
//!   **book** ([`BookId`]), one entry per node. Undo-log entries record
//!   book and node indices, so no id is hashed, compared or cloned per
//!   placed task.
//! - Per rack, the maximum remaining memory over alive members, so node
//!   selection can skip racks that cannot hold a task. A single-node
//!   write adjusts it in O(1) unless it lowers the node that held the
//!   maximum; then, and on every other write, the rack is rescanned.
//!   A maximum has no rounding, so either way it equals a scan.
//!
//! The dense API (`open_book`, `reserve_dense`, `unreserve_dense`,
//! `slot_for_dense`) is the one implementation; the string-keyed API
//! (`remaining`, `iter_remaining`, `reserve`, `slot_for`, ...) resolves
//! ids and calls it, behaving exactly like the original `BTreeMap`
//! representation: iteration is in node-id order, dead nodes are
//! invisible, and a book with nothing in it is as good as absent.
//!
//! Every write to a rack's nodes gives the rack a fresh **stamp** from a
//! process-wide counter, and records the stamp it replaced and — when the
//! write touched a single node (a reservation or release of one task) —
//! that node. Rollbacks, failures, recoveries and topology releases count
//! as multi-node writes. Since no stamp is issued twice, equal stamps
//! mean equal contents even across clones of a state. Node selection
//! keys its per-rack memo on them: a rack whose memo is at the current
//! stamp is reused, and one whose memo is at the replaced stamp of a
//! single-node write is brought up to date by re-scoring that node
//! alone. Stamps and work counters are bookkeeping about the state, not
//! state — their `Debug` prints a constant, so a rollback (which
//! restores contents under fresh stamps) prints exactly the state it
//! restored.
//!
//! The abundance sums Algorithm 4 ranks racks by are read once per
//! topology, when the reference node is anchored, so they are not
//! maintained here: node selection computes them when it reads them.

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

/// Bookkeeping *about* a state rather than state: rack stamps (identity)
/// and work counters. `Debug` prints a constant, so a rollback, which
/// restores contents under fresh stamps and counts its own writes, still
/// prints exactly the state it restored.
#[derive(Clone, Default)]
struct Unprinted<T>(T);

impl<T> fmt::Debug for Unprinted<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("..")
    }
}

/// A rack's stamp and the write that issued it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RackStamp {
    /// Fresh at every write to the rack's nodes; two equal stamps (in
    /// this or any other state of the process) denote identical rack
    /// contents.
    pub(crate) now: u64,
    /// The stamp the latest write replaced.
    pub(crate) before: u64,
    /// The node the latest write changed, when it changed only that one.
    pub(crate) written: Option<u32>,
}

/// Work counters of R-Storm placement, accumulated over the life of the
/// [`GlobalState`] every placement runs against; read them with
/// [`GlobalState::schedule_stats`] after [`crate::Scheduler::schedule`].
///
/// They are deterministic — the same inputs count the same work on every
/// machine — so they can be pinned where wall time cannot. The selector
/// counters (searches through nodes scored) come from
/// [`NodeSelector`](crate::rstorm::node_selection::NodeSelector); the last
/// two from the state itself, whoever writes to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Reference-node searches (Algorithm 4 lines 6–9), one per
    /// placement pass that found an alive node.
    pub ref_node_searches: u64,
    /// Node picks: one per task a selector was asked to place.
    pub picks: u64,
    /// Racks a pick visited: racks written since the selector last
    /// folded them (every rack, under a new request) that can hold the
    /// request.
    pub racks_visited: u64,
    /// Racks written since the selector last folded them that a pick
    /// skipped, because their maximum remaining memory is below the
    /// request.
    pub racks_skipped: u64,
    /// Visited racks whose members a pick re-scored one by one: under a
    /// new request, or after a write to several of the rack's nodes.
    pub rack_rescans: u64,
    /// Visited racks a pick brought up to date by re-scoring only the
    /// node their latest (single-node) write changed.
    pub rack_updates: u64,
    /// Those of `rack_updates` where the written node left a winner, so
    /// the rack's winners were folded again over its members' cached
    /// scores: O(rack size) comparisons, but no node scored.
    pub rack_refolds: u64,
    /// Nodes whose distance to a request a pick computed.
    pub nodes_scored: u64,
    /// Entries appended to undo logs.
    pub undo_entries: u64,
    /// Writes of a node's remaining resources or liveness.
    pub state_writes: u64,
}

impl std::ops::AddAssign for ScheduleStats {
    fn add_assign(&mut self, other: Self) {
        self.ref_node_searches += other.ref_node_searches;
        self.picks += other.picks;
        self.racks_visited += other.racks_visited;
        self.racks_skipped += other.racks_skipped;
        self.rack_rescans += other.rack_rescans;
        self.rack_updates += other.rack_updates;
        self.rack_refolds += other.rack_refolds;
        self.nodes_scored += other.nodes_scored;
        self.undo_entries += other.undo_entries;
        self.state_writes += other.state_writes;
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
/// Entries store the exact previous values, by node and book index, and
/// are replayed in reverse by [`GlobalState::rollback`], restoring the
/// state bit-for-bit — inverse arithmetic (`(x - a) + a`) would not, in
/// floating point.
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
    Remaining { node: u32, prev: RemainingResources },
    /// A book's reserved total on a node was created, grown or shrunk.
    ReservedTotal {
        book: u32,
        node: u32,
        prev: Option<ResourceRequest>,
    },
    /// A book's port on a node was set (never overwritten).
    Port { book: u32, node: u32 },
    /// The occupancy count of a node's slot at `port` was bumped.
    SlotOccupancy {
        node: u32,
        port: u16,
        prev: Option<usize>,
    },
}

/// A topology's book in a [`GlobalState`]: the handle the dense API
/// takes instead of a [`TopologyId`]. Valid for the state that issued it
/// (and its clones) until the topology is released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BookId(u32);

/// One topology's reserved totals and worker ports, by dense node index.
#[derive(Debug, Clone)]
struct Book {
    topology: TopologyId,
    /// Reserved total per node; `None` where the topology reserved
    /// nothing.
    reserved: Vec<Option<ResourceRequest>>,
    /// The worker slot port the topology packs its tasks into, per node.
    ports: Vec<Option<u16>>,
}

impl Book {
    fn is_empty(&self) -> bool {
        self.reserved.iter().all(Option::is_none) && self.ports.iter().all(Option::is_none)
    }
}

/// Every topology's book, indexed by [`BookId`]; released indices are
/// reused.
#[derive(Clone, Default)]
struct Books {
    by_id: HashMap<TopologyId, u32>,
    books: Vec<Option<Book>>,
    free: Vec<u32>,
}

impl Books {
    fn get(&self, book: BookId) -> &Book {
        self.books[book.0 as usize]
            .as_ref()
            .expect("a book id is valid until its topology is released")
    }

    fn get_mut(&mut self, book: BookId) -> &mut Book {
        self.books[book.0 as usize]
            .as_mut()
            .expect("a book id is valid until its topology is released")
    }

    fn live(&self) -> impl Iterator<Item = &Book> {
        self.books.iter().flatten()
    }
}

/// Prints non-empty books by topology id, each as its `(node, total)`
/// reservations and `(node, port)` slots: what the state holds, not how
/// its storage happens to be laid out.
impl fmt::Debug for Books {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut books: Vec<&Book> = self.live().filter(|b| !b.is_empty()).collect();
        books.sort_by(|a, b| a.topology.cmp(&b.topology));
        f.debug_map()
            .entries(books.into_iter().map(|b| {
                let reserved: Vec<(usize, &ResourceRequest)> = (b.reserved.iter().enumerate())
                    .filter_map(|(i, r)| Some((i, r.as_ref()?)))
                    .collect();
                let ports: Vec<(usize, u16)> = (b.ports.iter().enumerate())
                    .filter_map(|(i, p)| Some((i, (*p)?)))
                    .collect();
                (&b.topology, (reserved, ports))
            }))
            .finish()
    }
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
    /// Per-rack max remaining memory over alive members
    /// (`NEG_INFINITY` when the rack has no alive member).
    rack_max_mem: Vec<f64>,
    /// Per-rack stamp and latest write.
    rack_stamp: Unprinted<Vec<RackStamp>>,
    /// Work counters.
    stats: Unprinted<ScheduleStats>,
    plan: SchedulingPlan,
    /// Per-topology reserved totals (for release on unschedule) and
    /// worker ports.
    books: Books,
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
            rack_max_mem: vec![f64::NEG_INFINITY; racks],
            rack_stamp: Unprinted(vec![RackStamp::default(); racks]),
            stats: Unprinted::default(),
            plan: SchedulingPlan::new(),
            books: Books::default(),
            slot_occupancy: BTreeMap::new(),
        };
        for rack in 0..racks as u32 {
            state.recompute_rack(rack);
        }
        state
    }

    /// Gives `rack` a fresh stamp, recording the one it replaces and the
    /// single node written (`None` for a multi-node write).
    fn stamp_rack(&mut self, rack: u32, written: Option<u32>) {
        let stamp = &mut self.rack_stamp.0[rack as usize];
        *stamp = RackStamp {
            // `Relaxed` suffices: only uniqueness matters, which
            // `fetch_add` guarantees under any ordering, and a stamp
            // publishes no data.
            now: NEXT_RACK_STAMP.fetch_add(1, Ordering::Relaxed),
            before: stamp.now,
            written,
        };
    }

    /// Rescans one rack's max remaining memory over alive members and
    /// stamps the rack as a multi-node write.
    fn recompute_rack(&mut self, rack: u32) {
        self.rack_max_mem[rack as usize] = self.scan_rack_max_mem(rack);
        self.stamp_rack(rack, None);
    }

    fn scan_rack_max_mem(&self, rack: u32) -> f64 {
        let mut best_mem = f64::NEG_INFINITY;
        for &i in self.index.rack_members(rack) {
            let r = &self.dense[i as usize];
            if self.alive[i as usize] && r.memory_mb > best_mem {
                best_mem = r.memory_mb;
            }
        }
        best_mem
    }

    /// Overwrites one alive node's remaining resources: the single-node
    /// write of a reservation or release.
    fn write_node(&mut self, node: u32, next: RemainingResources) {
        let prev = std::mem::replace(&mut self.dense[node as usize], next);
        let rack = self.index.rack_of(node);
        let max = self.rack_max_mem[rack as usize];
        if next.memory_mb >= max {
            self.rack_max_mem[rack as usize] = next.memory_mb;
        } else if prev.memory_mb == max {
            // The node may have held the maximum alone.
            self.rack_max_mem[rack as usize] = self.scan_rack_max_mem(rack);
        }
        self.stamp_rack(rack, Some(node));
        self.stats.0.state_writes += 1;
    }

    /// The cluster layout index this state is keyed by. Readers of the
    /// dense accessors take node, rack and distance lookups from this
    /// index, never from another cluster's.
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

    /// Per-rack max remaining memory over alive members
    /// (`NEG_INFINITY` for racks with no alive member).
    pub fn rack_max_memories(&self) -> &[f64] {
        &self.rack_max_mem
    }

    /// Per-rack stamps and latest writes.
    pub(crate) fn rack_stamps(&self) -> &[RackStamp] {
        &self.rack_stamp.0
    }

    /// Work counters of every placement run against this state (and of
    /// every write to it) since it was created.
    pub fn schedule_stats(&self) -> &ScheduleStats {
        &self.stats.0
    }

    /// Adds a selector's counters to this state's.
    pub(crate) fn record_stats(&mut self, stats: ScheduleStats) {
        self.stats.0 += stats;
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

    /// The dense index of an alive node, or the typed error every write
    /// returns for an unknown or dead one.
    fn alive_index(&self, node: &str) -> Result<u32, ScheduleError> {
        self.index
            .node_index(node)
            .filter(|&i| self.alive[i as usize])
            .ok_or_else(|| ScheduleError::UnknownNode {
                node: node.to_owned(),
            })
    }

    /// [`GlobalState::alive_index`] for a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for this state's layout.
    fn check_alive(&self, node: u32) -> Result<(), ScheduleError> {
        if self.alive[node as usize] {
            Ok(())
        } else {
            Err(ScheduleError::UnknownNode {
                node: self.index.node_id(node).as_str().to_owned(),
            })
        }
    }

    /// The book of `topology`, opened empty if it has none. An empty book
    /// is as good as absent, so opening one is not a write and is not
    /// logged; resolve the id once and pass the handle to the dense API.
    pub fn open_book(&mut self, topology: &TopologyId) -> BookId {
        if let Some(&b) = self.books.by_id.get(topology) {
            return BookId(b);
        }
        let n = self.index.len();
        let book = Book {
            topology: topology.clone(),
            reserved: vec![None; n],
            ports: vec![None; n],
        };
        let b = match self.books.free.pop() {
            Some(b) => {
                self.books.books[b as usize] = Some(book);
                b
            }
            None => {
                self.books.books.push(Some(book));
                u32::try_from(self.books.books.len() - 1).expect("fewer than 2^32 books")
            }
        };
        self.books.by_id.insert(topology.clone(), b);
        BookId(b)
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
        let i = self.alive_index(node.as_str())?;
        let book = self.open_book(topology);
        self.reserve_dense(book, i, request, log)
    }

    /// [`GlobalState::reserve_logged`] by book and dense node index.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::UnknownNode`] if `node` is dead — neither the
    /// state nor `log` is touched.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `book` was released.
    pub fn reserve_dense(
        &mut self,
        book: BookId,
        node: u32,
        request: &ResourceRequest,
        log: &mut UndoLog,
    ) -> Result<(), ScheduleError> {
        self.check_alive(node)?;
        let total = &mut self.books.get_mut(book).reserved[node as usize];
        let prev_total = *total;
        *total = Some(
            prev_total
                .unwrap_or_else(ResourceRequest::zero)
                .saturating_add(request),
        );
        let prev = self.dense[node as usize];
        let mut next = prev;
        next.subtract(request);
        log.entries.push(UndoEntry::Remaining { node, prev });
        log.entries.push(UndoEntry::ReservedTotal {
            book: book.0,
            node,
            prev: prev_total,
        });
        self.stats.0.undo_entries += 2;
        self.write_node(node, next);
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
        let i = self.alive_index(node.as_str())?;
        let Some(&book) = self.books.by_id.get(topology) else {
            panic!("topology `{topology}` has no reservations to release");
        };
        self.unreserve_dense(BookId(book), i, request, log)
    }

    /// [`GlobalState::unreserve_logged`] by book and dense node index.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::UnknownNode`] if `node` is dead — neither the
    /// state nor `log` is touched.
    ///
    /// # Panics
    ///
    /// Panics if the book has no reservation on `node`, if `node` is out
    /// of range, or if `book` was released.
    pub fn unreserve_dense(
        &mut self,
        book: BookId,
        node: u32,
        request: &ResourceRequest,
        log: &mut UndoLog,
    ) -> Result<(), ScheduleError> {
        self.check_alive(node)?;
        let b = self.books.get_mut(book);
        let Some(prev_total) = b.reserved[node as usize] else {
            let topology = &b.topology;
            if b.reserved.iter().all(Option::is_none) {
                panic!("topology `{topology}` has no reservations to release");
            }
            panic!(
                "topology `{topology}` reserved nothing on `{}`",
                self.index.node_id(node)
            );
        };
        // Shrink the reserved total; clamp at zero so a release computed
        // from a refined (observed) profile can never drive the books
        // negative.
        b.reserved[node as usize] = Some(ResourceRequest {
            cpu_points: (prev_total.cpu_points - request.cpu_points).max(0.0),
            memory_mb: (prev_total.memory_mb - request.memory_mb).max(0.0),
            bandwidth: (prev_total.bandwidth - request.bandwidth).max(0.0),
        });
        let prev = self.dense[node as usize];
        let mut next = prev;
        next.add(request);
        log.entries.push(UndoEntry::Remaining { node, prev });
        log.entries.push(UndoEntry::ReservedTotal {
            book: book.0,
            node,
            prev: Some(prev_total),
        });
        self.stats.0.undo_entries += 2;
        self.write_node(node, next);
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
    /// [`ScheduleError::UnknownNode`] if `node` is unknown or dead in
    /// this state (exactly when [`GlobalState::reserve`] refuses it), or
    /// not part of `cluster`.
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
    /// [`ScheduleError::UnknownNode`] if `node` is unknown or dead in
    /// this state, or not part of `cluster` — neither the state nor `log`
    /// is touched.
    pub fn slot_for_logged(
        &mut self,
        cluster: &Cluster,
        topology: &TopologyId,
        node: &NodeId,
        log: &mut UndoLog,
    ) -> Result<WorkerSlot, ScheduleError> {
        let i = self.alive_index(node.as_str())?;
        let book = self.open_book(topology);
        self.slot_for_dense(cluster, book, i, log)
    }

    /// [`GlobalState::slot_for_logged`] by book and dense node index.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::UnknownNode`] if `node` is dead, or not part of
    /// `cluster` — neither the state nor `log` is touched.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `book` was released.
    pub fn slot_for_dense(
        &mut self,
        cluster: &Cluster,
        book: BookId,
        node: u32,
        log: &mut UndoLog,
    ) -> Result<WorkerSlot, ScheduleError> {
        self.check_alive(node)?;
        let id = self.index.node_id(node);
        if let Some(port) = self.books.get(book).ports[node as usize] {
            return Ok(WorkerSlot::new(id.clone(), port));
        }
        let slots = cluster
            .node(id.as_str())
            .ok_or_else(|| ScheduleError::UnknownNode {
                node: id.as_str().to_owned(),
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
        self.books.get_mut(book).ports[node as usize] = Some(slot.port);
        log.entries.push(UndoEntry::SlotOccupancy {
            node,
            port: slot.port,
            prev,
        });
        log.entries.push(UndoEntry::Port { book: book.0, node });
        self.stats.0.undo_entries += 2;
        Ok(slot)
    }

    /// Reverts every mutation recorded in `log`, newest first, restoring
    /// the state bit-for-bit to what it was when the log was empty.
    pub fn rollback(&mut self, log: UndoLog) {
        let index = Arc::clone(&self.index);
        let mut touched_racks: Vec<u32> = Vec::new();
        for entry in log.entries.into_iter().rev() {
            match entry {
                UndoEntry::Remaining { node, prev } => {
                    self.dense[node as usize] = prev;
                    self.stats.0.state_writes += 1;
                    let rack = index.rack_of(node);
                    if !touched_racks.contains(&rack) {
                        touched_racks.push(rack);
                    }
                }
                UndoEntry::ReservedTotal { book, node, prev } => {
                    self.books.get_mut(BookId(book)).reserved[node as usize] = prev;
                }
                UndoEntry::Port { book, node } => {
                    self.books.get_mut(BookId(book)).ports[node as usize] = None;
                }
                UndoEntry::SlotOccupancy { node, port, prev } => {
                    let slot = WorkerSlot::new(index.node_id(node).clone(), port);
                    match prev {
                        Some(count) => {
                            self.slot_occupancy.insert(slot, count);
                        }
                        None => {
                            self.slot_occupancy.remove(&slot);
                        }
                    }
                }
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
        if let Some(b) = self.books.by_id.remove(topology) {
            let book = self.books.books[b as usize]
                .take()
                .expect("indexed books are live");
            self.books.free.push(b);
            let mut touched_racks: Vec<u32> = Vec::new();
            for (i, total) in book.reserved.iter().enumerate() {
                if let (Some(total), true) = (total, self.alive[i]) {
                    self.dense[i].add(total);
                    self.stats.0.state_writes += 1;
                    let rack = self.index.rack_of(i as u32);
                    if !touched_racks.contains(&rack) {
                        touched_racks.push(rack);
                    }
                }
            }
            for rack in touched_racks {
                self.recompute_rack(rack);
            }
            for (i, port) in book.ports.iter().enumerate() {
                let Some(port) = *port else { continue };
                let slot = WorkerSlot::new(self.index.node_id(i as u32).clone(), port);
                if let Some(count) = self.slot_occupancy.get_mut(&slot) {
                    *count = count.saturating_sub(1);
                }
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
        if let Ok(i) = self.alive_index(node) {
            self.alive[i as usize] = false;
            self.stats.0.state_writes += 1;
            let rack = self.index.rack_of(i);
            self.recompute_rack(rack);
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
        let mut totals: Vec<(&TopologyId, &ResourceRequest)> = (self.books.live())
            .filter_map(|b| Some((&b.topology, b.reserved[i as usize].as_ref()?)))
            .collect();
        totals.sort_by(|a, b| a.0.cmp(b.0));
        for (_, total) in totals {
            remaining.subtract(total);
        }
        self.dense[i as usize] = remaining;
        self.alive[i as usize] = true;
        self.stats.0.state_writes += 1;
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
            let book = state.open_book(tid);
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
                    if let Some(i) = state.index.node_index(slot.node.as_str()) {
                        state.books.get_mut(book).ports[i as usize] = Some(slot.port);
                    }
                }
            }
            state.commit(assignment.clone());
        }
        state
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

    #[test]
    fn dead_nodes_get_no_worker_slot() {
        let mut c = cluster();
        c.kill_node("rack-0-node-1");
        let mut s = GlobalState::new(&c);
        let t = TopologyId::new("t");
        let n0 = NodeId::new("rack-0-node-0");
        s.reserve(&t, &n0, &ResourceRequest::new(10.0, 64.0, 0.0))
            .unwrap();
        s.slot_for(&c, &t, &n0).unwrap();
        s.handle_node_failure(n0.as_str());
        let before = format!("{s:?}");
        // Failed in this state (with a slot already assigned), and dead
        // in the cluster at snapshot time: both refused like `reserve`.
        for node in [n0, NodeId::new("rack-0-node-1")] {
            let mut log = UndoLog::new();
            let err = s.slot_for_logged(&c, &t, &node, &mut log).unwrap_err();
            assert_eq!(
                err,
                ScheduleError::UnknownNode {
                    node: node.as_str().to_owned()
                }
            );
            assert!(log.is_empty());
            let reserve_err = s.reserve(&t, &node, &ResourceRequest::zero()).unwrap_err();
            assert_eq!(reserve_err, err, "same error as `reserve`");
        }
        assert_eq!(format!("{s:?}"), before, "refusals leave no trace");
        let slot = WorkerSlot::new("rack-0-node-1", 6700);
        assert_eq!(s.slot_occupancy(&slot), 0);
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
        assert_eq!(s.rack_max_memories(), &[2048.0, 2048.0]);
        let scan = |s: &GlobalState| -> Vec<u64> {
            (0..2).map(|r| s.scan_rack_max_mem(r).to_bits()).collect()
        };

        let t = TopologyId::new("t");
        let (stamp, other) = (s.rack_stamps()[0], s.rack_stamps()[1]);
        s.reserve(
            &t,
            &NodeId::new("rack-0-node-0"),
            &ResourceRequest::new(50.0, 1500.0, 0.0),
        )
        .unwrap();
        assert_eq!(s.rack_max_memories()[0], 2048.0, "node-1 untouched");
        // A reservation is a single-node write: the rack records the
        // stamp it replaced and the node it wrote.
        let after = s.rack_stamps()[0];
        assert_ne!(after.now, stamp.now);
        assert_eq!(
            (after.before, after.written),
            (stamp.now, c.index().node_index("rack-0-node-0"))
        );
        assert_eq!(s.rack_stamps()[1].now, other.now, "rack-1 untouched");
        s.reserve(
            &t,
            &NodeId::new("rack-0-node-1"),
            &ResourceRequest::new(0.0, 1000.0, 0.0),
        )
        .unwrap();
        // The write lowered the node holding the maximum: rescanned.
        assert_eq!(s.rack_max_memories()[0], 1048.0);
        assert_eq!(s.rack_max_memories()[1], 2048.0, "other rack untouched");
        assert_eq!(
            s.rack_max_memories()
                .iter()
                .map(|m| m.to_bits())
                .collect::<Vec<_>>(),
            scan(&s)
        );

        s.handle_node_failure("rack-0-node-1");
        assert_eq!(s.rack_max_memories()[0], 548.0);
        assert_eq!(s.rack_stamps()[0].written, None, "failure is multi-node");
        s.handle_node_failure("rack-0-node-0");
        assert_eq!(s.rack_max_memories()[0], f64::NEG_INFINITY);
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
