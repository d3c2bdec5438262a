//! Node selection (Algorithm 4).
//!
//! The first task of a topology anchors the **reference node**: the node
//! with the most remaining resources inside the rack with the most
//! remaining resources. Every task (including the first) is then placed on
//! the node minimizing the weighted Euclidean distance between the task's
//! demand vector and the node's remaining availability vector, with the
//! network-distance-to-refNode as the bandwidth term — "tasks will be
//! patched as tightly on or closely around the Ref Node as resource
//! constraints allow" (§4.2). Nodes whose remaining memory cannot hold the
//! task are excluded (the hard constraint `H_θ > H_τ`).
//!
//! ## One path, checked against a scan
//!
//! Selection reads the layout of the [`GlobalState`] it is handed
//! ([`GlobalState::cluster_index`]) and works on the state's dense
//! vectors keyed by that [`ClusterIndex`]; a pick is a dense node index
//! ([`NodeSelector::select_dense`]), and [`NodeSelector::select`] only
//! names it. A selector attaches to the state's index when it anchors the
//! reference node, so a state built from another cluster is read through
//! its own layout, never through the scheduling cluster's. The anchor
//! search sums each rack's abundance over its alive members when it runs
//! — once per topology — in declaration order. Algorithm 4's winner is
//! memoised **per rack**:
//!
//! - The memo is keyed by the request's CPU and memory bits and the
//!   reference node, and holds one entry per rack: the rack stamp it was
//!   computed at and the rack's best node with and without the soft CPU
//!   constraint. A changed key clears it.
//! - A pick visits only the racks whose stamp changed since it last
//!   folded them (all of them under a new key). Racks that cannot hold
//!   the task (maintained max remaining memory below the demand) count
//!   as having no candidate.
//! - A visited rack whose latest write touched one node, and whose entry
//!   is at the stamp that write replaced, re-scores that node alone and
//!   updates both winners in O(1). Only when that node was a winner and
//!   got worse or stopped being a candidate is the winner unknown; then
//!   the winners are refolded from the members' cached scores. Any other
//!   visited rack rescans its members.
//! - The racks' winners are folded pairwise up a binary tree, so a
//!   changed rack re-folds its path to the root, O(log racks).
//! - Stamps are unique across the process and every write to a rack's
//!   nodes issues one, so a reused or updated entry is always the one a
//!   rescan would compute, even across clones of a state and interleaved
//!   rollbacks.
//!
//! Between two picks of one topology only the node just reserved
//! changes, and a reservation is a single-node write. Task ordering
//! interleaves components round-robin, so consecutive picks mostly come
//! from *different* components: the memo applies only when consecutive
//! picks across components send bit-identical requests. Then a pick
//! costs O(racks) stamp comparisons plus an O(1) update and an O(log
//! racks) re-fold, where a miss costs O(alive nodes), as a plain scan
//! would. The scale topology declares one request for every component,
//! so all but its first pick hit; the paper's topologies hit on 60 of 99
//! picks (EXPERIMENTS.md has the shares). The three possible network
//! terms are computed once per call, and no strings are hashed or
//! compared anywhere in the loop.
//!
//! The direct transcription of Algorithm 4 (score every alive node over
//! the string-keyed state API, keep the strict-`<` winner in node-id
//! order) lives in the test-only `oracle` module. The selector must agree
//! with it **byte for byte** — same floating-point operations in the same
//! order, same id-order tie breaking (`Winner` restates the scan's rule
//! as an order-independent fold) — which the unit tests below and
//! `tests/properties.rs` enforce on randomized inputs and mutation
//! sequences.

use crate::global_state::{GlobalState, ScheduleStats};
use crate::resource::{NormalizationContext, SoftConstraintWeights};
use rstorm_cluster::{Cluster, ClusterIndex, NodeId};
use rstorm_topology::ResourceRequest;
use std::sync::Arc;

/// The scan's winner rule as an order-independent fold, so racks can
/// be scanned in declaration order and combined in any order.
///
/// The scan keeps a candidate only if its distance is strictly below the
/// incumbent's, visiting nodes in id order. If the first candidate's
/// distance is NaN nothing ever compares below it, so it wins; otherwise
/// the winner is the smallest distance, lowest id among equals. `Winner`
/// tracks both, and each is an associative, commutative reduction.
#[derive(Debug, Clone, Copy, Default)]
struct Winner {
    /// The lowest-id candidate, with its distance.
    first: Option<(f64, u32)>,
    /// The minimum of `(distance, id)` over candidates with a non-NaN
    /// distance.
    min: Option<(f64, u32)>,
}

impl Winner {
    fn offer(&mut self, d: f64, i: u32) {
        self.merge_first(Some((d, i)));
        if !d.is_nan() {
            self.merge_min(Some((d, i)));
        }
    }

    /// Folds in another set's winner. `other.min` already accounts for
    /// `other.first` when its distance is not NaN, so the halves merge
    /// independently.
    fn merge(&mut self, other: &Winner) {
        self.merge_first(other.first);
        self.merge_min(other.min);
    }

    fn merge_first(&mut self, candidate: Option<(f64, u32)>) {
        if let Some((d, i)) = candidate {
            if self.first.is_none_or(|(_, fi)| i < fi) {
                self.first = Some((d, i));
            }
        }
    }

    fn merge_min(&mut self, candidate: Option<(f64, u32)>) {
        if let Some((d, i)) = candidate {
            if self
                .min
                .is_none_or(|(md, mi)| d < md || (d == md && i < mi))
            {
                self.min = Some((d, i));
            }
        }
    }

    /// Brings the fold up to date after member `i`, and no other, changed:
    /// `now` is its distance if it is still a candidate. The other
    /// members' candidacy and distances are unchanged, so `i` is simply
    /// re-offered — unless it held `first` and left, or held `min` and
    /// got worse or left. The runner-up is unknown then, and this returns
    /// `false`: the set must be folded again.
    fn update(&mut self, i: u32, now: Option<f64>) -> bool {
        match (self.first, now) {
            (Some((_, fi)), Some(d)) if fi == i => self.first = Some((d, i)),
            (Some((_, fi)), None) if fi == i => return false,
            (_, now) => self.merge_first(now.map(|d| (d, i))),
        }
        match (self.min, now) {
            // `d <= md` is false for a NaN `d`, which leaves the minimum.
            (Some((md, mi)), Some(d)) if mi == i && d <= md => self.min = Some((d, i)),
            (Some((_, mi)), _) if mi == i => return false,
            (_, Some(d)) if !d.is_nan() => self.merge_min(Some((d, i))),
            _ => {}
        }
        true
    }

    fn pick(&self) -> Option<u32> {
        match self.first {
            Some((d, i)) if d.is_nan() => Some(i),
            _ => self.min.map(|(_, i)| i),
        }
    }
}

/// One rack's memoised winners under the selector's current memo key.
#[derive(Debug, Clone, Copy, Default)]
struct RackMemo {
    /// The rack stamp the winners were computed at (0, never issued, for
    /// "not computed").
    stamp: u64,
    /// Best member whose remaining CPU also covers the request.
    soft: Winner,
    /// Best member with the soft CPU constraint relaxed.
    relaxed: Winner,
    /// The rack stamp the rack's leaf in the selector's fold tree was
    /// last set at (0 for "not set").
    folded: u64,
}

/// The soft and relaxed winners of a set of racks.
type Winners = (Winner, Winner);

fn merged(a: &Winners, b: &Winners) -> Winners {
    let (mut soft, mut relaxed) = *a;
    soft.merge(&b.0);
    relaxed.merge(&b.1);
    (soft, relaxed)
}

/// Stateful node selector for scheduling one topology.
#[derive(Debug)]
pub struct NodeSelector<'a> {
    weights: &'a SoftConstraintWeights,
    norm: NormalizationContext,
    /// The reference node's dense index, once anchored, with the layout
    /// of the state it was anchored in.
    anchor: Option<(Arc<ClusterIndex>, u32)>,
    /// `(cpu bits, memory bits, reference node)` the memo was built for.
    memo_key: Option<(u64, u64, u32)>,
    /// Per-rack winners for `memo_key`, by rack index.
    memo: Vec<RackMemo>,
    /// The racks' winners folded pairwise up a binary tree: with `n` the
    /// rack count rounded up to a power of two, `fold[n + rack]` holds a
    /// rack's winners (none while it cannot hold the request), `fold[k]`
    /// the merge of `fold[2k]` and `fold[2k + 1]`, and `fold[1]` all
    /// racks'. A pick that changes one rack re-folds its path only.
    fold: Vec<Winners>,
    /// Each node's distance to the `memo_key` request and whether its
    /// CPU covers it (`None`: not a candidate), as of its rack's memo
    /// stamp, by dense index.
    scores: Vec<Option<(f64, bool)>>,
    /// Work counters of this selector's searches and picks.
    stats: ScheduleStats,
}

impl<'a> NodeSelector<'a> {
    /// Creates a selector for one topology-scheduling pass. The distance
    /// terms are normalized by `cluster`'s capacity maxima and network
    /// costs.
    pub fn new(cluster: &Cluster, weights: &'a SoftConstraintWeights) -> Self {
        Self {
            weights,
            norm: NormalizationContext::for_cluster(cluster),
            anchor: None,
            memo_key: None,
            memo: Vec::new(),
            fold: Vec::new(),
            scores: Vec::new(),
            stats: ScheduleStats::default(),
        }
    }

    /// The work this selector has done so far (the selector counters of
    /// [`ScheduleStats`]; the state counters stay zero).
    pub fn stats(&self) -> &ScheduleStats {
        &self.stats
    }

    /// Hands over the counters gathered since the last call.
    pub(crate) fn take_stats(&mut self) -> ScheduleStats {
        std::mem::take(&mut self.stats)
    }

    /// The reference node, once anchored by the first selection.
    pub fn ref_node(&self) -> Option<&NodeId> {
        self.anchor.as_ref().map(|(index, i)| index.node_id(*i))
    }

    /// Selects the node for a task with demand `request` given current
    /// remaining resources, or `Err(best_available_mb)` if no node
    /// satisfies the hard memory constraint.
    ///
    /// Selection is two-pass, matching the production Resource Aware
    /// Scheduler's behaviour: the first pass only considers nodes whose
    /// remaining *soft* CPU budget also covers the task (so a feasible
    /// cluster is never over-committed); if no such node exists the soft
    /// constraint is relaxed — CPU may then be overloaded, which is what
    /// distinguishes it from the hard memory constraint.
    ///
    /// Nodes are read from `state`'s own layout, so every pick is a node
    /// of that layout.
    pub fn select(
        &mut self,
        state: &GlobalState,
        request: &ResourceRequest,
    ) -> Result<NodeId, f64> {
        let i = self.select_dense(state, request)?;
        Ok(state.cluster_index().node_id(i).clone())
    }

    /// [`NodeSelector::select`], returning the pick's dense index in
    /// `state`'s layout.
    pub fn select_dense(
        &mut self,
        state: &GlobalState,
        request: &ResourceRequest,
    ) -> Result<u32, f64> {
        self.stats.picks += 1;
        if self.anchor.is_none() {
            self.anchor = self
                .find_ref_node(state)
                .map(|i| (Arc::clone(state.cluster_index()), i));
        }
        let Some(ref_idx) = self.anchor.as_ref().map(|&(_, i)| i) else {
            return Err(0.0);
        };
        self.select_indexed(state, request, ref_idx)
    }

    /// Per-rack memo keyed by rack stamps, precomputed network terms, and
    /// whole-rack skipping. Returns the dense index of the pick,
    /// byte-identical to the scan oracle's.
    fn select_indexed(
        &mut self,
        state: &GlobalState,
        request: &ResourceRequest,
        ref_idx: u32,
    ) -> Result<u32, f64> {
        // Hard-constraint fail-fast: the scan's `best_available_mb`
        // is a running max over alive nodes starting at 0.0, which equals
        // this fold over the maintained per-rack maxima (max is
        // associative; NEG_INFINITY rack sentinels lose against 0.0). If
        // any rack can hold the task, the selection below must succeed
        // and `best_available_mb` is never reported.
        let rack_max = state.rack_max_memories();
        let mut best_available_mb: f64 = 0.0;
        for &m in rack_max {
            best_available_mb = best_available_mb.max(m);
        }
        if best_available_mb < request.memory_mb {
            return Err(best_available_mb);
        }

        let key = (
            request.cpu_points.to_bits(),
            request.memory_mb.to_bits(),
            ref_idx,
        );
        if self.memo_key != Some(key) {
            let racks = state.cluster_index().rack_count();
            self.memo_key = Some(key);
            self.memo.clear();
            self.memo.resize(racks, RackMemo::default());
            self.fold.clear();
            self.fold
                .resize(2 * racks.next_power_of_two(), Winners::default());
            self.scores.clear();
            self.scores.resize(state.cluster_index().len(), None);
        }

        let (index, norm, weights) = (state.cluster_index(), &self.norm, self.weights);
        // The network term only depends on the candidate's relation to
        // the reference node, so its three possible values are computed
        // once — with exactly the scan's operation order.
        let net_term = |distance: f64| {
            let db = distance / norm.max_network_distance;
            weights.network * db * db
        };
        let nt_same = net_term(index.distance_same_node());
        let nt_rack = net_term(index.distance_same_rack());
        let nt_inter = net_term(index.distance_inter_rack());
        let ref_rack = index.rack_of(ref_idx);

        let dense = state.remaining_dense();
        let alive = state.alive_dense();
        let (stats, scores) = (&mut self.stats, &mut self.scores);
        // A member's distance to the request, and whether its CPU also
        // covers it; `None` if it is dead or cannot hold the task.
        let score = |i: u32, nt_members: f64| {
            let r = &dense[i as usize];
            if !alive[i as usize] || r.memory_mb < request.memory_mb {
                return None;
            }
            let nt = if i == ref_idx { nt_same } else { nt_members };
            let dm = (request.memory_mb - r.memory_mb) / norm.max_memory_mb;
            let dc = (request.cpu_points - r.cpu_points) / norm.max_cpu_points;
            let d = (weights.memory * dm * dm + weights.cpu * dc * dc + nt).sqrt();
            Some((d, r.cpu_points >= request.cpu_points))
        };
        let fold = &mut self.fold;
        let leaves = fold.len() / 2;
        for ((rack, memo), stamp) in self.memo.iter_mut().enumerate().zip(state.rack_stamps()) {
            // Equal stamps, equal contents: the rack's leaf is current.
            if memo.folded == stamp.now {
                continue;
            }
            memo.folded = stamp.now;
            // The scan `continue`s every node of a rack that cannot hold
            // the task before either winner is touched, so an empty leaf
            // changes nothing.
            let leaf = if rack_max[rack] < request.memory_mb {
                stats.racks_skipped += 1;
                Winners::default()
            } else {
                stats.racks_visited += 1;
                if memo.stamp != stamp.now {
                    let nt_members = if rack as u32 == ref_rack {
                        nt_rack
                    } else {
                        nt_inter
                    };
                    let members = index.rack_members(rack as u32);
                    let refold = match stamp.written {
                        Some(i) if memo.stamp != 0 && memo.stamp == stamp.before => {
                            stats.rack_updates += 1;
                            let now = score(i, nt_members);
                            stats.nodes_scored += u64::from(now.is_some());
                            scores[i as usize] = now;
                            let soft = now.and_then(|(d, fits)| fits.then_some(d));
                            let updated = memo.soft.update(i, soft)
                                && memo.relaxed.update(i, now.map(|(d, _)| d));
                            stats.rack_refolds += u64::from(!updated);
                            !updated
                        }
                        _ => {
                            stats.rack_rescans += 1;
                            for &i in members {
                                let now = score(i, nt_members);
                                stats.nodes_scored += u64::from(now.is_some());
                                scores[i as usize] = now;
                            }
                            true
                        }
                    };
                    if refold {
                        // Every member's score is current: fold them again.
                        memo.soft = Winner::default();
                        memo.relaxed = Winner::default();
                        for &i in members {
                            let Some((d, fits)) = scores[i as usize] else {
                                continue;
                            };
                            if fits {
                                memo.soft.offer(d, i);
                            }
                            memo.relaxed.offer(d, i);
                        }
                    }
                    memo.stamp = stamp.now;
                }
                (memo.soft, memo.relaxed)
            };
            let mut k = leaves + rack;
            fold[k] = leaf;
            while k > 1 {
                k /= 2;
                fold[k] = merged(&fold[2 * k], &fold[2 * k + 1]);
            }
        }
        let (best, best_relaxed) = &fold[1];
        // `None` is unreachable after the fail-fast, but mirror the scan.
        best.pick().or(best_relaxed.pick()).ok_or(best_available_mb)
    }

    /// Algorithm 4 lines 6-9: the rack whose alive members have the
    /// largest abundance sum, then that rack's most abundant member. Both
    /// scans visit members in declaration order, like the scan oracle.
    fn find_ref_node(&mut self, state: &GlobalState) -> Option<u32> {
        self.stats.ref_node_searches += 1;
        let index = state.cluster_index();
        let dense = state.remaining_dense();
        let alive = state.alive_dense();
        let alive_members =
            |rack: u32| (index.rack_members(rack).iter().copied()).filter(|&i| alive[i as usize]);

        let (index_cpu, index_mem) = (index.max_cpu_points(), index.max_memory_mb());
        let mut best_rack: Option<(f64, u32)> = None;
        for rack in 0..index.rack_count() as u32 {
            let mut abundance = 0.0;
            let mut has_alive = false;
            for i in alive_members(rack) {
                abundance += dense[i as usize].abundance(index_cpu, index_mem);
                has_alive = true;
            }
            if has_alive && best_rack.is_none_or(|(b, _)| abundance > b) {
                best_rack = Some((abundance, rack));
            }
        }
        let rack = best_rack?.1;

        let (max_cpu, max_mem) = (self.norm.max_cpu_points, self.norm.max_memory_mb);
        let mut best_node: Option<(f64, u32)> = None;
        for i in alive_members(rack) {
            let abundance = dense[i as usize].abundance(max_cpu, max_mem);
            if best_node.is_none_or(|(b, _)| abundance > b) {
                best_node = Some((abundance, i));
            }
        }
        best_node.map(|(_, i)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ScanNodeSelector;
    use rstorm_cluster::{ClusterBuilder, ResourceCapacity};
    use rstorm_topology::TopologyId;

    fn cluster() -> Cluster {
        ClusterBuilder::new()
            .homogeneous_racks(2, 3, ResourceCapacity::emulab_node(), 4)
            .build()
            .unwrap()
    }

    #[test]
    fn ref_node_is_most_abundant_in_most_abundant_rack() {
        let c = cluster();
        let mut state = GlobalState::new(&c);
        // Drain rack-0 a bit so rack-1 is the most abundant.
        state
            .reserve(
                &TopologyId::new("x"),
                &NodeId::new("rack-0-node-0"),
                &ResourceRequest::new(50.0, 1024.0, 0.0),
            )
            .unwrap();
        // Drain rack-1-node-0 so node-1 is the most abundant there.
        state
            .reserve(
                &TopologyId::new("x"),
                &NodeId::new("rack-1-node-0"),
                &ResourceRequest::new(10.0, 128.0, 0.0),
            )
            .unwrap();
        let weights = SoftConstraintWeights::default();
        let mut sel = NodeSelector::new(&c, &weights);
        let node = sel
            .select(&state, &ResourceRequest::new(10.0, 64.0, 0.0))
            .unwrap();
        assert_eq!(sel.ref_node().unwrap().as_str(), "rack-1-node-1");
        // With plenty of room everywhere, the chosen node is near the ref
        // node (same rack at minimum).
        assert_eq!(c.rack_of(node.as_str()).unwrap().as_str(), "rack-1");
    }

    #[test]
    fn memory_hard_constraint_excludes_full_nodes() {
        let c = cluster();
        let mut state = GlobalState::new(&c);
        // Fill every node except one below the task's demand.
        for node in c.nodes() {
            if node.id().as_str() != "rack-1-node-2" {
                state
                    .reserve(
                        &TopologyId::new("x"),
                        node.id(),
                        &ResourceRequest::new(0.0, 1900.0, 0.0),
                    )
                    .unwrap();
            }
        }
        let weights = SoftConstraintWeights::default();
        let mut sel = NodeSelector::new(&c, &weights);
        let node = sel
            .select(&state, &ResourceRequest::new(10.0, 512.0, 0.0))
            .unwrap();
        assert_eq!(node.as_str(), "rack-1-node-2");
    }

    #[test]
    fn reports_best_available_on_failure() {
        let c = cluster();
        let mut state = GlobalState::new(&c);
        for node in c.nodes() {
            state
                .reserve(
                    &TopologyId::new("x"),
                    node.id(),
                    &ResourceRequest::new(0.0, 1500.0, 0.0),
                )
                .unwrap();
        }
        let weights = SoftConstraintWeights::default();
        let mut sel = NodeSelector::new(&c, &weights);
        let err = sel
            .select(&state, &ResourceRequest::new(0.0, 1024.0, 0.0))
            .unwrap_err();
        assert_eq!(err, 548.0);
    }

    #[test]
    fn successive_selections_stay_near_ref_node() {
        let c = cluster();
        let mut state = GlobalState::new(&c);
        let weights = SoftConstraintWeights::default();
        let mut sel = NodeSelector::new(&c, &weights);
        let t = TopologyId::new("t");
        let req = ResourceRequest::new(30.0, 256.0, 0.0);
        let mut nodes = Vec::new();
        for _ in 0..6 {
            let n = sel.select(&state, &req).unwrap();
            state.reserve(&t, &n, &req).unwrap();
            nodes.push(n);
        }
        let ref_rack = c.rack_of(sel.ref_node().unwrap().as_str()).unwrap();
        for n in &nodes {
            assert_eq!(
                c.rack_of(n.as_str()).unwrap(),
                ref_rack,
                "all six light tasks fit within the reference rack"
            );
        }
    }

    #[test]
    fn no_nodes_yields_error() {
        let mut c = cluster();
        for i in 0..3 {
            c.kill_node(&format!("rack-0-node-{i}"));
            c.kill_node(&format!("rack-1-node-{i}"));
        }
        let state = GlobalState::new(&c);
        let weights = SoftConstraintWeights::default();
        let mut sel = NodeSelector::new(&c, &weights);
        assert!(sel.select(&state, &ResourceRequest::zero()).is_err());
    }

    /// Drives the selector and the scan oracle in lock-step through a sequence
    /// of selections and checks every decision (and error value) matches
    /// to the bit.
    #[test]
    fn indexed_and_scan_paths_agree_exactly() {
        let c = ClusterBuilder::new()
            .add_node("b2", "east", ResourceCapacity::new(200.0, 4096.0, 100.0), 2)
            .add_node("a1", "east", ResourceCapacity::new(100.0, 2048.0, 100.0), 2)
            .add_node("c3", "west", ResourceCapacity::new(300.0, 1024.0, 100.0), 2)
            .add_node("d4", "west", ResourceCapacity::new(50.0, 8192.0, 100.0), 2)
            .build()
            .unwrap();
        let weights = SoftConstraintWeights::default();
        let mut state = GlobalState::new(&c);
        let mut fast = NodeSelector::new(&c, &weights);
        let mut scan = ScanNodeSelector::new(&c, &weights);
        let t = TopologyId::new("t");
        let requests = [
            ResourceRequest::new(40.0, 600.0, 10.0),
            ResourceRequest::new(90.0, 1500.0, 0.0),
            ResourceRequest::new(10.0, 100.0, 5.0),
            ResourceRequest::new(120.0, 3000.0, 0.0),
            ResourceRequest::new(1.0, 9000.0, 0.0), // infeasible
        ];
        for request in &requests {
            let from_fast = fast.select(&state, request);
            let from_scan = scan.select(&state, request);
            match (&from_fast, &from_scan) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(a), Err(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                other => panic!("paths diverged: {other:?}"),
            }
            assert_eq!(fast.ref_node(), scan.ref_node());
            if let Ok(node) = from_fast {
                state.reserve(&t, &node, request).unwrap();
            }
        }
    }

    /// The east/west naming above sorts as a1 < b2 < c3 < d4 while the
    /// racks were declared b2-first: member declaration order and sorted
    /// order differ, and in `indexed_and_scan_paths_agree_exactly` the
    /// racks are still contiguous in id order. This case interleaves them,
    /// so the rack fold must not depend on racks being visited in id
    /// order.
    #[test]
    fn fragmented_rack_layout_still_agrees() {
        let c = ClusterBuilder::new()
            .add_node("a", "r0", ResourceCapacity::new(100.0, 2048.0, 100.0), 1)
            .add_node("b", "r1", ResourceCapacity::new(150.0, 3000.0, 100.0), 1)
            .add_node("c", "r0", ResourceCapacity::new(120.0, 1024.0, 100.0), 1)
            .add_node("d", "r1", ResourceCapacity::new(80.0, 4096.0, 100.0), 1)
            .build()
            .unwrap();
        let racks: Vec<u32> = (0..4).map(|i| c.index().rack_of(i)).collect();
        assert_eq!(racks, [0, 1, 0, 1], "layout must fragment");
        let weights = SoftConstraintWeights::default();
        let state = GlobalState::new(&c);
        let request = ResourceRequest::new(60.0, 900.0, 0.0);
        let fast = NodeSelector::new(&c, &weights).select(&state, &request);
        let scan = ScanNodeSelector::new(&c, &weights).select(&state, &request);
        assert_eq!(fast.unwrap(), scan.unwrap());
    }

    /// The memo's work bound on the 1k-node scale cluster (20 racks of
    /// 50): a new request scores every node; a repeat after reserving
    /// the pick re-scores only that node, also when the node fills up and
    /// its rack's winners are refolded from cached scores; a topology
    /// release (a multi-node write) rescans the rack; and a different
    /// request scores everything again.
    #[test]
    fn repeated_request_rescores_one_node() {
        let c = rstorm_workloads::scale::scale_cluster(1000);
        assert_eq!(c.index().rack_count(), 20);
        let weights = SoftConstraintWeights::default();
        let mut state = GlobalState::new(&c);
        let mut sel = NodeSelector::new(&c, &weights);
        let mut scan = ScanNodeSelector::new(&c, &weights);
        let t = TopologyId::new("t");
        let req = ResourceRequest::new(8.0, 48.0, 0.0);
        let mut last = 0;
        let mut scored = |sel: &NodeSelector| {
            let total = sel.stats().nodes_scored;
            let new = total - last;
            last = total;
            new
        };

        let first = sel.select(&state, &req).unwrap();
        assert_eq!(scored(&sel), 1000);
        assert_eq!(first, scan.select(&state, &req).unwrap());
        let mut pick = first.clone();
        for _ in 0..1000 {
            state.reserve(&t, &pick, &req).unwrap();
            pick = sel.select(&state, &req).unwrap();
            assert_eq!(pick, scan.select(&state, &req).unwrap());
            assert!(scored(&sel) <= 1);
            if pick != first {
                break;
            }
        }
        assert_ne!(pick, first, "the first pick fills up");
        let stats = *sel.stats();
        assert_eq!((stats.rack_rescans, stats.rack_refolds), (20, 1));
        // Nothing changed since the last pick: no node is scored.
        sel.select(&state, &req).unwrap();
        assert_eq!(scored(&sel), 0);

        state.release_topology(t.as_str());
        assert_eq!(sel.select(&state, &req).unwrap(), first);
        assert_eq!(scored(&sel), 50, "a release rescans the rack");
        sel.select(&state, &ResourceRequest::new(16.0, 48.0, 0.0))
            .unwrap();
        assert_eq!(scored(&sel), 1000, "a new request rescans everything");
    }

    /// A state built from a *different* (structurally identical) cluster
    /// is read through its own index and picks what the scan oracle
    /// picks.
    #[test]
    fn foreign_state_matches_the_scan_oracle() {
        let c1 = cluster();
        let c2 = cluster();
        let state = GlobalState::new(&c2);
        assert!(!Arc::ptr_eq(state.cluster_index(), &c1.shared_index()));
        let weights = SoftConstraintWeights::default();
        let mut sel = NodeSelector::new(&c1, &weights);
        let picked = sel
            .select(&state, &ResourceRequest::new(10.0, 64.0, 0.0))
            .unwrap();
        let expected = ScanNodeSelector::new(&c1, &weights)
            .select(&state, &ResourceRequest::new(10.0, 64.0, 0.0))
            .unwrap();
        assert_eq!(picked, expected);
    }

    /// A state whose layout has a node the scheduling cluster lacks: the
    /// selector reads the state's layout, so it may pick that node, and
    /// the scheduler then returns a typed error with the state untouched.
    /// When the stray node is never picked, the placement is valid.
    #[test]
    fn state_with_a_node_the_cluster_lacks_never_panics() {
        use crate::{RStormScheduler, ScheduleError, Scheduler};
        use rstorm_topology::TopologyBuilder;

        let scheduling = cluster();
        // Tasks of 3000 MB fit only on the large stray; 256 MB tasks fit
        // everywhere except on the tiny one.
        for (stray, memory_mb, placed) in [
            (ResourceCapacity::new(100.0, 8192.0, 100.0), 3000.0, false),
            (ResourceCapacity::new(1.0, 1.0, 100.0), 256.0, true),
        ] {
            let mut b = TopologyBuilder::new("t");
            b.set_spout("s", 2)
                .set_cpu_load(20.0)
                .set_memory_load(memory_mb);
            b.set_bolt("k", 2)
                .shuffle_grouping("s")
                .set_cpu_load(20.0)
                .set_memory_load(memory_mb);
            let topology = b.build().unwrap();
            let layout = ClusterBuilder::new()
                .homogeneous_racks(2, 3, ResourceCapacity::emulab_node(), 4)
                .add_node("rack-1-stray", "rack-1", stray, 4)
                .build()
                .unwrap();
            let mut state = GlobalState::new(&layout);
            let before = format!("{state:?}");
            match RStormScheduler::new().schedule(&topology, &scheduling, &mut state) {
                Ok(assignment) => {
                    assert!(placed, "the stray node cannot be placed on");
                    assert_eq!(assignment.len(), 4);
                    for node in assignment.used_nodes() {
                        assert!(scheduling.node(node.as_str()).is_some(), "{node}");
                    }
                }
                Err(e) => {
                    assert!(!placed, "{e}");
                    assert_eq!(
                        e,
                        ScheduleError::UnknownNode {
                            node: "rack-1-stray".into()
                        }
                    );
                    assert_eq!(format!("{state:?}"), before, "a failed schedule is atomic");
                }
            }
        }
    }
}
