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
//! ## Two implementations, one answer
//!
//! Selection has an **indexed** fast path and a **scan** reference path.
//! The scan path is the direct transcription of Algorithm 4 over the
//! string API: every alive node is scored, and the strict-`<` winner in
//! node-id order is kept. The fast path works on [`GlobalState`]'s dense
//! vectors keyed by the cluster's [`ClusterIndex`], and memoises
//! Algorithm 4's winner **per rack**:
//!
//! - The memo is keyed by the request's CPU and memory bits and the
//!   reference node, and holds one entry per rack: the rack's stamp
//!   ([`GlobalState::rack_stamps`]) and its best node with and without the
//!   soft CPU constraint. A changed key clears it.
//! - Racks that cannot hold the task (maintained max remaining memory
//!   below the demand) are skipped. A rack whose stamp is unchanged since
//!   its entry was computed reuses the entry; any other rack rescans its
//!   members. The per-rack winners are then folded into the answer.
//! - Stamps change on every write to a rack's nodes — reservations,
//!   releases, rollbacks, failures, recoveries — and are unique across the
//!   process, so a reused entry is always the one a rescan would compute,
//!   even across clones of a state and interleaved rollbacks.
//!
//! Between two picks of one topology only the rack of the node just
//! reserved changes, and tasks of a component send the same request, so a
//! repeated request costs O(racks + rack size) instead of O(alive nodes);
//! a new request costs O(alive nodes), as a plain scan would. The three
//! possible network terms are computed once per call, and no strings are
//! hashed or compared anywhere in the loop.
//!
//! Both paths are required to produce **byte-identical** results — same
//! floating-point operations in the same order, same id-order tie
//! breaking (`Winner` restates the scan's rule as an order-independent
//! fold) — which `tests/properties.rs` enforces on randomized inputs and
//! mutation sequences. The fast path engages only when the state was built
//! from this cluster's index (checked via [`Arc::ptr_eq`]); otherwise
//! selection silently falls back to the scan.

use crate::global_state::GlobalState;
use crate::resource::{weighted_euclidean, NormalizationContext, SoftConstraintWeights};
use rstorm_cluster::{Cluster, ClusterIndex, NodeId};
use rstorm_topology::ResourceRequest;
use std::sync::Arc;

/// The scan path's winner rule as an order-independent fold, so racks can
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
}

/// Stateful node selector for scheduling one topology.
#[derive(Debug)]
pub struct NodeSelector<'a> {
    cluster: &'a Cluster,
    index: Arc<ClusterIndex>,
    weights: &'a SoftConstraintWeights,
    norm: NormalizationContext,
    /// Dense index of the reference node, once anchored.
    ref_node: Option<u32>,
    force_scan: bool,
    /// `(cpu bits, memory bits, reference node)` the memo was built for.
    memo_key: Option<(u64, u64, u32)>,
    /// Per-rack winners for `memo_key`, by rack index.
    memo: Vec<RackMemo>,
    /// Nodes scored by the last indexed selection.
    #[cfg(test)]
    last_scored: usize,
}

impl<'a> NodeSelector<'a> {
    /// Creates a selector for one topology-scheduling pass.
    pub fn new(cluster: &'a Cluster, weights: &'a SoftConstraintWeights) -> Self {
        Self {
            cluster,
            index: cluster.shared_index(),
            weights,
            norm: NormalizationContext::for_cluster(cluster),
            ref_node: None,
            force_scan: false,
            memo_key: None,
            memo: Vec::new(),
            #[cfg(test)]
            last_scored: 0,
        }
    }

    /// Creates a selector pinned to the scan (reference) path, bypassing
    /// the indexed fast path even when it would apply. Exists so parity
    /// tests and benchmarks can compare the two implementations.
    pub fn new_scan_only(cluster: &'a Cluster, weights: &'a SoftConstraintWeights) -> Self {
        Self {
            force_scan: true,
            ..Self::new(cluster, weights)
        }
    }

    /// The reference node, once anchored by the first selection.
    pub fn ref_node(&self) -> Option<&NodeId> {
        self.ref_node.map(|i| self.index.node_id(i))
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
    pub fn select(
        &mut self,
        state: &GlobalState,
        request: &ResourceRequest,
    ) -> Result<NodeId, f64> {
        // The dense vectors are only meaningful if the state was built
        // from this cluster's own index; the normalization maxima then
        // agree with the index's by construction.
        let fast = !self.force_scan && Arc::ptr_eq(state.cluster_index(), &self.index);
        if self.ref_node.is_none() {
            self.ref_node = if fast {
                self.find_ref_node_indexed(state)
            } else {
                self.find_ref_node_scan(state)
            };
        }
        let Some(ref_idx) = self.ref_node else {
            return Err(0.0);
        };
        if fast {
            let i = self.select_indexed(state, request, ref_idx)?;
            Ok(self.index.node_id(i).clone())
        } else {
            self.select_scan(state, request, self.index.node_id(ref_idx))
        }
    }

    /// The indexed fast path: per-rack memo keyed by rack stamps,
    /// precomputed network terms, and whole-rack skipping. Returns the
    /// dense index of the pick, byte-identical to [`Self::select_scan`].
    fn select_indexed(
        &mut self,
        state: &GlobalState,
        request: &ResourceRequest,
        ref_idx: u32,
    ) -> Result<u32, f64> {
        // Hard-constraint fail-fast: the scan path's `best_available_mb`
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
            self.memo_key = Some(key);
            self.memo.clear();
            self.memo
                .resize(self.index.rack_count(), RackMemo::default());
        }

        let (index, norm, weights) = (&self.index, &self.norm, self.weights);
        // The network term only depends on the candidate's relation to
        // the reference node, so its three possible values are computed
        // once — with exactly the scan path's operation order.
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
        let stamps = state.rack_stamps();
        #[cfg(test)]
        {
            self.last_scored = 0;
        }
        let mut best = Winner::default();
        let mut best_relaxed = Winner::default();
        for (rack, memo) in self.memo.iter_mut().enumerate() {
            // The scan path `continue`s every node of such a rack before
            // either winner is touched, so skipping it changes nothing.
            if rack_max[rack] < request.memory_mb {
                continue;
            }
            if memo.stamp != stamps[rack] {
                *memo = RackMemo {
                    stamp: stamps[rack],
                    ..RackMemo::default()
                };
                let nt_members = if rack as u32 == ref_rack {
                    nt_rack
                } else {
                    nt_inter
                };
                for &i in index.rack_members(rack as u32) {
                    let r = &dense[i as usize];
                    if !alive[i as usize] || r.memory_mb < request.memory_mb {
                        continue;
                    }
                    let nt = if i == ref_idx { nt_same } else { nt_members };
                    let dm = (request.memory_mb - r.memory_mb) / norm.max_memory_mb;
                    let dc = (request.cpu_points - r.cpu_points) / norm.max_cpu_points;
                    let d = (weights.memory * dm * dm + weights.cpu * dc * dc + nt).sqrt();
                    if r.cpu_points >= request.cpu_points {
                        memo.soft.offer(d, i);
                    }
                    memo.relaxed.offer(d, i);
                    #[cfg(test)]
                    {
                        self.last_scored += 1;
                    }
                }
            }
            best.merge(&memo.soft);
            best_relaxed.merge(&memo.relaxed);
        }
        // `None` is unreachable after the fail-fast, but mirror the scan
        // path.
        best.pick().or(best_relaxed.pick()).ok_or(best_available_mb)
    }

    /// The scan (reference) path: Algorithm 4 transcribed directly over
    /// the string-keyed state API.
    fn select_scan(
        &self,
        state: &GlobalState,
        request: &ResourceRequest,
        ref_node: &NodeId,
    ) -> Result<NodeId, f64> {
        let mut best: Option<(f64, &NodeId)> = None;
        let mut best_relaxed: Option<(f64, &NodeId)> = None;
        let mut best_available_mb: f64 = 0.0;
        for (node, remaining) in state.iter_remaining() {
            best_available_mb = best_available_mb.max(remaining.memory_mb);
            // Hard constraint: never over-commit memory.
            if remaining.memory_mb < request.memory_mb {
                continue;
            }
            // A node in scheduler state but absent from the cluster layout
            // can only appear via a foreign-state fallback after layout
            // churn; skip it rather than crash the scheduling loop.
            let Ok(network_distance) = self.cluster.node_distance(ref_node.as_str(), node.as_str())
            else {
                continue;
            };
            let d = weighted_euclidean(
                self.weights,
                &self.norm,
                request.memory_mb,
                request.cpu_points,
                remaining.memory_mb,
                remaining.cpu_points,
                network_distance,
            );
            // Strict `<` plus ordered iteration makes ties deterministic
            // (first node in id order wins).
            if remaining.cpu_points >= request.cpu_points && best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, node));
            }
            if best_relaxed.is_none_or(|(bd, _)| d < bd) {
                best_relaxed = Some((d, node));
            }
        }
        match best.or(best_relaxed) {
            Some((_, node)) => Ok(node.clone()),
            None => Err(best_available_mb),
        }
    }

    /// Algorithm 4 lines 6-9 on the fast path: the rack comes straight
    /// from the maintained per-rack aggregates; only the winning rack's
    /// members are then scanned (in declaration order, like the scan
    /// path).
    fn find_ref_node_indexed(&self, state: &GlobalState) -> Option<u32> {
        let abundances = state.rack_abundances();
        let alive_counts = state.rack_alive_counts();
        let mut best_rack: Option<(f64, u32)> = None;
        for rack in 0..self.index.rack_count() as u32 {
            if alive_counts[rack as usize] == 0 {
                continue;
            }
            let abundance = abundances[rack as usize];
            if best_rack.is_none_or(|(b, _)| abundance > b) {
                best_rack = Some((abundance, rack));
            }
        }
        let rack = best_rack?.1;

        let (max_cpu, max_mem) = (self.norm.max_cpu_points, self.norm.max_memory_mb);
        let dense = state.remaining_dense();
        let alive = state.alive_dense();
        let mut best_node: Option<(f64, u32)> = None;
        for &i in self.index.rack_members(rack) {
            if !alive[i as usize] {
                continue;
            }
            let abundance = dense[i as usize].abundance(max_cpu, max_mem);
            if best_node.is_none_or(|(b, _)| abundance > b) {
                best_node = Some((abundance, i));
            }
        }
        best_node.map(|(_, i)| i)
    }

    /// Algorithm 4 lines 6-9 on the scan path: the node with the most
    /// resources in the rack with the most resources. One pass per rack
    /// accumulates the abundance sum and liveness together.
    fn find_ref_node_scan(&self, state: &GlobalState) -> Option<u32> {
        let (max_cpu, max_mem) = (self.norm.max_cpu_points, self.norm.max_memory_mb);
        let mut best_rack: Option<(f64, &str)> = None;
        for rack in self.cluster.racks() {
            let mut abundance = 0.0;
            let mut has_alive = false;
            for node in self.cluster.rack_nodes(rack.as_str()) {
                if let Some(remaining) = state.remaining(node.as_str()) {
                    abundance += remaining.abundance(max_cpu, max_mem);
                    has_alive = true;
                }
            }
            if !has_alive {
                continue;
            }
            if best_rack.is_none_or(|(b, _)| abundance > b) {
                best_rack = Some((abundance, rack.as_str()));
            }
        }
        let rack = best_rack?.1;

        let mut best_node: Option<(f64, &NodeId)> = None;
        for node in self.cluster.rack_nodes(rack) {
            let Some(remaining) = state.remaining(node.as_str()) else {
                continue;
            };
            let abundance = remaining.abundance(max_cpu, max_mem);
            if best_node.is_none_or(|(b, _)| abundance > b) {
                best_node = Some((abundance, node));
            }
        }
        best_node.map(|(_, n)| {
            self.index
                .node_index(n.as_str())
                .expect("cluster nodes are part of the layout")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Drives the indexed and scan paths in lock-step through a sequence
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
        let mut scan = NodeSelector::new_scan_only(&c, &weights);
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
        let scan = NodeSelector::new_scan_only(&c, &weights).select(&state, &request);
        assert_eq!(fast.unwrap(), scan.unwrap());
    }

    /// The memo's work bound on the 1k-node scale cluster (20 racks of
    /// 50): a new request scores every node, a repeat after reserving the
    /// pick rescans only that node's rack, and a different request scores
    /// everything again.
    #[test]
    fn repeated_request_rescans_one_rack() {
        let c = rstorm_workloads::scale::scale_cluster(1000);
        assert_eq!(c.index().rack_count(), 20);
        let weights = SoftConstraintWeights::default();
        let mut state = GlobalState::new(&c);
        let mut sel = NodeSelector::new(&c, &weights);
        let mut scan = NodeSelector::new_scan_only(&c, &weights);
        let t = TopologyId::new("t");
        let req = ResourceRequest::new(8.0, 48.0, 0.0);

        let first = sel.select(&state, &req).unwrap();
        assert!(sel.last_scored <= 1000, "scored {}", sel.last_scored);
        assert_eq!(first, scan.select(&state, &req).unwrap());
        state.reserve(&t, &first, &req).unwrap();
        let second = sel.select(&state, &req).unwrap();
        assert!(sel.last_scored <= 50, "scored {}", sel.last_scored);
        assert_eq!(second, scan.select(&state, &req).unwrap());
        // Nothing changed since the last pick: no rack is rescanned.
        sel.select(&state, &req).unwrap();
        assert_eq!(sel.last_scored, 0);

        sel.select(&state, &ResourceRequest::new(16.0, 48.0, 0.0))
            .unwrap();
        assert_eq!(sel.last_scored, 1000, "a new request rescans everything");
    }

    /// A state built from a *different* cluster (even a structurally
    /// identical one) must not take the fast path — and still work.
    #[test]
    fn foreign_state_falls_back_to_scan() {
        let c1 = cluster();
        let c2 = cluster();
        let state = GlobalState::new(&c2);
        assert!(!Arc::ptr_eq(state.cluster_index(), &c1.shared_index()));
        let weights = SoftConstraintWeights::default();
        let mut sel = NodeSelector::new(&c1, &weights);
        let picked = sel
            .select(&state, &ResourceRequest::new(10.0, 64.0, 0.0))
            .unwrap();
        let expected = NodeSelector::new_scan_only(&c1, &weights)
            .select(&state, &ResourceRequest::new(10.0, 64.0, 0.0))
            .unwrap();
        assert_eq!(picked, expected);
    }
}
