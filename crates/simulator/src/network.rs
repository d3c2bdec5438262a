//! The contention-aware network plane: flow-level max-min fair sharing
//! over a hierarchical link graph.
//!
//! Where the legacy path serializes each transfer through FIFO
//! `LinkServer`s (per-node NICs plus one *global* uplink), this plane
//! models the paper's Emulab fabric structurally:
//!
//! * a duplex NIC per node — an egress link and an ingress link, each at
//!   the node bandwidth;
//! * a duplex trunk per rack — an uplink (rack → core) and a downlink
//!   (core → rack), each at the inter-rack bandwidth;
//! * one core switch link crossed by every inter-rack flow.
//!
//! A transfer becomes a *flow* with a byte size and a link path
//! (same-rack: egress → ingress; inter-rack: egress → rack uplink →
//! core → rack downlink → ingress). All concurrent flows share the
//! fabric under **max-min fairness**, computed by progressive filling:
//! repeatedly find the most-contended link, freeze its flows at their
//! fair share, subtract, and continue until every flow has a rate.
//!
//! The recompute rule (dslab-style): rates only change when the *set* of
//! flows changes, so the plane re-runs progressive filling on exactly
//! three transitions — flow start, flow finish, and a fault touching
//! link capacity or connectivity. Between transitions every flow
//! progresses linearly at its frozen rate, so the engine needs only one
//! scheduled wake-up at the earliest completion time; a transition
//! re-arms it (stale wake-ups are discarded by generation). Each
//! transition runs progressive filling at most once, costing
//! O(flows · path + rounds · active links) work, where the *active*
//! links are those on some in-flight flow's path: idle links are never
//! touched, so the cost scales with the traffic, not with the fabric.
//! It schedules O(1) new heap events and allocates nothing once the
//! plane's scratch buffers have grown to the peak flow count.
//!
//! Fault interactions differ deliberately from the legacy path:
//!
//! * a rack partition severs trunk flows **mid-transfer** (their batches
//!   are lost) instead of only dropping new sends;
//! * a link degradation of `extra_ms` multiplies every link's capacity
//!   by `100 / (100 + extra_ms)` — congestion, not added latency.
//!
//! The plane also keeps per-link telemetry: bytes carried, a
//! utilization integral, and per-window saturation flags that the
//! report exports (see `SimReport::network`) and the adaptive plane
//! reads to relieve congested uplinks.

/// A link is *saturated* in a window when its mean utilization over that
/// window is at or above this fraction of (effective) capacity.
pub const SATURATION_THRESHOLD: f64 = 0.95;

/// Reference latency used to convert a legacy degradation (extra
/// milliseconds per transfer) into a capacity factor:
/// `factor = DEGRADE_REF_MS / (DEGRADE_REF_MS + extra_ms)`.
pub const DEGRADE_REF_MS: f64 = 100.0;

/// Flows with fewer remaining bytes than this are complete (guards the
/// float subtraction in `progress` against epsilon residue).
const COMPLETE_EPS_BYTES: f64 = 1e-6;

/// What a link is, for naming and telemetry classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkClass {
    /// A node's send-side NIC.
    Egress,
    /// A node's receive-side NIC.
    Ingress,
    /// A rack's trunk toward the core switch.
    Uplink,
    /// A rack's trunk from the core switch.
    Downlink,
    /// The core switch crossed by every inter-rack flow.
    Core,
}

/// One shared link of the fabric.
#[derive(Debug, Clone)]
struct FairLink {
    /// Base capacity in bytes per millisecond (before degradation).
    capacity: f64,
    /// Cumulative bytes carried.
    served_bytes: f64,
    /// Utilization integral per report window: Σ (rate / effective
    /// capacity) · dt, in milliseconds of busy-equivalent time.
    window_busy_ms: Vec<f64>,
}

/// One in-flight transfer.
#[derive(Debug, Clone, Copy)]
struct Flow {
    /// Admission order, for deterministic completion/severance ordering.
    seq: u64,
    remaining_bytes: f64,
    /// Current max-min rate in bytes/ms (recomputed on transitions).
    rate: f64,
    /// Link ids on the path (up to 5: egress, uplink, core, downlink,
    /// ingress), padded with `u32::MAX`.
    path: [u32; 5],
    path_len: u8,
    /// Dense rack ids, for partition severance. Equal for same-rack flows.
    src_rack: u32,
    dst_rack: u32,
    /// Propagation latency to add after the last byte is serialized.
    latency_ms: f64,
    /// Destination task and batch identity, handed back on completion.
    to_task: u32,
    root: u64,
    tuples: u32,
}

/// A flow the plane finished serializing: deliver `(root, tuples)` to
/// `to_task` at `completed_at + latency_ms`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompletedFlow {
    pub to_task: u32,
    pub root: u64,
    pub tuples: u32,
    pub latency_ms: f64,
}

/// A flow severed mid-transfer by a rack partition: its batch is lost.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SeveredFlow {
    pub root: u64,
    pub tuples: u32,
}

/// The fair-share network plane. Owned by the engine only when
/// `SimConfig::network_model == NetworkModel::Fair`; a `Legacy` run never
/// constructs one, which is what keeps the gate bit-neutral.
#[derive(Debug, Clone)]
pub(crate) struct FairNetwork {
    links: Vec<FairLink>,
    flows: Vec<Flow>,
    nodes: usize,
    racks: usize,
    /// Simulated time of the last `advance` (flows progressed up to here).
    clock_ms: f64,
    /// Capacity multiplier in (0, 1]; < 1 inside a degradation window.
    degrade_factor: f64,
    /// Monotonic flow admission counter.
    next_seq: u64,
    /// Wake-up generation: a scheduled wake event carries the generation
    /// current at scheduling time and is stale (ignored) if the plane has
    /// re-armed since.
    generation: u64,
    window_ms: f64,
    /// Flows that finished serializing, keyed by admission number and
    /// in admission order per transition, until the engine drains them
    /// (see [`Self::drain_completed`]). Reused across transitions.
    completed: Vec<(u64, CompletedFlow)>,
    /// Scratch: per-link residual capacity during progressive filling
    /// (meaningful only for the active links of the current fill).
    residual: Vec<f64>,
    /// Scratch: per-link count of unfrozen flows during filling. All
    /// zero between fills: every fill freezes every flow.
    unfrozen: Vec<u32>,
    /// Scratch: ids of the links some in-flight flow crosses, ascending.
    active: Vec<u32>,
    /// Scratch: indices of flows not yet frozen during filling.
    worklist: Vec<u32>,
    /// Links the last fill's bottleneck searches ranged over.
    #[cfg(test)]
    last_scan: usize,
}

/// Per-link telemetry at the report boundary.
#[derive(Debug, Clone)]
pub(crate) struct LinkStats {
    pub class: LinkClass,
    /// Dense node id (NICs) or rack id (trunks); 0 for the core.
    pub owner: usize,
    pub capacity_mbps: f64,
    pub carried_bytes: f64,
    /// Mean utilization over the run (busy-equivalent ms / elapsed ms).
    pub mean_utilization: f64,
    /// Complete windows whose mean utilization reached
    /// [`SATURATION_THRESHOLD`].
    pub saturated_windows: u64,
}

impl FairNetwork {
    /// Builds the fabric for `nodes` nodes in `racks` racks. Link ids:
    /// `[0, nodes)` egress NICs, `[nodes, 2·nodes)` ingress NICs, then
    /// per-rack uplinks, per-rack downlinks, and finally the core.
    pub fn new(
        nodes: usize,
        racks: usize,
        node_mbps: f64,
        trunk_mbps: f64,
        window_ms: f64,
        sim_time_ms: f64,
    ) -> Self {
        let windows = (sim_time_ms / window_ms).ceil().max(1.0) as usize;
        let mk = |mbps: f64| FairLink {
            capacity: mbps * 125.0, // Mbps → bytes/ms
            served_bytes: 0.0,
            window_busy_ms: vec![0.0; windows],
        };
        let mut links = Vec::with_capacity(2 * nodes + 2 * racks + 1);
        links.extend((0..2 * nodes).map(|_| mk(node_mbps)));
        links.extend((0..2 * racks).map(|_| mk(trunk_mbps)));
        // The core is sized non-blocking — every rack can run its trunk
        // at full rate — but still tracked so its telemetry exists.
        links.push(mk(trunk_mbps * racks.max(1) as f64));
        let n_links = links.len();
        Self {
            links,
            flows: Vec::new(),
            nodes,
            racks,
            clock_ms: 0.0,
            degrade_factor: 1.0,
            next_seq: 0,
            generation: 0,
            window_ms,
            completed: Vec::new(),
            residual: vec![0.0; n_links],
            unfrozen: vec![0; n_links],
            active: Vec::new(),
            worklist: Vec::new(),
            #[cfg(test)]
            last_scan: 0,
        }
    }

    fn egress(&self, node: usize) -> u32 {
        node as u32
    }
    fn ingress(&self, node: usize) -> u32 {
        (self.nodes + node) as u32
    }
    fn uplink(&self, rack: usize) -> u32 {
        (2 * self.nodes + rack) as u32
    }
    fn downlink(&self, rack: usize) -> u32 {
        (2 * self.nodes + self.racks + rack) as u32
    }
    fn core(&self) -> u32 {
        (2 * self.nodes + 2 * self.racks) as u32
    }

    /// The generation a wake event must carry to be fresh.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Re-arms the wake-up: bumps the generation and returns the next
    /// completion time, or `None` when no flow is active.
    pub fn arm_wake(&mut self) -> Option<f64> {
        self.generation += 1;
        self.next_completion()
    }

    fn next_completion(&self) -> Option<f64> {
        let mut earliest: Option<f64> = None;
        for f in &self.flows {
            let t = self.clock_ms + f.remaining_bytes / f.rate;
            // A rate of zero (float dust at full saturation) yields an
            // infinite completion; never schedule a wake for it — the
            // next real transition recomputes and un-sticks the flow.
            if !t.is_finite() {
                continue;
            }
            earliest = Some(match earliest {
                Some(e) if e <= t => e,
                _ => t,
            });
        }
        earliest
    }

    /// Admits a transfer of `bytes` from `src_node` to `dst_node` at time
    /// `now`; the plane hands the batch back through a later transition
    /// when the last byte clears the fabric. `inter_rack` selects the
    /// five-hop trunk path; same-rack flows touch only the two NICs.
    /// Any *other* flows that completed at the moment of admission join
    /// the completed buffer (every transition must surface completions,
    /// or a flow finishing exactly at an admission instant would be lost
    /// when the caller re-arms the wake).
    #[allow(clippy::too_many_arguments)] // dense hot-path call, no struct churn
    pub fn admit(
        &mut self,
        now: f64,
        src_node: usize,
        dst_node: usize,
        src_rack: usize,
        dst_rack: usize,
        inter_rack: bool,
        bytes: f64,
        latency_ms: f64,
        to_task: u32,
        root: u64,
        tuples: u32,
    ) {
        // The fill below covers any completions `progress` surfaced.
        self.progress(now);
        let mut path = [u32::MAX; 5];
        let path_len = if inter_rack {
            path[0] = self.egress(src_node);
            path[1] = self.uplink(src_rack);
            path[2] = self.core();
            path[3] = self.downlink(dst_rack);
            path[4] = self.ingress(dst_node);
            5
        } else {
            path[0] = self.egress(src_node);
            path[1] = self.ingress(dst_node);
            2
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.flows.push(Flow {
            seq,
            remaining_bytes: bytes,
            rate: 0.0,
            path,
            path_len,
            src_rack: src_rack as u32,
            dst_rack: dst_rack as u32,
            latency_ms,
            to_task,
            root,
            tuples,
        });
        self.recompute();
    }

    /// Progresses every flow to `now` at its frozen rate, moves completed
    /// flows to the completed buffer, and recomputes the survivors' rates
    /// when anything finished.
    pub fn advance(&mut self, now: f64) {
        if self.progress(now) {
            self.recompute();
        }
    }

    /// Hands back the flows completed since the last drain, in admission
    /// order within each transition.
    pub fn drain_completed(&mut self) -> impl Iterator<Item = CompletedFlow> + '_ {
        self.completed.drain(..).map(|(_, c)| c)
    }

    /// Progresses every flow to `now` at its frozen rate, accumulates
    /// telemetry, and appends completed flows to the completed buffer in
    /// admission order. Returns whether any flow completed; the caller
    /// owes a recompute if so. Rates never depend on the previous rates,
    /// so a transition that changes the flow set or the capacities
    /// anyway recomputes once, after its own change.
    fn progress(&mut self, now: f64) -> bool {
        let dt = now - self.clock_ms;
        if dt > 0.0 && !self.flows.is_empty() {
            let t0 = self.clock_ms;
            let window_ms = self.window_ms;
            for f in &self.flows {
                if f.rate <= 0.0 {
                    continue;
                }
                // Clamp to the flow's own completion so an overshooting
                // advance (time past the last byte) never over-counts.
                let active_ms = (f.remaining_bytes / f.rate).min(dt);
                let served = f.rate * active_ms;
                for &l in &f.path[..f.path_len as usize] {
                    let link = &mut self.links[l as usize];
                    link.served_bytes += served;
                    let eff = link.capacity * self.degrade_factor;
                    // Max-min allocation keeps Σ rates ≤ eff per link, so
                    // summed fractions never exceed one per window.
                    let frac = (f.rate / eff).min(1.0);
                    // Split the active interval across report windows so
                    // saturation flags land where the load happened.
                    let t1 = t0 + active_ms;
                    let mut seg = t0;
                    while seg < t1 {
                        let w = (seg / window_ms).floor() as usize;
                        let end = ((w as f64 + 1.0) * window_ms).min(t1);
                        if let Some(bucket) = link.window_busy_ms.get_mut(w) {
                            *bucket += frac * (end - seg);
                        }
                        seg = end;
                    }
                }
            }
            for f in &mut self.flows {
                f.remaining_bytes -= f.rate * dt;
            }
        }
        self.clock_ms = self.clock_ms.max(now);

        let first = self.completed.len();
        let mut i = 0;
        while i < self.flows.len() {
            if self.flows[i].remaining_bytes <= COMPLETE_EPS_BYTES {
                let f = self.flows.swap_remove(i);
                let done = CompletedFlow {
                    to_task: f.to_task,
                    root: f.root,
                    tuples: f.tuples,
                    latency_ms: f.latency_ms,
                };
                self.completed.push((f.seq, done));
            } else {
                i += 1;
            }
        }
        // Sequence numbers are unique, so the unstable (allocation-free)
        // sort yields the one admission order.
        self.completed[first..].sort_unstable_by_key(|&(seq, _)| seq);
        self.completed.len() > first
    }

    /// Applies a degradation transition: flows progress to `now` under
    /// the old factor, then every link's capacity is multiplied by
    /// `DEGRADE_REF_MS / (DEGRADE_REF_MS + extra_ms)` — the legacy
    /// knob's milliseconds reinterpreted as congestion. Flows that
    /// completed before the switch join the completed buffer.
    pub fn set_degrade(&mut self, now: f64, extra_ms: f64) {
        self.progress(now);
        self.degrade_factor = DEGRADE_REF_MS / (DEGRADE_REF_MS + extra_ms.max(0.0));
        self.recompute();
    }

    /// Severs every trunk flow touching `rack` mid-transfer (the
    /// partition cuts the rack's uplink and downlink): the severed
    /// batches are returned for loss accounting, in admission order.
    /// Flows that completed before the cut join the completed buffer.
    /// Same-rack flows inside the partitioned rack are untouched.
    pub fn sever_rack(&mut self, now: f64, rack: usize) -> Vec<SeveredFlow> {
        let finished = self.progress(now);
        let rack = rack as u32;
        let mut severed: Vec<Flow> = Vec::new();
        let mut i = 0;
        while i < self.flows.len() {
            let f = &self.flows[i];
            let crosses_trunk = f.path_len == 5 && (f.src_rack == rack || f.dst_rack == rack);
            if crosses_trunk {
                severed.push(self.flows.swap_remove(i));
            } else {
                i += 1;
            }
        }
        severed.sort_by_key(|f| f.seq);
        if finished || !severed.is_empty() {
            self.recompute();
        }
        severed
            .iter()
            .map(|f| SeveredFlow {
                root: f.root,
                tuples: f.tuples,
            })
            .collect()
    }

    /// Max-min rates by progressive filling: repeatedly find the link
    /// whose equal split among its unfrozen flows is smallest, freeze
    /// those flows at that share, subtract the share from every link on
    /// their paths, and repeat until every flow is frozen. Ties break on
    /// the lowest link id, so the result is independent of flow storage
    /// order.
    ///
    /// Only *active* links — those on some flow's path — are touched: a
    /// first pass over the flows tallies `unfrozen` and collects the
    /// active ids, sorted ascending so the bottleneck search visits
    /// links in id order (the tie rule). An idle link has no unfrozen
    /// flow and could never be a bottleneck, so the result is the one a
    /// scan of every link would give, bit for bit. Each round costs
    /// O(active links + unfrozen flows), there are at most as many
    /// rounds as distinct bottleneck links, and the worklist shrinks by
    /// every frozen flow.
    fn recompute(&mut self) {
        self.active.clear();
        for f in &mut self.flows {
            f.rate = 0.0;
            for &l in &f.path[..f.path_len as usize] {
                let n = &mut self.unfrozen[l as usize];
                if *n == 0 {
                    self.active.push(l);
                }
                *n += 1;
            }
        }
        self.active.sort_unstable();
        for &l in &self.active {
            self.residual[l as usize] = self.links[l as usize].capacity * self.degrade_factor;
        }
        #[cfg(test)]
        {
            self.last_scan = self.active.len();
        }
        self.worklist.clear();
        self.worklist.extend(0..self.flows.len() as u32);
        while !self.worklist.is_empty() {
            let mut bottleneck = u32::MAX;
            let mut share = f64::INFINITY;
            for &l in &self.active {
                let n = self.unfrozen[l as usize];
                if n == 0 {
                    continue;
                }
                let s = self.residual[l as usize] / f64::from(n);
                if s < share {
                    share = s;
                    bottleneck = l;
                }
            }
            debug_assert!(bottleneck != u32::MAX, "unfrozen flows imply a link");
            // Float subtraction can push a residual a hair below zero;
            // a rate must never be negative (it would run flows backward).
            let share = share.max(0.0);
            let mut i = 0;
            while i < self.worklist.len() {
                let fi = self.worklist[i] as usize;
                let on_bottleneck =
                    self.flows[fi].path[..self.flows[fi].path_len as usize].contains(&bottleneck);
                if !on_bottleneck {
                    i += 1;
                    continue;
                }
                self.flows[fi].rate = share;
                for &l in &self.flows[fi].path[..self.flows[fi].path_len as usize] {
                    self.residual[l as usize] -= share;
                    self.unfrozen[l as usize] -= 1;
                }
                self.worklist.swap_remove(i);
            }
        }
        debug_assert!(
            self.active.iter().all(|&l| self.unfrozen[l as usize] == 0),
            "a finished fill leaves no unfrozen flow on any link"
        );
    }

    /// Whether any flow is in flight.
    #[cfg(test)]
    pub fn has_flows(&self) -> bool {
        !self.flows.is_empty()
    }

    /// Total bytes carried by the rack uplinks — the fair-plane
    /// equivalent of the legacy global uplink's served-byte counter.
    pub fn uplink_bytes(&self) -> f64 {
        (0..self.racks)
            .map(|r| self.links[self.uplink(r) as usize].served_bytes)
            .sum()
    }

    /// Per-link telemetry over `[0, elapsed_ms]`, in link-id order.
    pub fn link_stats(&self, elapsed_ms: f64) -> Vec<LinkStats> {
        let complete = (elapsed_ms / self.window_ms).floor() as usize;
        self.links
            .iter()
            .enumerate()
            .map(|(l, link)| {
                let (class, owner) = self.classify(l);
                let busy: f64 = link.window_busy_ms.iter().sum();
                let saturated = link
                    .window_busy_ms
                    .iter()
                    .take(complete)
                    .filter(|&&b| b >= SATURATION_THRESHOLD * self.window_ms)
                    .count() as u64;
                LinkStats {
                    class,
                    owner,
                    capacity_mbps: link.capacity / 125.0,
                    carried_bytes: link.served_bytes,
                    mean_utilization: if elapsed_ms > 0.0 {
                        (busy / elapsed_ms).min(1.0)
                    } else {
                        0.0
                    },
                    saturated_windows: saturated,
                }
            })
            .collect()
    }

    fn classify(&self, l: usize) -> (LinkClass, usize) {
        if l < self.nodes {
            (LinkClass::Egress, l)
        } else if l < 2 * self.nodes {
            (LinkClass::Ingress, l - self.nodes)
        } else if l < 2 * self.nodes + self.racks {
            (LinkClass::Uplink, l - 2 * self.nodes)
        } else if l < 2 * self.nodes + 2 * self.racks {
            (LinkClass::Downlink, l - 2 * self.nodes - self.racks)
        } else {
            (LinkClass::Core, 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 racks × 2 nodes, 100 Mbps NICs (12 500 B/ms), 600 Mbps trunks.
    fn fabric() -> FairNetwork {
        FairNetwork::new(4, 2, 100.0, 600.0, 10_000.0, 60_000.0)
    }

    fn admit_inter_rack(net: &mut FairNetwork, now: f64, bytes: f64, tag: u64) {
        // node 0 (rack 0) → node 2 (rack 1).
        net.admit(now, 0, 2, 0, 1, true, bytes, 2.0, 9, tag, 10);
    }

    fn completed(net: &mut FairNetwork) -> Vec<CompletedFlow> {
        net.drain_completed().collect()
    }

    #[test]
    fn lone_flow_runs_at_nic_speed() {
        let mut net = fabric();
        // 12 500 bytes through a 12 500 B/ms NIC: done at t=1.
        admit_inter_rack(&mut net, 0.0, 12_500.0, 1);
        assert!((net.next_completion().unwrap() - 1.0).abs() < 1e-9);
        net.advance(1.0);
        let done = completed(&mut net);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].root, 1);
        assert_eq!(done[0].to_task, 9);
        assert!((done[0].latency_ms - 2.0).abs() < 1e-12);
        assert!(!net.has_flows());
    }

    #[test]
    fn two_flows_on_one_trunk_each_get_half() {
        // Two flows from different source nodes into the same destination
        // NIC: the shared ingress NIC is the bottleneck and each flow
        // gets half of it (the fair-share unit contract of the issue).
        let mut net = FairNetwork::new(4, 1, 100.0, 600.0, 10_000.0, 60_000.0);
        net.admit(0.0, 0, 2, 0, 0, false, 12_500.0, 0.0, 1, 1, 10);
        net.admit(0.0, 1, 2, 0, 0, false, 12_500.0, 0.0, 1, 2, 10);
        // Each runs at 6 250 B/ms → both complete at t = 2, not t = 1.
        assert!((net.next_completion().unwrap() - 2.0).abs() < 1e-9);
        net.advance(2.0);
        let done = completed(&mut net);
        assert_eq!(done.len(), 2);
        // Admission order is preserved in the completion list.
        assert_eq!(done[0].root, 1);
        assert_eq!(done[1].root, 2);
    }

    #[test]
    fn trunk_is_shared_max_min_fairly() {
        // Six flows from six distinct nodes of rack 0 to six distinct
        // nodes of rack 1: NICs are uncontended (100 Mbps each), but the
        // 600 Mbps ≙ 75 000 B/ms uplink carries all six. Equal split
        // gives each 12 500 B/ms — exactly NIC speed, the knee. A
        // seventh flow pushes the trunk below NIC speed for everyone.
        let mut net = FairNetwork::new(14, 2, 100.0, 600.0, 10_000.0, 60_000.0);
        for k in 0..6 {
            net.admit(0.0, k, 7 + k, 0, 1, true, 12_500.0, 0.0, 0, k as u64, 10);
        }
        assert!((net.next_completion().unwrap() - 1.0).abs() < 1e-9);
        let mut net7 = FairNetwork::new(16, 2, 100.0, 600.0, 10_000.0, 60_000.0);
        for k in 0..7 {
            net7.admit(0.0, k, 8 + k, 0, 1, true, 12_500.0, 0.0, 0, k as u64, 10);
        }
        // 75 000 / 7 ≈ 10 714 B/ms per flow: slower than the NIC.
        let t = net7.next_completion().unwrap();
        assert!(t > 1.1, "seven flows must overrun the trunk, t={t}");
    }

    #[test]
    fn flow_finish_releases_capacity_to_survivors() {
        // A short and a long flow share one ingress NIC. While both are
        // active each gets half; when the short one finishes the
        // survivor speeds back up to the full rate.
        let mut net = FairNetwork::new(4, 1, 100.0, 600.0, 10_000.0, 60_000.0);
        net.admit(0.0, 0, 2, 0, 0, false, 12_500.0, 0.0, 1, 1, 10);
        net.admit(0.0, 1, 2, 0, 0, false, 25_000.0, 0.0, 1, 2, 10);
        // At half rate (6 250 B/ms) the short flow finishes at t = 2.
        net.advance(2.0);
        let done = completed(&mut net);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].root, 1);
        // Survivor: 12 500 bytes left, now at full 12 500 B/ms → t = 3.
        assert!((net.next_completion().unwrap() - 3.0).abs() < 1e-9);
        net.advance(3.0);
        let done = completed(&mut net);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].root, 2);
    }

    #[test]
    fn partition_severs_trunk_flows_but_not_intra_rack_ones() {
        let mut net = fabric();
        admit_inter_rack(&mut net, 0.0, 50_000.0, 1);
        // Same-rack flow inside rack 0: must survive the partition.
        net.admit(0.0, 0, 1, 0, 0, false, 50_000.0, 0.0, 3, 2, 10);
        let severed = net.sever_rack(0.5, 0);
        assert!(completed(&mut net).is_empty());
        assert_eq!(severed.len(), 1);
        assert_eq!(severed[0].root, 1);
        assert!(net.has_flows(), "the intra-rack flow keeps going");
        net.advance(60_000.0);
        let done = completed(&mut net);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].root, 2);
    }

    #[test]
    fn degradation_multiplies_capacity_not_latency() {
        let mut net = fabric();
        admit_inter_rack(&mut net, 0.0, 12_500.0, 1);
        // extra = 100 ms → factor 0.5: the lone flow now runs at half
        // the NIC rate and finishes at t = 2 instead of t = 1.
        net.set_degrade(0.0, 100.0);
        assert!(completed(&mut net).is_empty());
        assert!((net.next_completion().unwrap() - 2.0).abs() < 1e-9);
        // Healing restores full capacity for the remaining bytes.
        net.advance(1.0); // half transferred
        net.set_degrade(1.0, 0.0);
        assert!((net.next_completion().unwrap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn telemetry_tracks_utilization_and_saturation() {
        let mut net = fabric();
        // One flow that keeps node 0's egress NIC (12 500 B/ms) busy for
        // exactly 25 s: the first two complete 10 s windows saturate, the
        // third is only half busy.
        net.admit(0.0, 0, 1, 0, 0, false, 12_500.0 * 25_000.0, 0.0, 1, 1, 10);
        net.advance(60_000.0);
        let stats = net.link_stats(60_000.0);
        let egress0 = &stats[0];
        assert_eq!(egress0.class, LinkClass::Egress);
        assert_eq!(egress0.owner, 0);
        assert!((egress0.capacity_mbps - 100.0).abs() < 1e-9);
        assert_eq!(
            egress0.saturated_windows, 2,
            "25 s of a line-rate flow saturates exactly the first two \
             complete 10 s windows"
        );
        let expected = 25_000.0 / 60_000.0;
        assert!((egress0.mean_utilization - expected).abs() < 1e-9);
        assert!((egress0.carried_bytes - 12_500.0 * 25_000.0).abs() < 1.0);
        // An untouched link reports zeros.
        let idle = &stats[1];
        assert_eq!(idle.saturated_windows, 0);
        assert_eq!(idle.carried_bytes, 0.0);
    }

    #[test]
    fn uplink_bytes_counts_trunk_traffic_only() {
        let mut net = fabric();
        admit_inter_rack(&mut net, 0.0, 10_000.0, 1);
        net.admit(0.0, 0, 1, 0, 0, false, 99_000.0, 0.0, 3, 2, 10);
        net.advance(60_000.0);
        assert!((net.uplink_bytes() - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn wake_generations_invalidate_stale_events() {
        let mut net = fabric();
        admit_inter_rack(&mut net, 0.0, 12_500.0, 1);
        let g1 = net.generation();
        let t1 = net.arm_wake().unwrap();
        assert!(net.generation() > g1, "arming bumps the generation");
        admit_inter_rack(&mut net, 0.0, 12_500.0, 2);
        let t2 = net.arm_wake().unwrap();
        assert!(t2 > t1, "sharing slowed both flows down");
    }

    #[test]
    fn recompute_scans_only_active_links() {
        // 1 000 nodes in 20 racks: 2 000 NIC links, 40 trunk links and
        // the core. A full scan would visit all 2 041 per round.
        let mut net = FairNetwork::new(1000, 20, 100.0, 600.0, 10_000.0, 60_000.0);
        assert_eq!(net.links.len(), 2_041);
        // node 0 (rack 0) → node 999 (rack 19).
        net.admit(0.0, 0, 999, 0, 19, true, 12_500.0, 0.0, 0, 1, 10);
        assert_eq!(net.last_scan, 5, "one flow activates its five path links");
        // node 500 (rack 10) → node 250 (rack 5): disjoint NICs and
        // trunks, so only the core is shared — nine active links.
        net.admit(0.0, 500, 250, 10, 5, true, 12_500.0, 0.0, 0, 2, 10);
        assert_eq!(net.last_scan, 9);
        // Both finish at NIC speed at t = 1; the empty fill touches nothing.
        net.advance(1.0);
        assert_eq!(completed(&mut net).len(), 2);
        assert_eq!(net.last_scan, 0);
    }

    impl FairNetwork {
        /// Progressive filling that resets and scans *every* link of the
        /// fabric each round, active or idle: the differential oracle
        /// for [`FairNetwork::recompute`].
        fn recompute_full_scan(&mut self) {
            for (l, link) in self.links.iter().enumerate() {
                self.residual[l] = link.capacity * self.degrade_factor;
                self.unfrozen[l] = 0;
            }
            for f in &mut self.flows {
                f.rate = 0.0;
                for &l in &f.path[..f.path_len as usize] {
                    self.unfrozen[l as usize] += 1;
                }
            }
            self.worklist.clear();
            self.worklist.extend(0..self.flows.len() as u32);
            while !self.worklist.is_empty() {
                let mut bottleneck = usize::MAX;
                let mut share = f64::INFINITY;
                for l in 0..self.links.len() {
                    if self.unfrozen[l] == 0 {
                        continue;
                    }
                    let s = self.residual[l] / f64::from(self.unfrozen[l]);
                    if s < share {
                        share = s;
                        bottleneck = l;
                    }
                }
                debug_assert!(bottleneck != usize::MAX, "unfrozen flows imply a link");
                let share = share.max(0.0);
                let mut i = 0;
                while i < self.worklist.len() {
                    let fi = self.worklist[i] as usize;
                    let on_bottleneck = self.flows[fi].path[..self.flows[fi].path_len as usize]
                        .contains(&(bottleneck as u32));
                    if !on_bottleneck {
                        i += 1;
                        continue;
                    }
                    self.flows[fi].rate = share;
                    for &l in &self.flows[fi].path[..self.flows[fi].path_len as usize] {
                        self.residual[l as usize] -= share;
                        self.unfrozen[l as usize] -= 1;
                    }
                    self.worklist.swap_remove(i);
                }
            }
        }

        /// Every in-flight flow's admission number, rate and remaining
        /// bytes, bit for bit, in storage order.
        fn flow_bits(&self) -> Vec<(u64, u64, u64)> {
            self.flows
                .iter()
                .map(|f| (f.seq, f.rate.to_bits(), f.remaining_bytes.to_bits()))
                .collect()
        }

        fn completed_bits(&mut self) -> Vec<(u64, u32, u32, u64)> {
            self.drain_completed()
                .map(|c| (c.root, c.to_task, c.tuples, c.latency_ms.to_bits()))
                .collect()
        }
    }

    proptest::proptest! {
        /// The active-link fill against the full-scan oracle. Two planes
        /// take the same random operations on a random fabric; after
        /// every transition the oracle plane's rates are recomputed by
        /// the full scan, so its whole trajectory is the full scan's.
        /// Rates, remaining bytes, completions, severances and the next
        /// wake-up time must agree bit for bit.
        #[test]
        fn active_link_fill_matches_full_scan_oracle(
            shape in (1usize..65, 1usize..7, 1u32..13),
            ops in proptest::collection::vec(
                (0u8..5, 0u8..4, 0usize..64, 0usize..64, 0.0f64..1.0),
                1..80,
            ),
        ) {
            let (nodes, racks, trunk_step) = shape;
            // 50–600 Mbps trunks against 100 Mbps NICs: trunks are the
            // bottleneck on some fabrics and idle headroom on others.
            let trunk_mbps = 50.0 * f64::from(trunk_step);
            let fabric = || FairNetwork::new(nodes, racks, 100.0, trunk_mbps, 1_000.0, 60_000.0);
            let (mut net, mut oracle) = (fabric(), fabric());
            let rack_of = |n: usize| n % racks;
            let mut now = 0.0;
            for (step, &(kind, hop, a, b, x)) in ops.iter().enumerate() {
                // Every transition may first move the clock: not at all,
                // by a random or a fixed step, or exactly onto the
                // earliest completion (as the engine's wake-up does), so
                // flows also finish *at* an admission, degradation or cut.
                match hop {
                    0 => {}
                    1 => now += x * 5.0,
                    2 => now += 0.25,
                    _ => now = net.next_completion().unwrap_or(now),
                }
                let (mut cut, mut oracle_cut) = (Vec::new(), Vec::new());
                match kind {
                    // Admit: kind 0 to a node of the source's own rack,
                    // kind 1 to any node (inter-rack when racks differ).
                    0 | 1 => {
                        let src = a % nodes;
                        let dst = if kind == 0 {
                            let r = rack_of(src);
                            let rack_size = (nodes - r).div_ceil(racks);
                            r + racks * (b % rack_size)
                        } else {
                            b % nodes
                        };
                        let (sr, dr) = (rack_of(src), rack_of(dst));
                        let bytes = 1.0 + x * 50_000.0;
                        for plane in [&mut net, &mut oracle] {
                            plane.admit(
                                now, src, dst, sr, dr, sr != dr, bytes, x * 3.0,
                                step as u32, step as u64, a as u32,
                            );
                        }
                    }
                    2 => {
                        net.advance(now);
                        oracle.advance(now);
                    }
                    // Degrade (or heal, at zero extra latency).
                    3 => {
                        let extra_ms = if x < 0.3 { 0.0 } else { x * 300.0 };
                        net.set_degrade(now, extra_ms);
                        oracle.set_degrade(now, extra_ms);
                    }
                    _ => {
                        cut = net.sever_rack(now, b % racks);
                        oracle_cut = oracle.sever_rack(now, b % racks);
                    }
                }
                oracle.recompute_full_scan();
                proptest::prop_assert_eq!(net.flow_bits(), oracle.flow_bits());
                proptest::prop_assert_eq!(net.completed_bits(), oracle.completed_bits());
                let severed = |v: Vec<SeveredFlow>| {
                    v.iter().map(|f| (f.root, f.tuples)).collect::<Vec<_>>()
                };
                proptest::prop_assert_eq!(severed(cut), severed(oracle_cut));
                proptest::prop_assert_eq!(
                    net.next_completion().map(f64::to_bits),
                    oracle.next_completion().map(f64::to_bits)
                );
            }
        }
    }
}
