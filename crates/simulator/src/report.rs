//! Simulation results.

use rstorm_metrics::{Summary, ThroughputReport};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// A broken engine invariant, surfaced as data instead of a
/// `debug_assert!` so release-build fuzz campaigns can check every run
/// (see [`crate::sim::Simulation::run_checked`]). An empty violation
/// list is the oracle the chaos fuzzer hunts against.
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// The replay-plane drain invariant
    /// `emitted == completed + quarantined + in_flight` failed: a
    /// logical root was double-settled or leaked.
    DrainImbalance {
        /// Roots admitted through the spout-pending window.
        emitted: u64,
        /// Roots settled as acked.
        completed: u64,
        /// Roots settled as poison.
        quarantined: u64,
        /// Roots still unsettled at the horizon.
        in_flight: u64,
    },
    /// The live-root ledger failed: the engine's `live_logical` count
    /// disagrees with the sum of unfailed slab residents and queued
    /// replays.
    LedgerMismatch {
        /// The engine's running count of unsettled logical roots.
        live_logical: u64,
        /// Live unfailed attempts in the root slab.
        slab_live: u64,
        /// Entries waiting in spout replay queues.
        replay_queued: u64,
    },
    /// A reported metric is NaN or infinite.
    NonFiniteMetric {
        /// Which metric (a stable dotted path into the report).
        metric: String,
        /// The offending value.
        value: f64,
    },
    /// A reported metric that must be non-negative is below zero.
    NegativeMetric {
        /// Which metric (a stable dotted path into the report).
        metric: String,
        /// The offending value.
        value: f64,
    },
    /// A monotone counter is implausibly close to `u64::MAX` — the
    /// signature of wrapping arithmetic, far beyond what any simulated
    /// horizon can legitimately produce.
    CounterOverflow {
        /// Which counter.
        counter: String,
        /// The suspect value.
        value: u64,
    },
}

impl InvariantViolation {
    /// Stable machine-readable kind label (the shrinker preserves the
    /// kind of the oracle a plan trips).
    pub fn kind(&self) -> &'static str {
        match self {
            Self::DrainImbalance { .. } => "drain_imbalance",
            Self::LedgerMismatch { .. } => "ledger_mismatch",
            Self::NonFiniteMetric { .. } => "non_finite_metric",
            Self::NegativeMetric { .. } => "negative_metric",
            Self::CounterOverflow { .. } => "counter_overflow",
        }
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DrainImbalance {
                emitted,
                completed,
                quarantined,
                in_flight,
            } => write!(
                f,
                "drain invariant: emitted {emitted} != completed {completed} \
                 + quarantined {quarantined} + in_flight {in_flight}"
            ),
            Self::LedgerMismatch {
                live_logical,
                slab_live,
                replay_queued,
            } => write!(
                f,
                "root ledger: live_logical {live_logical} != slab_live {slab_live} \
                 + replay_queued {replay_queued}"
            ),
            Self::NonFiniteMetric { metric, value } => {
                write!(f, "metric {metric} is not finite ({value})")
            }
            Self::NegativeMetric { metric, value } => {
                write!(f, "metric {metric} is negative ({value})")
            }
            Self::CounterOverflow { counter, value } => {
                write!(
                    f,
                    "counter {counter} is implausibly large ({value}), likely wrapped"
                )
            }
        }
    }
}

/// Counters this close to `u64::MAX` can only come from wrapping
/// subtraction — no simulated horizon emits 2^63 of anything.
const OVERFLOW_CANARY: u64 = u64::MAX / 2;

/// Aggregate event counts of a run (useful for conservation checks and
/// diagnosing overload).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimTotals {
    /// Root batches emitted by spouts.
    pub spout_batches: u64,
    /// Batch deliveries to task input queues (including shed ones).
    pub batches_delivered: u64,
    /// Deliveries shed because their root had already timed out.
    pub batches_dropped: u64,
    /// Roots fully processed within the timeout.
    pub roots_completed: u64,
    /// Roots failed by the tuple timeout.
    pub roots_timed_out: u64,
    /// Tuples processed by bolts (stale ones included).
    pub tuples_processed: u64,
    /// Tuples of live roots processed at sinks — the throughput numerator.
    pub tuples_completed: u64,
    /// Tuples destroyed by injected node crashes (queued, in service, or
    /// in flight toward a crashed worker). Zero for fault-free runs. In
    /// replay mode only quarantined roots charge this counter — a
    /// replayed-then-acked root retransmitted its crash-destroyed data,
    /// so it is not lost.
    pub tuples_lost: u64,
    /// Logical roots admitted through the spout-pending window. Zero
    /// unless replay is enabled (`SimConfig::max_replays > 0`); subject
    /// to the drain invariant
    /// `roots_emitted == roots_completed + roots_quarantined + roots_in_flight`.
    pub roots_emitted: u64,
    /// Spout re-emissions of failed roots (replay mode only). Counts
    /// attempts, so one root replayed twice contributes 2.
    pub roots_replayed: u64,
    /// Logical roots that failed beyond their retry budget and were
    /// quarantined as poison tuples (replay mode only).
    pub roots_quarantined: u64,
    /// Tuples carried by quarantined roots (replay mode only).
    pub tuples_quarantined: u64,
    /// Logical roots still un-settled — live or awaiting replay — when
    /// the horizon cut the run off (replay mode only).
    pub roots_in_flight: u64,
}

/// Engine-internal counters exposed for observability and performance
/// regression tests. These describe *how* the engine ran, not *what* the
/// simulated cluster did, so they are excluded from report equality (the
/// fast and reference engines must agree on the physics, not on their
/// internal bookkeeping — the reference engine has no pools).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimDebugStats {
    /// Events popped and handled by the main loop.
    pub events: u64,
    /// Root-slab inserts served from the free-list pool (recycled
    /// allocations — nonzero once the first tuple tree retires).
    pub root_pool_hits: u64,
    /// Root-slab inserts that grew the slab.
    pub root_pool_misses: u64,
    /// High-water mark of simultaneously in-flight tuple trees.
    pub max_live_roots: u64,
    /// Stored routing entries: the target lists shared per (component,
    /// subscription) plus the members of every local-or-shuffle
    /// preference pool. Link kinds and latencies are derived per
    /// emission and stored nowhere.
    pub route_entries: u64,
    /// Batch starts served by the node CPU servers, summed over nodes.
    pub cpu_serves: u64,
    /// Those of [`Self::cpu_serves`] whose node the exp-free demand bound
    /// could not prove under-committed, so the max-min fair-share scan
    /// ran. Each node's CPU server counts its own calls.
    pub cpu_fair_scans: u64,
}

/// Recovery observability derived from a fault-plan run by the chaos
/// harness (`crate::chaos`). Attached to [`SimReport::recovery`] only for
/// such runs; plain simulations leave it `None`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryObservations {
    /// The anchor every latency below is measured from, in simulation
    /// milliseconds: the plan's earliest data-plane fault (a node crash,
    /// rack partition or link degradation). A plan with no data-plane
    /// fault anchors on its earliest event, an empty plan on `0`. So a
    /// crash under an earlier Nimbus outage is measured from the crash.
    pub crash_at_ms: f64,
    /// Crash until the control loop declared the node dead (includes the
    /// configured heartbeat-miss window). Negative if never detected
    /// within the run.
    pub time_to_detect_ms: f64,
    /// Crash until the displaced topology was fully re-placed (no
    /// unplaced tasks). Negative if full recovery never happened within
    /// the run.
    pub time_to_recover_ms: f64,
    /// Tuples destroyed by the outage (mirrors
    /// [`SimTotals::tuples_lost`]).
    pub tuples_lost: u64,
    /// Depth of the throughput dip: `1 - worst_outage_window /
    /// steady_pre_crash_mean`, clamped to `[0, 1]`. Zero means the
    /// outage was invisible in sink throughput.
    pub throughput_dip_depth: f64,
    /// Scheduler invocations the recovery loop spent re-placing work.
    pub reschedule_attempts: u64,
    /// Spout re-emissions of failed roots during the scenario (mirrors
    /// [`SimTotals::roots_replayed`]; zero when replay is disabled).
    pub roots_replayed: u64,
    /// Tuples quarantined beyond the retry budget (mirrors
    /// [`SimTotals::tuples_quarantined`]; zero for a survivable fault).
    pub tuples_quarantined: u64,
    /// Flap events the control plane absorbed: readmissions withheld by
    /// the trust hysteresis plus reschedules deferred by the churn
    /// limiter (`RecoveryManager::suppressed_flaps`).
    pub suppressed_flaps: u64,
}

/// Telemetry of one fabric link under the fair-share network plane
/// (`SimConfig::network_model == NetworkModel::Fair`).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkUtilization {
    /// Stable link name: `"{node}.egress"`, `"{node}.ingress"`,
    /// `"{rack}.uplink"`, `"{rack}.downlink"` or `"core"`.
    pub link: String,
    /// Base capacity in Mbps (before any degradation window).
    pub capacity_mbps: f64,
    /// Mean utilization over the run, in `[0, 1]`.
    pub mean_utilization: f64,
    /// Complete report windows in which the link ran at ≥ 95 % of its
    /// effective capacity (see `crate::network::SATURATION_THRESHOLD`).
    pub saturated_windows: u64,
    /// Megabytes the link carried.
    pub mb_carried: f64,
}

/// The `network` section of a report: per-link utilization and
/// saturation, present only when the fair-share plane served the run.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkObservations {
    /// Every fabric link in id order (node NICs, rack trunks, core).
    pub links: Vec<LinkUtilization>,
}

impl NetworkObservations {
    /// `(rack, mean_utilization)` of every rack uplink trunk — the
    /// congestion signal the adaptive plane feeds to `DriftDetector`.
    pub fn trunk_utilization(&self) -> Vec<(String, f64)> {
        self.links
            .iter()
            .filter_map(|l| {
                let rack = l.link.strip_suffix(".uplink")?;
                Some((rack.to_owned(), l.mean_utilization))
            })
            .collect()
    }
}

/// The outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Simulated duration in milliseconds.
    pub duration_ms: f64,
    /// Reporting window width in milliseconds.
    pub window_ms: f64,
    /// Per-topology sink throughput (tuples per window, averaged over
    /// sinks — the paper's §6.2 metric).
    pub throughput: BTreeMap<String, ThroughputReport>,
    /// Mean CPU utilization over the machines that did any work —
    /// the Figure 10 metric.
    pub mean_used_cpu_utilization: Summary,
    /// Number of machines that did any work.
    pub used_nodes: usize,
    /// Number of distinct machines each topology's tasks were placed on.
    pub used_nodes_by_topology: BTreeMap<String, usize>,
    /// Per-node CPU utilization (used nodes only, sorted by node name).
    pub node_utilization: Vec<(String, f64)>,
    /// Megabytes carried by the shared inter-rack uplink — the traffic a
    /// colocating scheduler avoids.
    pub inter_rack_mb: f64,
    /// End-to-end latency of completed tuple trees, in milliseconds —
    /// emission at the spout to the last descendant's processing.
    pub latency_ms: Summary,
    /// Aggregate event counts.
    pub totals: SimTotals,
    /// Recovery metrics, present only for chaos-harness runs.
    pub recovery: Option<RecoveryObservations>,
    /// Per-link network telemetry, present only when the fair-share
    /// network plane served the run (`None` under the legacy model, which
    /// keeps the report layout byte-identical to the pre-plane engine).
    pub network: Option<NetworkObservations>,
    /// Engine-internal counters (excluded from `==`; see
    /// [`SimDebugStats`]).
    pub debug: SimDebugStats,
}

/// Equality over the simulated outcome only: every physical field takes
/// part, [`SimReport::debug`] deliberately does not. This is what the
/// fast/reference parity tests compare — two engines that agree on every
/// observable of the run are interchangeable even though their internal
/// counters differ.
impl PartialEq for SimReport {
    fn eq(&self, other: &Self) -> bool {
        self.duration_ms == other.duration_ms
            && self.window_ms == other.window_ms
            && self.throughput == other.throughput
            && self.mean_used_cpu_utilization == other.mean_used_cpu_utilization
            && self.used_nodes == other.used_nodes
            && self.used_nodes_by_topology == other.used_nodes_by_topology
            && self.node_utilization == other.node_utilization
            && self.inter_rack_mb == other.inter_rack_mb
            && self.latency_ms == other.latency_ms
            && self.totals == other.totals
            && self.recovery == other.recovery
            && self.network == other.network
    }
}

impl SimReport {
    /// Mean steady-state throughput of a topology in tuples per window,
    /// skipping `skip` warm-up windows.
    pub fn steady_throughput(&self, topology: &str, skip: usize) -> f64 {
        self.throughput
            .get(topology)
            .map_or(0.0, |t| t.steady_state(skip).mean)
    }

    /// Fraction of settled logical roots that acked:
    /// `roots_completed / (roots_emitted - roots_in_flight)`. Roots the
    /// horizon cut off mid-flight are excluded — they are neither
    /// delivered nor lost. `1.0` when nothing settled (vacuously
    /// lossless) and, by the drain invariant, exactly `1.0` iff no root
    /// quarantined. Meaningful for replay-enabled runs; a replay-disabled
    /// run reports `1.0` because the legacy counters stay zero.
    pub fn zero_loss_ratio(&self) -> f64 {
        let settled = self.totals.roots_emitted - self.totals.roots_in_flight;
        if settled == 0 {
            return 1.0;
        }
        self.totals.roots_completed as f64 / settled as f64
    }

    /// Tuples carried by roots that failed beyond their retry budget
    /// (see [`SimTotals::tuples_quarantined`]).
    pub fn tuples_quarantined(&self) -> u64 {
        self.totals.tuples_quarantined
    }

    /// Counter-sanity sweep over the report: every float metric must be
    /// finite, the non-negative ones non-negative, and every monotone
    /// counter far from the wrap-around canary. A pure function of the
    /// report, so harnesses can check any run after the fact; the engine
    /// folds these into every [`crate::sim::Simulation::run_checked`].
    /// A clean report allocates nothing: a metric's name is built only
    /// when its value fails.
    pub fn sanity_violations(&self) -> Vec<InvariantViolation> {
        fn float(
            out: &mut Vec<InvariantViolation>,
            metric: impl fmt::Display,
            value: f64,
            non_negative: bool,
        ) {
            if !value.is_finite() {
                out.push(InvariantViolation::NonFiniteMetric {
                    metric: metric.to_string(),
                    value,
                });
            } else if non_negative && value < 0.0 {
                out.push(InvariantViolation::NegativeMetric {
                    metric: metric.to_string(),
                    value,
                });
            }
        }
        let mut out = Vec::new();
        float(&mut out, "duration_ms", self.duration_ms, true);
        float(&mut out, "window_ms", self.window_ms, true);
        float(&mut out, "inter_rack_mb", self.inter_rack_mb, true);
        for (topo, t) in &self.throughput {
            for (i, &w) in t.windows.iter().enumerate() {
                float(&mut out, format_args!("throughput.{topo}[{i}]"), w, true);
            }
        }
        for (node, u) in &self.node_utilization {
            float(&mut out, format_args!("node_utilization.{node}"), *u, true);
        }
        float(&mut out, "latency_ms.mean", self.latency_ms.mean, true);
        float(&mut out, "latency_ms.stddev", self.latency_ms.stddev, true);
        if self.totals.roots_in_flight <= self.totals.roots_emitted {
            float(&mut out, "zero_loss_ratio", self.zero_loss_ratio(), true);
        } else {
            // More in flight than ever emitted: the drain accounting
            // wrapped; computing the ratio would underflow.
            out.push(InvariantViolation::DrainImbalance {
                emitted: self.totals.roots_emitted,
                completed: self.totals.roots_completed,
                quarantined: self.totals.roots_quarantined,
                in_flight: self.totals.roots_in_flight,
            });
        }
        if let Some(r) = &self.recovery {
            float(&mut out, "recovery.crash_at_ms", r.crash_at_ms, true);
            // Detect/recover latencies use -1.0 sentinels, so only
            // finiteness is required of them.
            float(
                &mut out,
                "recovery.time_to_detect_ms",
                r.time_to_detect_ms,
                false,
            );
            float(
                &mut out,
                "recovery.time_to_recover_ms",
                r.time_to_recover_ms,
                false,
            );
            float(
                &mut out,
                "recovery.throughput_dip_depth",
                r.throughput_dip_depth,
                true,
            );
        }
        if let Some(n) = &self.network {
            for l in &n.links {
                let link = &l.link;
                float(
                    &mut out,
                    format_args!("network.{link}.capacity_mbps"),
                    l.capacity_mbps,
                    true,
                );
                float(
                    &mut out,
                    format_args!("network.{link}.mean_utilization"),
                    l.mean_utilization,
                    true,
                );
                float(
                    &mut out,
                    format_args!("network.{link}.mb_carried"),
                    l.mb_carried,
                    true,
                );
                if l.saturated_windows > OVERFLOW_CANARY {
                    out.push(InvariantViolation::CounterOverflow {
                        counter: format!("network.{link}.saturated_windows"),
                        value: l.saturated_windows,
                    });
                }
            }
        }
        let t = &self.totals;
        for (counter, value) in [
            ("spout_batches", t.spout_batches),
            ("batches_delivered", t.batches_delivered),
            ("batches_dropped", t.batches_dropped),
            ("roots_completed", t.roots_completed),
            ("roots_timed_out", t.roots_timed_out),
            ("tuples_processed", t.tuples_processed),
            ("tuples_completed", t.tuples_completed),
            ("tuples_lost", t.tuples_lost),
            ("roots_emitted", t.roots_emitted),
            ("roots_replayed", t.roots_replayed),
            ("roots_quarantined", t.roots_quarantined),
            ("tuples_quarantined", t.tuples_quarantined),
            ("roots_in_flight", t.roots_in_flight),
        ] {
            if value > OVERFLOW_CANARY {
                out.push(InvariantViolation::CounterOverflow {
                    counter: counter.to_owned(),
                    value,
                });
            }
        }
        out
    }

    /// Serializes the physical outcome (everything `==` compares; debug
    /// counters excluded) as deterministic JSON with fixed key order and
    /// shortest-roundtrip float formatting. Two runs produce the same
    /// string iff they produced the same report — the golden-report
    /// regression test pins this string for a fixed seed and workload.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"duration_ms\": {:?},", self.duration_ms);
        let _ = writeln!(out, "  \"window_ms\": {:?},", self.window_ms);
        out.push_str("  \"throughput\": {\n");
        for (i, (topo, t)) in self.throughput.iter().enumerate() {
            let _ = write!(
                out,
                "    {}: {{\"window_ms\": {:?}, \"windows\": [",
                json_str(topo),
                t.window_ms
            );
            for (j, w) in t.windows.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{w:?}");
            }
            out.push_str("]}");
            out.push_str(if i + 1 < self.throughput.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  },\n");
        let _ = writeln!(
            out,
            "  \"mean_used_cpu_utilization\": {},",
            json_summary(&self.mean_used_cpu_utilization)
        );
        let _ = writeln!(out, "  \"used_nodes\": {},", self.used_nodes);
        out.push_str("  \"used_nodes_by_topology\": {");
        for (i, (topo, n)) in self.used_nodes_by_topology.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {}", json_str(topo), n);
        }
        out.push_str("},\n");
        out.push_str("  \"node_utilization\": [");
        for (i, (node, u)) in self.node_utilization.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[{}, {:?}]", json_str(node), u);
        }
        out.push_str("],\n");
        let _ = writeln!(out, "  \"inter_rack_mb\": {:?},", self.inter_rack_mb);
        let _ = writeln!(out, "  \"latency_ms\": {},", json_summary(&self.latency_ms));
        let t = &self.totals;
        let _ = write!(
            out,
            "  \"totals\": {{\"spout_batches\": {}, \"batches_delivered\": {}, \
             \"batches_dropped\": {}, \"roots_completed\": {}, \"roots_timed_out\": {}, \
             \"tuples_processed\": {}, \"tuples_completed\": {}, \"tuples_lost\": {}",
            t.spout_batches,
            t.batches_delivered,
            t.batches_dropped,
            t.roots_completed,
            t.roots_timed_out,
            t.tuples_processed,
            t.tuples_completed,
            t.tuples_lost
        );
        // The replay-plane counters appear only for replay-enabled runs
        // (`roots_emitted` counts every admitted root there, so it is
        // nonzero whenever a spout emitted at all). Replay-disabled runs
        // keep the legacy byte layout, which the golden-report test pins.
        if t.roots_emitted > 0 {
            let _ = write!(
                out,
                ", \"roots_emitted\": {}, \"roots_replayed\": {}, \"roots_quarantined\": {}, \
                 \"tuples_quarantined\": {}, \"roots_in_flight\": {}",
                t.roots_emitted,
                t.roots_replayed,
                t.roots_quarantined,
                t.tuples_quarantined,
                t.roots_in_flight
            );
        }
        out.push('}');
        if let Some(r) = &self.recovery {
            let _ = write!(
                out,
                ",\n  \"recovery\": {{\"crash_at_ms\": {:?}, \"time_to_detect_ms\": {:?}, \
                 \"time_to_recover_ms\": {:?}, \"tuples_lost\": {}, \
                 \"throughput_dip_depth\": {:?}, \"reschedule_attempts\": {}, \
                 \"roots_replayed\": {}, \"tuples_quarantined\": {}, \
                 \"suppressed_flaps\": {}}}",
                r.crash_at_ms,
                r.time_to_detect_ms,
                r.time_to_recover_ms,
                r.tuples_lost,
                r.throughput_dip_depth,
                r.reschedule_attempts,
                r.roots_replayed,
                r.tuples_quarantined,
                r.suppressed_flaps
            );
        }
        // The network section exists only for fair-plane runs; legacy
        // runs keep the pre-plane byte layout the golden test pins.
        if let Some(n) = &self.network {
            out.push_str(",\n  \"network\": {\"links\": [");
            for (i, l) in n.links.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"link\": {}, \"capacity_mbps\": {:?}, \"mean_utilization\": {:?}, \
                     \"saturated_windows\": {}, \"mb_carried\": {:?}}}",
                    json_str(&l.link),
                    l.capacity_mbps,
                    l.mean_utilization,
                    l.saturated_windows,
                    l.mb_carried
                );
            }
            out.push_str("]}");
        }
        out.push_str("\n}\n");
        out
    }
}

fn json_summary(s: &Summary) -> String {
    format!(
        "{{\"count\": {}, \"mean\": {:?}, \"stddev\": {:?}, \"min\": {:?}, \"max\": {:?}}}",
        s.count, s.mean, s.stddev, s.min, s.max
    )
}

fn json_str(s: &str) -> String {
    // Workload/node names in this workspace are plain identifiers; escape
    // the two structural characters anyway so the output is always valid.
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report() -> SimReport {
        SimReport {
            duration_ms: 1000.0,
            window_ms: 100.0,
            throughput: BTreeMap::new(),
            mean_used_cpu_utilization: Summary::of([]),
            used_nodes: 0,
            used_nodes_by_topology: BTreeMap::new(),
            node_utilization: Vec::new(),
            inter_rack_mb: 0.0,
            latency_ms: Summary::of([]),
            totals: SimTotals::default(),
            recovery: None,
            network: None,
            debug: SimDebugStats::default(),
        }
    }

    fn uplink(rack: &str, utilization: f64) -> LinkUtilization {
        LinkUtilization {
            link: format!("{rack}.uplink"),
            capacity_mbps: 600.0,
            mean_utilization: utilization,
            saturated_windows: 0,
            mb_carried: 1.0,
        }
    }

    #[test]
    fn steady_throughput_defaults_to_zero() {
        assert_eq!(empty_report().steady_throughput("ghost", 0), 0.0);
    }

    #[test]
    fn totals_default_to_zero() {
        let t = SimTotals::default();
        assert_eq!(t.spout_batches, 0);
        assert_eq!(t.roots_completed, 0);
    }

    #[test]
    fn equality_ignores_debug_stats() {
        let a = empty_report();
        let mut b = empty_report();
        b.debug.events = 1_000_000;
        b.debug.root_pool_hits = 42;
        assert_eq!(a, b);
        let mut c = empty_report();
        c.totals.spout_batches = 1;
        assert_ne!(a, c);
        let mut d = empty_report();
        d.inter_rack_mb = 0.5;
        assert_ne!(a, d);
    }

    #[test]
    fn json_is_deterministic_and_debug_free() {
        let mut r = empty_report();
        r.throughput.insert(
            "t".to_owned(),
            ThroughputReport {
                window_ms: 100.0,
                windows: vec![1.5, 2.0],
            },
        );
        r.used_nodes_by_topology.insert("t".to_owned(), 3);
        r.node_utilization.push(("n0".to_owned(), 0.25));
        let j1 = r.to_json();
        r.debug.events = 99; // must not affect the serialization
        let j2 = r.to_json();
        assert_eq!(j1, j2);
        assert!(j1.contains("\"windows\": [1.5, 2.0]"));
        assert!(j1.contains("\"used_nodes_by_topology\": {\"t\": 3}"));
        assert!(!j1.contains("debug"));
    }

    #[test]
    fn recovery_observations_participate_in_equality_and_json() {
        let a = empty_report();
        let mut b = empty_report();
        b.recovery = Some(RecoveryObservations {
            crash_at_ms: 10_000.0,
            time_to_detect_ms: 3_000.0,
            time_to_recover_ms: 4_000.0,
            tuples_lost: 42,
            throughput_dip_depth: 0.5,
            reschedule_attempts: 2,
            roots_replayed: 7,
            tuples_quarantined: 0,
            suppressed_flaps: 3,
        });
        assert_ne!(a, b, "recovery metrics are part of the outcome");
        assert!(!a.to_json().contains("recovery"));
        let j = b.to_json();
        assert!(j.contains("\"recovery\": {\"crash_at_ms\": 10000.0"));
        assert!(j.contains("\"reschedule_attempts\": 2"));
        assert!(j.contains("\"tuples_lost\": 42"));
        assert!(j.contains("\"roots_replayed\": 7"));
        assert!(j.contains("\"suppressed_flaps\": 3"));
    }

    #[test]
    fn replay_totals_serialize_only_when_replay_ran() {
        let legacy = empty_report();
        let j = legacy.to_json();
        assert!(
            !j.contains("roots_emitted") && !j.contains("quarantined"),
            "replay-disabled runs keep the legacy totals layout: {j}"
        );
        assert!(j.contains("\"tuples_lost\": 0}"), "totals still close: {j}");

        let mut replay = empty_report();
        replay.totals.roots_emitted = 10;
        replay.totals.roots_completed = 8;
        replay.totals.roots_replayed = 3;
        replay.totals.roots_quarantined = 1;
        replay.totals.tuples_quarantined = 10;
        replay.totals.roots_in_flight = 1;
        let j = replay.to_json();
        assert!(j.contains("\"roots_emitted\": 10"));
        assert!(j.contains("\"tuples_quarantined\": 10"));
        assert!(j.contains("\"roots_in_flight\": 1}"));
        assert_ne!(legacy, replay, "replay counters are part of the outcome");
    }

    #[test]
    fn sanity_sweep_flags_bad_metrics_and_passes_clean_reports() {
        let clean = empty_report();
        assert!(clean.sanity_violations().is_empty());

        let mut bad = empty_report();
        bad.inter_rack_mb = f64::NAN;
        bad.node_utilization.push(("n0".to_owned(), -0.5));
        bad.totals.tuples_processed = u64::MAX - 3;
        let violations = bad.sanity_violations();
        assert_eq!(violations.len(), 3, "{violations:?}");
        let kinds: Vec<&str> = violations.iter().map(InvariantViolation::kind).collect();
        assert!(kinds.contains(&"non_finite_metric"));
        assert!(kinds.contains(&"negative_metric"));
        assert!(kinds.contains(&"counter_overflow"));
        for v in &violations {
            assert!(!v.to_string().is_empty());
        }

        // Wrapped drain accounting is caught instead of underflowing.
        let mut wrapped = empty_report();
        wrapped.totals.roots_emitted = 2;
        wrapped.totals.roots_in_flight = 5;
        let violations = wrapped.sanity_violations();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind(), "drain_imbalance");
    }

    #[test]
    fn network_section_serializes_only_for_fair_plane_runs() {
        let legacy = empty_report();
        assert!(!legacy.to_json().contains("network"));

        let mut fair = empty_report();
        fair.network = Some(NetworkObservations {
            links: vec![
                LinkUtilization {
                    link: "node0.egress".to_owned(),
                    capacity_mbps: 100.0,
                    mean_utilization: 0.25,
                    saturated_windows: 2,
                    mb_carried: 12.5,
                },
                uplink("rack0", 0.97),
            ],
        });
        assert_ne!(legacy, fair, "network telemetry is part of the outcome");
        let j = fair.to_json();
        assert!(j.contains("\"network\": {\"links\": ["));
        assert!(j.contains("{\"link\": \"node0.egress\", \"capacity_mbps\": 100.0"));
        assert!(j.contains("\"saturated_windows\": 2"));
        assert!(j.contains("\"mb_carried\": 12.5"));
        // Still valid deterministic output with the recovery tail too.
        fair.recovery = Some(RecoveryObservations::default());
        let j = fair.to_json();
        assert!(j.contains("\"recovery\": {"));
        assert!(j.ends_with("]}\n}\n"), "network closes the object: {j}");
    }

    #[test]
    fn trunk_utilization_filters_uplinks_only() {
        let net = NetworkObservations {
            links: vec![
                LinkUtilization {
                    link: "node0.egress".to_owned(),
                    capacity_mbps: 100.0,
                    mean_utilization: 0.9,
                    saturated_windows: 0,
                    mb_carried: 0.0,
                },
                uplink("rack0", 0.97),
                uplink("rack1", 0.10),
                LinkUtilization {
                    link: "rack0.downlink".to_owned(),
                    capacity_mbps: 600.0,
                    mean_utilization: 0.99,
                    saturated_windows: 3,
                    mb_carried: 1.0,
                },
            ],
        };
        assert_eq!(
            net.trunk_utilization(),
            vec![("rack0".to_owned(), 0.97), ("rack1".to_owned(), 0.10)]
        );
    }

    #[test]
    fn sanity_sweep_covers_the_network_section() {
        let mut r = empty_report();
        r.network = Some(NetworkObservations {
            links: vec![uplink("rack0", f64::NAN)],
        });
        let violations = r.sanity_violations();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].kind(), "non_finite_metric");
        assert!(violations[0].to_string().contains("rack0.uplink"));
    }

    #[test]
    fn zero_loss_ratio_excludes_in_flight_roots() {
        let mut r = empty_report();
        assert_eq!(r.zero_loss_ratio(), 1.0, "vacuously lossless when idle");
        r.totals.roots_emitted = 10;
        r.totals.roots_completed = 8;
        r.totals.roots_in_flight = 2;
        assert_eq!(r.zero_loss_ratio(), 1.0, "cut-off roots are not losses");
        r.totals.roots_in_flight = 1;
        r.totals.roots_quarantined = 1;
        r.totals.tuples_quarantined = 10;
        assert!(r.zero_loss_ratio() < 1.0, "a quarantine shows up");
        assert_eq!(r.tuples_quarantined(), 10);
    }
}
