//! The `StatisticServer`: cluster-wide throughput collection.
//!
//! Mirrors the paper's module of the same name (§5.1). Counters are kept
//! per `(topology, component)`; topology-level throughput follows the
//! paper's definition (§6.2): *"the throughput of a topology is the
//! average throughput of all output bolts"*, in tuples per 10-second
//! window.

use crate::counter::WindowedCounter;
use crate::summary::Summary;
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};

/// Default reporting window: the paper's "tuples/10sec".
pub const DEFAULT_WINDOW_MS: f64 = 10_000.0;

#[derive(Debug, Default)]
struct Inner {
    /// (topology, component) -> processed-tuple counter.
    processed: HashMap<(String, String), WindowedCounter>,
    /// (topology, component) -> emitted-tuple counter.
    emitted: HashMap<(String, String), WindowedCounter>,
    /// (topology, component) -> observed CPU busy-time, in microseconds
    /// of core time (integer so it fits the windowed counter).
    busy_us: HashMap<(String, String), WindowedCounter>,
    /// topology -> declared sink components.
    sinks: HashMap<String, BTreeSet<String>>,
}

/// Thread-safe statistics collector.
#[derive(Debug)]
pub struct StatisticServer {
    window_ms: f64,
    inner: Mutex<Inner>,
}

impl Default for StatisticServer {
    fn default() -> Self {
        Self::new(DEFAULT_WINDOW_MS)
    }
}

impl StatisticServer {
    /// Creates a server with the given window width in milliseconds.
    pub fn new(window_ms: f64) -> Self {
        Self {
            window_ms,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Declares `component` as an output (sink) bolt of `topology`.
    /// Topology throughput averages over the declared sinks.
    pub fn declare_sink(&self, topology: &str, component: &str) {
        self.inner
            .lock()
            .sinks
            .entry(topology.to_owned())
            .or_default()
            .insert(component.to_owned());
    }

    /// Records `count` tuples *processed* by `component` at `at_ms`.
    pub fn record_processed(&self, topology: &str, component: &str, at_ms: f64, count: u64) {
        let mut inner = self.inner.lock();
        let window = self.window_ms;
        inner
            .processed
            .entry((topology.to_owned(), component.to_owned()))
            .or_insert_with(|| WindowedCounter::new(window))
            .record(at_ms, count);
    }

    /// Records `count` tuples *emitted* by `component` at `at_ms`.
    pub fn record_emitted(&self, topology: &str, component: &str, at_ms: f64, count: u64) {
        let mut inner = self.inner.lock();
        let window = self.window_ms;
        inner
            .emitted
            .entry((topology.to_owned(), component.to_owned()))
            .or_insert_with(|| WindowedCounter::new(window))
            .record(at_ms, count);
    }

    /// Records `busy_us` microseconds of observed CPU busy core-time for
    /// `component` at `at_ms`. The simulator's stats-export hook feeds
    /// this on every snapshot tick; the profile refiner reads it back as
    /// observed CPU points via
    /// [`StatisticServer::observed_cpu_points`].
    pub fn record_busy_us(&self, topology: &str, component: &str, at_ms: f64, busy_us: u64) {
        let mut inner = self.inner.lock();
        let window = self.window_ms;
        inner
            .busy_us
            .entry((topology.to_owned(), component.to_owned()))
            .or_insert_with(|| WindowedCounter::new(window))
            .record(at_ms, busy_us);
    }

    /// Total observed CPU busy core-time of a component in milliseconds.
    pub fn component_busy_core_ms(&self, topology: &str, component: &str) -> f64 {
        self.inner
            .lock()
            .busy_us
            .get(&(topology.to_owned(), component.to_owned()))
            .map_or(0.0, |c| c.total() as f64 / 1000.0)
    }

    /// Observed CPU load of a component in the paper's *points* (100 =
    /// one full core), summed across the component's tasks: busy core
    /// time divided by elapsed wall time. Divide by the component's
    /// parallelism for a per-task figure comparable to `setCPULoad`.
    pub fn observed_cpu_points(&self, topology: &str, component: &str, elapsed_ms: f64) -> f64 {
        if elapsed_ms <= 0.0 {
            return 0.0;
        }
        self.component_busy_core_ms(topology, component) / elapsed_ms * 100.0
    }

    /// Tuples processed per complete window by one component.
    pub fn component_windows(&self, topology: &str, component: &str, until_ms: f64) -> Vec<u64> {
        self.inner
            .lock()
            .processed
            .get(&(topology.to_owned(), component.to_owned()))
            .map(|c| c.complete_window_counts(until_ms))
            .unwrap_or_else(|| vec![0; (until_ms / self.window_ms).floor() as usize])
    }

    /// Total tuples processed by a component.
    pub fn component_total(&self, topology: &str, component: &str) -> u64 {
        self.inner
            .lock()
            .processed
            .get(&(topology.to_owned(), component.to_owned()))
            .map_or(0, WindowedCounter::total)
    }

    /// Total tuples emitted by a component.
    pub fn component_emitted_total(&self, topology: &str, component: &str) -> u64 {
        self.inner
            .lock()
            .emitted
            .get(&(topology.to_owned(), component.to_owned()))
            .map_or(0, WindowedCounter::total)
    }

    /// Topology throughput: the per-window *average over the declared
    /// sinks* of tuples processed, over complete windows in
    /// `[0, until_ms)`.
    pub fn topology_throughput(&self, topology: &str, until_ms: f64) -> ThroughputReport {
        let sinks: Vec<String> = self
            .inner
            .lock()
            .sinks
            .get(topology)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default();
        let num_windows = (until_ms / self.window_ms).floor() as usize;
        let mut windows = vec![0.0f64; num_windows];
        if !sinks.is_empty() {
            for sink in &sinks {
                let counts = self.component_windows(topology, sink, until_ms);
                for (w, c) in windows.iter_mut().zip(counts) {
                    *w += c as f64;
                }
            }
            let n = sinks.len() as f64;
            for w in &mut windows {
                *w /= n;
            }
        }
        ThroughputReport {
            window_ms: self.window_ms,
            windows,
        }
    }
}

/// Per-window topology throughput (average across sink bolts), in tuples
/// per window.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// Window width in milliseconds.
    pub window_ms: f64,
    /// Average sink throughput per complete window.
    pub windows: Vec<f64>,
}

impl ThroughputReport {
    /// Summary over all windows.
    pub fn summary(&self) -> Summary {
        Summary::of(self.windows.iter().copied())
    }

    /// Summary skipping the first `skip` warm-up windows.
    pub fn steady_state(&self, skip: usize) -> Summary {
        Summary::of(self.windows.iter().skip(skip).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_throughput_averages_sinks() {
        let s = StatisticServer::new(10_000.0);
        s.declare_sink("t", "sink-a");
        s.declare_sink("t", "sink-b");
        // Window 0: a=100, b=50. Window 1: a=200, b=0.
        s.record_processed("t", "sink-a", 1_000.0, 100);
        s.record_processed("t", "sink-b", 2_000.0, 50);
        s.record_processed("t", "sink-a", 12_000.0, 200);
        let r = s.topology_throughput("t", 20_000.0);
        assert_eq!(r.windows, vec![75.0, 100.0]);
        assert_eq!(r.summary().mean, 87.5);
    }

    #[test]
    fn non_sink_components_do_not_affect_topology_rate() {
        let s = StatisticServer::new(10_000.0);
        s.declare_sink("t", "sink");
        s.record_processed("t", "middle", 1_000.0, 1_000_000);
        s.record_processed("t", "sink", 1_000.0, 10);
        let r = s.topology_throughput("t", 10_000.0);
        assert_eq!(r.windows, vec![10.0]);
    }

    #[test]
    fn unknown_topology_reports_zeroes() {
        let s = StatisticServer::new(10_000.0);
        let r = s.topology_throughput("ghost", 30_000.0);
        assert_eq!(r.windows, vec![0.0, 0.0, 0.0]);
        assert_eq!(s.component_total("ghost", "x"), 0);
    }

    #[test]
    fn emitted_and_processed_tracked_separately() {
        let s = StatisticServer::default();
        s.record_emitted("t", "spout", 0.0, 500);
        s.record_processed("t", "bolt", 0.0, 450);
        assert_eq!(s.component_emitted_total("t", "spout"), 500);
        assert_eq!(s.component_total("t", "bolt"), 450);
        assert_eq!(s.component_emitted_total("t", "bolt"), 0);
    }

    #[test]
    fn steady_state_skips_warmup() {
        let r = ThroughputReport {
            window_ms: 10_000.0,
            windows: vec![5.0, 100.0, 100.0],
        };
        assert_eq!(r.steady_state(1).mean, 100.0);
    }

    #[test]
    fn component_windows_for_unknown_component_are_zero() {
        let s = StatisticServer::new(10_000.0);
        assert_eq!(s.component_windows("t", "c", 25_000.0), vec![0, 0]);
    }

    #[test]
    fn busy_time_converts_to_observed_cpu_points() {
        let s = StatisticServer::new(10_000.0);
        // 5 s of busy core-time over a 20 s run = 25 points.
        s.record_busy_us("t", "bolt", 1_000.0, 2_500_000);
        s.record_busy_us("t", "bolt", 11_000.0, 2_500_000);
        assert_eq!(s.component_busy_core_ms("t", "bolt"), 5_000.0);
        assert_eq!(s.observed_cpu_points("t", "bolt", 20_000.0), 25.0);
        assert_eq!(s.observed_cpu_points("t", "ghost", 20_000.0), 0.0);
        assert_eq!(s.observed_cpu_points("t", "bolt", 0.0), 0.0);
    }
}
