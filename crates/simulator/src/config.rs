//! Simulation parameters.

/// Which network contention model serves `transfer()`.
///
/// The network plane (`crate::network`) is strictly opt-in: the default
/// [`NetworkModel::Legacy`] keeps every run bit-identical to the
/// pre-plane engine (pinned by the golden report, the parity property
/// suite, and the gate test), exactly like replay was introduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkModel {
    /// Per-resource FIFO `LinkServer`s: each transfer serializes through
    /// its egress NIC, (for inter-rack hops) a single global uplink, and
    /// its ingress NIC, one after another. Concurrent flows queue; they
    /// never share a link's capacity. Bit-identical to the engine before
    /// the network plane existed.
    Legacy,
    /// Flow-level max-min fair sharing over a hierarchical link graph:
    /// per-NIC duplex links, per-rack uplink/downlink trunks and a core
    /// switch. Concurrent flows on a shared link split its capacity
    /// max-min fairly; completion times are recomputed on every flow
    /// start/finish (dslab-style progressive filling).
    Fair,
}

impl NetworkModel {
    /// Parses the CLI spelling (`legacy` / `fair`).
    ///
    /// # Errors
    ///
    /// Returns the offending word when it names no model.
    pub fn parse(word: &str) -> Result<Self, String> {
        match word {
            "legacy" => Ok(Self::Legacy),
            "fair" => Ok(Self::Fair),
            other => Err(format!(
                "unknown network model {other:?} (expected \"fair\" or \"legacy\")"
            )),
        }
    }
}

/// Knobs of a simulation run. Defaults mirror the paper's experimental
//  conventions where one exists.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Simulated duration in milliseconds. The paper runs experiments for
    /// ~15 minutes; [`SimConfig::default`] uses 300 s which is past
    /// convergence for every workload in this repository, and
    /// [`SimConfig::quick`] uses 60 s for tests.
    pub sim_time_ms: f64,
    /// Tuples per simulated batch (the simulation quantum). Larger batches
    /// simulate faster with coarser contention granularity.
    pub batch_tuples: u32,
    /// Maximum in-flight root batches per spout task — Storm's
    /// `topology.max.spout.pending`, the backpressure mechanism.
    pub max_pending: u32,
    /// Tuple-tree timeout in milliseconds (Storm's
    /// `topology.message.timeout.secs`, default 30 s). Roots not fully
    /// processed in time are failed and their credit returned.
    pub tuple_timeout_ms: f64,
    /// Throughput reporting window in ms (the paper reports tuples/10 s).
    pub window_ms: f64,
    /// RNG seed for routing decisions (same seed → identical run).
    pub seed: u64,
    /// CPU slowdown factor applied to a node whose placed tasks demand
    /// more memory than it has — models the paging/crash-restart thrash
    /// of an over-committed worker ("catastrophic failure", §3). 1.0
    /// disables the effect.
    pub oom_thrash_factor: f64,
    /// Per-root retry budget for failed tuple trees (Storm's at-least-once
    /// spout replay). On root timeout or crash-induced tree failure the
    /// spout re-emits the root up to this many times; roots failing beyond
    /// the budget are quarantined as poison tuples. `0` disables replay
    /// entirely and preserves bit-identical legacy (at-most-once) behavior.
    pub max_replays: u32,
    /// **Fuzzer self-test hook — never set this outside the planted-bug
    /// gate.** When true, quarantine accounting deliberately skips the
    /// `roots_quarantined` increment, breaking the drain invariant the
    /// first time a root exhausts its replay budget. The fuzz pins and
    /// unit tests use it to prove the campaign finds and shrinks a real
    /// violation; with the hook off (always, in real use) the branch is
    /// a single predictable-false comparison.
    #[doc(hidden)]
    pub planted_quarantine_bug: bool,
    /// Which contention model serves `transfer()` (see [`NetworkModel`]).
    /// Defaults to [`NetworkModel::Legacy`], which is bit-identical to
    /// the engine before the network plane existed; `Fair` routes every
    /// non-local transfer through the flow-level fair-share plane and
    /// unlocks the `network` section of the report.
    pub network_model: NetworkModel,
}

impl SimConfig {
    /// A short 60-second run for unit and integration tests.
    pub fn quick() -> Self {
        Self {
            sim_time_ms: 60_000.0,
            ..Self::default()
        }
    }

    /// Returns the configuration with a different seed (for replication
    /// runs).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the configuration with a different duration.
    pub fn with_sim_time_ms(mut self, sim_time_ms: f64) -> Self {
        assert!(
            sim_time_ms.is_finite() && sim_time_ms > 0.0,
            "sim time must be positive, got {sim_time_ms}"
        );
        self.sim_time_ms = sim_time_ms;
        self
    }

    /// Returns the configuration with a per-root replay budget (0 keeps
    /// replay disabled).
    pub fn with_max_replays(mut self, max_replays: u32) -> Self {
        self.max_replays = max_replays;
        self
    }

    /// Fuzzer self-test hook (see
    /// [`SimConfig::planted_quarantine_bug`]).
    #[doc(hidden)]
    pub fn with_planted_quarantine_bug(mut self, planted: bool) -> Self {
        self.planted_quarantine_bug = planted;
        self
    }

    /// Returns the configuration with a different network contention
    /// model ([`NetworkModel::Legacy`] keeps the pre-plane behaviour).
    pub fn with_network_model(mut self, network_model: NetworkModel) -> Self {
        self.network_model = network_model;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            sim_time_ms: 300_000.0,
            batch_tuples: 10,
            max_pending: 100,
            tuple_timeout_ms: 30_000.0,
            window_ms: 10_000.0,
            seed: 42,
            oom_thrash_factor: 0.05,
            max_replays: 0,
            planted_quarantine_bug: false,
            network_model: NetworkModel::Legacy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_storm_conventions() {
        let c = SimConfig::default();
        assert_eq!(c.tuple_timeout_ms, 30_000.0, "Storm's 30 s message timeout");
        assert_eq!(c.window_ms, 10_000.0, "paper reports tuples/10 s");
        assert!(c.max_pending > 0);
    }

    #[test]
    fn quick_is_shorter() {
        assert!(SimConfig::quick().sim_time_ms < SimConfig::default().sim_time_ms);
    }

    #[test]
    fn with_helpers() {
        let c = SimConfig::default()
            .with_seed(7)
            .with_sim_time_ms(1000.0)
            .with_max_replays(3);
        assert_eq!(c.seed, 7);
        assert_eq!(c.sim_time_ms, 1000.0);
        assert_eq!(c.max_replays, 3);
    }

    #[test]
    fn replay_is_off_by_default() {
        assert_eq!(SimConfig::default().max_replays, 0);
        assert_eq!(SimConfig::quick().max_replays, 0);
    }

    #[test]
    fn planted_bug_is_off_by_default() {
        assert!(!SimConfig::default().planted_quarantine_bug);
        assert!(!SimConfig::quick().planted_quarantine_bug);
    }

    #[test]
    #[should_panic(expected = "sim time")]
    fn non_positive_time_rejected() {
        SimConfig::default().with_sim_time_ms(0.0);
    }

    #[test]
    fn network_model_defaults_to_legacy() {
        assert_eq!(SimConfig::default().network_model, NetworkModel::Legacy);
        assert_eq!(SimConfig::quick().network_model, NetworkModel::Legacy);
        let c = SimConfig::default().with_network_model(NetworkModel::Fair);
        assert_eq!(c.network_model, NetworkModel::Fair);
    }

    #[test]
    fn network_model_parses_with_typed_errors() {
        assert_eq!(NetworkModel::parse("fair"), Ok(NetworkModel::Fair));
        assert_eq!(NetworkModel::parse("legacy"), Ok(NetworkModel::Legacy));
        let err = NetworkModel::parse("bogus").unwrap_err();
        assert!(err.contains("bogus"), "{err}");
        assert!(err.contains("fair"), "{err}");
    }
}
