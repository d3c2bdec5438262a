//! The invariant-directed chaos fuzzer.
//!
//! [`run_fuzz_campaign`] samples structured [`FaultPlan`]s from the fault
//! grammar — crash/recover pairs, lasting crashes, flap storms, correlated
//! crash bursts, rack partitions, link degradations, background-traffic
//! burst trains, Nimbus outages and control-channel loss windows — runs
//! each plan
//! through the closed loop of [`crate::chaos::run_fault_plan_with`], and
//! checks an **oracle set** per run (see [`OracleKind`]):
//!
//! * the replay-plane **drain invariant** and its sibling accounting
//!   checks, which every run evaluates in every build profile and
//!   returns as [`crate::InvariantViolation`]s;
//! * **zero loss** for plans that are survivable *by construction* — when
//!   `(max_replays + 1) * tuple_timeout_ms` exceeds the horizon no root
//!   can exhaust its budget, so every settled root must have completed;
//! * **detection liveness** — a node silent long past the heartbeat miss
//!   window (its own crash or its rack's partition) must be declared dead
//!   by the control plane — with a Nimbus-free span requirement when the
//!   plan crashes the control plane itself, and skipped entirely for a
//!   journal-less (structurally blind) failover;
//! * the two **reconciliation oracles** for plans with control-plane
//!   faults — the quiesced post-failover placement must cover as many
//!   tasks as a from-scratch reschedule on the survivors, and no task
//!   may end up double-placed or orphaned (see
//!   [`crate::chaos::ReconcileAudit`]);
//! * **placement agreement** — once the control plane quiesced, every
//!   task its final plan places runs on that node in the simulation;
//! * **determinism** — an identical re-run must reproduce the report and
//!   the control-plane event log bit for bit.
//!
//! A violating plan is then **shrunk** delta-debugging style
//! ([`shrink_fault_plan`]): drop event chunks, then single events, then
//! tighten partition/degradation windows — accepting a candidate only if
//! it still trips the *same* oracle. Because flap storms and crash bursts
//! pre-expand into crash/recover events, "merge the flaps" falls out of
//! plain event dropping. The minimal reproducer serializes to the
//! line-oriented corpus format ([`FuzzReproducer::to_text`]) that
//! `tests/fuzz_corpus/` replays forever after.
//!
//! Everything is deterministic: iteration `k` of a campaign draws from
//! `StdRng` seeded by a pure function of `(seed, k)`, plans are generated
//! on a 500 ms time grid, the worker pool (the one [`crate::sweep`] runs
//! its jobs on) assigns iterations to slots by index, and shrinking is a
//! serial post-pass — so the same seed always yields byte-identical
//! campaign logs, whatever the worker count.

use crate::chaos::{run_closed_loop, run_fault_plan_with, ClosedLoopRun};
use crate::config::SimConfig;
use crate::faults::{FaultEvent, FaultPlan};
use crate::sweep::run_indexed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rstorm_cluster::Cluster;
use rstorm_core::{RecoveryConfig, RecoveryEvent, Scheduler};
use rstorm_topology::Topology;
use std::fmt;
use std::sync::Arc;

/// The time grid plans are generated on: every sampled instant and
/// duration is a multiple of this, which keeps shrunk windows readable
/// and gives window-tightening a natural floor.
pub const QUANTUM_MS: f64 = 500.0;

/// Upper bound on oracle evaluations one shrink may spend. Each
/// evaluation is up to two simulation runs, so this caps a pathological
/// shrink at a bounded (still generous) budget; real reproducers converge
/// in far fewer.
const SHRINK_CHECK_BUDGET: usize = 512;

/// Which oracle a fault plan tripped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleKind {
    /// The checked engine reported an accounting violation; the payload
    /// is [`crate::InvariantViolation::kind`] (e.g. `drain_imbalance`),
    /// which the shrinker preserves.
    Invariant(String),
    /// A survivable-by-construction plan still lost roots
    /// (`zero_loss_ratio != 1.0`).
    ZeroLoss,
    /// A node was silent far past the heartbeat miss window yet the
    /// control plane never declared it dead.
    DetectLiveness,
    /// An identical re-run produced different bits.
    Determinism,
    /// After a control-plane failover the quiesced placement covered
    /// fewer (or more) tasks than a from-scratch reschedule of the same
    /// topology on the surviving cluster — reconciliation left capacity
    /// on the table (see
    /// [`crate::chaos::ReconcileAudit::converged`]).
    ReconcileConvergence,
    /// After a control-plane failover some task ended up double-placed
    /// or orphaned (see
    /// [`crate::chaos::ReconcileAudit::double_placed_or_orphaned`]).
    ReconcilePlacement,
    /// Once the control plane quiesced, some task the final plan places
    /// ran on a different node in the simulation: a control decision
    /// never reached the workers.
    PlacementAgreement,
}

impl OracleKind {
    /// Stable machine-readable label, used in campaign logs and corpus
    /// headers (`invariant:<kind>`, `zero_loss`, `detect_liveness`,
    /// `determinism`, `reconcile_convergence`,
    /// `reconcile_placement`, `placement_agreement`).
    pub fn label(&self) -> String {
        match self {
            Self::Invariant(kind) => format!("invariant:{kind}"),
            Self::ZeroLoss => "zero_loss".to_owned(),
            Self::DetectLiveness => "detect_liveness".to_owned(),
            Self::Determinism => "determinism".to_owned(),
            Self::ReconcileConvergence => "reconcile_convergence".to_owned(),
            Self::ReconcilePlacement => "reconcile_placement".to_owned(),
            Self::PlacementAgreement => "placement_agreement".to_owned(),
        }
    }

    /// Parses a [`OracleKind::label`] back, `None` for anything else.
    pub fn parse(label: &str) -> Option<Self> {
        if let Some(kind) = label.strip_prefix("invariant:") {
            if kind.is_empty() {
                return None;
            }
            return Some(Self::Invariant(kind.to_owned()));
        }
        match label {
            "zero_loss" => Some(Self::ZeroLoss),
            "detect_liveness" => Some(Self::DetectLiveness),
            "determinism" => Some(Self::Determinism),
            "reconcile_convergence" => Some(Self::ReconcileConvergence),
            "reconcile_placement" => Some(Self::ReconcilePlacement),
            "placement_agreement" => Some(Self::PlacementAgreement),
            _ => None,
        }
    }
}

impl fmt::Display for OracleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Campaign parameters. `sim` is the configuration every generated plan
/// runs under.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzConfig {
    /// How many plans to generate and check.
    pub iterations: u32,
    /// Campaign seed; iteration `k` derives its own RNG from
    /// `(seed, k)`, so campaigns are reproducible and iterations are
    /// independent of execution order.
    pub seed: u64,
    /// Grammar atoms per generated plan (each atom may expand to several
    /// events — a flap storm is one atom).
    pub max_atoms: u32,
    /// Data-plane simulation parameters for every run.
    pub sim: SimConfig,
    /// Control-plane recovery-loop parameters for every run.
    pub recovery: RecoveryConfig,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            iterations: 32,
            seed: 42,
            max_atoms: 4,
            // Replay on with a generous budget: 9 attempts x 30 s timeout
            // far exceeds the 60 s quick horizon, so quarantine is
            // structurally impossible and the zero-loss oracle applies to
            // every generated plan.
            sim: SimConfig::quick().with_max_replays(8),
            // Journal on: the grammar draws Nimbus outages, and only a
            // journaled successor owes the detection-liveness and
            // reconciliation guarantees the oracles check.
            recovery: RecoveryConfig {
                journal: true,
                ..RecoveryConfig::default()
            },
        }
    }
}

impl FuzzConfig {
    /// True when no root can exhaust its replay budget within the
    /// horizon — each failed attempt costs at least one tuple timeout, so
    /// `(max_replays + 1) * tuple_timeout_ms > sim_time_ms` makes
    /// quarantine structurally impossible and every generated plan
    /// survivable. Only then is the zero-loss oracle universal.
    pub fn survivable_by_construction(&self) -> bool {
        self.sim.max_replays > 0
            && (f64::from(self.sim.max_replays) + 1.0) * self.sim.tuple_timeout_ms
                > self.sim.sim_time_ms
    }
}

/// One campaign iteration's outcome — a line of the campaign log.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzVerdict {
    /// Iteration index within the campaign.
    pub iteration: u32,
    /// Events in the generated plan (after grammar expansion).
    pub plan_events: usize,
    /// The oracle the plan tripped, `None` for a clean run.
    pub oracle: Option<OracleKind>,
}

impl fmt::Display for FuzzVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.oracle {
            None => write!(
                f,
                "iter {:04} events {} ok",
                self.iteration, self.plan_events
            ),
            Some(oracle) => write!(
                f,
                "iter {:04} events {} VIOLATION {oracle}",
                self.iteration, self.plan_events
            ),
        }
    }
}

/// A violating plan and its shrunk minimal form — one corpus entry.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzReproducer {
    /// The oracle both plans trip.
    pub oracle: OracleKind,
    /// The campaign seed the plan was drawn under.
    pub seed: u64,
    /// The iteration that generated it.
    pub iteration: u32,
    /// The plan as generated. Corpus files store only the shrunk plan;
    /// a reproducer parsed back from text carries the shrunk plan here
    /// too.
    pub original: FaultPlan,
    /// The shrunk minimal reproducer — still trips `oracle`.
    pub plan: FaultPlan,
}

impl FuzzReproducer {
    /// Serializes the reproducer in the corpus format: `# oracle:` /
    /// `# seed:` / `# iteration:` headers followed by the shrunk plan in
    /// [`FaultPlan::to_text`] form. Byte-deterministic.
    pub fn to_text(&self) -> String {
        format!(
            "# oracle: {}\n# seed: {}\n# iteration: {}\n{}",
            self.oracle.label(),
            self.seed,
            self.iteration,
            self.plan.to_text()
        )
    }

    /// Parses the [`FuzzReproducer::to_text`] format. Header lines are
    /// optional except `# oracle:`; unknown `#` comments are ignored
    /// (they are comments to [`FaultPlan::from_text`] too).
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed header or plan line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut oracle = None;
        let mut seed = 0u64;
        let mut iteration = 0u32;
        for line in text.lines() {
            let trimmed = line.trim();
            if let Some(raw) = trimmed.strip_prefix("# oracle:") {
                oracle = Some(
                    OracleKind::parse(raw.trim())
                        .ok_or_else(|| format!("unknown oracle label `{}`", raw.trim()))?,
                );
            } else if let Some(raw) = trimmed.strip_prefix("# seed:") {
                seed = raw
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad seed `{}`", raw.trim()))?;
            } else if let Some(raw) = trimmed.strip_prefix("# iteration:") {
                iteration = raw
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad iteration `{}`", raw.trim()))?;
            }
        }
        let oracle = oracle.ok_or_else(|| "missing `# oracle:` header".to_owned())?;
        let plan = FaultPlan::from_text(text).map_err(|e| e.to_string())?;
        if plan.is_empty() {
            return Err("reproducer has no fault events".to_owned());
        }
        Ok(Self {
            oracle,
            seed,
            iteration,
            original: plan.clone(),
            plan,
        })
    }
}

/// Everything a campaign produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzOutcome {
    /// The campaign seed.
    pub seed: u64,
    /// Iterations run.
    pub iterations: u32,
    /// One verdict per iteration, in iteration order.
    pub verdicts: Vec<FuzzVerdict>,
    /// One shrunk reproducer per violating iteration, in iteration
    /// order.
    pub reproducers: Vec<FuzzReproducer>,
}

impl FuzzOutcome {
    /// True when no iteration tripped any oracle.
    pub fn is_clean(&self) -> bool {
        self.reproducers.is_empty()
    }

    /// The byte-deterministic campaign log: a header, one line per
    /// iteration, one `shrunk` line per reproducer and a trailing count.
    /// The fixed-seed determinism test pins this string.
    pub fn campaign_log(&self) -> String {
        let mut out = format!(
            "fuzz campaign seed={} iterations={}\n",
            self.seed, self.iterations
        );
        for v in &self.verdicts {
            out.push_str(&v.to_string());
            out.push('\n');
        }
        for r in &self.reproducers {
            out.push_str(&format!(
                "shrunk iter {:04} {} {} -> {} events\n",
                r.iteration,
                r.oracle.label(),
                r.original.events().len(),
                r.plan.events().len()
            ));
        }
        out.push_str(&format!("violations={}\n", self.reproducers.len()));
        out
    }
}

// ---- oracle evaluation --------------------------------------------------

/// Runs `plan` with the recovery loop inside the engine and returns the
/// first oracle it trips, `None` for a clean (or inapplicable — e.g.
/// unplaceable) run. Evaluation order: accounting invariants, zero loss
/// (only when [`FuzzConfig::survivable_by_construction`]), detection
/// liveness, reconciliation, placement agreement, determinism. The
/// first run short-circuits invariant violations, so shrinking an
/// invariant reproducer costs one simulation per candidate.
pub fn check_fault_plan(
    cluster: &Arc<Cluster>,
    topology: &Topology,
    scheduler: &(dyn Scheduler + '_),
    cfg: &FuzzConfig,
    plan: &FaultPlan,
) -> Option<OracleKind> {
    let run = run_closed_loop(cluster, topology, plan, &cfg.sim, &cfg.recovery, scheduler);
    let ClosedLoopRun {
        outcome: out,
        placement_agrees,
    } = match run {
        Ok(run) => run,
        // A plan the harness rejects (unknown name, unplaceable
        // topology) is not a violation — the campaign records it clean.
        Err(_) => return None,
    };
    if let Some(v) = out.violations.first() {
        return Some(OracleKind::Invariant(v.kind().to_owned()));
    }
    if cfg.survivable_by_construction() && out.report.zero_loss_ratio() != 1.0 {
        return Some(OracleKind::ZeroLoss);
    }
    if has_undetected_outage(
        cluster,
        plan,
        &cfg.recovery,
        cfg.sim.sim_time_ms,
        &out.events,
    ) {
        return Some(OracleKind::DetectLiveness);
    }
    if let Some(audit) = &out.reconciliation {
        if !audit.converged {
            return Some(OracleKind::ReconcileConvergence);
        }
        if audit.double_placed_or_orphaned {
            return Some(OracleKind::ReconcilePlacement);
        }
    }
    if !placement_agrees {
        return Some(OracleKind::PlacementAgreement);
    }
    match run_fault_plan_with(cluster, topology, plan, &cfg.sim, &cfg.recovery, scheduler) {
        Ok(again) => {
            if again.report.to_json() != out.report.to_json() || again.events != out.events {
                return Some(OracleKind::Determinism);
            }
        }
        Err(_) => return Some(OracleKind::Determinism),
    }
    None
}

/// Detection-liveness predicate: true when some node has a single silence
/// window so long that the control plane must have declared it dead, yet
/// no [`RecoveryEvent::NodeDeclaredDead`] names it. A window qualifies
/// only if it starts after `t = 0` (so the manager has seen the node
/// heartbeat), contains a **Nimbus-free** span of at least
/// [`RecoveryConfig::detection_slack_ms`] — the miss window plus
/// tick-alignment slack, long enough for either the incumbent or a
/// freshly reassumed successor (whose roster heartbeats are seeded on
/// replay) to notice the silence — and that span ends before the
/// horizon. When the plan crashes Nimbus and journaling is **off**, the
/// check is skipped entirely: a cold successor is structurally blind to
/// nodes that fell silent before the failover, which is exactly the
/// gap the journal exists to close. Deliberately conservative: merged
/// adjacent windows that jointly exceed the slack are not flagged.
fn has_undetected_outage(
    cluster: &Cluster,
    plan: &FaultPlan,
    recovery: &RecoveryConfig,
    horizon_ms: f64,
    events: &[RecoveryEvent],
) -> bool {
    let nimbus = plan.nimbus_down_windows();
    if !nimbus.is_empty() && !recovery.journal {
        return false;
    }
    let slack = recovery.detection_slack_ms();
    let node_windows = plan.node_down_windows();
    let rack_windows = plan.rack_partition_windows();
    for node in cluster.nodes() {
        let name = node.id().as_str();
        let mut windows: Vec<(f64, f64)> = node_windows.get(name).cloned().unwrap_or_default();
        if let Some(rw) = rack_windows.get(node.rack().as_str()) {
            windows.extend(rw.iter().copied());
        }
        let must_detect = windows.iter().any(|&(at, until)| {
            at > 0.0
                && nimbus_free_span(&nimbus, at, until, slack)
                    .is_some_and(|s| s + slack <= horizon_ms)
        });
        if must_detect
            && !events
                .iter()
                .any(|e| matches!(e, RecoveryEvent::NodeDeclaredDead { node, .. } if node == name))
        {
            return true;
        }
    }
    false
}

/// Earliest start `s` of a span `[s, s + slack]` that fits inside the
/// silence window `[at, until]` and overlaps no Nimbus outage. Candidate
/// starts are the window start and each outage's end — the two instants
/// a detection clock (re)starts. `None` when every candidate span runs
/// into an outage or past the window.
fn nimbus_free_span(nimbus: &[(f64, f64)], at: f64, until: f64, slack: f64) -> Option<f64> {
    let mut candidates = vec![at];
    candidates.extend(nimbus.iter().map(|&(_, end)| end).filter(|&e| e > at));
    candidates.sort_by(|a, b| a.partial_cmp(b).expect("fault times are finite"));
    candidates
        .into_iter()
        .filter(|&s| s + slack <= until)
        .find(|&s| !nimbus.iter().any(|&(ns, ne)| ns < s + slack && ne > s))
}

// ---- plan generation ----------------------------------------------------

/// Samples one structured plan from the fault grammar: 1..=`max_atoms`
/// atoms, each a crash/recover pair, a lasting crash, a flap storm, a
/// correlated crash burst, a rack partition, a link degradation, a
/// background-traffic burst train (a sequence of short degradation
/// windows, the shape a periodic bulk transfer leaves on the fair
/// network plane), a Nimbus outage or a control-channel loss window,
/// with every instant and duration on the [`QUANTUM_MS`] grid inside
/// the first ~80% of the horizon. Pure in `(rng state, cluster, cfg)`.
pub(crate) fn generate_plan(rng: &mut StdRng, cluster: &Cluster, cfg: &FuzzConfig) -> FaultPlan {
    let nodes: Vec<&str> = cluster.nodes().iter().map(|n| n.id().as_str()).collect();
    let racks: Vec<&str> = cluster.racks().iter().map(|r| r.as_str()).collect();
    let horizon = cfg.sim.sim_time_ms;
    let max_slot = ((horizon * 0.8) / QUANTUM_MS).floor().max(2.0) as u64;
    let grid = |rng: &mut StdRng| QUANTUM_MS * rng.gen_range(1..=max_slot) as f64;

    let atoms = rng.gen_range(1..=cfg.max_atoms.max(1));
    let mut plan = FaultPlan::new();
    for _ in 0..atoms {
        let at = grid(rng);
        match rng.gen_range(0u8..9) {
            0 => {
                let node = nodes[rng.gen_range(0..nodes.len())];
                let outage = QUANTUM_MS * rng.gen_range(1u64..=20) as f64;
                plan = plan.crash_node(at, node).recover_node(at + outage, node);
            }
            1 => {
                let node = nodes[rng.gen_range(0..nodes.len())];
                plan = plan.crash_node(at, node);
            }
            2 => {
                let node = nodes[rng.gen_range(0..nodes.len())];
                let flaps = rng.gen_range(2u32..=4);
                let down = QUANTUM_MS * rng.gen_range(1u64..=6) as f64;
                let up = QUANTUM_MS * rng.gen_range(1u64..=6) as f64;
                plan = plan.flap_storm(at, node, flaps, down, up);
            }
            3 => {
                let k = rng.gen_range(2..=3.min(nodes.len())).max(1);
                let start = rng.gen_range(0..nodes.len());
                let burst: Vec<&str> = (0..k).map(|j| nodes[(start + j) % nodes.len()]).collect();
                let outage = QUANTUM_MS * rng.gen_range(1u64..=20) as f64;
                plan = plan.crash_burst(at, &burst, outage);
            }
            4 => {
                let rack = racks[rng.gen_range(0..racks.len())];
                let until = at + QUANTUM_MS * rng.gen_range(1u64..=20) as f64;
                plan = plan.partition_rack(at, until, rack);
            }
            5 => {
                let until = at + QUANTUM_MS * rng.gen_range(1u64..=10) as f64;
                let extra = QUANTUM_MS * rng.gen_range(1u64..=4) as f64;
                plan = plan.degrade_links(at, until, extra);
            }
            6 => {
                // Background-traffic burst train: 2..=4 short degradation
                // windows with gaps, the on/off pattern a periodic bulk
                // transfer imposes (under the fair network plane each
                // window squeezes capacity rather than padding latency).
                let bursts = rng.gen_range(2u64..=4);
                let len = QUANTUM_MS * rng.gen_range(1u64..=4) as f64;
                let gap = QUANTUM_MS * rng.gen_range(1u64..=2) as f64;
                let extra = QUANTUM_MS * rng.gen_range(1u64..=4) as f64;
                let mut t = at;
                for _ in 0..bursts {
                    plan = plan.degrade_links(t, t + len, extra);
                    t += len + gap;
                }
            }
            7 => {
                // Nimbus outage: the control plane goes dark, then a
                // successor reassumes and reconciles.
                let down = QUANTUM_MS * rng.gen_range(2u64..=20) as f64;
                plan = plan.nimbus_crash(at, down);
            }
            _ => {
                // Control-channel loss: Nimbus keeps ticking but every
                // node looks silent for the window.
                let until = at + QUANTUM_MS * rng.gen_range(2u64..=12) as f64;
                plan = plan.lose_control_channel(at, until);
            }
        }
    }
    plan
}

/// The RNG seed of campaign iteration `k` — a pure splitmix-style mix of
/// the campaign seed, so iterations are decorrelated but reproducible.
fn iteration_seed(seed: u64, k: u32) -> u64 {
    seed ^ (u64::from(k) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

// ---- shrinking ----------------------------------------------------------

/// Shrinks a violating plan to a (locally) minimal reproducer tripping
/// the **same** oracle: delta-debugging passes drop event chunks, then
/// single events, then tighten partition/degradation windows toward one
/// [`QUANTUM_MS`]. Deterministic; bounded by an internal check budget.
///
/// # Panics
///
/// Panics if `plan` does not trip `oracle` in the first place.
pub fn shrink_fault_plan(
    cluster: &Arc<Cluster>,
    topology: &Topology,
    scheduler: &(dyn Scheduler + '_),
    cfg: &FuzzConfig,
    plan: &FaultPlan,
    oracle: &OracleKind,
) -> FaultPlan {
    let mut budget = SHRINK_CHECK_BUDGET;
    let mut still_violates = |events: &[FaultEvent]| -> bool {
        if budget == 0 {
            return false;
        }
        budget -= 1;
        let candidate = FaultPlan::from_event_vec(events.to_vec());
        check_fault_plan(cluster, topology, scheduler, cfg, &candidate).as_ref() == Some(oracle)
    };
    assert!(
        still_violates(plan.events()),
        "shrink_fault_plan called with a plan that does not trip {oracle}"
    );

    let mut events = plan.events().to_vec();

    // Pass 1: ddmin-style chunk removal — halves, quarters, ... down to
    // single events, restarting from coarse chunks after any success.
    let mut n = 2usize;
    while events.len() >= 2 {
        let chunk = events.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0;
        while start < events.len() {
            let end = (start + chunk).min(events.len());
            let mut candidate = Vec::with_capacity(events.len() - (end - start));
            candidate.extend_from_slice(&events[..start]);
            candidate.extend_from_slice(&events[end..]);
            if !candidate.is_empty() && still_violates(&candidate) {
                events = candidate;
                n = 2;
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if n >= events.len() {
                break;
            }
            n = (n * 2).min(events.len());
        }
    }

    // Pass 2: tighten windowed events — halve each window toward one
    // quantum, to a fixpoint.
    loop {
        let mut improved = false;
        for i in 0..events.len() {
            let tightened = match &events[i] {
                FaultEvent::RackPartition {
                    at_ms,
                    until_ms,
                    rack,
                } => halve_window(*at_ms, *until_ms).map(|until| FaultEvent::RackPartition {
                    at_ms: *at_ms,
                    until_ms: until,
                    rack: rack.clone(),
                }),
                FaultEvent::LinkDegrade {
                    at_ms,
                    until_ms,
                    extra_latency_ms,
                } => halve_window(*at_ms, *until_ms).map(|until| FaultEvent::LinkDegrade {
                    at_ms: *at_ms,
                    until_ms: until,
                    extra_latency_ms: *extra_latency_ms,
                }),
                FaultEvent::NimbusCrash { at_ms, down_ms } => {
                    halve_window(*at_ms, *at_ms + *down_ms).map(|until| FaultEvent::NimbusCrash {
                        at_ms: *at_ms,
                        down_ms: until - *at_ms,
                    })
                }
                FaultEvent::ControlLoss { at_ms, until_ms } => {
                    halve_window(*at_ms, *until_ms).map(|until| FaultEvent::ControlLoss {
                        at_ms: *at_ms,
                        until_ms: until,
                    })
                }
                _ => None,
            };
            if let Some(ev) = tightened {
                let mut candidate = events.clone();
                candidate[i] = ev;
                if still_violates(&candidate) {
                    events = candidate;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }

    FaultPlan::from_event_vec(events)
}

/// Half the window, snapped down to the [`QUANTUM_MS`] grid, `None` when
/// it is already at the one-quantum floor.
fn halve_window(at_ms: f64, until_ms: f64) -> Option<f64> {
    let len = until_ms - at_ms;
    if len <= QUANTUM_MS {
        return None;
    }
    let half = ((len / 2.0) / QUANTUM_MS).floor().max(1.0) * QUANTUM_MS;
    if half >= len {
        return None;
    }
    Some(at_ms + half)
}

// ---- the campaign -------------------------------------------------------

/// Runs a fuzz campaign: generates `cfg.iterations` plans, checks each
/// against the oracle set on a pool of `workers` threads (the
/// [`crate::sweep`] no-stealing pool — iteration `k` always lands in
/// slot `k`, so the outcome is byte-identical for every worker count),
/// then serially shrinks every violating plan to a minimal reproducer.
///
/// # Panics
///
/// Panics if `cfg.iterations == 0`.
pub fn run_fuzz_campaign(
    cluster: &Arc<Cluster>,
    topology: &Topology,
    scheduler: &(dyn Scheduler + Sync),
    cfg: &FuzzConfig,
    workers: usize,
) -> FuzzOutcome {
    assert!(cfg.iterations > 0, "a fuzz campaign needs iterations");
    let total = cfg.iterations as usize;
    let workers = workers.clamp(1, total);

    let results = run_indexed(total, workers, |k| {
        let mut rng = StdRng::seed_from_u64(iteration_seed(cfg.seed, k as u32));
        let plan = generate_plan(&mut rng, cluster, cfg);
        let oracle = check_fault_plan(cluster, topology, scheduler, cfg, &plan);
        (plan, oracle)
    });

    let mut verdicts = Vec::with_capacity(total);
    let mut reproducers = Vec::new();
    for (k, (plan, oracle)) in results.into_iter().enumerate() {
        verdicts.push(FuzzVerdict {
            iteration: k as u32,
            plan_events: plan.events().len(),
            oracle: oracle.clone(),
        });
        if let Some(oracle) = oracle {
            let shrunk = shrink_fault_plan(cluster, topology, scheduler, cfg, &plan, &oracle);
            reproducers.push(FuzzReproducer {
                oracle,
                seed: cfg.seed,
                iteration: k as u32,
                original: plan,
                plan: shrunk,
            });
        }
    }

    FuzzOutcome {
        seed: cfg.seed,
        iterations: cfg.iterations,
        verdicts,
        reproducers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstorm_cluster::{ClusterBuilder, ResourceCapacity};
    use rstorm_core::RStormScheduler;
    use rstorm_topology::{ExecutionProfile, TopologyBuilder};

    fn cluster() -> Arc<Cluster> {
        Arc::new(
            ClusterBuilder::new()
                .homogeneous_racks(2, 2, ResourceCapacity::emulab_node(), 4)
                .build()
                .unwrap(),
        )
    }

    /// A topology whose two components cannot colocate (1.4 GB each on
    /// 2 GB nodes), so the sink runs on a different node than the spout
    /// and killing either disrupts the tuple path.
    fn split_topology() -> Topology {
        let mut b = TopologyBuilder::new("fuzz-t");
        b.set_spout("src", 1)
            .set_profile(ExecutionProfile::network_bound(100))
            .set_cpu_load(20.0)
            .set_memory_load(1_400.0);
        b.set_bolt("sink", 1)
            .shuffle_grouping("src")
            .set_profile(ExecutionProfile::network_bound(100).into_sink())
            .set_cpu_load(20.0)
            .set_memory_load(1_400.0);
        b.build().unwrap()
    }

    /// A short clean-campaign configuration: 30 s horizon, replay budget
    /// far past exhaustion, so every oracle applies.
    fn clean_cfg(iterations: u32) -> FuzzConfig {
        FuzzConfig {
            iterations,
            seed: 42,
            max_atoms: 3,
            sim: SimConfig::quick()
                .with_sim_time_ms(30_000.0)
                .with_max_replays(8),
            recovery: RecoveryConfig {
                journal: true,
                ..RecoveryConfig::default()
            },
        }
    }

    /// The planted-bug configuration: a tight replay budget and short
    /// timeout make quarantine reachable within the horizon, and the
    /// planted hook breaks the drain invariant on the first quarantine.
    fn planted_cfg(iterations: u32) -> FuzzConfig {
        let mut sim = SimConfig::quick()
            .with_sim_time_ms(30_000.0)
            .with_max_replays(1)
            .with_planted_quarantine_bug(true);
        sim.tuple_timeout_ms = 3_000.0;
        FuzzConfig {
            iterations,
            seed: 42,
            max_atoms: 3,
            sim,
            recovery: RecoveryConfig {
                journal: true,
                ..RecoveryConfig::default()
            },
        }
    }

    #[test]
    fn oracle_labels_round_trip() {
        let kinds = [
            OracleKind::Invariant("drain_imbalance".into()),
            OracleKind::ZeroLoss,
            OracleKind::DetectLiveness,
            OracleKind::Determinism,
            OracleKind::ReconcileConvergence,
            OracleKind::ReconcilePlacement,
            OracleKind::PlacementAgreement,
        ];
        for k in kinds {
            assert_eq!(OracleKind::parse(&k.label()), Some(k.clone()), "{k}");
        }
        assert_eq!(OracleKind::parse("nonsense"), None);
        assert_eq!(OracleKind::parse("invariant:"), None);
    }

    #[test]
    fn generated_plans_are_deterministic_and_on_grid() {
        let cluster = cluster();
        let cfg = clean_cfg(4);
        let mut a = StdRng::seed_from_u64(iteration_seed(cfg.seed, 0));
        let mut b = StdRng::seed_from_u64(iteration_seed(cfg.seed, 0));
        let p1 = generate_plan(&mut a, &cluster, &cfg);
        let p2 = generate_plan(&mut b, &cluster, &cfg);
        assert_eq!(p1, p2, "same (seed, k) => same plan");
        assert!(!p1.is_empty());
        for ev in p1.events() {
            let at = match ev {
                FaultEvent::NodeCrash { at_ms, .. }
                | FaultEvent::NodeRecover { at_ms, .. }
                | FaultEvent::LinkDegrade { at_ms, .. }
                | FaultEvent::RackPartition { at_ms, .. }
                | FaultEvent::NimbusCrash { at_ms, .. }
                | FaultEvent::ControlLoss { at_ms, .. } => *at_ms,
            };
            assert_eq!(at % QUANTUM_MS, 0.0, "{ev:?} off the time grid");
        }
        let mut c = StdRng::seed_from_u64(iteration_seed(cfg.seed, 1));
        assert_ne!(
            generate_plan(&mut c, &cluster, &cfg),
            p1,
            "different iterations draw different plans"
        );
    }

    #[test]
    fn grammar_covers_background_traffic_burst_trains() {
        let cluster = cluster();
        let cfg = clean_cfg(1);
        // Only the burst-train atom can put more degradation windows in a
        // plan than it has atoms, so this signature pins its presence.
        let trains = (0..64).any(|k| {
            let mut rng = StdRng::seed_from_u64(iteration_seed(cfg.seed, k));
            let plan = generate_plan(&mut rng, &cluster, &cfg);
            let degrades = plan
                .events()
                .iter()
                .filter(|e| matches!(e, FaultEvent::LinkDegrade { .. }))
                .count();
            degrades > cfg.max_atoms as usize
        });
        assert!(trains, "64 draws never produced a burst train");
    }

    #[test]
    fn clean_engine_yields_clean_deterministic_campaign() {
        let cluster = cluster();
        let t = split_topology();
        let scheduler = RStormScheduler::new();
        let cfg = clean_cfg(6);
        let a = run_fuzz_campaign(&cluster, &t, &scheduler, &cfg, 2);
        assert!(
            a.is_clean(),
            "healthy engine must trip no oracle:\n{}",
            a.campaign_log()
        );
        assert_eq!(a.verdicts.len(), 6);
        let b = run_fuzz_campaign(&cluster, &t, &scheduler, &cfg, 4);
        assert_eq!(a, b, "same seed => same campaign, any worker count");
        assert_eq!(a.campaign_log(), b.campaign_log());
    }

    #[test]
    fn planted_bug_is_found_and_shrunk_small() {
        let cluster = cluster();
        let t = split_topology();
        let scheduler = RStormScheduler::new();
        let cfg = planted_cfg(12);
        let out = run_fuzz_campaign(&cluster, &t, &scheduler, &cfg, 2);
        let repro = out
            .reproducers
            .iter()
            .find(|r| r.oracle == OracleKind::Invariant("drain_imbalance".into()))
            .unwrap_or_else(|| {
                panic!(
                    "the planted quarantine bug must be found:\n{}",
                    out.campaign_log()
                )
            });
        assert!(
            repro.plan.events().len() <= 6,
            "shrunk to {} events, want <= 6:\n{}",
            repro.plan.events().len(),
            repro.plan.to_text()
        );
        assert!(repro.plan.events().len() <= repro.original.events().len());
        // Both the parent and the shrunk plan trip the same oracle.
        assert_eq!(
            check_fault_plan(&cluster, &t, &scheduler, &cfg, &repro.original).as_ref(),
            Some(&repro.oracle)
        );
        assert_eq!(
            check_fault_plan(&cluster, &t, &scheduler, &cfg, &repro.plan).as_ref(),
            Some(&repro.oracle)
        );
        // With the hook off the same minimal plan is clean again.
        let mut honest = cfg.clone();
        honest.sim = honest.sim.with_planted_quarantine_bug(false);
        assert_eq!(
            check_fault_plan(&cluster, &t, &scheduler, &honest, &repro.plan),
            None,
            "the reproducer must implicate the planted bug, not the engine"
        );
    }

    #[test]
    fn reproducer_text_round_trips() {
        let repro = FuzzReproducer {
            oracle: OracleKind::Invariant("drain_imbalance".into()),
            seed: 7,
            iteration: 3,
            original: FaultPlan::new().crash_node(1_000.0, "n0"),
            plan: FaultPlan::new().crash_node(1_000.0, "n0"),
        };
        let text = repro.to_text();
        let parsed = FuzzReproducer::from_text(&text).unwrap();
        assert_eq!(parsed.oracle, repro.oracle);
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.iteration, 3);
        assert_eq!(parsed.plan, repro.plan);
        assert_eq!(parsed.to_text(), text, "serialization is a fixpoint");

        assert!(
            FuzzReproducer::from_text("crash 10 n0\n").is_err(),
            "no oracle header"
        );
        assert!(
            FuzzReproducer::from_text("# oracle: zero_loss\n").is_err(),
            "no events"
        );
        assert!(FuzzReproducer::from_text("# oracle: gibberish\ncrash 10 n0\n").is_err());
    }

    #[test]
    fn window_halving_respects_the_grid() {
        assert_eq!(halve_window(1_000.0, 1_500.0), None, "already minimal");
        assert_eq!(halve_window(1_000.0, 5_000.0), Some(3_000.0));
        assert_eq!(halve_window(0.0, 1_500.0), Some(500.0));
    }

    #[test]
    fn detect_liveness_oracle_flags_missing_declarations() {
        let cluster = cluster();
        let victim = cluster.nodes()[0].id().as_str().to_owned();
        let recovery = RecoveryConfig::default();
        // 20 s of silence >> the (3 + 2) x 1 s slack; an empty event log
        // must be flagged, a log declaring the node dead must not.
        let plan = FaultPlan::new()
            .crash_node(5_000.0, &victim)
            .recover_node(25_000.0, &victim);
        assert!(has_undetected_outage(
            &cluster,
            &plan,
            &recovery,
            30_000.0,
            &[]
        ));
        let declared = vec![RecoveryEvent::NodeDeclaredDead {
            node: victim.clone(),
            at_ms: 9_000.0,
            time_to_detect_ms: 4_000.0,
            displaced: vec![],
        }];
        assert!(!has_undetected_outage(
            &cluster, &plan, &recovery, 30_000.0, &declared
        ));
        // A sub-slack flap must not demand detection.
        let flap = FaultPlan::new()
            .crash_node(5_000.0, &victim)
            .recover_node(7_000.0, &victim);
        assert!(!has_undetected_outage(
            &cluster,
            &flap,
            &recovery,
            30_000.0,
            &[]
        ));
    }

    #[test]
    fn grammar_covers_control_plane_outages() {
        let cluster = cluster();
        let cfg = clean_cfg(1);
        let mut nimbus = false;
        let mut loss = false;
        for k in 0..64 {
            let mut rng = StdRng::seed_from_u64(iteration_seed(cfg.seed, k));
            let plan = generate_plan(&mut rng, &cluster, &cfg);
            nimbus |= !plan.nimbus_down_windows().is_empty();
            loss |= !plan.control_loss_windows().is_empty();
            if nimbus && loss {
                return;
            }
        }
        panic!("64 draws never produced both control-plane atoms (nimbus={nimbus}, loss={loss})");
    }

    #[test]
    fn detect_liveness_accounts_for_nimbus_outages() {
        let cluster = cluster();
        let victim = cluster.nodes()[0].id().as_str().to_owned();
        let journaled = RecoveryConfig {
            journal: true,
            ..RecoveryConfig::default()
        };
        // The outage covers the whole silence window: no detector —
        // incumbent or successor — ever gets a full slack span, so the
        // missing declaration is excused.
        let covered = FaultPlan::new()
            .crash_node(5_000.0, &victim)
            .recover_node(12_000.0, &victim)
            .nimbus_crash(4_000.0, 10_000.0);
        assert!(!has_undetected_outage(
            &cluster,
            &covered,
            &journaled,
            30_000.0,
            &[]
        ));
        // The outage ends mid-window with a slack-length remainder: the
        // reassumed successor owes a declaration.
        let split = FaultPlan::new()
            .crash_node(5_000.0, &victim)
            .recover_node(25_000.0, &victim)
            .nimbus_crash(4_000.0, 8_000.0);
        assert!(has_undetected_outage(
            &cluster,
            &split,
            &journaled,
            30_000.0,
            &[]
        ));
        // A cold (journal-less) failover owes nothing: it is blind to
        // nodes that fell silent before it took over.
        let cold = RecoveryConfig::default();
        assert!(!has_undetected_outage(
            &cluster,
            &split,
            &cold,
            30_000.0,
            &[]
        ));
        // Without Nimbus faults the journal flag changes nothing.
        let plain = FaultPlan::new()
            .crash_node(5_000.0, &victim)
            .recover_node(25_000.0, &victim);
        assert!(has_undetected_outage(
            &cluster,
            &plain,
            &cold,
            30_000.0,
            &[]
        ));
    }

    #[test]
    fn control_outage_plans_run_clean_and_carry_an_audit() {
        let cluster = cluster();
        let t = split_topology();
        let scheduler = RStormScheduler::new();
        let cfg = clean_cfg(1);
        // Crash the spout's host during a Nimbus outage: only the
        // journaled successor's seeded roster lets it detect the silence.
        let mut state = rstorm_core::GlobalState::new(&cluster);
        let host = scheduler
            .schedule(&t, &cluster, &mut state)
            .unwrap()
            .iter()
            .next()
            .unwrap()
            .1
            .node
            .as_str()
            .to_owned();
        let plan = FaultPlan::new()
            .crash_node(8_000.0, &host)
            .recover_node(20_000.0, &host)
            .nimbus_crash(6_000.0, 5_000.0);
        assert_eq!(
            check_fault_plan(&cluster, &t, &scheduler, &cfg, &plan),
            None,
            "a journaled failover over a survivable plan must be clean"
        );
        let out =
            run_fault_plan_with(&cluster, &t, &plan, &cfg.sim, &cfg.recovery, &scheduler).unwrap();
        let audit = out.reconciliation.expect("control faults produce an audit");
        assert!(
            audit.time_to_reassume_ms >= 5_000.0,
            "reassumption happens after the outage, got {}",
            audit.time_to_reassume_ms
        );
        assert!(audit.converged);
        assert!(!audit.double_placed_or_orphaned);
        // A fault-free plan carries no audit.
        let plain = FaultPlan::new()
            .crash_node(8_000.0, &host)
            .recover_node(20_000.0, &host);
        let out =
            run_fault_plan_with(&cluster, &t, &plain, &cfg.sim, &cfg.recovery, &scheduler).unwrap();
        assert!(out.reconciliation.is_none());
    }
}
