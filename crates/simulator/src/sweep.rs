//! The Monte-Carlo sweep fleet: seeded scenario grids fanned across a
//! worker-thread pool.
//!
//! Every plane of this workspace (chaos, replay, adaptive) is
//! deterministic and seedable, but a single scenario run is a point
//! estimate, not a distribution. A [`SweepGrid`] crosses *cases ×
//! schedulers × faults × seeds* into an indexed job list;
//! [`run_sweep`] executes the jobs on a fixed-size pool of `std::thread`
//! workers and aggregates the per-run rows into per-group distributions
//! (p50/p90/p99 time-to-detect/recover, zero-loss ratio, net-throughput
//! mean ± stdev, tuples-lost histogram).
//!
//! A fault is plain data: a [`SweepFault`] is a [`FaultPlan::to_text`]
//! template whose `{host}` and `{host_rack}` [`run_fault_plan_with`]
//! fills from the placement it makes, and every job, the healthy one
//! (the empty template) included, runs through it.
//!
//! ## Determinism under parallelism
//!
//! The pool deliberately does **no work stealing**: jobs are expanded in
//! a fixed nesting order (case → scheduler → fault → seed), workers pull
//! the next job index from a shared atomic counter, and every result is
//! written back into its job's slot. Aggregation then walks the slots in
//! index order, so [`SweepSummary::to_json`] is **byte-identical for any
//! worker count** — `--workers 1` and `--workers 8` produce the same
//! payload, which the determinism test pins. Wall-clock and speedup
//! metadata live outside the aggregated payload for exactly this reason.
//!
//! ## `Send` audit
//!
//! Fanning [`Simulation`] runs across threads requires the whole run path
//! to be `Send`. The audit: the simulator crate (and every crate below
//! it) is `#![forbid(unsafe_code)]`; the engine holds no `Rc`, `RefCell`,
//! `Cell` or raw pointers — the slab pool and tuple-tree slabs are plain
//! `Vec`-backed free lists, the RNG is a `[u64; 4]` xoshiro state, and
//! the only shared handles are `Arc<Cluster>` (immutable) and
//! `Arc<StatisticServer>` (a `Mutex`-guarded aggregator, `Send + Sync`).
//! The `assert_send` block below turns that audit into a compile-time
//! guarantee: if a future change smuggles non-`Send` state into
//! [`Simulation`], this module stops compiling.

use crate::chaos::run_fault_plan_with;
use crate::config::{NetworkModel, SimConfig};
use crate::faults::FaultPlan;
use crate::report::SimReport;
use crate::sim::Simulation;
use rstorm_cluster::Cluster;
use rstorm_core::{schedulers, RecoveryConfig};
use rstorm_metrics::Summary;
use rstorm_topology::Topology;
use std::fmt;
use std::fmt::Write as _;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Compile-time proof that the fast engine's run path can cross thread
/// boundaries (see the module docs for the audit this pins).
const fn assert_send<T: Send>() {}
const _: () = {
    assert_send::<Simulation>();
    assert_send::<SimReport>();
    assert_send::<SweepRow>();
};

/// Warm-up windows skipped when averaging steady-state throughput,
/// matching the figure bins' convention.
const WARMUP_WINDOWS: usize = 2;

// ---- seed ranges --------------------------------------------------------

/// A half-open seed range `start..end`, the `--seeds A..B` CLI argument.
/// Construction rejects empty and inverted ranges, so a held value always
/// names at least one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedRange {
    start: u64,
    end: u64,
}

impl SeedRange {
    /// Creates the range `start..end`.
    ///
    /// # Errors
    ///
    /// [`ParseRangeError::EmptyOrInverted`] unless `start < end`.
    pub fn new(start: u64, end: u64) -> Result<Self, ParseRangeError> {
        if start >= end {
            return Err(ParseRangeError::EmptyOrInverted { start, end });
        }
        Ok(Self { start, end })
    }

    /// First seed of the range.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// One past the last seed.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Number of seeds in the range (at least 1 by construction).
    #[allow(clippy::len_without_is_empty)] // empty ranges are unconstructible
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// The seeds in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> {
        self.start..self.end
    }
}

impl fmt::Display for SeedRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

impl FromStr for SeedRange {
    type Err = ParseRangeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (lo, hi) = s
            .split_once("..")
            .ok_or_else(|| ParseRangeError::MissingSeparator(s.to_owned()))?;
        let start: u64 = lo
            .trim()
            .parse()
            .map_err(|_| ParseRangeError::InvalidBound(lo.trim().to_owned()))?;
        let end: u64 = hi
            .trim()
            .parse()
            .map_err(|_| ParseRangeError::InvalidBound(hi.trim().to_owned()))?;
        Self::new(start, end)
    }
}

/// Why a seed-range argument was rejected — a typed error so the CLI can
/// report it without panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseRangeError {
    /// The argument has no `..` separator.
    MissingSeparator(String),
    /// A bound is not a non-negative integer (the offending token).
    InvalidBound(String),
    /// `start >= end`: the range selects no seeds.
    EmptyOrInverted {
        /// The parsed lower bound.
        start: u64,
        /// The parsed upper bound.
        end: u64,
    },
}

impl fmt::Display for ParseRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingSeparator(raw) => {
                write!(f, "`{raw}` is not a range; expected `start..end`")
            }
            Self::InvalidBound(raw) => {
                write!(f, "range bound `{raw}` is not a non-negative integer")
            }
            Self::EmptyOrInverted { start, end } => write!(
                f,
                "range {start}..{end} selects no seeds (need start < end)"
            ),
        }
    }
}

impl std::error::Error for ParseRangeError {}

// ---- the grid -----------------------------------------------------------

/// One named workload of a sweep: a topology on a (shared) cluster.
#[derive(Debug)]
pub struct SweepCase {
    /// Stable case name, the first segment of each group name.
    pub name: String,
    /// The workload topology.
    pub topology: Topology,
    /// The cluster it runs on, shared across all of the case's jobs.
    pub cluster: Arc<Cluster>,
}

/// One fault scenario of the grid: plain data, run by every job the same
/// way (see [`run_sweep`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepFault {
    /// Stable label, the last segment of each group name.
    pub label: String,
    /// The scenario as a [`FaultPlan::to_text`] template: `{host}` stands
    /// for the node of the placement's first task and `{host_rack}` for
    /// that node's rack ([`FaultPlan::fill_placeholders`]). The empty
    /// template is the healthy run.
    pub plan: String,
    /// Run the job on the fair network plane
    /// ([`NetworkModel::Fair`]), where a `degrade` window shrinks link
    /// capacity (see [`crate::network::DEGRADE_REF_MS`]) instead of
    /// padding latency — background traffic competing for the trunks.
    pub fair_network: bool,
}

impl SweepFault {
    /// A scenario on the grid's own network plane.
    pub fn new(label: impl Into<String>, plan: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            plan: plan.into(),
            fair_network: false,
        }
    }
}

/// True when every crash in `plan` heals (every
/// [`FaultPlan::node_down_windows`] window ends), so a sufficient replay
/// budget settles every root and `zero_loss_ratio == 1.0` is a
/// correctness requirement rather than a hope.
pub fn survivable(plan: &FaultPlan) -> bool {
    plan.node_down_windows()
        .values()
        .flatten()
        .all(|&(_, end)| end.is_finite())
}

/// The scenario grid: the cross product of its four axes, plus the base
/// simulation config (each job overrides the seed).
#[derive(Debug)]
pub struct SweepGrid {
    /// The workload axis.
    pub cases: Vec<SweepCase>,
    /// The scheduler axis, as [`rstorm_core::schedulers::by_name`] names.
    pub schedulers: Vec<String>,
    /// The fault axis.
    pub faults: Vec<SweepFault>,
    /// The seed axis.
    pub seeds: SeedRange,
    /// Base simulation parameters (`seed` is replaced per job).
    pub sim: SimConfig,
}

impl SweepGrid {
    /// Total number of jobs the grid expands to.
    pub fn job_count(&self) -> usize {
        self.cases.len() * self.schedulers.len() * self.faults.len() * self.seeds.len()
    }

    /// Number of (case, scheduler, fault) groups.
    pub fn group_count(&self) -> usize {
        self.cases.len() * self.schedulers.len() * self.faults.len()
    }

    /// Expands the grid into its job list. The nesting order — case,
    /// then scheduler, then fault, then seed — is the contract the
    /// aggregation layer builds on: all seeds of one group are
    /// consecutive, and `jobs[i].index == i`.
    pub fn expand(&self) -> Vec<SweepJob> {
        let mut jobs = Vec::with_capacity(self.job_count());
        for (case, _) in self.cases.iter().enumerate() {
            for scheduler in &self.schedulers {
                for fault in &self.faults {
                    for seed in self.seeds.iter() {
                        jobs.push(SweepJob {
                            index: jobs.len(),
                            case,
                            scheduler: scheduler.clone(),
                            fault: fault.clone(),
                            seed,
                        });
                    }
                }
            }
        }
        jobs
    }
}

/// One grid point: a fully specified scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepJob {
    /// Position in the expanded job list (and in [`SweepOutcome::rows`]).
    pub index: usize,
    /// Index into [`SweepGrid::cases`].
    pub case: usize,
    /// Scheduler name.
    pub scheduler: String,
    /// The fault scenario.
    pub fault: SweepFault,
    /// The simulation seed.
    pub seed: u64,
}

/// The measurements of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// The job that produced this row.
    pub job: SweepJob,
    /// Whether the job's filled plan is [`survivable`].
    pub survivable: bool,
    /// Steady-state sink throughput (tuples per window, warm-up skipped).
    pub net_throughput: f64,
    /// Tuples of live roots completed at sinks.
    pub tuples_completed: u64,
    /// Tuples destroyed by injected crashes.
    pub tuples_lost: u64,
    /// [`SimReport::zero_loss_ratio`] of the run.
    pub zero_loss_ratio: f64,
    /// Crash-to-detection latency in ms; `-1.0` when nothing was (or
    /// could be) detected — healthy runs always carry the sentinel. Like
    /// every recovery latency it is measured from the plan's first
    /// data-plane fault (see [`crate::RecoveryObservations::crash_at_ms`]),
    /// so a Nimbus outage that starts before the crash does not move it.
    pub time_to_detect_ms: f64,
    /// Crash-to-full-re-placement latency in ms; `-1.0` if never.
    pub time_to_recover_ms: f64,
}

// ---- execution ----------------------------------------------------------

/// Runs one job: parses the fault template and runs it through
/// [`run_fault_plan_with`], the closed loop the CLI and the fuzzer share,
/// which places the topology once and fills the template's host from
/// that placement. The healthy run is the empty plan. As in the CLI, the
/// control journal is on exactly when the plan has control faults.
/// Scheduling failures panic: grids are built from feasible workloads,
/// and a scheduler that cannot place a grid case is a configuration
/// error, not a data point.
fn run_job(grid: &SweepGrid, job: &SweepJob) -> SweepRow {
    let case = &grid.cases[job.case];
    let scheduler = schedulers::by_name(&job.scheduler)
        .unwrap_or_else(|| panic!("unknown scheduler `{}` in the sweep grid", job.scheduler));
    let plan = FaultPlan::from_text(&job.fault.plan)
        .unwrap_or_else(|e| panic!("sweep fault `{}`: {e}", job.fault.label));

    let mut sim_cfg = grid.sim.clone().with_seed(job.seed);
    if job.fault.fair_network {
        sim_cfg = sim_cfg.with_network_model(NetworkModel::Fair);
    }
    let recovery = RecoveryConfig {
        journal: plan.has_control_faults(),
        ..RecoveryConfig::default()
    };
    let out = run_fault_plan_with(
        &case.cluster,
        &case.topology,
        &plan,
        &sim_cfg,
        &recovery,
        &*scheduler,
    )
    .unwrap_or_else(|e| panic!("sweep job failed on case {}: {e}", case.name));
    let report = out.report;
    SweepRow {
        job: job.clone(),
        survivable: survivable(&out.fault_plan),
        net_throughput: report.steady_throughput(case.topology.id().as_str(), WARMUP_WINDOWS),
        tuples_completed: report.totals.tuples_completed,
        tuples_lost: report.totals.tuples_lost,
        zero_loss_ratio: report.zero_loss_ratio(),
        time_to_detect_ms: out.observations.time_to_detect_ms,
        time_to_recover_ms: out.observations.time_to_recover_ms,
    }
}

/// Everything a sweep produced: the per-job rows in job-index order, the
/// deterministic aggregation, and the (non-deterministic) timing
/// metadata, kept apart so the payload stays byte-identical across
/// worker counts.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Per-job results, `rows[i].job.index == i`.
    pub rows: Vec<SweepRow>,
    /// The aggregated distributions.
    pub summary: SweepSummary,
    /// Workers actually used.
    pub workers: usize,
    /// Wall-clock time of the fan-out.
    pub wall: Duration,
}

/// Runs every job of `grid` on `workers` threads (clamped to at least 1
/// and at most the job count).
///
/// Workers pull job indices from a shared atomic counter — deterministic
/// job order, no work stealing — and results are written back into their
/// job's slot, so rows, aggregation and [`SweepSummary::to_json`] are
/// identical for every worker count.
///
/// # Panics
///
/// Panics if the grid is empty or any job panics (unknown scheduler,
/// infeasible placement).
pub fn run_sweep(grid: &SweepGrid, workers: usize) -> SweepOutcome {
    let jobs = grid.expand();
    assert!(!jobs.is_empty(), "the sweep grid expands to no jobs");
    let workers = workers.clamp(1, jobs.len());
    let started = Instant::now();

    let rows = run_indexed(jobs.len(), workers, |i| run_job(grid, &jobs[i]));
    let summary = aggregate(grid, &rows);
    SweepOutcome {
        rows,
        summary,
        workers,
        wall: started.elapsed(),
    }
}

/// The no-stealing worker pool behind [`run_sweep`] and
/// [`crate::fuzz::run_fuzz_campaign`]: `workers` threads pull indices
/// `0..total` from a shared atomic counter, and each result lands in its
/// index's slot. The returned vector is in index order, so its contents
/// do not depend on the worker count.
pub(crate) fn run_indexed<T: Send>(
    total: usize,
    workers: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, job) = (&next, &job);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total || tx.send((i, job(i))).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);

    let mut slots: Vec<Option<T>> = (0..total).map(|_| None).collect();
    for (i, result) in rx {
        debug_assert!(slots[i].is_none(), "index {i} reported twice");
        slots[i] = Some(result);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index completes exactly once"))
        .collect()
}

// ---- aggregation --------------------------------------------------------

/// Number of tuples-lost histogram buckets: exact zero plus one decade
/// per bucket, the last open-ended.
pub const HIST_BUCKETS: usize = 8;

fn hist_bucket(lost: u64) -> usize {
    if lost == 0 {
        return 0;
    }
    let mut bucket = 1;
    let mut bound = 10;
    while bucket < HIST_BUCKETS - 1 && lost >= bound {
        bucket += 1;
        bound *= 10;
    }
    bucket
}

/// Nearest-rank percentile of pre-sorted `samples` (empty → `-1.0`).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return -1.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx]
}

/// p50/p90/p99 of a latency distribution; all `-1.0` when the group had
/// no samples (healthy groups never detect anything).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Percentiles {
    fn of(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.total_cmp(b));
        Self {
            p50: percentile(&samples, 50.0),
            p90: percentile(&samples, 90.0),
            p99: percentile(&samples, 99.0),
        }
    }
}

/// The distribution of one (case, scheduler, fault) group over its seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGroup {
    /// `case/scheduler/fault` — the group's stable name.
    pub name: String,
    /// Whether every seed's plan is [`survivable`]; gates the zero-loss
    /// pin.
    pub survivable: bool,
    /// Seeds aggregated into this group.
    pub seeds: usize,
    /// Crash-to-detect latency distribution (sentinel runs excluded).
    pub detect_ms: Percentiles,
    /// Crash-to-recover latency distribution (sentinel runs excluded).
    pub recover_ms: Percentiles,
    /// Worst per-run zero-loss ratio across the seeds.
    pub zero_loss_min: f64,
    /// Mean per-run zero-loss ratio across the seeds.
    pub zero_loss_mean: f64,
    /// Mean steady-state throughput (tuples per window).
    pub net_mean: f64,
    /// Standard deviation of steady-state throughput.
    pub net_stdev: f64,
    /// Tuples-lost histogram: one count per seed in the bucket of its
    /// tuples lost. The buckets are 0, 1–9, 10–99, 100–999, 1k–10k,
    /// 10k–100k, 100k–1M and ≥1M.
    pub lost_hist: [u64; HIST_BUCKETS],
}

impl SweepGroup {
    /// Renders the group as one JSON object line of
    /// [`SweepSummary::to_json`]: `zero_loss_ratio` appears only on
    /// survivable groups, where it must be exactly 1.0. Floats use
    /// shortest-roundtrip formatting, so the line is byte-deterministic.
    pub fn json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"seeds\": {}, \"survivable\": {}, \
             \"net_mean\": {:?}, \"net_stdev\": {:?}, \
             \"detect_p50_ms\": {:?}, \"detect_p90_ms\": {:?}, \"detect_p99_ms\": {:?}, \
             \"recover_p50_ms\": {:?}, \"recover_p90_ms\": {:?}, \"recover_p99_ms\": {:?}, \
             \"lost_hist\": [",
            self.name,
            self.seeds,
            self.survivable,
            self.net_mean,
            self.net_stdev,
            self.detect_ms.p50,
            self.detect_ms.p90,
            self.detect_ms.p99,
            self.recover_ms.p50,
            self.recover_ms.p90,
            self.recover_ms.p99,
        );
        for (i, n) in self.lost_hist.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{n}");
        }
        out.push(']');
        if self.survivable {
            let _ = write!(out, ", \"zero_loss_ratio\": {:?}", self.zero_loss_min);
        }
        out.push('}');
        out
    }
}

/// The deterministic aggregation of a sweep: group distributions in grid
/// order. This — not the wall-clock metadata — is the payload the
/// byte-identity guarantee covers.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    /// Jobs aggregated.
    pub jobs: usize,
    /// The seed axis, echoed for provenance.
    pub seeds: SeedRange,
    /// Per-(case, scheduler, fault) distributions, in grid order.
    pub groups: Vec<SweepGroup>,
}

impl SweepSummary {
    /// Serializes the aggregation as deterministic JSON: fixed key order,
    /// shortest-roundtrip floats, groups in grid order. Two sweeps of the
    /// same grid produce the same string regardless of worker count.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"benchmark\": \"scenario sweep\",");
        let _ = writeln!(out, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(out, "  \"seeds\": \"{}\",", self.seeds);
        out.push_str("  \"groups\": [\n");
        for (i, g) in self.groups.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&g.json_line());
            out.push_str(if i + 1 < self.groups.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Aggregates per-job rows into per-group distributions. Relies on the
/// [`SweepGrid::expand`] contract: rows arrive in job-index order, so
/// each group's seeds form one consecutive chunk.
///
/// # Panics
///
/// Panics if `rows` does not match the grid's expansion.
pub fn aggregate(grid: &SweepGrid, rows: &[SweepRow]) -> SweepSummary {
    assert_eq!(rows.len(), grid.job_count(), "rows must cover the grid");
    let per_group = grid.seeds.len();
    let mut groups = Vec::with_capacity(grid.group_count());
    for chunk in rows.chunks(per_group) {
        let job = &chunk[0].job;
        let case = &grid.cases[job.case];
        debug_assert!(
            chunk.iter().all(|r| r.job.case == job.case
                && r.job.scheduler == job.scheduler
                && r.job.fault == job.fault),
            "a chunk spans a single group by the expansion contract"
        );
        let detect: Vec<f64> = chunk
            .iter()
            .map(|r| r.time_to_detect_ms)
            .filter(|&d| d >= 0.0)
            .collect();
        let recover: Vec<f64> = chunk
            .iter()
            .map(|r| r.time_to_recover_ms)
            .filter(|&d| d >= 0.0)
            .collect();
        let net = Summary::of(chunk.iter().map(|r| r.net_throughput));
        let zero = Summary::of(chunk.iter().map(|r| r.zero_loss_ratio));
        let mut lost_hist = [0u64; HIST_BUCKETS];
        for r in chunk {
            lost_hist[hist_bucket(r.tuples_lost)] += 1;
        }
        groups.push(SweepGroup {
            name: format!("{}/{}/{}", case.name, job.scheduler, job.fault.label),
            survivable: chunk.iter().all(|r| r.survivable),
            seeds: chunk.len(),
            detect_ms: Percentiles::of(detect),
            recover_ms: Percentiles::of(recover),
            zero_loss_min: zero.min,
            zero_loss_mean: zero.mean,
            net_mean: net.mean,
            net_stdev: net.stddev,
            lost_hist,
        });
    }
    SweepSummary {
        jobs: rows.len(),
        seeds: grid.seeds,
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rstorm_cluster::{ClusterBuilder, ResourceCapacity};
    use rstorm_topology::{ExecutionProfile, TopologyBuilder};

    fn topology(name: &str) -> Topology {
        let mut b = TopologyBuilder::new(name);
        b.set_spout("src", 2)
            .set_profile(ExecutionProfile::network_bound(100))
            .set_cpu_load(25.0)
            .set_memory_load(256.0);
        b.set_bolt("sink", 2)
            .shuffle_grouping("src")
            .set_profile(ExecutionProfile::network_bound(100).into_sink())
            .set_cpu_load(25.0)
            .set_memory_load(256.0);
        b.build().unwrap()
    }

    fn cluster() -> Arc<Cluster> {
        Arc::new(
            ClusterBuilder::new()
                .homogeneous_racks(2, 3, ResourceCapacity::emulab_node(), 4)
                .build()
                .unwrap(),
        )
    }

    fn tiny_grid() -> SweepGrid {
        SweepGrid {
            cases: vec![SweepCase {
                name: "tiny".to_owned(),
                topology: topology("tiny"),
                cluster: cluster(),
            }],
            schedulers: vec!["rstorm".to_owned(), "even".to_owned()],
            faults: vec![
                SweepFault::new("healthy", ""),
                SweepFault::new(
                    "crash_recover",
                    "crash 3000.0 {host}\nrecover 6000.0 {host}\n",
                ),
            ],
            seeds: SeedRange::new(0, 3).unwrap(),
            sim: SimConfig::quick()
                .with_sim_time_ms(10_000.0)
                .with_max_replays(4),
        }
    }

    #[test]
    fn seed_range_parses_and_rejects() {
        let r: SeedRange = "0..256".parse().unwrap();
        assert_eq!((r.start(), r.end(), r.len()), (0, 256, 256));
        assert_eq!(r.to_string(), "0..256");
        assert_eq!(" 3 .. 5 ".parse::<SeedRange>().unwrap().len(), 2);
        assert_eq!(
            "17".parse::<SeedRange>(),
            Err(ParseRangeError::MissingSeparator("17".to_owned()))
        );
        assert_eq!(
            "a..5".parse::<SeedRange>(),
            Err(ParseRangeError::InvalidBound("a".to_owned()))
        );
        assert_eq!(
            "0..=5".parse::<SeedRange>(),
            Err(ParseRangeError::InvalidBound("=5".to_owned()))
        );
        assert_eq!(
            "5..5".parse::<SeedRange>(),
            Err(ParseRangeError::EmptyOrInverted { start: 5, end: 5 })
        );
        assert_eq!(
            "9..2".parse::<SeedRange>(),
            Err(ParseRangeError::EmptyOrInverted { start: 9, end: 2 })
        );
        // The typed errors render readably.
        assert!(ParseRangeError::EmptyOrInverted { start: 9, end: 2 }
            .to_string()
            .contains("no seeds"));
    }

    #[test]
    fn expansion_covers_the_cross_product_without_duplicates() {
        let grid = tiny_grid();
        let jobs = grid.expand();
        assert_eq!(jobs.len(), grid.job_count());
        assert_eq!(jobs.len(), 2 * 2 * 3); // 1 case x 2 schedulers x 2 faults x 3 seeds
        let mut seen = std::collections::BTreeSet::new();
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.index, i, "indices follow expansion order");
            assert!(
                seen.insert((job.case, &job.scheduler, &job.fault.label, job.seed)),
                "duplicate grid point {job:?}"
            );
        }
        // Every axis value appears the expected number of times.
        assert_eq!(jobs.iter().filter(|j| j.seed == 1).count(), 4);
        assert_eq!(
            jobs.iter().filter(|j| j.scheduler == "even").count(),
            6,
            "each scheduler covers faults x seeds"
        );
        // Seeds of one group are consecutive (the aggregation contract).
        for chunk in jobs.chunks(grid.seeds.len()) {
            assert!(chunk
                .windows(2)
                .all(|w| w[0].fault == w[1].fault && w[0].scheduler == w[1].scheduler));
        }
    }

    #[test]
    fn sweep_output_is_byte_identical_across_worker_counts() {
        let grid = tiny_grid();
        let serial = run_sweep(&grid, 1);
        let parallel = run_sweep(&grid, 8);
        assert_eq!(serial.workers, 1);
        assert!(parallel.workers > 1, "the pool clamps to the job count");
        assert_eq!(serial.rows, parallel.rows, "row-level determinism");
        assert_eq!(
            serial.summary.to_json(),
            parallel.summary.to_json(),
            "the aggregated payload is byte-identical across worker counts"
        );
        // The payload has one group per (case, scheduler, fault) triple
        // and every job fed exactly one group.
        assert_eq!(serial.summary.groups.len(), grid.group_count());
        assert_eq!(serial.summary.jobs, grid.job_count());
        let counted: u64 = serial
            .summary
            .groups
            .iter()
            .map(|g| g.lost_hist.iter().sum::<u64>())
            .sum();
        assert_eq!(counted, grid.job_count() as u64);
        // Healthy groups carry the -1 sentinels; crash groups measured
        // real latencies and stayed lossless under replay.
        for g in &serial.summary.groups {
            assert!(g.survivable);
            assert_eq!(g.zero_loss_min, 1.0, "{}: lost settled roots", g.name);
            if g.name.ends_with("/healthy") {
                assert_eq!(g.detect_ms.p50, -1.0);
            } else {
                assert!(g.detect_ms.p50 > 0.0, "{}: no detection", g.name);
                assert!(g.recover_ms.p99 >= g.detect_ms.p50);
            }
        }
    }

    #[test]
    fn partition_and_flap_specs_sweep_clean() {
        // A grid over the two new mixed-fault specs: a rack partition
        // long enough to be detected, and a sub-miss-window flap storm.
        let grid = SweepGrid {
            cases: vec![SweepCase {
                name: "mixed".to_owned(),
                topology: topology("mixed"),
                cluster: cluster(),
            }],
            schedulers: vec!["rstorm".to_owned()],
            faults: vec![
                SweepFault::new("partition", "partition 3000.0 8000.0 {host_rack}\n"),
                SweepFault::new(
                    "flap",
                    "crash 2000.0 {host}\nrecover 3500.0 {host}\n\
                     crash 5000.0 {host}\nrecover 6500.0 {host}\n",
                ),
            ],
            seeds: SeedRange::new(0, 2).unwrap(),
            sim: SimConfig::quick()
                .with_sim_time_ms(10_000.0)
                .with_max_replays(4),
        };
        let serial = run_sweep(&grid, 1);
        let parallel = run_sweep(&grid, 4);
        assert_eq!(serial.rows, parallel.rows);
        assert_eq!(serial.summary.to_json(), parallel.summary.to_json());
        assert_eq!(serial.summary.groups.len(), 2);
        let partition = &serial.summary.groups[0];
        let flap = &serial.summary.groups[1];
        assert_eq!(partition.name, "mixed/rstorm/partition");
        assert_eq!(flap.name, "mixed/rstorm/flap");
        for g in &serial.summary.groups {
            assert!(g.survivable, "{}: both new specs heal", g.name);
            assert_eq!(g.zero_loss_min, 1.0, "{}: lost settled roots", g.name);
            assert!(
                g.json_line().contains("zero_loss_ratio"),
                "survivable groups expose the zero-loss pin"
            );
        }
        // The 5 s partition exceeds the 3-miss heartbeat window, so the
        // silenced rack is declared dead; each 1.5 s flap outage is far
        // below it, so the flap group keeps the -1 sentinel.
        assert!(partition.detect_ms.p50 > 0.0, "partition undetected");
        assert_eq!(
            flap.detect_ms.p50, -1.0,
            "sub-window flaps must not be declared"
        );
    }

    #[test]
    fn nimbus_outage_spec_survives_with_the_journal_on() {
        // A worker crashes while Nimbus itself is down; the journaled
        // successor must reassume, detect, and reschedule in time to
        // keep every seed lossless.
        let grid = SweepGrid {
            cases: vec![SweepCase {
                name: "ctrl".to_owned(),
                topology: topology("ctrl"),
                cluster: cluster(),
            }],
            schedulers: vec!["rstorm".to_owned()],
            faults: vec![SweepFault::new(
                "nimbus_outage",
                "crash 4000.0 {host}\nrecover 12000.0 {host}\nnimbus 3000.0 4000.0\n",
            )],
            seeds: SeedRange::new(0, 2).unwrap(),
            sim: SimConfig::quick()
                .with_sim_time_ms(20_000.0)
                .with_max_replays(6),
        };
        let serial = run_sweep(&grid, 1);
        let parallel = run_sweep(&grid, 4);
        assert_eq!(serial.rows, parallel.rows);
        assert_eq!(serial.summary.to_json(), parallel.summary.to_json());
        assert_eq!(serial.summary.groups.len(), 1);
        let g = &serial.summary.groups[0];
        assert_eq!(g.name, "ctrl/rstorm/nimbus_outage");
        assert!(g.survivable, "the outage spec heals by construction");
        assert_eq!(g.zero_loss_min, 1.0, "journaled failover lost roots");
        // The crash lands inside the 3 s..7 s control outage, so
        // detection (measured from the 4 s crash) cannot finish within
        // the plain 3 s miss window — the successor only reassumes at
        // 7 s and restarts the silence clock from its seeded roster.
        assert!(
            g.detect_ms.p50 > 3_000.0,
            "detection after {} ms ignores the control outage",
            g.detect_ms.p50
        );
        assert!(g.recover_ms.p99 >= g.detect_ms.p50);
    }

    #[test]
    fn congestion_spec_runs_on_the_fair_plane_and_stays_lossless() {
        let grid = SweepGrid {
            cases: vec![SweepCase {
                name: "cong".to_owned(),
                topology: topology("cong"),
                cluster: cluster(),
            }],
            // `even` spreads the tasks, so transfers actually cross the
            // network and the capacity squeeze has something to squeeze.
            schedulers: vec!["even".to_owned()],
            faults: vec![
                SweepFault::new("healthy", ""),
                SweepFault {
                    fair_network: true,
                    ..SweepFault::new("congestion", "degrade 4000.0 16000.0 400.0\n")
                },
            ],
            seeds: SeedRange::new(0, 2).unwrap(),
            sim: {
                let mut sim = SimConfig::quick()
                    .with_sim_time_ms(20_000.0)
                    .with_max_replays(4);
                sim.window_ms = 2_000.0;
                sim
            },
        };
        let serial = run_sweep(&grid, 1);
        let parallel = run_sweep(&grid, 4);
        assert_eq!(serial.summary.to_json(), parallel.summary.to_json());
        let healthy = &serial.summary.groups[0];
        let congested = &serial.summary.groups[1];
        assert_eq!(congested.name, "cong/even/congestion");
        assert!(congested.survivable, "background traffic destroys nothing");
        assert_eq!(congested.zero_loss_min, 1.0, "congestion lost tuples");
        assert_eq!(
            congested.detect_ms.p50, -1.0,
            "no node dies, so nothing is detected"
        );
        assert!(congested.net_mean > 0.0, "traffic still flows");
        assert!(
            congested.net_mean < healthy.net_mean,
            "a 12 s capacity squeeze must cost throughput: {} vs {}",
            congested.net_mean,
            healthy.net_mean
        );
    }

    #[test]
    fn histogram_buckets_are_decades() {
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 1);
        assert_eq!(hist_bucket(9), 1);
        assert_eq!(hist_bucket(10), 2);
        assert_eq!(hist_bucket(999), 3);
        assert_eq!(hist_bucket(1_000_000), 7);
        assert_eq!(hist_bucket(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let p = Percentiles::of(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(p.p50, 3.0, "rank round(0.5 * 3) = 2");
        assert_eq!(p.p90, 4.0);
        assert_eq!(p.p99, 4.0);
        let none = Percentiles::of(Vec::new());
        assert_eq!((none.p50, none.p90, none.p99), (-1.0, -1.0, -1.0));
    }

    #[test]
    fn group_lines_expose_zero_loss_only_when_survivable() {
        let mut g = SweepGroup {
            name: "c/s/crash_recover".to_owned(),
            survivable: true,
            seeds: 4,
            detect_ms: Percentiles {
                p50: 2_000.0,
                p90: 2_000.0,
                p99: 2_000.0,
            },
            recover_ms: Percentiles {
                p50: 2_000.0,
                p90: 2_000.0,
                p99: 2_000.0,
            },
            zero_loss_min: 1.0,
            zero_loss_mean: 1.0,
            net_mean: 1234.5,
            net_stdev: 6.7,
            lost_hist: [0, 4, 0, 0, 0, 0, 0, 0],
        };
        let line = g.json_line();
        assert!(line.contains("\"zero_loss_ratio\": 1.0"), "{line}");
        assert!(line.contains("\"lost_hist\": [0, 4, 0, 0, 0, 0, 0, 0]"));
        g.survivable = false;
        assert!(!g.json_line().contains("zero_loss_ratio"));
    }
}
