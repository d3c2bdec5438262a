//! The six workloads: what one scenario runs, and how its outputs are
//! checked.
//!
//! A scenario calls only stable public entry points (`Scheduler::schedule`,
//! `Simulation::{new, add_topology, set_fault_plan, schedule_migration,
//! run}`, the `rstorm_workloads` presets and `run_sweep`) and wraps each
//! call in a span, so later changes inside the layers never require an
//! edit here.

use crate::trace::Recorder;
use rstorm_cluster::Cluster;
use rstorm_core::schedulers::EvenScheduler;
use rstorm_core::{Assignment, GlobalState, RStormScheduler, Scheduler};
use rstorm_sim::{
    run_sweep, FaultPlan, NetworkModel, SeedRange, SimConfig, SimReport, Simulation, SweepOutcome,
};
use rstorm_topology::Topology;
use rstorm_workloads::{cases, scale, sweep};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperMicro,
    FaultsReplay,
    ScaleBase,
    ScaleChurn,
    ScaleFair,
    SweepQuick,
}

impl Workload {
    pub const ALL: [Self; 6] = [
        Self::PaperMicro,
        Self::FaultsReplay,
        Self::ScaleBase,
        Self::ScaleChurn,
        Self::ScaleFair,
        Self::SweepQuick,
    ];

    /// The workloads `BENCHMARK.json` lists: one per layer an optimisation
    /// is expected to target (the event loop, its failure path, scheduling
    /// and routing build at scale, the fair-share network), all
    /// single-threaded so that a run measures the program rather than the
    /// machine's scheduler. The other two stay runnable by name.
    pub const OF_RECORD: [Self; 4] = [
        Self::PaperMicro,
        Self::FaultsReplay,
        Self::ScaleBase,
        Self::ScaleFair,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::PaperMicro => "paper_micro",
            Self::FaultsReplay => "faults_replay",
            Self::ScaleBase => "scale_base",
            Self::ScaleChurn => "scale_churn",
            Self::ScaleFair => "scale_fair",
            Self::SweepQuick => "sweep_quick",
        }
    }

    /// Why the workload is in the benchmark: the layer it loads. Mirrored
    /// in `BENCHMARK.json` and the README.
    pub fn why(self) -> &'static str {
        match self {
            Self::PaperMicro => {
                "the paper's Linear/Diamond/Star/PageLoad/Processing runs: the event loop does \
                 nearly all the work and set-up is under a millisecond"
            }
            Self::FaultsReplay => {
                "the same loop on its failure path: crash, partition, slow-link and flap \
                 faults drive root timeouts and spout replays"
            }
            Self::ScaleBase => {
                "10k tasks on 1k nodes: scheduling and the ~1M-route routing build dominate \
                 set-up, over a large event-loop working set"
            }
            Self::ScaleChurn => {
                "scale_base plus ~800 live migrations: delta planning and routing-table \
                 patches, the writes beside scale_base's reads"
            }
            Self::ScaleFair => {
                "scale_base's exact inputs on the fair-share network, so the network plane's \
                 cost is the difference between the two"
            }
            Self::SweepQuick => {
                "what `rstorm sweep` runs: 32 seeded jobs with the chaos harness on a small \
                 thread pool, the only multi-threaded workload"
            }
        }
    }

    /// Timed repeats when the run length is set by count, not by time.
    /// The spread of 7 to 21 samples keeps each workload near a few
    /// seconds of measurement.
    pub fn repeats(self) -> usize {
        match self {
            Self::PaperMicro | Self::FaultsReplay | Self::SweepQuick => 7,
            Self::ScaleBase => 21,
            Self::ScaleChurn => 11,
            Self::ScaleFair => 9,
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes of a scenario.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Tasks of the scale topology.
    pub tasks: u32,
    /// Nodes of the scale cluster.
    pub nodes: u32,
    /// Simulated horizon the fault and migration times are laid out on.
    pub horizon_ms: f64,
    /// Simulated time each run lasts: the horizon, or 1 ms for the pass
    /// that isolates the engine's fixed cost.
    pub sim_ms: f64,
    /// Migration rounds of `scale_churn`.
    pub churn_rounds: u32,
    /// Seeds per scenario: `faults_replay` runs each topology, and
    /// `sweep_quick` each grid group, on seeds `seed..seed + seeds`.
    pub seeds: u64,
}

/// The benchmark's inputs.
pub const FULL: Size = Size {
    tasks: scale::SCALE_TASKS,
    nodes: scale::SCALE_NODES,
    horizon_ms: 60_000.0,
    sim_ms: 60_000.0,
    churn_rounds: scale::SCALE_CHURN_ROUNDS,
    seeds: 4,
};

impl Size {
    /// The same scenario cut off after 1 ms of simulated time, with the
    /// faults and migrations still laid out on the full horizon.
    pub fn fixed_cost(self) -> Self {
        Self {
            sim_ms: 1.0,
            ..self
        }
    }
}

/// One simulation of a scenario and the facts its checks need.
#[derive(Debug)]
pub struct SimRun {
    pub topology: String,
    pub scheduler: &'static str,
    pub placed: usize,
    pub report: SimReport,
}

/// What one scenario produced.
#[derive(Debug, Default)]
pub struct Output {
    pub sims: Vec<SimRun>,
    /// Non-empty migration plans and the moves they hold (`scale_churn`).
    pub plans: usize,
    pub moves: usize,
    /// The sweep's outcome and the job count of its grid.
    pub sweep: Option<(SweepOutcome, usize)>,
}

struct Prepared {
    topology: String,
    scheduler: &'static str,
    placed: usize,
    sim: Simulation,
}

fn place(
    rec: &mut Recorder,
    scheduler: &dyn Scheduler,
    topology: &Topology,
    cluster: &Cluster,
) -> Assignment {
    rec.span("core.schedule", |rec| {
        let mut state = GlobalState::new(cluster);
        let assignment = scheduler
            .schedule(topology, cluster, &mut state)
            .unwrap_or_else(|e| panic!("{} cannot place {}: {e}", scheduler.name(), topology.id()));
        rec.note("tasks_placed", assignment.len() as f64);
        assignment
    })
}

fn build(
    rec: &mut Recorder,
    cluster: &Arc<Cluster>,
    config: &SimConfig,
    topology: &Topology,
    assignment: &Assignment,
) -> Simulation {
    let mut sim = rec.span("sim.build.new", |_| {
        Simulation::new(Arc::clone(cluster), config.clone())
    });
    rec.span("sim.build.add_topology", |_| {
        sim.add_topology(topology, assignment)
    });
    sim
}

fn prepared(
    topology: &Topology,
    scheduler: &'static str,
    assignment: &Assignment,
    sim: Simulation,
) -> Prepared {
    Prepared {
        topology: topology.id().as_str().to_owned(),
        scheduler,
        placed: assignment.len(),
        sim,
    }
}

/// The faults of `faults_replay`, aimed at the host of the first assigned
/// task and laid out over `horizon_ms` as they would be over 60 s.
fn fault_plan(horizon_ms: f64, cluster: &Cluster, assignment: &Assignment) -> FaultPlan {
    let at = |secs: f64| secs * horizon_ms / 60.0;
    let host = assignment
        .iter()
        .next()
        .expect("a placed topology has tasks")
        .1
        .node
        .as_str()
        .to_owned();
    let rack = cluster
        .rack_of(&host)
        .expect("the host is a node of the cluster")
        .as_str()
        .to_owned();
    FaultPlan::new()
        .crash_node(at(10.0), &host)
        .recover_node(at(18.0), &host)
        .partition_rack(at(25.0), at(32.0), rack)
        .degrade_links(at(35.0), at(40.0), 20.0)
        .flap_storm(at(42.0), host, 3, at(2.0), at(3.0))
}

fn run_all(rec: &mut Recorder, prepared: Vec<Prepared>) -> Vec<SimRun> {
    prepared
        .into_iter()
        .map(|p| {
            let report = rec.span("sim.engine.run", |rec| {
                let report = p.sim.run();
                rec.note("events", report.debug.events as f64);
                rec.note("route_entries", report.debug.route_entries as f64);
                rec.note("tuples_completed", report.totals.tuples_completed as f64);
                report
            });
            SimRun {
                topology: p.topology,
                scheduler: p.scheduler,
                placed: p.placed,
                report,
            }
        })
        .collect()
}

/// Runs one scenario of `w` inside a `scenario` span split into `setup`
/// and `run`. Panics if a layer panics; the caller counts that as a
/// failed scenario.
pub fn scenario(w: Workload, size: Size, seed: u64, workers: usize, rec: &mut Recorder) -> Output {
    let config = SimConfig::default()
        .with_seed(seed)
        .with_sim_time_ms(size.sim_ms);
    rec.span("scenario", |rec| match w {
        Workload::PaperMicro | Workload::FaultsReplay => {
            let prepared = rec.span("setup", |rec| {
                let cases = rec.span("workloads.build", |_| {
                    let mut cases = cases::fig8_cases();
                    cases.extend(cases::yahoo_cases());
                    cases
                });
                let mut prepared = Vec::new();
                for case in cases {
                    let cluster = Arc::new(case.cluster);
                    if w == Workload::PaperMicro {
                        for (name, scheduler) in [
                            ("rstorm", &RStormScheduler::new() as &dyn Scheduler),
                            ("even", &EvenScheduler::new()),
                        ] {
                            let a = place(rec, scheduler, &case.topology, &cluster);
                            let sim = build(rec, &cluster, &config, &case.topology, &a);
                            prepared.push(self::prepared(&case.topology, name, &a, sim));
                        }
                    } else {
                        // Several seeds, because the failure path's work
                        // depends on the seed (events vary by ±5% between
                        // single seeds) and one seed's share would read as
                        // a change in speed.
                        let a = place(rec, &RStormScheduler::new(), &case.topology, &cluster);
                        for s in seed..seed + size.seeds {
                            let config = config.clone().with_seed(s).with_max_replays(8);
                            let mut sim = build(rec, &cluster, &config, &case.topology, &a);
                            let plan = fault_plan(size.horizon_ms, &cluster, &a);
                            rec.span("sim.build.fault_plan", |_| sim.set_fault_plan(plan));
                            prepared.push(self::prepared(&case.topology, "rstorm", &a, sim));
                        }
                    }
                }
                prepared
            });
            let sims = rec.span("run", |rec| run_all(rec, prepared));
            Output {
                sims,
                ..Output::default()
            }
        }
        Workload::ScaleBase | Workload::ScaleFair | Workload::ScaleChurn => {
            let (prepared, plans, moves) = rec.span("setup", |rec| {
                let (topology, cluster) = rec.span("workloads.build", |_| {
                    (
                        scale::scale_topology(size.tasks),
                        Arc::new(scale::scale_cluster(size.nodes)),
                    )
                });
                let config = match w {
                    Workload::ScaleFair => config.with_network_model(NetworkModel::Fair),
                    _ => config,
                };
                if w == Workload::ScaleChurn {
                    let (a, plans) = rec.span("core.delta_plan", |rec| {
                        let (a, plans) = scale::churn_plans(&topology, &cluster, size.churn_rounds);
                        rec.note("plans", plans.len() as f64);
                        (a, plans)
                    });
                    let mut sim = build(rec, &cluster, &config, &topology, &a);
                    rec.span("sim.build.migrate", |_| {
                        scale::schedule_churn(&mut sim, &plans, size.horizon_ms);
                    });
                    let moves = plans.iter().map(|p| p.len()).sum();
                    (
                        vec![prepared(&topology, "rstorm", &a, sim)],
                        plans.len(),
                        moves,
                    )
                } else {
                    let a = place(rec, &RStormScheduler::new(), &topology, &cluster);
                    let sim = build(rec, &cluster, &config, &topology, &a);
                    (vec![prepared(&topology, "rstorm", &a, sim)], 0, 0)
                }
            });
            let sims = rec.span("run", |rec| run_all(rec, prepared));
            Output {
                sims,
                plans,
                moves,
                sweep: None,
            }
        }
        Workload::SweepQuick => {
            let grid = rec.span("setup", |rec| {
                rec.span("workloads.build", |_| {
                    let seeds = SeedRange::new(seed, seed + size.seeds)
                        .expect("the seed leaves room for the scenario's seeds");
                    let mut grid = sweep::quick_grid(seeds);
                    grid.sim = grid.sim.clone().with_sim_time_ms(size.sim_ms);
                    grid
                })
            });
            let outcome = rec.span("run", |rec| {
                rec.span("sim.sweep", |rec| {
                    let outcome = run_sweep(&grid, workers);
                    rec.note("jobs", outcome.rows.len() as f64);
                    rec.note("workers", outcome.workers as f64);
                    outcome
                })
            });
            Output {
                sweep: Some((outcome, grid.job_count())),
                ..Output::default()
            }
        }
    })
}

/// FNV-1a over every report's JSON (the sweep summary's, for the sweep),
/// each serialisation timed as `sim.report.to_json`.
pub fn digest(output: &Output, rec: &mut Recorder) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |text: &str| {
        for byte in text.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for run in &output.sims {
        feed(&rec.span("sim.report.to_json", |_| run.report.to_json()));
    }
    if let Some((outcome, _)) = &output.sweep {
        feed(&rec.span("sim.report.to_json", |_| outcome.summary.to_json()));
    }
    hash
}

/// Steady-state throughput ignores the first windows, as the paper lets
/// topologies converge before reading throughput.
const WARMUP_WINDOWS: usize = 2;

/// Every way the scenario's outputs are wrong; empty when they are right.
pub fn check(w: Workload, size: Size, output: &Output) -> Vec<String> {
    let mut failures = Vec::new();
    for run in &output.sims {
        let violations = run.report.sanity_violations();
        if !violations.is_empty() {
            failures.push(format!(
                "{}/{}: {violations:?}",
                run.topology, run.scheduler
            ));
        }
    }
    let expect = |failures: &mut Vec<String>, ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    match w {
        Workload::PaperMicro => {
            // `processing` is CPU-bound on its own; both placements tie.
            for pair in output
                .sims
                .chunks(2)
                .filter(|p| p[0].topology != "processing")
            {
                let [rstorm, even] = pair else {
                    unreachable!("paper_micro runs each topology under two schedulers")
                };
                let (r, e) = (
                    rstorm
                        .report
                        .steady_throughput(&rstorm.topology, WARMUP_WINDOWS),
                    even.report
                        .steady_throughput(&even.topology, WARMUP_WINDOWS),
                );
                expect(
                    &mut failures,
                    r >= e,
                    format!(
                        "{}: rstorm throughput {r} is below even's {e}",
                        rstorm.topology
                    ),
                );
            }
        }
        Workload::FaultsReplay => {
            for run in &output.sims {
                let t = &run.report.totals;
                expect(
                    &mut failures,
                    run.report.zero_loss_ratio() == 1.0,
                    format!(
                        "{}: zero-loss ratio {}",
                        run.topology,
                        run.report.zero_loss_ratio()
                    ),
                );
                expect(
                    &mut failures,
                    t.roots_emitted == t.roots_completed + t.roots_quarantined + t.roots_in_flight,
                    format!("{}: roots do not drain: {t:?}", run.topology),
                );
            }
        }
        Workload::ScaleBase | Workload::ScaleChurn | Workload::ScaleFair => {
            for run in &output.sims {
                expect(
                    &mut failures,
                    run.placed == size.tasks as usize,
                    format!("placed {} of {} tasks", run.placed, size.tasks),
                );
                expect(
                    &mut failures,
                    run.report.totals.tuples_completed > 0,
                    "no tuple completed".to_owned(),
                );
                expect(
                    &mut failures,
                    (w == Workload::ScaleFair) == run.report.network.is_some(),
                    "network telemetry present only on the fair plane".to_owned(),
                );
            }
            if w == Workload::ScaleChurn {
                expect(
                    &mut failures,
                    output.plans > 0 && output.moves >= output.plans,
                    format!(
                        "churn collapsed: {} moves in {} of {} rounds",
                        output.moves, output.plans, size.churn_rounds
                    ),
                );
            }
        }
        Workload::SweepQuick => match &output.sweep {
            None => failures.push("the sweep produced no outcome".to_owned()),
            Some((outcome, jobs)) => {
                expect(
                    &mut failures,
                    outcome.rows.len() == *jobs,
                    format!("{} rows for {jobs} jobs", outcome.rows.len()),
                );
                for group in outcome.summary.groups.iter().filter(|g| g.survivable) {
                    expect(
                        &mut failures,
                        group.zero_loss_min == 1.0,
                        format!("{}: zero-loss minimum {}", group.name, group.zero_loss_min),
                    );
                }
            }
        },
    }
    failures
}

/// The deterministic work counters of a scenario, read from its reports.
pub fn counters(output: &Output) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&SimReport) -> u64| {
        output.sims.iter().map(|r| f(&r.report)).sum::<u64>() as f64
    };
    let events = sum(&|r| r.debug.events);
    let sim_s: f64 = output
        .sims
        .iter()
        .map(|r| r.report.duration_ms / 1000.0)
        .sum();
    let processed = sum(&|r| r.totals.tuples_processed);
    let links = output.sims.iter().filter_map(|r| r.report.network.as_ref());
    let (mut link_count, mut mb, mut saturated) = (0.0, 0.0, 0.0);
    for link in links.flat_map(|n| &n.links) {
        link_count += 1.0;
        mb += link.mb_carried;
        saturated += link.saturated_windows as f64;
    }
    let (sweep_jobs, sweep_workers, sweep_lost) =
        output.sweep.as_ref().map_or((0.0, 0.0, 0.0), |(o, _)| {
            (
                o.rows.len() as f64,
                o.workers as f64,
                o.rows.iter().map(|r| r.tuples_lost).sum::<u64>() as f64,
            )
        });
    vec![
        ("sim.build.route_entries", sum(&|r| r.debug.route_entries)),
        ("sim.build.migrations", output.moves as f64),
        ("sim.engine.events", events),
        (
            "sim.engine.events_per_sim_s",
            if sim_s > 0.0 { events / sim_s } else { 0.0 },
        ),
        (
            "sim.engine.root_pool_misses",
            sum(&|r| r.debug.root_pool_misses),
        ),
        (
            "sim.engine.max_live_roots",
            output
                .sims
                .iter()
                .map(|r| r.report.debug.max_live_roots)
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "sim.engine.useful_ratio",
            if processed > 0.0 {
                sum(&|r| r.totals.tuples_completed) / processed
            } else {
                0.0
            },
        ),
        (
            "sim.engine.batches_dropped",
            sum(&|r| r.totals.batches_dropped),
        ),
        (
            "sim.faults.roots_timed_out",
            sum(&|r| r.totals.roots_timed_out),
        ),
        (
            "sim.faults.roots_replayed",
            sum(&|r| r.totals.roots_replayed),
        ),
        (
            "sim.faults.tuples_lost",
            sum(&|r| r.totals.tuples_lost) + sweep_lost,
        ),
        ("sim.network.links", link_count),
        ("sim.network.mb_carried", mb),
        ("sim.network.saturated_windows", saturated),
        ("sim.sweep.jobs", sweep_jobs),
        ("sim.sweep.workers", sweep_workers),
    ]
}
