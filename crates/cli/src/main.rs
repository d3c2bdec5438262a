//! The `rstorm` command-line interface: schedule, verify, simulate and
//! compare topologies described in plain-text spec files (see the
//! `rstorm-spec` crate for the formats).
//!
//! ```text
//! rstorm schedule --topology topo.spec --cluster cluster.spec [--scheduler NAME]
//! rstorm simulate --topology topo.spec --cluster cluster.spec [--duration-s N] [--seed N]
//! rstorm compare  --topology topo.spec --cluster cluster.spec [--duration-s N]
//! rstorm sweep    [--grid quick|full] [--seeds A..B] [--workers N] [--out FILE]
//! rstorm fuzz     --topology topo.spec --cluster cluster.spec [--iterations N] [--seed N]
//! rstorm scale    [--tasks N] [--nodes N] [--horizon-ms N] [--seed N] [--churn]
//! rstorm example-specs
//! ```

use rstorm_cluster::Cluster;
use rstorm_core::schedulers::EvenScheduler;
use rstorm_core::{
    schedulers, verify_plan, GlobalState, RStormScheduler, RecoveryConfig, Scheduler,
};
use rstorm_metrics::text_table;
use rstorm_sim::{
    run_adaptive_rebalance, run_fault_plan_with, run_fuzz_campaign, run_sweep, AdaptiveConfig,
    FaultPlan, FuzzConfig, NetworkModel, SeedRange, SimConfig, SimReport, Simulation,
};
use rstorm_spec::{parse_cluster, parse_topology};
use rstorm_topology::Topology;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

const USAGE: &str = "\
rstorm — resource-aware scheduling for Storm-style topologies

USAGE:
    rstorm schedule --topology FILE --cluster FILE [--scheduler NAME]
    rstorm simulate --topology FILE --cluster FILE [--scheduler NAME]
                    [--duration-s N] [--seed N]
    rstorm compare  --topology FILE --cluster FILE [--duration-s N] [--seed N]
    rstorm chaos    --topology FILE --cluster FILE [--victim NODE]
                    [--crash-at-s N] [--heal-at-s N] [--duration-s N] [--seed N]
                    [--replay] [--max-replays N] [--network fair|legacy]
                    [--nimbus-down-ms N] [--journal on|off]
    rstorm rebalance --topology FILE --cluster FILE [--observe-s N]
                    [--rebalance-at-s N] [--pause-ms N] [--alpha X]
                    [--duration-s N] [--seed N]
    rstorm sweep    [--grid quick|full] [--seeds A..B] [--workers N]
                    [--out FILE] [--network fair|legacy]
    rstorm fuzz     --topology FILE --cluster FILE [--iterations N]
                    [--seed N] [--max-atoms N] [--duration-s N]
                    [--scheduler NAME] [--workers N] [--corpus-dir DIR]
                    [--out FILE] [--journal on|off]
    rstorm scale    [--tasks N] [--nodes N] [--horizon-ms N] [--seed N]
                    [--churn]
    rstorm example-specs

SCHEDULERS:
    rstorm (default), default (Storm's round-robin), offline, random,
    exhaustive
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("missing command".into());
    };
    match command.as_str() {
        "schedule" => schedule_cmd(&parse_flags(&args[1..])?),
        "simulate" => simulate_cmd(&parse_flags(&args[1..])?),
        "compare" => compare_cmd(&parse_flags(&args[1..])?),
        "chaos" => chaos_cmd(&parse_flags(&args[1..])?),
        "rebalance" => rebalance_cmd(&parse_flags(&args[1..])?),
        "sweep" => sweep_cmd(&parse_flags(&args[1..])?),
        "fuzz" => fuzz_cmd(&parse_flags(&args[1..])?),
        "scale" => scale_cmd(&parse_flags(&args[1..])?),
        "example-specs" => {
            print_example_specs();
            Ok(())
        }
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Flags that take no value: their presence means `"true"`.
const BOOLEAN_FLAGS: &[&str] = &["replay", "churn"];

fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{flag}`"))?;
        if BOOLEAN_FLAGS.contains(&name) {
            flags.insert(name.to_owned(), "true".to_owned());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_owned(), value.clone());
    }
    Ok(flags)
}

fn load_inputs(flags: &BTreeMap<String, String>) -> Result<(Topology, Cluster), String> {
    let topology_path = flags.get("topology").ok_or("--topology FILE is required")?;
    let cluster_path = flags.get("cluster").ok_or("--cluster FILE is required")?;
    let topology_text = std::fs::read_to_string(topology_path)
        .map_err(|e| format!("reading {topology_path}: {e}"))?;
    let cluster_text = std::fs::read_to_string(cluster_path)
        .map_err(|e| format!("reading {cluster_path}: {e}"))?;
    let topology = parse_topology(&topology_text).map_err(|e| format!("{topology_path}: {e}"))?;
    let cluster = parse_cluster(&cluster_text).map_err(|e| format!("{cluster_path}: {e}"))?;
    Ok((topology, cluster))
}

/// Parses the optional flag `--{name}`; `default` applies when it is
/// absent. Range checks are the caller's.
fn flag<T: FromStr>(flags: &BTreeMap<String, String>, name: &str, default: T) -> Result<T, String> {
    match flags.get(name) {
        Some(raw) => raw.parse().map_err(|_| format!("invalid --{name} `{raw}`")),
        None => Ok(default),
    }
}

/// The worker count: `--workers N` (at least 1), or every core.
fn workers_flag(flags: &BTreeMap<String, String>) -> Result<usize, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    match flag(flags, "workers", cores)? {
        0 => Err("--workers must be at least 1".into()),
        n => Ok(n),
    }
}

/// Applies `--duration-s N` to `config`; absent, the horizon is kept.
fn duration_flag(flags: &BTreeMap<String, String>, config: SimConfig) -> Result<SimConfig, String> {
    let ms = flag(flags, "duration-s", config.sim_time_ms / 1000.0)? * 1000.0;
    if !(ms.is_finite() && ms > 0.0) {
        return Err(format!(
            "--duration-s must be a positive number of seconds, got {}",
            ms / 1000.0
        ));
    }
    Ok(config.with_sim_time_ms(ms))
}

/// Parses `--journal on|off`; `default` applies when the flag is absent.
fn journal_flag(flags: &BTreeMap<String, String>, default: bool) -> Result<bool, String> {
    match flags.get("journal").map(String::as_str) {
        None => Ok(default),
        Some("on") => Ok(true),
        Some("off") => Ok(false),
        Some(other) => Err(format!(
            "invalid --journal `{other}` (expected `on` or `off`)"
        )),
    }
}

fn make_scheduler(flags: &BTreeMap<String, String>) -> Result<Box<dyn Scheduler>, String> {
    let name = flags
        .get("scheduler")
        .map(String::as_str)
        .unwrap_or("rstorm");
    let scheduler: Box<dyn Scheduler> =
        schedulers::by_name(name).ok_or_else(|| format!("unknown scheduler `{name}`"))?;
    Ok(scheduler)
}

fn sim_config(flags: &BTreeMap<String, String>) -> Result<SimConfig, String> {
    let config = duration_flag(flags, SimConfig::default())?;
    let seed = flag(flags, "seed", config.seed)?;
    Ok(config.with_seed(seed))
}

/// Applies `--network fair|legacy` to `config`. Absent, the config is
/// returned untouched (the default `Legacy` model); an unknown word is
/// a typed error carrying [`NetworkModel::parse`]'s message.
fn apply_network_flag(
    flags: &BTreeMap<String, String>,
    config: SimConfig,
) -> Result<SimConfig, String> {
    match flags.get("network") {
        Some(raw) => {
            let model = NetworkModel::parse(raw).map_err(|e| format!("invalid --network: {e}"))?;
            Ok(config.with_network_model(model))
        }
        None => Ok(config),
    }
}

fn schedule_cmd(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let (topology, cluster) = load_inputs(flags)?;
    let scheduler = make_scheduler(flags)?;
    let mut state = GlobalState::new(&cluster);
    let assignment = scheduler
        .schedule(&topology, &cluster, &mut state)
        .map_err(|e| e.to_string())?;

    println!(
        "scheduled `{}` with the {} scheduler: {} tasks on {} machines\n",
        topology.id(),
        scheduler.name(),
        assignment.len(),
        assignment.used_nodes().len()
    );
    let task_set = topology.task_set();
    let rows: Vec<Vec<String>> = task_set
        .tasks()
        .iter()
        .map(|t| {
            vec![
                t.to_string(),
                assignment
                    .slot_of(t.id)
                    .expect("complete assignment")
                    .to_string(),
            ]
        })
        .collect();
    println!("{}", text_table(&["task", "worker slot"], &rows));

    let violations = verify_plan(state.plan(), &[&topology], &cluster);
    if violations.is_empty() {
        println!("plan verified: no constraint violations");
    } else {
        println!("plan has {} violation(s):", violations.len());
        for v in &violations {
            println!("  - {v}");
        }
    }
    Ok(())
}

fn print_report(topology: &Topology, report: &SimReport) {
    println!(
        "steady throughput: {:.0} tuples/10s (mean over sink bolts)",
        report.steady_throughput(topology.id().as_str(), 2)
    );
    println!(
        "tuple latency: mean {:.2} ms (max {:.2} ms over {} completed trees)",
        report.latency_ms.mean, report.latency_ms.max, report.latency_ms.count
    );
    println!(
        "machines used: {}, mean CPU utilization {:.0}%",
        report.used_nodes,
        report.mean_used_cpu_utilization.mean * 100.0
    );
    println!(
        "inter-rack traffic: {:.1} MB; tuple trees timed out: {}",
        report.inter_rack_mb, report.totals.roots_timed_out
    );
}

fn simulate_cmd(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let (topology, cluster) = load_inputs(flags)?;
    let scheduler = make_scheduler(flags)?;
    let config = sim_config(flags)?;
    let mut state = GlobalState::new(&cluster);
    let assignment = scheduler
        .schedule(&topology, &cluster, &mut state)
        .map_err(|e| e.to_string())?;
    let duration = config.sim_time_ms;
    let mut sim = Simulation::new(cluster, config);
    sim.add_topology(&topology, &assignment);
    let report = sim.run();
    println!(
        "simulated `{}` for {:.0} s under the {} scheduler",
        topology.id(),
        duration / 1000.0,
        scheduler.name()
    );
    print_report(&topology, &report);
    Ok(())
}

fn compare_cmd(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let (topology, cluster) = load_inputs(flags)?;
    let config = sim_config(flags)?;
    for scheduler in [
        &RStormScheduler::new() as &dyn Scheduler,
        &EvenScheduler::new(),
    ] {
        let mut state = GlobalState::new(&cluster);
        let assignment = scheduler
            .schedule(&topology, &cluster, &mut state)
            .map_err(|e| e.to_string())?;
        let mut sim = Simulation::new(cluster.clone(), config.clone());
        sim.add_topology(&topology, &assignment);
        let report = sim.run();
        println!("=== {} ===", scheduler.name());
        print_report(&topology, &report);
        println!();
    }
    Ok(())
}

/// Runs a crash-then-recover chaos scenario: schedules with R-Storm,
/// crashes the victim node mid-run, heals it, and reports
/// detection/recovery latency plus the data-plane damage. With
/// `--nimbus-down-ms N` the control plane itself goes dark 2 s before the
/// crash for N ms, and a successor reassumes afterwards — journaled by
/// default, cold with `--journal off` — reporting time-to-reassume and
/// the journal decisions replayed as well. A final plan that violates a
/// constraint is an error.
fn chaos_cmd(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let (topology, cluster) = load_inputs(flags)?;
    let config = apply_network_flag(flags, sim_config(flags)?)?;
    let duration_s = config.sim_time_ms / 1000.0;

    let crash_at_s = flag(flags, "crash-at-s", duration_s / 3.0)?;
    let heal_at_s = flag(flags, "heal-at-s", crash_at_s + duration_s / 4.0)?;
    let (crash_at_ms, heal_at_ms) = (crash_at_s * 1000.0, heal_at_s * 1000.0);
    if !(crash_at_ms >= 0.0 && crash_at_ms < heal_at_ms && heal_at_ms.is_finite()) {
        return Err(format!(
            "need 0 <= --crash-at-s ({crash_at_s}) < --heal-at-s ({heal_at_s})"
        ));
    }

    let cluster = Arc::new(cluster);
    let victim = match flags.get("victim") {
        Some(name) => name.clone(),
        None => {
            // Default to a node the placement actually uses — crashing an
            // idle machine demonstrates nothing.
            let mut state = GlobalState::new(&cluster);
            let assignment = RStormScheduler::new()
                .schedule(&topology, &cluster, &mut state)
                .map_err(|e| e.to_string())?;
            let host = assignment.iter().next().expect("non-empty assignment");
            host.1.node.as_str().to_owned()
        }
    };
    if !cluster.nodes().iter().any(|n| n.id().as_str() == victim) {
        return Err(format!("--victim `{victim}` is not a node of the cluster"));
    }

    // `--replay` turns on guaranteed processing with a default budget of
    // 3 re-emissions per root; `--max-replays` sets the budget exactly.
    let default_replays = if flags.contains_key("replay") { 3 } else { 0 };
    let max_replays: u32 = flag(flags, "max-replays", default_replays)?;

    let mut plan = FaultPlan::new()
        .crash_node(crash_at_ms, &victim)
        .recover_node(heal_at_ms, &victim);
    let mut recovery = RecoveryConfig::default();
    // `--nimbus-down-ms` adds a control-plane outage: Nimbus goes dark
    // 2 s before the crash, so the victim's silence starts while nobody
    // is watching.
    let mut outage = String::new();
    if flags.contains_key("nimbus-down-ms") {
        let down_ms: f64 = flag(flags, "nimbus-down-ms", 0.0)?;
        if !(down_ms.is_finite() && down_ms > 0.0) {
            return Err(format!(
                "--nimbus-down-ms must be a positive duration, got {down_ms}"
            ));
        }
        let down_at_ms = (crash_at_ms - 2_000.0).max(0.0);
        plan = plan.nimbus_crash(down_at_ms, down_ms);
        recovery.journal = journal_flag(flags, true)?;
        outage = format!(
            ", Nimbus down {:.0}..{:.0} s, journal {}",
            down_at_ms / 1000.0,
            (down_at_ms + down_ms) / 1000.0,
            if recovery.journal { "on" } else { "off" }
        );
    } else if flags.contains_key("journal") {
        return Err("--journal requires --nimbus-down-ms".into());
    }

    let out = run_fault_plan_with(
        &cluster,
        &topology,
        &plan,
        &config.with_max_replays(max_replays),
        &recovery,
        &RStormScheduler::new(),
    )
    .map_err(|e| e.to_string())?;

    println!(
        "chaos scenario on `{}`: crash {victim} at {crash_at_s:.0} s, heal at {heal_at_s:.0} s\
         {outage} (sim {duration_s:.0} s{})\n",
        topology.id(),
        if max_replays > 0 {
            format!(", replay budget {max_replays}")
        } else {
            String::new()
        }
    );
    for event in &out.events {
        println!("  {event:?}");
    }
    println!();
    if let Some(audit) = out.reconciliation {
        if audit.time_to_reassume_ms >= 0.0 {
            println!(
                "time to reassume: {:.0} ms after Nimbus went down",
                audit.time_to_reassume_ms
            );
        } else {
            println!("time to reassume: never (the outage outlived the run)");
        }
        println!("journal decisions replayed: {}", audit.decisions_replayed);
    }
    let obs = out.observations;
    if obs.time_to_detect_ms >= 0.0 {
        println!(
            "time to detect: {:.0} ms after the crash",
            obs.time_to_detect_ms
        );
    } else {
        println!("time to detect: never (within the run)");
    }
    if obs.time_to_recover_ms >= 0.0 {
        println!(
            "time to full re-placement: {:.0} ms after the crash",
            obs.time_to_recover_ms
        );
    } else {
        println!("time to full re-placement: never (within the run)");
    }
    println!(
        "tuples lost: {}; throughput dip depth: {:.0}%; reschedule attempts: {}",
        obs.tuples_lost,
        obs.throughput_dip_depth * 100.0,
        obs.reschedule_attempts
    );
    if max_replays > 0 {
        println!(
            "replay: {} roots re-emitted; {} tuples quarantined; zero-loss ratio {:.3}; \
             {} flap(s) suppressed",
            obs.roots_replayed,
            obs.tuples_quarantined,
            out.report.zero_loss_ratio(),
            obs.suppressed_flaps
        );
    }
    println!();
    print_report(&topology, &out.report);

    let violations = verify_plan(&out.plan, &[&topology], &cluster);
    let mut lines = Vec::new();
    if violations.is_empty() {
        println!("final plan verified: no constraint violations");
    } else {
        lines.push(format!("final plan has {} violation(s):", violations.len()));
        lines.extend(violations.iter().map(|v| format!("  - {v}")));
    }
    if !out.violations.is_empty() {
        lines.push(format!("run broke {} invariant(s):", out.violations.len()));
        lines.extend(out.violations.iter().map(|v| format!("  - {v}")));
    }
    if lines.is_empty() {
        Ok(())
    } else {
        Err(lines.join("\n"))
    }
}

/// Runs the adaptive rebalance plane end to end: profiles the R-Storm
/// placement, detects declaration drift, plans a minimal-move migration
/// and reports the static / adaptive / full-reschedule comparison.
fn rebalance_cmd(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let (topology, cluster) = load_inputs(flags)?;
    let config = sim_config(flags)?;
    let duration_s = config.sim_time_ms / 1000.0;

    let mut adaptive = AdaptiveConfig::default();
    // Defaults scale with the horizon so short runs still observe,
    // rebalance and then measure the effect.
    adaptive.observe_ms = flag(flags, "observe-s", duration_s / 3.0)? * 1000.0;
    adaptive.stats_interval_ms = (adaptive.observe_ms / 10.0).max(1.0);
    adaptive.rebalance_at_ms = flag(flags, "rebalance-at-s", duration_s / 3.0)? * 1000.0;
    adaptive.pause_ms = flag(flags, "pause-ms", adaptive.pause_ms)?;
    adaptive.alpha = flag(flags, "alpha", adaptive.alpha)?;
    if !(adaptive.observe_ms > 0.0 && adaptive.observe_ms.is_finite()) {
        return Err(format!(
            "--observe-s must be positive, got {}",
            adaptive.observe_ms / 1000.0
        ));
    }
    if !(adaptive.alpha > 0.0 && adaptive.alpha <= 1.0) {
        return Err(format!("--alpha must be in (0, 1], got {}", adaptive.alpha));
    }
    if !(adaptive.pause_ms >= 0.0 && adaptive.pause_ms.is_finite()) {
        return Err(format!(
            "--pause-ms must be non-negative, got {}",
            adaptive.pause_ms
        ));
    }
    adaptive.sim = config;

    let cluster = Arc::new(cluster);
    let out = run_adaptive_rebalance(&cluster, &topology, &adaptive).map_err(|e| e.to_string())?;

    println!(
        "adaptive rebalance on `{}`: profiled {:.0} s, rebalance at {:.0} s, \
         pause {:.0} ms/task (sim {:.0} s)\n",
        topology.id(),
        adaptive.observe_ms / 1000.0,
        adaptive.rebalance_at_ms / 1000.0,
        adaptive.pause_ms,
        adaptive.sim.sim_time_ms / 1000.0
    );

    if out.drift.is_clean() {
        println!("no declaration drift detected; placement left untouched");
    } else {
        println!("drifted components:");
        let rows: Vec<Vec<String>> = out
            .drift
            .drifted
            .iter()
            .map(|d| {
                vec![
                    d.component.clone(),
                    format!("{:.1}", d.declared_cpu_points),
                    format!("{:.1}", d.observed_cpu_points),
                    format!("{:.2}x", d.ratio),
                ]
            })
            .collect();
        println!(
            "{}",
            text_table(&["component", "declared", "observed", "ratio"], &rows)
        );
        println!(
            "saturated nodes: {:?}; starved nodes: {:?}",
            out.drift.saturated_nodes, out.drift.starved_nodes
        );
    }
    println!();
    if out.plan.is_empty() {
        println!("migration plan: empty (simulation stays bit-identical to static)");
    } else {
        println!(
            "migration plan: {} move(s) (a full reschedule would move {}):",
            out.plan.len(),
            out.rescheduled_moves
        );
        for m in &out.plan.moves {
            println!(
                "  {} ({}) {} -> {}",
                m.task,
                m.component,
                m.from.as_str(),
                m.to.as_str()
            );
        }
    }
    println!();
    println!("net tuples completed over the full horizon:");
    let rows = vec![
        vec!["static".to_owned(), out.static_net().to_string()],
        vec!["adaptive".to_owned(), out.adaptive_net().to_string()],
        vec![
            "full reschedule".to_owned(),
            out.rescheduled_net().to_string(),
        ],
    ];
    println!("{}", text_table(&["strategy", "tuples"], &rows));
    println!("=== adaptive run ===");
    print_report(&topology, &out.adaptive_report);
    Ok(())
}

/// Runs the Monte-Carlo scenario sweep: a preset grid of (workload ×
/// scheduler × fault × seed) runs fanned across a worker pool, with
/// per-group distributions printed and, with `--out`, the deterministic
/// aggregated JSON written to a file.
fn sweep_cmd(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let seeds: SeedRange = match flags.get("seeds") {
        Some(raw) => raw
            .parse()
            .map_err(|e| format!("invalid --seeds `{raw}`: {e}"))?,
        None => SeedRange::new(0, 8).expect("the default seed range is valid"),
    };
    let mut grid = match flags.get("grid").map(String::as_str) {
        None | Some("quick") => rstorm_workloads::sweep::quick_grid(seeds),
        Some("full") => rstorm_workloads::sweep::full_grid(seeds),
        Some(other) => return Err(format!("unknown --grid `{other}` (expected quick or full)")),
    };
    // `--network fair` runs the whole grid on the fair-share plane
    // (congestion specs use it regardless; this flag extends it to every
    // job). `--network legacy` is the explicit default spelling.
    grid.sim = apply_network_flag(flags, grid.sim)?;
    let workers = workers_flag(flags)?;

    println!(
        "sweeping {} jobs ({} cases x {} schedulers x {} faults x {} seeds) on {} worker(s)...",
        grid.job_count(),
        grid.cases.len(),
        grid.schedulers.len(),
        grid.faults.len(),
        seeds.len(),
        workers
    );
    let out = run_sweep(&grid, workers);

    println!(
        "\n{:<40} {:>9} {:>9} {:>10} {:>8} {:>9}",
        "group", "detect", "recover", "net", "±stdev", "zeroloss"
    );
    for g in &out.summary.groups {
        println!(
            "{:<40} {:>7.0}ms {:>7.0}ms {:>10.0} {:>8.0} {:>9.3}",
            g.name, g.detect_ms.p50, g.recover_ms.p50, g.net_mean, g.net_stdev, g.zero_loss_min
        );
    }
    println!(
        "\n{} jobs on {} worker(s) in {:.2} s",
        out.summary.jobs,
        out.workers,
        out.wall.as_secs_f64()
    );

    if let Some(path) = flags.get("out") {
        std::fs::write(path, out.summary.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Runs an invariant-directed chaos-fuzz campaign against the given
/// workload: seeded fault plans sampled from the crash / flap / burst /
/// partition / degrade / Nimbus-outage / control-loss grammar, each
/// checked against the oracle set (accounting invariants, zero loss,
/// detection liveness, reconciliation convergence and
/// placement, determinism), with violating plans shrunk to minimal
/// reproducers. `--corpus-dir` writes each reproducer as a replayable
/// `.plan` file; a campaign that finds violations exits non-zero.
fn fuzz_cmd(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let (topology, cluster) = load_inputs(flags)?;
    let cluster = Arc::new(cluster);
    let name = flags
        .get("scheduler")
        .map(String::as_str)
        .unwrap_or("rstorm");
    let scheduler =
        schedulers::by_name(name).ok_or_else(|| format!("unknown scheduler `{name}`"))?;

    let mut cfg = FuzzConfig::default();
    cfg.iterations = flag(flags, "iterations", cfg.iterations)?;
    if cfg.iterations == 0 {
        return Err("--iterations must be at least 1".into());
    }
    cfg.seed = flag(flags, "seed", cfg.seed)?;
    cfg.max_atoms = flag(flags, "max-atoms", cfg.max_atoms)?;
    if cfg.max_atoms == 0 {
        return Err("--max-atoms must be at least 1".into());
    }
    cfg.sim = duration_flag(flags, cfg.sim)?;
    // Journaled failover is the fuzz default (Nimbus-outage atoms are in
    // the grammar); `--journal off` fuzzes the cold-successor plane.
    cfg.recovery.journal = journal_flag(flags, cfg.recovery.journal)?;
    let workers = workers_flag(flags)?;

    println!(
        "fuzzing `{}` under the {} scheduler: {} iterations, seed {}, horizon {:.0} s, \
         {} worker(s), oracles on\n",
        topology.id(),
        name,
        cfg.iterations,
        cfg.seed,
        cfg.sim.sim_time_ms / 1000.0,
        workers
    );
    let out = run_fuzz_campaign(&cluster, &topology, &*scheduler, &cfg, workers);
    print!("{}", out.campaign_log());

    if let Some(dir) = flags.get("corpus-dir") {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
        for r in &out.reproducers {
            let path = format!("{dir}/fuzz-{}-{:04}.plan", r.seed, r.iteration);
            std::fs::write(&path, r.to_text()).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote {path}");
        }
    }
    if let Some(path) = flags.get("out") {
        std::fs::write(path, out.campaign_log()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }

    if out.is_clean() {
        println!("\ncampaign clean: no oracle violated");
        Ok(())
    } else {
        Err(format!(
            "fuzz campaign tripped {} oracle violation(s); see the shrunk reproducers above",
            out.reproducers.len()
        ))
    }
}

/// Runs the scale plane from the CLI: a √tasks-wide chain of exactly
/// `--tasks` tasks on a `--nodes`-node cluster, optionally with the
/// migration-churn variant (`--churn`) that drives the composed
/// `DeltaScheduler` plans through the run at whatever size fits the
/// terminal's patience.
fn scale_cmd(flags: &BTreeMap<String, String>) -> Result<(), String> {
    use rstorm_workloads::scale;

    let tasks = flag(flags, "tasks", scale::SCALE_TASKS)?;
    if tasks < 2 {
        return Err(format!("--tasks must be at least 2, got {tasks}"));
    }
    let nodes = flag(flags, "nodes", scale::SCALE_NODES)?;
    if nodes == 0 {
        return Err("--nodes must be at least 1".into());
    }
    let horizon_ms = flag(flags, "horizon-ms", scale::SCALE_HORIZON_MS)?;
    if !(horizon_ms > 0.0 && horizon_ms.is_finite()) {
        return Err(format!("--horizon-ms must be positive, got {horizon_ms}"));
    }
    let seed = flag(flags, "seed", SimConfig::default().seed)?;
    let config = SimConfig::default()
        .with_sim_time_ms(horizon_ms)
        .with_seed(seed);
    let churn = flags.contains_key("churn");

    let topology = scale::scale_topology(tasks);
    let cluster = scale::scale_cluster(nodes);
    // Validate schedulability up front so an undersized cluster is a
    // typed error, not a panic out of `churn_plans`.
    let mut state = GlobalState::new(&cluster);
    let assignment = RStormScheduler::new()
        .schedule(&topology, &cluster, &mut state)
        .map_err(|e| format!("{tasks} tasks do not fit on {nodes} nodes: {e}"))?;

    println!(
        "scale plane: {} tasks in {} components on {} nodes, horizon {:.0} s{}",
        tasks,
        topology.components().len(),
        cluster.nodes().len(),
        horizon_ms / 1000.0,
        if churn { ", with migration churn" } else { "" }
    );

    let mut sim = Simulation::new(cluster.clone(), config);
    if churn {
        let (churn_assignment, plans) =
            scale::churn_plans(&topology, &cluster, scale::SCALE_CHURN_ROUNDS);
        let migrations: usize = plans.iter().map(|p| p.len()).sum();
        println!(
            "churn: {} migrations over {} plans",
            migrations,
            plans.len()
        );
        sim.add_topology(&topology, &churn_assignment);
        scale::schedule_churn(&mut sim, &plans, horizon_ms);
    } else {
        sim.add_topology(&topology, &assignment);
    }
    println!();
    let report = sim.run();
    print_report(&topology, &report);
    Ok(())
}

fn print_example_specs() {
    println!("# ---- word-count.spec ----------------------------------");
    println!(
        "topology word-count\nworkers 12\nmax-spout-pending 4\n\n\
         spout sentences parallelism=4 cpu=50 mem=512 work-ms=0.05 bytes=200 rate=7000\n\
         bolt split parallelism=6 cpu=30 mem=256 work-ms=0.04\n  subscribe sentences shuffle\n\
         bolt count parallelism=6 cpu=30 mem=256 work-ms=0.03 emit=0\n  subscribe split fields word\n"
    );
    println!("# ---- emulab.spec ---------------------------------------");
    println!("cluster");
    for rack in 0..2 {
        println!("rack rack-{rack}");
        for node in 0..6 {
            println!("  node rack-{rack}-node-{node} cpu=100 mem=2048 slots=4");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing() {
        let flags = parse_flags(&[
            "--topology".into(),
            "t.spec".into(),
            "--seed".into(),
            "7".into(),
        ])
        .unwrap();
        assert_eq!(flags["topology"], "t.spec");
        assert_eq!(flags["seed"], "7");
        assert!(parse_flags(&["oops".into()]).is_err());
        assert!(parse_flags(&["--dangling".into()]).is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        // `--replay` alone is complete…
        let flags = parse_flags(&["--replay".into()]).unwrap();
        assert_eq!(flags["replay"], "true");
        // …and does not swallow the following flag.
        let flags = parse_flags(&["--replay".into(), "--seed".into(), "9".into()]).unwrap();
        assert_eq!(flags["replay"], "true");
        assert_eq!(flags["seed"], "9");
    }

    #[test]
    fn scheduler_selection() {
        let mut flags = BTreeMap::new();
        assert_eq!(make_scheduler(&flags).unwrap().name(), "rstorm");
        flags.insert("scheduler".into(), "default".into());
        assert_eq!(make_scheduler(&flags).unwrap().name(), "default");
        flags.insert("scheduler".into(), "martian".into());
        assert!(make_scheduler(&flags).is_err());
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&["frobnicate".into()]).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn end_to_end_through_temp_files() {
        let dir = std::env::temp_dir().join("rstorm-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let topo = dir.join("t.spec");
        let clus = dir.join("c.spec");
        std::fs::write(
            &topo,
            "topology t\nspout s parallelism=2 cpu=20 mem=128\n\
             bolt k parallelism=2 cpu=20 mem=128 emit=0\n  subscribe s shuffle\n",
        )
        .unwrap();
        std::fs::write(
            &clus,
            "cluster\nrack r0\n  node n0 cpu=100 mem=2048 slots=4\n  node n1 cpu=100 mem=2048 slots=4\n",
        )
        .unwrap();
        let flags = parse_flags(&[
            "--topology".into(),
            topo.to_string_lossy().into_owned(),
            "--cluster".into(),
            clus.to_string_lossy().into_owned(),
            "--duration-s".into(),
            "20".into(),
        ])
        .unwrap();
        schedule_cmd(&flags).unwrap();
        simulate_cmd(&flags).unwrap();
        compare_cmd(&flags).unwrap();
        chaos_cmd(&flags).unwrap();
        rebalance_cmd(&flags).unwrap();

        // Replay-enabled chaos, both spellings.
        let mut replay = flags.clone();
        replay.insert("replay".into(), "true".into());
        chaos_cmd(&replay).unwrap();
        replay.insert("max-replays".into(), "5".into());
        chaos_cmd(&replay).unwrap();
        replay.insert("max-replays".into(), "-1".into());
        assert!(chaos_cmd(&replay).unwrap_err().contains("max-replays"));

        // Chaos on both network planes: the legacy spelling and the
        // fair-share flow model end to end.
        let mut network = flags.clone();
        network.insert("network".into(), "legacy".into());
        chaos_cmd(&network).unwrap();
        network.insert("network".into(), "fair".into());
        chaos_cmd(&network).unwrap();
        network.insert("network".into(), "warp".into());
        let err = chaos_cmd(&network).unwrap_err();
        assert!(err.contains("--network") && err.contains("warp"), "{err}");

        // A Nimbus outage bridged by the journaled successor, then the
        // cold-failover variant.
        let mut nimbus = flags.clone();
        nimbus.insert("replay".into(), "true".into());
        nimbus.insert("nimbus-down-ms".into(), "4000".into());
        chaos_cmd(&nimbus).unwrap();
        nimbus.insert("journal".into(), "off".into());
        chaos_cmd(&nimbus).unwrap();

        // An honest two-component topology must be rejected-free but also
        // reject nonsense rebalance knobs.
        let mut bad = flags.clone();
        bad.insert("alpha".into(), "3".into());
        assert!(rebalance_cmd(&bad).unwrap_err().contains("alpha"));
    }

    /// Flags for a topology whose spout needs more memory than any node
    /// has, so no scheduler can place it.
    fn unplaceable_flags(test: &str) -> BTreeMap<String, String> {
        let dir = std::env::temp_dir().join(test);
        std::fs::create_dir_all(&dir).unwrap();
        let topo = dir.join("t.spec");
        let clus = dir.join("c.spec");
        std::fs::write(
            &topo,
            "topology t\nspout s parallelism=1 cpu=20 mem=9000\n\
             bolt k parallelism=1 cpu=20 mem=128 emit=0\n  subscribe s shuffle\n",
        )
        .unwrap();
        std::fs::write(
            &clus,
            "cluster\nrack r0\n  node n0 cpu=100 mem=2048 slots=4\n  node n1 cpu=100 mem=2048 slots=4\n",
        )
        .unwrap();
        parse_flags(&[
            "--topology".into(),
            topo.to_string_lossy().into_owned(),
            "--cluster".into(),
            clus.to_string_lossy().into_owned(),
            "--duration-s".into(),
            "20".into(),
        ])
        .unwrap()
    }

    #[test]
    fn chaos_on_an_unplaceable_topology_is_an_error() {
        // With an explicit victim the CLI never places the topology
        // itself, so the failure comes from the chaos runner.
        let mut flags = unplaceable_flags("rstorm-cli-unplaceable-chaos-test");
        flags.insert("victim".into(), "n0".into());
        let err = chaos_cmd(&flags).unwrap_err();
        assert!(err.contains("no initial placement"), "{err}");
        flags.insert("nimbus-down-ms".into(), "4000".into());
        let err = chaos_cmd(&flags).unwrap_err();
        assert!(err.contains("no initial placement"), "{err}");
    }

    #[test]
    fn rebalance_on_an_unplaceable_topology_is_an_error() {
        let flags = unplaceable_flags("rstorm-cli-unplaceable-rebalance-test");
        let err = rebalance_cmd(&flags).unwrap_err();
        assert!(err.contains("no initial placement"), "{err}");
    }

    #[test]
    fn sweep_rejects_bad_arguments_with_typed_errors() {
        // Inverted and empty ranges surface the typed ParseRangeError
        // message instead of panicking.
        let mut flags = BTreeMap::new();
        flags.insert("seeds".into(), "9..2".into());
        let err = sweep_cmd(&flags).unwrap_err();
        assert!(err.contains("no seeds"), "{err}");
        flags.insert("seeds".into(), "5..5".into());
        let err = sweep_cmd(&flags).unwrap_err();
        assert!(err.contains("no seeds"), "{err}");
        flags.insert("seeds".into(), "abc".into());
        let err = sweep_cmd(&flags).unwrap_err();
        assert!(err.contains("start..end"), "{err}");
        flags.insert("seeds".into(), "0..x".into());
        let err = sweep_cmd(&flags).unwrap_err();
        assert!(err.contains("not a non-negative integer"), "{err}");

        flags.insert("seeds".into(), "0..4".into());
        flags.insert("grid".into(), "medium".into());
        assert!(sweep_cmd(&flags).unwrap_err().contains("--grid"));
        flags.insert("grid".into(), "quick".into());
        flags.insert("workers".into(), "0".into());
        assert!(sweep_cmd(&flags).unwrap_err().contains("--workers"));
        flags.insert("workers".into(), "two".into());
        assert!(sweep_cmd(&flags).unwrap_err().contains("--workers"));
        flags.insert("workers".into(), "2".into());
        flags.insert("network".into(), "warp".into());
        let err = sweep_cmd(&flags).unwrap_err();
        assert!(err.contains("--network") && err.contains("warp"), "{err}");
    }

    #[test]
    fn chaos_rejects_bad_inputs() {
        let dir = std::env::temp_dir().join("rstorm-cli-chaos-test");
        std::fs::create_dir_all(&dir).unwrap();
        let topo = dir.join("t.spec");
        let clus = dir.join("c.spec");
        std::fs::write(
            &topo,
            "topology t\nspout s parallelism=1 cpu=20 mem=128\n\
             bolt k parallelism=1 cpu=20 mem=128 emit=0\n  subscribe s shuffle\n",
        )
        .unwrap();
        std::fs::write(
            &clus,
            "cluster\nrack r0\n  node n0 cpu=100 mem=2048 slots=4\n  node n1 cpu=100 mem=2048 slots=4\n",
        )
        .unwrap();
        let base = vec![
            "--topology".to_owned(),
            topo.to_string_lossy().into_owned(),
            "--cluster".to_owned(),
            clus.to_string_lossy().into_owned(),
        ];
        let mut bad_victim = base.clone();
        bad_victim.extend(["--victim".to_owned(), "ghost".to_owned()]);
        let err = chaos_cmd(&parse_flags(&bad_victim).unwrap()).unwrap_err();
        assert!(err.contains("ghost"), "{err}");

        let mut bad_times = base.clone();
        bad_times.extend([
            "--crash-at-s".to_owned(),
            "50".to_owned(),
            "--heal-at-s".to_owned(),
            "10".to_owned(),
        ]);
        let err = chaos_cmd(&parse_flags(&bad_times).unwrap()).unwrap_err();
        assert!(err.contains("crash-at-s"), "{err}");

        // Control-outage flags: a non-positive duration, a --journal
        // value that is neither on nor off, and --journal without the
        // outage all surface typed errors.
        let mut bad_nimbus = base.clone();
        bad_nimbus.extend(["--nimbus-down-ms".to_owned(), "-5".to_owned()]);
        let err = chaos_cmd(&parse_flags(&bad_nimbus).unwrap()).unwrap_err();
        assert!(err.contains("--nimbus-down-ms"), "{err}");

        let mut bad_journal = base.clone();
        bad_journal.extend([
            "--nimbus-down-ms".to_owned(),
            "4000".to_owned(),
            "--journal".to_owned(),
            "maybe".to_owned(),
        ]);
        let err = chaos_cmd(&parse_flags(&bad_journal).unwrap()).unwrap_err();
        assert!(err.contains("--journal") && err.contains("maybe"), "{err}");

        let mut stray_journal = base.clone();
        stray_journal.extend(["--journal".to_owned(), "on".to_owned()]);
        let err = chaos_cmd(&parse_flags(&stray_journal).unwrap()).unwrap_err();
        assert!(err.contains("--nimbus-down-ms"), "{err}");
    }

    /// Flags naming a two-node cluster and a topology given as spec text.
    fn spec_flags(test: &str, topology: &str) -> BTreeMap<String, String> {
        let dir = std::env::temp_dir().join(test);
        std::fs::create_dir_all(&dir).unwrap();
        let topo = dir.join("t.spec");
        let clus = dir.join("c.spec");
        std::fs::write(&topo, topology).unwrap();
        std::fs::write(
            &clus,
            "cluster\nrack r0\n  node n0 cpu=100 mem=2048 slots=4\n  node n1 cpu=100 mem=2048 slots=4\n",
        )
        .unwrap();
        let mut flags = BTreeMap::new();
        flags.insert("topology".into(), topo.to_string_lossy().into_owned());
        flags.insert("cluster".into(), clus.to_string_lossy().into_owned());
        flags
    }

    #[test]
    fn non_positive_duration_is_a_typed_error_in_every_command() {
        let base = spec_flags(
            "rstorm-cli-duration-test",
            "topology t\nspout s parallelism=1 cpu=20 mem=128\n\
             bolt k parallelism=1 cpu=20 mem=128 emit=0\n  subscribe s shuffle\n",
        );
        type Command = fn(&BTreeMap<String, String>) -> Result<(), String>;
        let commands: [(&str, Command); 5] = [
            ("simulate", simulate_cmd),
            ("compare", compare_cmd),
            ("chaos", chaos_cmd),
            ("rebalance", rebalance_cmd),
            ("fuzz", fuzz_cmd),
        ];
        for (name, command) in commands {
            for bad in ["0", "-5", "NaN", "inf"] {
                let mut flags = base.clone();
                flags.insert("duration-s".into(), bad.into());
                let err = command(&flags).unwrap_err();
                assert!(err.contains("--duration-s"), "{name} {bad}: {err}");
            }
        }
    }

    #[test]
    fn fuzz_runs_a_tiny_clean_campaign() {
        let dir = std::env::temp_dir().join("rstorm-cli-fuzz-test");
        std::fs::create_dir_all(&dir).unwrap();
        let topo = dir.join("t.spec");
        let clus = dir.join("c.spec");
        std::fs::write(
            &topo,
            "topology t\nspout s parallelism=1 cpu=20 mem=128\n\
             bolt k parallelism=1 cpu=20 mem=128 emit=0\n  subscribe s shuffle\n",
        )
        .unwrap();
        std::fs::write(
            &clus,
            "cluster\nrack r0\n  node n0 cpu=100 mem=2048 slots=4\n  node n1 cpu=100 mem=2048 slots=4\n",
        )
        .unwrap();
        let log = dir.join("campaign.log");
        let flags = parse_flags(&[
            "--topology".into(),
            topo.to_string_lossy().into_owned(),
            "--cluster".into(),
            clus.to_string_lossy().into_owned(),
            "--iterations".into(),
            "3".into(),
            "--duration-s".into(),
            "20".into(),
            "--workers".into(),
            "2".into(),
            "--out".into(),
            log.to_string_lossy().into_owned(),
        ])
        .unwrap();
        fuzz_cmd(&flags).unwrap();
        let written = std::fs::read_to_string(&log).unwrap();
        assert!(written.contains("violations=0"), "{written}");
    }

    #[test]
    fn fuzz_rejects_bad_arguments_with_typed_errors() {
        let with = |pairs: &[(&str, &str)]| {
            let mut flags = BTreeMap::new();
            for (k, v) in pairs {
                flags.insert((*k).to_owned(), (*v).to_owned());
            }
            flags
        };
        // Input validation fires before the specs are even needed only
        // for missing files; flag errors need the inputs loaded first.
        let dir = std::env::temp_dir().join("rstorm-cli-fuzz-bad-test");
        std::fs::create_dir_all(&dir).unwrap();
        let topo = dir.join("t.spec");
        let clus = dir.join("c.spec");
        std::fs::write(
            &topo,
            "topology t\nspout s parallelism=1 cpu=20 mem=128\n\
             bolt k parallelism=1 cpu=20 mem=128 emit=0\n  subscribe s shuffle\n",
        )
        .unwrap();
        std::fs::write(
            &clus,
            "cluster\nrack r0\n  node n0 cpu=100 mem=2048 slots=4\n",
        )
        .unwrap();
        let t = topo.to_string_lossy().into_owned();
        let c = clus.to_string_lossy().into_owned();
        let base: &[(&str, &str)] = &[("topology", t.as_str()), ("cluster", c.as_str())];
        let mut bad = with(base);
        bad.insert("iterations".into(), "0".into());
        assert!(fuzz_cmd(&bad).unwrap_err().contains("--iterations"));
        let mut bad = with(base);
        bad.insert("max-atoms".into(), "none".into());
        assert!(fuzz_cmd(&bad).unwrap_err().contains("--max-atoms"));
        let mut bad = with(base);
        bad.insert("workers".into(), "0".into());
        assert!(fuzz_cmd(&bad).unwrap_err().contains("--workers"));
        let mut bad = with(base);
        bad.insert("scheduler".into(), "martian".into());
        assert!(fuzz_cmd(&bad).unwrap_err().contains("martian"));
        let mut bad = with(base);
        bad.insert("journal".into(), "sometimes".into());
        let err = fuzz_cmd(&bad).unwrap_err();
        assert!(
            err.contains("--journal") && err.contains("sometimes"),
            "{err}"
        );
    }

    #[test]
    fn scale_runs_small_cases_end_to_end() {
        let args = |extra: &[&str]| {
            let mut v = vec![
                "--tasks".to_owned(),
                "50".to_owned(),
                "--nodes".to_owned(),
                "6".to_owned(),
                "--horizon-ms".to_owned(),
                "5000".to_owned(),
            ];
            v.extend(extra.iter().map(|s| (*s).to_owned()));
            parse_flags(&v).unwrap()
        };
        scale_cmd(&args(&[])).unwrap();
        scale_cmd(&args(&["--churn"])).unwrap();
        scale_cmd(&args(&["--seed", "7"])).unwrap();
    }

    #[test]
    fn scale_rejects_bad_arguments_with_typed_errors() {
        let with = |pairs: &[(&str, &str)]| {
            let mut flags = BTreeMap::new();
            for (k, v) in pairs {
                flags.insert((*k).to_owned(), (*v).to_owned());
            }
            flags
        };
        let err = scale_cmd(&with(&[("tasks", "1")])).unwrap_err();
        assert!(err.contains("--tasks"), "{err}");
        let err = scale_cmd(&with(&[("tasks", "lots")])).unwrap_err();
        assert!(err.contains("--tasks"), "{err}");
        let err = scale_cmd(&with(&[("tasks", "4"), ("nodes", "0")])).unwrap_err();
        assert!(err.contains("--nodes"), "{err}");
        let err = scale_cmd(&with(&[
            ("tasks", "4"),
            ("nodes", "1"),
            ("horizon-ms", "-5"),
        ]))
        .unwrap_err();
        assert!(err.contains("--horizon-ms"), "{err}");
        let err = scale_cmd(&with(&[("tasks", "4"), ("nodes", "1"), ("seed", "x")])).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        // An honestly undersized cluster is a typed error, not a panic.
        let err = scale_cmd(&with(&[("tasks", "500"), ("nodes", "1")])).unwrap_err();
        assert!(err.contains("do not fit"), "{err}");
    }
}
