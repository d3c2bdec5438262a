//! The `rstorm` command-line interface: schedule, verify, simulate and
//! compare topologies described in plain-text spec files (see the
//! `rstorm-spec` crate for the formats).
//!
//! ```text
//! rstorm schedule --topology topo.spec --cluster cluster.spec [--scheduler NAME]
//! rstorm simulate --topology topo.spec --cluster cluster.spec [--duration-s N] [--seed N]
//! rstorm compare  --topology topo.spec --cluster cluster.spec [--duration-s N]
//! rstorm chaos    --topology topo.spec --cluster cluster.spec [--plan FILE] [--duration-s N]
//! rstorm sweep    [--grid quick|full] [--seeds A..B] [--workers N] [--out FILE]
//! rstorm fuzz     --topology topo.spec --cluster cluster.spec [--iterations N] [--seed N]
//! rstorm scale    [--tasks N] [--nodes N] [--horizon-ms N] [--seed N] [--churn]
//! rstorm reproduce [--figure 8|9|10|12|13|ablation]
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
    FaultPlan, FuzzConfig, NetworkModel, RecoveryObservations, SeedRange, SimConfig, SimReport,
    Simulation, HOST_PLACEHOLDER,
};
use rstorm_spec::{parse_cluster, parse_topology};
use rstorm_topology::Topology;
use rstorm_workloads::figures::{self, Figure};
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
    rstorm chaos    --topology FILE --cluster FILE [--plan FILE | [--victim NODE]
                    [--crash-at-s N] [--heal-at-s N] [--nimbus-down-ms N]]
                    [--duration-s N] [--seed N] [--replay] [--max-replays N]
                    [--network fair|legacy] [--journal on|off]
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
    rstorm reproduce [--figure 8|9|10|12|13|ablation]
    rstorm example-specs

SCHEDULERS:
    rstorm (default), default (Storm's round-robin), offline, random,
    exhaustive

CHAOS PLANS (--plan FILE; one event per line, times in ms):
    crash AT NODE, recover AT NODE, degrade AT UNTIL EXTRA, partition AT UNTIL RACK,
    nimbus AT DOWN, ctrl-loss AT UNTIL. The node {host} and the rack {host_rack}
    stand for the first task's node and rack; the fault flags build such a plan.
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

/// A command that takes flags.
type Command = fn(&BTreeMap<String, String>) -> Result<(), String>;

/// Every command that takes flags, with the flags it reads (names
/// without `--`, separated by spaces). Any other flag is an error, so a
/// typo or another command's flag never runs silently with a default.
const COMMANDS: [(&str, Command, &str); 9] = [
    ("schedule", schedule_cmd, "topology cluster scheduler"),
    (
        "simulate",
        simulate_cmd,
        "topology cluster scheduler duration-s seed",
    ),
    ("compare", compare_cmd, "topology cluster duration-s seed"),
    (
        "chaos",
        chaos_cmd,
        "topology cluster plan victim crash-at-s heal-at-s nimbus-down-ms duration-s seed \
         replay max-replays network journal",
    ),
    (
        "rebalance",
        rebalance_cmd,
        "topology cluster observe-s rebalance-at-s pause-ms alpha duration-s seed",
    ),
    ("sweep", sweep_cmd, "grid seeds workers out network"),
    (
        "fuzz",
        fuzz_cmd,
        "topology cluster iterations seed max-atoms duration-s scheduler workers corpus-dir \
         out journal",
    ),
    ("scale", scale_cmd, "tasks nodes horizon-ms seed churn"),
    ("reproduce", reproduce_cmd, "figure"),
];

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("missing command".into());
    };
    match command.as_str() {
        "example-specs" => {
            print_example_specs();
            Ok(())
        }
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            Ok(())
        }
        name => {
            let (_, command, accepted) = COMMANDS
                .iter()
                .find(|(known, ..)| *known == name)
                .ok_or_else(|| format!("unknown command `{name}`"))?;
            command(&parse_flags(name, accepted, &args[1..])?)
        }
    }
}

/// Flags that take no value: their presence means `"true"`.
const BOOLEAN_FLAGS: &[&str] = &["replay", "churn"];

/// Parses `--name value` pairs (and the [`BOOLEAN_FLAGS`]) for
/// `command`, which reads only the space-separated flags in `accepted`.
fn parse_flags(
    command: &str,
    accepted: &str,
    args: &[String],
) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{flag}`"))?;
        if !accepted.split_whitespace().any(|known| known == name) {
            return Err(format!("`rstorm {command}` takes no --{name} flag"));
        }
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

/// The scheduler `--scheduler NAME` names (R-Storm when absent).
fn make_scheduler(
    flags: &BTreeMap<String, String>,
) -> Result<Box<dyn Scheduler + Send + Sync>, String> {
    let name = flags
        .get("scheduler")
        .map(String::as_str)
        .unwrap_or("rstorm");
    schedulers::by_name(name).ok_or_else(|| format!("unknown scheduler `{name}`"))
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
    let duration = config.sim_time_ms;
    let report = figures::run(&*scheduler, &[&topology], &Arc::new(cluster), config)
        .map_err(|e| e.to_string())?;
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
    let cluster = Arc::new(cluster);
    for scheduler in [
        &RStormScheduler::new() as &dyn Scheduler,
        &EvenScheduler::new(),
    ] {
        let report = figures::run(scheduler, &[&topology], &cluster, config.clone())
            .map_err(|e| e.to_string())?;
        println!("=== {} ===", scheduler.name());
        print_report(&topology, &report);
        println!();
    }
    Ok(())
}

/// Runs a fault scenario through the closed recovery loop and reports
/// detection/recovery latency plus the data-plane damage. The scenario
/// is a fault plan (see [`chaos_plan`]); when it has control faults the
/// report adds time-to-reassume and the journal decisions replayed. A
/// final plan that violates a constraint is an error.
fn chaos_cmd(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let (topology, cluster) = load_inputs(flags)?;
    let config = apply_network_flag(flags, sim_config(flags)?)?;
    let duration_s = config.sim_time_ms / 1000.0;
    let plan = chaos_plan(flags, duration_s)?;
    if flags.contains_key("journal") && !plan.has_control_faults() {
        let hint = "--nimbus-down-ms, or a `nimbus` or `ctrl-loss` line in --plan";
        return Err(format!("--journal needs control faults ({hint})"));
    }
    // As in the sweep, the journal is on exactly when the plan has
    // control faults; `--journal off` runs their cold-failover variant.
    let recovery = RecoveryConfig {
        journal: plan.has_control_faults() && journal_flag(flags, true)?,
        ..RecoveryConfig::default()
    };

    // `--replay` turns on guaranteed processing with a default budget of
    // 3 re-emissions per root; `--max-replays` sets the budget exactly.
    let default_replays = if flags.contains_key("replay") { 3 } else { 0 };
    let max_replays: u32 = flag(flags, "max-replays", default_replays)?;

    let cluster = Arc::new(cluster);
    let out = run_fault_plan_with(
        &cluster,
        &topology,
        &plan,
        &config.with_max_replays(max_replays),
        &recovery,
        &RStormScheduler::new(),
    )
    .map_err(|e| e.to_string())?;

    let mut run = format!("sim {duration_s:.0} s");
    if max_replays > 0 {
        run.push_str(&format!(", replay budget {max_replays}"));
    }
    if plan.has_control_faults() {
        let journal = if recovery.journal { "on" } else { "off" };
        run.push_str(&format!(", journal {journal}"));
    }
    println!("chaos scenario on `{}` ({run}), fault plan:", topology.id());
    for line in out.fault_plan.to_text().lines() {
        println!("  {line}");
    }
    println!();
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
    print!("{}", recovery_times(&obs));
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

/// The detection and re-placement lines of `rstorm chaos`. Both times
/// are measured from the anchor the runner uses,
/// [`RecoveryObservations::crash_at_ms`]: the plan's first data-plane
/// fault, which may be a partition or a degraded link.
fn recovery_times(obs: &RecoveryObservations) -> String {
    let after_first_fault = |ms: f64| {
        if ms >= 0.0 {
            format!(
                "{ms:.0} ms after the first fault (at {:.1} s)",
                obs.crash_at_ms / 1000.0
            )
        } else {
            "never (within the run)".to_owned()
        }
    };
    format!(
        "time to detect: {}\ntime to full re-placement: {}\n",
        after_first_fault(obs.time_to_detect_ms),
        after_first_fault(obs.time_to_recover_ms)
    )
}

/// The fault plan `rstorm chaos` runs. `--plan FILE` reads any
/// [`FaultPlan::to_text`] file; `#` lines are skipped, so a fuzz-corpus
/// reproducer runs as it is. Without it, the flags are sugar for a
/// crash-then-heal plan: `--victim` (default `{host}`, the node of the
/// placement's first task) crashes at `--crash-at-s` (default a third of
/// the run) and heals at `--heal-at-s` (default a quarter of the run
/// later). `--nimbus-down-ms N` adds a Nimbus outage of N ms starting
/// 2 s before the crash, so the victim's silence starts while nobody is
/// watching. Combining `--plan` with any of those flags is an error.
fn chaos_plan(flags: &BTreeMap<String, String>, duration_s: f64) -> Result<FaultPlan, String> {
    const SUGAR: [&str; 4] = ["victim", "crash-at-s", "heal-at-s", "nimbus-down-ms"];
    if let Some(path) = flags.get("plan") {
        if let Some(sugar) = SUGAR.iter().find(|name| flags.contains_key(**name)) {
            return Err(format!(
                "--{sugar} cannot be combined with --plan (write the fault into the plan file)"
            ));
        }
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        return FaultPlan::from_text(&text).map_err(|e| format!("{path}: {e}"));
    }

    let crash_at_s = flag(flags, "crash-at-s", duration_s / 3.0)?;
    let heal_at_s = flag(flags, "heal-at-s", crash_at_s + duration_s / 4.0)?;
    let (crash_at_ms, heal_at_ms) = (crash_at_s * 1000.0, heal_at_s * 1000.0);
    if !(crash_at_ms >= 0.0 && crash_at_ms < heal_at_ms && heal_at_ms.is_finite()) {
        return Err(format!(
            "need 0 <= --crash-at-s ({crash_at_s}) < --heal-at-s ({heal_at_s})"
        ));
    }
    let victim = flags.get("victim").map_or(HOST_PLACEHOLDER, String::as_str);
    let mut plan = FaultPlan::new()
        .crash_node(crash_at_ms, victim)
        .recover_node(heal_at_ms, victim);
    if flags.contains_key("nimbus-down-ms") {
        let down_ms: f64 = flag(flags, "nimbus-down-ms", 0.0)?;
        if !(down_ms.is_finite() && down_ms > 0.0) {
            return Err(format!(
                "--nimbus-down-ms must be a positive duration, got {down_ms}"
            ));
        }
        plan = plan.nimbus_crash((crash_at_ms - 2_000.0).max(0.0), down_ms);
    }
    Ok(plan)
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
    let scheduler = make_scheduler(flags)?;

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
        scheduler.name(),
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

/// Reproduces the paper's figures: every figure's rows, or with
/// `--figure` one figure's rows and its per-window series.
fn reproduce_cmd(flags: &BTreeMap<String, String>) -> Result<(), String> {
    match flags.get("figure") {
        None => print!("{}", figures::render(&figures::table())),
        Some(raw) => {
            let figure: Figure = raw.parse().map_err(|e| format!("invalid --figure: {e}"))?;
            let run = figures::run_figure(figure, figure.horizon_ms());
            print!("{}", figures::render(&run.rows));
            print!("{}", figures::render_series(&run.series));
        }
    }
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

    /// [`parse_flags`] with `command`'s own flag list.
    fn flags_of(command: &str, args: &[String]) -> Result<BTreeMap<String, String>, String> {
        let (_, _, accepted) = COMMANDS
            .iter()
            .find(|(known, ..)| *known == command)
            .expect("a command that takes flags");
        parse_flags(command, accepted, args)
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn flag_parsing() {
        let flags = flags_of(
            "simulate",
            &strings(&["--topology", "t.spec", "--seed", "7"]),
        )
        .unwrap();
        assert_eq!(flags["topology"], "t.spec");
        assert_eq!(flags["seed"], "7");
        assert!(flags_of("simulate", &strings(&["oops"])).is_err());
        let err = flags_of("simulate", &strings(&["--seed"])).unwrap_err();
        assert!(err.contains("--seed needs a value"), "{err}");
    }

    #[test]
    fn boolean_flags_take_no_value() {
        // `--replay` alone is complete…
        let flags = flags_of("chaos", &strings(&["--replay"])).unwrap();
        assert_eq!(flags["replay"], "true");
        // …and does not swallow the following flag.
        let flags = flags_of("chaos", &strings(&["--replay", "--seed", "9"])).unwrap();
        assert_eq!(flags["replay"], "true");
        assert_eq!(flags["seed"], "9");
    }

    /// A flag the command does not read is an error naming the flag and
    /// the command, raised before any input is read.
    #[test]
    fn commands_reject_flags_they_do_not_read() {
        for (args, flag, command) in [
            (
                &[
                    "chaos",
                    "--topology",
                    "t",
                    "--cluster",
                    "c",
                    "--scheduler",
                    "even",
                ][..],
                "--scheduler",
                "rstorm chaos",
            ),
            (&["chaos", "--plna", "x.plan"][..], "--plna", "rstorm chaos"),
            (
                &["sweep", "--topology", "t"][..],
                "--topology",
                "rstorm sweep",
            ),
        ] {
            let err = run(&strings(args)).unwrap_err();
            assert!(
                err.contains(flag) && err.contains(command),
                "{args:?}: {err}"
            );
        }
    }

    /// `--figure` names one of the paper's figures, and anything else is
    /// an error naming them, raised before any figure runs. `reproduce`
    /// takes no other flag: the horizons and the seed are the table's.
    #[test]
    fn reproduce_takes_only_a_known_figure() {
        for bad in ["7", "x"] {
            let err = run(&strings(&["reproduce", "--figure", bad])).unwrap_err();
            assert!(
                err.contains("--figure")
                    && err.contains(&format!("`{bad}`"))
                    && err.contains("8, 9, 10, 12, 13, ablation"),
                "{err}"
            );
        }
        for (args, flag) in [
            (&["reproduce", "--seed", "1"][..], "--seed"),
            (&["reproduce", "--quick"][..], "--quick"),
        ] {
            let err = run(&strings(args)).unwrap_err();
            assert!(
                err.contains("rstorm reproduce") && err.contains(flag),
                "{args:?}: {err}"
            );
        }
    }

    /// Every flag `USAGE` lists for a command is one that command
    /// accepts, and it lists every flag the command accepts.
    #[test]
    fn usage_flags_are_the_accepted_flags() {
        let mut listed: BTreeMap<&str, Vec<String>> = BTreeMap::new();
        let mut current = None;
        for line in USAGE.lines() {
            if let Some(rest) = line.trim_start().strip_prefix("rstorm ") {
                current = rest.split_whitespace().next();
            } else if !line.starts_with("    ") || line.trim().is_empty() {
                current = None;
            }
            let Some(command) = current else {
                continue;
            };
            let words = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            for word in words {
                if let Some(name) = word.strip_prefix("--") {
                    listed.entry(command).or_default().push(name.to_owned());
                }
            }
        }
        for (command, _, accepted) in COMMANDS {
            let names = listed.remove(command).unwrap_or_default();
            let mut sorted = names.clone();
            sorted.sort();
            let mut expected: Vec<&str> = accepted.split_whitespace().collect();
            expected.sort_unstable();
            assert_eq!(sorted, expected, "USAGE vs the flags of `{command}`");
            for name in &names {
                let mut args = vec![format!("--{name}")];
                if !BOOLEAN_FLAGS.contains(&name.as_str()) {
                    args.push("x".to_owned());
                }
                flags_of(command, &args).unwrap_or_else(|e| panic!("{command}: {e}"));
            }
        }
        assert!(
            listed.is_empty(),
            "USAGE lists unknown commands: {listed:?}"
        );
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
        let flags = flags_of(
            "simulate",
            &[
                "--topology".into(),
                topo.to_string_lossy().into_owned(),
                "--cluster".into(),
                clus.to_string_lossy().into_owned(),
                "--duration-s".into(),
                "20".into(),
            ],
        )
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
        flags_of(
            "chaos",
            &[
                "--topology".into(),
                topo.to_string_lossy().into_owned(),
                "--cluster".into(),
                clus.to_string_lossy().into_owned(),
                "--duration-s".into(),
                "20".into(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn chaos_on_an_unplaceable_topology_is_an_error() {
        // The CLI never places the topology itself, so the failure comes
        // from the chaos runner, with an explicit victim or without.
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
        let err = chaos_cmd(&flags_of("chaos", &bad_victim).unwrap()).unwrap_err();
        assert!(err.contains("ghost"), "{err}");

        let mut bad_times = base.clone();
        bad_times.extend([
            "--crash-at-s".to_owned(),
            "50".to_owned(),
            "--heal-at-s".to_owned(),
            "10".to_owned(),
        ]);
        let err = chaos_cmd(&flags_of("chaos", &bad_times).unwrap()).unwrap_err();
        assert!(err.contains("crash-at-s"), "{err}");

        // Control-outage flags: a non-positive duration, a --journal
        // value that is neither on nor off, and --journal without the
        // outage all surface typed errors.
        let mut bad_nimbus = base.clone();
        bad_nimbus.extend(["--nimbus-down-ms".to_owned(), "-5".to_owned()]);
        let err = chaos_cmd(&flags_of("chaos", &bad_nimbus).unwrap()).unwrap_err();
        assert!(err.contains("--nimbus-down-ms"), "{err}");

        let mut bad_journal = base.clone();
        bad_journal.extend([
            "--nimbus-down-ms".to_owned(),
            "4000".to_owned(),
            "--journal".to_owned(),
            "maybe".to_owned(),
        ]);
        let err = chaos_cmd(&flags_of("chaos", &bad_journal).unwrap()).unwrap_err();
        assert!(err.contains("--journal") && err.contains("maybe"), "{err}");

        let mut stray_journal = base.clone();
        stray_journal.extend(["--journal".to_owned(), "on".to_owned()]);
        let err = chaos_cmd(&flags_of("chaos", &stray_journal).unwrap()).unwrap_err();
        assert!(err.contains("--nimbus-down-ms"), "{err}");
    }

    /// Flags naming the fuzz corpus's committed workload specs, run for
    /// 30 s.
    fn corpus_flags() -> (std::path::PathBuf, BTreeMap<String, String>) {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fuzz_corpus");
        let mut flags = BTreeMap::new();
        for (name, file) in [
            ("topology", "corpus.topology"),
            ("cluster", "corpus.cluster"),
        ] {
            flags.insert(name.into(), dir.join(file).to_string_lossy().into_owned());
        }
        flags.insert("duration-s".into(), "30".into());
        (dir, flags)
    }

    #[test]
    fn chaos_runs_every_corpus_plan_as_written() {
        let (dir, flags) = corpus_flags();
        let mut plans: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "plan"))
            .collect();
        plans.sort();
        assert!(!plans.is_empty(), "the corpus must not be empty");
        for path in &plans {
            let mut run = flags.clone();
            run.insert("plan".into(), path.to_string_lossy().into_owned());
            chaos_cmd(&run).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        }

        // The fault flags are sugar for a plan: none of them mixes with
        // `--plan`.
        for sugar in ["victim", "crash-at-s", "heal-at-s", "nimbus-down-ms"] {
            let mut mixed = flags.clone();
            mixed.insert("plan".into(), plans[0].to_string_lossy().into_owned());
            mixed.insert(sugar.into(), "1".into());
            let err = chaos_cmd(&mixed).unwrap_err();
            assert!(
                err.contains(&format!("--{sugar}")) && err.contains("--plan"),
                "{err}"
            );
        }
    }

    #[test]
    fn chaos_plan_files_fill_the_host_and_derive_the_journal() {
        let (_, flags) = corpus_flags();
        let dir = std::env::temp_dir().join("rstorm-cli-chaos-plan-test");
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, text: &str| {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            let mut run = flags.clone();
            run.insert("plan".into(), path.to_string_lossy().into_owned());
            run
        };
        // Placeholders, a rack partition and a Nimbus outage: the journal
        // is on by default, and `--journal off` is accepted.
        let mut outage = write(
            "outage.plan",
            "# a comment\ncrash 8000.0 {host}\nrecover 16000.0 {host}\n\
             partition 20000.0 24000.0 {host_rack}\nnimbus 7000.0 4000.0\n",
        );
        chaos_cmd(&outage).unwrap();
        outage.insert("journal".into(), "off".into());
        chaos_cmd(&outage).unwrap();

        // Without control faults `--journal` is an error that names the
        // sugar flag.
        let mut plain = write(
            "plain.plan",
            "crash 8000.0 {host}\nrecover 16000.0 {host}\n",
        );
        chaos_cmd(&plain).unwrap();
        plain.insert("journal".into(), "on".into());
        let err = chaos_cmd(&plain).unwrap_err();
        assert!(err.contains("--nimbus-down-ms"), "{err}");

        // Unknown names come from the runner; a bad line names the file.
        let err = chaos_cmd(&write("ghost.plan", "crash 8000.0 ghost\n")).unwrap_err();
        assert!(err.contains("ghost"), "{err}");
        let err = chaos_cmd(&write("bad.plan", "crash soon {host}\n")).unwrap_err();
        assert!(err.contains("bad.plan") && err.contains("line 1"), "{err}");
    }

    /// The times `rstorm chaos` prints are measured from the plan's first
    /// data-plane fault, and the text says so: a partition-only plan has
    /// no crash to measure from.
    #[test]
    fn chaos_times_name_the_first_fault() {
        let (_, flags) = corpus_flags();
        let dir = std::env::temp_dir().join("rstorm-cli-first-fault-test");
        std::fs::create_dir_all(&dir).unwrap();
        let text = "partition 20000.0 24000.0 {host_rack}\n";
        let path = dir.join("partition.plan");
        std::fs::write(&path, text).unwrap();
        let mut partition = flags.clone();
        partition.insert("plan".into(), path.to_string_lossy().into_owned());
        chaos_cmd(&partition).unwrap();

        // The same scenario through the runner, for the observations the
        // command prints from.
        let (topology, cluster) = load_inputs(&flags).unwrap();
        let out = run_fault_plan_with(
            &Arc::new(cluster),
            &topology,
            &FaultPlan::from_text(text).unwrap(),
            &sim_config(&flags).unwrap(),
            &RecoveryConfig::default(),
            &RStormScheduler::new(),
        )
        .unwrap();
        assert_eq!(out.observations.crash_at_ms, 20_000.0);
        let times = recovery_times(&out.observations);
        assert!(
            times.contains("ms after the first fault (at 20.0 s)"),
            "{times}"
        );
        assert!(!times.contains("crash"), "{times}");
    }

    #[test]
    fn sugar_flags_build_the_equivalent_host_plan() {
        let text = |t: &str| FaultPlan::from_text(t).unwrap();
        let mut flags = BTreeMap::new();
        // Defaults on a 30 s run: crash a third in, heal a quarter later.
        assert_eq!(
            chaos_plan(&flags, 30.0).unwrap(),
            text("crash 10000.0 {host}\nrecover 17500.0 {host}\n")
        );
        flags.insert("crash-at-s".into(), "1".into());
        flags.insert("heal-at-s".into(), "9".into());
        flags.insert("nimbus-down-ms".into(), "4000".into());
        // The outage starts 2 s before the crash, clamped at 0.
        assert_eq!(
            chaos_plan(&flags, 30.0).unwrap(),
            text("crash 1000.0 {host}\nrecover 9000.0 {host}\nnimbus 0.0 4000.0\n")
        );
        flags.insert("crash-at-s".into(), "5".into());
        flags.insert("victim".into(), "n1".into());
        assert_eq!(
            chaos_plan(&flags, 30.0).unwrap(),
            text("crash 5000.0 n1\nrecover 9000.0 n1\nnimbus 3000.0 4000.0\n")
        );
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
        let flags = flags_of(
            "fuzz",
            &[
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
            ],
        )
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
            flags_of("scale", &v).unwrap()
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
