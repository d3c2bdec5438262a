//! The benchmark of record: four workloads (and two more runnable by
//! name) driven through the public API, timed from outside every call,
//! with every output checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--seed N] [--workload NAME]... [--seconds S] [--out FILE] [--trace 0|1|FILE]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --compare A.json[,...] B.json[,...]
//! ```
//!
//! Each workload runs one untimed warm-up scenario, whose allocations are
//! counted and whose output digest is the reference every later scenario
//! must reproduce, then a fixed number of timed scenarios (or as many as
//! fit in `--seconds`). A run reports `scenario_ms` as the sum over the
//! scenario's calls of each call's fastest time in the run, and every
//! other metric as the median of its samples. The tables print every
//! end-to-end and per-layer metric by name and unit; the last line of
//! standard output is a JSON summary. The exit code is non-zero if any
//! scenario failed a check. See README.md beside this file for the
//! workloads, the metrics and the layer map.

mod alloc;
mod metrics;
mod trace;
mod workloads;

use metrics::{per_layer, Better, Row, Source, Summary, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{self_times_ns, Recorder};
use workloads::{Size, Workload, FULL};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Fewest timed scenarios a time-budgeted run takes, however long they are.
const MIN_REPEATS: usize = 3;

/// The metrics read from the allocator, in the warm-up scenario only.
const MEMORY: [&str; 3] = ["peak_heap_mb", "alloc.count", "alloc.bytes"];

/// How long a workload is measured.
#[derive(Debug, Clone, Copy)]
enum Budget {
    /// A fixed number of timed scenarios, so that two commits do the same work.
    Repeats(usize),
    /// Timed scenarios until this many seconds have passed.
    Seconds(f64),
}

#[derive(Debug)]
struct Options {
    seed: u64,
    workloads: Vec<Workload>,
    seconds: Option<f64>,
    out: PathBuf,
    trace: Option<PathBuf>,
}

#[derive(Debug)]
enum Command {
    Run(Options),
    Compare(Vec<PathBuf>, Vec<PathBuf>),
    Help,
}

const USAGE: &str = "\
usage: benchmark [--seed N] [--workload NAME]... [--seconds S] [--out FILE] [--trace 0|1|FILE]
       benchmark --compare A.json[,A2.json...] B.json[,B2.json...]

  --seed N        input seed (default 42); faults_replay and the sweep use seeds N..N+4
  --workload W    run only W (repeatable): paper_micro, faults_replay, scale_base,
                  scale_churn, scale_fair, sweep_quick (default: the four of
                  record, all but scale_churn and sweep_quick)
  --seconds S     measure each workload for S seconds instead of its fixed repeat count
  --out FILE      results file (default target/benchmark/results.json)
  --trace X       0: off (default); 1: trace into target/benchmark/trace.jsonl;
                  otherwise the JSONL file to write. Writes the spans of each
                  workload's last timed scenario, runs the extra passes behind the
                  traced-only metrics, and the last output line then holds the
                  per-layer metrics
  --compare A B   judge runs B against baseline runs A, per workload and metric";

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut opts = Options {
        seed: 42,
        workloads: Vec::new(),
        seconds: None,
        out: PathBuf::from("target/benchmark/results.json"),
        trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
                if opts.seed.checked_add(FULL.seeds).is_none() {
                    return Err(format!("seed {v} leaves no room for a scenario's seeds"));
                }
            }
            "--workload" => {
                let v = value()?;
                opts.workloads
                    .push(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => opts.seconds = Some(s),
                    _ => return Err(format!("bad --seconds {v:?}")),
                }
            }
            "--out" => opts.out = PathBuf::from(value()?),
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => None,
                    "1" => Some(PathBuf::from("target/benchmark/trace.jsonl")),
                    path => Some(PathBuf::from(path)),
                }
            }
            "--compare" => {
                let files = |v: &str| v.split(',').map(PathBuf::from).collect::<Vec<_>>();
                let a = files(value()?);
                let b = files(value()?);
                return Ok(Command::Compare(a, b));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = Workload::OF_RECORD.to_vec();
    }
    Ok(Command::Run(opts))
}

/// One checked scenario's measurements, by metric name, and the duration
/// of each of its parts (see [`Recorder::parts`]).
#[derive(Debug)]
struct Sample {
    values: Vec<(&'static str, f64)>,
    digest: u64,
    parts: Vec<(&'static str, u64)>,
}

impl Sample {
    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a layer panicked".to_owned())
}

/// The role of a scenario in the run of its workload.
#[derive(Debug, Clone, Copy)]
enum Pass {
    /// The untimed first scenario. Its allocations are counted (counting
    /// slows allocation-heavy code, so timed scenarios run uncounted) and
    /// its digest becomes the reference.
    WarmUp,
    /// A later scenario, which must reproduce the warm-up's digest.
    Repeat { reference: u64 },
}

/// Runs and checks one scenario. It fails if a layer panics, a workload
/// check fails, or a repeat's output digest differs from the warm-up's.
fn attempt(
    w: Workload,
    size: Size,
    seed: u64,
    workers: usize,
    rec: &mut Recorder,
    pass: Pass,
) -> Result<Sample, String> {
    rec.clear();
    let mark = matches!(pass, Pass::WarmUp).then(alloc::start);
    let output = catch_unwind(AssertUnwindSafe(|| {
        workloads::scenario(w, size, seed, workers, rec)
    }));
    let usage = mark.map(alloc::stop);
    let output = output.map_err(panic_message)?;

    let scenario_ms = rec
        .total_ms("scenario")
        .expect("every scenario has a root span");
    let setup_ms = rec
        .total_ms("setup")
        .expect("every scenario has a setup span");
    let mut values = vec![("scenario_ms", scenario_ms), ("setup_s", setup_ms / 1e3)];
    if let Some((outcome, _)) = &output.sweep {
        values.push((
            "jobs_per_s",
            outcome.rows.len() as f64 / (scenario_ms / 1e3),
        ));
    }
    if let Some(usage) = usage {
        values.extend([
            ("peak_heap_mb", usage.peak_bytes as f64 / 1e6),
            ("alloc.count", usage.calls as f64),
            ("alloc.bytes", usage.bytes as f64),
        ]);
    }
    values.extend(workloads::counters(&output));

    let checked = catch_unwind(AssertUnwindSafe(|| {
        let failures = workloads::check(w, size, &output);
        (failures, workloads::digest(&output, rec))
    }));
    let (mut failures, digest) = checked.map_err(panic_message)?;
    match pass {
        Pass::Repeat { reference } if reference != digest => failures.push(format!(
            "output digest {digest:016x} differs from the warm-up's {reference:016x}"
        )),
        _ => {}
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    for layer in &PER_LAYER {
        let value = match layer.source {
            Source::Span(span) => rec.total_ms(span),
            Source::Calls(span) => Some(rec.calls(span) as f64),
            Source::Counter | Source::Traced => None,
        };
        if let Some(v) = value {
            values.push((layer.name, v));
        }
    }
    Ok(Sample {
        values,
        digest,
        parts: rec.parts(),
    })
}

/// Lowers each part of `floor` to that of `parts` where `parts` was
/// faster, or starts `floor` from `parts` if it is empty. Returns false,
/// leaving `floor` as it was, if the two scenarios made different calls.
fn lower_envelope(floor: &mut Vec<(&'static str, u64)>, parts: Vec<(&'static str, u64)>) -> bool {
    if floor.is_empty() {
        *floor = parts;
        return true;
    }
    let same_calls =
        floor.len() == parts.len() && floor.iter().zip(&parts).all(|(f, p)| f.0 == p.0);
    if same_calls {
        for (f, p) in floor.iter_mut().zip(parts) {
            f.1 = f.1.min(p.1);
        }
    }
    same_calls
}

/// Everything measured on one workload.
#[derive(Debug)]
struct Measured {
    workload: Workload,
    attempted: usize,
    failures: Vec<String>,
    /// Samples of each metric, in first-seen order.
    series: Vec<(&'static str, Vec<f64>)>,
    /// The sum over the scenario's parts of each part's fastest time in
    /// the timed scenarios, in milliseconds.
    floor_ms: Option<f64>,
    /// The last timed scenario's spans as JSON lines, with those of the
    /// fixed-cost pass, and its self-time table.
    trace: Option<(String, String)>,
}

impl Measured {
    fn push(&mut self, name: &'static str, value: f64) {
        match self.series.iter_mut().find(|(n, _)| *n == name) {
            Some((_, samples)) => samples.push(value),
            None => self.series.push((name, vec![value])),
        }
    }

    fn samples(&self, name: &str) -> Option<&[f64]> {
        self.series
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.as_slice())
    }

    fn median(&self, name: &str) -> Option<f64> {
        self.samples(name).map(|s| Summary::of(s).median)
    }

    /// The value the run reports for a metric it sampled. Every timed
    /// scenario makes the same calls on the same inputs, and the rest of
    /// a shared machine only ever adds time to a call, so `scenario_ms` is
    /// the sum of each call's fastest time: each call finds its own quiet
    /// moment in the run, which a whole scenario may miss. `jobs_per_s`
    /// is the sweep's jobs over that time; every other metric is the
    /// median of its samples.
    fn reported(&self, name: &str) -> Option<f64> {
        let samples = self.samples(name)?;
        match name {
            "scenario_ms" => self.floor_ms,
            "jobs_per_s" => Some(self.median("sim.sweep.jobs")? * 1e3 / self.floor_ms?),
            _ => Some(Summary::of(samples).median),
        }
    }

    fn error_rate(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    fn record(&mut self, result: Result<Sample, String>) -> Option<Sample> {
        self.attempted += 1;
        match result {
            Ok(sample) => Some(sample),
            Err(why) => {
                self.failures.push(why);
                None
            }
        }
    }
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Warm-up, timed repeats and, if `traced`, the trace of one workload.
fn measure(w: Workload, size: Size, seed: u64, budget: Budget, traced: bool) -> Measured {
    let workers = if w == Workload::SweepQuick {
        workers()
    } else {
        1
    };
    let mut m = Measured {
        workload: w,
        attempted: 0,
        failures: Vec::new(),
        series: Vec::new(),
        floor_ms: None,
        trace: None,
    };
    let mut rec = Recorder::new();
    let Some(warm) = m.record(attempt(w, size, seed, workers, &mut rec, Pass::WarmUp)) else {
        return m;
    };
    for name in MEMORY {
        m.push(
            name,
            warm.get(name).expect("the warm-up counts allocations"),
        );
    }
    let repeat = Pass::Repeat {
        reference: warm.digest,
    };

    let started = Instant::now();
    let mut timed = 0;
    let mut floor = Vec::new();
    while match budget {
        Budget::Repeats(n) => timed < n,
        Budget::Seconds(s) => timed < MIN_REPEATS || started.elapsed().as_secs_f64() < s,
    } {
        timed += 1;
        let Some(sample) = m.record(attempt(w, size, seed, workers, &mut rec, repeat)) else {
            continue;
        };
        if !lower_envelope(&mut floor, sample.parts) {
            m.failures
                .push("the scenario made other calls than the first timed one".to_owned());
            continue;
        }
        for (name, value) in sample.values {
            m.push(name, value);
        }
    }
    if !floor.is_empty() {
        m.floor_ms = Some(floor.iter().map(|(_, ns)| *ns).sum::<u64>() as f64 / 1e6);
    }
    if traced && m.failures.is_empty() {
        trace(&mut m, &rec, size, seed, workers);
    }
    m
}

/// Keeps the spans of the last timed scenario, `rec`: every scenario
/// records its spans, so tracing adds no work to the timed ones. Then
/// runs the extra passes behind the metrics no single scenario gives: the
/// engine's fixed cost (the same inputs cut off after 1 ms of simulated
/// time) and, on `scale_fair`, `scale_base`'s run time on the same inputs.
fn trace(m: &mut Measured, rec: &Recorder, size: Size, seed: u64, workers: usize) {
    let w = m.workload;
    let mut jsonl = String::new();
    rec.write_jsonl(&mut jsonl, w.name(), "timed");
    let table = self_time_table(rec);

    let run_ms = m
        .median("sim.engine.run_ms")
        .expect("every scenario has a run phase");
    if w != Workload::SweepQuick {
        // Not `attempt`: cut off after 1 ms, no tuple completes, so the
        // workload checks do not apply; only a panic fails the pass.
        let mut fixed = Recorder::new();
        m.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| {
            workloads::scenario(w, size.fixed_cost(), seed, workers, &mut fixed)
        })) {
            Ok(_) => {
                fixed.write_jsonl(&mut jsonl, w.name(), "fixed_cost");
                let fixed_ms = fixed
                    .total_ms("run")
                    .expect("every scenario has a run phase");
                let loop_ms = run_ms - fixed_ms;
                m.push("sim.engine.fixed_ms", fixed_ms);
                m.push("sim.engine.loop_ms", loop_ms);
                if let Some(events) = m.median("sim.engine.events").filter(|&e| e > 0.0) {
                    m.push("sim.engine.ns_per_event", loop_ms * 1e6 / events);
                }
            }
            Err(e) => m
                .failures
                .push(format!("fixed-cost pass: {}", panic_message(e))),
        }
    }
    if w == Workload::ScaleFair {
        let base = measure(Workload::ScaleBase, size, seed, Budget::Repeats(3), false);
        m.attempted += base.attempted;
        m.failures.extend(base.failures.iter().cloned());
        if let Some(base_run) = base.median("sim.engine.run_ms") {
            m.push("sim.network.overhead_ms", run_ms - base_run);
        }
    }
    m.trace = Some((jsonl, table));
}

/// Self time per layer of a scenario, as a share of its root span.
fn self_time_table(rec: &Recorder) -> String {
    let spans = rec.spans();
    let self_ns = self_times_ns(spans);
    let mut rows: Vec<(&str, usize, u64, u64)> = Vec::new();
    let mut scenario_ns = 0;
    let mut in_scenario_self = 0;
    for (i, span) in spans.iter().enumerate() {
        let mut root = i;
        while let Some(p) = spans[root].parent {
            root = p;
        }
        if spans[root].name == "scenario" {
            in_scenario_self += self_ns[i];
        }
        if span.parent.is_none() && span.name == "scenario" {
            scenario_ns += span.end_ns - span.start_ns;
        }
        let duration = span.end_ns - span.start_ns;
        match rows.iter_mut().find(|r| r.0 == span.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += duration;
                row.3 += self_ns[i];
            }
            None => rows.push((span.name, 1, duration, self_ns[i])),
        }
    }
    let mut out = format!(
        "  {:<26} {:>6} {:>12} {:>12} {:>8}\n",
        "span", "calls", "total_ms", "self_ms", "self_%"
    );
    for (name, calls, total, own) in rows {
        let _ = writeln!(
            out,
            "  {name:<26} {calls:>6} {:>12.3} {:>12.3} {:>7.2}%",
            total as f64 / 1e6,
            own as f64 / 1e6,
            own as f64 * 100.0 / scenario_ns.max(1) as f64
        );
    }
    let _ = writeln!(
        out,
        "  self times under `scenario` sum to {:.3} ms of its {:.3} ms ({:.2}%)",
        in_scenario_self as f64 / 1e6,
        scenario_ns as f64 / 1e6,
        in_scenario_self as f64 * 100.0 / scenario_ns.max(1) as f64
    );
    out
}

/// Unit and direction of a metric in the metric table.
fn spec_of(name: &str) -> (&'static str, Better) {
    match name {
        "error_rate" => ("ratio", Better::Lower),
        _ => END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map(|m| (m.unit, m.better))
            .or_else(|| per_layer(name).map(|l| (l.unit, l.better)))
            .expect("every reported metric is in the metric table"),
    }
}

fn rows_of(m: &Measured) -> Vec<Row> {
    let row = |metric: &str, reported: f64, samples: Vec<f64>| Row {
        workload: m.workload.name().to_owned(),
        metric: metric.to_owned(),
        unit: spec_of(metric).0.to_owned(),
        reported,
        samples,
    };
    let mut rows = vec![row("error_rate", m.error_rate(), vec![m.error_rate()])];
    rows.extend(
        m.series
            .iter()
            .filter_map(|(name, samples)| Some(row(name, m.reported(name)?, samples.clone()))),
    );
    rows
}

fn print_workload(m: &Measured, budget: Budget, seed: u64) {
    let timed = m
        .series
        .iter()
        .find(|(n, _)| *n == "scenario_ms")
        .map_or(0, |(_, s)| s.len());
    let budget = match budget {
        Budget::Repeats(_) => "a fixed count".to_owned(),
        Budget::Seconds(s) => format!("{s} s"),
    };
    println!(
        "== {}: {timed} timed scenarios ({budget}) after 1 warm-up, seed {seed}, \
         {} of {} scenarios failed\n   why: {}",
        m.workload.name(),
        m.failures.len(),
        m.attempted,
        m.workload.why()
    );
    println!(
        "  {:<30} {:<7} {:<6} {:>16} {:>16} {:>16} {:>16} {:>4}",
        "metric", "unit", "better", "reported", "median", "p25", "p75", "n"
    );
    for row in rows_of(m) {
        let s = row.summary();
        println!(
            "  {:<30} {:<7} {:<6} {:>16.6} {:>16.6} {:>16.6} {:>16.6} {:>4}",
            row.metric,
            row.unit,
            spec_of(&row.metric).1.word(),
            row.reported,
            s.median,
            s.p25,
            s.p75,
            s.n
        );
    }
    for failure in &m.failures {
        println!("  FAILED: {failure}");
    }
    if let Some((_, table)) = &m.trace {
        println!("  last timed scenario, self time by span:\n{table}");
    }
}

/// The metrics `BENCHMARK.json` lists: end-to-end, or per-layer if `traced`.
fn listed(traced: bool) -> Vec<&'static str> {
    if traced {
        PER_LAYER
            .iter()
            .filter(|l| l.listed)
            .map(|l| l.name)
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter(|m| m.listed)
            .map(|m| m.name)
            .collect()
    }
}

/// The last line of output: the listed metrics each workload reported,
/// by name (prefixed with the workload when several ran). A workload of
/// record reports every one of them.
fn summary_line(results: &[Measured], traced: bool) -> String {
    let mut metrics = Vec::new();
    for m in results {
        if !m.failures.is_empty() {
            continue;
        }
        for name in listed(traced) {
            let Some(value) = m.reported(name) else {
                continue;
            };
            let key = if results.len() == 1 {
                name.to_owned()
            } else {
                format!("{}.{name}", m.workload.name())
            };
            metrics.push(format!(
                "\"{key}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                spec_of(name).0
            ));
        }
    }
    let attempted: usize = results.iter().map(|m| m.attempted).sum();
    let failed: usize = results.iter().map(|m| m.failures.len()).sum();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

fn exit_code(results: &[Measured]) -> u8 {
    u8::from(results.iter().any(|m| !m.failures.is_empty()))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(opts: &Options) -> Result<u8, String> {
    let budget_of = |w: Workload| {
        opts.seconds
            .map_or(Budget::Repeats(w.repeats()), Budget::Seconds)
    };
    let mut results = Vec::new();
    for &w in &opts.workloads {
        let budget = budget_of(w);
        let m = measure(w, FULL, opts.seed, budget, opts.trace.is_some());
        print_workload(&m, budget, opts.seed);
        results.push(m);
    }
    let rows: Vec<Row> = results.iter().flat_map(rows_of).collect();
    write_file(&opts.out, &metrics::results_json(opts.seed, &rows))?;
    if let Some(path) = &opts.trace {
        let jsonl: String = results
            .iter()
            .filter_map(|m| m.trace.as_ref().map(|(j, _)| j.as_str()))
            .collect();
        write_file(path, &jsonl)?;
    }
    println!("{}", summary_line(&results, opts.trace.is_some()));
    Ok(exit_code(&results))
}

fn compare(a: &[PathBuf], b: &[PathBuf]) -> Result<u8, String> {
    let load = |files: &[PathBuf]| -> Result<Vec<Vec<Row>>, String> {
        files
            .iter()
            .map(|f| {
                let text =
                    std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
                metrics::parse_results(&text).map_err(|e| format!("{}: {e}", f.display()))
            })
            .collect()
    };
    let (table, regressed) = metrics::compare(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(u8::from(regressed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Ok(Command::Help) => {
            println!("{USAGE}");
            Ok(0)
        }
        Ok(Command::Run(opts)) => run(&opts),
        Ok(Command::Compare(a, b)) => compare(&a, &b),
        Err(e) => Err(format!("{e}\n{USAGE}")),
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at a hundredth of its size.
    const TOY: Size = Size {
        tasks: 200,
        nodes: 20,
        horizon_ms: 5_000.0,
        sim_ms: 5_000.0,
        churn_rounds: 10,
        seeds: 1,
    };

    #[test]
    fn every_workload_passes_its_checks_at_toy_size() {
        let _serial = alloc::REGIONS
            .lock()
            .expect("no test panics while counting");
        let results: Vec<Measured> = Workload::ALL
            .into_iter()
            .map(|w| measure(w, TOY, 42, Budget::Repeats(1), true))
            .collect();
        for m in &results {
            assert_eq!(
                m.error_rate(),
                0.0,
                "{}: {:?}",
                m.workload.name(),
                m.failures
            );
            assert!(m.attempted >= 2, "warm-up and timed scenarios");
            let (jsonl, table) = m.trace.as_ref().expect("the trace was kept");
            assert!(jsonl.contains("\"scenario\": \"timed\""));
            assert_eq!(
                rows_of(m).iter().any(|r| r.metric == "jobs_per_s"),
                m.workload == Workload::SweepQuick
            );
            assert!(jsonl.lines().any(|l| l.contains("\"name\": \"scenario\"")));
            assert!(table.contains("self times under `scenario`"));
            // Every metric a workload gives is in the metric table, and a
            // workload of record gives every metric BENCHMARK.json lists.
            let rows = rows_of(m);
            if Workload::OF_RECORD.contains(&m.workload) {
                for name in listed(false).into_iter().chain(listed(true)) {
                    assert!(
                        rows.iter().any(|r| r.metric == name),
                        "{} does not report {name}",
                        m.workload.name()
                    );
                }
            }
            // No scenario is faster than the sum of its fastest parts.
            let fastest = m.samples("scenario_ms").unwrap().iter().copied();
            assert!(m.reported("scenario_ms").unwrap() <= fastest.fold(f64::INFINITY, f64::min));
        }
        assert_eq!(exit_code(&results), 0);
    }

    #[test]
    fn the_envelope_keeps_each_parts_fastest_time() {
        let mut floor = Vec::new();
        assert!(lower_envelope(
            &mut floor,
            vec![("a", 5), ("b", 9), ("scenario", 2)]
        ));
        assert!(lower_envelope(
            &mut floor,
            vec![("a", 7), ("b", 4), ("scenario", 1)]
        ));
        assert_eq!(floor, [("a", 5), ("b", 4), ("scenario", 1)]);
        assert!(!lower_envelope(&mut floor, vec![("a", 1), ("scenario", 1)]));
        assert!(!lower_envelope(
            &mut floor,
            vec![("a", 1), ("c", 1), ("scenario", 1)]
        ));
        assert_eq!(floor, [("a", 5), ("b", 4), ("scenario", 1)]);
    }

    #[test]
    fn a_digest_mismatch_is_one_failure_and_a_non_zero_exit() {
        let _serial = alloc::REGIONS
            .lock()
            .expect("no test panics while counting");
        let w = Workload::ScaleBase;
        let mut m = measure(w, TOY, 7, Budget::Repeats(1), false);
        assert_eq!(exit_code(std::slice::from_ref(&m)), 0);

        let mut rec = Recorder::new();
        let digest = attempt(w, TOY, 7, 1, &mut rec, Pass::WarmUp)
            .unwrap()
            .digest;
        let wrong = Pass::Repeat {
            reference: digest ^ 1,
        };
        m.record(attempt(w, TOY, 7, 1, &mut rec, wrong));
        assert_eq!((m.attempted, m.failures.len()), (3, 1));
        assert!(m.failures[0].contains("differs from the warm-up"));
        assert_ne!(exit_code(&[m]), 0);
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let Ok(Command::Run(o)) = parse_args(&args("--workload scale_base --seed 7 --trace 1"))
        else {
            panic!("a valid command line");
        };
        assert_eq!(
            (o.seed, o.workloads.as_slice()),
            (7, &[Workload::ScaleBase][..])
        );
        assert!(o.trace.is_some());
        let Ok(Command::Run(o)) = parse_args(&args("--seconds 10 --trace 0")) else {
            panic!("a valid command line");
        };
        assert_eq!(
            (o.seconds, o.workloads.len(), o.trace),
            (Some(10.0), 4, None)
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seconds -1")).is_err());
        assert!(parse_args(&args("--seed 18446744073709551615")).is_err());
    }

    /// The items of one top-level array of `BENCHMARK.json`, which keeps
    /// one object per line.
    fn section<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section closed");
        body[..end]
            .lines()
            .filter(|l| l.contains("\"name\""))
            .collect()
    }

    fn get<'a>(line: &'a str, key: &str) -> &'a str {
        metrics::field(line, key).unwrap_or_else(|| panic!("no {key} in {line}"))
    }

    #[test]
    fn benchmark_json_matches_the_metric_table() {
        let json = include_str!("../BENCHMARK.json");
        let workloads: Vec<(&str, &str)> = section(json, "workloads")
            .into_iter()
            .map(|l| (get(l, "name"), get(l, "why")))
            .collect();
        let expected: Vec<(&str, &str)> = Workload::OF_RECORD
            .iter()
            .map(|w| (w.name(), w.why()))
            .collect();
        assert_eq!(workloads, expected);

        let e2e: Vec<(&str, &str, &str, f64)> = section(json, "end_to_end")
            .into_iter()
            .map(|l| {
                (
                    get(l, "name"),
                    get(l, "unit"),
                    get(l, "better"),
                    get(l, "bound").parse().unwrap(),
                )
            })
            .collect();
        let expected: Vec<_> = END_TO_END
            .iter()
            .filter(|m| m.listed)
            .map(|m| (m.name, m.unit, m.better.word(), m.bound))
            .collect();
        assert_eq!(e2e, expected);

        let layers: Vec<(&str, &str, &str)> = section(json, "per_layer")
            .into_iter()
            .map(|l| (get(l, "name"), get(l, "unit"), get(l, "better")))
            .collect();
        let expected: Vec<_> = PER_LAYER
            .iter()
            .filter(|l| l.listed)
            .map(|l| (l.name, l.unit, l.better.word()))
            .collect();
        assert_eq!(layers, expected);
    }
}
