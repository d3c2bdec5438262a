//! The metric table, sample statistics, the results file and `--compare`.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single source of the names,
//! units, directions and bounds that `BENCHMARK.json` repeats; a test
//! keeps the two in step.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees, with the share of the parent's
/// median by which it may worsen before a change counts as a regression.
/// `listed` marks the ones every workload of record reports, which are
/// the ones `BENCHMARK.json` lists.
#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub listed: bool,
}

// The wall-time bound is set by what a shared 2-core VM resolves. Over
// two studies of ten 25 s runs per workload of record, the IQR/median of
// the runs' `scenario_ms` was 0.023 or less and the medians moved by
// 1.7% or less; on busier hosts of the same kind, earlier estimators
// spread ten to twenty times as much. A regression under 20% of a
// workload's scenario time therefore reads `ok` (README.md has the
// studies).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "scenario_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
        listed: true,
    },
    // Set-up is under a millisecond on `paper_micro`, `faults_replay` and
    // `sweep_quick`, where a fixed 5 ms allowance would be hundreds of
    // percent; 0.25, the widest bound a metric may have, is the closest a
    // share comes to it. On the `scale_*` workloads set-up takes 80-400 ms
    // and a regression under 25% of it goes unflagged.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        listed: true,
    },
    // `sweep_quick` only: its jobs over `scenario_ms`, so it shares that
    // metric's noise and bound.
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
        listed: false,
    },
    // Repeats to the byte on the single-threaded workloads and to within
    // 0.01% on the sweep, whose two workers interleave their allocations.
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.02,
        listed: true,
    },
];

/// Where a per-layer value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Total milliseconds of the spans with this name in a scenario.
    Span(&'static str),
    /// Number of spans with this name in a scenario.
    Calls(&'static str),
    /// A counter read from the scenario's outputs or from the allocator.
    Counter,
    /// Worked out from extra runs of the traced pass.
    Traced,
}

/// A metric of one layer. `listed` marks the ones every workload of
/// record reports and an optimisation may move: only those are listed in
/// `BENCHMARK.json`, whose runs must give each of them on every workload
/// of record. A time of a layer that some workload never calls is
/// reported only where it is called.
#[derive(Debug)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub listed: bool,
    pub source: Source,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    listed: bool,
    source: Source,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        listed,
        source,
    }
}

use Better::{Higher, Lower};
use Source::{Calls, Counter, Span, Traced};

// Counts that are 0 on every workload of record (migrations, dropped
// batches, lost tuples, saturated windows) are not listed.
pub const PER_LAYER: [Layer; 33] = [
    layer(
        "workloads.build_ms",
        "ms",
        Lower,
        true,
        Span("workloads.build"),
    ),
    layer("core.schedule_ms", "ms", Lower, true, Span("core.schedule")),
    layer(
        "core.schedule_calls",
        "count",
        Lower,
        true,
        Calls("core.schedule"),
    ),
    layer(
        "core.delta_plan_ms",
        "ms",
        Lower,
        false,
        Span("core.delta_plan"),
    ),
    layer("sim.build.new_ms", "ms", Lower, true, Span("sim.build.new")),
    layer(
        "sim.build.add_topology_ms",
        "ms",
        Lower,
        true,
        Span("sim.build.add_topology"),
    ),
    layer("sim.build.route_entries", "count", Lower, true, Counter),
    layer(
        "sim.build.fault_plan_ms",
        "ms",
        Lower,
        false,
        Span("sim.build.fault_plan"),
    ),
    layer(
        "sim.build.migrate_ms",
        "ms",
        Lower,
        false,
        Span("sim.build.migrate"),
    ),
    layer("sim.build.migrations", "count", Lower, false, Counter),
    // The whole run phase: every `Simulation::run`, or the `run_sweep`
    // call, inside which the sweep's jobs also schedule and set up.
    layer("sim.engine.run_ms", "ms", Lower, true, Span("run")),
    layer("sim.engine.fixed_ms", "ms", Lower, true, Traced),
    layer("sim.engine.loop_ms", "ms", Lower, true, Traced),
    layer("sim.engine.ns_per_event", "ns", Lower, true, Traced),
    layer("sim.engine.events", "count", Lower, true, Counter),
    layer(
        "sim.engine.events_per_sim_s",
        "1/sim_s",
        Lower,
        true,
        Counter,
    ),
    layer("sim.engine.root_pool_misses", "count", Lower, true, Counter),
    layer("sim.engine.max_live_roots", "count", Lower, true, Counter),
    layer("sim.engine.useful_ratio", "ratio", Higher, true, Counter),
    layer("sim.engine.batches_dropped", "count", Lower, false, Counter),
    layer("sim.faults.roots_timed_out", "count", Lower, true, Counter),
    layer("sim.faults.roots_replayed", "count", Lower, true, Counter),
    layer("sim.faults.tuples_lost", "count", Lower, false, Counter),
    layer("sim.network.overhead_ms", "ms", Lower, false, Traced),
    layer("sim.network.links", "count", Lower, false, Counter),
    layer("sim.network.mb_carried", "MB", Lower, true, Counter),
    layer(
        "sim.network.saturated_windows",
        "count",
        Lower,
        false,
        Counter,
    ),
    layer(
        "sim.report.to_json_ms",
        "ms",
        Lower,
        true,
        Span("sim.report.to_json"),
    ),
    layer("sim.sweep.wall_ms", "ms", Lower, false, Span("sim.sweep")),
    layer("sim.sweep.jobs", "count", Higher, false, Counter),
    layer("sim.sweep.workers", "count", Higher, false, Counter),
    layer("alloc.count", "count", Lower, true, Counter),
    layer("alloc.bytes", "B", Lower, true, Counter),
];

pub fn per_layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|l| l.name == name)
}

/// Median and quartiles of a sample, by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, so they match what a reader
/// computes from the samples in the results file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
}

impl Summary {
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "no samples to summarise");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n == 1 {
            let v = sorted[0];
            return Self {
                n,
                p25: v,
                median: v,
                p75: v,
            };
        }
        let quartile = |i: usize| {
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        Self {
            n,
            p25: quartile(1),
            median: quartile(2),
            p75: quartile(3),
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.median.abs()
        }
    }
}

/// One metric of one workload in one run: the value the run reports, and
/// the samples it was taken from.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub reported: f64,
    pub samples: Vec<f64>,
}

impl Row {
    pub fn summary(&self) -> Summary {
        Summary::of(&self.samples)
    }
}

/// The results file: one row object per line, so that `--compare` can
/// read it back without a JSON parser.
pub fn results_json(seed: u64, rows: &[Row]) -> String {
    let mut out = format!("{{\"seed\": {seed}, \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let s = row.summary();
        let samples: Vec<String> = row.samples.iter().map(f64::to_string).collect();
        let _ = write!(
            out,
            "{{\"workload\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \"reported\": {}, \
             \"n\": {}, \"median\": {}, \"p25\": {}, \"p75\": {}, \"samples\": [{}]}}",
            row.workload,
            row.metric,
            row.unit,
            row.reported,
            s.n,
            s.median,
            s.p25,
            s.p75,
            samples.join(", ")
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

/// The value of `key` in one line of flat JSON: a string's contents, a
/// list's inner text, or a number's digits.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\": ");
    let rest = &line[line.find(&pattern)? + pattern.len()..];
    if let Some(quoted) = rest.strip_prefix('"') {
        return quoted.split('"').next();
    }
    if let Some(list) = rest.strip_prefix('[') {
        return list.split(']').next();
    }
    rest.split([',', '}']).next()
}

/// Reads the rows back from a results file written by [`results_json`].
pub fn parse_results(text: &str) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for line in text.lines().filter(|l| l.contains("\"workload\": ")) {
        let get = |key| field(line, key).ok_or_else(|| format!("no `{key}` in {line}"));
        let number = |v: &str| {
            v.trim()
                .parse::<f64>()
                .map_err(|e| format!("bad number {v:?} in {line}: {e}"))
        };
        rows.push(Row {
            workload: get("workload")?.to_owned(),
            metric: get("metric")?.to_owned(),
            unit: get("unit")?.to_owned(),
            reported: number(get("reported")?)?,
            samples: get("samples")?
                .split(',')
                .map(number)
                .collect::<Result<_, _>>()?,
        });
    }
    Ok(rows)
}

/// The verdict on one (workload, end-to-end metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::Regressed => "regressed",
            Self::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against the baseline `a`: unresolved when either side's
/// interquartile spread exceeds the bound, regressed when `b`'s median is
/// worse than `a`'s by more than the bound, ok otherwise.
pub fn verdict(metric: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    if a.spread() > metric.bound || b.spread() > metric.bound {
        return Verdict::Unresolved;
    }
    let worse = match metric.better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    if worse > metric.bound * a.median.abs() {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// The value each run reported for each (workload, end-to-end metric or
/// `error_rate`).
fn run_values(runs: &[Vec<Row>]) -> BTreeMap<(String, String), Vec<f64>> {
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for row in runs.iter().flatten() {
        if row.metric == "error_rate" || END_TO_END.iter().any(|m| m.name == row.metric) {
            values
                .entry((row.workload.clone(), row.metric.clone()))
                .or_default()
                .push(row.reported);
        }
    }
    values
}

/// The `--compare` table of baseline runs `a` against candidate runs `b`,
/// and whether any pair regressed. Each side is summarised by the median
/// and quartiles of the values its runs reported; a metric neither side
/// reports for a workload is skipped, one only a side reports counts as a
/// regression, and `error_rate` regresses on any increase.
pub fn compare(a: &[Vec<Row>], b: &[Vec<Row>]) -> (String, bool) {
    let (a, b) = (run_values(a), run_values(b));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<13} {:>11} {:>23} {:>11} {:>23} {:>8}  verdict",
        "workload", "metric", "A median", "A p25-p75", "B median", "B p25-p75", "delta"
    );
    let mut regressed = false;
    let workloads: BTreeSet<&String> = a.keys().map(|(w, _)| w).collect();
    for workload in workloads {
        for metric in &END_TO_END {
            let key = (workload.clone(), metric.name.to_owned());
            let (sa, sb) = (a.get(&key), b.get(&key));
            if sa.is_none() && sb.is_none() {
                continue;
            }
            let (Some(sa), Some(sb)) = (sa, sb) else {
                let _ = writeln!(
                    out,
                    "{workload:<14} {:<13} missing on one side",
                    metric.name
                );
                regressed = true;
                continue;
            };
            let (sa, sb) = (Summary::of(sa), Summary::of(sb));
            let v = verdict(metric, &sa, &sb);
            regressed |= v == Verdict::Regressed;
            let _ = writeln!(
                out,
                "{workload:<14} {:<13} {:>11} {:>23} {:>11} {:>23} {:>+7.2}%  {}",
                metric.name,
                sig(sa.median),
                format!("{}-{}", sig(sa.p25), sig(sa.p75)),
                sig(sb.median),
                format!("{}-{}", sig(sb.p25), sig(sb.p75)),
                (sb.median / sa.median - 1.0) * 100.0,
                v.word()
            );
        }
        let key = (workload.clone(), "error_rate".to_owned());
        let rate =
            |side: &BTreeMap<_, Vec<f64>>| side.get(&key).map_or(0.0, |s| Summary::of(s).median);
        let (ra, rb) = (rate(&a), rate(&b));
        regressed |= rb > ra;
        let _ = writeln!(
            out,
            "{workload:<14} {:<13} {:>11} {:>23} {:>11} {:>23} {:>8}  {}",
            "error_rate",
            sig(ra),
            "",
            sig(rb),
            "",
            "",
            if rb > ra { "regressed" } else { "ok" }
        );
    }
    (out, regressed)
}

/// `x` to five significant digits.
fn sig(x: f64) -> String {
    let digits = if x == 0.0 {
        0
    } else {
        x.abs().log10().floor() as i32
    };
    format!("{x:.*}", (4 - digits).max(0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.p25, s.median, s.p75), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.p25, s.median, s.p75), (1.25, 2.5, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.p25, s.median, s.p75), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p25, s.median, s.p75), (1.0, 2.0, 3.0));
        assert_eq!(Summary::of(&[7.0]).median, 7.0);
    }

    #[test]
    fn results_round_trip_through_the_line_scanner() {
        let rows = vec![
            Row {
                workload: "scale_base".into(),
                metric: "scenario_ms".into(),
                unit: "ms".into(),
                reported: 117.5,
                samples: vec![120.5, 118.25, 131.0],
            },
            Row {
                workload: "scale_base".into(),
                metric: "alloc.count".into(),
                unit: "count".into(),
                reported: 284_001.0,
                samples: vec![284_001.0],
            },
        ];
        assert_eq!(parse_results(&results_json(42, &rows)).unwrap(), rows);
    }

    /// A row that reports the median of its samples.
    fn rows(workload: &str, metric: &str, samples: &[f64]) -> Row {
        Row {
            workload: workload.into(),
            metric: metric.into(),
            unit: String::new(),
            reported: Summary::of(samples).median,
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let scenario = &END_TO_END[0];
        let jobs = &END_TO_END[2];
        let tight = |m: f64| Summary::of(&[m * 0.99, m, m * 1.01]);
        let base = tight(100.0);
        let slower = |k: f64| tight(100.0 * (1.0 + k * scenario.bound));
        let fewer = |k: f64| tight(100.0 * (1.0 - k * jobs.bound));
        assert_eq!(verdict(scenario, &base, &slower(0.5)), Verdict::Ok);
        assert_eq!(verdict(scenario, &base, &slower(1.5)), Verdict::Regressed);
        assert_eq!(verdict(scenario, &base, &slower(-2.0)), Verdict::Ok);
        assert_eq!(verdict(jobs, &base, &fewer(0.5)), Verdict::Ok);
        assert_eq!(verdict(jobs, &base, &fewer(1.5)), Verdict::Regressed);
        assert_eq!(verdict(jobs, &base, &fewer(-2.0)), Verdict::Ok);
        let wide = Summary::of(&[50.0, 100.0, 150.0]);
        assert_eq!(verdict(scenario, &tight(100.0), &wide), Verdict::Unresolved);

        let a = vec![vec![
            rows("w", "scenario_ms", &[100.0, 101.0]),
            rows("w", "setup_s", &[1.0]),
            rows("w", "jobs_per_s", &[10.0]),
            rows("w", "peak_heap_mb", &[5.0]),
            rows("w", "error_rate", &[0.0]),
        ]];
        let mut b = a.clone();
        let (table, regressed) = compare(&a, &b);
        assert!(!regressed, "{table}");
        assert_eq!(table.matches(" ok").count(), 5, "{table}");
        b[0][4] = rows("w", "error_rate", &[0.1]);
        assert!(compare(&a, &b).1);

        // A metric neither side reports is skipped; one side alone regresses.
        let no_jobs = vec![a[0]
            .iter()
            .filter(|r| r.metric != "jobs_per_s")
            .cloned()
            .collect::<Vec<_>>()];
        let (table, regressed) = compare(&no_jobs, &no_jobs);
        assert!(!regressed && !table.contains("jobs_per_s"), "{table}");
        assert!(compare(&a, &no_jobs).1);
    }
}
