//! Benchmark regression guard: fails (exit 1) if any case in the checked
//! `BENCH_*.json` files reports a `speedup_vs_reference` below the
//! threshold — i.e. if either "fast path" (the indexed scheduler, the
//! dense-id simulator, the fault-injected simulator) has regressed
//! against the reference implementation it is supposed to beat.
//!
//! The threshold defaults to 1.0 and can be tuned with the
//! `BENCH_GUARD_MIN` environment variable (e.g. `BENCH_GUARD_MIN=1.2`
//! to demand a 20% margin, or `0.9` to tolerate noisy shared runners).
//!
//! Cases that report a `zero_loss_ratio` (the replay smoke and every
//! survivable sweep group) are additionally held to exactly 1.0:
//! guaranteed processing is a correctness property, not a performance
//! number, so no environment variable can relax it. The same goes for
//! `fuzz_violations` (the fuzz smoke's campaign cases), pinned at
//! exactly 0: a fixed-seed fuzz campaign that trips an oracle found a
//! real robustness bug. And `rstorm_beats_even_on_trunk` (the
//! congestion smoke's contention case) is pinned at ≥ 1.0: the fair
//! network plane is deterministic, so proximity packing losing to the
//! spread baseline under trunk saturation is a modeling bug, not
//! measurement noise, and no environment variable can excuse it.
//! `failover_zero_loss` and `reconciliation_convergence` (the control
//! smoke's Nimbus-outage cases) are pinned at exactly 1.0: a journaled
//! failover that loses roots on a survivable plan, or a successor whose
//! reconciled assignment diverges from a from-scratch reschedule, is a
//! control-plane correctness bug, unrelaxable by any environment
//! variable.
//! Sweep groups carry
//! no speedup — only the sweep's `sweep/parallel_speedup` case does,
//! and the shared threshold enforces "parallel at least as fast as
//! serial" on it.
//!
//! A failing or missing file gets **one** re-measure: the guard invokes
//! the matching smoke binary (`perf_smoke`, `sim_smoke`, `chaos_smoke`,
//! `adaptive_smoke`, `replay_smoke`, `sweep_smoke`, `scale_smoke`,
//! `fuzz_smoke`, `congestion_smoke`, `control_smoke`)
//! through `cargo run --release` and re-checks, so a single noisy sample
//! on a busy machine does not fail the build. A second miss is a real
//! regression.
//!
//! Run after the smoke binaries have refreshed the files:
//!
//! ```text
//! cargo run --release -p rstorm-bench --bin bench_guard
//! ```
//!
//! Arguments are the files to check; defaults to `BENCH_sched.json`,
//! `BENCH_sim.json`, `BENCH_chaos.json`, `BENCH_adaptive.json`,
//! `BENCH_replay.json`, `BENCH_sweep.json`, `BENCH_scale.json`,
//! `BENCH_fuzz.json`, `BENCH_network.json` and `BENCH_control.json` in
//! the current directory.
//! A missing file that has no matching smoke binary is an error — the
//! guard must never pass because a smoke run silently produced nothing.

use std::process::{Command, ExitCode};

/// One gated case: its `speedup_vs_reference` (absent on sweep group
/// lines, which are pure correctness gates), its `zero_loss_ratio`
/// (present on replay cases and survivable sweep groups), its
/// `fuzz_violations` (present on the fuzz smoke's campaign cases), its
/// `rstorm_beats_even_on_trunk` (present on the congestion smoke's
/// contention case), and its `failover_zero_loss` /
/// `reconciliation_convergence` (present on the control smoke's
/// Nimbus-outage cases).
#[derive(Debug, PartialEq)]
struct Reading {
    case: String,
    speedup: Option<f64>,
    zero_loss_ratio: Option<f64>,
    fuzz_violations: Option<f64>,
    trunk_win: Option<f64>,
    failover_zero_loss: Option<f64>,
    reconciliation_convergence: Option<f64>,
}

/// Extracts every gated case from a `BENCH_*.json` document: any line
/// carrying a `speedup_vs_reference` and/or a `zero_loss_ratio`, paired
/// with the line's `"name"` value.
///
/// The bench files are written by our own smoke binaries with one case
/// object per line, so a line-oriented scan is exact for them — and
/// deliberately dependency-free (the workspace vendors no JSON parser).
fn extract_speedups(json: &str) -> Vec<Reading> {
    let mut readings = Vec::new();
    for line in json.lines() {
        let speedup = field(line, "\"speedup_vs_reference\":").map(|raw| {
            raw.parse::<f64>()
                .unwrap_or_else(|e| panic!("bad speedup_vs_reference {raw:?}: {e}"))
        });
        let zero_loss_ratio = field(line, "\"zero_loss_ratio\":").map(|raw| {
            raw.parse::<f64>()
                .unwrap_or_else(|e| panic!("bad zero_loss_ratio {raw:?}: {e}"))
        });
        let fuzz_violations = field(line, "\"fuzz_violations\":").map(|raw| {
            raw.parse::<f64>()
                .unwrap_or_else(|e| panic!("bad fuzz_violations {raw:?}: {e}"))
        });
        let trunk_win = field(line, "\"rstorm_beats_even_on_trunk\":").map(|raw| {
            raw.parse::<f64>()
                .unwrap_or_else(|e| panic!("bad rstorm_beats_even_on_trunk {raw:?}: {e}"))
        });
        let failover_zero_loss = field(line, "\"failover_zero_loss\":").map(|raw| {
            raw.parse::<f64>()
                .unwrap_or_else(|e| panic!("bad failover_zero_loss {raw:?}: {e}"))
        });
        let reconciliation_convergence =
            field(line, "\"reconciliation_convergence\":").map(|raw| {
                raw.parse::<f64>()
                    .unwrap_or_else(|e| panic!("bad reconciliation_convergence {raw:?}: {e}"))
            });
        if speedup.is_none()
            && zero_loss_ratio.is_none()
            && fuzz_violations.is_none()
            && trunk_win.is_none()
            && failover_zero_loss.is_none()
            && reconciliation_convergence.is_none()
        {
            continue;
        }
        let case = field_str(line, "\"name\":")
            .unwrap_or("<unnamed>")
            .to_owned();
        readings.push(Reading {
            case,
            speedup,
            zero_loss_ratio,
            fuzz_violations,
            trunk_win,
            failover_zero_loss,
            reconciliation_convergence,
        });
    }
    readings
}

/// The raw token following `key` on `line` (up to `,`, `}` or space).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(key)? + key.len()..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| c == ',' || c == '}' || c.is_whitespace())
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// The quoted string following `key` on `line`.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let token = field(line, key)?;
    token.strip_prefix('"')?.strip_suffix('"')
}

/// The minimum acceptable `speedup_vs_reference`, from `BENCH_GUARD_MIN`
/// (default 1.0).
fn threshold() -> f64 {
    match std::env::var("BENCH_GUARD_MIN") {
        Ok(raw) => raw.parse().unwrap_or_else(|e| {
            panic!("BENCH_GUARD_MIN must be a number, got {raw:?}: {e}");
        }),
        Err(_) => 1.0,
    }
}

/// The smoke binary that regenerates `path`, if the guard knows one.
fn smoke_bin(path: &str) -> Option<&'static str> {
    if path.ends_with("BENCH_sched.json") {
        Some("perf_smoke")
    } else if path.ends_with("BENCH_sim.json") {
        Some("sim_smoke")
    } else if path.ends_with("BENCH_chaos.json") {
        Some("chaos_smoke")
    } else if path.ends_with("BENCH_adaptive.json") {
        Some("adaptive_smoke")
    } else if path.ends_with("BENCH_replay.json") {
        Some("replay_smoke")
    } else if path.ends_with("BENCH_sweep.json") {
        Some("sweep_smoke")
    } else if path.ends_with("BENCH_scale.json") {
        Some("scale_smoke")
    } else if path.ends_with("BENCH_fuzz.json") {
        Some("fuzz_smoke")
    } else if path.ends_with("BENCH_network.json") {
        Some("congestion_smoke")
    } else if path.ends_with("BENCH_control.json") {
        Some("control_smoke")
    } else {
        None
    }
}

/// Re-runs the smoke binary that produces `path`. Returns false if the
/// run could not be launched or failed.
fn remeasure(path: &str) -> bool {
    let Some(bin) = smoke_bin(path) else {
        return false;
    };
    eprintln!(
        "bench_guard: re-measuring {path} via `cargo run --release -p rstorm-bench --bin {bin}`"
    );
    Command::new(env!("CARGO"))
        .args(["run", "--release", "-p", "rstorm-bench", "--bin", bin])
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

fn check_file(path: &str, min: f64) -> Result<usize, String> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: {e} (run the matching smoke binary first)"))?;
    let readings = extract_speedups(&json);
    if readings.is_empty() {
        return Err(format!("{path}: no speedup_vs_reference entries found"));
    }
    let mut failures = 0;
    for r in &readings {
        // zero_loss_ratio is a correctness gate, pinned at exactly 1.0
        // regardless of BENCH_GUARD_MIN.
        let lossy = r.zero_loss_ratio.is_some_and(|z| z != 1.0);
        let fuzzed = r.fuzz_violations.is_some_and(|v| v != 0.0);
        let congested = r.trunk_win.is_some_and(|t| t < 1.0);
        let failover_lossy = r.failover_zero_loss.is_some_and(|z| z != 1.0);
        let diverged = r.reconciliation_convergence.is_some_and(|c| c != 1.0);
        let verdict = if lossy {
            failures += 1;
            "TUPLE LOSS"
        } else if fuzzed {
            failures += 1;
            "ORACLE VIOLATION"
        } else if congested {
            failures += 1;
            "PACKING LOST"
        } else if failover_lossy {
            failures += 1;
            "FAILOVER LOSS"
        } else if diverged {
            failures += 1;
            "RECONCILE DIVERGED"
        } else if r.speedup.is_some_and(|s| s < min) {
            failures += 1;
            "REGRESSION"
        } else {
            "ok"
        };
        let speedup = match r.speedup {
            Some(s) => format!("{s:>6.2}x"),
            None => format!("{:>7}", "-"),
        };
        let mut gates = String::new();
        if let Some(z) = r.zero_loss_ratio {
            gates.push_str(&format!("zero_loss {z:.3}  "));
        }
        if let Some(v) = r.fuzz_violations {
            gates.push_str(&format!("fuzz_violations {v:.0}  "));
        }
        if let Some(t) = r.trunk_win {
            gates.push_str(&format!("trunk_win {t:.2}x  "));
        }
        if let Some(z) = r.failover_zero_loss {
            gates.push_str(&format!("failover_zero_loss {z:.3}  "));
        }
        if let Some(c) = r.reconciliation_convergence {
            gates.push_str(&format!("reconcile {c:.3}  "));
        }
        println!("{path}: {:<40} {speedup}  {gates}{verdict}", r.case);
    }
    if failures > 0 {
        Err(format!(
            "{path}: {failures} case(s) below the {min:.2}x threshold or losing tuples"
        ))
    } else {
        Ok(readings.len())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let files: Vec<&str> = if args.is_empty() {
        vec![
            "BENCH_sched.json",
            "BENCH_sim.json",
            "BENCH_chaos.json",
            "BENCH_adaptive.json",
            "BENCH_replay.json",
            "BENCH_sweep.json",
            "BENCH_scale.json",
            "BENCH_fuzz.json",
            "BENCH_network.json",
            "BENCH_control.json",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };
    let min = threshold();

    let mut errors = Vec::new();
    let mut checked = 0;
    for file in files {
        let result = match check_file(file, min) {
            Ok(n) => Ok(n),
            // One retry: refresh the file with its smoke binary and
            // re-check, so a single noisy sample is not a failure.
            Err(first) if remeasure(file) => {
                check_file(file, min).map_err(|second| format!("{second} (first attempt: {first})"))
            }
            Err(e) => Err(e),
        };
        match result {
            Ok(n) => checked += n,
            Err(e) => errors.push(e),
        }
    }
    if errors.is_empty() {
        println!("bench_guard: {checked} case(s) at or above {min:.2}x — pass");
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("bench_guard: {e}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_named_speedups() {
        let json = r#"{
  "cases": [
    {"name": "a", "fast_ns": 1, "speedup_vs_reference": 2.50},
    {"name": "b", "fast_ns": 2, "speedup_vs_reference": 0.91}
  ]
}"#;
        let readings = extract_speedups(json);
        assert_eq!(
            readings,
            vec![
                Reading {
                    case: "a".into(),
                    speedup: Some(2.5),
                    zero_loss_ratio: None,
                    fuzz_violations: None,
                    trunk_win: None,
                    failover_zero_loss: None,
                    reconciliation_convergence: None
                },
                Reading {
                    case: "b".into(),
                    speedup: Some(0.91),
                    zero_loss_ratio: None,
                    fuzz_violations: None,
                    trunk_win: None,
                    failover_zero_loss: None,
                    reconciliation_convergence: None
                },
            ]
        );
    }

    #[test]
    fn ignores_lines_without_speedups() {
        let json = "{\n  \"benchmark\": \"x\",\n  \"unit\": \"ns\"\n}\n";
        assert!(extract_speedups(json).is_empty());
    }

    #[test]
    fn real_bench_sched_shape_parses() {
        // The exact line shape perf_smoke writes.
        let line = r#"    {"name": "schedule/40t_12n", "tasks": 40, "nodes": 12, "rstorm_ns": 27598, "rstorm_reference_ns": 48508, "even_ns": 24494, "speedup_vs_reference": 1.76}"#;
        let readings = extract_speedups(line);
        assert_eq!(readings.len(), 1);
        assert_eq!(readings[0].case, "schedule/40t_12n");
        assert!((readings[0].speedup.unwrap() - 1.76).abs() < 1e-9);
    }

    #[test]
    fn real_bench_chaos_shape_parses() {
        // The exact line shape chaos_smoke writes.
        let line = r#"    {"name": "page_load", "tasks": 16, "nodes": 24, "sim_ms": 60000, "crash_at_ms": 20000, "time_to_detect_ms": 2000, "time_to_recover_ms": 2000, "tuples_lost": 50, "throughput_dip_depth": 0.679, "reschedule_attempts": 1, "fast_ns": 51740000, "reference_ns": 298390000, "speedup_vs_reference": 5.77}"#;
        let readings = extract_speedups(line);
        assert_eq!(readings.len(), 1);
        assert_eq!(readings[0].case, "page_load");
        assert!((readings[0].speedup.unwrap() - 5.77).abs() < 1e-9);
    }

    #[test]
    fn real_bench_replay_shape_parses() {
        // The exact line shape replay_smoke writes.
        let line = r#"    {"name": "page_load", "tasks": 16, "nodes": 24, "sim_ms": 60000, "max_replays": 8, "roots_emitted": 39968, "roots_replayed": 5, "tuples_quarantined": 0, "zero_loss_ratio": 1.000, "fast_ns": 46880000, "reference_ns": 282080000, "speedup_vs_reference": 6.02}"#;
        let readings = extract_speedups(line);
        assert_eq!(readings.len(), 1);
        assert_eq!(readings[0].case, "page_load");
        assert!((readings[0].speedup.unwrap() - 6.02).abs() < 1e-9);
        assert_eq!(readings[0].zero_loss_ratio, Some(1.0));
    }

    #[test]
    fn real_bench_sweep_shapes_parse() {
        // The exact line shapes sweep_smoke writes: one speedup case,
        // then one correctness-only line per group (no speedup, and
        // `zero_loss_ratio` only on survivable groups).
        let json = r#"    {"name": "sweep/parallel_speedup", "jobs": 64, "workers": 8, "serial_ns": 8000000000, "parallel_ns": 1100000000, "speedup_vs_reference": 7.27},
    {"name": "linear_net/rstorm/crash_recover", "seeds": 8, "survivable": true, "net_mean": 1234.5, "net_stdev": 6.7, "detect_p50_ms": 2000.0, "detect_p90_ms": 2000.0, "detect_p99_ms": 2000.0, "recover_p50_ms": 2000.0, "recover_p90_ms": 2000.0, "recover_p99_ms": 2000.0, "lost_hist": [0, 8, 0, 0, 0, 0, 0, 0], "zero_loss_ratio": 1.0},
    {"name": "linear_net/rstorm/crash_lasting", "seeds": 8, "survivable": false, "net_mean": 900.0, "net_stdev": 12.0, "detect_p50_ms": 2000.0, "detect_p90_ms": 2000.0, "detect_p99_ms": 2000.0, "recover_p50_ms": -1.0, "recover_p90_ms": -1.0, "recover_p99_ms": -1.0, "lost_hist": [0, 0, 8, 0, 0, 0, 0, 0]}"#;
        let readings = extract_speedups(json);
        assert_eq!(readings.len(), 2, "the unsurvivable group line is ungated");
        assert_eq!(
            readings[0],
            Reading {
                case: "sweep/parallel_speedup".into(),
                speedup: Some(7.27),
                zero_loss_ratio: None,
                fuzz_violations: None,
                trunk_win: None,
                failover_zero_loss: None,
                reconciliation_convergence: None
            }
        );
        assert_eq!(
            readings[1],
            Reading {
                case: "linear_net/rstorm/crash_recover".into(),
                speedup: None,
                zero_loss_ratio: Some(1.0),
                fuzz_violations: None,
                trunk_win: None,
                failover_zero_loss: None,
                reconciliation_convergence: None
            }
        );
    }

    #[test]
    fn real_bench_scale_shape_parses() {
        // The exact line shape scale_smoke writes, gated on speedup only.
        let json = r#"    {"name": "scale/base", "tasks": 10000, "nodes": 1000, "sim_ms": 60000, "events": 121100, "fast_ns": 36640000, "reference_ns": 57310000, "speedup_vs_reference": 1.56}"#;
        let readings = extract_speedups(json);
        assert_eq!(readings.len(), 1);
        assert_eq!(
            readings[0],
            Reading {
                case: "scale/base".into(),
                speedup: Some(1.56),
                zero_loss_ratio: None,
                fuzz_violations: None,
                trunk_win: None,
                failover_zero_loss: None,
                reconciliation_convergence: None
            }
        );
    }

    #[test]
    fn real_bench_network_shapes_parse() {
        // The exact line shapes congestion_smoke writes: the contention
        // case gated on the packing-wins ratio (no speedup), the legacy
        // case on speedup only.
        let json = r#"    {"name": "network/trunk_contention", "tasks": 24, "nodes": 12, "sim_ms": 60000, "rstorm_net": 390180.0, "even_net": 232310.0, "rstorm_trunk_mb": 0.0, "even_trunk_mb": 1670.9, "even_trunk_saturated_windows": 6, "even_trunk_peak_utilization": 0.990, "rstorm_beats_even_on_trunk": 1.68},
    {"name": "network/legacy_engine", "tasks": 24, "nodes": 12, "sim_ms": 60000, "fast_ns": 218600000, "reference_ns": 661200000, "speedup_vs_reference": 3.02}"#;
        let readings = extract_speedups(json);
        assert_eq!(readings.len(), 2);
        assert_eq!(
            readings[0],
            Reading {
                case: "network/trunk_contention".into(),
                speedup: None,
                zero_loss_ratio: None,
                fuzz_violations: None,
                trunk_win: Some(1.68),
                failover_zero_loss: None,
                reconciliation_convergence: None
            }
        );
        assert_eq!(
            readings[1],
            Reading {
                case: "network/legacy_engine".into(),
                speedup: Some(3.02),
                zero_loss_ratio: None,
                fuzz_violations: None,
                trunk_win: None,
                failover_zero_loss: None,
                reconciliation_convergence: None
            }
        );
    }

    #[test]
    fn losing_to_even_on_the_trunk_fails_even_when_fast() {
        let readings = extract_speedups(
            r#"    {"name": "network/trunk_contention", "rstorm_beats_even_on_trunk": 0.97}"#,
        );
        assert_eq!(readings[0].trunk_win, Some(0.97));
        // check_file's gate: a ratio below 1.0 counts as a failure; pin
        // the predicate the gate uses.
        assert!(readings[0].trunk_win.is_some_and(|t| t < 1.0));
    }

    #[test]
    fn every_default_file_has_a_smoke_binary() {
        for file in [
            "BENCH_sched.json",
            "BENCH_sim.json",
            "BENCH_chaos.json",
            "BENCH_adaptive.json",
            "BENCH_replay.json",
            "BENCH_sweep.json",
            "BENCH_scale.json",
            "BENCH_fuzz.json",
            "BENCH_network.json",
            "BENCH_control.json",
        ] {
            assert!(smoke_bin(file).is_some(), "{file} has no re-measure path");
        }
        assert_eq!(smoke_bin("BENCH_other.json"), None);
    }

    #[test]
    fn real_bench_control_shapes_parse() {
        // The exact line shapes control_smoke writes: the failover case
        // gated on the journaled zero-loss pin, the replay case on
        // reconciliation convergence. Neither carries a speedup.
        let json = r#"    {"name": "control/failover", "wall_ns": 121451108, "time_to_reassume_ms": 10000.0, "journaled_zero_loss": 1.0, "cold_zero_loss": 0.998668326819232, "failover_zero_loss": 1.0},
    {"name": "control/replay", "wall_ns": 69087966, "time_to_reassume_ms": 8000.0, "decisions_replayed": 3, "reconciliation_convergence": 1.0}"#;
        let readings = extract_speedups(json);
        assert_eq!(readings.len(), 2);
        assert_eq!(
            readings[0],
            Reading {
                case: "control/failover".into(),
                speedup: None,
                zero_loss_ratio: None,
                fuzz_violations: None,
                trunk_win: None,
                failover_zero_loss: Some(1.0),
                reconciliation_convergence: None
            }
        );
        assert_eq!(
            readings[1],
            Reading {
                case: "control/replay".into(),
                speedup: None,
                zero_loss_ratio: None,
                fuzz_violations: None,
                trunk_win: None,
                failover_zero_loss: None,
                reconciliation_convergence: Some(1.0)
            }
        );
    }

    #[test]
    fn lossy_failover_fails_even_without_a_speedup() {
        // check_file's gates: both control pins demand exactly 1.0; pin
        // the predicates the gates use.
        let readings =
            extract_speedups(r#"    {"name": "control/failover", "failover_zero_loss": 0.998}"#);
        assert_eq!(readings[0].failover_zero_loss, Some(0.998));
        assert!(readings[0].failover_zero_loss.is_some_and(|z| z != 1.0));
        let readings = extract_speedups(
            r#"    {"name": "control/replay", "reconciliation_convergence": 0.5}"#,
        );
        assert_eq!(readings[0].reconciliation_convergence, Some(0.5));
        assert!(readings[0]
            .reconciliation_convergence
            .is_some_and(|c| c != 1.0));
    }
}
