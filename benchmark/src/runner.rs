//! Running workloads as child processes: each run is its own OS process,
//! so `rss_peak_mb` (VmHWM) belongs to one workload. Also `--aa`, the
//! acceptance procedure in miniature: two sets of runs of the same code
//! over ten seeds, compared with the benchmark's own bounds.

use std::collections::HashMap;
use std::process::{Command, ExitCode, Stdio};

use crate::stats::{iqr_over_median, median};
use crate::{config, spec, RunArgs};

/// Runs in each of the two sets `--aa` compares, one seed each.
const AA_RUNS: u64 = 10;

#[derive(serde::Deserialize)]
struct Reading {
    value: f64,
    unit: String,
}

/// The result object a workload run prints last.
#[derive(serde::Deserialize)]
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: HashMap<String, Reading>,
}

/// Runs one workload in a child process. `echo` passes its report through.
fn run_child(name: &str, args: &RunArgs, echo: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{stdout}");
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result: RunResult =
        serde_json::from_str(last).map_err(|e| format!("{name}: no result object ({e})"))?;
    if !out.status.success() || !result.correct {
        return Err(format!(
            "{name} (seed {}): {} of {} operations failed",
            args.seed, result.failed, result.attempted
        ));
    }
    Ok(result)
}

pub fn run(selected: Option<&str>, args: &RunArgs, aa: bool) -> ExitCode {
    let names: Vec<&str> = match selected {
        Some(name) => vec![name],
        None => config::ALL.iter().map(|c| c.name).collect(),
    };
    let ok = if aa {
        // Every workload is compared even after one fails.
        let verdicts: Vec<bool> = names.iter().map(|name| aa_sets(name, args)).collect();
        verdicts.into_iter().all(|ok| ok)
    } else {
        every_workload(&names, args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run of each workload, then one table of every metric by name.
fn every_workload(names: &[&str], args: &RunArgs) -> bool {
    let mut ok = true;
    let mut table = Vec::new();
    for name in names {
        match run_child(name, args, true) {
            Ok(result) => table.push((name, result)),
            Err(e) => {
                eprintln!("FAILED: {e}");
                ok = false;
            }
        }
        println!();
    }
    println!("# summary: workload, metric, value, unit");
    for (name, result) in &table {
        let mut rows: Vec<_> = result.metrics.iter().collect();
        rows.sort_by(|a, b| a.0.cmp(b.0));
        for (metric, reading) in rows {
            println!(
                "{name:<16} {metric:<40} {:>18.4} {}",
                reading.value, reading.unit
            );
        }
        println!(
            "{name:<16} {:<40} {:>18} count",
            "ops_attempted", result.attempted
        );
    }
    ok
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(better: &str, a: f64, b: f64) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Two sets of [`AA_RUNS`] runs of `name`, run `i` of each with seed
/// `args.seed + i`. Passes when, for every end-to-end metric, each set's
/// spread (quartile distance over median; `setup_s` exempt) and the
/// worsening of the second median against the first stay within the
/// metric's bound. A spread under a third of the bound is marked steady.
fn aa_sets(name: &str, args: &RunArgs) -> bool {
    let end_to_end = &spec::manifest().end_to_end;
    let mut sets: [HashMap<&str, Vec<f64>>; 2] = [HashMap::new(), HashMap::new()];
    for (label, set) in ["A", "B"].into_iter().zip(&mut sets) {
        for i in 0..AA_RUNS {
            let run = RunArgs {
                seed: args.seed + i,
                seconds: args.seconds,
                traced: false,
            };
            let result = match run_child(name, &run, false) {
                Ok(result) => result,
                Err(e) => {
                    eprintln!("FAILED: {e}");
                    return false;
                }
            };
            for m in end_to_end {
                set.entry(&m.name)
                    .or_default()
                    .push(result.metrics[&m.name].value);
            }
            eprintln!("# {name} set {label} run {} of {AA_RUNS} done", i + 1);
        }
    }
    println!(
        "# A/A {name}: {AA_RUNS} seeds from {}, {} s each",
        args.seed, args.seconds
    );
    println!(
        "{:<24} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "metric", "median A", "median B", "worse", "iqr A", "iqr B", "bound"
    );
    let mut ok = true;
    for m in end_to_end {
        let (a, b) = (&sets[0][m.name.as_str()], &sets[1][m.name.as_str()]);
        let (spread_a, spread_b) = (iqr_over_median(a), iqr_over_median(b));
        let worse = worsening(&m.better, median(a), median(b));
        let spread = spread_a.max(spread_b);
        let within = worse <= m.bound && (m.name == "setup_s" || spread <= m.bound);
        ok &= within;
        println!(
            "{:<24} {:>14.4} {:>14.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {}",
            m.name,
            median(a),
            median(b),
            worse * 100.0,
            spread_a * 100.0,
            spread_b * 100.0,
            m.bound * 100.0,
            match (within, spread <= m.bound / 3.0) {
                (false, _) => "FAILED",
                (true, true) => "ok, steady",
                (true, false) => "ok",
            }
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening("lower", 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((worsening("lower", 100.0, 90.0) + 0.1).abs() < 1e-12);
        assert!((worsening("higher", 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening("higher", 100.0, 120.0) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn the_result_object_parses_back() {
        let line = "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}";
        let result: RunResult = serde_json::from_str(line).expect("parses");
        assert!(result.correct);
        assert_eq!((result.attempted, result.failed), (12, 0));
        assert_eq!(result.metrics["setup_s"].value, 0.8127);
        assert_eq!(result.metrics["setup_s"].unit, "s");
    }
}
