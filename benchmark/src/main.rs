//! One wall-clock benchmark of the gsm workspace: five workloads,
//! end-to-end metrics, and a per-layer ledger. See `README.md`.
//!
//! ```text
//! gsm-benchmark [--workload <name>] [--seed <u64>] [--seconds <n>]
//!               [--trace <0|1>] [--aa]
//! ```
//!
//! With `--workload` the workload runs in this process and the last line
//! of stdout is its result object. Without, every workload runs as its own
//! child process (so peak memory is per workload) and a summary follows;
//! `--aa` runs that twice over ten seeds and compares the two sets with
//! the benchmark's own bounds.

mod config;
mod ingest;
mod input;
mod oracle;
mod probes;
mod report;
mod runner;
mod serve;
mod spec;
mod stats;
mod sys;
mod trace;

use std::process::ExitCode;

/// Arguments of one workload run.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
}

struct Cli {
    workload: Option<String>,
    run: RunArgs,
    aa: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        run: RunArgs {
            seed: 11,
            seconds: spec::manifest().run_seconds,
            traced: false,
        },
        aa: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.run.seed = number(value()?)?,
            "--seconds" => cli.run.seconds = number(value()?)?.clamp(1, 60),
            "--trace" => cli.run.traced = number(value()?)? != 0,
            "--aa" => cli.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Runs one workload in this process and prints its report; the result
/// object is the last line.
fn run_workload(name: &str, args: &RunArgs) -> ExitCode {
    let Some(cfg) = config::ALL.into_iter().find(|c| c.name == name) else {
        let known: Vec<_> = config::ALL.iter().map(|c| c.name).collect();
        eprintln!("unknown workload {name}; known: {known:?}");
        return ExitCode::from(2);
    };
    println!(
        "# gsm-benchmark {name}: seed {}, seconds {}, traced {}, nproc {}, pool width {}, {}, commit {}",
        args.seed,
        args.seconds,
        args.traced,
        sys::nproc(),
        sys::nproc().clamp(1, 4),
        sys::tool_output("rustc", &["--version"]),
        sys::tool_output("git", &["rev-parse", "--short", "HEAD"]),
    );
    let listed = spec::manifest().workloads.iter().find(|w| w.name == name);
    println!(
        "# why this workload: {}",
        listed.expect("BENCHMARK.json lists every workload").why
    );
    let outcome = if name == config::SERVE_MIXED.name {
        serve::run(args)
    } else {
        ingest::run(cfg, args)
    };
    for line in &outcome.context {
        println!("# {line}");
    }
    for (metric, value, unit) in outcome.reported(args.traced) {
        println!("{metric:<40} {value:>18.4} {unit}");
    }
    let ops = &outcome.ops;
    println!(
        "{:<40} {:>18} count\n{:<40} {:>18.6} ratio",
        "ops_attempted",
        ops.attempted,
        "ops_failed_frac",
        ops.failed as f64 / ops.attempted.max(1) as f64
    );
    for note in &ops.notes {
        println!("# FAILED: {note}");
    }
    println!("{}", outcome.result_json(args.traced));
    if ops.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match &cli.workload {
        Some(name) if !cli.aa => run_workload(name, &cli.run),
        selected => runner::run(selected.as_deref(), &cli.run, cli.aa),
    }
}
