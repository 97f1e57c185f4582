//! Command line:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//! perfbench --manifest
//! ```
//!
//! Prints the metrics by name with their units, then, as the last line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Exits with 1 if any check failed and 2 on a usage error.

use std::process::ExitCode;

use perfbench::metrics::{manifest_json, result_line, unit_of};
use perfbench::runner::{run, RunConfig};
use perfbench::workloads::{Size, Workload};

fn usage(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
         [--trace-out <path>] | --manifest"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--manifest") {
        print!("{}", manifest_json());
        return ExitCode::SUCCESS;
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--trace-out" => trace_out = Some(value.clone()),
            _ => return usage(&format!("unknown argument {flag} {value}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required and must be valid");
    };

    let config = RunConfig {
        workload,
        seed,
        seconds,
        trace,
        size: Size::Full,
    };
    let outcome = run(&config);

    println!(
        "workload {} seed {seed} passes {} ({})",
        workload.name(),
        outcome.passes,
        if trace { "traced" } else { "untraced" }
    );
    for (name, value) in &outcome.metrics {
        println!("  {name:<40} {value:>14.6} {}", unit_of(name).unwrap_or(""));
    }
    if !trace {
        println!(
            "  (at reference machine speed; slowdown against the reference {:.4}; as the wall clock read them:)",
            outcome.slowdown
        );
        for (name, value) in &outcome.wall_clock {
            println!(
                "    {name:<38} {value:>14.6} {}",
                unit_of(name).unwrap_or("")
            );
        }
    }
    println!(
        "  {:<40} {:>14.6} ratio ({} failed of {} attempted)",
        "error_rate",
        outcome.failed as f64 / outcome.attempted as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("  model fingerprint {}", outcome.fingerprint);
    for failure in &outcome.failures {
        println!("  FAILED: {failure}");
    }
    if let Some(path) = trace_out.filter(|_| trace) {
        let json = outcome.tracer.to_json(workload.name(), seed);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("  spans written to {path}");
    }
    println!(
        "{}",
        result_line(
            outcome.failed == 0,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
