//! `rpcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run metadata, every metric with its unit and basis, and as
//! the last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits non-zero, printing no result, when the run cannot be
//! made.

use std::path::PathBuf;
use std::process::ExitCode;

use dagger_rpcbench::run::{run, Args};

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rpcbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    match run(&args, Some(out)) {
        Ok(report) => {
            let meta: Vec<String> = report
                .meta
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            println!("# meta {}", meta.join(" "));
            for (name, m) in &report.metrics {
                println!("# {name} = {} {} ({})", m.value, m.unit, m.basis);
            }
            println!(
                "# calls attempted={} failed={} correct={}",
                report.attempted, report.failed, report.correct
            );
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rpcbench: {e}");
            ExitCode::FAILURE
        }
    }
}
