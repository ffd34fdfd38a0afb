//! `dreambench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints a human-readable block, then one JSON line:
//! the end-to-end metrics, or with `--trace 1` the per-layer ones. Exits
//! non-zero when a correctness check fails.

use std::process::ExitCode;

use dreambench::grid::{self, Grid};
use dreambench::{report, serve};

const USAGE: &str = "usage: dreambench --workload <paper_grid|overload_grid|serve_live> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match number()? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<report::Report, String> {
    match args.workload.as_str() {
        "paper_grid" => report::grid(&grid::run(Grid::Paper, args.seed, args.seconds, args.trace)),
        "overload_grid" => report::grid(&grid::run(
            Grid::Overload,
            args.seed,
            args.seconds,
            args.trace,
        )),
        "serve_live" => report::serve(&serve::run(args.seed, args.seconds, args.trace)?),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) if !args.workload.is_empty() => args,
        Ok(_) => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for line in &report.lines {
        println!("{line}");
    }
    for e in &report.errors {
        println!("FAILED: {e}");
    }
    match report.json(args.trace) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
