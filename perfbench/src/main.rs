//! `cupft-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (see [`cupft_perfbench::run`]), checks every
//! instance's outputs, and prints one JSON result object as the last line
//! of standard output: the end-to-end metrics untraced, the per-layer
//! metrics traced. Progress goes to standard error.

use std::process::ExitCode;
use std::time::Duration;

use cupft_perfbench::metrics::result_json;
use cupft_perfbench::run::{traced, untraced};
use cupft_perfbench::workload::Workload;

const USAGE: &str =
    "usage: cupft-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    budget: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        budget: Duration::from_secs(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = args.workload.spec();
    eprintln!(
        "{} seed={} budget={}s trace={}",
        args.workload.name(),
        args.seed,
        args.budget.as_secs(),
        args.trace
    );
    let run = if args.trace {
        traced(&spec, args.seed, args.budget)
    } else {
        untraced(&spec, args.seed, args.budget)
    };
    println!(
        "{}",
        result_json(run.failed == 0, run.attempted, run.failed, &run.metrics)
    );
    ExitCode::SUCCESS
}
