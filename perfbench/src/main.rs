//! The LeJIT benchmark: one command, four workloads, end-to-end metrics
//! with tracing off and per-layer metrics with it on. See `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload impute --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is non-zero if any
//! correctness check failed or the arguments are invalid.

mod offline;
mod report;
mod serve;
mod setup;
mod stats;
mod trace;

use std::process::ExitCode;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lejit-perfbench: {e}");
            eprintln!(
                "usage: lejit-perfbench --workload impute|synth|serve_rate|serve_peak \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    // Every knob is pinned here; `LEJIT_*` variables are not read.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    minipool::set_global_threads(threads);
    let (s, t) = (args.seconds, args.trace);
    let report = match args.workload.as_str() {
        "impute" => offline::run(offline::Task::Impute, args.seed, s, t, threads),
        "synth" => offline::run(offline::Task::Synth, args.seed, s, t, threads),
        "serve_rate" => serve::run(serve::Mode::Rate, args.seed, s, t, threads),
        "serve_peak" => serve::run(serve::Mode::Peak, args.seed, s, t, threads),
        other => {
            eprintln!("lejit-perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.render(&args.workload));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("lejit-perfbench: a correctness check failed");
        ExitCode::from(1)
    }
}
