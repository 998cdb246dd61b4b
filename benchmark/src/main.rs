//! `benchmark [run|trace] --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a descriptive JSON object, then — as the last line of standard
//! output — the result object `{correct, attempted, failed, metrics}`.
//! Exits non-zero, without a result line, when an output check fails.

use std::time::Instant;
use stob_benchmark::run::{execute, parse_args, USAGE};

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&argv) {
        Ok(args) => execute(&args, started),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}
