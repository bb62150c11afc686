//! Regenerates one table or figure of the paper, or all of them in one run
//! (E0-E9 and E13, sharing the cached sweeps). See EXPERIMENTS.md for the
//! paper-vs-measured record.
//!
//! usage: `experiments <name|all>`

use std::process::ExitCode;

use zkperf_bench::experiments::{all, EXPERIMENTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [name] = args.as_slice() else {
        return usage();
    };
    if name == "all" {
        all();
    } else if let Some((_, run)) = EXPERIMENTS.iter().find(|(n, _)| n == name) {
        run();
    } else {
        return usage();
    }
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    eprintln!("usage: experiments <name|all>\nnames: {}", names.join(", "));
    ExitCode::from(1)
}
