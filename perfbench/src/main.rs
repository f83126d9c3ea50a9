//! The repository's benchmark: two workloads, a cold sweep through the
//! simulator and the campaign engine and a request mix through the
//! campaign daemon; the traced run also probes the experiment battery.
//!
//! ```text
//! microlib-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! microlib-perfbench --list
//! ```
//!
//! Run from the repository root (the battery probe reads
//! `results-golden/`);
//! scratch caches go under `.perfbench-work/` and are removed on exit.
//! The last line of standard output is the result: output-check tallies
//! and, with `--trace 0`, the end-to-end metrics or, with `--trace 1`, the
//! per-layer metrics. `--list` prints the declared workload and metric
//! names. `perfbench/run.py` builds this binary and runs it.

mod battery;
mod common;
mod layers;
mod serve;
mod sweep;

use common::{Args, WorkDir};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if args.list {
        println!("{}", common::list_json());
        return;
    }
    let work = match WorkDir::create(&args.workload) {
        Ok(work) => work,
        Err(e) => {
            eprintln!("cannot create the scratch directory: {e}");
            std::process::exit(1);
        }
    };
    let report = match args.workload.as_str() {
        "sweep_cold" => sweep::run(&args, &work),
        "serve_mixed" => serve::run(&args, &work),
        other => unreachable!("Args::parse admits only declared workloads, got {other}"),
    };
    for failure in &report.failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    drop(work);
    match report.result_line(args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("no result: {e}");
            std::process::exit(1);
        }
    }
}
