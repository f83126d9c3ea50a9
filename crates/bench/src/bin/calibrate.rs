//! Calibration snapshot: sweeps the paper's fixed window through the
//! campaign engine and prints the Fig 4 ranking against the paper's
//! target ranks, plus per-benchmark anecdotes and base-column vitals.

use microlib::{rank_mechanisms, ExperimentConfig, Settings};
use microlib_bench::Context;
use microlib_mech::MechanismKind;
use microlib_trace::{benchmarks, TraceWindow};
use std::time::Instant;

fn main() {
    let settings = Settings::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let t = Instant::now();
    let mut cfg = ExperimentConfig::paper_baseline(TraceWindow::new(150_000, 100_000));
    cfg.threads = settings.threads;
    let m = Context::with_settings(settings).sweep(&cfg);
    eprintln!("matrix in {:?}", t.elapsed());
    let names: Vec<&str> = cfg.benchmarks.iter().map(String::as_str).collect();
    println!("\n== Fig 4: mean speedups (paper rank target in parens) ==");
    let target = [
        ("GHB", 1),
        ("SP", 2),
        ("CDPSP", 3),
        ("TK", 4),
        ("TCP", 5),
        ("TP", 6),
        ("TKVC", 7),
        ("VC", 8),
        ("DBCP", 9),
        ("FVC", 10),
        ("Base", 11),
        ("CDP", 12),
        ("Markov", 13),
    ];
    for r in rank_mechanisms(&m, &names) {
        let t = target
            .iter()
            .find(|(n, _)| *n == format!("{}", r.mechanism))
            .map(|(_, p)| *p)
            .unwrap_or(0);
        println!(
            "{:2}. {:8} {:.4}   (paper rank {})",
            r.rank,
            format!("{}", r.mechanism),
            r.mean_speedup,
            t
        );
    }
    println!("\n== anecdotes ==");
    for (b, k) in [
        ("mcf", MechanismKind::Cdp),
        ("twolf", MechanismKind::Cdp),
        ("equake", MechanismKind::Cdp),
        ("ammp", MechanismKind::Cdp),
        ("gzip", MechanismKind::Markov),
        ("ammp", MechanismKind::Markov),
        ("lucas", MechanismKind::Ghb),
        ("swim", MechanismKind::Ghb),
        ("swim", MechanismKind::Sp),
        ("mcf", MechanismKind::Ghb),
    ] {
        println!(
            "{:8} {:8} speedup {:.3}",
            b,
            format!("{k:?}"),
            m.speedup(b, k)
        );
    }
    println!("\n== per-benchmark base IPC / L1D miss ==");
    for b in benchmarks::NAMES {
        let r = m.result(b, MechanismKind::Base);
        println!(
            "{:10} ipc {:.3} l1dmiss {:.3} l2miss {:.3} memlat {:.0}",
            b,
            r.perf.ipc(),
            r.l1d.miss_ratio().unwrap_or(0.0),
            r.l2.miss_ratio().unwrap_or(0.0),
            r.memory.average_latency().unwrap_or(0.0)
        );
    }
}
