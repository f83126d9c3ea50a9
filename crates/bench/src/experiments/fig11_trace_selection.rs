//! Fig 11 — "Effect of trace selection": the arbitrary "skip N, simulate M"
//! windows most articles used vs SimPoint-selected representative
//! intervals. Paper: the two methods differ significantly, most mechanisms
//! look better on arbitrary windows, and even multi-billion-instruction
//! windows are no safe precaution.

use crate::Context;
use microlib::report::text_table;
use microlib::{Campaign, ExperimentConfig};
use microlib_mech::MechanismKind;
use microlib_trace::{benchmarks, simpoint, BbvProfiler, TraceWindow, Workload};
use rayon::prelude::*;
use std::io::{self, Write};

/// Runs the trace-selection comparison.
///
/// # Errors
///
/// Propagates write failures on `w`.
pub fn run(cx: &mut Context, w: &mut dyn Write) -> io::Result<()> {
    cx.header(
        w,
        "fig11_trace_selection",
        "Fig 11 (Effect of trace selection)",
        "Arbitrary skip/simulate window vs the SimPoint-selected interval",
    )?;
    let base = cx.settings().experiment();
    let seed = cx.settings().seed;
    let window = cx.settings().window();

    // SimPoint per benchmark: profile BBVs over a profiling prefix, pick
    // the primary simulation point, simulate that interval.
    let interval = window.simulate;
    let profile_len = interval * 8;
    writeln!(
        w,
        "profiling {profile_len} instructions per benchmark in {interval}-instruction intervals…\n"
    )?;

    // One parallel work item per benchmark: profile, choose the SimPoint,
    // sweep all mechanisms over the chosen interval (inner campaign runs
    // single-threaded — the outer loop already fills the machine).
    let mechanisms = base.mechanisms.clone();
    // Inner campaigns share the battery-wide store: their cells memoize
    // (and persist, with a disk tier) like standard-campaign cells.
    let store = cx.store().clone();
    let per_bench: Vec<(usize, TraceWindow, Vec<f64>)> = cx.settings().pool().install(|| {
        benchmarks::NAMES
            .par_iter()
            .map(|bench| {
                let workload = Workload::new(benchmarks::by_name(bench).unwrap(), seed);
                let mut profiler = BbvProfiler::new(interval);
                for inst in workload.stream().take(profile_len as usize) {
                    profiler.observe(&inst);
                }
                let vectors = BbvProfiler::to_matrix(profiler.intervals());
                let chosen = simpoint::primary_simpoint(&vectors, 6, seed)
                    .map(|p| p.interval)
                    .unwrap_or(0);
                let sp_window = TraceWindow::simpoint_interval(chosen, interval);
                let cfg = ExperimentConfig {
                    benchmarks: vec![(*bench).to_owned()],
                    window: sp_window,
                    threads: 1,
                    ..base.clone()
                };
                let m = Campaign::new(cfg)
                    .with_store(store.clone())
                    .run()
                    .and_then(|r| r.into_matrix())
                    .expect("simpoint sweep");
                let speedups = mechanisms.iter().map(|k| m.speedup(bench, *k)).collect();
                (chosen, sp_window, speedups)
            })
            .collect()
    });

    // Arbitrary window (what most articles do) — the standard campaign.
    let arbitrary = cx.std_matrix();

    let mut rows = Vec::new();
    let mut simpoint_means: Vec<(MechanismKind, Vec<f64>)> =
        mechanisms.iter().map(|k| (*k, Vec::new())).collect();
    for (bench, (chosen, sp_window, speedups)) in benchmarks::NAMES.iter().zip(&per_bench) {
        for ((_, acc), s) in simpoint_means.iter_mut().zip(speedups) {
            acc.push(*s);
        }
        rows.push(vec![
            (*bench).to_owned(),
            format!("interval {chosen} ({sp_window})"),
        ]);
    }
    writeln!(
        w,
        "{}",
        text_table(&["benchmark", "SimPoint choice"], &rows)
    )?;

    let names: Vec<&str> = base.benchmarks.iter().map(String::as_str).collect();
    let mut table = Vec::new();
    for (k, acc) in &simpoint_means {
        if *k == MechanismKind::Base {
            continue;
        }
        let arb = arbitrary.mean_speedup_over(*k, &names);
        let sp = microlib_model::stats::mean(acc).unwrap_or(0.0);
        table.push(vec![
            k.to_string(),
            format!("{:.3}", arb),
            format!("{:.3}", sp),
            format!("{:+.3}", arb - sp),
        ]);
    }
    writeln!(
        w,
        "{}",
        text_table(
            &[
                "mechanism",
                "arbitrary window",
                "SimPoint interval",
                "arbitrary - simpoint"
            ],
            &table
        )
    )?;
    writeln!(
        w,
        "paper: \"most mechanisms appear to perform better with an arbitrary 2-billion"
    )?;
    writeln!(
        w,
        "trace, with the notable exception of TP\" — trace selection steers decisions."
    )
}
