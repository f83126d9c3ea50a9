//! Fig 10 — "Effect of second-guessing": the TCP article never stated its
//! prefetch request-queue size; the paper tried 1 vs 128 entries and found
//! per-benchmark swings in both directions (tiny for crafty/eon, dramatic
//! for lucas/mgrid/art — a large buffer can *hurt* by seizing the bus).

use crate::Context;
use microlib::report::{pct, text_table};
use microlib::{Cell, CellMechanism};
use microlib_mech::{MechanismKind, TagCorrelatingPrefetcher};
use microlib_trace::benchmarks;
use rayon::prelude::*;
use std::io::{self, Write};

/// Runs the TCP queue-size second-guessing study.
///
/// # Errors
///
/// Propagates write failures on `w`.
pub fn run(cx: &mut Context, w: &mut dyn Write) -> io::Result<()> {
    crate::header(
        w,
        "fig10_second_guessing",
        "Fig 10 (Effect of second-guessing: TCP prefetch queue size)",
        "TCP speedup with a 128-entry vs a 1-entry request queue, per benchmark",
    )?;
    let cfg = std::sync::Arc::new(microlib_model::SystemConfig::baseline());
    let opts = crate::std_options();
    // The Base and default-queue (128) TCP cells ARE standard-campaign
    // cells; only the 1-entry variant needs fresh simulation (one run per
    // benchmark, each a parallel work item).
    let store = cx.store().clone();
    let matrix = cx.std_matrix();
    let q1_speedups: Vec<f64> = crate::par_pool().install(|| {
        benchmarks::NAMES
            .par_iter()
            .map(|bench| {
                let base = matrix.result(bench, MechanismKind::Base);
                // "queue=1" covers the one way this instance differs from
                // the stock TCP, so the cell is memoizable — and
                // disk-cacheable — like any standard-campaign cell.
                let tcp1 = CellMechanism::custom(MechanismKind::Tcp, "queue=1", || {
                    Box::new(TagCorrelatingPrefetcher::with_queue_capacity(1))
                });
                let q1 = store
                    .run(&Cell::new(std::sync::Arc::clone(&cfg), bench, opts, tcp1))
                    .expect("TCP/1 runs");
                q1.perf.speedup_over(&base.perf)
            })
            .collect()
    });
    let mut rows = Vec::new();
    let mut spreads = Vec::new();
    for (bench, s1) in benchmarks::NAMES.iter().zip(q1_speedups) {
        let s128 = matrix.speedup(bench, MechanismKind::Tcp);
        let delta = (s128 - s1) / s1 * 100.0;
        spreads.push(delta.abs());
        rows.push(vec![
            (*bench).to_owned(),
            format!("{:.3}", s128),
            format!("{:.3}", s1),
            pct(delta),
        ]);
    }
    writeln!(
        w,
        "{}",
        text_table(
            &["benchmark", "queue = 128", "queue = 1", "difference"],
            &rows
        )
    )?;
    if let Some(avg) = microlib_model::stats::mean(&spreads) {
        writeln!(
            w,
            "average |difference|: {avg:.1}%  — an undocumented parameter moves results"
        )?;
        writeln!(
            w,
            "in both directions (the paper settled on 128 after contacting the authors)."
        )?;
    }
    Ok(())
}
