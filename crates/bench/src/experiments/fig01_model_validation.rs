//! Fig 1 — "MicroLib cache model validation": per-benchmark IPC under the
//! detailed MicroLib cache model vs the SimpleScalar-like idealized model
//! (infinite MSHRs, no pipeline stalls, no LSQ backpressure, free refill
//! ports). The paper found 6.8% average difference initially, 2% after
//! aligning the models; the idealized model overestimates IPC.

use crate::Context;
use microlib::compare_fidelity;
use microlib::report::{pct, text_table};
use microlib_trace::benchmarks;
use rayon::prelude::*;
use std::io::{self, Write};

/// Runs the cache-model validation comparison.
///
/// # Errors
///
/// Propagates write failures on `w`.
pub fn run(cx: &mut Context, w: &mut dyn Write) -> io::Result<()> {
    cx.header(
        w,
        "fig01_model_validation",
        "Fig 1 (MicroLib cache model validation)",
        "IPC: detailed model vs SimpleScalar-like idealized model, per benchmark",
    )?;
    let window = cx.settings().window();
    let seed = cx.settings().seed;
    let store = cx.store().clone();
    let comparisons = cx.settings().pool().install(|| {
        benchmarks::NAMES
            .par_iter()
            .map(|bench| compare_fidelity(&store, bench, window, seed))
            .collect::<Vec<_>>()
    });
    let mut rows = Vec::new();
    let mut gaps = Vec::new();
    for (bench, cmp) in benchmarks::NAMES.iter().zip(comparisons) {
        match cmp {
            Ok(cmp) => {
                gaps.push(cmp.gap_percent().abs());
                rows.push(vec![
                    (*bench).to_owned(),
                    format!("{:.3}", cmp.detailed_ipc),
                    format!("{:.3}", cmp.idealized_ipc),
                    pct(cmp.gap_percent()),
                ]);
            }
            Err(e) => rows.push(vec![
                (*bench).to_owned(),
                "-".into(),
                "-".into(),
                format!("{e}"),
            ]),
        }
    }
    writeln!(
        w,
        "{}",
        text_table(
            &["benchmark", "detailed IPC", "idealized IPC", "gap"],
            &rows
        )
    )?;
    if let Some(avg) = microlib_model::stats::mean(&gaps) {
        writeln!(
            w,
            "average |IPC gap|: {avg:.1}%  (paper: 6.8% before alignment, 2% after)"
        )?;
    }
    Ok(())
}
