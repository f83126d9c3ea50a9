//! Fig 3 — "Fixing the DBCP reverse-engineered implementation": speedups of
//! the initial (four documented bugs) vs fixed DBCP implementations. The
//! paper measured an average 38% difference, and noted that the TK authors'
//! own independent reverse-engineering landed close to the *initial*
//! implementation.

use crate::Context;
use microlib::compare_dbcp_variants;
use microlib::report::{pct, text_table};
use microlib_trace::benchmarks;
use rayon::prelude::*;
use std::io::{self, Write};

/// Runs the DBCP initial-vs-fixed comparison.
///
/// # Errors
///
/// Propagates write failures on `w`.
pub fn run(cx: &mut Context, w: &mut dyn Write) -> io::Result<()> {
    cx.header(
        w,
        "fig03_dbcp_fix",
        "Fig 3 (Fixing the DBCP reverse-engineered implementation)",
        "Speedup of the initial (buggy) vs fixed DBCP per benchmark",
    )?;
    let window = cx.settings().article_window();
    let seed = cx.settings().seed;
    let store = cx.store().clone();
    let comparisons = cx.settings().pool().install(|| {
        benchmarks::NAMES
            .par_iter()
            .map(|bench| compare_dbcp_variants(&store, bench, window, seed))
            .collect::<Vec<_>>()
    });
    let mut rows = Vec::new();
    let mut diffs = Vec::new();
    for (bench, cmp) in benchmarks::NAMES.iter().zip(comparisons) {
        match cmp {
            Ok(cmp) => {
                diffs.push(cmp.difference_percent().abs());
                rows.push(vec![
                    (*bench).to_owned(),
                    format!("{:.3}", cmp.initial),
                    format!("{:.3}", cmp.fixed),
                    pct(cmp.difference_percent()),
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
            &["benchmark", "DBCP-initial", "DBCP (fixed)", "difference"],
            &rows
        )
    )?;
    if let Some(avg) = microlib_model::stats::mean(&diffs) {
        writeln!(w, "average |difference|: {avg:.1}%  (paper: 38% average)")?;
    }
    Ok(())
}
