//! Fig 2 — "Validation of TK, TCP and TKVC": relative speedup error of the
//! reproduction's standard setup against the original articles' setup
//! (long arbitrary trace window + constant 70-cycle memory). The paper read
//! the reference numbers off the articles' graphs and found a 5% average
//! error with occasional tendency flips (speedup↔slowdown); here the
//! article numbers are *reproduced* by running the article setup rather
//! than read off the articles' graphs.

use crate::Context;
use microlib::report::{pct, text_table};
use microlib::{article_speedup, SetupComparison};
use microlib_mech::MechanismKind;
use microlib_trace::benchmarks;
use rayon::prelude::*;
use std::io::{self, Write};

/// Runs the reverse-engineering validation comparison.
///
/// # Errors
///
/// Propagates write failures on `w`.
pub fn run(cx: &mut Context, w: &mut dyn Write) -> io::Result<()> {
    cx.header(
        w,
        "fig02_reveng_error",
        "Fig 2 (Validation of TK, TCP and TKVC)",
        "Relative speedup error: our setup vs article setup, per benchmark",
    )?;
    let article = cx.settings().article_window();
    let seed = cx.settings().seed;
    let pool = cx.settings().pool();
    // The "our setup" half of each comparison IS a standard-campaign cell;
    // only the article-setup runs (constant-70 memory, longer window) need
    // fresh simulation.
    let store = cx.store().clone();
    let matrix = cx.std_matrix();

    for kind in [MechanismKind::Tk, MechanismKind::Tcp, MechanismKind::Tkvc] {
        writeln!(w, "--- {kind} ---")?;
        let comparisons = pool.install(|| {
            benchmarks::NAMES
                .par_iter()
                .map(|bench| {
                    Ok(SetupComparison {
                        benchmark: (*bench).to_owned(),
                        ours: matrix.speedup(bench, kind),
                        article_setup: article_speedup(&store, kind, bench, article, seed)?,
                    })
                })
                .collect::<Vec<Result<_, microlib::SimError>>>()
        });
        let mut rows = Vec::new();
        let mut errors = Vec::new();
        let mut flips = 0;
        for (bench, cmp) in benchmarks::NAMES.iter().zip(comparisons) {
            match cmp {
                Ok(cmp) => {
                    errors.push(cmp.relative_error_percent().abs());
                    if cmp.tendency_flipped() {
                        flips += 1;
                    }
                    rows.push(vec![
                        (*bench).to_owned(),
                        format!("{:.3}", cmp.ours),
                        format!("{:.3}", cmp.article_setup),
                        pct(cmp.relative_error_percent()),
                        if cmp.tendency_flipped() {
                            "FLIP".into()
                        } else {
                            String::new()
                        },
                    ]);
                }
                Err(e) => rows.push(vec![
                    (*bench).to_owned(),
                    "-".into(),
                    "-".into(),
                    format!("{e}"),
                    String::new(),
                ]),
            }
        }
        writeln!(
            w,
            "{}",
            text_table(
                &[
                    "benchmark",
                    "our speedup",
                    "article-setup speedup",
                    "error",
                    "tendency"
                ],
                &rows
            )
        )?;
        if let Some(avg) = microlib_model::stats::mean(&errors) {
            writeln!(
                w,
                "{kind}: average |error| {avg:.1}%, tendency flips {flips}  (paper: 5% average, occasional flips)\n"
            )?;
        }
    }
    Ok(())
}
