//! Fig 4 — "Speedup": mean IPC speedup of every mechanism over the Table 1
//! baseline across all 26 benchmarks. The paper's headline: GHB (2004) is
//! the best mechanism and is an evolution of SP (1992 formulation of a 1982
//! idea) — "the progress of data cache research over the past 20 years has
//! been all but regular"; TP (1982) "performs also quite well"; CDP and
//! Markov sit at or below the baseline on average.

use crate::Context;
use microlib::rank_mechanisms;
use microlib::report::{bar, text_table};
use std::io::{self, Write};

/// Runs the headline speedup ranking.
///
/// # Errors
///
/// Propagates write failures on `w`.
pub fn run(cx: &mut Context, w: &mut dyn Write) -> io::Result<()> {
    cx.header(
        w,
        "fig04_speedup",
        "Fig 4 (Speedup) + mechanism ranking",
        "Mean speedup over the 26 benchmarks, all 13 configurations",
    )?;
    let matrix = cx.std_matrix();
    let names: Vec<&str> = matrix.benchmarks().iter().map(String::as_str).collect();
    let ranked = rank_mechanisms(matrix, &names);

    for row in &ranked {
        writeln!(
            w,
            "{:2}. {}",
            row.rank,
            bar(&row.mechanism.to_string(), row.mean_speedup, 1.5, 40)
        )?;
    }
    writeln!(w)?;

    // Per-benchmark detail (the bars of Fig 4's companion data).
    let mut rows = Vec::new();
    for b in matrix.benchmarks() {
        let mut row = vec![b.clone()];
        for k in matrix.mechanisms() {
            row.push(format!("{:.3}", matrix.speedup(b, *k)));
        }
        rows.push(row);
    }
    let mut headers: Vec<String> = vec!["benchmark".into()];
    headers.extend(matrix.mechanisms().iter().map(|k| k.to_string()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    writeln!(w, "{}", text_table(&header_refs, &rows))?;
    writeln!(
        w,
        "year-of-proposal vs rank (the paper's irregular-progress point):"
    )?;
    for row in &ranked {
        let cat = row.mechanism.catalog();
        writeln!(
            w,
            "  rank {:2}: {:7} proposed {} ({})",
            row.rank, cat.acronym, cat.year, cat.venue
        )?;
    }
    Ok(())
}
