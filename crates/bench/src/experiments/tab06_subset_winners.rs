//! Table 6 — "Which mechanism can be the best with N benchmarks?":
//! exhaustively enumerates *every* benchmark subset (2²⁶ − 1 of them, via a
//! Gray-code walk) and records, per subset size N, which mechanisms can win
//! some N-benchmark selection. The paper's cherry-picking result: for any
//! N ≤ 23 there is more than one possible winner, and even poor-on-average
//! mechanisms (FVC, Markov) win surprisingly large selections.

use crate::Context;
use microlib::report::text_table;
use microlib::subset_winner_analysis;
use std::io::{self, Write};

/// Runs the exhaustive subset-winner enumeration.
///
/// # Errors
///
/// Propagates write failures on `w`.
pub fn run(cx: &mut Context, w: &mut dyn Write) -> io::Result<()> {
    cx.header(
        w,
        "tab06_subset_winners",
        "Table 6 (Which mechanism can be the best with N benchmarks?)",
        "Exhaustive Gray-code enumeration of all benchmark subsets",
    )?;
    let matrix = cx.std_matrix();
    let t = std::time::Instant::now();
    let analysis = subset_winner_analysis(matrix);
    // Timing goes to stderr: result tables must be bit-identical across
    // runs and thread counts.
    eprintln!(
        "  enumerated {} subsets in {:?}",
        (1u64 << matrix.benchmarks().len()) - 1,
        t.elapsed()
    );
    writeln!(
        w,
        "enumerated {} subsets\n",
        (1u64 << matrix.benchmarks().len()) - 1
    )?;

    // The paper's table: rows = N, columns = mechanisms, check = can win.
    let mut headers: Vec<String> = vec!["N".into()];
    headers.extend(analysis.mechanisms.iter().map(|k| k.to_string()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for n in 1..=analysis.benchmark_count {
        let mut row = vec![n.to_string()];
        for k in &analysis.mechanisms {
            row.push(if analysis.wins_at(*k, n) {
                "x".into()
            } else {
                String::new()
            });
        }
        rows.push(row);
    }
    writeln!(w, "{}", text_table(&header_refs, &rows))?;

    let mut multi = 0;
    for n in 1..=analysis.benchmark_count {
        if analysis.winners_at(n) > 1 {
            multi = n;
        }
    }
    writeln!(
        w,
        "largest N with more than one possible winner: {multi}  (paper: 23)"
    )?;
    for k in &analysis.mechanisms {
        if let Some(n) = analysis.max_winning_size(*k) {
            writeln!(
                w,
                "  {:8} can win selections up to N = {}",
                k.to_string(),
                n
            )?;
        }
    }
    Ok(())
}
