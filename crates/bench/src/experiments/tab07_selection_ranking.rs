//! Table 7 — "Influence of benchmark selection": full 26-benchmark ranking
//! vs the rankings induced by the DBCP and GHB articles' own benchmark
//! selections. The paper: DBCP's selection flatters DBCP; GHB actually does
//! *better* on all 26 than on its own article's selection.

use crate::Context;
use microlib::ranking_row;
use microlib::report::text_table;
use microlib_trace::benchmarks;
use std::io::{self, Write};

/// Runs the benchmark-selection ranking comparison.
///
/// # Errors
///
/// Propagates write failures on `w`.
pub fn run(cx: &mut Context, w: &mut dyn Write) -> io::Result<()> {
    cx.header(
        w,
        "tab07_selection_ranking",
        "Table 7 (Influence of benchmark selection)",
        "Rank of each mechanism under three benchmark selections",
    )?;
    let matrix = cx.std_matrix();

    let all: Vec<&str> = matrix.benchmarks().iter().map(String::as_str).collect();
    let dbcp_sel: Vec<&str> = benchmarks::DBCP_SELECTION.to_vec();
    let ghb_sel: Vec<&str> = benchmarks::GHB_SELECTION.to_vec();

    let mut headers: Vec<String> = vec!["selection".into()];
    headers.extend(matrix.mechanisms().iter().map(|k| k.to_string()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    let mut rows = Vec::new();
    for (label, sel) in [
        ("26 benchmarks", &all),
        ("DBCP article selection", &dbcp_sel),
        ("GHB article selection", &ghb_sel),
    ] {
        let ranks = ranking_row(matrix, sel);
        let mut row = vec![label.to_owned()];
        row.extend(ranks.iter().map(|r| r.to_string()));
        rows.push(row);
    }
    writeln!(w, "{}", text_table(&header_refs, &rows))?;
    writeln!(w, "selections: DBCP = {:?}", benchmarks::DBCP_SELECTION)?;
    writeln!(w, "            GHB  = {:?}", benchmarks::GHB_SELECTION)
}
