//! Fig 7 — "High- and low-sensitivity benchmarks speedup": mean speedups
//! and rankings computed over all 26 benchmarks, over the 6 most sensitive,
//! and over the 6 least sensitive. "Absolute observed performance and
//! ranking are severely affected by the benchmark selection."

use crate::Context;
use microlib::report::text_table;
use microlib::{rank_mechanisms, sensitivity_classes};
use std::io::{self, Write};

/// Runs the sensitivity-selection ranking comparison.
///
/// # Errors
///
/// Propagates write failures on `w`.
pub fn run(cx: &mut Context, w: &mut dyn Write) -> io::Result<()> {
    cx.header(
        w,
        "fig07_sensitivity_selection",
        "Fig 7 (High- and low-sensitivity benchmark speedups)",
        "Mean speedups over 26 / high-6 / low-6 benchmark selections",
    )?;
    let matrix = cx.std_matrix();
    let (high, low) = sensitivity_classes(matrix, 6);
    writeln!(w, "measured high-sensitivity set: {high:?}")?;
    writeln!(w, "measured low-sensitivity set:  {low:?}\n")?;

    let all: Vec<&str> = matrix.benchmarks().iter().map(String::as_str).collect();
    let high_refs: Vec<&str> = high.iter().map(String::as_str).collect();
    let low_refs: Vec<&str> = low.iter().map(String::as_str).collect();

    let mut rows = Vec::new();
    for k in matrix.mechanisms() {
        rows.push(vec![
            k.to_string(),
            format!("{:.3}", matrix.mean_speedup_over(*k, &all)),
            format!("{:.3}", matrix.mean_speedup_over(*k, &high_refs)),
            format!("{:.3}", matrix.mean_speedup_over(*k, &low_refs)),
        ]);
    }
    writeln!(
        w,
        "{}",
        text_table(&["mechanism", "26 benchmarks", "high-6", "low-6"], &rows)
    )?;
    for (label, sel) in [("26", &all), ("high-6", &high_refs), ("low-6", &low_refs)] {
        let best = rank_mechanisms(matrix, sel);
        writeln!(
            w,
            "winner over {label}: {} ({:.3})",
            best[0].mechanism, best[0].mean_speedup
        )?;
    }
    Ok(())
}
