//! Fig 6 — "Benchmark sensitivity": the per-benchmark spread of speedups
//! across all mechanisms. Some benchmarks barely react to any data-cache
//! optimization; others make or break a mechanism's average — which is why
//! benchmark selection can steer conclusions (Table 6/7, Fig 7).

use crate::Context;
use microlib::benchmark_sensitivity;
use microlib::report::{bar, text_table};
use std::io::{self, Write};

/// Runs the benchmark-sensitivity spread analysis.
///
/// # Errors
///
/// Propagates write failures on `w`.
pub fn run(cx: &mut Context, w: &mut dyn Write) -> io::Result<()> {
    cx.header(
        w,
        "fig06_benchmark_sensitivity",
        "Fig 6 (Benchmark sensitivity)",
        "Speedup spread (max - min over mechanisms) per benchmark, most sensitive first",
    )?;
    let matrix = cx.std_matrix();
    let rows = benchmark_sensitivity(matrix);
    let max_span = rows.first().map(|r| r.span()).unwrap_or(1.0).max(0.05);
    let mut table = Vec::new();
    for r in &rows {
        writeln!(w, "{}", bar(&r.benchmark, r.span(), max_span, 40))?;
        table.push(vec![
            r.benchmark.clone(),
            format!("{:.3}", r.min_speedup),
            format!("{:.3}", r.max_speedup),
            format!("{:.3}", r.span()),
        ]);
    }
    writeln!(w)?;
    writeln!(
        w,
        "{}",
        text_table(&["benchmark", "min speedup", "max speedup", "span"], &table)
    )?;
    writeln!(
        w,
        "paper's high-sensitivity set: apsi, equake, fma3d, mgrid, swim, gap"
    )?;
    writeln!(
        w,
        "paper's low-sensitivity set:  wupwise, bzip2, crafty, eon, perlbmk, vortex"
    )
}
