//! Fig 8 — "Effect of the memory model": the same sweep under (a) the
//! constant 70-cycle SimpleScalar-like memory used by many articles, (b)
//! the detailed 170-cycle SDRAM of Table 1, and (c) an SDRAM scaled so its
//! average latency matches 70 cycles. Paper: speedups shrink ~58-60% going
//! from the constant model to either SDRAM; GHB is hurt far more than SP
//! (memory pressure); ranking changes (DBCP vs VC/TKVC flip).

use crate::Context;
use microlib::report::text_table;
use microlib::{ExperimentConfig, Matrix};
use microlib_mech::MechanismKind;
use microlib_model::{MemoryModel, SdramConfig, SystemConfig};
use std::io::{self, Write};

/// Runs the memory-model comparison.
///
/// # Errors
///
/// Propagates write failures on `w`.
pub fn run(cx: &mut Context, w: &mut dyn Write) -> io::Result<()> {
    cx.header(
        w,
        "fig08_memory_model",
        "Fig 8 (Effect of the memory model)",
        "Mean speedups under constant-70 vs SDRAM-170 vs SDRAM-70 memory",
    )?;
    let base = cx.settings().experiment();

    // The sdram-170 column IS the standard campaign (Table 1 baseline);
    // only the two alternative memory models need fresh sweeps, both over
    // the battery-wide artifact store.
    let variant = |memory: MemoryModel| -> ExperimentConfig {
        ExperimentConfig {
            system: SystemConfig {
                memory,
                ..base.system.clone()
            },
            ..base.clone()
        }
    };
    let constant = cx.sweep(&variant(MemoryModel::simplescalar_70()));
    let sdram_70 = cx.sweep(&variant(MemoryModel::Sdram(
        SdramConfig::scaled_to_70_cycles(),
    )));
    let sdram_170 = cx.std_matrix();
    let results: [(&str, &Matrix); 3] = [
        ("constant-70", &constant),
        ("sdram-170", sdram_170),
        ("sdram-70", &sdram_70),
    ];

    let names: Vec<&str> = base.benchmarks.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for k in results[0].1.mechanisms() {
        if *k == MechanismKind::Base {
            continue;
        }
        let mut row = vec![k.to_string()];
        for (_, m) in &results {
            row.push(format!("{:.3}", m.mean_speedup_over(*k, &names)));
        }
        rows.push(row);
    }
    writeln!(
        w,
        "{}",
        text_table(
            &["mechanism", "constant-70", "sdram-170", "sdram-70"],
            &rows
        )
    )?;

    // Speedup-reduction summary (paper: 57.9% / 59.9% average reductions).
    let mut reductions_170 = Vec::new();
    let mut reductions_70 = Vec::new();
    for k in results[0].1.mechanisms() {
        if *k == MechanismKind::Base {
            continue;
        }
        let c = results[0].1.mean_speedup_over(*k, &names) - 1.0;
        let s170 = results[1].1.mean_speedup_over(*k, &names) - 1.0;
        let s70 = results[2].1.mean_speedup_over(*k, &names) - 1.0;
        if c > 0.005 {
            reductions_170.push(((c - s170) / c * 100.0).clamp(-200.0, 200.0));
            reductions_70.push(((c - s70) / c * 100.0).clamp(-200.0, 200.0));
        }
    }
    if let (Some(a), Some(b)) = (
        microlib_model::stats::mean(&reductions_170),
        microlib_model::stats::mean(&reductions_70),
    ) {
        writeln!(
            w,
            "average speedup reduction vs constant-70: sdram-170 {a:.1}%, sdram-70 {b:.1}%"
        )?;
        writeln!(w, "(paper: 57.9% and 59.9%)")?;
    }
    // Per-benchmark SDRAM latency spread (the paper's gzip-vs-lucas range).
    let m170 = results[1].1;
    let mut lat: Vec<(String, f64)> = m170
        .benchmarks()
        .iter()
        .map(|b| {
            (
                b.clone(),
                m170.result(b, MechanismKind::Base)
                    .memory
                    .average_latency()
                    .unwrap_or(0.0),
            )
        })
        .collect();
    lat.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    if let (Some(min), Some(max)) = (lat.first(), lat.last()) {
        writeln!(
            w,
            "SDRAM average latency varies per benchmark: {} {:.1} cycles .. {} {:.1} cycles",
            min.0, min.1, max.0, max.1
        )?;
        writeln!(w, "(paper: 87.42 for gzip .. 389.73 for lucas)")?;
    }
    Ok(())
}
