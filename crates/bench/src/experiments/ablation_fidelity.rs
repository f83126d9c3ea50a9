//! Ablation (extension beyond the paper's figures): Fig 1 toggles all four
//! cache-fidelity hazards at once and Fig 9 isolates the MSHR; this harness
//! ablates *each* of the §2.2 model differences individually, quantifying
//! how much of the SimpleScalar-vs-MicroLib IPC gap each one explains.

use crate::Context;
use microlib::report::text_table;
use microlib::ExperimentConfig;
use microlib_mech::MechanismKind;
use microlib_model::{FidelityConfig, SystemConfig};
use std::io::{self, Write};

const BENCHES: [&str; 6] = ["swim", "mgrid", "mcf", "gzip", "gcc", "crafty"];

/// Runs the per-toggle fidelity ablation.
///
/// # Errors
///
/// Propagates write failures on `w`.
pub fn run(cx: &mut Context, w: &mut dyn Write) -> io::Result<()> {
    cx.header(
        w,
        "ablation_fidelity",
        "Extension: per-toggle fidelity ablation (beyond Fig 1/Fig 9)",
        "Mean IPC over six representative benchmarks with one hazard removed at a time",
    )?;

    type Toggle = Box<dyn Fn(&mut FidelityConfig)>;
    let variants: [(&str, Toggle); 6] = [
        ("detailed (MicroLib)", Box::new(|_| {})),
        ("no finite MSHR", Box::new(|f| f.finite_mshr = false)),
        (
            "no pipeline stalls",
            Box::new(|f| f.pipeline_stalls = false),
        ),
        (
            "no LSQ backpressure",
            Box::new(|f| f.lsq_backpressure = false),
        ),
        (
            "free refill ports",
            Box::new(|f| f.refill_uses_port = false),
        ),
        (
            "idealized (SimpleScalar-like)",
            Box::new(|f| *f = FidelityConfig::simplescalar_like()),
        ),
    ];

    let mut rows = Vec::new();
    let mut detailed_mean = 0.0;
    for (label, mutate) in &variants {
        let mut system = SystemConfig::baseline_constant_memory();
        mutate(&mut system.fidelity);
        // Each variant is a small Base-only campaign over the six
        // benchmarks (one sweep, parallel cells).
        let cfg = ExperimentConfig {
            system,
            benchmarks: BENCHES.iter().map(|s| s.to_string()).collect(),
            mechanisms: vec![MechanismKind::Base],
            window: cx.settings().window(),
            seed: cx.settings().seed,
            threads: cx.settings().threads,
            sampling: cx.settings().sampling,
        };
        let matrix = cx.sweep(&cfg);
        let ipcs: Vec<f64> = BENCHES
            .iter()
            .map(|b| matrix.result(b, MechanismKind::Base).perf.ipc())
            .collect();
        let mean = microlib_model::stats::mean(&ipcs).unwrap_or(0.0);
        if *label == "detailed (MicroLib)" {
            detailed_mean = mean;
        }
        let delta = if detailed_mean > 0.0 {
            (mean - detailed_mean) / detailed_mean * 100.0
        } else {
            0.0
        };
        rows.push(vec![
            label.to_string(),
            format!("{mean:.3}"),
            format!("{delta:+.2}%"),
        ]);
    }
    writeln!(
        w,
        "{}",
        text_table(&["model variant", "mean IPC", "vs detailed"], &rows)
    )?;
    writeln!(
        w,
        "each removed hazard inflates IPC; their sum approximates the Fig 1 gap."
    )
}
