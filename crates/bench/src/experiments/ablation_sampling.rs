//! Ablation (extension beyond the paper's figures): SimPoint-sampled
//! simulation vs full simulation of the standard campaign.
//!
//! The paper's Fig 11 shows that *where* a trace window lies steers
//! research decisions; this study quantifies the cost/accuracy trade of
//! making SimPoint sampling the campaign's default execution mode: every
//! (benchmark × mechanism) cell is simulated both in full and as weighted
//! representative intervals, and the table reports the per-cell CPI
//! reconstruction error next to the detailed-simulation work each
//! benchmark saves.
//!
//! All printed numbers are deterministic (plans, slices and the weighted
//! reconstruction are seed-driven); wall-clock comparisons belong to
//! `run_all --sampled` and stderr.

use crate::Context;
use microlib::report::text_table;
use microlib::SamplingMode;
use microlib_mech::MechanismKind;
use std::io::{self, Write};

/// Runs the sampled-vs-full comparison over the standard campaign.
///
/// # Errors
///
/// Propagates write failures on `w`.
pub fn run(cx: &mut Context, w: &mut dyn Write) -> io::Result<()> {
    cx.header(
        w,
        "ablation_sampling",
        "Extension: SimPoint-sampled campaign (beyond Fig 11)",
        "Weighted-CPI reconstruction error and detailed-work reduction, sampled vs full",
    )?;
    let window = cx.settings().window();
    let mode = SamplingMode::simpoints_for(window);
    let SamplingMode::SimPoints {
        interval,
        max_clusters,
        ..
    } = mode
    else {
        unreachable!("simpoints_for always samples");
    };
    writeln!(
        w,
        "sampling plan: {interval}-instruction intervals, <= {max_clusters} clusters, full-prefix warm-up\n"
    )?;

    let mut full_cfg = cx.settings().experiment();
    full_cfg.sampling = SamplingMode::Full;
    let mut sampled_cfg = full_cfg.clone();
    sampled_cfg.sampling = mode;
    let full = cx.sweep(&full_cfg);
    let sampled = cx.sweep(&sampled_cfg);

    let mechanisms = full_cfg.mechanisms.clone();
    let mut all_errors: Vec<f64> = Vec::new();
    let mut per_mech: Vec<(MechanismKind, Vec<f64>)> =
        mechanisms.iter().map(|k| (*k, Vec::new())).collect();
    let mut bound_violations = 0usize;
    let mut cells = 0usize;
    let mut rows = Vec::new();
    let mut reductions = Vec::new();

    for bench in &full_cfg.benchmarks {
        let plan = cx
            .store()
            .sampling_plan(bench, full_cfg.seed, window, interval, max_clusters)
            .expect("benchmark swept above");
        let mut errors = Vec::new();
        let cpi = |r: &microlib::RunResult| -> f64 {
            r.perf.cycles as f64 / r.perf.instructions.max(1) as f64
        };
        for ((_, acc), kind) in per_mech.iter_mut().zip(&mechanisms) {
            let full_cpi = cpi(full.result(bench, *kind));
            let s = sampled.result(bench, *kind);
            let sampled_cpi = cpi(s);
            let err = (sampled_cpi - full_cpi).abs() / full_cpi.max(1e-12) * 100.0;
            errors.push(err);
            acc.push(err);
            all_errors.push(err);
            cells += 1;
            let bound = s
                .sampling
                .as_ref()
                .map(|est| est.cpi_error_bound)
                .unwrap_or(0.0);
            if (sampled_cpi - full_cpi).abs() > bound {
                bound_violations += 1;
            }
        }
        let mean_err = microlib_model::stats::mean(&errors).unwrap_or(0.0);
        let max_err = errors.iter().cloned().fold(0.0, f64::max);
        reductions.push(plan.work_reduction());
        rows.push(vec![
            bench.clone(),
            format!("{}", plan.points().len()),
            format!("{}", plan.detailed_instructions()),
            format!("{:.1}x", plan.work_reduction()),
            format!("{:.2}%", mean_err),
            format!("{:.2}%", max_err),
        ]);
    }
    writeln!(
        w,
        "{}",
        text_table(
            &[
                "benchmark",
                "slices",
                "detailed insts",
                "work reduction",
                "mean |CPI err|",
                "max |CPI err|"
            ],
            &rows
        )
    )?;

    let mech_rows: Vec<Vec<String>> = per_mech
        .iter()
        .map(|(k, errs)| {
            vec![
                k.to_string(),
                format!("{:.2}%", microlib_model::stats::mean(errs).unwrap_or(0.0)),
                format!("{:.2}%", errs.iter().cloned().fold(0.0, f64::max)),
            ]
        })
        .collect();
    writeln!(
        w,
        "{}",
        text_table(
            &["mechanism", "mean |CPI err|", "max |CPI err|"],
            &mech_rows
        )
    )?;

    let mut sorted = all_errors.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
    let median = if sorted.is_empty() {
        0.0
    } else {
        sorted[sorted.len() / 2]
    };
    writeln!(
        w,
        "summary: {} cells; median |CPI error| {median:.2}%; mean detailed-work reduction {:.1}x;",
        cells,
        microlib_model::stats::mean(&reductions).unwrap_or(1.0)
    )?;
    writeln!(
        w,
        "reported error bound violated in {bound_violations}/{cells} cells."
    )?;
    writeln!(
        w,
        "\nthe detailed-work reduction is the speed headroom sampling buys; wall-clock"
    )?;
    writeln!(
        w,
        "speedup of the whole campaign is measured by `run_all --sampled` (stderr)."
    )
}
