//! Fig 5 — "Power and Cost Ratios": chip-area ratio (CACTI-like model) and
//! on-chip memory-system power ratio (XCACTI-like energy × measured
//! activity) of each mechanism relative to the base cache hierarchy.
//! Paper shape: Markov and DBCP cost and burn the most (large tables); GHB
//! is tiny but power-greedy ("a table is scanned repeatedly"); SP and TP
//! are cheap and efficient.

use crate::Context;
use microlib::report::text_table;
use microlib_cost::{AreaModel, EnergyModel, RunActivity};
use microlib_mech::MechanismKind;
use std::io::{self, Write};

/// Runs the power/cost ratio analysis.
///
/// # Errors
///
/// Propagates write failures on `w`.
pub fn run(cx: &mut Context, w: &mut dyn Write) -> io::Result<()> {
    cx.header(
        w,
        "fig05_power_cost",
        "Fig 5 (Power and Cost Ratios)",
        "Area ratio and power ratio vs base hierarchy, averaged over 26 benchmarks",
    )?;
    let system = cx.settings().experiment().system;
    let matrix = cx.std_matrix();
    let area = AreaModel::default();
    let energy = EnergyModel::default();

    let mut rows = Vec::new();
    for kind in matrix.mechanisms() {
        if *kind == MechanismKind::Base {
            continue;
        }
        let hardware = kind.build().hardware();
        let cost_ratio = area.cost_ratio(&hardware);
        // Average power ratio over benchmarks, using measured activity.
        let mut ratios = Vec::new();
        for b in matrix.benchmarks() {
            let base_run = matrix.result(b, MechanismKind::Base);
            let mech_run = matrix.result(b, *kind);
            let base_act = RunActivity {
                l1d: base_run.l1d,
                l2: base_run.l2,
                mechanism: Default::default(),
            };
            let mech_act = RunActivity {
                l1d: mech_run.l1d,
                l2: mech_run.l2,
                mechanism: mech_run.mechanism_stats(),
            };
            ratios.push(energy.power_ratio(
                &hardware,
                &system.l1d,
                &system.l2,
                &mech_act,
                &base_act,
            ));
        }
        let power_ratio = microlib_model::stats::mean(&ratios).unwrap_or(1.0);
        rows.push(vec![
            kind.to_string(),
            format!("{:.4}", cost_ratio),
            format!("{:.3}", power_ratio),
            format!("{} B", hardware.total_bytes()),
        ]);
    }
    writeln!(
        w,
        "{}",
        text_table(
            &[
                "mechanism",
                "cost (area) ratio",
                "power ratio",
                "added state"
            ],
            &rows
        )
    )?;
    writeln!(
        w,
        "paper shape: Markov/DBCP heaviest in both; GHB cheap but power-greedy; SP/TP efficient."
    )?;
    writeln!(
        w,
        "note: off-chip (DRAM) access power is excluded, as in the paper's footnote 4."
    )
}
