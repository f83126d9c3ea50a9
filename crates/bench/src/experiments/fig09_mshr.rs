//! Fig 9 — "Effect of the cache model accuracy" (MSHR size): the sweep with
//! the baseline finite MSHR file (8 entries × 4 reads) vs SimpleScalar's
//! unlimited one. Paper: a limited-but-peculiar effect that can change
//! ranking — some mechanisms do *better* with a finite MSHR (TCP loses to
//! TK only when the MSHR is finite, because a full MSHR stalls the cache
//! and frees the bus for TK's L1 prefetches).

use crate::Context;
use microlib::report::text_table;
use microlib_mech::MechanismKind;
use std::io::{self, Write};

/// Runs the MSHR-accuracy comparison.
///
/// # Errors
///
/// Propagates write failures on `w`.
pub fn run(cx: &mut Context, w: &mut dyn Write) -> io::Result<()> {
    cx.header(
        w,
        "fig09_mshr",
        "Fig 9 (Effect of the cache model accuracy: MSHR size)",
        "Mean speedups with the finite (8-entry) vs infinite miss address file",
    )?;
    // The finite-MSHR sweep IS the standard campaign; only the infinite
    // variant needs a fresh sweep.
    let mut infinite_cfg = cx.settings().experiment();
    infinite_cfg.system.fidelity.finite_mshr = false;
    let infinite = cx.sweep(&infinite_cfg);
    let finite = cx.std_matrix();

    let names: Vec<&str> = finite.benchmarks().iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for k in finite.mechanisms() {
        if *k == MechanismKind::Base {
            continue;
        }
        let f = finite.mean_speedup_over(*k, &names);
        let i = infinite.mean_speedup_over(*k, &names);
        rows.push(vec![
            k.to_string(),
            format!("{:.3}", f),
            format!("{:.3}", i),
            format!("{:+.3}", f - i),
        ]);
    }
    writeln!(
        w,
        "{}",
        text_table(
            &[
                "mechanism",
                "finite MSHR (8)",
                "infinite MSHR",
                "finite - infinite"
            ],
            &rows
        )
    )?;
    writeln!(
        w,
        "positive deltas = mechanisms that perform *better* with the realistic finite MSHR,"
    )?;
    writeln!(w, "the paper's \"surprising\" observation.")
}
