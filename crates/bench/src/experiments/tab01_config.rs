//! Table 1 — "Baseline configuration": echoes every parameter the
//! simulator actually uses, straight from the live configuration objects.

use crate::Context;
use microlib::report::text_table;
use microlib_model::{MemoryModel, SystemConfig};
use std::io::{self, Write};

/// Prints the live baseline configuration.
///
/// # Errors
///
/// Propagates write failures on `w`.
pub fn run(cx: &mut Context, w: &mut dyn Write) -> io::Result<()> {
    cx.header(
        w,
        "tab01_config",
        "Table 1 (Baseline configuration)",
        "Parameters as instantiated by SystemConfig::baseline()",
    )?;
    let cfg = SystemConfig::baseline();
    cfg.validate().expect("baseline is self-consistent");

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut row = |k: &str, v: String| rows.push(vec![k.to_owned(), v]);

    row(
        "Instruction window",
        format!("{}-RUU, {}-LSQ", cfg.core.ruu_entries, cfg.core.lsq_entries),
    );
    row(
        "Fetch/Decode/Issue width",
        format!("{} instructions per cycle", cfg.core.fetch_width),
    );
    row(
        "Functional units",
        format!(
            "{} IntALU, {} IntMult/Div, {} FPALU, {} FPMult/Div, {} Load/Store",
            cfg.core.int_alu,
            cfg.core.int_mult,
            cfg.core.fp_alu,
            cfg.core.fp_mult,
            cfg.core.mem_units
        ),
    );
    row(
        "Commit width",
        format!("up to {} per cycle", cfg.core.commit_width),
    );
    row(
        "L1 D-cache",
        format!(
            "{} KB / {}-way, {}-byte lines",
            cfg.l1d.size_bytes / 1024,
            cfg.l1d.assoc,
            cfg.l1d.line_bytes
        ),
    );
    row(
        "L1 D ports / MSHRs / reads-per-MSHR",
        format!(
            "{} / {} / {}",
            cfg.l1d.ports, cfg.l1d.mshr_entries, cfg.l1d.mshr_reads_per_entry
        ),
    );
    row("L1 D latency", format!("{} cycle", cfg.l1d.latency));
    row(
        "L1 I-cache",
        format!(
            "{} KB / {}-way LRU",
            cfg.l1i.size_bytes / 1024,
            cfg.l1i.assoc
        ),
    );
    row(
        "L2 unified",
        format!(
            "{} MB / {}-way LRU, {}-byte lines",
            cfg.l2.size_bytes / (1024 * 1024),
            cfg.l2.assoc,
            cfg.l2.line_bytes
        ),
    );
    row(
        "L2 ports / MSHRs / latency",
        format!(
            "{} / {} / {} cycles",
            cfg.l2.ports, cfg.l2.mshr_entries, cfg.l2.latency
        ),
    );
    row(
        "L1/L2 bus",
        format!(
            "{}-byte wide, {} CPU cycle(s) per beat",
            cfg.l1_l2_bus.width_bytes, cfg.l1_l2_bus.cpu_cycles_per_beat
        ),
    );
    row(
        "Memory bus",
        format!(
            "{} bytes ({} bits) wide, {} CPU cycles per beat",
            cfg.memory_bus.width_bytes,
            cfg.memory_bus.width_bytes * 8,
            cfg.memory_bus.cpu_cycles_per_beat
        ),
    );
    if let MemoryModel::Sdram(s) = cfg.memory {
        row(
            "SDRAM banks/rows/columns",
            format!("{} / {} / {}", s.banks, s.rows, s.columns),
        );
        row("RAS-to-RAS (tRRD)", format!("{} cpu cycles", s.t_rrd));
        row("RAS active (tRAS)", format!("{} cpu cycles", s.t_ras));
        row("RAS-to-CAS (tRCD)", format!("{} cpu cycles", s.t_rcd));
        row("CAS latency", format!("{} cpu cycles", s.cas));
        row("RAS precharge (tRP)", format!("{} cpu cycles", s.t_rp));
        row("RAS cycle (tRC)", format!("{} cpu cycles", s.t_rc));
        row("Controller queue", format!("{} entries", s.queue_entries));
        row("Refresh", "avoided".to_owned());
    }
    writeln!(w, "{}", text_table(&["parameter", "value"], &rows))
}
