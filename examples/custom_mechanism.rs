//! MicroLib's whole point: *anyone* can implement the `Mechanism` trait and
//! compare their idea against the published ones under identical
//! conditions. This example writes a new mechanism from scratch — a
//! next-N-line prefetcher with a direction predictor — plugs it into the
//! hierarchy, and ranks it against the study set.
//!
//! ```sh
//! cargo run --release --example custom_mechanism
//! ```

use microlib::{ArtifactStore, Cell, CellMechanism, SimOptions};
use microlib_mech::MechanismKind;
use microlib_model::{
    AccessEvent, AccessOutcome, AttachPoint, HardwareBudget, Mechanism, MechanismStats,
    PrefetchDestination, PrefetchQueue, PrefetchRequest, SramTable, SystemConfig,
};
use microlib_trace::TraceWindow;
use std::sync::Arc;

/// A toy contribution: next-N-line prefetching with a per-region direction
/// predictor (forward/backward saturating counters).
struct DirectionalNextLine {
    degree: i64,
    /// 2-bit direction counters per 4 KB region (0..=3, >=2 means forward).
    direction: Vec<u8>,
    last_line_in_region: Vec<u64>,
    stats: MechanismStats,
}

impl DirectionalNextLine {
    fn new(degree: i64) -> Self {
        DirectionalNextLine {
            degree,
            direction: vec![2; 4096],
            last_line_in_region: vec![0; 4096],
            stats: MechanismStats::default(),
        }
    }

    fn region(line: u64) -> usize {
        ((line >> 12) as usize) & 4095
    }
}

impl Mechanism for DirectionalNextLine {
    fn name(&self) -> &str {
        "NextN-dir"
    }

    fn attach_point(&self) -> AttachPoint {
        AttachPoint::L2Unified
    }

    fn request_queue_capacity(&self) -> usize {
        16
    }

    fn on_access(&mut self, event: &AccessEvent, prefetch: &mut PrefetchQueue) {
        if event.first_touch_of_prefetch {
            self.stats.prefetches_useful += 1;
        }
        if event.outcome == AccessOutcome::Hit && !event.first_touch_of_prefetch {
            return;
        }
        let line = event.line.raw();
        let r = Self::region(line);
        self.stats.table_reads += 1;
        // Train the direction counter on the observed movement.
        let last = self.last_line_in_region[r];
        if last != 0 && line != last {
            let fwd = line > last;
            let c = &mut self.direction[r];
            if fwd {
                *c = (*c + 1).min(3);
            } else {
                *c = c.saturating_sub(1);
            }
            self.stats.table_writes += 1;
        }
        self.last_line_in_region[r] = line;
        let step: i64 = if self.direction[r] >= 2 { 64 } else { -64 };
        for k in 1..=self.degree {
            self.stats.prefetches_requested += 1;
            prefetch.push(PrefetchRequest {
                line: event.line.offset(step * k),
                destination: PrefetchDestination::Cache,
            });
        }
    }

    fn hardware(&self) -> HardwareBudget {
        HardwareBudget::with_tables(
            "NextN-dir",
            vec![SramTable::new("direction counters", 4096, 2 + 20, 1)],
        )
    }

    fn stats(&self) -> MechanismStats {
        self.stats
    }
}

fn main() -> Result<(), microlib::SimError> {
    let config = Arc::new(SystemConfig::baseline());
    let opts = SimOptions {
        window: TraceWindow::new(80_000, 50_000),
        ..SimOptions::default()
    };
    // One store for every run: the trace and warm-up of each benchmark are
    // computed once and shared by all its mechanism cells.
    let store = ArtifactStore::new();
    let run = |bench: &str, mech: CellMechanism| {
        store.run(&Cell::new(Arc::clone(&config), bench, opts, mech))
    };

    println!("comparing the custom mechanism against three published ones on swim + apsi:\n");
    for bench in ["swim", "apsi"] {
        let base = run(bench, MechanismKind::Base.into())?;
        // Custom mechanisms reuse a label; the variant names the instance.
        let mine = CellMechanism::custom(MechanismKind::Base, "nextn-dir/2", || {
            Box::new(DirectionalNextLine::new(2))
        });
        let mine = run(bench, mine)?;
        println!("{bench}:");
        println!(
            "  NextN-dir (custom)  speedup {:.3}",
            mine.perf.speedup_over(&base.perf)
        );
        for kind in [MechanismKind::Tp, MechanismKind::Sp, MechanismKind::Ghb] {
            let r = run(bench, kind.into())?;
            println!(
                "  {:18} speedup {:.3}",
                kind.to_string(),
                r.perf.speedup_over(&base.perf)
            );
        }
        println!();
    }
    println!("that is the MicroLib workflow: implement `Mechanism`, run the same");
    println!("benchmarks and configuration, and the comparison is apples-to-apples.");
    Ok(())
}
