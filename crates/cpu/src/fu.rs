//! The functional-unit pool: per-class issue bandwidth for pipelined units
//! and busy tracking for unpipelined dividers (Table 1: 8 IntALU, 3
//! IntMult/Div, 6 FPALU, 2 FPMult/Div, 4 load/store units).

use microlib_model::{CoreConfig, Cycle};
use microlib_trace::OpClass;

/// Execution latencies per class (sim-outorder defaults).
pub fn latency(op: OpClass) -> u64 {
    match op {
        OpClass::IntAlu | OpClass::Branch => 1,
        OpClass::IntMult => 3,
        OpClass::IntDiv => 20,
        OpClass::FpAlu => 2,
        OpClass::FpMult => 4,
        OpClass::FpDiv => 12,
        OpClass::Load | OpClass::Store => 1, // address generation
    }
}

/// Whether the op monopolizes its unit for the full latency (divides).
fn unpipelined(op: OpClass) -> bool {
    matches!(op, OpClass::IntDiv | OpClass::FpDiv)
}

#[derive(Clone, Debug)]
struct UnitClass {
    count: u32,
    issued_this_cycle: u32,
    busy_until: Vec<Cycle>,
}

impl UnitClass {
    fn new(count: u32) -> Self {
        UnitClass {
            count,
            issued_this_cycle: 0,
            busy_until: vec![Cycle::ZERO; count as usize],
        }
    }

    fn try_issue(&mut self, now: Cycle, hold_for: Option<u64>) -> bool {
        if self.issued_this_cycle >= self.count {
            return false;
        }
        let Some(slot) = self.busy_until.iter_mut().find(|b| **b <= now) else {
            return false;
        };
        if let Some(hold) = hold_for {
            *slot = now + hold;
        }
        self.issued_this_cycle += 1;
        true
    }

    fn begin_cycle(&mut self) {
        self.issued_this_cycle = 0;
    }
}

/// The pool of functional units.
///
/// # Examples
///
/// ```
/// use microlib_cpu::FuPool;
/// use microlib_model::{CoreConfig, Cycle};
/// use microlib_trace::OpClass;
///
/// let mut pool = FuPool::new(&CoreConfig::baseline());
/// pool.begin_cycle();
/// assert!(pool.try_issue(OpClass::IntAlu, Cycle::ZERO));
/// ```
#[derive(Clone, Debug)]
pub struct FuPool {
    int_alu: UnitClass,
    int_mult: UnitClass,
    fp_alu: UnitClass,
    fp_mult: UnitClass,
    mem: UnitClass,
}

impl FuPool {
    /// Builds the pool described by `config`.
    pub fn new(config: &CoreConfig) -> Self {
        FuPool {
            int_alu: UnitClass::new(config.int_alu),
            int_mult: UnitClass::new(config.int_mult),
            fp_alu: UnitClass::new(config.fp_alu),
            fp_mult: UnitClass::new(config.fp_mult),
            mem: UnitClass::new(config.mem_units),
        }
    }

    /// Resets per-cycle issue counters. Call once per cycle.
    pub fn begin_cycle(&mut self) {
        self.int_alu.begin_cycle();
        self.int_mult.begin_cycle();
        self.fp_alu.begin_cycle();
        self.fp_mult.begin_cycle();
        self.mem.begin_cycle();
    }

    /// Attempts to issue `op` at `now`; returns whether a unit accepted it.
    pub fn try_issue(&mut self, op: OpClass, now: Cycle) -> bool {
        let class = match op {
            OpClass::IntAlu | OpClass::Branch => &mut self.int_alu,
            OpClass::IntMult | OpClass::IntDiv => &mut self.int_mult,
            OpClass::FpAlu => &mut self.fp_alu,
            OpClass::FpMult | OpClass::FpDiv => &mut self.fp_mult,
            OpClass::Load | OpClass::Store => &mut self.mem,
        };
        let hold = unpipelined(op).then(|| latency(op));
        class.try_issue(now, hold)
    }

    /// The earliest cycle after `now` at which a busy unit frees up
    /// ([`Cycle::NEVER`] if none is busy).
    pub(crate) fn next_free(&self, now: Cycle) -> Cycle {
        [
            &self.int_alu,
            &self.int_mult,
            &self.fp_alu,
            &self.fp_mult,
            &self.mem,
        ]
        .iter()
        .flat_map(|class| &class.busy_until)
        .filter(|b| **b > now)
        .min()
        .copied()
        .unwrap_or(Cycle::NEVER)
    }

    /// How many consecutive [`FuPool::try_issue`] calls for `op` would
    /// succeed right now. Pure — lets a caller size a batch without making
    /// (and counting the side effects of) doomed issue attempts.
    pub fn available(&self, op: OpClass, now: Cycle) -> u32 {
        let class = match op {
            OpClass::IntAlu | OpClass::Branch => &self.int_alu,
            OpClass::IntMult | OpClass::IntDiv => &self.int_mult,
            OpClass::FpAlu => &self.fp_alu,
            OpClass::FpMult | OpClass::FpDiv => &self.fp_mult,
            OpClass::Load | OpClass::Store => &self.mem,
        };
        let width = class.count - class.issued_this_cycle;
        let free = class.busy_until.iter().filter(|b| **b <= now).count() as u32;
        if unpipelined(op) {
            // Each issue occupies a unit for its full latency.
            width.min(free)
        } else if free == 0 {
            0
        } else {
            // Pipelined issues share units; only the width counter binds.
            width
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> FuPool {
        FuPool::new(&CoreConfig::baseline())
    }

    #[test]
    fn issue_width_per_class_per_cycle() {
        let mut p = pool();
        p.begin_cycle();
        for _ in 0..8 {
            assert!(p.try_issue(OpClass::IntAlu, Cycle::ZERO));
        }
        assert!(
            !p.try_issue(OpClass::IntAlu, Cycle::ZERO),
            "9th IntAlu refused"
        );
        // Other classes unaffected.
        assert!(p.try_issue(OpClass::FpAlu, Cycle::ZERO));
        p.begin_cycle();
        assert!(p.try_issue(OpClass::IntAlu, Cycle::ZERO));
    }

    #[test]
    fn divider_blocks_its_unit() {
        let mut p = pool();
        p.begin_cycle();
        // 3 IntMult/Div units; occupy all with divides.
        for _ in 0..3 {
            assert!(p.try_issue(OpClass::IntDiv, Cycle::ZERO));
        }
        p.begin_cycle();
        assert!(
            !p.try_issue(OpClass::IntMult, Cycle::new(1)),
            "all dividers busy"
        );
        p.begin_cycle();
        assert!(
            p.try_issue(OpClass::IntMult, Cycle::new(20)),
            "freed after 20 cycles"
        );
    }

    #[test]
    fn pipelined_mult_accepts_back_to_back() {
        let mut p = pool();
        p.begin_cycle();
        assert!(p.try_issue(OpClass::IntMult, Cycle::ZERO));
        p.begin_cycle();
        assert!(p.try_issue(OpClass::IntMult, Cycle::new(1)), "pipelined");
    }

    #[test]
    fn mem_units_shared_by_loads_and_stores() {
        let mut p = pool();
        p.begin_cycle();
        assert!(p.try_issue(OpClass::Load, Cycle::ZERO));
        assert!(p.try_issue(OpClass::Store, Cycle::ZERO));
        assert!(p.try_issue(OpClass::Load, Cycle::ZERO));
        assert!(p.try_issue(OpClass::Store, Cycle::ZERO));
        assert!(!p.try_issue(OpClass::Load, Cycle::ZERO), "4 LS units");
    }

    #[test]
    fn available_matches_try_issue_successes() {
        let mut p = pool();
        p.begin_cycle();
        // Pipelined mem class: width-limited only.
        assert_eq!(p.available(OpClass::Load, Cycle::ZERO), 4);
        assert!(p.try_issue(OpClass::Load, Cycle::ZERO));
        assert_eq!(p.available(OpClass::Load, Cycle::ZERO), 3);
        for _ in 0..3 {
            assert!(p.try_issue(OpClass::Store, Cycle::ZERO));
        }
        assert_eq!(p.available(OpClass::Load, Cycle::ZERO), 0);
        assert!(!p.try_issue(OpClass::Load, Cycle::ZERO));
        // Unpipelined divides occupy their unit across cycles.
        p.begin_cycle();
        assert_eq!(p.available(OpClass::IntDiv, Cycle::new(1)), 3);
        assert!(p.try_issue(OpClass::IntDiv, Cycle::new(1)));
        assert!(p.try_issue(OpClass::IntDiv, Cycle::new(1)));
        p.begin_cycle();
        assert_eq!(p.available(OpClass::IntDiv, Cycle::new(2)), 1);
        assert_eq!(
            p.available(OpClass::IntMult, Cycle::new(2)),
            3,
            "pipelined width"
        );
        assert!(p.try_issue(OpClass::IntDiv, Cycle::new(2)));
        assert_eq!(
            p.available(OpClass::IntMult, Cycle::new(3)),
            0,
            "all units held"
        );
    }

    #[test]
    fn latencies_match_sim_outorder() {
        assert_eq!(latency(OpClass::IntAlu), 1);
        assert_eq!(latency(OpClass::IntMult), 3);
        assert_eq!(latency(OpClass::IntDiv), 20);
        assert_eq!(latency(OpClass::FpAlu), 2);
        assert_eq!(latency(OpClass::FpMult), 4);
        assert_eq!(latency(OpClass::FpDiv), 12);
    }
}
