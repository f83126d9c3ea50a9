//! Tagged Prefetching (Smith, Computing Surveys 1982) — Table 2's `TP`.
//!
//! "One of the very first prefetching techniques: prefetches next cache
//! line on a miss, or on a hit on a prefetched line." Attached at the L2;
//! the only hardware is one tag bit per line (which the cache array already
//! carries), so the cost model charges nothing — matching Fig 5 where TP
//! "incur[s] almost no additional cost".

use microlib_model::{
    AccessEvent, AccessOutcome, AttachPoint, Cycle, HardwareBudget, Mechanism, MechanismStats,
    PrefetchDestination, PrefetchQueue, PrefetchRequest,
};

/// Tagged next-line prefetcher.
///
/// # Examples
///
/// ```
/// use microlib_mech::TaggedPrefetcher;
/// use microlib_model::{AttachPoint, Mechanism};
///
/// let tp = TaggedPrefetcher::new();
/// assert_eq!(tp.name(), "TP");
/// assert_eq!(tp.attach_point(), AttachPoint::L2Unified);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TaggedPrefetcher {
    line_bytes: u64,
    stats: MechanismStats,
}

impl TaggedPrefetcher {
    /// Creates the prefetcher for 64-byte L2 lines.
    pub fn new() -> Self {
        TaggedPrefetcher {
            line_bytes: 64,
            stats: MechanismStats::default(),
        }
    }
}

impl Mechanism for TaggedPrefetcher {
    fn name(&self) -> &str {
        "TP"
    }

    fn attach_point(&self) -> AttachPoint {
        AttachPoint::L2Unified
    }

    fn warm_events_only(&self) -> bool {
        // pure prefetcher: no sidecar, no captures, no spills.
        true
    }

    fn request_queue_capacity(&self) -> usize {
        16 // Table 3: Tagged Prefetching, request queue size 16
    }

    fn on_access(&mut self, event: &AccessEvent, prefetch: &mut PrefetchQueue) {
        if event.first_touch_of_prefetch {
            self.stats.prefetches_useful += 1;
        }
        let trigger = event.outcome == AccessOutcome::Miss || event.first_touch_of_prefetch;
        if trigger {
            self.stats.prefetches_requested += 1;
            prefetch.push(PrefetchRequest {
                line: event.line.offset(self.line_bytes as i64),
                destination: PrefetchDestination::Cache,
            });
        }
    }

    fn next_tick_event(&self, _now: Cycle) -> Cycle {
        Cycle::NEVER // `tick` is a no-op
    }

    fn hardware(&self) -> HardwareBudget {
        // One tag bit per L2 line rides inside the existing array.
        HardwareBudget::none("TP")
    }

    fn stats(&self) -> MechanismStats {
        self.stats
    }

    fn reset(&mut self) {
        self.stats = MechanismStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microlib_model::{AccessKind, Addr, Cycle};

    fn event(line: u64, outcome: AccessOutcome, first_touch: bool) -> AccessEvent {
        AccessEvent {
            now: Cycle::ZERO,
            pc: Addr::new(0x40_0000),
            addr: Addr::new(line),
            line: Addr::new(line),
            kind: AccessKind::Load,
            outcome,
            first_touch_of_prefetch: first_touch,
            value: Some(0),
        }
    }

    #[test]
    fn miss_prefetches_next_line() {
        let mut tp = TaggedPrefetcher::new();
        let mut q = PrefetchQueue::new(16);
        tp.on_access(&event(0x1000, AccessOutcome::Miss, false), &mut q);
        assert_eq!(q.pop().unwrap().line, Addr::new(0x1040));
    }

    #[test]
    fn first_touch_of_prefetched_line_triggers() {
        let mut tp = TaggedPrefetcher::new();
        let mut q = PrefetchQueue::new(16);
        tp.on_access(&event(0x2000, AccessOutcome::Hit, true), &mut q);
        assert_eq!(q.pop().unwrap().line, Addr::new(0x2040));
        assert_eq!(tp.stats().prefetches_useful, 1);
    }

    #[test]
    fn ordinary_hit_is_quiet() {
        let mut tp = TaggedPrefetcher::new();
        let mut q = PrefetchQueue::new(16);
        tp.on_access(&event(0x3000, AccessOutcome::Hit, false), &mut q);
        assert!(q.is_empty());
    }

    #[test]
    fn no_hardware_cost() {
        assert_eq!(TaggedPrefetcher::new().hardware().total_bits(), 0);
    }
}
