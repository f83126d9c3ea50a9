//! CDP + SP (Cooksey et al., ASPLOS 2002) — Table 2's `CDPSP`.
//!
//! "A combination of CDP and SP as proposed in [4]": the stride prefetcher
//! covers regular array traffic while the content scan chases pointers.
//! Table 3 gives them separate request queues of size 1 (SP) and 128
//! (CDP); this composite enforces those quotas inside one mechanism slot.

use crate::cdp::ContentDirectedPrefetcher;
use crate::sp::StridePrefetcher;
use microlib_model::{
    AccessEvent, AttachPoint, Cycle, HardwareBudget, Mechanism, MechanismStats, PrefetchQueue,
    RefillEvent,
};

/// The combined stride + content-directed prefetcher.
///
/// # Examples
///
/// ```
/// use microlib_mech::CdpSp;
/// use microlib_model::Mechanism;
///
/// let combo = CdpSp::new();
/// assert_eq!(combo.name(), "CDPSP");
/// // One external queue sized for both internal quotas (1 + 128).
/// assert_eq!(combo.request_queue_capacity(), 129);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CdpSp {
    sp: StridePrefetcher,
    cdp: ContentDirectedPrefetcher,
    sp_queue: Option<PrefetchQueue>,
    cdp_queue: Option<PrefetchQueue>,
}

impl CdpSp {
    /// Builds both components with their Table 3 configurations.
    pub fn new() -> Self {
        CdpSp {
            sp: StridePrefetcher::new(),
            cdp: ContentDirectedPrefetcher::new(),
            sp_queue: Some(PrefetchQueue::new(1)),
            cdp_queue: Some(PrefetchQueue::new(128)),
        }
    }

    fn forward(&mut self, external: &mut PrefetchQueue) {
        // SP's single-entry queue drains first (stride predictions are the
        // higher-confidence ones), then CDP's.
        if let Some(q) = &mut self.sp_queue {
            while let Some(req) = q.pop() {
                external.push(req);
            }
        }
        if let Some(q) = &mut self.cdp_queue {
            while let Some(req) = q.pop() {
                external.push(req);
            }
        }
    }
}

impl Mechanism for CdpSp {
    fn name(&self) -> &str {
        "CDPSP"
    }

    fn attach_point(&self) -> AttachPoint {
        AttachPoint::L2Unified
    }

    fn warm_events_only(&self) -> bool {
        // combines two pure prefetchers: no sidecar, no captures, no spills.
        true
    }

    fn request_queue_capacity(&self) -> usize {
        129 // Table 3: SP/CDP request queues of 1 / 128
    }

    fn on_access(&mut self, event: &AccessEvent, prefetch: &mut PrefetchQueue) {
        let mut spq = self.sp_queue.take().expect("sp queue present");
        self.sp.on_access(event, &mut spq);
        self.sp_queue = Some(spq);
        let mut cdpq = self.cdp_queue.take().expect("cdp queue present");
        self.cdp.on_access(event, &mut cdpq);
        self.cdp_queue = Some(cdpq);
        self.forward(prefetch);
    }

    fn on_refill(&mut self, event: &RefillEvent, prefetch: &mut PrefetchQueue) {
        let mut cdpq = self.cdp_queue.take().expect("cdp queue present");
        self.cdp.on_refill(event, &mut cdpq);
        self.cdp_queue = Some(cdpq);
        self.forward(prefetch);
    }

    fn next_tick_event(&self, _now: Cycle) -> Cycle {
        Cycle::NEVER // `tick` is a no-op
    }

    fn hardware(&self) -> HardwareBudget {
        let mut tables = self.sp.hardware().tables;
        tables.extend(self.cdp.hardware().tables);
        HardwareBudget::with_tables("CDPSP", tables)
    }

    fn stats(&self) -> MechanismStats {
        self.sp.stats() + self.cdp.stats()
    }

    fn reset(&mut self) {
        self.sp.reset();
        self.cdp.reset();
        self.sp_queue = Some(PrefetchQueue::new(1));
        self.cdp_queue = Some(PrefetchQueue::new(128));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microlib_model::{AccessKind, AccessOutcome, Addr, Cycle, LineData, RefillCause};

    fn miss(pc: u64, addr: u64) -> AccessEvent {
        AccessEvent {
            now: Cycle::ZERO,
            pc: Addr::new(pc),
            addr: Addr::new(addr),
            line: Addr::new(addr & !63),
            kind: AccessKind::Load,
            outcome: AccessOutcome::Miss,
            first_touch_of_prefetch: false,
            value: Some(0),
        }
    }

    #[test]
    fn stride_side_works() {
        let mut combo = CdpSp::new();
        let mut q = PrefetchQueue::new(129);
        for i in 0..3u64 {
            combo.on_access(&miss(0x400, 0x10_000 + i * 256), &mut q);
        }
        let targets: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|r| r.line.raw())
            .collect();
        assert!(targets.contains(&(0x10_000 + 3 * 256)), "{targets:x?}");
    }

    #[test]
    fn content_side_works() {
        let mut combo = CdpSp::new();
        let mut q = PrefetchQueue::new(129);
        const HEAP: u64 = 0x4000_0000;
        combo.on_refill(
            &RefillEvent {
                now: Cycle::ZERO,
                line: Addr::new(HEAP),
                data: LineData::from_words(&[HEAP + 0x4000, 0, 0, 0]),
                cause: RefillCause::Demand,
            },
            &mut q,
        );
        assert_eq!(q.pop().unwrap().line.raw(), HEAP + 0x4000);
    }

    #[test]
    fn hardware_combines_both() {
        let combo = CdpSp::new();
        let hw = combo.hardware();
        assert!(hw.tables.len() >= 2);
        assert_eq!(hw.mechanism, "CDPSP");
    }

    #[test]
    fn stats_aggregate() {
        let mut combo = CdpSp::new();
        let mut q = PrefetchQueue::new(129);
        for i in 0..4u64 {
            combo.on_access(&miss(0x400, 0x10_000 + i * 256), &mut q);
        }
        assert!(combo.stats().table_reads > 0);
        assert!(combo.stats().prefetches_requested > 0);
    }
}
