//! Tag Correlating Prefetching (Hu, Martonosi & Kaxiras, HPCA 2003) —
//! Table 2's `TCP`.
//!
//! "Records miss patterns per tag and prefetches according to the most
//! likely miss pattern." A tag-history table (THT, 1024 sets direct-mapped,
//! two previous tags per set) feeds a pattern-history table (PHT, 8 KB,
//! 256 sets, 8-way) keyed by the last two tags; on a miss the predicted
//! next tag in the same cache set is prefetched.
//!
//! The request-queue size is the paper's §3.4 "second-guessing" parameter:
//! the article did not state it, the reproduction's Fig 10 sweeps it
//! between 1 and 128 (Table 3 settled on 128 after author contact).

use crate::table::AssocTable;
use microlib_model::{
    AccessEvent, AccessOutcome, Addr, AttachPoint, Cycle, HardwareBudget, Mechanism,
    MechanismStats, PrefetchDestination, PrefetchQueue, PrefetchRequest, SramTable,
};

/// The tag-correlating prefetcher.
///
/// # Examples
///
/// ```
/// use microlib_mech::TagCorrelatingPrefetcher;
/// use microlib_model::Mechanism;
///
/// let tcp = TagCorrelatingPrefetcher::new();
/// assert_eq!(tcp.name(), "TCP");
/// assert_eq!(tcp.request_queue_capacity(), 128);
/// let short = TagCorrelatingPrefetcher::with_queue_capacity(1);
/// assert_eq!(short.request_queue_capacity(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct TagCorrelatingPrefetcher {
    /// Two most recent miss tags per (hashed) cache set.
    tht: Vec<[u64; 2]>,
    tht_sets: usize,
    pht: AssocTable<u64>,
    pht_entries: usize,
    queue_capacity: usize,
    /// Observed cache geometry (baseline L2).
    l2_sets: u64,
    line_bytes: u64,
    stats: MechanismStats,
}

impl Default for TagCorrelatingPrefetcher {
    fn default() -> Self {
        Self::new()
    }
}

impl TagCorrelatingPrefetcher {
    /// Table 3 configuration: THT 1024 sets direct-mapped storing 2
    /// previous tags; PHT 8 KB (256 sets, 8-way); queue 128.
    pub fn new() -> Self {
        Self::with_queue_capacity(128)
    }

    /// Same tables with a custom request-queue size (Fig 10).
    pub fn with_queue_capacity(queue_capacity: usize) -> Self {
        TagCorrelatingPrefetcher {
            tht: vec![[u64::MAX; 2]; 1024],
            tht_sets: 1024,
            pht: AssocTable::new(256, 8),
            pht_entries: 2048,
            queue_capacity,
            l2_sets: 4096,
            line_bytes: 64,
            stats: MechanismStats::default(),
        }
    }

    fn split(&self, line: Addr) -> (u64, u64) {
        let line_no = line.raw() / self.line_bytes;
        (line_no % self.l2_sets, line_no / self.l2_sets)
    }

    fn line_of(&self, set: u64, tag: u64) -> Addr {
        Addr::new((tag * self.l2_sets + set) * self.line_bytes)
    }

    fn pht_key(set: u64, t1: u64, t2: u64) -> u64 {
        set ^ t1.rotate_left(17) ^ t2.rotate_left(37)
    }
}

impl Mechanism for TagCorrelatingPrefetcher {
    fn name(&self) -> &str {
        "TCP"
    }

    fn attach_point(&self) -> AttachPoint {
        AttachPoint::L2Unified
    }

    fn warm_events_only(&self) -> bool {
        // pure prefetcher: no sidecar, no captures, no spills.
        true
    }

    fn request_queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    fn on_access(&mut self, event: &AccessEvent, prefetch: &mut PrefetchQueue) {
        if event.first_touch_of_prefetch {
            self.stats.prefetches_useful += 1;
        }
        if event.outcome != AccessOutcome::Miss {
            return;
        }
        let (set, tag) = self.split(event.line);
        let tht_idx = (set as usize) & (self.tht_sets - 1);
        let [t1, t2] = self.tht[tht_idx];
        self.stats.table_reads += 1;
        if t1 != u64::MAX && t2 != u64::MAX {
            // Learn: (t2, t1) -> tag.
            self.stats.table_writes += 1;
            self.pht.insert(Self::pht_key(set, t2, t1), tag);
            // Predict: (t1, tag) -> next tag.
            if let Some(&next_tag) = self.pht.get(&Self::pht_key(set, t1, tag)) {
                if next_tag != tag {
                    self.stats.prefetches_requested += 1;
                    prefetch.push(PrefetchRequest {
                        line: self.line_of(set, next_tag),
                        destination: PrefetchDestination::Cache,
                    });
                }
            }
        }
        self.tht[tht_idx] = [tag, t1];
    }

    fn next_tick_event(&self, _now: Cycle) -> Cycle {
        Cycle::NEVER // `tick` is a no-op
    }

    fn hardware(&self) -> HardwareBudget {
        HardwareBudget::with_tables(
            "TCP",
            vec![
                SramTable {
                    name: "tag history table".to_owned(),
                    entries: self.tht_sets as u64,
                    entry_bits: 2 * 20,
                    assoc: 1,
                    ports: 1,
                },
                SramTable {
                    name: "pattern history table".to_owned(),
                    entries: self.pht_entries as u64,
                    entry_bits: 32,
                    assoc: 8,
                    ports: 1,
                },
            ],
        )
    }

    fn stats(&self) -> MechanismStats {
        self.stats
    }

    fn reset(&mut self) {
        for e in &mut self.tht {
            *e = [u64::MAX; 2];
        }
        self.pht.clear();
        self.stats = MechanismStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microlib_model::{AccessKind, Cycle};

    fn miss(line: u64) -> AccessEvent {
        AccessEvent {
            now: Cycle::ZERO,
            pc: Addr::new(0x40_0000),
            addr: Addr::new(line),
            line: Addr::new(line),
            kind: AccessKind::Load,
            outcome: AccessOutcome::Miss,
            first_touch_of_prefetch: false,
            value: Some(0),
        }
    }

    /// Three lines in the same L2 set: set = (line/64) % 4096.
    const SET_STRIDE: u64 = 4096 * 64;

    #[test]
    fn repeating_tag_sequence_predicts() {
        let mut tcp = TagCorrelatingPrefetcher::new();
        let mut q = PrefetchQueue::new(128);
        let (a, b, c) = (SET_STRIDE, 2 * SET_STRIDE, 3 * SET_STRIDE);
        // Two passes of the miss pattern a, b, c in one set.
        for _ in 0..2 {
            tcp.on_access(&miss(a), &mut q);
            tcp.on_access(&miss(b), &mut q);
            tcp.on_access(&miss(c), &mut q);
        }
        q.clear();
        // Replaying a then b: the PHT predicts c.
        tcp.on_access(&miss(a), &mut q);
        tcp.on_access(&miss(b), &mut q);
        let targets: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|r| r.line.raw())
            .collect();
        assert!(targets.contains(&c), "targets {targets:x?}");
    }

    #[test]
    fn needs_two_tags_of_history() {
        let mut tcp = TagCorrelatingPrefetcher::new();
        let mut q = PrefetchQueue::new(128);
        tcp.on_access(&miss(SET_STRIDE), &mut q);
        assert!(q.is_empty(), "one miss is not a pattern");
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut tcp = TagCorrelatingPrefetcher::new();
        let mut q = PrefetchQueue::new(128);
        // Train set 0.
        for _ in 0..2 {
            for t in 1..=3u64 {
                tcp.on_access(&miss(t * SET_STRIDE), &mut q);
            }
        }
        q.clear();
        // Misses in a different set (offset by one line) must not fire the
        // set-0 pattern.
        tcp.on_access(&miss(SET_STRIDE + 64), &mut q);
        tcp.on_access(&miss(2 * SET_STRIDE + 64), &mut q);
        assert!(q.is_empty());
    }

    #[test]
    fn pht_is_8kb_scale() {
        let hw = TagCorrelatingPrefetcher::new().hardware();
        assert!(hw.total_bytes() >= 8 * 1024, "got {}", hw.total_bytes());
        assert!(hw.total_bytes() <= 16 * 1024);
    }
}
