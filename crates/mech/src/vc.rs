//! Victim Cache (Jouppi, WRL TR 1990) — Table 2's `VC`.
//!
//! "A small fully associative cache for storing evicted lines; limits the
//! effect of conflict misses without (or in addition to) using
//! associativity." Table 3: 512 bytes, fully associative, at the L1.

use crate::table::AssocTable;
use microlib_model::{
    AccessEvent, Addr, AttachPoint, Cycle, EvictEvent, HardwareBudget, LineData, Mechanism,
    MechanismStats, PrefetchQueue, ProbeResult, Spill, SramTable, VictimAction,
};

#[derive(Clone, Debug)]
struct VictimLine {
    data: LineData,
    dirty: bool,
}

/// The 512-byte fully associative victim cache.
///
/// # Examples
///
/// ```
/// use microlib_mech::VictimCache;
/// use microlib_model::Mechanism;
///
/// let vc = VictimCache::new();
/// assert_eq!(vc.name(), "VC");
/// assert!(vc.hardware().total_bytes() >= 512);
/// ```
#[derive(Clone, Debug)]
pub struct VictimCache {
    lines: AssocTable<VictimLine>,
    entries: usize,
    line_bytes: u64,
    spills: Vec<Spill>,
    stats: MechanismStats,
}

impl Default for VictimCache {
    fn default() -> Self {
        Self::new()
    }
}

impl VictimCache {
    /// Creates the Table 3 configuration: 512 B / 32-byte L1 lines = 16
    /// fully associative entries.
    pub fn new() -> Self {
        Self::with_entries(16)
    }

    /// Creates a victim cache with a custom entry count (sensitivity
    /// studies).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn with_entries(entries: usize) -> Self {
        assert!(entries > 0, "victim cache needs at least one entry");
        VictimCache {
            lines: AssocTable::new(entries, 0),
            entries,
            line_bytes: 32,
            spills: Vec::new(),
            stats: MechanismStats::default(),
        }
    }

    /// Current number of held victim lines.
    pub fn occupancy(&self) -> usize {
        self.lines.len()
    }
}

impl Mechanism for VictimCache {
    fn name(&self) -> &str {
        "VC"
    }

    fn attach_point(&self) -> AttachPoint {
        AttachPoint::L1Data
    }

    fn on_access(&mut self, _event: &AccessEvent, _prefetch: &mut PrefetchQueue) {}

    fn on_evict(&mut self, event: &EvictEvent) -> VictimAction {
        self.stats.victims_captured += 1;
        self.stats.table_writes += 1;
        if let Some((old_line, old)) = self.lines.insert(
            event.line.raw(),
            VictimLine {
                data: event.data,
                dirty: event.dirty,
            },
        ) {
            if old.dirty {
                // Displaced dirty victim: hand it back as a writeback.
                self.spills.push(Spill {
                    line: Addr::new(old_line),
                    data: old.data,
                });
            }
        }
        VictimAction::Captured
    }

    fn holds(&self, line: Addr) -> bool {
        self.lines.contains(&line.raw())
    }

    fn probe(&mut self, line: Addr, _now: Cycle) -> Option<ProbeResult> {
        self.stats.table_reads += 1;
        match self.lines.remove(&line.raw()) {
            Some(v) => {
                self.stats.sidecar_hits += 1;
                Some(ProbeResult {
                    data: v.data,
                    dirty: v.dirty,
                    extra_latency: 1,
                })
            }
            None => {
                self.stats.sidecar_misses += 1;
                None
            }
        }
    }

    fn drain_spills(&mut self) -> Vec<Spill> {
        std::mem::take(&mut self.spills)
    }

    fn next_tick_event(&self, _now: Cycle) -> Cycle {
        Cycle::NEVER // `tick` is a no-op
    }

    fn hardware(&self) -> HardwareBudget {
        let data_bits = self.line_bytes * 8;
        let tag_state_bits = 64 - self.line_bytes.trailing_zeros() as u64 + 2;
        HardwareBudget::with_tables(
            "VC",
            vec![SramTable {
                name: "victim lines".to_owned(),
                entries: self.entries as u64,
                entry_bits: data_bits + tag_state_bits,
                assoc: 0,
                ports: 1,
            }],
        )
    }

    fn stats(&self) -> MechanismStats {
        self.stats
    }

    fn reset(&mut self) {
        self.lines.clear();
        self.spills.clear();
        self.stats = MechanismStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evict(line: u64, dirty: bool, word0: u64) -> EvictEvent {
        let mut data = LineData::zeroed(4);
        data.set_word(0, word0);
        EvictEvent {
            now: Cycle::ZERO,
            line: Addr::new(line),
            dirty,
            data,
            untouched_prefetch: false,
        }
    }

    #[test]
    fn captures_and_serves_victims() {
        let mut vc = VictimCache::new();
        assert_eq!(
            vc.on_evict(&evict(0x1000, false, 7)),
            VictimAction::Captured
        );
        let hit = vc.probe(Addr::new(0x1000), Cycle::ZERO).unwrap();
        assert_eq!(hit.data.word(0), 7);
        assert_eq!(hit.extra_latency, 1);
        // Swap semantics: the line left the sidecar.
        assert!(vc.probe(Addr::new(0x1000), Cycle::ZERO).is_none());
        assert_eq!(vc.stats().sidecar_hits, 1);
        assert_eq!(vc.stats().sidecar_misses, 1);
    }

    #[test]
    fn dirty_data_survives_capture() {
        let mut vc = VictimCache::new();
        vc.on_evict(&evict(0x2000, true, 0xAB));
        let hit = vc.probe(Addr::new(0x2000), Cycle::ZERO).unwrap();
        assert!(hit.dirty);
        assert_eq!(hit.data.word(0), 0xAB);
    }

    #[test]
    fn capacity_is_sixteen_lines() {
        let mut vc = VictimCache::new();
        for i in 0..17u64 {
            vc.on_evict(&evict(0x1000 + i * 32, false, i));
        }
        assert_eq!(vc.occupancy(), 16);
        // The first (LRU) victim is gone.
        assert!(vc.probe(Addr::new(0x1000), Cycle::ZERO).is_none());
    }

    #[test]
    fn hardware_is_512_bytes_of_data() {
        let hw = VictimCache::new().hardware();
        assert_eq!(hw.tables.len(), 1);
        assert!(hw.total_bytes() >= 512, "data alone is 512B");
        assert!(hw.total_bytes() < 700, "plus modest tag overhead");
    }
}
