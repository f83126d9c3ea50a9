//! Miss status holding registers (the "miss address file").
//!
//! SimpleScalar's MSHR "has unlimited capacity" (paper §2.2); MicroLib's is
//! finite — 8 entries × 4 reads in the baseline — and that difference alone
//! visibly changes mechanism rankings (Fig 9). This implementation supports
//! both modes: construct with [`MshrFile::new`] for the finite file or
//! [`MshrFile::unlimited`] for the SimpleScalar-like one.
//!
//! # Data layout
//!
//! The file is a fixed-slot arena: parallel columns (`slot_line`,
//! `slot_flags`, target-chain head/tail/len) indexed by slot id, a free-slot
//! stack, and one shared arena of target nodes chained through intrusive
//! `next` indices — allocating an entry or merging a target never touches
//! the heap once the arena has warmed. Line→slot lookup goes through a
//! small open-addressed (linear probing, Fibonacci-hashed) index with
//! backward-shift deletion, the same scheme as the core's `StoreIndex`, so
//! `contains`/merge checks stay O(1) even for the unlimited SimpleScalar
//! file. Completion drains the target chain into a caller-provided scratch
//! buffer ([`MshrFile::complete_into`]) so the hierarchy's fill path does
//! not allocate per miss.
//!
//! Debug builds retain the original `Vec<MshrEntry>` implementation as a
//! shadow and cross-check every insert outcome and completion against it.

use crate::ReqId;
use microlib_model::{Addr, Cycle};

/// Sentinel for "no node / empty index slot".
const NONE: u32 = u32::MAX;

/// `slot_flags` bits.
const LIVE: u8 = 1 << 0;
const PREFETCH: u8 = 1 << 1;

/// One consumer waiting on an in-flight line fill.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MshrTarget {
    /// The CPU-visible request to complete, if this is a demand access
    /// (`None` for prefetch-originated entries).
    pub req: Option<ReqId>,
    /// Full byte address of the access.
    pub addr: Addr,
    /// Whether the access is a store (its data merges into the fill).
    pub is_store: bool,
    /// Store value (ignored for loads).
    pub value: u64,
}

/// One in-flight miss, as returned by the allocating
/// [`MshrFile::complete`] convenience API, which only tests call; debug
/// builds also keep one per entry in the reference shadow. Every fill path
/// in the hierarchy uses [`MshrFile::complete_into`] instead.
#[derive(Clone, Debug)]
pub struct MshrEntry {
    /// Line-aligned miss address.
    pub line: Addr,
    /// Demand/prefetch consumers merged into this miss.
    pub targets: Vec<MshrTarget>,
    /// Whether the entry was allocated by a prefetch (and no demand has
    /// merged into it yet).
    pub is_prefetch: bool,
}

/// Allocation-free completion header: the per-entry state of a completed
/// miss, with the targets drained separately into the caller's scratch.
#[derive(Clone, Copy, Debug)]
pub struct MshrCompletion {
    /// Line-aligned miss address.
    pub line: Addr,
    /// Whether the entry was (still) a pure prefetch.
    pub is_prefetch: bool,
}

/// Outcome of [`MshrFile::try_insert`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MshrOutcome {
    /// A new entry was allocated; the caller must send the miss downstream.
    Allocated,
    /// The access merged into an existing in-flight miss; nothing to send.
    Merged,
    /// The file is full (no free entry for a new line).
    FullStall,
    /// An entry for the line exists but its target slots are exhausted —
    /// the paper's "two misses on the same cache line … can stall the
    /// cache".
    TargetStall,
    /// The file is busy this cycle (an allocation happened last cycle —
    /// "upon receiving a request the MSHR is not available for one cycle").
    BusyStall,
}

impl MshrOutcome {
    /// Whether the access was accepted (allocated or merged).
    pub fn accepted(self) -> bool {
        matches!(self, MshrOutcome::Allocated | MshrOutcome::Merged)
    }
}

/// Occupancy counters for an [`MshrFile`].
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct MshrStats {
    /// Entries allocated.
    pub allocations: u64,
    /// Accesses merged into existing entries.
    pub merges: u64,
    /// Stalls because the file was full.
    pub full_stalls: u64,
    /// Stalls because an entry's target slots were exhausted.
    pub target_stalls: u64,
    /// Stalls because the file was busy after an allocation.
    pub busy_stalls: u64,
    /// Peak simultaneous occupancy.
    pub peak_occupancy: u64,
}

/// A waiting consumer in the shared target arena, chained per entry.
#[derive(Clone, Copy, Debug)]
struct TargetNode {
    target: MshrTarget,
    next: u32,
}

/// One open-addressed index cell mapping a line address to its slot.
#[derive(Clone, Copy, Debug)]
struct IndexCell {
    line: u64,
    slot: u32,
}

/// The miss address file.
///
/// # Examples
///
/// ```
/// use microlib_mem::{MshrFile, MshrOutcome, MshrTarget};
/// use microlib_model::{Addr, Cycle};
///
/// let mut mshr = MshrFile::new(2, 2);
/// let t = |a| MshrTarget { req: None, addr: Addr::new(a), is_store: false, value: 0 };
/// let now = Cycle::new(10);
/// assert_eq!(mshr.try_insert(Addr::new(0x100), t(0x104), false, now), MshrOutcome::Allocated);
/// // Next cycle: a second access to the same line merges.
/// let now = Cycle::new(11);
/// assert_eq!(mshr.try_insert(Addr::new(0x100), t(0x108), false, now), MshrOutcome::Merged);
/// ```
#[derive(Clone, Debug)]
pub struct MshrFile {
    /// Line-aligned miss address per slot (meaningful while LIVE).
    slot_line: Vec<u64>,
    /// LIVE / PREFETCH bits per slot.
    slot_flags: Vec<u8>,
    /// Head/tail of the slot's target chain in `nodes`.
    slot_head: Vec<u32>,
    slot_tail: Vec<u32>,
    /// Number of chained targets (checked against `targets_per_entry`).
    slot_len: Vec<u32>,
    /// Stack of dead slot ids available for allocation.
    free_slots: Vec<u32>,
    /// Live-slot count (== `len()`).
    live: usize,
    /// Shared target-node arena; dead nodes chain through `free_node`.
    nodes: Vec<TargetNode>,
    free_node: u32,
    /// Open-addressed line→slot index (power-of-two, `slot == NONE` empty).
    index: Vec<IndexCell>,
    index_mask: usize,
    /// `64 - log2(index.len())` for the Fibonacci hash.
    index_shift: u32,
    capacity: Option<usize>,
    targets_per_entry: usize,
    busy_after: Option<Cycle>,
    model_busy_cycle: bool,
    stats: MshrStats,
    #[cfg(debug_assertions)]
    shadow: shadow::Shadow,
}

impl MshrFile {
    /// Creates a finite MSHR file with `entries` entries of
    /// `targets_per_entry` mergeable reads each.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(entries: u32, targets_per_entry: u32) -> Self {
        assert!(
            entries > 0 && targets_per_entry > 0,
            "MSHR geometry must be positive"
        );
        let cap = entries as usize;
        // Load factor never exceeds 1/2 → probes stay short, table never fills.
        let table = (cap * 2).next_power_of_two().max(8);
        MshrFile {
            slot_line: vec![0; cap],
            slot_flags: vec![0; cap],
            slot_head: vec![NONE; cap],
            slot_tail: vec![NONE; cap],
            slot_len: vec![0; cap],
            free_slots: (0..cap as u32).rev().collect(),
            live: 0,
            nodes: Vec::with_capacity(cap * (targets_per_entry as usize).min(8)),
            free_node: NONE,
            index: vec![
                IndexCell {
                    line: 0,
                    slot: NONE
                };
                table
            ],
            index_mask: table - 1,
            index_shift: 64 - table.trailing_zeros(),
            capacity: Some(cap),
            targets_per_entry: targets_per_entry as usize,
            busy_after: None,
            model_busy_cycle: true,
            stats: MshrStats::default(),
            #[cfg(debug_assertions)]
            shadow: shadow::Shadow::new(Some(cap), targets_per_entry as usize, true),
        }
    }

    /// Creates a SimpleScalar-like unlimited file: never full, unlimited
    /// merges, never busy. Slots and index grow on demand.
    pub fn unlimited() -> Self {
        let table = 16usize;
        MshrFile {
            slot_line: Vec::new(),
            slot_flags: Vec::new(),
            slot_head: Vec::new(),
            slot_tail: Vec::new(),
            slot_len: Vec::new(),
            free_slots: Vec::new(),
            live: 0,
            nodes: Vec::new(),
            free_node: NONE,
            index: vec![
                IndexCell {
                    line: 0,
                    slot: NONE
                };
                table
            ],
            index_mask: table - 1,
            index_shift: 64 - table.trailing_zeros(),
            capacity: None,
            targets_per_entry: usize::MAX,
            busy_after: None,
            model_busy_cycle: false,
            stats: MshrStats::default(),
            #[cfg(debug_assertions)]
            shadow: shadow::Shadow::new(None, usize::MAX, false),
        }
    }

    /// Enables/disables the one-cycle busy window after an allocation
    /// (a [`FidelityConfig::pipeline_stalls`] toggle).
    ///
    /// [`FidelityConfig::pipeline_stalls`]: microlib_model::FidelityConfig::pipeline_stalls
    pub fn set_model_busy_cycle(&mut self, on: bool) {
        self.model_busy_cycle = on;
        #[cfg(debug_assertions)]
        self.shadow.set_model_busy_cycle(on);
    }

    /// Number of in-flight entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no miss is in flight.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether a new allocation would fail for capacity reasons.
    pub fn is_full(&self) -> bool {
        self.capacity.is_some_and(|c| self.live >= c)
    }

    #[inline]
    fn index_home(&self, line: u64) -> usize {
        (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.index_shift) as usize
    }

    /// Probes the index for `line`, returning its slot id.
    #[inline]
    fn index_find(&self, line: u64) -> Option<u32> {
        let mut i = self.index_home(line);
        loop {
            let cell = self.index[i];
            if cell.slot == NONE {
                return None;
            }
            if cell.line == line {
                return Some(cell.slot);
            }
            i = (i + 1) & self.index_mask;
        }
    }

    fn index_insert(&mut self, line: u64, slot: u32) {
        // Unlimited files grow the table to keep the load factor under 1/2;
        // finite files are sized for worst-case occupancy up front.
        if (self.live + 1) * 2 > self.index.len() {
            self.grow_index();
        }
        let mut i = self.index_home(line);
        while self.index[i].slot != NONE {
            debug_assert_ne!(self.index[i].line, line, "duplicate MSHR index entry");
            i = (i + 1) & self.index_mask;
        }
        self.index[i] = IndexCell { line, slot };
    }

    fn grow_index(&mut self) {
        let table = self.index.len() * 2;
        self.index = vec![
            IndexCell {
                line: 0,
                slot: NONE
            };
            table
        ];
        self.index_mask = table - 1;
        self.index_shift = 64 - table.trailing_zeros();
        for slot in 0..self.slot_line.len() {
            if self.slot_flags[slot] & LIVE != 0 {
                let line = self.slot_line[slot];
                let mut i = self.index_home(line);
                while self.index[i].slot != NONE {
                    i = (i + 1) & self.index_mask;
                }
                self.index[i] = IndexCell {
                    line,
                    slot: slot as u32,
                };
            }
        }
    }

    /// Backward-shift deletion: close the probe gap left by removing
    /// `line`'s cell so every remaining cell stays reachable from its home
    /// slot without tombstones (same scheme as the core's `StoreIndex`).
    fn index_remove(&mut self, line: u64) {
        let mut i = self.index_home(line);
        loop {
            let cell = self.index[i];
            debug_assert_ne!(cell.slot, NONE, "removing unindexed MSHR line");
            if cell.line == line {
                break;
            }
            i = (i + 1) & self.index_mask;
        }
        loop {
            self.index[i].slot = NONE;
            let mut j = i;
            loop {
                j = (j + 1) & self.index_mask;
                if self.index[j].slot == NONE {
                    return;
                }
                let k = self.index_home(self.index[j].line);
                let passes_through_hole = if i <= j {
                    k <= i || k > j
                } else {
                    k <= i && k > j
                };
                if passes_through_hole {
                    self.index[i] = self.index[j];
                    i = j;
                    break;
                }
            }
        }
    }

    fn alloc_node(&mut self, target: MshrTarget) -> u32 {
        if self.free_node != NONE {
            let n = self.free_node;
            self.free_node = self.nodes[n as usize].next;
            self.nodes[n as usize] = TargetNode { target, next: NONE };
            n
        } else {
            self.nodes.push(TargetNode { target, next: NONE });
            (self.nodes.len() - 1) as u32
        }
    }

    fn alloc_slot(&mut self) -> u32 {
        if let Some(slot) = self.free_slots.pop() {
            slot
        } else {
            // Unlimited mode only: the finite file pre-allocates its slots.
            debug_assert!(self.capacity.is_none());
            self.slot_line.push(0);
            self.slot_flags.push(0);
            self.slot_head.push(NONE);
            self.slot_tail.push(NONE);
            self.slot_len.push(0);
            (self.slot_line.len() - 1) as u32
        }
    }

    /// Whether an entry for `line` is in flight.
    pub fn contains(&self, line: Addr) -> bool {
        let found = self.index_find(line.raw()).is_some();
        #[cfg(debug_assertions)]
        debug_assert_eq!(found, self.shadow.contains(line), "MSHR contains diverged");
        found
    }

    /// Whether the in-flight entry for `line` (if any) is a pure prefetch.
    pub fn is_prefetch_inflight(&self, line: Addr) -> bool {
        let found = self
            .index_find(line.raw())
            .is_some_and(|slot| self.slot_flags[slot as usize] & PREFETCH != 0);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            found,
            self.shadow.is_prefetch_inflight(line),
            "MSHR prefetch-inflight diverged"
        );
        found
    }

    /// Attempts to record a miss on `line` with consumer `target`.
    ///
    /// `as_prefetch` marks prefetch-originated allocations. Demand
    /// accesses merging into a prefetch entry promote it to demand (the
    /// prefetch became useful-but-late).
    pub fn try_insert(
        &mut self,
        line: Addr,
        target: MshrTarget,
        as_prefetch: bool,
        now: Cycle,
    ) -> MshrOutcome {
        let outcome = self.try_insert_arena(line, target, as_prefetch, now);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            outcome,
            self.shadow.try_insert(line, target, as_prefetch, now),
            "MSHR insert outcome diverged from shadow"
        );
        outcome
    }

    fn try_insert_arena(
        &mut self,
        line: Addr,
        target: MshrTarget,
        as_prefetch: bool,
        now: Cycle,
    ) -> MshrOutcome {
        if self.model_busy_cycle {
            if let Some(busy) = self.busy_after {
                if now <= busy {
                    self.stats.busy_stalls += 1;
                    return MshrOutcome::BusyStall;
                }
            }
        }
        if let Some(slot) = self.index_find(line.raw()) {
            let slot = slot as usize;
            if self.slot_len[slot] as usize >= self.targets_per_entry {
                self.stats.target_stalls += 1;
                return MshrOutcome::TargetStall;
            }
            let node = self.alloc_node(target);
            let tail = self.slot_tail[slot];
            debug_assert_ne!(tail, NONE, "live MSHR slot with empty target chain");
            self.nodes[tail as usize].next = node;
            self.slot_tail[slot] = node;
            self.slot_len[slot] += 1;
            if !as_prefetch {
                self.slot_flags[slot] &= !PREFETCH;
            }
            self.stats.merges += 1;
            return MshrOutcome::Merged;
        }
        if self.is_full() {
            self.stats.full_stalls += 1;
            return MshrOutcome::FullStall;
        }
        let node = self.alloc_node(target);
        let slot = self.alloc_slot() as usize;
        // Index before setting LIVE: a growth-triggered rehash walks the
        // LIVE slots, and the new slot must not be re-inserted by it.
        self.index_insert(line.raw(), slot as u32);
        self.slot_line[slot] = line.raw();
        self.slot_flags[slot] = LIVE | if as_prefetch { PREFETCH } else { 0 };
        self.slot_head[slot] = node;
        self.slot_tail[slot] = node;
        self.slot_len[slot] = 1;
        self.live += 1;
        self.stats.allocations += 1;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.live as u64);
        if self.model_busy_cycle {
            self.busy_after = Some(now);
        }
        MshrOutcome::Allocated
    }

    /// Completes the in-flight miss on `line`, draining its merged targets
    /// (in arrival order) into `targets` — the buffer is cleared first —
    /// and returning the entry header. Nothing is allocated: the slot and
    /// its target nodes return to the free lists.
    pub fn complete_into(
        &mut self,
        line: Addr,
        targets: &mut Vec<MshrTarget>,
    ) -> Option<MshrCompletion> {
        targets.clear();
        let slot = self.index_find(line.raw())? as usize;
        let flags = self.slot_flags[slot];
        let mut node = self.slot_head[slot];
        while node != NONE {
            let n = self.nodes[node as usize];
            targets.push(n.target);
            // Thread the node onto the free list as we walk.
            self.nodes[node as usize].next = self.free_node;
            self.free_node = node;
            node = n.next;
        }
        self.slot_flags[slot] = 0;
        self.slot_head[slot] = NONE;
        self.slot_tail[slot] = NONE;
        self.slot_len[slot] = 0;
        self.free_slots.push(slot as u32);
        self.index_remove(line.raw());
        self.live -= 1;
        let completion = MshrCompletion {
            line,
            is_prefetch: flags & PREFETCH != 0,
        };
        #[cfg(debug_assertions)]
        {
            let reference = self.shadow.complete(line).expect("shadow entry missing");
            debug_assert_eq!(reference.line, completion.line);
            debug_assert_eq!(reference.is_prefetch, completion.is_prefetch);
            debug_assert_eq!(
                reference.targets, *targets,
                "MSHR completion targets diverged from shadow"
            );
        }
        Some(completion)
    }

    /// Completes the in-flight miss on `line`, removing and returning its
    /// entry (with all merged targets). Allocating convenience wrapper
    /// around [`MshrFile::complete_into`].
    pub fn complete(&mut self, line: Addr) -> Option<MshrEntry> {
        let mut targets = Vec::new();
        let completion = self.complete_into(line, &mut targets)?;
        Some(MshrEntry {
            line: completion.line,
            targets,
            is_prefetch: completion.is_prefetch,
        })
    }

    /// Occupancy counters.
    pub fn stats(&self) -> MshrStats {
        self.stats
    }

    /// Clears all in-flight state and counters.
    pub fn reset(&mut self) {
        for flags in &mut self.slot_flags {
            *flags = 0;
        }
        for head in &mut self.slot_head {
            *head = NONE;
        }
        for tail in &mut self.slot_tail {
            *tail = NONE;
        }
        for len in &mut self.slot_len {
            *len = 0;
        }
        self.free_slots.clear();
        self.free_slots
            .extend((0..self.slot_line.len() as u32).rev());
        self.live = 0;
        self.nodes.clear();
        self.free_node = NONE;
        for cell in &mut self.index {
            cell.slot = NONE;
        }
        self.busy_after = None;
        self.stats = MshrStats::default();
        #[cfg(debug_assertions)]
        self.shadow.reset();
    }
}

/// Debug-only reference implementation: the original `Vec<MshrEntry>`
/// file, kept in lockstep and cross-checked on every insert/completion
/// (PR-6 shadow pattern).
#[cfg(debug_assertions)]
mod shadow {
    use super::{MshrEntry, MshrOutcome, MshrTarget};
    use microlib_model::{Addr, Cycle};

    #[derive(Clone, Debug)]
    pub(super) struct Shadow {
        entries: Vec<MshrEntry>,
        capacity: Option<usize>,
        targets_per_entry: usize,
        busy_after: Option<Cycle>,
        model_busy_cycle: bool,
    }

    impl Shadow {
        pub(super) fn new(
            capacity: Option<usize>,
            targets_per_entry: usize,
            model_busy_cycle: bool,
        ) -> Self {
            Shadow {
                entries: Vec::new(),
                capacity,
                targets_per_entry,
                busy_after: None,
                model_busy_cycle,
            }
        }

        pub(super) fn set_model_busy_cycle(&mut self, on: bool) {
            self.model_busy_cycle = on;
        }

        pub(super) fn contains(&self, line: Addr) -> bool {
            self.entries.iter().any(|e| e.line == line)
        }

        pub(super) fn is_prefetch_inflight(&self, line: Addr) -> bool {
            self.entries.iter().any(|e| e.line == line && e.is_prefetch)
        }

        pub(super) fn try_insert(
            &mut self,
            line: Addr,
            target: MshrTarget,
            as_prefetch: bool,
            now: Cycle,
        ) -> MshrOutcome {
            if self.model_busy_cycle {
                if let Some(busy) = self.busy_after {
                    if now <= busy {
                        return MshrOutcome::BusyStall;
                    }
                }
            }
            if let Some(entry) = self.entries.iter_mut().find(|e| e.line == line) {
                if entry.targets.len() >= self.targets_per_entry {
                    return MshrOutcome::TargetStall;
                }
                entry.targets.push(target);
                if !as_prefetch {
                    entry.is_prefetch = false;
                }
                return MshrOutcome::Merged;
            }
            if self.capacity.is_some_and(|c| self.entries.len() >= c) {
                return MshrOutcome::FullStall;
            }
            self.entries.push(MshrEntry {
                line,
                targets: vec![target],
                is_prefetch: as_prefetch,
            });
            if self.model_busy_cycle {
                self.busy_after = Some(now);
            }
            MshrOutcome::Allocated
        }

        pub(super) fn complete(&mut self, line: Addr) -> Option<MshrEntry> {
            let idx = self.entries.iter().position(|e| e.line == line)?;
            Some(self.entries.swap_remove(idx))
        }

        pub(super) fn reset(&mut self) {
            self.entries.clear();
            self.busy_after = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(addr: u64) -> MshrTarget {
        MshrTarget {
            req: Some(ReqId::new(addr)),
            addr: Addr::new(addr),
            is_store: false,
            value: 0,
        }
    }

    #[test]
    fn allocate_then_merge() {
        let mut m = MshrFile::new(8, 4);
        assert_eq!(
            m.try_insert(Addr::new(0x100), t(0x100), false, Cycle::new(0)),
            MshrOutcome::Allocated
        );
        assert_eq!(
            m.try_insert(Addr::new(0x100), t(0x108), false, Cycle::new(2)),
            MshrOutcome::Merged
        );
        assert_eq!(m.len(), 1);
        let entry = m.complete(Addr::new(0x100)).unwrap();
        assert_eq!(entry.targets.len(), 2);
        assert!(m.is_empty());
        assert!(m.complete(Addr::new(0x100)).is_none());
    }

    #[test]
    fn busy_cycle_after_allocation() {
        let mut m = MshrFile::new(8, 4);
        let now = Cycle::new(5);
        assert!(m
            .try_insert(Addr::new(0x100), t(0x100), false, now)
            .accepted());
        // Same cycle: busy.
        assert_eq!(
            m.try_insert(Addr::new(0x200), t(0x200), false, now),
            MshrOutcome::BusyStall
        );
        // Next cycle: fine.
        assert_eq!(
            m.try_insert(Addr::new(0x200), t(0x200), false, Cycle::new(6)),
            MshrOutcome::Allocated
        );
    }

    #[test]
    fn target_slots_exhaust() {
        let mut m = MshrFile::new(8, 2);
        m.set_model_busy_cycle(false);
        let line = Addr::new(0x300);
        assert!(m
            .try_insert(line, t(0x300), false, Cycle::new(0))
            .accepted());
        assert!(m
            .try_insert(line, t(0x308), false, Cycle::new(1))
            .accepted());
        assert_eq!(
            m.try_insert(line, t(0x310), false, Cycle::new(2)),
            MshrOutcome::TargetStall
        );
        assert_eq!(m.stats().target_stalls, 1);
    }

    #[test]
    fn capacity_exhausts() {
        let mut m = MshrFile::new(2, 4);
        m.set_model_busy_cycle(false);
        assert!(m
            .try_insert(Addr::new(0x000), t(0), false, Cycle::new(0))
            .accepted());
        assert!(m
            .try_insert(Addr::new(0x100), t(0x100), false, Cycle::new(1))
            .accepted());
        assert_eq!(
            m.try_insert(Addr::new(0x200), t(0x200), false, Cycle::new(2)),
            MshrOutcome::FullStall
        );
        assert!(m.is_full());
        assert_eq!(m.stats().full_stalls, 1);
        assert_eq!(m.stats().peak_occupancy, 2);
    }

    #[test]
    fn unlimited_never_stalls() {
        let mut m = MshrFile::unlimited();
        for i in 0..100u64 {
            assert!(m
                .try_insert(Addr::new(i * 64), t(i * 64), false, Cycle::new(0))
                .accepted());
        }
        assert!(!m.is_full());
        assert_eq!(m.len(), 100);
    }

    #[test]
    fn demand_promotes_prefetch_entry() {
        let mut m = MshrFile::new(4, 4);
        m.set_model_busy_cycle(false);
        let line = Addr::new(0x400);
        let pf = MshrTarget {
            req: None,
            addr: line,
            is_store: false,
            value: 0,
        };
        assert!(m.try_insert(line, pf, true, Cycle::new(0)).accepted());
        assert!(m.is_prefetch_inflight(line));
        assert!(m
            .try_insert(line, t(0x404), false, Cycle::new(1))
            .accepted());
        assert!(!m.is_prefetch_inflight(line));
        let entry = m.complete(line).unwrap();
        assert!(!entry.is_prefetch, "demand merge promotes the entry");
    }

    /// Hammers slot/node recycling and the open-addressed index: repeated
    /// allocate/merge/complete cycles over colliding lines must preserve
    /// target order and leak no arena storage.
    #[test]
    fn arena_recycles_slots_and_nodes() {
        let mut m = MshrFile::new(4, 4);
        m.set_model_busy_cycle(false);
        for round in 0..50u64 {
            let lines: Vec<Addr> = (0..4).map(|i| Addr::new((round * 4 + i) * 0x40)).collect();
            for (i, line) in lines.iter().enumerate() {
                assert!(m
                    .try_insert(*line, t(line.raw()), false, Cycle::new(i as u64))
                    .accepted());
                assert!(m
                    .try_insert(*line, t(line.raw() + 8), false, Cycle::new(i as u64))
                    .accepted());
            }
            assert!(m.is_full());
            // Complete out of allocation order to exercise backward-shift
            // deletion in the index.
            let mut scratch = Vec::new();
            for line in lines.iter().rev() {
                let c = m.complete_into(*line, &mut scratch).unwrap();
                assert_eq!(c.line, *line);
                assert_eq!(scratch.len(), 2);
                assert_eq!(scratch[0].addr, *line, "arrival order preserved");
                assert_eq!(scratch[1].addr.raw(), line.raw() + 8);
            }
            assert!(m.is_empty());
        }
        // Node arena stabilized at one round's worth of nodes.
        assert!(m.nodes.len() <= 8, "node arena grew: {}", m.nodes.len());
        assert_eq!(m.stats().allocations, 200);
        assert_eq!(m.stats().merges, 200);
    }

    #[test]
    fn unlimited_grows_index_without_losing_entries() {
        let mut m = MshrFile::unlimited();
        let mut scratch = Vec::new();
        for i in 0..64u64 {
            assert!(m
                .try_insert(Addr::new(i * 64), t(i * 64), false, Cycle::new(0))
                .accepted());
        }
        for i in (0..64u64).step_by(2) {
            assert!(m.complete_into(Addr::new(i * 64), &mut scratch).is_some());
        }
        for i in (1..64u64).step_by(2) {
            assert!(m.contains(Addr::new(i * 64)));
        }
        assert_eq!(m.len(), 32);
    }
}
