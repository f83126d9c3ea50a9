//! The set-associative cache array: tags, data, dirty/prefetched bits and
//! replacement state.
//!
//! This is a *storage* model only — timing (ports, MSHRs, pipeline hazards)
//! lives in [`crate::hierarchy`]. Keeping storage and timing separate is
//! what lets the same array back both the detailed MicroLib model and the
//! SimpleScalar-like idealized model of Fig 1.
//!
//! # Data layout
//!
//! The array is stored struct-of-arrays: four flat columns (`tags`, `meta`,
//! `fifo`, `data`), each `sets × ways` long and row-major by set, so a
//! lookup is a short linear tag scan over one or two cache lines of host
//! memory instead of per-way struct chasing. All per-way metadata except
//! the FIFO stamp is packed into one `meta` word per way:
//!
//! ```text
//!   bit 0      VALID        slot holds a line
//!   bit 1      DIRTY        written since fill
//!   bit 2      PREFETCHED   brought in by a prefetch
//!   bit 3      TOUCHED      demand-touched since fill
//!   bits 63..4 LRU stamp    replacement clock at last fill/demand touch
//! ```
//!
//! A demand touch is then one masked store (`flags | clock << 4`); an LRU
//! victim scan is a min over `meta >> 4` with no branches on validity
//! needed (the invalid-way check runs first and short-circuits). Debug
//! builds retain the original per-way struct implementation as a shadow
//! and cross-check every find / update / victim choice against it.

use microlib_model::{
    Addr, BinCodec, CacheConfig, CodecError, Decoder, Encoder, LineData, Replacement,
};

/// Packed `meta` word flags (see module docs for the layout).
const VALID: u64 = 1 << 0;
const DIRTY: u64 = 1 << 1;
const PREFETCHED: u64 = 1 << 2;
const TOUCHED: u64 = 1 << 3;
const FLAGS: u64 = 0xF;
/// LRU stamp lives in `meta >> LRU_SHIFT`.
const LRU_SHIFT: u32 = 4;

/// A line displaced by a fill or invalidation.
#[derive(Clone, Debug)]
pub struct Victim {
    /// Line-aligned address of the displaced line.
    pub line: Addr,
    /// Whether it was dirty (needs writeback).
    pub dirty: bool,
    /// Its data.
    pub data: LineData,
    /// Whether it was a prefetched line never demand-touched.
    pub untouched_prefetch: bool,
}

/// Result of a demand lookup that hit.
#[derive(Clone, Copy, Debug)]
pub struct HitInfo {
    /// Whether the line had been prefetched and this is its first demand
    /// touch (tagged prefetching's second trigger).
    pub first_touch_of_prefetch: bool,
}

/// A set-associative cache array.
///
/// # Examples
///
/// ```
/// use microlib_mem::CacheArray;
/// use microlib_model::{Addr, CacheConfig, LineData};
///
/// let mut l1 = CacheArray::new(CacheConfig::baseline_l1d()).unwrap();
/// let line = Addr::new(0x1000);
/// assert!(l1.lookup(line).is_none());
/// l1.fill(line, LineData::zeroed(4), false, false);
/// assert!(l1.lookup(line).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct CacheArray {
    config: CacheConfig,
    /// Upper address bits per slot; only meaningful when `meta` has VALID.
    tags: Vec<u64>,
    /// Packed state word per slot (flags + LRU stamp; module docs).
    meta: Vec<u64>,
    /// FIFO stamp per slot (set at fill time only).
    fifo: Vec<u64>,
    /// Line payloads, parallel to `tags`.
    data: Vec<LineData>,
    ways: usize,
    line_shift: u32,
    set_mask: u64,
    /// `set_mask.count_ones()`, cached for the index math.
    set_bits: u32,
    clock: u64,
    rng_state: u64,
    #[cfg(debug_assertions)]
    shadow: shadow::Shadow,
}

impl CacheArray {
    /// Builds the array for `config`.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`ConfigError`](microlib_model::ConfigError)
    /// if `config` is inconsistent.
    pub fn new(config: CacheConfig) -> Result<Self, microlib_model::ConfigError> {
        config.validate()?;
        let sets = config.sets() as usize;
        let ways = config.ways() as usize;
        let slots = sets * ways;
        let line = LineData::zeroed((config.line_bytes / 8) as usize);
        Ok(CacheArray {
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: (sets as u64) - 1,
            set_bits: ((sets as u64) - 1).count_ones(),
            #[cfg(debug_assertions)]
            shadow: shadow::Shadow::new(sets, ways, &config),
            config,
            tags: vec![0; slots],
            meta: vec![0; slots],
            fifo: vec![0; slots],
            data: vec![line; slots],
            ways,
            clock: 0,
            rng_state: 0x9E37_79B9_7F4A_7C15,
        })
    }

    /// The array's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Encodes the array's mutable state (lines, clock, replacement RNG).
    /// The configuration is *not* encoded: warm-checkpoint cache keys
    /// already cover it, so decode rebuilds from the caller's config.
    ///
    /// Invalid lines are encoded as a single flag: their tag, replacement
    /// metadata and data can never influence behavior (every read path
    /// filters on `valid`, and victim choice takes an invalid way
    /// positionally, before any metadata comparison), so decode restores
    /// them to the fresh-array default. This keeps a half-warm L2's
    /// encoding proportional to its *resident* lines.
    ///
    /// The byte format is identical to the pre-SoA per-way-struct layout,
    /// so warm checkpoints written by earlier builds remain decodable.
    pub(crate) fn encode_state(&self, e: &mut Encoder) {
        e.put_u64(self.clock);
        e.put_u64(self.rng_state);
        e.put_usize((self.set_mask + 1) as usize);
        for set in 0..=self.set_mask as usize {
            e.put_usize(self.ways);
            let base = set * self.ways;
            for slot in base..base + self.ways {
                let m = self.meta[slot];
                e.put_bool(m & VALID != 0);
                if m & VALID == 0 {
                    continue;
                }
                e.put_u64(self.tags[slot]);
                e.put_bool(m & DIRTY != 0);
                e.put_bool(m & PREFETCHED != 0);
                e.put_bool(m & TOUCHED != 0);
                e.put_u64(m >> LRU_SHIFT);
                e.put_u64(self.fifo[slot]);
                self.data[slot].encode(e);
            }
        }
    }

    /// Rebuilds an array for `config` and restores the encoded state.
    /// Rejects geometry mismatches (the entry was written under a
    /// different configuration than the key claimed).
    pub(crate) fn decode_state(
        config: CacheConfig,
        d: &mut Decoder<'_>,
    ) -> Result<Self, CodecError> {
        let mut array = CacheArray::new(config).map_err(|_| CodecError::Invalid("cache config"))?;
        array.clock = d.take_u64()?;
        array.rng_state = d.take_u64()?;
        if d.take_usize()? != (array.set_mask + 1) as usize {
            return Err(CodecError::Invalid("cache set count"));
        }
        let line_words = (array.config.line_bytes / 8) as usize;
        for set in 0..=array.set_mask as usize {
            if d.take_usize()? != array.ways {
                return Err(CodecError::Invalid("cache way count"));
            }
            let base = set * array.ways;
            for slot in base..base + array.ways {
                if !d.take_bool()? {
                    continue;
                }
                array.tags[slot] = d.take_u64()?;
                let dirty = d.take_bool()?;
                let prefetched = d.take_bool()?;
                let touched = d.take_bool()?;
                let lru = d.take_u64()?;
                array.meta[slot] = (lru << LRU_SHIFT)
                    | VALID
                    | if dirty { DIRTY } else { 0 }
                    | if prefetched { PREFETCHED } else { 0 }
                    | if touched { TOUCHED } else { 0 };
                array.fifo[slot] = d.take_u64()?;
                array.data[slot] = LineData::decode(d)?;
                if array.data[slot].words().len() != line_words {
                    return Err(CodecError::Invalid("cache line width"));
                }
            }
        }
        #[cfg(debug_assertions)]
        array.shadow.rebuild(&array.tags, &array.meta, &array.fifo);
        Ok(array)
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.config.line_bytes
    }

    /// Decomposes a byte address into (set, tag).
    #[inline]
    pub fn index_of(&self, addr: Addr) -> (usize, u64) {
        let line = addr.raw() >> self.line_shift;
        ((line & self.set_mask) as usize, line >> self.set_bits)
    }

    /// Reconstructs the line-aligned address for (set, tag).
    #[inline]
    pub fn address_of(&self, set: usize, tag: u64) -> Addr {
        Addr::new(((tag << self.set_bits) | set as u64) << self.line_shift)
    }

    /// Finds the flat slot index holding `addr`'s line, if resident.
    #[inline]
    fn find(&self, addr: Addr) -> Option<usize> {
        let (set, tag) = self.index_of(addr);
        let base = set * self.ways;
        let mut found = None;
        for slot in base..base + self.ways {
            if self.meta[slot] & VALID != 0 && self.tags[slot] == tag {
                found = Some(slot);
                break;
            }
        }
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.shadow.find(set, tag).map(|way| base + way),
            found,
            "SoA find diverged from shadow in {}",
            self.config.name
        );
        found
    }

    /// Line-aligned address currently held by flat slot index `slot`.
    #[inline]
    fn slot_address(&self, slot: usize) -> Addr {
        let set = slot / self.ways;
        self.address_of(set, self.tags[slot])
    }

    /// The common demand-touch update: bump the clock, re-stamp LRU, set
    /// TOUCHED, and report whether this was a prefetched line's first
    /// demand touch.
    #[inline]
    fn touch(&mut self, slot: usize) -> HitInfo {
        self.clock += 1;
        let m = self.meta[slot];
        let first_touch = m & (PREFETCHED | TOUCHED) == PREFETCHED;
        self.meta[slot] = (m & FLAGS) | TOUCHED | (self.clock << LRU_SHIFT);
        #[cfg(debug_assertions)]
        self.shadow.touch(slot, self.clock, first_touch);
        HitInfo {
            first_touch_of_prefetch: first_touch,
        }
    }

    /// Whether the line containing `addr` is present.
    pub fn contains(&self, addr: Addr) -> bool {
        self.find(addr).is_some()
    }

    /// Demand lookup: on a hit, updates replacement/touch state and returns
    /// hit metadata.
    pub fn lookup(&mut self, addr: Addr) -> Option<HitInfo> {
        let slot = self.find(addr)?;
        Some(self.touch(slot))
    }

    /// Fused demand lookup + word read for the load hit path: one tag
    /// search instead of [`CacheArray::lookup`] followed by
    /// [`CacheArray::read_word`], with the identical state updates.
    pub fn lookup_load(&mut self, addr: Addr) -> Option<(HitInfo, u64)> {
        let slot = self.find(addr)?;
        let hit = self.touch(slot);
        let offset = (addr.offset_in_line(self.config.line_bytes) >> 3) as usize;
        Some((hit, self.data[slot].word(offset)))
    }

    /// Fused demand lookup + word write for the store hit path: one tag
    /// search instead of [`CacheArray::lookup`] followed by
    /// [`CacheArray::write_word`], with the identical state updates.
    pub fn lookup_store(&mut self, addr: Addr, value: u64) -> Option<HitInfo> {
        let slot = self.find(addr)?;
        let hit = self.touch(slot);
        let offset = (addr.offset_in_line(self.config.line_bytes) >> 3) as usize;
        self.data[slot].set_word(offset, value);
        self.meta[slot] |= DIRTY;
        #[cfg(debug_assertions)]
        self.shadow.set_dirty(slot);
        Some(hit)
    }

    /// Lookup without perturbing replacement or touch state (used by
    /// prefetch filtering and assertions).
    pub fn peek(&self, addr: Addr) -> bool {
        self.find(addr).is_some()
    }

    /// Reads the data word at `addr` if the line is present.
    pub fn read_word(&self, addr: Addr) -> Option<u64> {
        let slot = self.find(addr)?;
        let offset = (addr.offset_in_line(self.config.line_bytes) >> 3) as usize;
        Some(self.data[slot].word(offset))
    }

    /// Writes the data word at `addr` and sets the dirty bit; returns
    /// `false` if the line is absent.
    pub fn write_word(&mut self, addr: Addr, value: u64) -> bool {
        let Some(slot) = self.find(addr) else {
            return false;
        };
        let offset = (addr.offset_in_line(self.config.line_bytes) >> 3) as usize;
        self.data[slot].set_word(offset, value);
        self.meta[slot] |= DIRTY;
        #[cfg(debug_assertions)]
        self.shadow.set_dirty(slot);
        true
    }

    /// Returns a copy of the line's data if present.
    pub fn read_line(&self, addr: Addr) -> Option<LineData> {
        self.find(addr).map(|slot| self.data[slot])
    }

    /// Overwrites the whole line's data (writeback payload from above);
    /// the caller chooses whether this dirties the line.
    pub fn write_line(
        &mut self,
        addr: Addr,
        offset_words: usize,
        words: &[u64],
        dirty: bool,
    ) -> bool {
        let Some(slot) = self.find(addr) else {
            return false;
        };
        for (i, w) in words.iter().enumerate() {
            self.data[slot].set_word(offset_words + i, *w);
        }
        if dirty {
            self.meta[slot] |= DIRTY;
            #[cfg(debug_assertions)]
            self.shadow.set_dirty(slot);
        }
        true
    }

    /// Picks the fill slot for `set`: the first invalid way positionally,
    /// else per the configured replacement policy.
    fn choose_victim(&mut self, set: usize) -> usize {
        let base = set * self.ways;
        for slot in base..base + self.ways {
            if self.meta[slot] & VALID == 0 {
                #[cfg(debug_assertions)]
                self.shadow.check_victim(set, slot - base, &self.config);
                return slot;
            }
        }
        let way = match self.config.replacement {
            // First-min semantics (strict `<`) match the reference
            // `min_by_key`, which keeps the earliest way on stamp ties.
            Replacement::Lru => {
                let mut best = 0usize;
                let mut best_stamp = self.meta[base] >> LRU_SHIFT;
                for way in 1..self.ways {
                    let stamp = self.meta[base + way] >> LRU_SHIFT;
                    if stamp < best_stamp {
                        best = way;
                        best_stamp = stamp;
                    }
                }
                best
            }
            Replacement::Fifo => {
                let mut best = 0usize;
                let mut best_stamp = self.fifo[base];
                for way in 1..self.ways {
                    let stamp = self.fifo[base + way];
                    if stamp < best_stamp {
                        best = way;
                        best_stamp = stamp;
                    }
                }
                best
            }
            Replacement::Random => {
                // xorshift64*
                self.rng_state ^= self.rng_state >> 12;
                self.rng_state ^= self.rng_state << 25;
                self.rng_state ^= self.rng_state >> 27;
                (self.rng_state.wrapping_mul(0x2545_F491_4F6C_DD1D) % self.ways as u64) as usize
            }
        };
        #[cfg(debug_assertions)]
        self.shadow.check_victim(set, way, &self.config);
        base + way
    }

    /// Installs a line, returning the displaced victim if a valid line had
    /// to be evicted.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the line is already present — the
    /// hierarchy must never double-fill.
    pub fn fill(
        &mut self,
        addr: Addr,
        data: LineData,
        dirty: bool,
        prefetched: bool,
    ) -> Option<Victim> {
        debug_assert!(
            !self.contains(addr),
            "double fill of line {:#x} in {}",
            addr.raw(),
            self.config.name
        );
        let (set, tag) = self.index_of(addr);
        let slot = self.choose_victim(set);
        self.clock += 1;
        let m = self.meta[slot];
        let victim = if m & VALID != 0 {
            Some(Victim {
                line: self.slot_address(slot),
                dirty: m & DIRTY != 0,
                data: self.data[slot],
                untouched_prefetch: m & (PREFETCHED | TOUCHED) == PREFETCHED,
            })
        } else {
            None
        };
        self.tags[slot] = tag;
        self.meta[slot] = VALID
            | if dirty { DIRTY } else { 0 }
            | if prefetched { PREFETCHED } else { 0 }
            | (self.clock << LRU_SHIFT);
        self.fifo[slot] = self.clock;
        self.data[slot] = data;
        #[cfg(debug_assertions)]
        self.shadow
            .fill(slot, tag, dirty, prefetched, self.clock, victim.as_ref());
        victim
    }

    /// Removes the line containing `addr`, returning it as a victim.
    pub fn invalidate(&mut self, addr: Addr) -> Option<Victim> {
        let slot = self.find(addr)?;
        let m = self.meta[slot];
        self.meta[slot] = m & !VALID;
        #[cfg(debug_assertions)]
        self.shadow.invalidate(slot);
        Some(Victim {
            line: addr.line(self.config.line_bytes),
            dirty: m & DIRTY != 0,
            data: self.data[slot],
            untouched_prefetch: m & (PREFETCHED | TOUCHED) == PREFETCHED,
        })
    }

    /// Whether the line containing `addr` is present and prefetched-untouched.
    pub fn is_untouched_prefetch(&self, addr: Addr) -> bool {
        self.find(addr)
            .map(|slot| self.meta[slot] & (PREFETCHED | TOUCHED) == PREFETCHED)
            .unwrap_or(false)
    }

    /// Number of valid lines currently held.
    pub fn occupancy(&self) -> usize {
        self.meta.iter().filter(|m| **m & VALID != 0).count()
    }

    /// Iterates over the line-aligned addresses of all valid lines.
    pub fn resident_lines(&self) -> impl Iterator<Item = Addr> + '_ {
        self.meta
            .iter()
            .enumerate()
            .filter(|(_, m)| **m & VALID != 0)
            .map(move |(slot, _)| self.slot_address(slot))
    }

    /// Invalidates everything and clears replacement state.
    pub fn reset(&mut self) {
        for m in &mut self.meta {
            *m &= !FLAGS;
        }
        self.clock = 0;
        #[cfg(debug_assertions)]
        self.shadow.reset();
    }
}

/// Warm-loop fast-path accessors: the hierarchy caches the flat slot index
/// of the last warm data hit and re-validates it with a single compare
/// instead of re-running the set scan. See `MemorySystem::warm_inst`.
impl CacheArray {
    /// Approximate resident heap footprint in bytes: the three parallel
    /// slot arrays plus line payloads (inline header + `line_bytes` of
    /// data per slot).
    pub fn resident_bytes(&self) -> usize {
        let slots = self.tags.len();
        slots
            * (3 * std::mem::size_of::<u64>()
                + std::mem::size_of::<LineData>()
                + self.config.line_bytes as usize)
    }

    /// Like [`CacheArray::lookup`], but also returns the flat slot index
    /// for later [`CacheArray::warm_slot_hit`] re-validation.
    pub(crate) fn lookup_slot(&mut self, addr: Addr) -> Option<(HitInfo, usize)> {
        let slot = self.find(addr)?;
        Some((self.touch(slot), slot))
    }

    /// Whether `slot` still holds `addr`'s line with the TOUCHED bit set —
    /// the precondition under which a repeated demand lookup is a pure
    /// MRU re-assertion (no flag, stat, or victim-choice effect beyond
    /// re-stamping a line that is already the set's most recent) and may
    /// be skipped by the warm fast path.
    #[inline]
    pub(crate) fn warm_slot_hit(&self, slot: usize, addr: Addr) -> bool {
        let (set, tag) = self.index_of(addr);
        debug_assert!(slot < self.meta.len());
        let m = self.meta[slot];
        slot / self.ways == set
            && m & (VALID | TOUCHED) == (VALID | TOUCHED)
            && self.tags[slot] == tag
    }

    /// Demand-touch for a slot pre-validated by
    /// [`CacheArray::warm_slot_hit`]: performs exactly the state update a
    /// full [`CacheArray::lookup`] would (clock bump, LRU re-stamp,
    /// TOUCHED), minus the tag scan — the warm fast path stays
    /// byte-identical to the slow path it short-circuits.
    #[inline]
    pub(crate) fn warm_touch(&mut self, slot: usize, addr: Addr) -> HitInfo {
        debug_assert!(self.warm_slot_hit(slot, addr));
        let _ = addr;
        self.touch(slot)
    }

    /// Store-through for a slot pre-validated by
    /// [`CacheArray::warm_slot_hit`]: writes the word and sets DIRTY
    /// without re-running the tag scan.
    #[inline]
    pub(crate) fn warm_slot_store(&mut self, slot: usize, addr: Addr, value: u64) {
        debug_assert!(self.warm_slot_hit(slot, addr));
        let offset = (addr.offset_in_line(self.config.line_bytes) >> 3) as usize;
        self.data[slot].set_word(offset, value);
        self.meta[slot] |= DIRTY;
        #[cfg(debug_assertions)]
        self.shadow.set_dirty(slot);
    }
}

/// Debug-only reference implementation: the original per-way-struct array,
/// kept in lockstep with the packed columns. Every find, touch, fill and
/// victim choice is cross-checked against it (PR-6 shadow pattern), so any
/// packing bug trips a debug_assert instead of silently skewing results.
#[cfg(debug_assertions)]
mod shadow {
    use super::Victim;
    use microlib_model::{CacheConfig, Replacement};

    #[derive(Clone, Debug, Default)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        prefetched: bool,
        touched: bool,
        lru: u64,
        fifo: u64,
    }

    #[derive(Clone, Debug)]
    pub(super) struct Shadow {
        lines: Vec<Line>,
        ways: usize,
    }

    impl Shadow {
        pub(super) fn new(sets: usize, ways: usize, _config: &CacheConfig) -> Self {
            Shadow {
                lines: (0..sets * ways).map(|_| Line::default()).collect(),
                ways,
            }
        }

        /// Reconstructs the shadow from decoded packed columns.
        pub(super) fn rebuild(&mut self, tags: &[u64], meta: &[u64], fifo: &[u64]) {
            for (slot, line) in self.lines.iter_mut().enumerate() {
                let m = meta[slot];
                *line = Line {
                    tag: tags[slot],
                    valid: m & super::VALID != 0,
                    dirty: m & super::DIRTY != 0,
                    prefetched: m & super::PREFETCHED != 0,
                    touched: m & super::TOUCHED != 0,
                    lru: m >> super::LRU_SHIFT,
                    fifo: fifo[slot],
                };
            }
        }

        pub(super) fn find(&self, set: usize, tag: u64) -> Option<usize> {
            let base = set * self.ways;
            self.lines[base..base + self.ways]
                .iter()
                .position(|w| w.valid && w.tag == tag)
        }

        pub(super) fn touch(&mut self, slot: usize, clock: u64, first_touch: bool) {
            let line = &mut self.lines[slot];
            assert!(line.valid, "shadow: demand touch on invalid slot");
            assert_eq!(
                line.prefetched && !line.touched,
                first_touch,
                "shadow: first-touch flag diverged"
            );
            line.lru = clock;
            line.touched = true;
        }

        pub(super) fn set_dirty(&mut self, slot: usize) {
            self.lines[slot].dirty = true;
        }

        /// Verifies the packed victim choice against the reference policy.
        /// Random replacement shares the RNG with the packed array, so the
        /// chosen way is taken as given there.
        pub(super) fn check_victim(&self, set: usize, way: usize, config: &CacheConfig) {
            let base = set * self.ways;
            let ways = &self.lines[base..base + self.ways];
            if let Some(invalid) = ways.iter().position(|w| !w.valid) {
                assert_eq!(way, invalid, "shadow: invalid-way choice diverged");
                return;
            }
            let expect = match config.replacement {
                Replacement::Lru => ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.lru)
                    .map(|(i, _)| i)
                    .unwrap_or(0),
                Replacement::Fifo => ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.fifo)
                    .map(|(i, _)| i)
                    .unwrap_or(0),
                Replacement::Random => way,
            };
            assert_eq!(way, expect, "shadow: victim choice diverged");
        }

        pub(super) fn fill(
            &mut self,
            slot: usize,
            tag: u64,
            dirty: bool,
            prefetched: bool,
            clock: u64,
            victim: Option<&Victim>,
        ) {
            let line = &mut self.lines[slot];
            assert_eq!(
                line.valid,
                victim.is_some(),
                "shadow: victim presence diverged"
            );
            if let Some(v) = victim {
                assert_eq!(line.dirty, v.dirty, "shadow: victim dirty diverged");
                assert_eq!(
                    line.prefetched && !line.touched,
                    v.untouched_prefetch,
                    "shadow: victim untouched-prefetch diverged"
                );
            }
            *line = Line {
                tag,
                valid: true,
                dirty,
                prefetched,
                touched: false,
                lru: clock,
                fifo: clock,
            };
        }

        pub(super) fn invalidate(&mut self, slot: usize) {
            self.lines[slot].valid = false;
        }

        pub(super) fn reset(&mut self) {
            for line in &mut self.lines {
                line.valid = false;
                line.dirty = false;
                line.prefetched = false;
                line.touched = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(assoc: u32) -> CacheArray {
        CacheArray::new(CacheConfig {
            name: "tiny".into(),
            size_bytes: 256,
            assoc,
            line_bytes: 32,
            ports: 1,
            mshr_entries: 1,
            mshr_reads_per_entry: 1,
            latency: 1,
            write_policy: microlib_model::WritePolicy::Writeback,
            alloc_policy: microlib_model::AllocPolicy::AllocateOnWrite,
            replacement: Replacement::Lru,
        })
        .unwrap()
    }

    #[test]
    fn index_round_trip() {
        let c = CacheArray::new(CacheConfig::baseline_l1d()).unwrap();
        for addr in [0u64, 0x1234, 0xFFFF_FFC0, 0xABCD_EF00] {
            let a = Addr::new(addr);
            let (set, tag) = c.index_of(a);
            assert_eq!(c.address_of(set, tag), a.line(32));
        }
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny(2);
        let a = Addr::new(0x40);
        assert!(c.lookup(a).is_none());
        assert!(c.fill(a, LineData::zeroed(4), false, false).is_none());
        assert!(c.lookup(a).is_some());
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2); // 4 sets × 2 ways, 32B lines
                             // Three lines mapping to set 0: addresses 0, 128, 256 (set = (a>>5)&3).
        let (a, b, d) = (Addr::new(0), Addr::new(128), Addr::new(256));
        c.fill(a, LineData::zeroed(4), false, false);
        c.fill(b, LineData::zeroed(4), false, false);
        c.lookup(a); // a most recent; b is LRU
        let victim = c.fill(d, LineData::zeroed(4), false, false).unwrap();
        assert_eq!(victim.line, b);
        assert!(c.contains(a) && c.contains(d) && !c.contains(b));
    }

    #[test]
    fn fifo_ignores_recency() {
        let c = tiny(2);
        let mut cfg = c.config().clone();
        cfg.replacement = Replacement::Fifo;
        let mut c2 = CacheArray::new(cfg).unwrap();
        let (a, b, d) = (Addr::new(0), Addr::new(128), Addr::new(256));
        for x in [a, b] {
            c2.fill(x, LineData::zeroed(4), false, false);
        }
        c2.lookup(a); // recency must not matter
        let victim = c2.fill(d, LineData::zeroed(4), false, false).unwrap();
        assert_eq!(victim.line, a);
        drop(c);
    }

    #[test]
    fn dirty_data_travels_with_victim() {
        let mut c = tiny(1); // direct-mapped: 8 sets
        let a = Addr::new(0x40);
        c.fill(a, LineData::from_words(&[1, 2, 3, 4]), false, false);
        assert!(c.write_word(Addr::new(0x48), 99));
        let conflicting = Addr::new(0x40 + 256); // same set
        let victim = c
            .fill(conflicting, LineData::zeroed(4), false, false)
            .unwrap();
        assert!(victim.dirty);
        assert_eq!(victim.data.word(1), 99);
        assert_eq!(victim.line, a);
    }

    #[test]
    fn prefetch_touch_tracking() {
        let mut c = tiny(2);
        let a = Addr::new(0x40);
        c.fill(a, LineData::zeroed(4), false, true);
        assert!(c.is_untouched_prefetch(a));
        let hit = c.lookup(a).unwrap();
        assert!(hit.first_touch_of_prefetch);
        assert!(!c.is_untouched_prefetch(a));
        let hit2 = c.lookup(a).unwrap();
        assert!(!hit2.first_touch_of_prefetch);
    }

    #[test]
    fn invalidate_returns_victim() {
        let mut c = tiny(2);
        let a = Addr::new(0x60); // unaligned within line
        c.fill(a, LineData::zeroed(4), true, false);
        let v = c.invalidate(Addr::new(0x64)).unwrap();
        assert_eq!(v.line, Addr::new(0x60));
        assert!(v.dirty);
        assert!(!c.contains(a));
        assert!(c.invalidate(a).is_none());
    }

    #[test]
    fn word_read_write() {
        let mut c = tiny(2);
        let base = Addr::new(0x80);
        c.fill(base, LineData::from_words(&[10, 11, 12, 13]), false, false);
        assert_eq!(c.read_word(Addr::new(0x88)), Some(11));
        assert!(c.write_word(Addr::new(0x90), 77));
        assert_eq!(c.read_word(Addr::new(0x90)), Some(77));
        assert_eq!(c.read_word(Addr::new(0x200)), None);
        assert!(!c.write_word(Addr::new(0x200), 1));
    }

    #[test]
    fn resident_lines_enumerates() {
        let mut c = tiny(2);
        c.fill(Addr::new(0x40), LineData::zeroed(4), false, false);
        c.fill(Addr::new(0x80), LineData::zeroed(4), false, false);
        let mut lines: Vec<u64> = c.resident_lines().map(Addr::raw).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![0x40, 0x80]);
    }

    #[test]
    fn random_replacement_stays_in_set() {
        let mut cfg = CacheConfig::baseline_l1d();
        cfg.assoc = 4;
        cfg.replacement = Replacement::Random;
        cfg.size_bytes = 512; // 4 sets × 4 ways
        let mut c = CacheArray::new(cfg).unwrap();
        // Fill set 0 beyond capacity; all fills map to set 0.
        for i in 0..16u64 {
            c.fill(Addr::new(i * 128), LineData::zeroed(4), false, false);
        }
        assert_eq!(c.occupancy(), 4);
    }

    #[test]
    fn packed_meta_round_trips_through_codec() {
        let mut c = tiny(2);
        c.fill(
            Addr::new(0x40),
            LineData::from_words(&[7, 8, 9, 10]),
            false,
            true,
        );
        c.fill(Addr::new(0x80), LineData::zeroed(4), true, false);
        c.lookup(Addr::new(0x40)); // touch the prefetched line
        let mut e = Encoder::new();
        c.encode_state(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let restored = CacheArray::decode_state(c.config().clone(), &mut d).unwrap();
        // Restored array must re-encode to the same bytes (canonical codec)
        // and agree on every behavioral probe.
        let mut e2 = Encoder::new();
        restored.encode_state(&mut e2);
        assert_eq!(bytes, e2.into_bytes());
        assert!(!restored.is_untouched_prefetch(Addr::new(0x40)));
        assert_eq!(restored.read_word(Addr::new(0x48)), Some(8));
        assert_eq!(restored.occupancy(), 2);
    }

    #[test]
    fn warm_slot_hit_revalidates() {
        let mut c = tiny(2);
        let a = Addr::new(0x40);
        c.fill(a, LineData::zeroed(4), false, false);
        let (_, slot) = c.lookup_slot(a).unwrap();
        assert!(c.warm_slot_hit(slot, a));
        assert!(c.warm_slot_hit(slot, Addr::new(0x48))); // same line
        assert!(!c.warm_slot_hit(slot, Addr::new(0x140))); // other line, same set
        c.invalidate(a);
        assert!(!c.warm_slot_hit(slot, a));
        // An untouched fill must not satisfy the fast-path precondition.
        c.fill(a, LineData::zeroed(4), false, false);
        let slot2 = (0..2).find(|_| true).unwrap(); // way index unknown; probe both
        let _ = slot2;
        assert!(!(0..c.meta.len()).any(|s| c.warm_slot_hit(s, a)));
    }
}
