//! Sparse, value-carrying memories.
//!
//! The paper validates cache models by plugging them into OoOSysC, a
//! processor model that "actually perform[s] all computations", so that "the
//! cache not only contains the addresses but the actual values of the data".
//! This module provides that capability: a [`SparseMemory`] is a sparse
//! 64-bit-word store, and a [`FunctionalMemory`] keeps *two* of them —
//!
//! - the **architectural** image, updated the moment a store executes
//!   (ground truth, what a correct machine would contain), and
//! - the **DRAM** image, updated only by cache writebacks (what the
//!   simulated memory chips contain).
//!
//! Cache fills read the DRAM image; an integrity checker compares every
//! loaded value against the architectural image. A model bug such as a
//! forgotten dirty bit (the paper's §2.2 anecdote) makes the two diverge and
//! is caught immediately.

use microlib_model::{Addr, BinCodec, CodecError, Decoder, Encoder, LineData};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

const PAGE_WORDS: usize = 512; // 4 KB pages
const PAGE_SHIFT: u64 = 12;

/// Cheap multiply-and-shift hasher for the page maps: page indices are
/// small, low-entropy integers, and every simulated load/store pays one
/// lookup, so the default SipHash is measurable overhead. Not an exposed
/// collection — HashDoS hardening buys nothing here.
#[derive(Clone, Copy, Debug, Default)]
struct PageIndexHasher(u64);

impl std::hash::Hasher for PageIndexHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (FNV-1a); page keys take the `write_u64` path.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        // Fibonacci multiply + xor-shift spreads consecutive page indices
        // across the table.
        let h = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 29);
    }
}

type PageMap = HashMap<u64, Arc<[u64; PAGE_WORDS]>, std::hash::BuildHasherDefault<PageIndexHasher>>;

/// A sparse 64-bit-word memory over the full address space.
///
/// Unwritten words read as zero. Addresses are byte addresses; word accesses
/// use the containing aligned 8-byte word.
///
/// Pages are shared **copy-on-write**: cloning a memory (restoring a warm
/// checkpoint, stamping a workload's pre-built image into a fresh system)
/// only bumps per-page reference counts, and a page is physically copied
/// the first time a clone writes to it. Sampled campaigns restore
/// checkpoints once per slice per mechanism, so cheap clones matter.
///
/// # Examples
///
/// ```
/// use microlib_mem::SparseMemory;
/// use microlib_model::Addr;
///
/// let mut mem = SparseMemory::new();
/// mem.write_word(Addr::new(0x1000), 42);
/// assert_eq!(mem.read_word(Addr::new(0x1000)), 42);
/// assert_eq!(mem.read_word(Addr::new(0x2000)), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SparseMemory {
    pages: PageMap,
    /// [`content_digest`](Self::content_digest), memoized for an image
    /// that serves as a delta base again and again (a workload's initial
    /// image, see [`SparseMemory::memoize_digest`]). Clones share the
    /// memo; a write drops it, so a mutated copy digests afresh.
    digest: Option<Arc<OnceLock<u64>>>,
}

impl SparseMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        SparseMemory::default()
    }

    #[inline]
    fn split(addr: Addr) -> (u64, usize) {
        let page = addr.raw() >> PAGE_SHIFT;
        let word = ((addr.raw() >> 3) as usize) & (PAGE_WORDS - 1);
        (page, word)
    }

    /// Reads the aligned 64-bit word containing `addr`.
    pub fn read_word(&self, addr: Addr) -> u64 {
        let (page, word) = Self::split(addr);
        self.pages.get(&page).map_or(0, |p| p[word])
    }

    /// Writes the aligned 64-bit word containing `addr`.
    pub fn write_word(&mut self, addr: Addr, value: u64) {
        let (page, word) = Self::split(addr);
        if value == 0 && !self.pages.contains_key(&page) {
            return; // writing zero to an untouched page is a no-op
        }
        self.digest = None;
        let page = self
            .pages
            .entry(page)
            .or_insert_with(|| Arc::new([0; PAGE_WORDS]));
        // Copy-on-write: unshared pages mutate in place.
        Arc::make_mut(page)[word] = value;
    }

    /// Approximate resident heap footprint in bytes: materialized pages
    /// plus per-page map overhead. Copy-on-write pages shared with another
    /// image are counted here too — the estimate prices each map as if it
    /// owned its pages, which is the upper bound a cache-eviction policy
    /// wants.
    pub fn resident_bytes(&self) -> usize {
        self.pages.len() * (PAGE_WORDS * 8 + 2 * std::mem::size_of::<u64>())
    }

    /// Reads a whole line of `line_bytes` starting at the line containing
    /// `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes / 8` exceeds [`LineData::MAX_WORDS`].
    pub fn read_line(&self, addr: Addr, line_bytes: u64) -> LineData {
        let base = addr.line(line_bytes);
        let words = (line_bytes / 8) as usize;
        let mut line = LineData::zeroed(words);
        let (page, word0) = Self::split(base);
        if word0 + words <= PAGE_WORDS {
            // A line within one page (every aligned line whose size divides
            // the page size): one map lookup covers all its words; an
            // absent page reads as zeros.
            if let Some(p) = self.pages.get(&page) {
                for i in 0..words {
                    line.set_word(i, p[word0 + i]);
                }
            }
            return line;
        }
        for i in 0..words {
            line.set_word(i, self.read_word(base.offset((i * 8) as i64)));
        }
        line
    }

    /// Writes a whole line at the line-aligned address containing `addr`.
    pub fn write_line(&mut self, addr: Addr, data: &LineData) {
        let base = addr.line(data.byte_len());
        let words = data.words();
        let (page, word0) = Self::split(base);
        if word0 + words.len() <= PAGE_WORDS {
            // Single-page fast path (one lookup, not one per word). An
            // all-zero line onto an untouched page stays a no-op, matching
            // the per-word semantics.
            if !self.pages.contains_key(&page) && words.iter().all(|&w| w == 0) {
                return;
            }
            self.digest = None;
            let p = self
                .pages
                .entry(page)
                .or_insert_with(|| Arc::new([0; PAGE_WORDS]));
            let p = Arc::make_mut(p);
            p[word0..word0 + words.len()].copy_from_slice(words);
            return;
        }
        for (i, w) in words.iter().enumerate() {
            self.write_word(base.offset((i * 8) as i64), *w);
        }
    }

    /// Number of 4 KB pages materialized.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

impl SparseMemory {
    /// Encodes this memory as a **delta against `base`**: only pages
    /// absent from (or differing from) `base` are written, in ascending
    /// page-index order (the canonical form — HashMap iteration order
    /// would make byte streams nondeterministic). Decoding with the same
    /// base reconstructs the memory exactly.
    ///
    /// The intended base is a deterministically regenerable image (a
    /// workload's initial memory): a warmed memory shares most of its
    /// pages with it copy-on-write, so the `Arc::ptr_eq` fast path skips
    /// untouched pages without comparing contents, and the encoded size
    /// is proportional to the pages the warm phase actually touched.
    /// Pages are never *removed* by simulation (writes only materialize
    /// or mutate), so a delta plus the base always covers the full page
    /// set; the encoded resident-page count guards that invariant.
    pub(crate) fn encode_delta(&self, base: &SparseMemory, e: &mut Encoder) {
        let mut changed: Vec<u64> = self
            .pages
            .iter()
            .filter(|(idx, page)| match base.pages.get(idx) {
                Some(b) => !Arc::ptr_eq(page, b) && ***page != **b,
                None => true,
            })
            .map(|(idx, _)| *idx)
            .collect();
        changed.sort_unstable();
        e.put_u64(base.content_digest());
        e.put_usize(self.pages.len());
        e.put_usize(changed.len());
        for idx in changed {
            e.put_u64(idx);
            for word in self.pages[&idx].iter() {
                e.put_u64(*word);
            }
        }
    }

    /// Reconstructs a memory from `base` plus an encoded delta.
    pub(crate) fn decode_delta(
        base: &SparseMemory,
        d: &mut Decoder<'_>,
    ) -> Result<Self, CodecError> {
        if d.take_u64()? != base.content_digest() {
            // The caller's base diverged from the one the delta was
            // encoded against (different contents, not just a different
            // page set) — never trust the reconstruction.
            return Err(CodecError::Invalid("base image diverged"));
        }
        let total = d.take_usize()?;
        let changed = d.take_usize()?;
        let mut mem = base.clone();
        mem.digest = None;
        for _ in 0..changed {
            let idx = d.take_u64()?;
            let mut page = [0u64; PAGE_WORDS];
            for word in page.iter_mut() {
                *word = d.take_u64()?;
            }
            mem.pages.insert(idx, Arc::new(page));
        }
        if mem.pages.len() != total {
            // Pages are never removed by simulation, so a delta over the
            // matching base must land on exactly the encoded page count.
            return Err(CodecError::Invalid("page set diverged from base"));
        }
        Ok(mem)
    }

    /// Order-insensitive-input, order-sensitive-output FNV-1a digest of
    /// the full canonical content (pages walked in ascending index
    /// order). Pins a delta to the *exact* base it was encoded against:
    /// equal page counts with different words must not decode.
    fn content_digest(&self) -> u64 {
        match &self.digest {
            Some(memo) => *memo.get_or_init(|| self.digest_pages()),
            None => self.digest_pages(),
        }
    }

    /// Memoizes [`content_digest`](Self::content_digest) from here on:
    /// this memory and every clone taken before either side writes share
    /// one computation. Digesting a multi-megabyte image byte by byte
    /// costs tens of milliseconds, and every warm-state encode and decode
    /// digests its base.
    pub(crate) fn memoize_digest(&mut self) {
        self.digest = Some(Arc::default());
    }

    fn digest_pages(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn mix(mut h: u64, v: u64) -> u64 {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
            h
        }
        let mut idxs: Vec<u64> = self.pages.keys().copied().collect();
        idxs.sort_unstable();
        let mut h = OFFSET;
        for idx in idxs {
            h = mix(h, idx);
            for word in self.pages[&idx].iter() {
                h = mix(h, *word);
            }
        }
        h
    }
}

impl BinCodec for SparseMemory {
    /// The standalone encoding is the delta against an empty memory
    /// (i.e. every resident page).
    fn encode(&self, e: &mut Encoder) {
        self.encode_delta(&SparseMemory::new(), e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Self::decode_delta(&SparseMemory::new(), d)
    }
}

/// The dual architectural/DRAM memory described in the module docs.
///
/// # Examples
///
/// ```
/// use microlib_mem::FunctionalMemory;
/// use microlib_model::Addr;
///
/// let mut mem = FunctionalMemory::new();
/// let a = Addr::new(0x100);
/// mem.store_architectural(a, 7);      // the store executes
/// assert_eq!(mem.architectural(a), 7);
/// assert_eq!(mem.dram().read_word(a), 0); // not yet written back
/// ```
#[derive(Clone, Debug, Default)]
pub struct FunctionalMemory {
    arch: SparseMemory,
    dram: SparseMemory,
}

impl FunctionalMemory {
    /// Creates an empty functional memory.
    pub fn new() -> Self {
        FunctionalMemory::default()
    }

    /// A memory whose architectural and DRAM images both start as
    /// `image`, sharing its pages copy-on-write: the same contents as
    /// writing each of its words with
    /// [`initialize_word`](Self::initialize_word), at half the cost.
    pub fn from_image(image: SparseMemory) -> Self {
        FunctionalMemory {
            arch: image.clone(),
            dram: image,
        }
    }

    /// Memoizes both images' content digests, which every warm-state
    /// encode and decode against this image computes: this memory and its
    /// clones then digest each image once, until a write drops the memo
    /// of the copy written to. Call on an image that will be the base of
    /// many warm-state encodings, such as a workload's initial image.
    pub fn memoize_digests(&mut self) {
        self.arch.memoize_digest();
        self.dram.memoize_digest();
    }

    /// Records a store's architectural effect (ground truth).
    pub fn store_architectural(&mut self, addr: Addr, value: u64) {
        self.arch.write_word(addr, value);
    }

    /// Reads the architectural (ground-truth) value at `addr`.
    pub fn architectural(&self, addr: Addr) -> u64 {
        self.arch.read_word(addr)
    }

    /// Initializes both images at once — used by workload generators to lay
    /// out data structures (pointer chains, arrays) before simulation.
    pub fn initialize_word(&mut self, addr: Addr, value: u64) {
        self.arch.write_word(addr, value);
        self.dram.write_word(addr, value);
    }

    /// Approximate resident heap footprint in bytes (both images; see
    /// [`SparseMemory::resident_bytes`]).
    pub fn resident_bytes(&self) -> usize {
        self.arch.resident_bytes() + self.dram.resident_bytes()
    }

    /// The DRAM image (what fills read and writebacks write).
    pub fn dram(&self) -> &SparseMemory {
        &self.dram
    }

    /// Mutable access to the DRAM image.
    pub fn dram_mut(&mut self) -> &mut SparseMemory {
        &mut self.dram
    }

    /// Encodes both images as deltas against `base` (the warm-checkpoint
    /// persistence path; `base` is the workload's freshly initialized
    /// memory, where the architectural and DRAM images coincide).
    pub(crate) fn encode_state(&self, base: &FunctionalMemory, e: &mut Encoder) {
        self.arch.encode_delta(&base.arch, e);
        self.dram.encode_delta(&base.dram, e);
    }

    /// Decodes both images against the same `base` the state was encoded
    /// with.
    pub(crate) fn decode_state(
        base: &FunctionalMemory,
        d: &mut Decoder<'_>,
    ) -> Result<Self, CodecError> {
        Ok(FunctionalMemory {
            arch: SparseMemory::decode_delta(&base.arch, d)?,
            dram: SparseMemory::decode_delta(&base.dram, d)?,
        })
    }

    /// Verifies that `observed` (a value produced by the cache hierarchy for
    /// a load at `addr`) matches the architectural image.
    ///
    /// # Errors
    ///
    /// Returns an [`IntegrityError`] describing the divergence.
    pub fn check_load(&self, addr: Addr, observed: u64) -> Result<(), IntegrityError> {
        let expected = self.arch.read_word(addr);
        if expected == observed {
            Ok(())
        } else {
            Err(IntegrityError {
                addr,
                expected,
                observed,
            })
        }
    }
}

/// A loaded value diverged from the architectural memory image — the
/// simulated hierarchy lost or corrupted data (e.g. a dirty line was dropped
/// without writeback).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IntegrityError {
    /// Address of the divergent load.
    pub addr: Addr,
    /// Architecturally correct value.
    pub expected: u64,
    /// Value the hierarchy produced.
    pub observed: u64,
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "value integrity violation at {}: expected {:#x}, hierarchy returned {:#x}",
            self.addr, self.expected, self.observed
        )
    }
}

impl std::error::Error for IntegrityError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let mem = SparseMemory::new();
        assert_eq!(mem.read_word(Addr::new(0xdead_beef)), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn write_then_read() {
        let mut mem = SparseMemory::new();
        mem.write_word(Addr::new(0x1008), 99);
        assert_eq!(mem.read_word(Addr::new(0x1008)), 99);
        // Unaligned address reads the containing word.
        assert_eq!(mem.read_word(Addr::new(0x100b)), 99);
        assert_eq!(mem.resident_pages(), 1);
    }

    #[test]
    fn zero_writes_do_not_materialize_pages() {
        let mut mem = SparseMemory::new();
        mem.write_word(Addr::new(0x5000), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn line_round_trip() {
        let mut mem = SparseMemory::new();
        let base = Addr::new(0x2040);
        let line = LineData::from_words(&[1, 2, 3, 4]);
        mem.write_line(base, &line);
        assert_eq!(mem.read_line(base, 32), line);
        assert_eq!(mem.read_word(Addr::new(0x2048)), 2);
        // 64-byte view covers the 32-byte line plus zeros.
        let wide = mem.read_line(base, 64);
        assert_eq!(wide.word(0), 1);
        assert_eq!(wide.word(4), 0);
    }

    #[test]
    fn line_crossing_pages() {
        let mut mem = SparseMemory::new();
        let base = Addr::new(0xFE0); // last 32B of a 4 KB page
        mem.write_line(base, &LineData::from_words(&[7, 8, 9, 10]));
        assert_eq!(mem.read_word(Addr::new(0xFF8)), 10);
    }

    #[test]
    fn functional_memory_separates_images() {
        let mut mem = FunctionalMemory::new();
        let a = Addr::new(0x40);
        mem.initialize_word(a, 5);
        assert_eq!(mem.architectural(a), 5);
        assert_eq!(mem.dram().read_word(a), 5);
        mem.store_architectural(a, 6);
        assert_eq!(mem.architectural(a), 6);
        assert_eq!(mem.dram().read_word(a), 5, "DRAM unchanged until writeback");
        mem.dram_mut().write_word(a, 6);
        assert!(mem.check_load(a, 6).is_ok());
    }

    #[test]
    fn delta_codec_round_trips_and_skips_shared_pages() {
        let mut base = SparseMemory::new();
        for i in 0..8u64 {
            base.write_word(Addr::new(i * 0x1000), i + 1);
        }
        // A COW clone that touches two pages: one mutated, one new.
        let mut warmed = base.clone();
        warmed.write_word(Addr::new(0x2008), 99);
        warmed.write_word(Addr::new(0x9000), 7);

        let mut e = Encoder::new();
        warmed.encode_delta(&base, &mut e);
        let bytes = e.into_bytes();
        // 2 changed pages at ~4 KB each, not 9.
        assert!(bytes.len() < 3 * 4_096, "delta stores only touched pages");
        let mut d = Decoder::new(&bytes);
        let back = SparseMemory::decode_delta(&base, &mut d).unwrap();
        d.finish().unwrap();
        for i in 0..8u64 {
            assert_eq!(back.read_word(Addr::new(i * 0x1000)), i + 1);
        }
        assert_eq!(back.read_word(Addr::new(0x2008)), 99);
        assert_eq!(back.read_word(Addr::new(0x9000)), 7);
        assert_eq!(back.resident_pages(), warmed.resident_pages());

        // A diverged base is rejected, not silently mis-reconstructed.
        let mut wrong = base.clone();
        wrong.write_word(Addr::new(0xA000), 1);
        let mut d = Decoder::new(&bytes);
        assert!(SparseMemory::decode_delta(&wrong, &mut d).is_err());

        // Same page set, different contents: the digest — not the page
        // count — must catch this.
        let mut same_shape = base.clone();
        same_shape.write_word(Addr::new(0x0000), 42);
        assert_eq!(same_shape.resident_pages(), base.resident_pages());
        let mut d = Decoder::new(&bytes);
        assert!(SparseMemory::decode_delta(&same_shape, &mut d).is_err());
    }

    /// A memoized base digests like an unmemoized one, so encodings stay
    /// byte-identical; its clones share the memo, and a clone that
    /// diverges afterwards is still rejected.
    #[test]
    fn memoized_digest_still_rejects_a_diverged_base() {
        let mut plain = SparseMemory::new();
        for i in 0..8u64 {
            plain.write_word(Addr::new(i * 0x1000), i + 1);
        }
        let mut base = plain.clone();
        base.memoize_digest();
        let mut warmed = base.clone();
        warmed.write_word(Addr::new(0x2008), 99);
        let (mut e, mut e_plain) = (Encoder::new(), Encoder::new());
        warmed.encode_delta(&base, &mut e);
        warmed.encode_delta(&plain, &mut e_plain);
        let bytes = e.into_bytes();
        assert_eq!(bytes, e_plain.into_bytes(), "memo changed the encoding");

        let fresh = base.clone();
        let back = SparseMemory::decode_delta(&fresh, &mut Decoder::new(&bytes)).unwrap();
        assert_eq!(back.read_word(Addr::new(0x2008)), 99);

        let reject = |candidate: &SparseMemory| {
            let err = SparseMemory::decode_delta(candidate, &mut Decoder::new(&bytes)).unwrap_err();
            assert!(err.to_string().contains("base image diverged"), "{err}");
        };
        // Same page set, one word changed after the memo was filled.
        let mut mutated = base.clone();
        mutated.write_word(Addr::new(0x3000), 42);
        reject(&mutated);
        mutated.write_line(Addr::new(0x3000), &LineData::from_words(&[5, 0, 0, 0]));
        reject(&mutated);
        // A different image with its own memo.
        let mut other = SparseMemory::new();
        other.write_word(Addr::new(0x5000), 1);
        other.memoize_digest();
        reject(&other);
        // The memoized base itself is untouched by its clones' writes.
        assert!(SparseMemory::decode_delta(&base, &mut Decoder::new(&bytes)).is_ok());
    }

    #[test]
    fn standalone_codec_is_delta_against_empty() {
        let mut mem = SparseMemory::new();
        mem.write_word(Addr::new(0x40), 5);
        let mut e = Encoder::new();
        mem.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let back = SparseMemory::decode(&mut d).unwrap();
        assert_eq!(back.read_word(Addr::new(0x40)), 5);
        assert_eq!(back.resident_pages(), 1);
    }

    #[test]
    fn integrity_violation_detected() {
        let mut mem = FunctionalMemory::new();
        let a = Addr::new(0x80);
        mem.store_architectural(a, 0xAB);
        let err = mem.check_load(a, 0xCD).unwrap_err();
        assert_eq!(err.expected, 0xAB);
        assert_eq!(err.observed, 0xCD);
        assert!(err.to_string().contains("integrity"));
    }
}
