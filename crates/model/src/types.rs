//! Fundamental value types shared by every MicroLib component.
//!
//! Everything here is a small `Copy` newtype ([`Addr`], [`Cycle`]) or a plain
//! enum; the newtypes exist so that byte addresses, line-aligned addresses
//! and cycle counts cannot be confused (C-NEWTYPE).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A byte address in the simulated 64-bit address space.
///
/// # Examples
///
/// ```
/// use microlib_model::Addr;
///
/// let a = Addr::new(0x1234);
/// assert_eq!(a.line(64), Addr::new(0x1200));
/// assert_eq!(a.offset_in_line(64), 0x34);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// The null address. Loads from it are legal in the simulated machine
    /// (it reads as zero) but workloads use it as an end-of-list marker.
    pub const NULL: Addr = Addr(0);

    /// Creates an address from a raw 64-bit value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw 64-bit value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the address of the first byte of the cache line containing
    /// `self`, for a line of `line_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `line_bytes` is not a power of two.
    #[inline]
    pub fn line(self, line_bytes: u64) -> Addr {
        debug_assert!(line_bytes.is_power_of_two());
        Addr(self.0 & !(line_bytes - 1))
    }

    /// Returns the byte offset of `self` within its cache line.
    #[inline]
    pub fn offset_in_line(self, line_bytes: u64) -> u64 {
        debug_assert!(line_bytes.is_power_of_two());
        self.0 & (line_bytes - 1)
    }

    /// Returns the 64-bit-word index of this address (i.e. `raw / 8`).
    #[inline]
    pub fn word_index(self) -> u64 {
        self.0 >> 3
    }

    /// Returns `self + bytes`, wrapping on overflow (the simulated address
    /// space is a flat 64-bit ring).
    #[inline]
    pub fn offset(self, bytes: i64) -> Addr {
        Addr(self.0.wrapping_add(bytes as u64))
    }

    /// Whether this is the null address.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> Self {
        a.0
    }
}

/// A point in simulated time, measured in CPU cycles (2 GHz in the baseline
/// configuration; every component's timing is expressed in CPU cycles).
///
/// # Examples
///
/// ```
/// use microlib_model::Cycle;
///
/// let t = Cycle::new(100);
/// assert_eq!(t + 12, Cycle::new(112));
/// assert_eq!((t + 12) - t, 12);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Cycle(u64);

impl Cycle {
    /// Time zero.
    pub const ZERO: Cycle = Cycle(0);
    /// The greatest representable time; used as "never".
    pub const NEVER: Cycle = Cycle(u64::MAX);

    /// Creates a cycle count.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Cycle(raw)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Saturating subtraction: `self - earlier`, or 0 if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

/// Whether a memory access reads or writes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A data load.
    Load,
    /// A data store.
    Store,
}

impl AccessKind {
    /// Whether this is a store.
    #[inline]
    pub fn is_store(self) -> bool {
        matches!(self, AccessKind::Store)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Load => f.write_str("load"),
            AccessKind::Store => f.write_str("store"),
        }
    }
}

/// The data contents of one cache line, as 64-bit words.
///
/// Lines in the baseline hierarchy are 32 bytes (L1) or 64 bytes (L2), so the
/// backing store holds up to eight words and remembers how many are valid.
///
/// # Examples
///
/// ```
/// use microlib_model::LineData;
///
/// let mut line = LineData::zeroed(4);
/// line.set_word(1, 0xdead_beef);
/// assert_eq!(line.words()[1], 0xdead_beef);
/// assert_eq!(line.byte_len(), 32);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct LineData {
    words: [u64; LineData::MAX_WORDS],
    len: u8,
}

impl LineData {
    /// Maximum number of 64-bit words a line can hold (64-byte L2 lines).
    pub const MAX_WORDS: usize = 8;

    /// Creates an all-zero line of `words` 64-bit words.
    ///
    /// # Panics
    ///
    /// Panics if `words` exceeds [`LineData::MAX_WORDS`].
    pub fn zeroed(words: usize) -> Self {
        assert!(
            words <= Self::MAX_WORDS,
            "line of {words} words is too large"
        );
        LineData {
            words: [0; Self::MAX_WORDS],
            len: words as u8,
        }
    }

    /// Creates a line from a word slice.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` exceeds [`LineData::MAX_WORDS`].
    pub fn from_words(words: &[u64]) -> Self {
        let mut line = Self::zeroed(words.len());
        line.words[..words.len()].copy_from_slice(words);
        line
    }

    /// The valid words of the line.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words[..self.len as usize]
    }

    /// Size of the line in bytes.
    #[inline]
    pub fn byte_len(&self) -> u64 {
        (self.len as u64) * 8
    }

    /// Overwrites word `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn set_word(&mut self, index: usize, value: u64) {
        assert!(
            index < self.len as usize,
            "word index {index} out of bounds"
        );
        self.words[index] = value;
    }

    /// Reads word `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn word(&self, index: usize) -> u64 {
        assert!(
            index < self.len as usize,
            "word index {index} out of bounds"
        );
        self.words[index]
    }
}

/// Cache level at which a mechanism attaches (Table 2's "(L1)"/"(L2)").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AttachPoint {
    /// The L1 data cache.
    L1Data,
    /// The unified L2 cache.
    L2Unified,
}

impl fmt::Display for AttachPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttachPoint::L1Data => f.write_str("L1 data cache"),
            AttachPoint::L2Unified => f.write_str("unified L2 cache"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_line_alignment() {
        let a = Addr::new(0x12345);
        assert_eq!(a.line(32).raw(), 0x12340);
        assert_eq!(a.line(64).raw(), 0x12340);
        assert_eq!(Addr::new(0x12380).line(64).raw(), 0x12380);
        assert_eq!(a.offset_in_line(32), 5);
    }

    #[test]
    fn addr_offset_wraps() {
        assert_eq!(Addr::new(10).offset(-4).raw(), 6);
        assert_eq!(Addr::new(0).offset(-1).raw(), u64::MAX);
    }

    #[test]
    fn addr_word_index() {
        assert_eq!(Addr::new(0).word_index(), 0);
        assert_eq!(Addr::new(7).word_index(), 0);
        assert_eq!(Addr::new(8).word_index(), 1);
    }

    #[test]
    fn cycle_arithmetic() {
        let t = Cycle::new(5);
        assert_eq!((t + 7).raw(), 12);
        assert_eq!((t + 7) - t, 7);
        assert_eq!(t.since(Cycle::new(9)), 0);
        assert_eq!(Cycle::new(9).since(t), 4);
    }

    #[test]
    fn line_data_round_trip() {
        let mut line = LineData::zeroed(8);
        for i in 0..8 {
            line.set_word(i, i as u64 * 3);
        }
        assert_eq!(line.word(5), 15);
        assert_eq!(line.words().len(), 8);
        assert_eq!(line.byte_len(), 64);
        let copy = LineData::from_words(line.words());
        assert_eq!(copy, line);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn line_data_bounds_checked() {
        let line = LineData::zeroed(4);
        line.word(4);
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert!(!format!("{}", Addr::new(0)).is_empty());
        assert!(!format!("{:?}", Addr::new(0)).is_empty());
        assert!(!format!("{}", Cycle::ZERO).is_empty());
        assert!(!format!("{}", AccessKind::Load).is_empty());
        assert!(!format!("{}", AttachPoint::L1Data).is_empty());
    }
}
