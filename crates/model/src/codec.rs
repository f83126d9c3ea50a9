//! A small, std-only binary codec for persisting simulation artifacts.
//!
//! The on-disk artifact cache (`microlib`'s `ArtifactStore` disk tier)
//! needs to serialize result memos, sampling plans and warm-state
//! checkpoints without pulling in serde — the build environment is
//! offline, so everything here is hand-rolled and deliberately boring:
//!
//! - fixed-width **little-endian** integers ([`Encoder::put_u64`] and
//!   friends), `f64` via [`f64::to_bits`] (bit-exact round trips, the
//!   byte-identical-results requirement);
//! - length-prefixed strings and sequences;
//! - a [`BinCodec`] trait implemented by every persisted type, composing
//!   structurally (a struct encodes its fields in declaration order);
//! - an [`fnv1a`] checksum helper for the container format.
//!
//! Decoding never panics and never trusts its input: every read is
//! bounds-checked and returns a [`CodecError`] on truncated or
//! nonsensical bytes, so a corrupt cache entry degrades to a cache miss,
//! not a crash. Encoded byte streams are deterministic functions of the
//! value (collections are encoded in a canonical order by their owners).
//!
//! The container framing (magic, format version, checksum placement)
//! lives with the disk tier, not here; this module is only the value
//! encoding.

use std::fmt;

/// Why a decode failed. All variants mean the same thing to a cache: the
/// entry is unusable and must be recomputed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// The input ended before the value did.
    Truncated,
    /// The container magic did not match.
    BadMagic,
    /// The container was written by a different format version.
    BadVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// The container checksum did not match its contents.
    BadChecksum,
    /// The bytes decoded but described an impossible value.
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("truncated input"),
            CodecError::BadMagic => f.write_str("bad magic"),
            CodecError::BadVersion { found, expected } => {
                write!(f, "format version {found} (expected {expected})")
            }
            CodecError::BadChecksum => f.write_str("checksum mismatch"),
            CodecError::Invalid(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// 64-bit FNV-1a over `bytes` — the checksum of cache containers. Not
/// cryptographic; it only needs to catch truncation and bit rot.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// An append-only byte sink with typed writers.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, returning its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a bool as one byte (`0`/`1`).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// A bounds-checked cursor over encoded bytes.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if the input is exhausted.
    pub fn take_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if the input is exhausted.
    pub fn take_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if the input is exhausted.
    pub fn take_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `usize` (stored as `u64`; rejects values that do not fit).
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] on exhausted input,
    /// [`CodecError::Invalid`] if the value overflows `usize`.
    pub fn take_usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.take_u64()?).map_err(|_| CodecError::Invalid("usize overflow"))
    }

    /// Reads a bool (one byte; anything but `0`/`1` is invalid).
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] on exhausted input,
    /// [`CodecError::Invalid`] on a byte that is not `0` or `1`.
    pub fn take_bool(&mut self) -> Result<bool, CodecError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool byte")),
        }
    }

    /// Reads an `f64` from its bit pattern.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if the input is exhausted.
    pub fn take_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a length-prefixed byte slice.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if the prefix or payload is cut short.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.take_usize()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] on short input, [`CodecError::Invalid`]
    /// on non-UTF-8 bytes.
    pub fn take_str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.take_bytes()?).map_err(|_| CodecError::Invalid("utf-8"))
    }

    /// Asserts the input was fully consumed (trailing garbage is how a
    /// wrong-length container manifests).
    ///
    /// # Errors
    ///
    /// [`CodecError::Invalid`] if bytes remain.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Invalid("trailing bytes"))
        }
    }
}

/// A value with a canonical binary encoding. Implementations come in
/// pairs that must round-trip exactly: `decode(encode(v)) == v`.
pub trait BinCodec: Sized {
    /// Appends the value's canonical encoding to `e`.
    fn encode(&self, e: &mut Encoder);

    /// Reads one value from `d`.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] from the underlying reads; implementations must
    /// reject impossible values rather than construct them.
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError>;
}

impl BinCodec for u64 {
    fn encode(&self, e: &mut Encoder) {
        e.put_u64(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        d.take_u64()
    }
}

impl BinCodec for f64 {
    fn encode(&self, e: &mut Encoder) {
        e.put_f64(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        d.take_f64()
    }
}

impl BinCodec for bool {
    fn encode(&self, e: &mut Encoder) {
        e.put_bool(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        d.take_bool()
    }
}

impl BinCodec for usize {
    fn encode(&self, e: &mut Encoder) {
        e.put_usize(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        d.take_usize()
    }
}

impl BinCodec for String {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(d.take_str()?.to_owned())
    }
}

impl<T: BinCodec> BinCodec for Option<T> {
    fn encode(&self, e: &mut Encoder) {
        match self {
            None => e.put_u8(0),
            Some(v) => {
                e.put_u8(1);
                v.encode(e);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(d)?)),
            _ => Err(CodecError::Invalid("option tag")),
        }
    }
}

impl<T: BinCodec> BinCodec for Vec<T> {
    fn encode(&self, e: &mut Encoder) {
        e.put_usize(self.len());
        for v in self {
            v.encode(e);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let len = d.take_usize()?;
        // A corrupt length prefix must not preallocate gigabytes; grow as
        // decoding actually succeeds.
        let mut out = Vec::with_capacity(len.min(1_024));
        for _ in 0..len {
            out.push(T::decode(d)?);
        }
        Ok(out)
    }
}

// --- model value types ----------------------------------------------------

use crate::event::{AccessEvent, AccessOutcome, EvictEvent, RefillCause, RefillEvent};
use crate::mechanism::{HardwareBudget, SramTable};
use crate::stats::{SampledPoint, SamplingEstimate};
use crate::types::{AccessKind, Addr, AttachPoint, Cycle, LineData};

impl BinCodec for Addr {
    fn encode(&self, e: &mut Encoder) {
        e.put_u64(self.raw());
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Addr::new(d.take_u64()?))
    }
}

impl BinCodec for Cycle {
    fn encode(&self, e: &mut Encoder) {
        e.put_u64(self.raw());
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Cycle::new(d.take_u64()?))
    }
}

impl BinCodec for AccessKind {
    fn encode(&self, e: &mut Encoder) {
        e.put_u8(match self {
            AccessKind::Load => 0,
            AccessKind::Store => 1,
        });
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.take_u8()? {
            0 => Ok(AccessKind::Load),
            1 => Ok(AccessKind::Store),
            _ => Err(CodecError::Invalid("access kind")),
        }
    }
}

impl BinCodec for AttachPoint {
    fn encode(&self, e: &mut Encoder) {
        e.put_u8(match self {
            AttachPoint::L1Data => 0,
            AttachPoint::L2Unified => 1,
        });
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.take_u8()? {
            0 => Ok(AttachPoint::L1Data),
            1 => Ok(AttachPoint::L2Unified),
            _ => Err(CodecError::Invalid("attach point")),
        }
    }
}

impl BinCodec for AccessOutcome {
    fn encode(&self, e: &mut Encoder) {
        e.put_u8(match self {
            AccessOutcome::Hit => 0,
            AccessOutcome::Miss => 1,
            AccessOutcome::SidecarHit => 2,
        });
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.take_u8()? {
            0 => Ok(AccessOutcome::Hit),
            1 => Ok(AccessOutcome::Miss),
            2 => Ok(AccessOutcome::SidecarHit),
            _ => Err(CodecError::Invalid("access outcome")),
        }
    }
}

impl BinCodec for RefillCause {
    fn encode(&self, e: &mut Encoder) {
        e.put_u8(match self {
            RefillCause::Demand => 0,
            RefillCause::Prefetch => 1,
            RefillCause::WritebackFromAbove => 2,
        });
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.take_u8()? {
            0 => Ok(RefillCause::Demand),
            1 => Ok(RefillCause::Prefetch),
            2 => Ok(RefillCause::WritebackFromAbove),
            _ => Err(CodecError::Invalid("refill cause")),
        }
    }
}

impl BinCodec for LineData {
    fn encode(&self, e: &mut Encoder) {
        let words = self.words();
        e.put_u8(words.len() as u8);
        for w in words {
            e.put_u64(*w);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let len = d.take_u8()? as usize;
        if len > LineData::MAX_WORDS {
            return Err(CodecError::Invalid("line length"));
        }
        let mut words = [0u64; LineData::MAX_WORDS];
        for w in words.iter_mut().take(len) {
            *w = d.take_u64()?;
        }
        Ok(LineData::from_words(&words[..len]))
    }
}

impl BinCodec for AccessEvent {
    fn encode(&self, e: &mut Encoder) {
        self.now.encode(e);
        self.pc.encode(e);
        self.addr.encode(e);
        self.line.encode(e);
        self.kind.encode(e);
        self.outcome.encode(e);
        e.put_bool(self.first_touch_of_prefetch);
        self.value.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(AccessEvent {
            now: Cycle::decode(d)?,
            pc: Addr::decode(d)?,
            addr: Addr::decode(d)?,
            line: Addr::decode(d)?,
            kind: AccessKind::decode(d)?,
            outcome: AccessOutcome::decode(d)?,
            first_touch_of_prefetch: d.take_bool()?,
            value: Option::decode(d)?,
        })
    }
}

impl BinCodec for EvictEvent {
    fn encode(&self, e: &mut Encoder) {
        self.now.encode(e);
        self.line.encode(e);
        e.put_bool(self.dirty);
        self.data.encode(e);
        e.put_bool(self.untouched_prefetch);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(EvictEvent {
            now: Cycle::decode(d)?,
            line: Addr::decode(d)?,
            dirty: d.take_bool()?,
            data: LineData::decode(d)?,
            untouched_prefetch: d.take_bool()?,
        })
    }
}

impl BinCodec for RefillEvent {
    fn encode(&self, e: &mut Encoder) {
        self.now.encode(e);
        self.line.encode(e);
        self.data.encode(e);
        self.cause.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(RefillEvent {
            now: Cycle::decode(d)?,
            line: Addr::decode(d)?,
            data: LineData::decode(d)?,
            cause: RefillCause::decode(d)?,
        })
    }
}

impl BinCodec for SampledPoint {
    fn encode(&self, e: &mut Encoder) {
        e.put_usize(self.interval);
        e.put_f64(self.weight);
        e.put_f64(self.cpi);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(SampledPoint {
            interval: d.take_usize()?,
            weight: d.take_f64()?,
            cpi: d.take_f64()?,
        })
    }
}

impl BinCodec for SamplingEstimate {
    fn encode(&self, e: &mut Encoder) {
        self.points.encode(e);
        e.put_f64(self.cpi);
        e.put_f64(self.cpi_error_bound);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(SamplingEstimate {
            points: Vec::decode(d)?,
            cpi: d.take_f64()?,
            cpi_error_bound: d.take_f64()?,
        })
    }
}

impl BinCodec for SramTable {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(&self.name);
        e.put_u64(self.entries);
        e.put_u64(self.entry_bits);
        e.put_u32(self.assoc);
        e.put_u32(self.ports);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(SramTable {
            name: d.take_str()?.to_owned(),
            entries: d.take_u64()?,
            entry_bits: d.take_u64()?,
            assoc: d.take_u32()?,
            ports: d.take_u32()?,
        })
    }
}

impl BinCodec for HardwareBudget {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(&self.mechanism);
        self.tables.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(HardwareBudget {
            mechanism: d.take_str()?.to_owned(),
            tables: Vec::decode(d)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{CacheStats, PerfSummary};

    fn round_trip<T: BinCodec + PartialEq + std::fmt::Debug>(v: T) {
        let mut e = Encoder::new();
        v.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(T::decode(&mut d).unwrap(), v);
        d.finish().unwrap();
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u64);
        round_trip(u64::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(-0.0f64);
        round_trip(f64::NAN.to_bits()); // bit pattern survives as u64
        round_trip(String::from("swim|Ghb|seed=0xc0ffee"));
        round_trip(Some(42u64));
        round_trip(Option::<u64>::None);
        round_trip(vec![1u64, 2, 3]);
    }

    #[test]
    fn value_types_round_trip() {
        round_trip(Addr::new(0x1234_5678));
        round_trip(Cycle::new(99));
        round_trip(AccessKind::Store);
        round_trip(AttachPoint::L2Unified);
        round_trip(AccessOutcome::SidecarHit);
        round_trip(RefillCause::WritebackFromAbove);
        round_trip(LineData::from_words(&[1, 2, 3, 4]));
        round_trip(LineData::zeroed(8));
        round_trip(CacheStats {
            loads: 1,
            stores: 2,
            misses: 3,
            ..CacheStats::default()
        });
        round_trip(PerfSummary {
            instructions: 100_000,
            cycles: 173_912,
        });
        round_trip(SamplingEstimate::from_points(vec![
            SampledPoint {
                interval: 1,
                weight: 0.5,
                cpi: 1.25,
            },
            SampledPoint {
                interval: 6,
                weight: 0.5,
                cpi: 3.5,
            },
        ]));
        round_trip(HardwareBudget::with_tables(
            "ghb",
            vec![SramTable::new("history buffer", 256, 64, 0)],
        ));
    }

    /// Events don't derive `PartialEq`; a decode → re-encode byte
    /// comparison proves the round trip instead (the encoding is
    /// canonical).
    fn round_trip_bytes<T: BinCodec>(v: T) {
        let mut e = Encoder::new();
        v.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let back = T::decode(&mut d).unwrap();
        d.finish().unwrap();
        let mut e2 = Encoder::new();
        back.encode(&mut e2);
        assert_eq!(e2.into_bytes(), bytes);
    }

    #[test]
    fn events_round_trip() {
        round_trip_bytes(AccessEvent {
            now: Cycle::new(10),
            pc: Addr::new(0x40_0000),
            addr: Addr::new(0x1008),
            line: Addr::new(0x1000),
            kind: AccessKind::Load,
            outcome: AccessOutcome::Miss,
            first_touch_of_prefetch: false,
            value: Some(7),
        });
        round_trip_bytes(EvictEvent {
            now: Cycle::new(11),
            line: Addr::new(0x2000),
            dirty: true,
            data: LineData::from_words(&[9, 9, 9, 9]),
            untouched_prefetch: false,
        });
        round_trip_bytes(RefillEvent {
            now: Cycle::new(12),
            line: Addr::new(0x3000),
            data: LineData::zeroed(4),
            cause: RefillCause::Prefetch,
        });
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let mut e = Encoder::new();
        PerfSummary {
            instructions: 5,
            cycles: 9,
        }
        .encode(&mut e);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..cut]);
            assert_eq!(
                PerfSummary::decode(&mut d).unwrap_err(),
                CodecError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn invalid_tags_are_rejected() {
        let mut d = Decoder::new(&[9]);
        assert!(matches!(
            AccessKind::decode(&mut d),
            Err(CodecError::Invalid(_))
        ));
        let mut d = Decoder::new(&[2]);
        assert!(matches!(
            Option::<u64>::decode(&mut d),
            Err(CodecError::Invalid(_))
        ));
        // A line longer than MAX_WORDS never decodes.
        let mut d = Decoder::new(&[9, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(matches!(
            LineData::decode(&mut d),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn corrupt_length_prefix_does_not_allocate() {
        // A Vec claiming u64::MAX elements must fail on the first element,
        // not try to reserve the capacity up front.
        let mut e = Encoder::new();
        e.put_u64(u64::MAX);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(Vec::<u64>::decode(&mut d).is_err());
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut d = Decoder::new(&[1, 2]);
        d.take_u8().unwrap();
        assert!(d.finish().is_err());
        d.take_u8().unwrap();
        d.finish().unwrap();
    }
}
