//! Events delivered from a cache to the mechanism attached to it, and the
//! bounded prefetch request queue through which mechanisms answer back.
//!
//! The event vocabulary is the heart of MicroLib's modularity argument: a
//! mechanism only observes the cache through these value types, so any
//! mechanism can be plugged into any conforming cache model.

use crate::types::{AccessKind, Addr, Cycle, LineData};
#[cfg(doc)]
use crate::Mechanism;

/// Why an access was (or was not) satisfied by the cache.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessOutcome {
    /// The line was present in the cache proper.
    Hit,
    /// The line was absent; a fill from the next level is required.
    Miss,
    /// The line was absent from the cache but supplied by the mechanism's
    /// sidecar storage (victim cache, frequent-value cache, prefetch buffer).
    SidecarHit,
}

impl AccessOutcome {
    /// Whether the demand access found its data without going down a level.
    #[inline]
    pub fn is_satisfied(self) -> bool {
        !matches!(self, AccessOutcome::Miss)
    }
}

/// A demand access observed by the cache, delivered to
/// [`Mechanism::on_access`](crate::Mechanism::on_access()).
#[derive(Clone, Copy, Debug)]
pub struct AccessEvent {
    /// Current simulated time.
    pub now: Cycle,
    /// Program counter of the load/store instruction.
    pub pc: Addr,
    /// Full byte address accessed.
    pub addr: Addr,
    /// Line-aligned address (alignment of the observing cache).
    pub line: Addr,
    /// Load or store.
    pub kind: AccessKind,
    /// Hit, miss, or sidecar hit.
    pub outcome: AccessOutcome,
    /// Whether the line hit was brought in by a prefetch and this is the
    /// first demand touch (tagged prefetching's trigger).
    pub first_touch_of_prefetch: bool,
    /// The 64-bit word at `addr` — loaded value for loads, stored value for
    /// stores. `None` when the observing cache level does not carry data
    /// (never the case in this library, but kept for wrapper models).
    pub value: Option<u64>,
}

/// A line leaving the cache, delivered to
/// [`Mechanism::on_evict`](crate::Mechanism::on_evict()).
#[derive(Clone, Copy, Debug)]
pub struct EvictEvent {
    /// Current simulated time.
    pub now: Cycle,
    /// Line-aligned address of the victim.
    pub line: Addr,
    /// Whether the victim was dirty (and is being written back).
    pub dirty: bool,
    /// The victim's data.
    pub data: LineData,
    /// Whether the victim had been brought in by a prefetch and never
    /// demand-touched (a useless prefetch).
    pub untouched_prefetch: bool,
}

/// What a mechanism did with an evicted line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VictimAction {
    /// The mechanism declined the victim; it proceeds down the hierarchy
    /// (writeback if dirty) as usual.
    Dropped,
    /// The mechanism captured the victim into its sidecar storage and now
    /// owns the only in-cache copy. Dirty data remains the mechanism's
    /// responsibility until it is re-probed or re-evicted from the sidecar.
    Captured,
}

/// Why a line is being filled into the cache.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RefillCause {
    /// A demand miss fill.
    Demand,
    /// A prefetch issued by the attached mechanism.
    Prefetch,
    /// A writeback arriving from the level above (L2 only).
    WritebackFromAbove,
}

/// A line entering the cache, delivered to
/// [`Mechanism::on_refill`](crate::Mechanism::on_refill()).
///
/// Carries the actual data words of the line, which is how content-directed
/// prefetching inspects fetched lines for pointers.
#[derive(Clone, Copy, Debug)]
pub struct RefillEvent {
    /// Current simulated time.
    pub now: Cycle,
    /// Line-aligned address being filled.
    pub line: Addr,
    /// The line's data words.
    pub data: LineData,
    /// Why the fill happened.
    pub cause: RefillCause,
}

/// A sidecar lookup answer: the mechanism holds the requested line and
/// surrenders it to the cache (victim-cache swap semantics).
#[derive(Clone, Copy, Debug)]
pub struct ProbeResult {
    /// The line's data.
    pub data: LineData,
    /// Whether the surrendered copy is dirty.
    pub dirty: bool,
    /// Extra cycles the sidecar lookup costs on top of the cache's hit
    /// latency (typically 1).
    pub extra_latency: u64,
}

/// A prefetch request produced by a mechanism.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PrefetchRequest {
    /// Line-aligned target address.
    pub line: Addr,
    /// Where the prefetched line should land.
    pub destination: PrefetchDestination,
}

/// Where a prefetched line is installed once it returns.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PrefetchDestination {
    /// Into the cache the mechanism is attached to.
    Cache,
    /// Into the mechanism's own prefetch buffer (probed on a miss), leaving
    /// the cache contents undisturbed — Markov prefetching's buffer.
    Buffer,
}

/// A dirty line leaving a mechanism's sidecar storage (e.g. a victim cache
/// replacing an old entry). The cache controller turns spills into ordinary
/// writebacks so no dirty data is ever lost.
#[derive(Clone, Copy, Debug)]
pub struct Spill {
    /// Line-aligned address.
    pub line: Addr,
    /// The line's data.
    pub data: LineData,
}

/// Bounded queue of pending prefetch requests (Table 3's "Request Queue
/// Size" parameter).
///
/// Mechanisms push requests; the cache controller pops them only when the
/// downstream path is idle, so demand traffic always has priority. When the
/// queue is full new requests are **discarded** — the paper (§3.4) calls out
/// this exact trade-off: a short queue loses prefetches, a long queue can
/// delay demand misses.
///
/// # Examples
///
/// ```
/// use microlib_model::{Addr, PrefetchDestination, PrefetchQueue, PrefetchRequest};
///
/// let mut q = PrefetchQueue::new(2);
/// let req = |a| PrefetchRequest {
///     line: Addr::new(a),
///     destination: PrefetchDestination::Cache,
/// };
/// assert!(q.push(req(0x100)));
/// assert!(q.push(req(0x140)));
/// assert!(!q.push(req(0x180))); // full: discarded
/// assert_eq!(q.stats().discarded, 1);
/// assert_eq!(q.pop().unwrap().line, Addr::new(0x100));
/// ```
#[derive(Clone, Debug)]
pub struct PrefetchQueue {
    capacity: usize,
    entries: std::collections::VecDeque<PrefetchRequest>,
    stats: PrefetchQueueStats,
}

crate::counters! {
    /// Occupancy and loss statistics for a [`PrefetchQueue`].
    #[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
    pub struct PrefetchQueueStats {
        /// Requests accepted into the queue.
        pub accepted: u64,
        /// Requests discarded because the queue was full.
        pub discarded: u64,
        /// Requests dropped because an identical line was already queued.
        pub duplicates: u64,
    }
}

impl PrefetchQueue {
    /// Creates a queue with room for `capacity` pending requests.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "prefetch queue capacity must be positive");
        PrefetchQueue {
            capacity,
            entries: std::collections::VecDeque::with_capacity(capacity.min(256)),
            stats: PrefetchQueueStats::default(),
        }
    }

    /// The configured capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pending requests.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no requests are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Enqueues `request`, returning `false` (and counting a discard) if the
    /// queue is full, or `false` (counting a duplicate) if the same line is
    /// already pending.
    pub fn push(&mut self, request: PrefetchRequest) -> bool {
        if self.entries.iter().any(|r| r.line == request.line) {
            self.stats.duplicates += 1;
            return false;
        }
        if self.entries.len() >= self.capacity {
            self.stats.discarded += 1;
            return false;
        }
        self.entries.push_back(request);
        self.stats.accepted += 1;
        true
    }

    /// Removes and returns the oldest pending request.
    pub fn pop(&mut self) -> Option<PrefetchRequest> {
        self.entries.pop_front()
    }

    /// Looks at the oldest pending request without removing it.
    pub fn peek(&self) -> Option<&PrefetchRequest> {
        self.entries.front()
    }

    /// Drops any pending request targeting `line` (demand access superseded
    /// the prefetch).
    pub fn cancel(&mut self, line: Addr) {
        self.entries.retain(|r| r.line != line);
    }

    /// Discards all pending requests.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Accepted/discarded/duplicate counters.
    #[inline]
    pub fn stats(&self) -> PrefetchQueueStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(a: u64) -> PrefetchRequest {
        PrefetchRequest {
            line: Addr::new(a),
            destination: PrefetchDestination::Cache,
        }
    }

    #[test]
    fn queue_respects_capacity() {
        let mut q = PrefetchQueue::new(3);
        assert!(q.push(req(0)));
        assert!(q.push(req(64)));
        assert!(q.push(req(128)));
        assert!(!q.push(req(192)));
        assert_eq!(q.len(), 3);
        assert_eq!(q.stats().discarded, 1);
        assert_eq!(q.stats().accepted, 3);
    }

    #[test]
    fn queue_is_fifo() {
        let mut q = PrefetchQueue::new(4);
        q.push(req(1 << 6));
        q.push(req(2 << 6));
        assert_eq!(q.pop().unwrap().line.raw(), 1 << 6);
        assert_eq!(q.pop().unwrap().line.raw(), 2 << 6);
        assert!(q.pop().is_none());
    }

    #[test]
    fn queue_deduplicates() {
        let mut q = PrefetchQueue::new(4);
        assert!(q.push(req(64)));
        assert!(!q.push(req(64)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.stats().duplicates, 1);
    }

    #[test]
    fn queue_cancels_superseded_lines() {
        let mut q = PrefetchQueue::new(4);
        q.push(req(64));
        q.push(req(128));
        q.cancel(Addr::new(64));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek().unwrap().line.raw(), 128);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        PrefetchQueue::new(0);
    }

    #[test]
    fn outcome_satisfaction() {
        assert!(AccessOutcome::Hit.is_satisfied());
        assert!(AccessOutcome::SidecarHit.is_satisfied());
        assert!(!AccessOutcome::Miss.is_satisfied());
    }
}
