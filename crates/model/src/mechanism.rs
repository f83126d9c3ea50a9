//! The [`Mechanism`] trait — MicroLib's unit of modularity — plus the
//! hardware-budget descriptors consumed by the cost/power models.

use crate::event::{
    AccessEvent, EvictEvent, PrefetchQueue, ProbeResult, RefillEvent, Spill, VictimAction,
};
use crate::types::{Addr, AttachPoint, Cycle};

/// A hardware data-cache optimization that plugs into a cache level.
///
/// This trait is the library's unit of exchange: every mechanism from the
/// MICRO 2004 study implements it, and downstream users add their own
/// mechanisms the same way (see the `custom_mechanism` example). It is
/// deliberately object-safe (C-OBJECT): systems hold `Box<dyn Mechanism>`.
///
/// The cache calls the hooks in a fixed per-access order:
///
/// 1. [`probe`](Mechanism::probe) — only on a cache miss, to let sidecar
///    storage (victim caches, prefetch buffers) service it;
/// 2. [`on_access`](Mechanism::on_access) — always, with the final outcome;
/// 3. [`on_evict`](Mechanism::on_evict) — when a victim is displaced;
/// 4. [`on_refill`](Mechanism::on_refill) — when the fill returns, carrying
///    the line's data words;
/// 5. [`tick`](Mechanism::tick) — once per cycle.
///
/// Prefetch requests go through the bounded [`PrefetchQueue`] handed to the
/// hooks; the cache controller drains it only when the downstream path is
/// idle, so demand requests always win (paper §3.4).
///
/// # Examples
///
/// A trivial next-line prefetcher:
///
/// ```
/// use microlib_model::{
///     AccessEvent, AccessOutcome, AttachPoint, HardwareBudget, Mechanism,
///     PrefetchDestination, PrefetchQueue, PrefetchRequest,
/// };
///
/// struct NextLine {
///     line_bytes: u64,
/// }
///
/// impl Mechanism for NextLine {
///     fn name(&self) -> &str {
///         "next-line"
///     }
///     fn attach_point(&self) -> AttachPoint {
///         AttachPoint::L2Unified
///     }
///     fn on_access(&mut self, event: &AccessEvent, prefetch: &mut PrefetchQueue) {
///         if event.outcome == AccessOutcome::Miss {
///             prefetch.push(PrefetchRequest {
///                 line: event.line.offset(self.line_bytes as i64),
///                 destination: PrefetchDestination::Cache,
///             });
///         }
///     }
///     fn hardware(&self) -> HardwareBudget {
///         HardwareBudget::none("next-line")
///     }
/// }
/// ```
pub trait Mechanism {
    /// Short identifier, e.g. `"GHB"`.
    fn name(&self) -> &str;

    /// The cache level this mechanism observes.
    fn attach_point(&self) -> AttachPoint;

    /// Observes a demand access and may enqueue prefetches.
    fn on_access(&mut self, event: &AccessEvent, prefetch: &mut PrefetchQueue);

    /// Offered an evicted line; return [`VictimAction::Captured`] to take it.
    fn on_evict(&mut self, event: &EvictEvent) -> VictimAction {
        let _ = event;
        VictimAction::Dropped
    }

    /// Observes a line fill (with data) and may enqueue prefetches.
    fn on_refill(&mut self, event: &RefillEvent, prefetch: &mut PrefetchQueue) {
        let _ = (event, prefetch);
    }

    /// On a cache miss, may supply the line from sidecar storage.
    ///
    /// Returning `Some` turns the miss into a sidecar hit; the mechanism
    /// must forget its copy (the cache now owns it).
    fn probe(&mut self, line: Addr, now: Cycle) -> Option<ProbeResult> {
        let _ = (line, now);
        None
    }

    /// Non-destructive sidecar occupancy check: whether the mechanism
    /// already holds `line`. The cache controller uses it to drop
    /// prefetches for lines the sidecar already owns.
    fn holds(&self, line: Addr) -> bool {
        let _ = line;
        false
    }

    /// Called once per simulated cycle for time-based state (timekeeping
    /// decay counters and the like).
    fn tick(&mut self, now: Cycle) {
        let _ = now;
    }

    /// Capacity of the prefetch request queue the cache controller creates
    /// for this mechanism (Table 3's "Request Queue Size").
    fn request_queue_capacity(&self) -> usize {
        16
    }

    /// Hands back dirty lines displaced from sidecar storage. Called once
    /// per cycle; the controller converts each [`Spill`] into a writeback,
    /// so mechanisms never silently lose dirty data.
    fn drain_spills(&mut self) -> Vec<Spill> {
        Vec::new()
    }

    /// Whether this mechanism's functional-warmup effects are fully
    /// described by the event stream the warm phase fires (accesses,
    /// evictions, refills, probes, ticks).
    ///
    /// Returning `true` lets the simulator restore a shared
    /// mechanism-independent warm checkpoint and replay only the recorded
    /// events into this mechanism, instead of re-running the whole warm
    /// phase per (benchmark × mechanism) cell. A mechanism may opt in
    /// **only if** during warmup it never returns `Some` from
    /// [`probe`](Mechanism::probe), never returns
    /// [`VictimAction::Captured`] from [`on_evict`](Mechanism::on_evict)
    /// and never reports spills — i.e. it observes the warm phase without
    /// perturbing cache or memory contents. Pure prefetchers and eviction
    /// observers qualify; sidecar stores (victim caches and kin) do not.
    ///
    /// Defaults to `false`, which is always correct (the simulator then
    /// runs the exact per-mechanism warm path).
    fn warm_events_only(&self) -> bool {
        false
    }

    /// Describes the mechanism's added hardware for the cost/power models.
    fn hardware(&self) -> HardwareBudget;

    /// Activity counters accumulated so far.
    fn stats(&self) -> MechanismStats {
        MechanismStats::default()
    }

    /// Clears all internal state (tables, sidecars, counters).
    fn reset(&mut self) {}
}

/// One SRAM structure added by a mechanism (an input row for the CACTI-like
/// area model and XCACTI-like energy model).
#[derive(Clone, Debug, PartialEq)]
pub struct SramTable {
    /// Human-readable name, e.g. `"correlation table"`.
    pub name: String,
    /// Number of entries.
    pub entries: u64,
    /// Bits per entry (tag + payload + state).
    pub entry_bits: u64,
    /// Associativity; `0` means fully associative.
    pub assoc: u32,
    /// Read/write port count.
    pub ports: u32,
}

impl SramTable {
    /// Creates a table descriptor.
    pub fn new(name: impl Into<String>, entries: u64, entry_bits: u64, assoc: u32) -> Self {
        SramTable {
            name: name.into(),
            entries,
            entry_bits,
            assoc,
            ports: 1,
        }
    }

    /// Total storage in bits.
    pub fn total_bits(&self) -> u64 {
        self.entries * self.entry_bits
    }

    /// Total storage in bytes (rounded up).
    pub fn total_bytes(&self) -> u64 {
        self.total_bits().div_ceil(8)
    }
}

/// The complete hardware inventory a mechanism adds next to the base cache.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HardwareBudget {
    /// Mechanism name this budget belongs to.
    pub mechanism: String,
    /// SRAM structures.
    pub tables: Vec<SramTable>,
}

impl HardwareBudget {
    /// A budget with no added storage (e.g. tagged prefetching's single tag
    /// bit per line is accounted as zero-cost, matching the paper's Fig 5
    /// where TP incurs "almost no additional cost").
    pub fn none(mechanism: impl Into<String>) -> Self {
        HardwareBudget {
            mechanism: mechanism.into(),
            tables: Vec::new(),
        }
    }

    /// A budget made of the given tables.
    pub fn with_tables(mechanism: impl Into<String>, tables: Vec<SramTable>) -> Self {
        HardwareBudget {
            mechanism: mechanism.into(),
            tables,
        }
    }

    /// Sum of all table storage in bits.
    pub fn total_bits(&self) -> u64 {
        self.tables.iter().map(SramTable::total_bits).sum()
    }

    /// Sum of all table storage in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bits().div_ceil(8)
    }
}

crate::counters! {
    /// Activity counters every mechanism accumulates; the power model multiplies
    /// these by per-access energies.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct MechanismStats {
        /// Reads of mechanism tables (lookups).
        pub table_reads: u64,
        /// Writes/updates of mechanism tables.
        pub table_writes: u64,
        /// Prefetch requests the mechanism tried to enqueue.
        pub prefetches_requested: u64,
        /// Prefetched lines that were later demand-hit (useful prefetches).
        pub prefetches_useful: u64,
        /// Misses serviced from sidecar storage.
        pub sidecar_hits: u64,
        /// Sidecar probes that missed.
        pub sidecar_misses: u64,
        /// Victim lines captured into sidecar storage.
        pub victims_captured: u64,
    }
}

impl MechanismStats {
    /// Fraction of sidecar probes that hit, if any occurred.
    pub fn sidecar_hit_ratio(&self) -> Option<f64> {
        let total = self.sidecar_hits + self.sidecar_misses;
        (total > 0).then(|| self.sidecar_hits as f64 / total as f64)
    }
}

/// The no-op mechanism: the paper's "Base" configuration.
///
/// # Examples
///
/// ```
/// use microlib_model::{AttachPoint, BaseMechanism, Mechanism};
///
/// let base = BaseMechanism::default();
/// assert_eq!(base.name(), "Base");
/// assert_eq!(base.hardware().total_bits(), 0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BaseMechanism;

impl BaseMechanism {
    /// Creates the base (empty) mechanism.
    pub fn new() -> Self {
        BaseMechanism
    }
}

impl Mechanism for BaseMechanism {
    fn name(&self) -> &str {
        "Base"
    }

    fn attach_point(&self) -> AttachPoint {
        AttachPoint::L1Data
    }

    fn on_access(&mut self, _event: &AccessEvent, _prefetch: &mut PrefetchQueue) {}

    fn warm_events_only(&self) -> bool {
        true // observes nothing, perturbs nothing
    }

    fn hardware(&self) -> HardwareBudget {
        HardwareBudget::none("Base")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessOutcome, PrefetchDestination, PrefetchRequest};
    use crate::types::AccessKind;

    #[test]
    fn sram_table_sizes() {
        let t = SramTable::new("t", 1024, 48, 4);
        assert_eq!(t.total_bits(), 49152);
        assert_eq!(t.total_bytes(), 6144);
    }

    #[test]
    fn budget_totals() {
        let b = HardwareBudget::with_tables(
            "m",
            vec![SramTable::new("a", 10, 8, 1), SramTable::new("b", 3, 3, 1)],
        );
        assert_eq!(b.total_bits(), 89);
        assert_eq!(b.total_bytes(), 12);
        assert_eq!(HardwareBudget::none("x").total_bits(), 0);
    }

    #[test]
    fn base_mechanism_is_inert() {
        let mut base = BaseMechanism::new();
        let mut q = PrefetchQueue::new(4);
        let ev = AccessEvent {
            now: Cycle::ZERO,
            pc: Addr::new(0x400000),
            addr: Addr::new(0x1000),
            line: Addr::new(0x1000),
            kind: AccessKind::Load,
            outcome: AccessOutcome::Miss,
            first_touch_of_prefetch: false,
            value: Some(7),
        };
        base.on_access(&ev, &mut q);
        assert!(q.is_empty());
        assert!(base.probe(Addr::new(0x1000), Cycle::ZERO).is_none());
        assert_eq!(
            base.on_evict(&EvictEvent {
                now: Cycle::ZERO,
                line: Addr::new(0x1000),
                dirty: true,
                data: crate::LineData::zeroed(4),
                untouched_prefetch: false,
            }),
            VictimAction::Dropped
        );
        assert_eq!(base.stats(), MechanismStats::default());
    }

    #[test]
    fn mechanism_is_object_safe() {
        let boxed: Box<dyn Mechanism> = Box::new(BaseMechanism::new());
        assert_eq!(boxed.name(), "Base");
        let _ = PrefetchRequest {
            line: Addr::new(64),
            destination: PrefetchDestination::Buffer,
        };
    }

    #[test]
    fn stats_hit_ratio() {
        let mut s = MechanismStats::default();
        assert!(s.sidecar_hit_ratio().is_none());
        s.sidecar_hits = 3;
        s.sidecar_misses = 1;
        assert!((s.sidecar_hit_ratio().unwrap() - 0.75).abs() < 1e-12);
    }
}
