//! The full memory hierarchy: L1I + L1D + unified L2 + buses + main memory,
//! with one mechanism slot at the L1 data cache and one at the L2.
//!
//! # Protocol
//!
//! The hierarchy is *inclusive*: L1 fills also install in L2, and an L2
//! eviction back-invalidates L1 copies (merging dirty L1 data into the L2
//! victim before it is written back). Dirty data therefore lives in exactly
//! one of: L1D, a mechanism sidecar, L2, or DRAM — and lookups proceed in
//! that order, so a load can never observe stale data. The value-integrity
//! checker (see [`crate::functional`]) verifies this on every load.
//!
//! # Timing
//!
//! Data moves eagerly (coherence is exact) while *timing* is modelled by
//! explicit resources: cache ports per cycle, finite MSHR files, bus
//! reservations and the SDRAM bank machinery. The four fidelity toggles of
//! [`FidelityConfig`] selectively disable the hazards SimpleScalar does not
//! model, which is how Fig 1's model-precision experiment is produced.

use crate::bus::Bus;
use crate::cache::{CacheArray, Victim};
use crate::functional::{FunctionalMemory, IntegrityError};
use crate::mshr::{MshrFile, MshrOutcome, MshrTarget};
use crate::sdram::{MainMemory, MemDone, MemToken};
use crate::warmup::{WarmCheckpoint, WarmEvent, WarmLog};
use microlib_model::{
    AccessEvent, AccessKind, AccessOutcome, Addr, AttachPoint, CacheStats, ConfigError, Cycle,
    EvictEvent, FidelityConfig, LineData, Mechanism, MechanismStats, MemoryStats,
    PrefetchDestination, PrefetchQueue, PrefetchQueueStats, RefillCause, RefillEvent, SystemConfig,
    VictimAction,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// Identifies an outstanding CPU-visible request (load, store or ifetch).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ReqId(u64);

impl ReqId {
    /// Creates a request id from a raw value (tests only need this).
    pub fn new(raw: u64) -> Self {
        ReqId(raw)
    }

    /// The raw id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A finished CPU-visible request.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// The request that finished.
    pub req: ReqId,
    /// When it finished.
    pub at: Cycle,
    /// Loaded value (zero for stores and instruction fetches).
    pub value: u64,
}

/// Why the hierarchy refused to accept a request this cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IssueRejection {
    /// No cache port left this cycle.
    PortBusy,
    /// The cache pipeline is stalled by a hazard.
    CacheStalled,
    /// The MSHR file is full, busy, or out of merge slots.
    MshrUnavailable,
}

/// Outcome of a successfully accepted access.
#[derive(Clone, Copy, Debug)]
pub enum IssueResult {
    /// Satisfied locally; done at `at` with `value`.
    Done {
        /// Completion time.
        at: Cycle,
        /// Loaded value (stores echo the stored value).
        value: u64,
    },
    /// A miss is in flight; a [`Completion`] with this id will be returned
    /// by a future [`MemorySystem::begin_cycle`].
    Pending(ReqId),
}

#[derive(Clone, Copy, Debug)]
enum Origin {
    L1D,
    L1I,
    /// Cache-destined L1 prefetch (holds an L1 MSHR entry).
    L1Prefetch,
    /// Buffer-destined L1 prefetch (dedicated path, no L1 MSHR entry).
    L1BufferPrefetch {
        l1_line: Addr,
    },
    L2Prefetch,
}

#[derive(Debug)]
enum L2Req {
    Demand {
        l2_line: Addr,
        pc: Addr,
        kind: AccessKind,
        origin: Origin,
        arrival: Cycle,
    },
    Writeback {
        arrival: Cycle,
    },
}

#[derive(Clone, Copy, Debug)]
struct L1Fill {
    l1_line: Addr,
    instruction: bool,
    prefetched: bool,
    to_buffer: bool,
    arrive: Cycle,
}

#[derive(Clone, Copy, Debug)]
struct L2Refill {
    l2_line: Addr,
    arrive: Cycle,
}

#[derive(Clone, Copy, Debug)]
struct MemReq {
    l2_line: Addr,
    is_write: bool,
    ready_at: Cycle,
}

struct CacheUnit {
    array: CacheArray,
    mshr: MshrFile,
    ports: u32,
    ports_used: u32,
    stalled_until: Cycle,
    miss_lines_this_cycle: Vec<u64>,
    stats: CacheStats,
}

impl CacheUnit {
    fn new(array: CacheArray, fidelity: &FidelityConfig) -> Self {
        let cfg = array.config().clone();
        let mut mshr = if fidelity.finite_mshr {
            MshrFile::new(cfg.mshr_entries, cfg.mshr_reads_per_entry)
        } else {
            MshrFile::unlimited()
        };
        mshr.set_model_busy_cycle(fidelity.pipeline_stalls);
        CacheUnit {
            array,
            mshr,
            ports: cfg.ports,
            ports_used: 0,
            stalled_until: Cycle::ZERO,
            miss_lines_this_cycle: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    fn begin_cycle(&mut self) {
        self.ports_used = 0;
        self.miss_lines_this_cycle.clear();
    }

    fn port_available(&self) -> bool {
        self.ports_used < self.ports
    }

    fn take_port(&mut self) {
        debug_assert!(self.port_available());
        self.ports_used += 1;
    }

    /// Counts one demand load or store.
    fn count(&mut self, kind: AccessKind) {
        match kind {
            AccessKind::Load => self.stats.loads += 1,
            AccessKind::Store => self.stats.stores += 1,
        }
    }
}

struct MechSlot {
    mech: Box<dyn Mechanism>,
    queue: PrefetchQueue,
}

/// An MSHR target with no CPU request to complete: a prefetch, or an L2
/// miss on behalf of the L1.
fn internal_target(line: Addr) -> MshrTarget {
    MshrTarget {
        req: None,
        addr: line,
        is_store: false,
        value: 0,
    }
}

/// Hands a line that just arrived to the slot's mechanism, if one is
/// attached.
fn refill(slot: &mut Option<MechSlot>, now: Cycle, line: Addr, data: LineData, cause: RefillCause) {
    if let Some(slot) = slot {
        let ev = RefillEvent {
            now,
            line,
            data,
            cause,
        };
        slot.mech.on_refill(&ev, &mut slot.queue);
    }
}

/// The complete memory system the CPU talks to.
///
/// # Examples
///
/// ```
/// use microlib_mem::{IssueResult, MemorySystem};
/// use microlib_model::{Addr, Cycle, SystemConfig};
///
/// let mut mem = MemorySystem::new(SystemConfig::baseline_constant_memory(), Vec::new())?;
/// mem.functional_mut().initialize_word(Addr::new(0x1000), 42);
///
/// let mut now = Cycle::ZERO;
/// mem.begin_cycle(now);
/// let pending = match mem.try_load(Addr::new(0x400000), Addr::new(0x1000), now) {
///     Ok(IssueResult::Pending(id)) => id,
///     other => panic!("cold load must miss: {other:?}"),
/// };
/// let mut value = None;
/// while value.is_none() {
///     now += 1;
///     for done in mem.begin_cycle(now) {
///         if done.req == pending {
///             value = Some(done.value);
///         }
///     }
/// }
/// assert_eq!(value, Some(42));
/// # Ok::<(), microlib_model::ConfigError>(())
/// ```
pub struct MemorySystem {
    config: Arc<SystemConfig>,
    functional: FunctionalMemory,
    l1d: CacheUnit,
    l1i: CacheUnit,
    l2: CacheUnit,
    l1_l2_bus: Bus,
    mem_bus: Bus,
    memory: MainMemory,
    l1_mech: Option<MechSlot>,
    l2_mech: Option<MechSlot>,
    l2_queue: VecDeque<L2Req>,
    l1_fills: Vec<L1Fill>,
    l2_refills: Vec<L2Refill>,
    mem_pending: VecDeque<MemReq>,
    /// Outstanding SDRAM reads, `(token, l2_line)`. A handful at most
    /// (bounded by the controller queue), so a linear scan beats hashing.
    mem_inflight: Vec<(u64, Addr)>,
    /// L1-side requesters waiting on an in-flight L2 miss, `(l2_line,
    /// origin)` in arrival order. Flat so the per-refill drain is one
    /// `retain` pass instead of a `HashMap` remove + `Vec` free.
    l2_waiters: Vec<(u64, Origin)>,
    /// 32-byte lines with an in-flight buffer-destination prefetch.
    buffer_inflight: Vec<u64>,
    /// Reusable scratch: drained waiters for the refill in progress.
    waiter_scratch: Vec<Origin>,
    /// Reusable scratch for [`MshrFile::complete_into`] target lists.
    mshr_targets: Vec<MshrTarget>,
    /// Reusable scratch for [`MainMemory::tick_into`] completions.
    mem_done: Vec<MemDone>,
    next_req: u64,
    next_token: u64,
    now: Cycle,
    completions: Vec<Completion>,
    integrity: Option<IntegrityError>,
    check_values: bool,
    fault_drop_writebacks: bool,
    warming: bool,
    warm_prefetch_fill: bool,
    /// `(line, slot)` of the last warm instruction fetch that hit the
    /// L1I. Warm instruction fetches are sequential within a basic block,
    /// so the repeat lookup can skip the set scan and go straight to the
    /// touch (the slot is re-validated with `warm_slot_hit`, so L2
    /// back-invalidations are caught); the array update is byte-identical
    /// to the full-lookup path. Cleared whenever the L1I can change
    /// outside `warm_inst`.
    warm_last_iline: Option<(u64, usize)>,
    /// `(line, slot)` of the last warm data access that hit (or installed
    /// and touched) an L1D line. While it stands, a repeated same-line
    /// warm access can skip the set scan and go straight to the touch
    /// (after re-validating the slot with `warm_slot_hit`), leaving the
    /// array byte-identical to the full-lookup path. Cleared whenever the
    /// L1D can change under it: any warm fill or back-invalidation, and
    /// on leaving / re-entering warm mode.
    warm_last_dline: Option<(u64, usize)>,
    warm_clock: u64,
    l1d_stats_base: CacheStats,
    l1i_stats_base: CacheStats,
    l2_stats_base: CacheStats,
}

impl std::fmt::Debug for MemorySystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySystem")
            .field("now", &self.now)
            .field("l1d_stats", &self.l1d.stats)
            .field("l2_stats", &self.l2.stats)
            .field(
                "l1_mech",
                &self.l1_mech.as_ref().map(|m| m.mech.name().to_owned()),
            )
            .field(
                "l2_mech",
                &self.l2_mech.as_ref().map(|m| m.mech.name().to_owned()),
            )
            .finish_non_exhaustive()
    }
}

impl MemorySystem {
    /// Builds the hierarchy for `config` with the given mechanisms attached
    /// (at most one per attach point). `config` is taken as (or into) an
    /// [`Arc`], so sweeps that run thousands of cells against one
    /// configuration share it instead of deep-cloning it per run.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `config` is inconsistent or two
    /// mechanisms request the same attach point.
    pub fn new(
        config: impl Into<Arc<SystemConfig>>,
        mechanisms: Vec<Box<dyn Mechanism>>,
    ) -> Result<Self, ConfigError> {
        let config: Arc<SystemConfig> = config.into();
        config.validate()?;
        let mut l1_mech = None;
        let mut l2_mech = None;
        for mech in mechanisms {
            let slot = match mech.attach_point() {
                AttachPoint::L1Data => &mut l1_mech,
                AttachPoint::L2Unified => &mut l2_mech,
            };
            if slot.is_some() {
                return Err(ConfigError::new(format!(
                    "two mechanisms attached at {}",
                    mech.attach_point()
                )));
            }
            let queue = PrefetchQueue::new(mech.request_queue_capacity());
            *slot = Some(MechSlot { mech, queue });
        }
        let fidelity = config.fidelity;
        Ok(MemorySystem {
            l1d: CacheUnit::new(CacheArray::new(config.l1d.clone())?, &fidelity),
            l1i: CacheUnit::new(CacheArray::new(config.l1i.clone())?, &fidelity),
            l2: CacheUnit::new(CacheArray::new(config.l2.clone())?, &fidelity),
            l1_l2_bus: Bus::new(config.l1_l2_bus),
            mem_bus: Bus::new(config.memory_bus),
            memory: MainMemory::from_model(&config.memory),
            functional: FunctionalMemory::new(),
            l1_mech,
            l2_mech,
            l2_queue: VecDeque::new(),
            l1_fills: Vec::new(),
            l2_refills: Vec::new(),
            mem_pending: VecDeque::new(),
            mem_inflight: Vec::new(),
            l2_waiters: Vec::new(),
            buffer_inflight: Vec::new(),
            waiter_scratch: Vec::new(),
            mshr_targets: Vec::new(),
            mem_done: Vec::new(),
            next_req: 0,
            next_token: 0,
            now: Cycle::ZERO,
            completions: Vec::new(),
            integrity: None,
            check_values: true,
            fault_drop_writebacks: false,
            warming: false,
            warm_prefetch_fill: false,
            warm_last_iline: None,
            warm_last_dline: None,
            warm_clock: 0,
            l1d_stats_base: CacheStats::default(),
            l1i_stats_base: CacheStats::default(),
            l2_stats_base: CacheStats::default(),
            config,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Access to the functional memory for workload setup.
    pub fn functional_mut(&mut self) -> &mut FunctionalMemory {
        &mut self.functional
    }

    /// Read access to the functional memory.
    pub fn functional(&self) -> &FunctionalMemory {
        &self.functional
    }

    /// Enables/disables the per-load value-integrity check (on by default).
    pub fn set_check_values(&mut self, on: bool) {
        self.check_values = on;
    }

    /// Failure injection: silently drop writeback data (the paper's §2.2
    /// forgotten-dirty-bit bug). Only useful to demonstrate that the
    /// integrity checker catches hierarchy bugs.
    pub fn inject_writeback_drop_fault(&mut self, on: bool) {
        self.fault_drop_writebacks = on;
    }

    /// The first value-integrity violation observed, if any.
    pub fn integrity_error(&self) -> Option<IntegrityError> {
        self.integrity
    }

    fn fresh_token(&mut self) -> MemToken {
        self.next_token += 1;
        MemToken(self.next_token)
    }

    // ------------------------------------------------------------------
    // Data-coherent helpers (eager data, lazy timing).
    // ------------------------------------------------------------------

    /// Reads the current value of an L1 line as seen below the L1: its
    /// part of the L2 line if that is resident, else the DRAM image.
    fn line_below_l1(&self, l1_line: Addr) -> LineData {
        let l2_bytes = self.config.l2.line_bytes;
        match self.l2.array.read_line(l1_line.line(l2_bytes)) {
            Some(l2data) => {
                let off = (l1_line.offset_in_line(l2_bytes) / 8) as usize;
                let words = (self.config.l1d.line_bytes / 8) as usize;
                LineData::from_words(&l2data.words()[off..off + words])
            }
            None => self
                .functional
                .dram()
                .read_line(l1_line, self.config.l1d.line_bytes),
        }
    }

    /// Queues a memory transaction behind its transfer on the memory bus:
    /// the 8-byte command of a read, or the data of a write.
    fn send_to_memory(&mut self, l2_line: Addr, is_write: bool, bus_bytes: u64) {
        self.mem_bus.reserve(self.now, bus_bytes);
        self.mem_pending.push_back(MemReq {
            l2_line,
            is_write,
            ready_at: self.mem_bus.busy_until(),
        });
    }

    /// Applies a 32-byte writeback from L1 (or a sidecar spill) into the L2
    /// array, allocating on write if the line is absent (Table 1 policy).
    fn apply_writeback_to_l2(&mut self, l1_line: Addr, data: &LineData) {
        if self.fault_drop_writebacks {
            return;
        }
        let l2_line = l1_line.line(self.config.l2.line_bytes);
        let offset_words = (l1_line.offset_in_line(self.config.l2.line_bytes) / 8) as usize;
        if !self
            .l2
            .array
            .write_line(l2_line, offset_words, data.words(), true)
        {
            // Allocate on write: build the full L2 line around the payload.
            let mut full = self.functional.dram().read_line(l2_line, 64);
            for (i, w) in data.words().iter().enumerate() {
                full.set_word(offset_words + i, *w);
            }
            let victim = self.l2.array.fill(l2_line, full, true, false);
            if let Some(v) = victim {
                self.handle_l2_victim(v);
            }
        }
        self.l2.stats.writebacks += 1;
        if !self.warming {
            // Timing: the writeback occupies the L1<->L2 bus.
            self.l1_l2_bus.reserve(self.now, data.byte_len());
            self.l2_queue.push_back(L2Req::Writeback {
                arrival: self.l1_l2_bus.busy_until(),
            });
        }
    }

    /// Handles an L2 victim: back-invalidate L1 copies (merging dirty L1
    /// data), then write dirty data to the DRAM image and occupy the
    /// memory path.
    fn handle_l2_victim(&mut self, mut victim: Victim) {
        // Back-invalidation can remove the warm fast paths' cached lines.
        self.warm_last_dline = None;
        self.warm_last_iline = None;
        let l1_bytes = self.config.l1d.line_bytes;
        let halves = (self.config.l2.line_bytes / l1_bytes) as usize;
        for h in 0..halves {
            let l1_line = victim.line.offset((h as i64) * l1_bytes as i64);
            if let Some(l1_victim) = self.l1d.array.invalidate(l1_line) {
                if l1_victim.dirty {
                    let off = (h * l1_bytes as usize) / 8;
                    for (i, w) in l1_victim.data.words().iter().enumerate() {
                        victim.data.set_word(off + i, *w);
                    }
                    victim.dirty = true;
                }
            }
            self.l1i.array.invalidate(l1_line);
        }
        if victim.dirty && !self.fault_drop_writebacks {
            self.functional
                .dram_mut()
                .write_line(victim.line, &victim.data);
            if !self.warming {
                self.send_to_memory(victim.line, true, victim.data.byte_len());
            }
        }
        if victim.untouched_prefetch {
            self.l2.stats.useless_prefetch_evictions += 1;
        }
    }

    /// Handles an L1D victim: offer to the mechanism, else write back.
    fn handle_l1_victim(&mut self, victim: Victim) {
        if victim.untouched_prefetch {
            self.l1d.stats.useless_prefetch_evictions += 1;
        }
        let ev = EvictEvent {
            now: self.now,
            line: victim.line,
            dirty: victim.dirty,
            data: victim.data,
            untouched_prefetch: victim.untouched_prefetch,
        };
        if let Some(slot) = &mut self.l1_mech {
            if slot.mech.on_evict(&ev) == VictimAction::Captured {
                return; // mechanism owns the line (and its dirty data) now
            }
        }
        if victim.dirty {
            self.l1d.stats.writebacks += 1;
            self.apply_writeback_to_l2(victim.line, &victim.data);
        }
    }

    // ------------------------------------------------------------------
    // CPU-facing issue API.
    // ------------------------------------------------------------------

    /// Issues a data load.
    ///
    /// # Errors
    ///
    /// Returns an [`IssueRejection`] when structural hazards refuse the
    /// access this cycle; the caller retries later.
    pub fn try_load(
        &mut self,
        pc: Addr,
        addr: Addr,
        now: Cycle,
    ) -> Result<IssueResult, IssueRejection> {
        self.data_access(pc, addr, AccessKind::Load, 0, now)
    }

    /// Issues a data store of `value` (the architectural effect is applied
    /// immediately; timing follows the writeback hierarchy).
    ///
    /// # Errors
    ///
    /// Returns an [`IssueRejection`] when structural hazards refuse the
    /// access this cycle.
    pub fn try_store(
        &mut self,
        pc: Addr,
        addr: Addr,
        value: u64,
        now: Cycle,
    ) -> Result<IssueResult, IssueRejection> {
        self.data_access(pc, addr, AccessKind::Store, value, now)
    }

    /// Issues a run of independent loads back to back, exactly as a
    /// per-instruction issue loop would: each entry takes the full
    /// [`MemorySystem::try_load`] path in order, stopping once
    /// `allowed_successes` loads have been accepted or after a rejection
    /// that blocks the memory path for the rest of the cycle (LSQ
    /// backpressure fidelity, or a port rejection — with the L1D ports
    /// exhausted no later access can succeed this cycle). Returns the
    /// number of entries processed; their results are pushed to `results`
    /// (cleared first) in order, and unprocessed entries were never
    /// presented to the cache.
    pub fn try_load_batch(
        &mut self,
        reqs: &[(Addr, Addr)],
        now: Cycle,
        allowed_successes: u32,
        results: &mut Vec<Result<IssueResult, IssueRejection>>,
    ) -> usize {
        results.clear();
        let stop_on_reject = self.config.fidelity.lsq_backpressure;
        let mut successes = 0u32;
        for &(pc, addr) in reqs {
            if successes == allowed_successes {
                break;
            }
            let res = self.data_access(pc, addr, AccessKind::Load, 0, now);
            let blocked = match &res {
                Ok(_) => {
                    successes += 1;
                    false
                }
                Err(e) => stop_on_reject || matches!(e, IssueRejection::PortBusy),
            };
            results.push(res);
            if blocked {
                break;
            }
        }
        results.len()
    }

    fn data_access(
        &mut self,
        pc: Addr,
        addr: Addr,
        kind: AccessKind,
        store_value: u64,
        now: Cycle,
    ) -> Result<IssueResult, IssueRejection> {
        debug_assert_eq!(now, self.now, "issue must follow begin_cycle(now)");
        let fidelity = self.config.fidelity;
        if fidelity.pipeline_stalls && self.l1d.stalled_until > now {
            self.l1d.stats.pipeline_stalls += 1;
            return Err(IssueRejection::CacheStalled);
        }
        if !self.l1d.port_available() {
            self.l1d.stats.port_stalls += 1;
            return Err(IssueRejection::PortBusy);
        }
        let line = addr.line(self.config.l1d.line_bytes);

        // One set search decides hit/miss and, on a hit, applies the access
        // to the array in the same pass (the fused lookup performs exactly
        // the LRU/touch updates plus word read/write the historical
        // lookup-then-read/write pair did). A miss mutates nothing, so the
        // rejections below never perturb replacement state.
        let hit_result = match kind {
            AccessKind::Load => self.l1d.array.lookup_load(addr),
            AccessKind::Store => self
                .l1d
                .array
                .lookup_store(addr, store_value)
                .map(|hit| (hit, store_value)),
        };
        if hit_result.is_none() {
            // Same-line, different-address miss pair in one cycle stalls
            // the pipelined cache (paper §2.2).
            if fidelity.pipeline_stalls && self.l1d.miss_lines_this_cycle.contains(&line.raw()) {
                self.l1d.stalled_until = now + 1;
                self.l1d.stats.pipeline_stalls += 1;
                return Err(IssueRejection::CacheStalled);
            }
        }

        if let Some((hit, value)) = hit_result {
            self.l1d.take_port();
            self.l1d.count(kind);
            if hit.first_touch_of_prefetch {
                self.l1d.stats.useful_prefetches += 1;
            }
            match kind {
                AccessKind::Load => self.check_value(addr, value),
                AccessKind::Store => self.functional.store_architectural(addr, store_value),
            }
            self.fire_l1_access(
                pc,
                addr,
                line,
                kind,
                AccessOutcome::Hit,
                hit.first_touch_of_prefetch,
                value,
            );
            return Ok(IssueResult::Done {
                at: now + self.config.l1d.latency,
                value,
            });
        }

        // Miss path: sidecar probe first.
        let probe = self
            .l1_mech
            .as_mut()
            .and_then(|slot| slot.mech.probe(line, now));
        if let Some(hit) = probe {
            self.l1d.take_port();
            self.l1d.stats.sidecar_hits += 1;
            self.l1d.count(kind);
            // Install the sidecar line into L1 (swap semantics), apply the
            // access, and only then process the displaced victim — its
            // writeback can cascade into an L2 eviction that
            // back-invalidates the line we just installed.
            let victim = self.l1d.array.fill(line, hit.data, hit.dirty, false);
            self.l1d.array.lookup(addr);
            let value = match kind {
                AccessKind::Load => {
                    let v = self.l1d.array.read_word(addr).expect("just filled");
                    self.check_value(addr, v);
                    v
                }
                AccessKind::Store => {
                    self.functional.store_architectural(addr, store_value);
                    self.l1d.array.write_word(addr, store_value);
                    store_value
                }
            };
            if let Some(v) = victim {
                self.handle_l1_victim(v);
            }
            self.fire_l1_access(
                pc,
                addr,
                line,
                kind,
                AccessOutcome::SidecarHit,
                false,
                value,
            );
            return Ok(IssueResult::Done {
                at: now + self.config.l1d.latency + hit.extra_latency,
                value,
            });
        }

        // Real miss: goes through the MSHR.
        let req = ReqId(self.next_req + 1);
        let target = MshrTarget {
            req: Some(req),
            addr,
            is_store: kind.is_store(),
            value: store_value,
        };
        let was_prefetch = self.l1d.mshr.is_prefetch_inflight(line);
        let outcome = self.l1d.mshr.try_insert(line, target, false, now);
        if !outcome.accepted() {
            self.l1d.stats.mshr_full_stalls += 1;
            if outcome == MshrOutcome::TargetStall && fidelity.pipeline_stalls {
                self.l1d.stalled_until = now + 1;
            }
            return Err(IssueRejection::MshrUnavailable);
        }
        self.next_req += 1;
        self.l1d.take_port();
        self.l1d.count(kind);
        if kind.is_store() {
            self.functional.store_architectural(addr, store_value);
        }
        if outcome == MshrOutcome::Merged {
            self.l1d.stats.mshr_merges += 1;
            if was_prefetch {
                // A demand merged into an in-flight prefetch: the prefetch
                // was late but useful.
                self.l1d.stats.useful_prefetches += 1;
            }
            return Ok(IssueResult::Pending(req));
        }
        self.l1d.miss_lines_this_cycle.push(line.raw());
        self.l1d.stats.misses += 1;
        self.fire_l1_observed(pc, addr, kind, AccessOutcome::Miss, store_value);
        // Cancel any queued prefetch for this line (demand wins).
        if let Some(slot) = &mut self.l1_mech {
            slot.queue.cancel(line);
        }
        self.send_miss_to_l2(line, pc, kind, Origin::L1D);
        Ok(IssueResult::Pending(req))
    }

    /// Issues an instruction fetch for the line containing `pc`.
    ///
    /// # Errors
    ///
    /// Returns an [`IssueRejection`] when the L1I port or MSHR refuses the
    /// access this cycle.
    pub fn try_ifetch(&mut self, pc: Addr, now: Cycle) -> Result<IssueResult, IssueRejection> {
        debug_assert_eq!(now, self.now, "issue must follow begin_cycle(now)");
        if !self.l1i.port_available() {
            self.l1i.stats.port_stalls += 1;
            return Err(IssueRejection::PortBusy);
        }
        let line = pc.line(self.config.l1i.line_bytes);
        if self.l1i.array.lookup(pc).is_some() {
            self.l1i.take_port();
            self.l1i.stats.loads += 1;
            return Ok(IssueResult::Done {
                at: now + self.config.l1i.latency,
                value: 0,
            });
        }
        let req = ReqId(self.next_req + 1);
        let target = MshrTarget {
            req: Some(req),
            addr: pc,
            is_store: false,
            value: 0,
        };
        let outcome = self.l1i.mshr.try_insert(line, target, false, now);
        if !outcome.accepted() {
            self.l1i.stats.mshr_full_stalls += 1;
            return Err(IssueRejection::MshrUnavailable);
        }
        self.next_req += 1;
        self.l1i.take_port();
        self.l1i.stats.loads += 1;
        if outcome == MshrOutcome::Merged {
            self.l1i.stats.mshr_merges += 1;
        } else {
            self.l1i.stats.misses += 1;
            self.send_miss_to_l2(line, pc, AccessKind::Load, Origin::L1I);
        }
        Ok(IssueResult::Pending(req))
    }

    fn send_miss_to_l2(&mut self, l1_line: Addr, pc: Addr, kind: AccessKind, origin: Origin) {
        // The request command occupies one L1<->L2 bus beat.
        self.l1_l2_bus.reserve(self.now, 8);
        let arrival = self.l1_l2_bus.busy_until();
        let l2_line = l1_line.line(self.config.l2.line_bytes);
        self.l2_queue.push_back(L2Req::Demand {
            l2_line,
            pc,
            kind,
            origin,
            arrival,
        });
    }

    #[allow(clippy::too_many_arguments)] // the flattened fields of one AccessEvent
    fn fire_l1_access(
        &mut self,
        pc: Addr,
        addr: Addr,
        line: Addr,
        kind: AccessKind,
        outcome: AccessOutcome,
        first_touch: bool,
        value: u64,
    ) {
        if let Some(slot) = &mut self.l1_mech {
            let ev = AccessEvent {
                now: self.now,
                pc,
                addr,
                line,
                kind,
                outcome,
                first_touch_of_prefetch: first_touch,
                value: Some(value),
            };
            slot.mech.on_access(&ev, &mut slot.queue);
        }
    }

    /// Fires the L1 access hook with the value the access carries
    /// architecturally: the stored value, or memory's value for a load.
    fn fire_l1_observed(
        &mut self,
        pc: Addr,
        addr: Addr,
        kind: AccessKind,
        outcome: AccessOutcome,
        store_value: u64,
    ) {
        if self.l1_mech.is_some() {
            let value = match kind {
                AccessKind::Load => self.functional.architectural(addr),
                AccessKind::Store => store_value,
            };
            let line = addr.line(self.config.l1d.line_bytes);
            self.fire_l1_access(pc, addr, line, kind, outcome, false, value);
        }
    }

    fn check_value(&mut self, addr: Addr, observed: u64) {
        if self.check_values && self.integrity.is_none() {
            if let Err(e) = self.functional.check_load(addr, observed) {
                self.integrity = Some(e);
            }
        }
    }

    // ------------------------------------------------------------------
    // Functional warmup (the skip phase of a trace window).
    //
    // The paper's 500M-instruction SimPoint traces run with caches and
    // mechanism tables in steady state; replaying the skipped instructions
    // through the *storage* model (no timing) reproduces that steady state
    // at a fraction of the detailed-simulation cost.
    // ------------------------------------------------------------------

    /// Functionally warms one instruction: instruction fetch plus an
    /// optional data access. No timing state is touched; caches, mechanism
    /// tables and the functional memory are updated exactly as a detailed
    /// run would leave them.
    pub fn warm_inst(&mut self, pc: Addr, mem_ref: Option<(Addr, AccessKind, u64)>) {
        self.warming = true;
        self.warm_clock += 2; // synthetic ~IPC-0.5 clock for decay counters
        self.now = Cycle::new(self.warm_clock);
        // Instruction side. Consecutive fetches from the line that is
        // already MRU skip the tag scan (the touch itself still runs, so
        // the array stays byte-identical to the full-lookup path); the slot
        // re-validation catches L2 back-invalidations.
        let iline = pc.line(self.config.l1i.line_bytes);
        let fast_slot = self.warm_last_iline.and_then(|(l, slot)| {
            (l == iline.raw() && self.l1i.array.warm_slot_hit(slot, pc)).then_some(slot)
        });
        if let Some(slot) = fast_slot {
            self.l1i.array.warm_touch(slot, pc);
        } else if let Some((_, slot)) = self.l1i.array.lookup_slot(pc) {
            self.warm_last_iline = Some((iline.raw(), slot));
        } else {
            self.l1i.stats.misses += 1;
            self.warm_l2_fetch(iline.line(self.config.l2.line_bytes), pc, AccessKind::Load);
            let words = (self.config.l1i.line_bytes / 8) as usize;
            if !self.l1i.array.contains(iline) {
                self.l1i
                    .array
                    .fill(iline, LineData::zeroed(words), false, false);
            }
            // The freshly filled line is not yet demand-touched; the next
            // fetch primes the fast path through a full lookup.
            self.warm_last_iline = None;
        }
        self.l1i.stats.loads += 1;
        // Data side.
        if let Some((addr, kind, store_value)) = mem_ref {
            self.warm_data_access(pc, addr, kind, store_value);
        }
        // Mechanism time-based state (decay counters etc.).
        if let Some(slot) = &mut self.l1_mech {
            slot.mech.tick(Cycle::new(self.warm_clock));
            if !self.warm_prefetch_fill {
                slot.queue.clear(); // prefetch issue is a timing behaviour
            }
            for spill in slot.mech.drain_spills() {
                self.apply_writeback_to_l2(spill.line, &spill.data);
            }
        }
        if let Some(slot) = &mut self.l2_mech {
            slot.mech.tick(Cycle::new(self.warm_clock));
            if !self.warm_prefetch_fill {
                slot.queue.clear();
            }
            let spills = slot.mech.drain_spills();
            for spill in spills {
                self.functional
                    .dram_mut()
                    .write_line(spill.line, &spill.data);
            }
        }
        if self.warm_prefetch_fill {
            self.apply_warm_prefetches();
        }
        self.warming = false;
    }

    /// Applies a bounded number of queued prefetch requests functionally
    /// (no timing): lines are fetched through the warm L2 path and filled
    /// into their destination, firing the same refill events a detailed
    /// drain would. The per-instruction caps mirror the detailed drain
    /// rates (and bound content-directed prefetch cascades).
    ///
    /// Only active in [`warm_prefetch_fill`](MemorySystem::set_warm_prefetch_fill)
    /// mode — sampled simulation's gap fast-forward, where dropping
    /// prefetches (the plain warm behaviour) would systematically starve
    /// prefetchers of the cache state a continuous detailed run gives
    /// them.
    fn apply_warm_prefetches(&mut self) {
        for _ in 0..4 {
            let Some(req) = self.l1_mech.as_mut().and_then(|s| s.queue.pop()) else {
                break;
            };
            if self.l1d.array.peek(req.line)
                || self
                    .l1_mech
                    .as_ref()
                    .is_some_and(|s| s.mech.holds(req.line))
            {
                continue;
            }
            let l2_line = req.line.line(self.config.l2.line_bytes);
            self.warm_l2_fetch(l2_line, Addr::NULL, AccessKind::Load);
            let data = self.line_below_l1(req.line);
            self.l1d.stats.prefetch_fills += 1;
            if req.destination == PrefetchDestination::Cache {
                self.warm_last_dline = None;
                let victim = self.l1d.array.fill(req.line, data, false, true);
                if let Some(v) = victim {
                    self.handle_l1_victim(v);
                }
            }
            refill(
                &mut self.l1_mech,
                self.now,
                req.line,
                data,
                RefillCause::Prefetch,
            );
        }
        for _ in 0..2 {
            let Some(req) = self.l2_mech.as_mut().and_then(|s| s.queue.pop()) else {
                break;
            };
            if self.l2.array.peek(req.line) {
                continue;
            }
            let data = self.functional.dram().read_line(req.line, 64);
            self.l2.stats.prefetch_fills += 1;
            let victim = self.l2.array.fill(req.line, data, false, true);
            if let Some(v) = victim {
                self.handle_l2_victim(v);
            }
            refill(
                &mut self.l2_mech,
                self.now,
                req.line,
                data,
                RefillCause::Prefetch,
            );
        }
    }

    /// Switches functional warm-up between dropping queued prefetches (the
    /// default — prefetch issue is a timing behaviour, and the shared warm
    /// checkpoints are captured this way) and applying them functionally
    /// (sampled simulation's gap fast-forward, which would otherwise
    /// systematically starve prefetchers of the cache state a continuous
    /// detailed run gives them).
    pub fn set_warm_prefetch_fill(&mut self, on: bool) {
        self.warm_prefetch_fill = on;
    }

    fn warm_data_access(&mut self, pc: Addr, addr: Addr, kind: AccessKind, store_value: u64) {
        let line = addr.line(self.config.l1d.line_bytes);
        self.l1d.count(kind);
        // Fast path: the previous warm data access left this same line MRU
        // and TOUCHED (see `warm_last_dline`), so the set scan can be
        // skipped; the touch itself still runs, leaving the array
        // byte-identical to the full-lookup path.
        if let Some((cached_line, slot)) = self.warm_last_dline {
            if cached_line == line.raw() && self.l1d.array.warm_slot_hit(slot, addr) {
                self.l1d.array.warm_touch(slot, addr);
                if kind.is_store() {
                    self.functional.store_architectural(addr, store_value);
                    self.l1d.array.warm_slot_store(slot, addr, store_value);
                }
                self.fire_l1_observed(pc, addr, kind, AccessOutcome::Hit, store_value);
                return;
            }
        }
        if let Some((_, slot)) = self.l1d.array.lookup_slot(addr) {
            if kind.is_store() {
                self.functional.store_architectural(addr, store_value);
                self.l1d.array.write_word(addr, store_value);
            }
            self.warm_last_dline = Some((line.raw(), slot));
            self.fire_l1_observed(pc, addr, kind, AccessOutcome::Hit, store_value);
            return;
        }
        // Miss: sidecar first (swap semantics), else fetch through the L2.
        let probe = self
            .l1_mech
            .as_mut()
            .and_then(|slot| slot.mech.probe(line, self.now));
        let (data, outcome, dirty) = match probe {
            Some(hit) => {
                self.l1d.stats.sidecar_hits += 1;
                (hit.data, AccessOutcome::SidecarHit, hit.dirty)
            }
            None => {
                self.l1d.stats.misses += 1;
                self.warm_l2_fetch(line.line(self.config.l2.line_bytes), pc, kind);
                (self.line_below_l1(line), AccessOutcome::Miss, false)
            }
        };
        self.fire_l1_observed(pc, addr, kind, outcome, store_value);
        self.warm_last_dline = None;
        let victim = self.l1d.array.fill(line, data, dirty, false);
        if kind.is_store() {
            self.functional.store_architectural(addr, store_value);
            self.l1d.array.lookup(addr);
            self.l1d.array.write_word(addr, store_value);
        }
        if let Some(v) = victim {
            self.handle_l1_victim(v);
        }
        if outcome == AccessOutcome::Miss {
            refill(&mut self.l1_mech, self.now, line, data, RefillCause::Demand);
        }
    }

    /// Ensures `l2_line` is present in the L2 (fetching from the DRAM image
    /// on a miss), firing the L2 mechanism events along the way.
    fn warm_l2_fetch(&mut self, l2_line: Addr, pc: Addr, kind: AccessKind) {
        if self.l2.array.lookup(l2_line).is_some() {
            self.l2_demand_access(pc, l2_line, kind, AccessOutcome::Hit, false);
            return;
        }
        self.l2.stats.misses += 1;
        self.l2_demand_access(pc, l2_line, kind, AccessOutcome::Miss, false);
        let data = self.functional.dram().read_line(l2_line, 64);
        let victim = self.l2.array.fill(l2_line, data, false, false);
        if let Some(v) = victim {
            self.handle_l2_victim(v);
        }
        refill(
            &mut self.l2_mech,
            self.now,
            l2_line,
            data,
            RefillCause::Demand,
        );
    }

    /// Re-enters functional warm mode after a detailed phase — sampled
    /// simulation's fast-forward between representative intervals. The
    /// synthetic warm clock resumes from `now` (the detailed clock), so
    /// mechanism decay state never sees time move backwards; call
    /// [`finish_warmup`](MemorySystem::finish_warmup) again before the
    /// next detailed phase.
    pub fn resume_warmup(&mut self, now: Cycle) {
        self.warm_clock = self.warm_clock.max(now.raw());
        // Detailed simulation moved the caches; the warm fast-path filters
        // must re-observe.
        self.warm_last_iline = None;
        self.warm_last_dline = None;
    }

    /// Ends the warmup phase: statistics gathered so far are excluded from
    /// the counters the accessors report, and the detailed simulation can
    /// start at the returned cycle.
    pub fn finish_warmup(&mut self) -> Cycle {
        self.l1d_stats_base = self.l1d.stats;
        self.l1i_stats_base = self.l1i.stats;
        self.l2_stats_base = self.l2.stats;
        if let Some(slot) = &mut self.l1_mech {
            slot.queue.clear();
        }
        if let Some(slot) = &mut self.l2_mech {
            slot.queue.clear();
        }
        Cycle::new(self.warm_clock)
    }

    // ------------------------------------------------------------------
    // Warm-state checkpointing (see `crate::warmup`): snapshot the
    // mechanism-independent warm state once, restore it per run, replay
    // only the mechanism-visible events.
    // ------------------------------------------------------------------

    /// Snapshots everything the warm phase mutates outside the mechanism
    /// slots: functional memory, cache arrays, raw cache counters and the
    /// warm clock. Call at the end of a warm phase, before
    /// [`finish_warmup`](MemorySystem::finish_warmup).
    pub fn snapshot_warm(&self) -> WarmCheckpoint {
        WarmCheckpoint {
            functional: self.functional.clone(),
            l1d: self.l1d.array.clone(),
            l1i: self.l1i.array.clone(),
            l2: self.l2.array.clone(),
            l1d_stats: self.l1d.stats,
            l1i_stats: self.l1i.stats,
            l2_stats: self.l2.stats,
            warm_clock: self.warm_clock,
        }
    }

    /// Restores a [`WarmCheckpoint`] into this (freshly built) system, as
    /// if every warm instruction had just been replayed through
    /// [`warm_inst`](MemorySystem::warm_inst) with a mechanism that never
    /// touches cache contents. Mechanism tables are *not* part of the
    /// checkpoint; warm them with
    /// [`replay_warm_events`](MemorySystem::replay_warm_events).
    pub fn restore_warm(&mut self, checkpoint: &WarmCheckpoint) {
        self.functional = checkpoint.functional.clone();
        self.l1d.array = checkpoint.l1d.clone();
        self.l1i.array = checkpoint.l1i.clone();
        self.l2.array = checkpoint.l2.clone();
        self.l1d.stats = checkpoint.l1d_stats;
        self.l1i.stats = checkpoint.l1i_stats;
        self.l2.stats = checkpoint.l2_stats;
        self.warm_clock = checkpoint.warm_clock;
        self.now = Cycle::new(self.warm_clock);
        self.warm_last_iline = None;
        self.warm_last_dline = None;
    }

    /// Replays a recorded warm event stream into the attached mechanisms,
    /// reproducing exactly the hook sequence a full warm phase would have
    /// fired at their slots. Only valid for mechanisms that opt in via
    /// [`warm_events_only`](microlib_model::Mechanism::warm_events_only)
    /// — the replay assumes probes miss, victims are dropped and no
    /// spills occur, which is those mechanisms' contract.
    pub fn replay_warm_events(&mut self, log: &WarmLog) {
        self.warming = true;
        // Tick boundaries are synthesized, not stored: warm instruction
        // `i` (1-based) runs at clock `2 * i`, fires its events, then each
        // slot ticks and has its prefetch queue cleared — exactly
        // `warm_inst`'s order.
        let mut events = log.events().iter().peekable();
        for i in 1..=log.insts() {
            let now = Cycle::new(2 * i);
            while let Some(ev) = events.peek() {
                if self.warm_event_clock(ev) > now {
                    break;
                }
                self.replay_one_warm_event(ev);
                events.next();
            }
            self.replay_warm_tick(AttachPoint::L1Data, now);
            self.replay_warm_tick(AttachPoint::L2Unified, now);
        }
        debug_assert!(events.peek().is_none(), "warm events beyond the last tick");
        self.warming = false;
    }

    fn warm_event_clock(&self, ev: &WarmEvent) -> Cycle {
        match ev {
            WarmEvent::Probe { now, .. } => *now,
            WarmEvent::Access { event, .. } => event.now,
            WarmEvent::Evict { event } => event.now,
            WarmEvent::Refill { event, .. } => event.now,
        }
    }

    fn replay_one_warm_event(&mut self, ev: &WarmEvent) {
        match ev {
            WarmEvent::Probe { line, now } => {
                if let Some(slot) = &mut self.l1_mech {
                    let hit = slot.mech.probe(*line, *now);
                    debug_assert!(
                        hit.is_none(),
                        "{}: probe serviced during warm replay, but the mechanism \
                         claims warm_events_only",
                        slot.mech.name()
                    );
                }
            }
            WarmEvent::Access { at, event } => {
                if let Some(slot) = self.slot_mut(*at) {
                    slot.mech.on_access(event, &mut slot.queue);
                }
            }
            WarmEvent::Evict { event } => {
                if let Some(slot) = &mut self.l1_mech {
                    let action = slot.mech.on_evict(event);
                    debug_assert_eq!(
                        action,
                        VictimAction::Dropped,
                        "{}: victim captured during warm replay, but the mechanism \
                         claims warm_events_only",
                        slot.mech.name()
                    );
                }
            }
            WarmEvent::Refill { at, event } => {
                if let Some(slot) = self.slot_mut(*at) {
                    slot.mech.on_refill(event, &mut slot.queue);
                }
            }
        }
    }

    fn replay_warm_tick(&mut self, at: AttachPoint, now: Cycle) {
        if let Some(slot) = self.slot_mut(at) {
            slot.mech.tick(now);
            slot.queue.clear();
            // `warm_events_only` mechanisms never spill; a violation is a
            // contract bug (asserted here), and in release the dropped
            // dirty data trips the value-integrity checker downstream
            // rather than being silently applied at synthesized clocks.
            debug_assert!(
                slot.mech.drain_spills().is_empty(),
                "spills during warm replay contradict warm_events_only"
            );
        }
    }

    fn slot_mut(&mut self, at: AttachPoint) -> Option<&mut MechSlot> {
        match at {
            AttachPoint::L1Data => self.l1_mech.as_mut(),
            AttachPoint::L2Unified => self.l2_mech.as_mut(),
        }
    }

    // ------------------------------------------------------------------
    // Per-cycle engine.
    // ------------------------------------------------------------------

    /// Advances the hierarchy to `now` (one call per CPU cycle, before any
    /// issue) and returns the requests that completed.
    pub fn begin_cycle(&mut self, now: Cycle) -> Vec<Completion> {
        let mut out = Vec::new();
        self.begin_cycle_into(now, &mut out);
        out
    }

    /// Allocation-free form of [`MemorySystem::begin_cycle`]: completions
    /// land in `out` (cleared first), so a driver loop can reuse one buffer
    /// for the whole run instead of allocating a `Vec` per cycle.
    pub fn begin_cycle_into(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        out.clear();
        self.now = now;
        self.l1d.begin_cycle();
        self.l1i.begin_cycle();
        self.l2.begin_cycle();
        self.completions.clear();

        self.pump_memory();
        self.pump_l2_refills();
        self.pump_l2_queue();
        self.pump_l1_fills();
        self.drain_prefetch_queues();
        self.tick_mechanisms();

        std::mem::swap(&mut self.completions, out);
    }

    fn pump_memory(&mut self) {
        // Feed the controller from the pending queue.
        while let Some(head) = self.mem_pending.front().copied() {
            if head.ready_at > self.now {
                break;
            }
            let token = self.fresh_token();
            if !self
                .memory
                .try_push(token, head.l2_line, head.is_write, self.now)
            {
                self.next_token -= 1;
                break; // controller queue full; retry next cycle
            }
            if !head.is_write {
                self.mem_inflight.push((token.0, head.l2_line));
            }
            self.mem_pending.pop_front();
        }
        // Collect finished transactions (into the reusable scratch — the
        // common idle tick must not allocate).
        let mut done = std::mem::take(&mut self.mem_done);
        self.memory.tick_into(self.now, &mut done);
        for d in done.drain(..) {
            if d.is_write {
                continue;
            }
            let Some(pos) = self.mem_inflight.iter().position(|&(t, _)| t == d.token.0) else {
                continue;
            };
            let (_, l2_line) = self.mem_inflight.swap_remove(pos);
            // Data returns over the memory bus.
            self.mem_bus.reserve(self.now, self.config.l2.line_bytes);
            self.l2_refills.push(L2Refill {
                l2_line,
                arrive: self.mem_bus.busy_until(),
            });
        }
        self.mem_done = done;
    }

    fn pump_l2_refills(&mut self) {
        let mut i = 0;
        while i < self.l2_refills.len() {
            if self.l2_refills[i].arrive > self.now {
                i += 1;
                continue;
            }
            if self.config.fidelity.refill_uses_port && !self.l2.port_available() {
                self.l2.stats.port_stalls += 1;
                i += 1;
                continue;
            }
            let refill = self.l2_refills.swap_remove(i);
            if self.config.fidelity.refill_uses_port {
                self.l2.take_port();
            }
            self.finish_l2_refill(refill.l2_line);
        }
    }

    fn finish_l2_refill(&mut self, l2_line: Addr) {
        let mut targets = std::mem::take(&mut self.mshr_targets);
        let entry = self.l2.mshr.complete_into(l2_line, &mut targets);
        self.mshr_targets = targets;
        // Drain this line's waiters in arrival order; `retain` keeps the
        // relative order of everyone else.
        let mut waiters = std::mem::take(&mut self.waiter_scratch);
        waiters.clear();
        self.l2_waiters.retain(|&(line, origin)| {
            if line == l2_line.raw() {
                waiters.push(origin);
                false
            } else {
                true
            }
        });
        let was_prefetch = entry.map(|e| e.is_prefetch).unwrap_or(false);
        let data = self.functional.dram().read_line(l2_line, 64);
        if !self.l2.array.contains(l2_line) {
            let victim = self.l2.array.fill(l2_line, data, false, was_prefetch);
            if was_prefetch {
                self.l2.stats.prefetch_fills += 1;
            } else {
                self.l2.stats.demand_fills += 1;
            }
            if let Some(v) = victim {
                self.handle_l2_victim(v);
            }
        }
        let cause = if was_prefetch {
            RefillCause::Prefetch
        } else {
            RefillCause::Demand
        };
        refill(&mut self.l2_mech, self.now, l2_line, data, cause);
        // Forward to the L1 requesters.
        for &waiter in &waiters {
            self.schedule_l1_fill_from_l2_delayed(l2_line, waiter, 0);
        }
        self.waiter_scratch = waiters;
    }

    fn pump_l2_queue(&mut self) {
        while let Some(front) = self.l2_queue.front() {
            let (L2Req::Demand { arrival, .. } | L2Req::Writeback { arrival }) = *front;
            if arrival > self.now || !self.l2.port_available() {
                break;
            }
            self.l2.take_port();
            // A writeback's data was merged eagerly; it only takes the port.
            if let Some(L2Req::Demand {
                l2_line,
                pc,
                kind,
                origin,
                ..
            }) = self.l2_queue.pop_front()
            {
                self.process_l2_demand(l2_line, pc, kind, origin);
            }
        }
    }

    fn process_l2_demand(&mut self, l2_line: Addr, pc: Addr, kind: AccessKind, origin: Origin) {
        let is_prefetch_origin = matches!(origin, Origin::L1Prefetch | Origin::L2Prefetch);
        if let Some(hit) = self.l2.array.lookup(l2_line) {
            if !is_prefetch_origin {
                if hit.first_touch_of_prefetch {
                    self.l2.stats.useful_prefetches += 1;
                }
                self.l2_demand_access(
                    pc,
                    l2_line,
                    kind,
                    AccessOutcome::Hit,
                    hit.first_touch_of_prefetch,
                );
            }
            // Respond after the L2 hit latency.
            self.schedule_l1_fill_from_l2_delayed(l2_line, origin, self.config.l2.latency);
            return;
        }
        // L2 miss. Sidecar probe (unused by the stock L2 mechanisms but part
        // of the generic protocol).
        let probe = self
            .l2_mech
            .as_mut()
            .and_then(|slot| slot.mech.probe(l2_line, self.now));
        if let Some(hit) = probe {
            self.l2.stats.sidecar_hits += 1;
            if !is_prefetch_origin {
                self.l2_demand_access(pc, l2_line, kind, AccessOutcome::SidecarHit, false);
            }
            let victim = self.l2.array.fill(l2_line, hit.data, hit.dirty, false);
            if let Some(v) = victim {
                self.handle_l2_victim(v);
            }
            self.schedule_l1_fill_from_l2_delayed(
                l2_line,
                origin,
                self.config.l2.latency + hit.extra_latency,
            );
            return;
        }

        match self.l2.mshr.try_insert(
            l2_line,
            internal_target(l2_line),
            is_prefetch_origin,
            self.now,
        ) {
            MshrOutcome::Allocated => {
                if !is_prefetch_origin {
                    self.l2.stats.misses += 1;
                    self.l2_demand_access(pc, l2_line, kind, AccessOutcome::Miss, false);
                    if let Some(slot) = &mut self.l2_mech {
                        slot.queue.cancel(l2_line);
                    }
                }
                self.l2_waiters.push((l2_line.raw(), origin));
                self.send_to_memory(l2_line, false, 8);
            }
            MshrOutcome::Merged => {
                if !is_prefetch_origin {
                    self.l2.stats.mshr_merges += 1;
                    if self.l2.mshr.is_prefetch_inflight(l2_line) {
                        self.l2.stats.useful_prefetches += 1;
                    }
                    self.l2_demand_access(pc, l2_line, kind, AccessOutcome::Miss, false);
                }
                self.l2_waiters.push((l2_line.raw(), origin));
            }
            MshrOutcome::FullStall | MshrOutcome::BusyStall | MshrOutcome::TargetStall => {
                // Head-of-line blocking: requeue at the front and retry next
                // cycle.
                self.l2.stats.mshr_full_stalls += 1;
                self.l2.ports_used -= 1; // the port was not really consumed
                self.l2_queue.push_front(L2Req::Demand {
                    l2_line,
                    pc,
                    kind,
                    origin,
                    arrival: self.now + 1,
                });
            }
        }
    }

    fn schedule_l1_fill_from_l2_delayed(&mut self, l2_line: Addr, origin: Origin, delay: u64) {
        if let Origin::L1BufferPrefetch { l1_line } = origin {
            // Buffer fills bypass the MSHR bookkeeping entirely.
            self.l1_l2_bus
                .reserve(self.now + delay, self.config.l1d.line_bytes);
            self.l1_fills.push(L1Fill {
                l1_line,
                instruction: false,
                prefetched: true,
                to_buffer: true,
                arrive: self.l1_l2_bus.busy_until(),
            });
            return;
        }
        let (instruction, prefetched) = match origin {
            Origin::L1D => (false, false),
            Origin::L1I => (true, false),
            Origin::L1Prefetch => (false, true),
            Origin::L1BufferPrefetch { .. } | Origin::L2Prefetch => return,
        };
        let l1_bytes = if instruction {
            self.config.l1i.line_bytes
        } else {
            self.config.l1d.line_bytes
        };
        let halves = (self.config.l2.line_bytes / l1_bytes) as usize;
        for h in 0..halves {
            let cand = l2_line.offset((h as i64) * l1_bytes as i64);
            let unit = if instruction { &self.l1i } else { &self.l1d };
            if unit.mshr.contains(cand)
                && !self
                    .l1_fills
                    .iter()
                    .any(|f| f.l1_line == cand && f.instruction == instruction && !f.to_buffer)
            {
                self.l1_l2_bus.reserve(self.now + delay, l1_bytes);
                self.l1_fills.push(L1Fill {
                    l1_line: cand,
                    instruction,
                    prefetched,
                    to_buffer: false,
                    arrive: self.l1_l2_bus.busy_until(),
                });
            }
        }
    }

    fn pump_l1_fills(&mut self) {
        let mut i = 0;
        while i < self.l1_fills.len() {
            if self.l1_fills[i].arrive > self.now {
                i += 1;
                continue;
            }
            let unit_is_inst = self.l1_fills[i].instruction;
            {
                let unit = if unit_is_inst {
                    &mut self.l1i
                } else {
                    &mut self.l1d
                };
                if self.config.fidelity.refill_uses_port && !unit.port_available() {
                    unit.stats.port_stalls += 1;
                    i += 1;
                    continue;
                }
                if self.config.fidelity.refill_uses_port {
                    unit.take_port();
                }
            }
            let fill = self.l1_fills.swap_remove(i);
            if fill.instruction {
                self.finish_l1i_fill(fill);
            } else {
                self.finish_l1d_fill(fill);
            }
        }
    }

    fn finish_l1i_fill(&mut self, fill: L1Fill) {
        let mut targets = std::mem::take(&mut self.mshr_targets);
        if self
            .l1i
            .mshr
            .complete_into(fill.l1_line, &mut targets)
            .is_some()
        {
            if !self.l1i.array.contains(fill.l1_line) {
                let words = (self.config.l1i.line_bytes / 8) as usize;
                self.l1i
                    .array
                    .fill(fill.l1_line, LineData::zeroed(words), false, false);
                self.l1i.stats.demand_fills += 1;
            }
            for t in &targets {
                if let Some(req) = t.req {
                    self.completions.push(Completion {
                        req,
                        at: self.now,
                        value: 0,
                    });
                }
            }
        }
        self.mshr_targets = targets;
    }

    fn finish_l1d_fill(&mut self, fill: L1Fill) {
        if fill.to_buffer {
            self.finish_buffer_fill(fill.l1_line);
            return;
        }
        let mut targets = std::mem::take(&mut self.mshr_targets);
        if let Some(entry) = self.l1d.mshr.complete_into(fill.l1_line, &mut targets) {
            self.install_l1d_fill(fill.l1_line, fill.prefetched && entry.is_prefetch, &targets);
        }
        self.mshr_targets = targets;
    }

    fn install_l1d_fill(&mut self, l1_line: Addr, prefetched: bool, targets: &[MshrTarget]) {
        let mut data = self.line_below_l1(l1_line);
        // Apply merged targets in arrival order; stores update the fill
        // data, loads observe the current value.
        let mut dirty = false;
        for t in targets {
            let off = (t.addr.offset_in_line(self.config.l1d.line_bytes) / 8) as usize;
            let value = if t.is_store {
                data.set_word(off, t.value);
                dirty = true;
                t.value
            } else {
                data.word(off)
            };
            if let Some(req) = t.req {
                if !t.is_store {
                    self.check_value(t.addr, value);
                }
                self.completions.push(Completion {
                    req,
                    at: self.now,
                    value,
                });
            }
        }

        if !self.l1d.array.contains(l1_line) {
            if prefetched {
                self.l1d.stats.prefetch_fills += 1;
            } else {
                self.l1d.stats.demand_fills += 1;
            }
            let victim = self.l1d.array.fill(l1_line, data, dirty, prefetched);
            if let Some(v) = victim {
                self.handle_l1_victim(v);
            }
        } else if dirty {
            // Extremely rare: line got installed by a sidecar swap while the
            // miss was in flight; merge the stores.
            for t in targets {
                if t.is_store {
                    self.l1d.array.write_word(t.addr, t.value);
                }
            }
        }

        // Cause is `Prefetch` only for buffer fills (`finish_buffer_fill`):
        // a cache-installed line must not be mirrored into a mechanism's
        // buffer, or the buffer copy would go stale when the cached copy
        // is written (value-integrity hazard).
        refill(
            &mut self.l1_mech,
            self.now,
            l1_line,
            data,
            RefillCause::Demand,
        );
    }

    /// Delivers a buffer-destination prefetch to the L1 mechanism — unless
    /// the line became L1-resident (or a demand miss is in flight) while
    /// the prefetch travelled, in which case the copy would go stale and is
    /// discarded. Buffer prefetches hold no MSHR entry.
    fn finish_buffer_fill(&mut self, l1_line: Addr) {
        if let Some(pos) = self
            .buffer_inflight
            .iter()
            .position(|&l| l == l1_line.raw())
        {
            self.buffer_inflight.swap_remove(pos);
        }
        if self.l1d.array.contains(l1_line) || self.l1d.mshr.contains(l1_line) {
            return;
        }
        let data = self.line_below_l1(l1_line);
        self.l1d.stats.prefetch_fills += 1;
        refill(
            &mut self.l1_mech,
            self.now,
            l1_line,
            data,
            RefillCause::Prefetch,
        );
    }

    /// Counts a demand access at the L2 and fires the L2 mechanism's
    /// access hook for it.
    fn l2_demand_access(
        &mut self,
        pc: Addr,
        l2_line: Addr,
        kind: AccessKind,
        outcome: AccessOutcome,
        first_touch: bool,
    ) {
        self.l2.count(kind);
        if let Some(slot) = &mut self.l2_mech {
            let value = self.functional.architectural(l2_line);
            let ev = AccessEvent {
                now: self.now,
                pc,
                addr: l2_line,
                line: l2_line,
                kind,
                outcome,
                first_touch_of_prefetch: first_touch,
                value: Some(value),
            };
            slot.mech.on_access(&ev, &mut slot.queue);
        }
    }

    fn drain_prefetch_queues(&mut self) {
        // L1-attached mechanism: up to two prefetches per cycle when the
        // L1<->L2 bus is idle and the MSHR can take them. (Buffer-destined
        // prefetches bypass the demand ports but compete for MSHRs and the
        // L2 path.)
        for _ in 0..4 {
            let Some(slot) = &mut self.l1_mech else { break };
            // Buffer-destined prefetches have their own path beside the L1
            // and do not need an MSHR entry; cache-destined ones do.
            let bus_nearly_idle = self.l1_l2_bus.busy_until() <= self.now + 2;
            if !(bus_nearly_idle && self.l1d.stalled_until <= self.now) {
                break;
            }
            let Some(req) = slot.queue.peek().copied() else {
                break;
            };
            if self.l1d.array.peek(req.line)
                || self.l1d.mshr.contains(req.line)
                || slot.mech.holds(req.line)
                || self.buffer_inflight.contains(&req.line.raw())
            {
                slot.queue.pop();
                continue;
            }
            if req.destination == PrefetchDestination::Buffer {
                // Dedicated prefetch-buffer path: no L1 MSHR entry; the
                // request competes for the L2 path only.
                slot.queue.pop();
                self.buffer_inflight.push(req.line.raw());
                self.send_miss_to_l2(
                    req.line,
                    Addr::NULL,
                    AccessKind::Load,
                    Origin::L1BufferPrefetch { l1_line: req.line },
                );
                continue;
            }
            if self.l1d.mshr.is_full() {
                break;
            }
            if self
                .l1d
                .mshr
                .try_insert(req.line, internal_target(req.line), true, self.now)
                .accepted()
            {
                slot.queue.pop();
                self.send_miss_to_l2(req.line, Addr::NULL, AccessKind::Load, Origin::L1Prefetch);
            } else {
                break;
            }
        }
        // L2-attached mechanism: one prefetch per cycle when the memory bus
        // is idle and the MSHR can take it. (The prefetch engine has its
        // own path into the miss machinery, so it does not compete for the
        // demand ports; it *does* compete for MSHRs, the memory bus and the
        // SDRAM queue — the contention effects of Figs 8/9.)
        let Some(slot) = &mut self.l2_mech else {
            return;
        };
        let bus_nearly_idle = self.mem_bus.busy_until() <= self.now + 5;
        if !bus_nearly_idle || self.l2.mshr.is_full() {
            return;
        }
        let Some(req) = slot.queue.peek().copied() else {
            return;
        };
        if self.l2.array.peek(req.line) || self.l2.mshr.contains(req.line) {
            slot.queue.pop();
        } else if self
            .l2
            .mshr
            .try_insert(req.line, internal_target(req.line), true, self.now)
            .accepted()
        {
            slot.queue.pop();
            self.l2_waiters.push((req.line.raw(), Origin::L2Prefetch));
            self.send_to_memory(req.line, false, 8);
        }
    }

    fn tick_mechanisms(&mut self) {
        let mut spills = Vec::new();
        if let Some(slot) = &mut self.l1_mech {
            slot.mech.tick(self.now);
            spills.extend(slot.mech.drain_spills().into_iter().map(|s| (true, s)));
        }
        if let Some(slot) = &mut self.l2_mech {
            slot.mech.tick(self.now);
            spills.extend(slot.mech.drain_spills().into_iter().map(|s| (false, s)));
        }
        for (from_l1, spill) in spills {
            if from_l1 {
                self.apply_writeback_to_l2(spill.line, &spill.data);
            } else {
                self.functional
                    .dram_mut()
                    .write_line(spill.line, &spill.data);
                self.send_to_memory(spill.line, true, spill.data.byte_len());
            }
        }
    }

    // ------------------------------------------------------------------
    // Statistics and introspection.
    // ------------------------------------------------------------------

    /// L1 data cache counters (excluding the warmup phase).
    pub fn l1d_stats(&self) -> CacheStats {
        self.l1d.stats - self.l1d_stats_base
    }

    /// L1 instruction cache counters (excluding the warmup phase).
    pub fn l1i_stats(&self) -> CacheStats {
        self.l1i.stats - self.l1i_stats_base
    }

    /// L2 counters (excluding the warmup phase).
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats - self.l2_stats_base
    }

    /// Main-memory counters (plus bus busy time folded in).
    pub fn memory_stats(&self) -> MemoryStats {
        let mut stats = self.memory.stats();
        stats.bus_busy_cycles = self.mem_bus.stats().busy_cycles;
        stats
    }

    /// The attached L1 mechanism's own counters, if one is attached.
    pub fn l1_mechanism_stats(&self) -> Option<MechanismStats> {
        self.l1_mech.as_ref().map(|s| s.mech.stats())
    }

    /// The attached L2 mechanism's own counters, if one is attached.
    pub fn l2_mechanism_stats(&self) -> Option<MechanismStats> {
        self.l2_mech.as_ref().map(|s| s.mech.stats())
    }

    /// Prefetch-queue counters for the L1 and L2 mechanism slots.
    pub fn prefetch_queue_stats(&self) -> (Option<PrefetchQueueStats>, Option<PrefetchQueueStats>) {
        (
            self.l1_mech.as_ref().map(|s| s.queue.stats()),
            self.l2_mech.as_ref().map(|s| s.queue.stats()),
        )
    }

    /// Whether any request (CPU-visible or internal) is still in flight.
    pub fn quiescent(&self) -> bool {
        self.l1d.mshr.is_empty()
            && self.l1i.mshr.is_empty()
            && self.l2.mshr.is_empty()
            && self.l2_queue.is_empty()
            && self.l1_fills.is_empty()
            && self.l2_refills.is_empty()
            && self.mem_pending.is_empty()
            && self.mem_inflight.is_empty()
            && self.buffer_inflight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microlib_model::{HardwareBudget, PrefetchRequest, SystemConfig};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn system(cfg: SystemConfig) -> MemorySystem {
        MemorySystem::new(cfg, Vec::new()).unwrap()
    }

    fn run_to_completion(
        mem: &mut MemorySystem,
        req: ReqId,
        start: Cycle,
        limit: u64,
    ) -> Completion {
        let mut now = start;
        for _ in 0..limit {
            now += 1;
            for done in mem.begin_cycle(now) {
                if done.req == req {
                    return done;
                }
            }
        }
        panic!("request {req:?} did not complete within {limit} cycles");
    }

    #[test]
    fn l1_hit_after_fill() {
        let mut mem = system(SystemConfig::baseline_constant_memory());
        mem.functional_mut()
            .initialize_word(Addr::new(0x1000), 0xAA);
        let now = Cycle::ZERO;
        mem.begin_cycle(now);
        let pending = match mem
            .try_load(Addr::new(0x40_0000), Addr::new(0x1000), now)
            .unwrap()
        {
            IssueResult::Pending(id) => id,
            other => panic!("expected miss, got {other:?}"),
        };
        let done = run_to_completion(&mut mem, pending, now, 500);
        assert_eq!(done.value, 0xAA);
        // Second access hits with L1 latency.
        let now = done.at + 1;
        mem.begin_cycle(now);
        match mem
            .try_load(Addr::new(0x40_0000), Addr::new(0x1008), now)
            .unwrap()
        {
            IssueResult::Done { at, value } => {
                assert_eq!(at, now + 1);
                assert_eq!(value, 0);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(mem.l1d_stats().misses, 1);
        assert_eq!(mem.l1d_stats().loads, 2);
        assert!(mem.integrity_error().is_none());
    }

    #[test]
    fn store_then_load_round_trip() {
        let mut mem = system(SystemConfig::baseline_constant_memory());
        let addr = Addr::new(0x2000);
        let now = Cycle::ZERO;
        mem.begin_cycle(now);
        let st = match mem
            .try_store(Addr::new(0x40_0000), addr, 0x77, now)
            .unwrap()
        {
            IssueResult::Pending(id) => id,
            other => panic!("cold store must miss: {other:?}"),
        };
        let done = run_to_completion(&mut mem, st, now, 500);
        let now = done.at + 1;
        mem.begin_cycle(now);
        match mem.try_load(Addr::new(0x40_0004), addr, now).unwrap() {
            IssueResult::Done { value, .. } => assert_eq!(value, 0x77),
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(mem.integrity_error().is_none());
    }

    #[test]
    fn same_line_accesses_merge_in_mshr() {
        let mut mem = system(SystemConfig::baseline_constant_memory());
        let now = Cycle::ZERO;
        mem.begin_cycle(now);
        let a = match mem.try_load(Addr::NULL, Addr::new(0x3000), now).unwrap() {
            IssueResult::Pending(id) => id,
            _ => unreachable!(),
        };
        // Next cycle (same line, different word) merges.
        let now = Cycle::new(1);
        mem.begin_cycle(now);
        let b = match mem.try_load(Addr::NULL, Addr::new(0x3008), now).unwrap() {
            IssueResult::Pending(id) => id,
            other => panic!("expected merge-pending, got {other:?}"),
        };
        assert_eq!(mem.l1d_stats().mshr_merges, 1);
        assert_eq!(mem.l1d_stats().misses, 1, "merged access is not a new miss");
        let d1 = run_to_completion(&mut mem, a, now, 500);
        // b completes at the same fill.
        assert!(d1.at.raw() > 0);
        let _ = b;
    }

    #[test]
    fn ports_are_enforced() {
        let mut mem = system(SystemConfig::baseline_constant_memory());
        // Warm one line, then hammer it with hits in a single cycle.
        let now = Cycle::ZERO;
        mem.begin_cycle(now);
        let p = match mem.try_load(Addr::NULL, Addr::new(0x1000), now).unwrap() {
            IssueResult::Pending(id) => id,
            _ => unreachable!(),
        };
        let d = run_to_completion(&mut mem, p, now, 500);
        let now = d.at + 1;
        mem.begin_cycle(now);
        // L1D has 4 ports; the 5th access in one cycle must be refused.
        let mut oks = 0;
        for _ in 0..5 {
            match mem.try_load(Addr::NULL, Addr::new(0x1008), now) {
                Ok(IssueResult::Done { .. }) => oks += 1,
                Ok(other) => panic!("expected hit, got {other:?}"),
                Err(IssueRejection::PortBusy) => {}
                Err(e) => panic!("unexpected rejection {e:?}"),
            }
        }
        assert_eq!(oks, 4);
        assert_eq!(mem.l1d_stats().port_stalls, 1);
    }

    #[test]
    fn mshr_busy_cycle_limits_allocations_per_cycle() {
        let mut mem = system(SystemConfig::baseline_constant_memory());
        let now = Cycle::ZERO;
        mem.begin_cycle(now);
        assert!(mem.try_load(Addr::NULL, Addr::new(0x1000), now).is_ok());
        // Second distinct-line miss in the same cycle hits the MSHR busy
        // window ("the MSHR is not available for one cycle").
        assert_eq!(
            mem.try_load(Addr::NULL, Addr::new(0x2000), now)
                .unwrap_err(),
            IssueRejection::MshrUnavailable
        );
    }

    #[test]
    fn mshr_capacity_limits_outstanding_misses() {
        let mut cfg = SystemConfig::baseline_constant_memory();
        cfg.l1d.mshr_entries = 2;
        let mut mem = system(cfg);
        let mut rejected = false;
        // Issue 3 distinct-line misses over several cycles (ports allow 4
        // per cycle but the MSHR busy-cycle limits allocations to 1/cycle).
        let mut issued = 0;
        for c in 0..10 {
            let now = Cycle::new(c);
            mem.begin_cycle(now);
            let addr = Addr::new(0x10_000 + issued * 0x1000);
            match mem.try_load(Addr::NULL, addr, now) {
                Ok(_) => issued += 1,
                Err(IssueRejection::MshrUnavailable) => {
                    if issued >= 2 {
                        rejected = true;
                        break;
                    }
                }
                Err(_) => {}
            }
            if issued == 3 {
                break;
            }
        }
        assert!(rejected, "third miss must be refused with 2 MSHRs");
    }

    #[test]
    fn infinite_mshr_mode_never_rejects_for_capacity() {
        let mut cfg = SystemConfig::baseline_constant_memory();
        cfg.fidelity = microlib_model::FidelityConfig::simplescalar_like();
        let mut mem = system(cfg);
        let mut issued = 0;
        for c in 0..40 {
            let now = Cycle::new(c);
            mem.begin_cycle(now);
            for p in 0..4 {
                let addr = Addr::new(0x100_000 + (issued * 4 + p) * 0x1000);
                if mem.try_load(Addr::NULL, addr, now).is_ok() {
                    issued += 1;
                }
            }
        }
        assert!(
            issued > 20,
            "idealized model should accept many misses, got {issued}"
        );
    }

    #[test]
    fn dirty_eviction_writes_back_and_preserves_value() {
        let mut cfg = SystemConfig::baseline_constant_memory();
        // Tiny L1 so evictions happen fast: 2 lines direct-mapped.
        cfg.l1d.size_bytes = 64;
        cfg.l1d.mshr_entries = 8;
        let mut mem = system(cfg);
        let addr_a = Addr::new(0x1_0000);
        let addr_b = Addr::new(0x1_0040); // same L1 set (2 sets, stride 64)

        let now = Cycle::ZERO;
        mem.begin_cycle(now);
        let st = match mem.try_store(Addr::NULL, addr_a, 0xBEEF, now).unwrap() {
            IssueResult::Pending(id) => id,
            _ => unreachable!(),
        };
        let d = run_to_completion(&mut mem, st, now, 500);
        // Evict line A by loading B (same set).
        let now = d.at + 1;
        mem.begin_cycle(now);
        let ld = match mem.try_load(Addr::NULL, addr_b, now).unwrap() {
            IssueResult::Pending(id) => id,
            _ => unreachable!(),
        };
        let d2 = run_to_completion(&mut mem, ld, now, 500);
        // Reload A: value must survive the round trip.
        let now = d2.at + 1;
        mem.begin_cycle(now);
        match mem.try_load(Addr::NULL, addr_a, now) {
            Ok(IssueResult::Pending(id)) => {
                let d3 = run_to_completion(&mut mem, id, now, 500);
                assert_eq!(d3.value, 0xBEEF);
            }
            Ok(IssueResult::Done { value, .. }) => assert_eq!(value, 0xBEEF),
            Err(e) => panic!("rejected: {e:?}"),
        }
        assert!(mem.l1d_stats().writebacks >= 1);
        assert!(mem.integrity_error().is_none());
    }

    #[test]
    fn writeback_drop_fault_is_caught_by_integrity_checker() {
        let mut cfg = SystemConfig::baseline_constant_memory();
        cfg.l1d.size_bytes = 64;
        let mut mem = system(cfg);
        mem.inject_writeback_drop_fault(true);
        let addr_a = Addr::new(0x1_0000);
        let addr_b = Addr::new(0x1_0040);

        let now = Cycle::ZERO;
        mem.begin_cycle(now);
        let st = match mem.try_store(Addr::NULL, addr_a, 0xBEEF, now).unwrap() {
            IssueResult::Pending(id) => id,
            _ => unreachable!(),
        };
        let d = run_to_completion(&mut mem, st, now, 500);
        let now = d.at + 1;
        mem.begin_cycle(now);
        let ld = match mem.try_load(Addr::NULL, addr_b, now).unwrap() {
            IssueResult::Pending(id) => id,
            _ => unreachable!(),
        };
        let d2 = run_to_completion(&mut mem, ld, now, 500);
        let now = d2.at + 1;
        mem.begin_cycle(now);
        match mem.try_load(Addr::NULL, addr_a, now) {
            Ok(IssueResult::Pending(id)) => {
                let _ = run_to_completion(&mut mem, id, now, 500);
            }
            Ok(IssueResult::Done { .. }) => {}
            Err(e) => panic!("rejected: {e:?}"),
        }
        let err = mem.integrity_error().expect("fault must be detected");
        assert_eq!(err.expected, 0xBEEF);
    }

    #[test]
    fn ifetch_hits_after_first_miss() {
        let mut mem = system(SystemConfig::baseline_constant_memory());
        let pc = Addr::new(0x40_0000);
        let now = Cycle::ZERO;
        mem.begin_cycle(now);
        let pending = match mem.try_ifetch(pc, now).unwrap() {
            IssueResult::Pending(id) => id,
            _ => unreachable!(),
        };
        let d = run_to_completion(&mut mem, pending, now, 500);
        let now = d.at + 1;
        mem.begin_cycle(now);
        match mem.try_ifetch(Addr::new(0x40_0008), now).unwrap() {
            IssueResult::Done { .. } => {}
            other => panic!("expected I-hit, got {other:?}"),
        }
        assert_eq!(mem.l1i_stats().misses, 1);
    }

    #[test]
    fn sdram_memory_end_to_end() {
        let mut mem = system(SystemConfig::baseline());
        mem.functional_mut().initialize_word(Addr::new(0x8000), 123);
        let now = Cycle::ZERO;
        mem.begin_cycle(now);
        let pending = match mem.try_load(Addr::NULL, Addr::new(0x8000), now).unwrap() {
            IssueResult::Pending(id) => id,
            _ => unreachable!(),
        };
        let done = run_to_completion(&mut mem, pending, now, 2000);
        assert_eq!(done.value, 123);
        // SDRAM latency: at least tRCD + CAS + L2 latency.
        assert!(done.at.raw() > 70, "SDRAM round trip too fast: {}", done.at);
        assert_eq!(mem.memory_stats().requests, 1);
        assert!(mem.quiescent());
    }

    #[test]
    fn duplicate_mechanism_attach_rejected() {
        use microlib_model::BaseMechanism;
        let r = MemorySystem::new(
            SystemConfig::baseline(),
            vec![
                Box::new(BaseMechanism::new()),
                Box::new(BaseMechanism::new()),
            ],
        );
        assert!(r.is_err());
    }

    #[test]
    fn l2_observes_l1_misses_only() {
        let mut mem = system(SystemConfig::baseline_constant_memory());
        let now = Cycle::ZERO;
        mem.begin_cycle(now);
        let p = match mem.try_load(Addr::NULL, Addr::new(0x9000), now).unwrap() {
            IssueResult::Pending(id) => id,
            _ => unreachable!(),
        };
        let d = run_to_completion(&mut mem, p, now, 500);
        // L1 hit afterwards must not touch L2.
        let l2_loads_before = mem.l2_stats().loads;
        let now = d.at + 1;
        mem.begin_cycle(now);
        mem.try_load(Addr::NULL, Addr::new(0x9008), now).unwrap();
        assert_eq!(mem.l2_stats().loads, l2_loads_before);
    }

    /// An L1 mechanism that asks for one buffer-destination prefetch of
    /// `line` on its first access and logs every refill it is handed.
    struct BufferPrefetcher {
        line: Addr,
        asked: bool,
        refills: Rc<RefCell<Vec<RefillEvent>>>,
    }

    impl Mechanism for BufferPrefetcher {
        fn name(&self) -> &str {
            "buffer-test"
        }

        fn attach_point(&self) -> AttachPoint {
            AttachPoint::L1Data
        }

        fn on_access(&mut self, _event: &AccessEvent, prefetch: &mut PrefetchQueue) {
            if !self.asked {
                self.asked = true;
                prefetch.push(PrefetchRequest {
                    line: self.line,
                    destination: PrefetchDestination::Buffer,
                });
            }
        }

        fn on_refill(&mut self, event: &RefillEvent, _prefetch: &mut PrefetchQueue) {
            self.refills.borrow_mut().push(*event);
        }

        fn hardware(&self) -> HardwareBudget {
            HardwareBudget::none("buffer-test")
        }
    }

    /// A constant-memory system whose L1 mechanism buffer-prefetches the
    /// upper half (`0x8020`) of L2 line `0x8000`, with distinct words in
    /// the two halves; returns the system and the mechanism's refill log.
    fn buffer_prefetch_system() -> (MemorySystem, Rc<RefCell<Vec<RefillEvent>>>) {
        let refills = Rc::new(RefCell::new(Vec::new()));
        let mech = BufferPrefetcher {
            line: Addr::new(0x8020),
            asked: false,
            refills: Rc::clone(&refills),
        };
        let mut mem = MemorySystem::new(
            SystemConfig::baseline_constant_memory(),
            vec![Box::new(mech)],
        )
        .unwrap();
        mem.functional_mut()
            .initialize_word(Addr::new(0x8000), 0x1111);
        mem.functional_mut()
            .initialize_word(Addr::new(0x8020), 0xBEEF);
        (mem, refills)
    }

    /// Steps the system until nothing is in flight.
    fn run_until_quiescent(mem: &mut MemorySystem, mut now: Cycle) {
        for _ in 0..1_000 {
            if mem.quiescent() {
                return;
            }
            now += 1;
            mem.begin_cycle(now);
        }
        panic!("memory system still busy at {now}");
    }

    #[test]
    fn buffer_prefetch_delivers_line_to_mechanism() {
        let (mut mem, refills) = buffer_prefetch_system();
        let line = Addr::new(0x8020);
        let now = Cycle::ZERO;
        mem.begin_cycle(now);
        // Any access triggers the prefetch request.
        mem.try_load(Addr::NULL, Addr::new(0x1000), now).unwrap();
        let mut now = now;
        while !mem.buffer_inflight.contains(&line.raw()) {
            now += 1;
            assert!(now.raw() < 100, "prefetch never issued");
            mem.begin_cycle(now);
        }
        assert!(
            !mem.l1d.mshr.contains(line),
            "a buffer prefetch holds no L1 MSHR entry"
        );
        run_until_quiescent(&mut mem, now);

        let refills = refills.borrow();
        let prefetched: Vec<_> = refills.iter().filter(|e| e.line == line).collect();
        assert_eq!(prefetched.len(), 1, "{refills:?}");
        assert_eq!(prefetched[0].cause, RefillCause::Prefetch);
        assert_eq!(
            prefetched[0].data.word(0),
            0xBEEF,
            "upper half of the L2 line"
        );
        assert_eq!(mem.l1d_stats().prefetch_fills, 1);
        assert!(
            !mem.l1d.array.peek(line),
            "buffer fills bypass the L1 array"
        );
        assert!(mem.buffer_inflight.is_empty());
    }

    #[test]
    fn buffer_prefetch_is_discarded_behind_demand_miss() {
        let (mut mem, refills) = buffer_prefetch_system();
        let line = Addr::new(0x8020);
        let mut now = Cycle::ZERO;
        mem.begin_cycle(now);
        mem.try_load(Addr::NULL, Addr::new(0x1000), now).unwrap();
        while !mem.buffer_inflight.contains(&line.raw()) {
            now += 1;
            assert!(now.raw() < 100, "prefetch never issued");
            mem.begin_cycle(now);
        }
        // A demand miss on the prefetched line while the prefetch travels.
        let demand = loop {
            match mem.try_load(Addr::NULL, Addr::new(0x8020), now) {
                Ok(IssueResult::Pending(id)) => break id,
                Ok(other) => panic!("line cannot be resident yet: {other:?}"),
                Err(_) => {
                    now += 1;
                    mem.begin_cycle(now);
                }
            }
        };
        let done = run_to_completion(&mut mem, demand, now, 1_000);
        assert_eq!(done.value, 0xBEEF);
        run_until_quiescent(&mut mem, done.at);

        let refills = refills.borrow();
        assert!(
            refills
                .iter()
                .all(|e| e.line != line || e.cause == RefillCause::Demand),
            "stale buffer copy delivered: {refills:?}"
        );
        assert_eq!(mem.l1d_stats().prefetch_fills, 0);
        assert!(mem.buffer_inflight.is_empty());
        assert!(mem.integrity_error().is_none());
    }
}
