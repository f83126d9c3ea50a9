//! The out-of-order superscalar core: an RUU/LSQ machine in the
//! sim-outorder mould, driven by dependency-explicit traces.
//!
//! Per cycle (in order): apply memory completions → writeback → commit →
//! issue → dispatch → fetch. The core is trace-driven: wrong-path execution
//! is not simulated; a mispredicted branch instead blocks fetch until it
//! resolves and then pays the front-end refill penalty — the standard
//! trace-driven approximation, which preserves the property the paper's
//! experiments rely on (IPC sensitivity to memory latency and bandwidth).
//!
//! # Data layout
//!
//! The instruction window is a fixed-capacity ring of parallel arrays
//! (structure-of-arrays): a slot's index is `seq & mask` where the ring
//! capacity is `ruu_entries` rounded up to a power of two, so the window's
//! contiguous sequence numbers `[base, next_seq)` map to distinct slots
//! and nothing is ever moved or reallocated per cycle. On top of the ring:
//!
//! - **ready / executing bitsets** (one bit per slot). The issue stage
//!   scans the ready bitset with `trailing_zeros`, rotated to start at the
//!   window head, which visits slots in exactly the ascending-seq program
//!   order the historical scan used. Writeback scans only the executing
//!   bits instead of every window slot.
//! - **an intrusive wakeup network**: `wake_head[producer]` starts a chain
//!   through `wake_next[consumer * 2 + operand]`, so registering and firing
//!   a dependence allocates nothing.
//! - **an open-addressed store index** mapping a word address to the chain
//!   of in-window stores to that word (through `store_next`), which serves
//!   LSQ disambiguation without hashing allocations.
//!
//! Debug builds cross-check every issue against a retained reference
//! dependency scan (`deps_ready`), so the bitset/wakeup machinery cannot
//! silently drift from the architectural definition.

use crate::fu::{latency, FuPool};
use microlib_mem::{Completion, IssueRejection, IssueResult, MemorySystem, ReqId};
use microlib_model::{Addr, CoreConfig, Cycle};
use microlib_trace::{OpClass, TraceInst};
use std::collections::VecDeque;

/// Null link in the intrusive slot chains (wakeup network, store index).
const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SlotState {
    /// Waiting for operands / a functional unit / the cache.
    Waiting,
    /// Executing; completes at the cycle in `done_at`.
    Executing,
    /// Load waiting on a memory response.
    WaitingMem,
    /// Finished executing (result available to dependents).
    Completed,
}

microlib_model::counters! {
    /// Aggregate counters for one simulation run of the core. Every counter is
    /// maintained incrementally in the pipeline stages — nothing is re-derived
    /// by scanning the window.
    #[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
    pub struct CoreStats {
        /// Instructions committed.
        pub committed: u64,
        /// Cycles simulated.
        pub cycles: u64,
        /// Instructions fetched.
        pub fetched: u64,
        /// Cycles fetch was blocked on an unresolved mispredicted branch.
        pub mispredict_stall_cycles: u64,
        /// Cycles fetch was blocked on an instruction-cache miss.
        pub icache_stall_cycles: u64,
        /// Loads satisfied by store-to-load forwarding in the LSQ.
        pub loads_forwarded: u64,
        /// Issue attempts refused by the cache (ports/MSHR/pipeline).
        pub cache_reject_stalls: u64,
        /// Cycles dispatch stalled because the RUU was full.
        pub window_full_stalls: u64,
        /// Cycles dispatch stalled because the LSQ was full.
        pub lsq_full_stalls: u64,
        /// Cycles commit stalled because a store could not reach the cache.
        pub store_commit_stalls: u64,
    }
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

/// One entry of the open-addressed store index: a word address and the
/// head/tail slots of its chain of in-window stores (ascending program
/// order, linked through the core's `store_next` column).
#[derive(Clone, Copy, Debug)]
struct StoreEntry {
    word: u64,
    head: u32,
    tail: u32,
}

/// Open-addressed (linear probing) map from word address to the in-window
/// stores on that word. Capacity is fixed at twice the window ring — the
/// window can hold at most `cap` stores, so the load factor never exceeds
/// one half, probes stay short and the table can never fill. Deletion uses
/// backward shifting, so there are no tombstones to accumulate over a run.
#[derive(Debug)]
struct StoreIndex {
    entries: Box<[StoreEntry]>,
    mask: usize,
    /// `64 - log2(capacity)`: hashes take the top bits of a Fibonacci mix.
    shift: u32,
}

impl StoreIndex {
    fn new(window_cap: usize) -> Self {
        let cap = (window_cap * 2).next_power_of_two();
        StoreIndex {
            entries: vec![
                StoreEntry {
                    word: 0,
                    head: NONE,
                    tail: NONE,
                };
                cap
            ]
            .into_boxed_slice(),
            mask: cap - 1,
            shift: 64 - cap.trailing_zeros(),
        }
    }

    #[inline]
    fn home(&self, word: u64) -> usize {
        (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    #[inline]
    fn find(&self, word: u64) -> Option<usize> {
        let mut i = self.home(word);
        loop {
            let e = &self.entries[i];
            if e.head == NONE {
                return None;
            }
            if e.word == word {
                return Some(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// First (oldest) store slot on `word`, or [`NONE`].
    #[inline]
    fn head(&self, word: u64) -> u32 {
        self.find(word)
            .map(|i| self.entries[i].head)
            .unwrap_or(NONE)
    }

    /// Appends `slot` (the youngest store on `word`) to the chain.
    fn push_tail(&mut self, word: u64, slot: u32, store_next: &mut [u32]) {
        let mut i = self.home(word);
        loop {
            let e = &mut self.entries[i];
            if e.head == NONE {
                *e = StoreEntry {
                    word,
                    head: slot,
                    tail: slot,
                };
                store_next[slot as usize] = NONE;
                return;
            }
            if e.word == word {
                store_next[e.tail as usize] = slot;
                store_next[slot as usize] = NONE;
                e.tail = slot;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Removes and returns the oldest store slot on `word` (which must be
    /// indexed); drops the table entry when the chain empties.
    fn pop_head(&mut self, word: u64, store_next: &[u32]) -> u32 {
        let i = self.find(word).expect("indexed at dispatch");
        let head = self.entries[i].head;
        let next = store_next[head as usize];
        if next == NONE {
            self.remove(i);
        } else {
            self.entries[i].head = next;
        }
        head
    }

    /// Backward-shift deletion: close the probe gap at `i` by pulling back
    /// any later entry whose probe path from its home slot passes through
    /// `i` (keeps every remaining entry reachable without tombstones).
    fn remove(&mut self, mut i: usize) {
        loop {
            self.entries[i].head = NONE;
            let mut j = i;
            loop {
                j = (j + 1) & self.mask;
                if self.entries[j].head == NONE {
                    return;
                }
                let k = self.home(self.entries[j].word);
                let passes_through_hole = if i <= j {
                    k <= i || k > j
                } else {
                    k <= i && k > j
                };
                if passes_through_hole {
                    self.entries[i] = self.entries[j];
                    i = j;
                    break;
                }
            }
        }
    }
}

/// The out-of-order core.
///
/// Drive it with [`OoOCore::cycle`] once per cycle, passing the memory
/// system (already advanced via
/// [`MemorySystem::begin_cycle`]) and the trace source. See
/// `microlib::Simulator` for the canonical driver loop.
#[derive(Debug)]
pub struct OoOCore {
    config: CoreConfig,
    /// Ring capacity: `ruu_entries` rounded up to a power of two.
    cap: usize,
    /// `cap - 1`; a slot's ring position is `seq & mask`.
    mask: u64,
    /// Oldest in-window sequence number (== `next_seq` when empty).
    base: u64,
    /// Sequence number the next dispatched instruction will get.
    next_seq: u64,

    // ---- the window ring, one parallel column per field -------------
    op: Box<[OpClass]>,
    pc: Box<[Addr]>,
    mem_addr: Box<[Addr]>,
    store_value: Box<[u64]>,
    state: Box<[SlotState]>,
    done_at: Box<[Cycle]>,
    /// Producers this instruction still waits on (0, 1 or 2); maintained
    /// by the wakeup network, `issue` only ever sees slots at 0.
    pending_deps: Box<[u8]>,
    /// Next-younger in-window store on the same word ([`StoreIndex`]).
    store_next: Box<[u32]>,
    /// Wakeup network: head of the producer's consumer chain.
    wake_head: Box<[u32]>,
    /// Wakeup network links, indexed by `consumer_slot * 2 + operand`.
    wake_next: Box<[u32]>,
    /// Retained reference operand lists for the debug cross-check.
    #[cfg(debug_assertions)]
    dbg_src_deps: Box<[[Option<u32>; 2]]>,

    /// One bit per slot: `Waiting` with all producers complete. The issue
    /// stage scans exactly this set in program order.
    ready: Box<[u64]>,
    /// One bit per slot: in `Executing` state (writeback scans only these).
    executing_bits: Box<[u64]>,
    /// Population count of `executing_bits` (writeback early-out).
    executing: u32,

    lsq_used: u32,
    /// In-window stores indexed by word address — LSQ disambiguation
    /// without per-access hashing or allocation.
    store_index: StoreIndex,
    /// Outstanding load requests: `(request, seq)`, scanned linearly (the
    /// LSQ bounds the population to a handful).
    mem_requests: Vec<(ReqId, u64)>,

    fetch_buffer: VecDeque<TraceInst>,
    fetch_blocked_until: Cycle,
    blocking_branch: Option<u64>,
    ifetch_pending: Option<ReqId>,
    last_fetch_line: Option<Addr>,

    /// Scratch: the issue stage's program-order ready snapshot.
    ready_scratch: Vec<u32>,
    /// Scratch: slots of the load batch being accumulated.
    batch_slots: Vec<u32>,
    /// Scratch: `(pc, addr)` pairs handed to the hierarchy per batch.
    batch_reqs: Vec<(Addr, Addr)>,
    /// Scratch: per-entry results returned by the hierarchy.
    batch_results: Vec<Result<IssueResult, IssueRejection>>,

    fus: FuPool,
    stats: CoreStats,
    trace_done: bool,
}

impl OoOCore {
    /// Creates a core with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new(config: CoreConfig) -> Self {
        config.validate().expect("invalid core configuration");
        let cap = (config.ruu_entries as usize).next_power_of_two();
        let words = cap.div_ceil(64);
        OoOCore {
            fus: FuPool::new(&config),
            config,
            cap,
            mask: (cap - 1) as u64,
            base: 0,
            next_seq: 0,
            op: vec![OpClass::IntAlu; cap].into_boxed_slice(),
            pc: vec![Addr::NULL; cap].into_boxed_slice(),
            mem_addr: vec![Addr::NULL; cap].into_boxed_slice(),
            store_value: vec![0; cap].into_boxed_slice(),
            state: vec![SlotState::Waiting; cap].into_boxed_slice(),
            done_at: vec![Cycle::ZERO; cap].into_boxed_slice(),
            pending_deps: vec![0; cap].into_boxed_slice(),
            store_next: vec![NONE; cap].into_boxed_slice(),
            wake_head: vec![NONE; cap].into_boxed_slice(),
            wake_next: vec![NONE; cap * 2].into_boxed_slice(),
            #[cfg(debug_assertions)]
            dbg_src_deps: vec![[None, None]; cap].into_boxed_slice(),
            ready: vec![0; words].into_boxed_slice(),
            executing_bits: vec![0; words].into_boxed_slice(),
            executing: 0,
            lsq_used: 0,
            store_index: StoreIndex::new(cap),
            mem_requests: Vec::new(),
            fetch_buffer: VecDeque::new(),
            fetch_blocked_until: Cycle::ZERO,
            blocking_branch: None,
            ifetch_pending: None,
            last_fetch_line: None,
            ready_scratch: Vec::new(),
            batch_slots: Vec::new(),
            batch_reqs: Vec::new(),
            batch_results: Vec::new(),
            stats: CoreStats::default(),
            trace_done: false,
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// Whether every fetched instruction has committed and the trace is
    /// exhausted.
    pub fn drained(&self) -> bool {
        self.trace_done && self.base == self.next_seq && self.fetch_buffer.is_empty()
    }

    #[inline]
    fn pos_of(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// Sequence number of the instruction in ring slot `pos` (which must
    /// be occupied).
    #[inline]
    fn seq_at(&self, pos: usize) -> u64 {
        let head = (self.base & self.mask) as usize;
        let offset = (pos + self.cap - head) & (self.cap - 1);
        self.base + offset as u64
    }

    #[inline]
    fn set_ready(&mut self, pos: usize) {
        self.ready[pos >> 6] |= 1u64 << (pos & 63);
    }

    #[inline]
    fn clear_ready(&mut self, pos: usize) {
        self.ready[pos >> 6] &= !(1u64 << (pos & 63));
    }

    #[inline]
    fn set_executing(&mut self, pos: usize) {
        self.executing_bits[pos >> 6] |= 1u64 << (pos & 63);
        self.executing += 1;
    }

    #[cfg(debug_assertions)]
    fn producer_ready(&self, consumer_seq: u64, distance: u32) -> bool {
        let Some(producer_seq) = consumer_seq.checked_sub(distance as u64) else {
            return true;
        };
        if producer_seq < self.base {
            return true; // producer already committed
        }
        self.state[self.pos_of(producer_seq)] == SlotState::Completed
    }

    /// Reference dependency check (scan form) — the wakeup network must
    /// always agree with it; debug builds assert so on every issue.
    #[cfg(debug_assertions)]
    fn deps_ready(&self, pos: usize) -> bool {
        let seq = self.seq_at(pos);
        self.dbg_src_deps[pos]
            .iter()
            .flatten()
            .all(|d| self.producer_ready(seq, *d))
    }

    /// Notifies `producer`'s registered consumers that it completed;
    /// consumers whose last outstanding producer this was become ready.
    fn wake_dependents(&mut self, producer: usize) {
        let mut node = self.wake_head[producer];
        self.wake_head[producer] = NONE;
        while node != NONE {
            let n = node as usize;
            node = self.wake_next[n];
            let consumer = n >> 1;
            debug_assert!(self.pending_deps[consumer] > 0);
            self.pending_deps[consumer] -= 1;
            if self.pending_deps[consumer] == 0 && self.state[consumer] == SlotState::Waiting {
                self.set_ready(consumer);
            }
        }
    }

    /// Slot of the youngest older store overlapping `addr`'s word, if any.
    /// Served from the store index; the chain is in ascending program
    /// order, so the last chain node older than the load is the answer.
    fn older_store_conflict(&self, load_pos: usize, addr: Addr) -> Option<usize> {
        let mut node = self.store_index.head(addr.word_index());
        if node == NONE {
            return None;
        }
        let load_seq = self.seq_at(load_pos);
        let mut youngest_older = NONE;
        while node != NONE && self.seq_at(node as usize) < load_seq {
            youngest_older = node;
            node = self.store_next[node as usize];
        }
        (youngest_older != NONE).then_some(youngest_older as usize)
    }

    /// Runs one cycle. `completions` are this cycle's memory completions
    /// (from [`MemorySystem::begin_cycle`]); `trace` supplies instructions.
    /// Returns the number of instructions committed this cycle.
    pub fn cycle(
        &mut self,
        now: Cycle,
        completions: &[Completion],
        mem: &mut MemorySystem,
        trace: &mut dyn Iterator<Item = TraceInst>,
    ) -> u64 {
        self.stats.cycles += 1;
        self.fus.begin_cycle();

        self.apply_completions(completions);
        self.writeback(now);
        let committed = self.commit(now, mem);
        self.issue(now, mem);
        self.dispatch();
        self.fetch(now, mem, trace);
        committed
    }

    fn apply_completions(&mut self, completions: &[Completion]) {
        for c in completions {
            let Some(i) = self.mem_requests.iter().position(|e| e.0 == c.req) else {
                continue; // retired store's write, or i-fetch handled below
            };
            let (_, seq) = self.mem_requests.swap_remove(i);
            if seq < self.base {
                continue;
            }
            debug_assert!(seq < self.next_seq);
            let pos = self.pos_of(seq);
            if self.state[pos] == SlotState::WaitingMem {
                self.state[pos] = SlotState::Completed;
                self.wake_dependents(pos);
            }
        }
        if let Some(pending) = self.ifetch_pending {
            if completions.iter().any(|c| c.req == pending) {
                self.ifetch_pending = None;
            }
        }
    }

    fn writeback(&mut self, now: Cycle) {
        if self.executing == 0 {
            return;
        }
        for w in 0..self.executing_bits.len() {
            let mut bits = self.executing_bits[w];
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                let pos = (w << 6) | b as usize;
                if self.done_at[pos] <= now {
                    self.executing_bits[w] &= !(1u64 << b);
                    self.executing -= 1;
                    self.state[pos] = SlotState::Completed;
                    if self.blocking_branch == Some(self.seq_at(pos)) {
                        self.blocking_branch = None;
                        self.fetch_blocked_until = now + self.config.mispredict_penalty;
                    }
                    self.wake_dependents(pos);
                }
            }
        }
    }

    fn commit(&mut self, now: Cycle, mem: &mut MemorySystem) -> u64 {
        let mut committed = 0;
        while committed < self.config.commit_width as u64 {
            if self.base == self.next_seq {
                break; // window empty
            }
            let pos = (self.base & self.mask) as usize;
            if self.state[pos] != SlotState::Completed {
                break;
            }
            let op = self.op[pos];
            if op == OpClass::Store {
                match mem.try_store(self.pc[pos], self.mem_addr[pos], self.store_value[pos], now) {
                    // Done, or retired into the "store buffer" (the MSHR
                    // owns a pending write).
                    Ok(_) => {}
                    Err(_) => {
                        self.stats.store_commit_stalls += 1;
                        break;
                    }
                }
                let popped = self
                    .store_index
                    .pop_head(self.mem_addr[pos].word_index(), &self.store_next);
                debug_assert_eq!(popped, pos as u32, "oldest store commits first");
            }
            if op.is_mem() {
                self.lsq_used -= 1;
            }
            debug_assert_eq!(self.wake_head[pos], NONE, "committed with live consumers");
            self.stats.committed += 1;
            committed += 1;
            self.base += 1;
        }
        committed
    }

    /// Snapshots the ready bitset as slot positions in program order: the
    /// scan starts at the window head's ring position and wraps, which is
    /// ascending sequence order for the (contiguous) window.
    fn collect_ready_in_order(&self, out: &mut Vec<u32>) {
        out.clear();
        let head = (self.base & self.mask) as usize;
        let head_word = head >> 6;
        let head_bit = head & 63;
        // Positions [head, cap): the window head onward.
        for w in head_word..self.ready.len() {
            let mut bits = self.ready[w];
            if w == head_word {
                bits &= !0u64 << head_bit;
            }
            while bits != 0 {
                out.push(((w as u32) << 6) | bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        // Wrapped positions [0, head).
        for w in 0..=head_word {
            let mut bits = self.ready[w];
            if w == head_word {
                bits &= (1u64 << head_bit) - 1;
            }
            while bits != 0 {
                out.push(((w as u32) << 6) | bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// Presents a run of accumulated conflict-free ready loads to the
    /// hierarchy as one batch. The observable call sequence is identical
    /// to issuing them back to back: the batch is sized by the functional
    /// units that would have accepted them (refused `try_issue` calls are
    /// pure, so eliding them changes nothing), the hierarchy applies the
    /// same per-entry access path in the same order and stops exactly
    /// where the historical loop stopped (issue width exhausted, or a
    /// rejection that blocks the memory path), and one unit is consumed
    /// per entry that reached the cache — accepted or rejected — just as
    /// the per-instruction loop did.
    #[allow(clippy::too_many_arguments)] // the issue loop's running state
    fn flush_load_batch(
        &mut self,
        now: Cycle,
        mem: &mut MemorySystem,
        batch: &[u32],
        issued: &mut u32,
        mem_path_blocked: &mut bool,
        lsq_backpressure: bool,
        reqs: &mut Vec<(Addr, Addr)>,
        results: &mut Vec<Result<IssueResult, IssueRejection>>,
    ) {
        let fu_available = self.fus.available(OpClass::Load, now) as usize;
        let attempt = batch.len().min(fu_available);
        if attempt == 0 {
            return; // no unit would accept: every load stays ready
        }
        reqs.clear();
        for &p in &batch[..attempt] {
            reqs.push((self.pc[p as usize], self.mem_addr[p as usize]));
        }
        let allowed = self.config.issue_width - *issued;
        let processed = mem.try_load_batch(reqs, now, allowed, results);
        debug_assert_eq!(processed, results.len());
        for (k, res) in results.iter().enumerate() {
            let pos = batch[k] as usize;
            let _accepted = self.fus.try_issue(OpClass::Load, now);
            debug_assert!(_accepted, "batch sized by FuPool::available");
            match res {
                Ok(IssueResult::Done { at, .. }) => {
                    self.state[pos] = SlotState::Executing;
                    self.done_at[pos] = *at;
                    self.set_executing(pos);
                    self.clear_ready(pos);
                    *issued += 1;
                }
                Ok(IssueResult::Pending(req)) => {
                    self.state[pos] = SlotState::WaitingMem;
                    self.mem_requests.push((*req, self.seq_at(pos)));
                    self.clear_ready(pos);
                    *issued += 1;
                }
                Err(reason) => {
                    self.stats.cache_reject_stalls += 1;
                    if lsq_backpressure || matches!(reason, IssueRejection::PortBusy) {
                        *mem_path_blocked = true;
                    }
                }
            }
        }
    }

    fn issue(&mut self, now: Cycle, mem: &mut MemorySystem) {
        let mut issued = 0u32;
        let mut mem_path_blocked = false;
        let lsq_backpressure = mem.config().fidelity.lsq_backpressure;
        let width = self.config.issue_width;
        // Snapshot the ready set (program order, exactly the order the
        // historical full-window scan visited issuable slots). Issue only
        // removes entries, never adds: nothing completes mid-issue, so no
        // slot can become ready here.
        let mut scratch = std::mem::take(&mut self.ready_scratch);
        self.collect_ready_in_order(&mut scratch);
        let mut batch = std::mem::take(&mut self.batch_slots);
        let mut reqs = std::mem::take(&mut self.batch_reqs);
        let mut results = std::mem::take(&mut self.batch_results);
        batch.clear();

        for &slot in &scratch {
            let pos = slot as usize;
            #[cfg(debug_assertions)]
            {
                debug_assert_eq!(self.state[pos], SlotState::Waiting);
                debug_assert!(self.deps_ready(pos), "ready set out of sync with deps");
            }
            let op = self.op[pos];
            // Conflict-free loads accumulate into a batch; `issued` cannot
            // change while one is open, so the width check made when it
            // opened stands for every entry that joins it.
            if op == OpClass::Load
                && !mem_path_blocked
                && self.older_store_conflict(pos, self.mem_addr[pos]).is_none()
            {
                if batch.is_empty() && issued >= width {
                    break;
                }
                batch.push(pos as u32);
                continue;
            }
            if !batch.is_empty() {
                self.flush_load_batch(
                    now,
                    mem,
                    &batch,
                    &mut issued,
                    &mut mem_path_blocked,
                    lsq_backpressure,
                    &mut reqs,
                    &mut results,
                );
                batch.clear();
            }
            if issued >= width {
                break;
            }
            match op {
                OpClass::Load => {
                    if mem_path_blocked {
                        continue;
                    }
                    // LSQ disambiguation: forward from (or wait on) the
                    // youngest older overlapping store. (Conflict-free
                    // loads joined the batch above.)
                    let st = self
                        .older_store_conflict(pos, self.mem_addr[pos])
                        .expect("conflict-free loads are batched");
                    if self.state[st] == SlotState::Completed
                        && self.fus.try_issue(OpClass::Load, now)
                    {
                        self.state[pos] = SlotState::Executing;
                        self.done_at[pos] = now + 1;
                        self.set_executing(pos);
                        self.clear_ready(pos);
                        self.stats.loads_forwarded += 1;
                        issued += 1;
                    }
                    // Store not executed yet: wait.
                }
                _ => {
                    // Stores only generate their address at issue; the
                    // cache write happens at commit.
                    if self.fus.try_issue(op, now) {
                        self.state[pos] = SlotState::Executing;
                        self.done_at[pos] = now + latency(op);
                        self.set_executing(pos);
                        self.clear_ready(pos);
                        issued += 1;
                    }
                }
            }
        }
        if !batch.is_empty() {
            self.flush_load_batch(
                now,
                mem,
                &batch,
                &mut issued,
                &mut mem_path_blocked,
                lsq_backpressure,
                &mut reqs,
                &mut results,
            );
            batch.clear();
        }
        self.ready_scratch = scratch;
        self.batch_slots = batch;
        self.batch_reqs = reqs;
        self.batch_results = results;
    }

    fn dispatch(&mut self) {
        for _ in 0..self.config.decode_width {
            if self.next_seq - self.base >= self.config.ruu_entries as u64 {
                self.stats.window_full_stalls += 1;
                break;
            }
            let Some(inst) = self.fetch_buffer.front() else {
                break;
            };
            if inst.op.is_mem() {
                if self.lsq_used >= self.config.lsq_entries {
                    self.stats.lsq_full_stalls += 1;
                    break;
                }
                self.lsq_used += 1;
            }
            let inst = self.fetch_buffer.pop_front().expect("peeked");
            let seq = self.next_seq;
            let pos = self.pos_of(seq);
            self.op[pos] = inst.op;
            self.pc[pos] = inst.pc;
            if let Some(m) = inst.mem {
                self.mem_addr[pos] = m.addr;
                self.store_value[pos] = m.value;
            }
            self.state[pos] = SlotState::Waiting;
            debug_assert_eq!(
                self.wake_head[pos], NONE,
                "recycled slot has stale consumers"
            );
            #[cfg(debug_assertions)]
            {
                self.dbg_src_deps[pos] = inst.src_deps;
            }
            if inst.op == OpClass::Store {
                let m = inst.mem.expect("store has memory ref");
                self.store_index
                    .push_tail(m.addr.word_index(), pos as u32, &mut self.store_next);
            }
            let mut pending = 0u8;
            for (operand, d) in inst.src_deps.iter().enumerate() {
                // No producer (distance reaches before the trace) or an
                // already-committed/completed one: nothing to wait for.
                let Some(d) = d else { continue };
                let Some(producer_seq) = seq.checked_sub(*d as u64) else {
                    continue;
                };
                if producer_seq < self.base {
                    continue;
                }
                let producer = self.pos_of(producer_seq);
                if self.state[producer] == SlotState::Completed {
                    continue;
                }
                pending += 1;
                let node = (pos as u32) * 2 + operand as u32;
                self.wake_next[node as usize] = self.wake_head[producer];
                self.wake_head[producer] = node;
            }
            self.pending_deps[pos] = pending;
            if pending == 0 {
                self.set_ready(pos);
            }
            self.next_seq += 1;
        }
    }

    fn fetch(
        &mut self,
        now: Cycle,
        mem: &mut MemorySystem,
        trace: &mut dyn Iterator<Item = TraceInst>,
    ) {
        if self.trace_done {
            return;
        }
        if self.blocking_branch.is_some() || self.fetch_blocked_until > now {
            self.stats.mispredict_stall_cycles += 1;
            return;
        }
        if self.ifetch_pending.is_some() {
            self.stats.icache_stall_cycles += 1;
            return;
        }
        // Keep the fetch buffer at most one fetch-group deep.
        if self.fetch_buffer.len() >= self.config.fetch_width as usize {
            return;
        }
        for _ in 0..self.config.fetch_width {
            let Some(inst) = trace.next() else {
                self.trace_done = true;
                break;
            };
            // Instruction-cache access, one new line per port per cycle.
            let line = inst.pc.line(mem.config().l1i.line_bytes);
            if Some(line) != self.last_fetch_line {
                match mem.try_ifetch(inst.pc, now) {
                    Ok(IssueResult::Done { .. }) => {
                        self.last_fetch_line = Some(line);
                    }
                    Ok(IssueResult::Pending(req)) => {
                        self.ifetch_pending = Some(req);
                        self.last_fetch_line = Some(line);
                        self.stats.fetched += 1;
                        self.push_fetched(inst);
                        break; // stall until the I-miss returns
                    }
                    Err(_) => {
                        // Port exhausted: put the instruction back by
                        // re-fetching it next cycle. Since the stream cannot
                        // be "un-advanced", buffer it and stop.
                        self.stats.fetched += 1;
                        self.push_fetched(inst);
                        break;
                    }
                }
            }
            self.stats.fetched += 1;
            let stop = self.push_fetched(inst);
            if stop {
                break;
            }
        }
    }

    /// Buffers a fetched instruction; returns `true` if fetch must stop
    /// this cycle (taken branch or mispredict).
    fn push_fetched(&mut self, inst: TraceInst) -> bool {
        let mut stop = false;
        if let Some(b) = inst.branch {
            if b.mispredicted {
                // Fetch stops until this branch resolves. Identify it by
                // the sequence number it will get.
                self.blocking_branch = Some(self.next_seq + self.fetch_buffer.len() as u64);
                stop = true;
            } else if b.taken {
                stop = true; // fetch discontinuity
            }
        }
        self.fetch_buffer.push_back(inst);
        stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microlib_model::SystemConfig;
    use microlib_trace::{BranchInfo, TraceInst};

    fn mem() -> MemorySystem {
        MemorySystem::new(SystemConfig::baseline_constant_memory(), Vec::new()).unwrap()
    }

    /// Pre-warms the I-line of the first instruction (so tests exercise
    /// scheduling, not cold-start I-misses), then drives the core to
    /// drain. Returns the core-loop cycle count (excluding the warmup).
    fn run(
        core: &mut OoOCore,
        mem: &mut MemorySystem,
        insts: Vec<TraceInst>,
        max_cycles: u64,
    ) -> u64 {
        let mut start = 0u64;
        if let Some(first) = insts.first() {
            mem.begin_cycle(Cycle::ZERO);
            if let Ok(IssueResult::Pending(id)) = mem.try_ifetch(first.pc, Cycle::ZERO) {
                loop {
                    start += 1;
                    let dones = mem.begin_cycle(Cycle::new(start));
                    if dones.iter().any(|c| c.req == id) {
                        break;
                    }
                    assert!(start < 10_000, "warmup ifetch never completed");
                }
            }
            start += 1;
        }
        let mut trace = insts.into_iter();
        let mut used = 0;
        for c in 0..max_cycles {
            used = c;
            let now = Cycle::new(start + c);
            let completions = mem.begin_cycle(now);
            core.cycle(now, &completions, mem, &mut trace);
            if core.drained() {
                break;
            }
        }
        assert!(core.drained(), "core did not drain: {:?}", core.stats());
        used
    }

    /// ALU instructions whose PCs loop within a small code footprint (as
    /// real loops do), so the I-cache warms up instead of streaming cold.
    fn alu_chain(n: usize, dep: bool) -> Vec<TraceInst> {
        (0..n)
            .map(|i| {
                TraceInst::alu(
                    Addr::new(0x40_0000 + (i as u64 % 64) * 4),
                    OpClass::IntAlu,
                    [if dep && i > 0 { Some(1) } else { None }, None],
                )
            })
            .collect()
    }

    #[test]
    fn independent_alus_reach_high_ipc() {
        let mut core = OoOCore::new(CoreConfig::baseline());
        let mut m = mem();
        run(&mut core, &mut m, alu_chain(4000, false), 20_000);
        let ipc = core.stats().ipc();
        assert!(ipc > 4.0, "independent ALU IPC {ipc} too low");
    }

    #[test]
    fn dependent_chain_serializes() {
        let mut core = OoOCore::new(CoreConfig::baseline());
        let mut m = mem();
        run(&mut core, &mut m, alu_chain(2000, true), 20_000);
        let ipc = core.stats().ipc();
        assert!(ipc < 1.2, "serial chain IPC {ipc} should be ~1");
    }

    #[test]
    fn committed_matches_trace_length() {
        let mut core = OoOCore::new(CoreConfig::baseline());
        let mut m = mem();
        run(&mut core, &mut m, alu_chain(777, false), 20_000);
        assert_eq!(core.stats().committed, 777);
    }

    #[test]
    fn load_latency_gates_dependents() {
        // load (miss) -> dependent ALU chain: cycles must include the miss
        // round trip.
        let mut insts = vec![TraceInst::load(
            Addr::new(0x40_0000),
            Addr::new(0x10_0000),
            [None, None],
        )];
        for i in 0..10 {
            insts.push(TraceInst::alu(
                Addr::new(0x40_0004 + i * 4),
                OpClass::IntAlu,
                [Some(1), None],
            ));
        }
        let mut core = OoOCore::new(CoreConfig::baseline());
        let mut m = mem();
        let cycles = run(&mut core, &mut m, insts, 20_000);
        assert!(cycles > 70, "miss latency not observed: {cycles} cycles");
    }

    #[test]
    fn store_to_load_forwarding() {
        let pc = |i: u64| Addr::new(0x40_0000 + i * 4);
        let a = Addr::new(0x20_0000);
        // The divide blocks commit, so the store is executed-but-uncommitted
        // when the load issues — the LSQ must forward.
        let insts = vec![
            TraceInst::alu(pc(0), OpClass::IntDiv, [None, None]),
            TraceInst::store(pc(1), a, 99, [None, None]),
            TraceInst::load(pc(2), a, [None, None]),
        ];
        let mut core = OoOCore::new(CoreConfig::baseline());
        let mut m = mem();
        run(&mut core, &mut m, insts, 20_000);
        assert_eq!(core.stats().loads_forwarded, 1);
        assert!(m.integrity_error().is_none());
    }

    #[test]
    fn load_after_committed_store_reads_through_cache() {
        let pc = |i: u64| Addr::new(0x40_0000 + i * 4);
        let a = Addr::new(0x20_0000);
        let insts = vec![
            TraceInst::store(pc(0), a, 99, [None, None]),
            TraceInst::load(pc(1), a, [None, None]),
        ];
        let mut core = OoOCore::new(CoreConfig::baseline());
        let mut m = mem();
        run(&mut core, &mut m, insts, 20_000);
        // Commit applies the store before the load issues; either path
        // (forward or cache) must preserve the value.
        assert!(m.integrity_error().is_none());
        assert_eq!(m.functional().architectural(a), 99);
    }

    #[test]
    fn mispredicted_branch_stalls_fetch() {
        let pc = |i: u64| Addr::new(0x40_0000 + i * 4);
        let mut with_miss = vec![TraceInst::branch(
            pc(0),
            BranchInfo {
                taken: true,
                target: pc(1),
                mispredicted: true,
            },
            [None, None],
        )];
        with_miss.extend(alu_chain(500, false));
        let mut core = OoOCore::new(CoreConfig::baseline());
        let mut m = mem();
        run(&mut core, &mut m, with_miss, 20_000);
        assert!(core.stats().mispredict_stall_cycles >= 1);
    }

    #[test]
    fn lsq_capacity_limits_memory_ops() {
        let mut cfg = CoreConfig::baseline();
        cfg.lsq_entries = 2;
        let insts: Vec<_> = (0..50)
            .map(|i| {
                TraceInst::load(
                    Addr::new(0x40_0000 + i * 4),
                    Addr::new(0x30_0000 + i * 0x1000),
                    [None, None],
                )
            })
            .collect();
        let mut core = OoOCore::new(cfg);
        let mut m = mem();
        run(&mut core, &mut m, insts, 100_000);
        assert!(core.stats().lsq_full_stalls > 0);
    }

    #[test]
    fn stores_commit_and_land_in_memory() {
        let a = Addr::new(0x28_0000);
        let insts = vec![TraceInst::store(
            Addr::new(0x40_0000),
            a,
            0xCAFE,
            [None, None],
        )];
        let mut core = OoOCore::new(CoreConfig::baseline());
        let mut m = mem();
        run(&mut core, &mut m, insts, 20_000);
        assert_eq!(m.functional().architectural(a), 0xCAFE);
        // Let in-flight writes drain.
        for c in 0..500u64 {
            m.begin_cycle(Cycle::new(100 + c));
            if m.quiescent() {
                break;
            }
        }
        assert!(m.quiescent());
    }

    /// The ring reuses slots many times over a long trace (4000 ALUs wrap
    /// the 128-entry window ~31 times); interleave stores/loads on few
    /// word addresses so the store-index chains and the wakeup network
    /// churn through recycled slots too.
    #[test]
    fn ring_reuse_with_store_chains_stays_consistent() {
        let pc = |i: u64| Addr::new(0x40_0000 + (i % 64) * 4);
        let addr = |i: u64| Addr::new(0x20_0000 + (i % 4) * 8);
        let insts: Vec<_> = (0..3000)
            .map(|i| match i % 5 {
                0 => TraceInst::store(pc(i), addr(i), i, [None, None]),
                1 => TraceInst::load(pc(i), addr(i - 1), [Some(1), None]),
                _ => TraceInst::alu(pc(i), OpClass::IntAlu, [Some(2), None]),
            })
            .collect();
        let mut core = OoOCore::new(CoreConfig::baseline());
        let mut m = mem();
        run(&mut core, &mut m, insts, 100_000);
        assert_eq!(core.stats().committed, 3000);
        assert!(m.integrity_error().is_none(), "{:?}", m.integrity_error());
        assert!(core.stats().loads_forwarded > 0);
    }

    /// Pins the exact counter values for a fixed mixed trace: the stats
    /// are maintained incrementally by the pipeline stages, and any change
    /// to their accounting (or to the scheduler that feeds them) must show
    /// up here as a deliberate diff.
    #[test]
    fn stats_pinned_for_fixed_trace() {
        let pc = |i: u64| Addr::new(0x40_0000 + (i % 64) * 4);
        let mut insts = Vec::new();
        for i in 0..400u64 {
            insts.push(match i % 7 {
                0 => TraceInst::store(pc(i), Addr::new(0x20_0000 + (i % 8) * 8), i, [None, None]),
                1 => TraceInst::load(pc(i), Addr::new(0x20_0000 + (i % 8) * 8), [None, None]),
                2 => TraceInst::load(pc(i), Addr::new(0x30_0000 + i * 64), [None, None]),
                3 => TraceInst::alu(pc(i), OpClass::IntDiv, [Some(1), None]),
                6 => TraceInst::branch(
                    pc(i),
                    BranchInfo {
                        taken: i % 14 == 6,
                        target: pc(i + 1),
                        mispredicted: i % 21 == 6,
                    },
                    [Some(3), None],
                ),
                _ => TraceInst::alu(pc(i), OpClass::IntAlu, [Some(1), Some(2)]),
            });
        }
        let mut core = OoOCore::new(CoreConfig::baseline());
        let mut m = mem();
        run(&mut core, &mut m, insts, 100_000);
        let s = core.stats();
        assert!(m.integrity_error().is_none(), "{:?}", m.integrity_error());
        assert_eq!(
            (s.committed, s.fetched, s.loads_forwarded),
            (400, 400, 18),
            "full stats: {s:?}"
        );
        assert_eq!(
            CoreStats {
                cycles: s.cycles,
                mispredict_stall_cycles: s.mispredict_stall_cycles,
                icache_stall_cycles: s.icache_stall_cycles,
                cache_reject_stalls: s.cache_reject_stalls,
                window_full_stalls: s.window_full_stalls,
                lsq_full_stalls: s.lsq_full_stalls,
                store_commit_stalls: s.store_commit_stalls,
                ..s
            },
            s,
            "self-consistency"
        );
        // The scheduler-dependent counters, pinned.
        assert_eq!(s.cycles, 2647, "full stats: {s:?}");
        assert_eq!(s.mispredict_stall_cycles, 2166, "full stats: {s:?}");
        assert_eq!(s.icache_stall_cycles, 308, "full stats: {s:?}");
        assert_eq!(s.cache_reject_stalls, 2, "full stats: {s:?}");
    }

    /// Hammers the open-addressed store index: many distinct words (probe
    /// collisions + backward-shift deletion) and repeated words (chains).
    #[test]
    fn store_index_survives_collisions_and_deletion() {
        let mut idx = StoreIndex::new(8); // 16 entries: collisions likely
        let mut next: Box<[u32]> = vec![NONE; 8].into_boxed_slice();
        // Three words chained through slots, interleaved.
        idx.push_tail(0x100, 0, &mut next);
        idx.push_tail(0x200, 1, &mut next);
        idx.push_tail(0x100, 2, &mut next);
        idx.push_tail(0x300, 3, &mut next);
        idx.push_tail(0x100, 4, &mut next);
        assert_eq!(idx.head(0x100), 0);
        assert_eq!(idx.head(0x200), 1);
        assert_eq!(idx.head(0x400), NONE);
        assert_eq!(idx.pop_head(0x100, &next), 0);
        assert_eq!(idx.head(0x100), 2);
        assert_eq!(idx.pop_head(0x200, &next), 1);
        assert_eq!(idx.head(0x200), NONE, "chain emptied: entry removed");
        assert_eq!(idx.pop_head(0x100, &next), 2);
        assert_eq!(idx.pop_head(0x100, &next), 4);
        assert_eq!(idx.head(0x100), NONE);
        assert_eq!(idx.pop_head(0x300, &next), 3);
        // Fill/drain many distinct words to force wraparound probes and
        // backward shifts, in a mixed insertion/removal order.
        for round in 0..4u64 {
            for w in 0..6u64 {
                idx.push_tail(w * 0x1000 + round, (w % 8) as u32, &mut next);
            }
            for w in (0..6u64).rev() {
                assert_eq!(idx.pop_head(w * 0x1000 + round, &next), (w % 8) as u32);
                assert_eq!(idx.head(w * 0x1000 + round), NONE);
            }
        }
    }
}
