//! Main-memory models: the detailed SDRAM controller and the
//! SimpleScalar-like constant-latency memory.
//!
//! The SDRAM model implements Table 1's geometry and timings (4 banks ×
//! 8192 rows × 1024 columns; tRRD/tRAS/tRCD/CL/tRP/tRC in CPU cycles), a
//! bounded 32-entry controller queue, open-row tracking with bank
//! interleaving ("pipelining page opening and closing operations"), and two
//! of the scheduling schemes of Green (EDN 1998) — FCFS and open-row-first,
//! the latter being the one the paper "retained [because it] significantly
//! reduces conflicts in row buffers". Refresh is avoided, as in Table 1.
//!
//! # Data layout
//!
//! Bank state is stored as three flat per-bank columns (`bank_open_row`,
//! `bank_ready`, `bank_active`) instead of a `Vec` of structs, and the
//! controller maintains `next_ready` — the minimum `data_ready` over the
//! in-service set — so the per-cycle [`Sdram::tick_into`] can prove in one
//! compare that an idle-queue cycle has nothing to do and return without
//! scanning anything. Debug builds cross-check every skipped cycle against
//! a full scan. [`Sdram::tick_into`]/[`MainMemory::tick_into`] append into
//! a caller-owned buffer so the hierarchy's cycle loop never allocates.

use microlib_model::{
    Addr, BankInterleave, Cycle, MemoryModel, MemoryStats, SdramConfig, SdramSchedule,
};
use std::collections::VecDeque;

/// Opaque token identifying a memory transaction to the hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MemToken(pub u64);

/// A completed memory transaction.
#[derive(Clone, Copy, Debug)]
pub struct MemDone {
    /// Token supplied at submission.
    pub token: MemToken,
    /// Whether the transaction was a write.
    pub is_write: bool,
    /// Cycle at which the data left (reads) or was absorbed (writes).
    pub finished_at: Cycle,
}

#[derive(Clone, Copy, Debug)]
struct Pending {
    token: MemToken,
    line: Addr,
    is_write: bool,
    arrival: Cycle,
}

#[derive(Clone, Copy, Debug)]
struct InService {
    token: MemToken,
    is_write: bool,
    arrival: Cycle,
    data_ready: Cycle,
}

/// Sentinel for "no row open" in the flat `bank_open_row` column (row
/// indices are bounded by the configured row count, far below this).
const NO_ROW: u64 = u64::MAX;

/// The detailed SDRAM controller + banks.
///
/// # Examples
///
/// ```
/// use microlib_mem::{MemToken, Sdram};
/// use microlib_model::{Addr, Cycle, SdramConfig};
///
/// let mut mem = Sdram::new(SdramConfig::baseline());
/// assert!(mem.try_push(MemToken(1), Addr::new(0x1000), false, Cycle::new(0)));
/// let mut done = Vec::new();
/// for c in 0..200 {
///     done.extend(mem.tick(Cycle::new(c)));
/// }
/// assert_eq!(done.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Sdram {
    config: SdramConfig,
    queue: VecDeque<Pending>,
    in_service: Vec<InService>,
    /// Flat per-bank columns: open row ([`NO_ROW`] when closed), earliest
    /// next-command cycle, and the cycle of the last activate.
    bank_open_row: Vec<u64>,
    bank_ready: Vec<Cycle>,
    bank_active: Vec<Cycle>,
    last_activate: Cycle,
    /// Minimum `data_ready` over `in_service` ([`Cycle::NEVER`] when empty):
    /// lets an idle-queue tick return after one compare.
    next_ready: Cycle,
    /// Earliest cycle at which `pick_next` could succeed: once a tick finds
    /// every queued transaction's bank busy, no command can start before the
    /// soonest of those banks frees up (the schedule inputs — open rows, bank
    /// timings — only change when a command starts or a push arrives, and
    /// pushes reset this). Lets a congested-queue tick skip both scheduler
    /// scans.
    next_sched: Cycle,
    /// Address-mapping bit widths, derived once from the geometry.
    col_bits: u32,
    bank_bits: u32,
    stats: MemoryStats,
}

impl Sdram {
    /// Creates an idle SDRAM subsystem.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation — construct via a validated
    /// [`SystemConfig`](microlib_model::SystemConfig) to avoid this.
    pub fn new(config: SdramConfig) -> Self {
        config.validate().expect("invalid SDRAM configuration");
        let banks = config.banks as usize;
        Sdram {
            queue: VecDeque::with_capacity(config.queue_entries as usize),
            in_service: Vec::new(),
            bank_open_row: vec![NO_ROW; banks],
            bank_ready: vec![Cycle::ZERO; banks],
            bank_active: vec![Cycle::ZERO; banks],
            last_activate: Cycle::ZERO,
            next_ready: Cycle::NEVER,
            next_sched: Cycle::ZERO,
            col_bits: 64 - (config.columns as u64).leading_zeros() - 1,
            bank_bits: 64 - (config.banks as u64).leading_zeros() - 1,
            config,
            stats: MemoryStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SdramConfig {
        &self.config
    }

    /// Maps a line address onto (bank, row) per the interleaving scheme.
    #[inline]
    pub fn map(&self, line: Addr) -> (usize, u64) {
        let lines = line.raw() >> 6; // 64-byte line-sized columns
        let mut bank = (lines >> self.col_bits) & ((1 << self.bank_bits) - 1);
        let row = (lines >> (self.col_bits + self.bank_bits)) % self.config.rows as u64;
        if self.config.interleave == BankInterleave::Permutation {
            bank ^= row & ((1 << self.bank_bits) - 1);
        }
        (bank as usize, row)
    }

    /// Whether the controller queue has room.
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.config.queue_entries as usize
    }

    /// Submits a transaction; returns `false` if the queue is full.
    pub fn try_push(&mut self, token: MemToken, line: Addr, is_write: bool, now: Cycle) -> bool {
        if !self.can_accept() {
            return false;
        }
        self.queue.push_back(Pending {
            token,
            line,
            is_write,
            arrival: now,
        });
        // The new transaction's bank may be ready immediately.
        self.next_sched = Cycle::ZERO;
        true
    }

    /// Number of transactions being serviced by banks.
    pub fn in_service_len(&self) -> usize {
        self.in_service.len()
    }

    fn pick_next(&self, now: Cycle) -> Option<usize> {
        let startable = |p: &Pending| {
            let (bank, _) = self.map(p.line);
            self.bank_ready[bank] <= now
        };
        match self.config.schedule {
            SdramSchedule::Fcfs => self.queue.iter().position(startable),
            SdramSchedule::OpenRowFirst => {
                let row_hit = |p: &Pending| {
                    let (bank, row) = self.map(p.line);
                    self.bank_open_row[bank] == row && self.bank_ready[bank] <= now
                };
                self.queue
                    .iter()
                    .position(row_hit)
                    .or_else(|| self.queue.iter().position(startable))
            }
        }
    }

    /// Advances one CPU cycle; returns transactions whose data became ready.
    /// Allocating convenience wrapper around [`Sdram::tick_into`].
    pub fn tick(&mut self, now: Cycle) -> Vec<MemDone> {
        let mut done = Vec::new();
        self.tick_into(now, &mut done);
        done
    }

    /// Advances one CPU cycle, appending transactions whose data became
    /// ready onto `done`. With an empty queue and no transaction due, this
    /// is a single compare — the hierarchy calls it every cycle, and most
    /// cycles the controller is idle.
    pub fn tick_into(&mut self, now: Cycle, done: &mut Vec<MemDone>) {
        if self.queue.is_empty() && self.next_ready > now {
            // Nothing due: no command can start, the queue-wait counter
            // only runs while requests are queued, and `next_ready` bounds
            // every in-service completion.
            debug_assert!(
                self.in_service.iter().all(|s| s.data_ready > now),
                "next_ready under-approximated the in-service set"
            );
            return;
        }

        if !self.queue.is_empty() {
            self.stats.queue_wait_cycles += 1;
        }

        // Drain completions only when one is provably due: `next_ready`
        // bounds the in-service set, so most congested-queue ticks skip
        // this scan too.
        if self.next_ready <= now {
            let mut next_ready = Cycle::NEVER;
            let mut i = 0;
            while i < self.in_service.len() {
                let ready = self.in_service[i].data_ready;
                if ready <= now {
                    let s = self.in_service.swap_remove(i);
                    self.stats.requests += 1;
                    self.stats.total_latency += s.data_ready.since(s.arrival);
                    done.push(MemDone {
                        token: s.token,
                        is_write: s.is_write,
                        finished_at: s.data_ready,
                    });
                } else {
                    next_ready = next_ready.min(ready);
                    i += 1;
                }
            }
            self.next_ready = next_ready;
        }

        // Start at most one command per cycle (shared command/address bus).
        // `next_sched` proves every queued transaction's bank is still busy
        // on most congested ticks, skipping both scheduler scans;
        // completions above cannot unblock scheduling (they never touch
        // `bank_ready` or the open rows).
        if self.next_sched > now {
            debug_assert!(
                self.pick_next(now).is_none(),
                "next_sched over-approximated the scheduler"
            );
            return;
        }
        if let Some(pos) = self.pick_next(now) {
            let p = self.queue.remove(pos).expect("position valid");
            let (bank, row) = self.map(p.line);
            let cfg = self.config;
            let start = self.bank_ready[bank].max(now);
            let data_ready = if self.bank_open_row[bank] == row {
                self.stats.row_hits += 1;
                start + cfg.cas
            } else if self.bank_open_row[bank] != NO_ROW {
                // Row conflict: precharge (respecting tRAS), activate
                // (respecting tRC and tRRD), then CAS.
                self.stats.precharges += 1;
                let pre_start = start.max(self.bank_active[bank] + cfg.t_ras);
                let mut act = pre_start + cfg.t_rp;
                act = act.max(self.bank_active[bank] + cfg.t_rc);
                act = act.max(self.last_activate + cfg.t_rrd);
                self.bank_active[bank] = act;
                self.last_activate = act;
                self.bank_open_row[bank] = row;
                act + cfg.t_rcd + cfg.cas
            } else {
                let act = start.max(self.last_activate + cfg.t_rrd);
                self.bank_active[bank] = act;
                self.last_activate = act;
                self.bank_open_row[bank] = row;
                act + cfg.t_rcd + cfg.cas
            };
            self.bank_ready[bank] = data_ready;
            self.next_ready = self.next_ready.min(data_ready);
            self.in_service.push(InService {
                token: p.token,
                is_write: p.is_write,
                arrival: p.arrival,
                data_ready,
            });
        } else {
            // Every queued transaction's bank is busy: no command can start
            // before the soonest of those banks frees up. (Pushes reset the
            // bound; nothing else changes the scheduler's inputs.)
            let mut soonest = Cycle::NEVER;
            for p in &self.queue {
                let (bank, _) = self.map(p.line);
                soonest = soonest.min(self.bank_ready[bank]);
            }
            self.next_sched = soonest;
        }
    }

    /// Accumulated controller statistics.
    pub fn stats(&self) -> MemoryStats {
        self.stats
    }

    /// The earliest cycle at which a tick can do more than count queue
    /// wait: a transaction completes, or (with requests queued) a
    /// command may start. At or before the last tick it means "next
    /// tick".
    pub(crate) fn next_event(&self) -> Cycle {
        if self.queue.is_empty() {
            self.next_ready
        } else {
            self.next_ready.min(self.next_sched)
        }
    }
}

/// SimpleScalar's memory: constant latency, unlimited bandwidth.
#[derive(Clone, Debug)]
pub struct ConstantMemory {
    latency: u64,
    in_flight: Vec<InService>,
    /// Minimum `data_ready` over `in_flight` ([`Cycle::NEVER`] when empty).
    next_ready: Cycle,
    stats: MemoryStats,
}

impl ConstantMemory {
    /// Creates a constant-latency memory.
    pub fn new(latency: u64) -> Self {
        ConstantMemory {
            latency,
            in_flight: Vec::new(),
            next_ready: Cycle::NEVER,
            stats: MemoryStats::default(),
        }
    }

    /// Submits a transaction (never refuses).
    pub fn push(&mut self, token: MemToken, is_write: bool, now: Cycle) {
        let data_ready = now + self.latency;
        self.next_ready = self.next_ready.min(data_ready);
        self.in_flight.push(InService {
            token,
            is_write,
            arrival: now,
            data_ready,
        });
    }

    /// Advances one cycle, appending finished transactions onto `done`.
    pub fn tick_into(&mut self, now: Cycle, done: &mut Vec<MemDone>) {
        if self.next_ready > now {
            debug_assert!(self.in_flight.iter().all(|s| s.data_ready > now));
            return;
        }
        let mut next_ready = Cycle::NEVER;
        let mut i = 0;
        while i < self.in_flight.len() {
            let ready = self.in_flight[i].data_ready;
            if ready <= now {
                let s = self.in_flight.swap_remove(i);
                self.stats.requests += 1;
                self.stats.total_latency += s.data_ready.since(s.arrival);
                done.push(MemDone {
                    token: s.token,
                    is_write: s.is_write,
                    finished_at: s.data_ready,
                });
            } else {
                next_ready = next_ready.min(ready);
                i += 1;
            }
        }
        self.next_ready = next_ready;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MemoryStats {
        self.stats
    }
}

/// Either main-memory model behind one API.
#[derive(Clone, Debug)]
pub enum MainMemory {
    /// Constant-latency (SimpleScalar-like).
    Constant(ConstantMemory),
    /// Detailed SDRAM.
    Sdram(Sdram),
}

impl MainMemory {
    /// Builds the model described by `model`.
    pub fn from_model(model: &MemoryModel) -> Self {
        match model {
            MemoryModel::Constant { latency } => {
                MainMemory::Constant(ConstantMemory::new(*latency))
            }
            MemoryModel::Sdram(cfg) => MainMemory::Sdram(Sdram::new(*cfg)),
        }
    }

    /// Submits a transaction; returns `false` if the controller queue is
    /// full (constant memory never refuses).
    pub fn try_push(&mut self, token: MemToken, line: Addr, is_write: bool, now: Cycle) -> bool {
        match self {
            MainMemory::Constant(m) => {
                m.push(token, is_write, now);
                true
            }
            MainMemory::Sdram(m) => m.try_push(token, line, is_write, now),
        }
    }

    /// Advances one cycle, appending finished transactions onto `done`.
    pub fn tick_into(&mut self, now: Cycle, done: &mut Vec<MemDone>) {
        match self {
            MainMemory::Constant(m) => m.tick_into(now, done),
            MainMemory::Sdram(m) => m.tick_into(now, done),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MemoryStats {
        match self {
            MainMemory::Constant(m) => m.stats(),
            MainMemory::Sdram(m) => m.stats(),
        }
    }

    /// Whether a [`MainMemory::try_push`] would be accepted.
    pub(crate) fn can_accept(&self) -> bool {
        match self {
            MainMemory::Constant(_) => true,
            MainMemory::Sdram(m) => m.can_accept(),
        }
    }

    /// The earliest cycle at which a tick can do more than count queue
    /// wait (see [`Sdram::next_event`]).
    pub(crate) fn next_event(&self) -> Cycle {
        match self {
            MainMemory::Constant(m) => m.next_ready,
            MainMemory::Sdram(m) => m.next_event(),
        }
    }

    /// Transactions waiting for a command, and in service.
    pub(crate) fn depths(&self) -> (usize, usize) {
        match self {
            MainMemory::Constant(m) => (0, m.in_flight.len()),
            MainMemory::Sdram(m) => (m.queue.len(), m.in_service.len()),
        }
    }

    /// The counters `cycles` ticks add before [`MainMemory::next_event`]:
    /// one queue-wait cycle per tick while requests are queued.
    pub(crate) fn idle_credit(&self, cycles: u64) -> MemoryStats {
        let queued = self.depths().0 > 0;
        MemoryStats {
            queue_wait_cycles: if queued { cycles } else { 0 },
            ..MemoryStats::default()
        }
    }

    /// Credits `cycles` ticks before [`MainMemory::next_event`] without
    /// running them.
    pub(crate) fn skip_idle(&mut self, cycles: u64) {
        let extra = self.idle_credit(cycles);
        match self {
            MainMemory::Constant(m) => m.stats = m.stats + extra,
            MainMemory::Sdram(m) => m.stats = m.stats + extra,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until_done(mem: &mut Sdram, upto: u64) -> Vec<MemDone> {
        let mut out = Vec::new();
        for c in 0..upto {
            out.extend(mem.tick(Cycle::new(c)));
        }
        out
    }

    #[test]
    fn cold_read_latency_is_rcd_plus_cas() {
        let mut mem = Sdram::new(SdramConfig::baseline());
        mem.try_push(MemToken(1), Addr::new(0x40), false, Cycle::new(0));
        let done = run_until_done(&mut mem, 200);
        assert_eq!(done.len(), 1);
        // idle bank: activate at 20 (tRRD after last_activate=0), +tRCD+CL = 80.
        assert_eq!(done[0].finished_at.raw(), 20 + 30 + 30);
        assert_eq!(mem.stats().row_hits, 0);
    }

    #[test]
    fn open_row_hit_is_cas_only() {
        let mut mem = Sdram::new(SdramConfig::baseline());
        mem.try_push(MemToken(1), Addr::new(0x40), false, Cycle::new(0));
        let first = run_until_done(&mut mem, 200);
        let t1 = first[0].finished_at;
        // Same line again: row already open.
        mem.try_push(MemToken(2), Addr::new(0x80), false, t1);
        let mut second = Vec::new();
        for c in t1.raw()..t1.raw() + 100 {
            second.extend(mem.tick(Cycle::new(c)));
        }
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].finished_at - t1, SdramConfig::baseline().cas);
        assert_eq!(mem.stats().row_hits, 1);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let cfg = SdramConfig {
            interleave: BankInterleave::Linear,
            ..SdramConfig::baseline()
        };
        let mut mem = Sdram::new(cfg);
        // Two addresses in the same bank, different rows. With linear
        // mapping: lines = addr>>6; col 10 bits, bank 2 bits, row above.
        // Same bank 0, rows 0 and 1: line numbers 0 and 4096<<0... row is
        // lines >> 12, so line 0 => row 0; line 4096 => row 1, bank (4096>>10)&3 = 0.
        let a = Addr::new(0);
        let b = Addr::new(4096 << 6);
        assert_eq!(mem.map(a).0, mem.map(b).0, "same bank");
        assert_ne!(mem.map(a).1, mem.map(b).1, "different rows");
        mem.try_push(MemToken(1), a, false, Cycle::new(0));
        let d1 = run_until_done(&mut mem, 200);
        let t1 = d1[0].finished_at;
        mem.try_push(MemToken(2), b, false, t1);
        let mut d2 = Vec::new();
        for c in t1.raw()..t1.raw() + 400 {
            d2.extend(mem.tick(Cycle::new(c)));
        }
        assert_eq!(d2.len(), 1);
        let latency = d2[0].finished_at - t1;
        // Must pay at least tRP + tRCD + CL, plus tRAS/tRC slack.
        assert!(
            latency >= 30 + 30 + 30,
            "conflict latency {latency} too small"
        );
        assert_eq!(mem.stats().precharges, 1);
    }

    #[test]
    fn queue_is_bounded() {
        let cfg = SdramConfig {
            queue_entries: 2,
            ..SdramConfig::baseline()
        };
        let mut mem = Sdram::new(cfg);
        assert!(mem.try_push(MemToken(1), Addr::new(0x00), false, Cycle::ZERO));
        assert!(mem.try_push(MemToken(2), Addr::new(0x40), false, Cycle::ZERO));
        assert!(!mem.try_push(MemToken(3), Addr::new(0x80), false, Cycle::ZERO));
        assert!(!mem.can_accept());
    }

    #[test]
    fn open_row_first_reorders_past_conflicts() {
        let cfg = SdramConfig {
            interleave: BankInterleave::Linear,
            schedule: SdramSchedule::OpenRowFirst,
            ..SdramConfig::baseline()
        };
        let mut mem = Sdram::new(cfg);
        // Open row 0 of bank 0.
        mem.try_push(MemToken(1), Addr::new(0), false, Cycle::new(0));
        let d1 = run_until_done(&mut mem, 200);
        let t1 = d1[0].finished_at;
        // Queue a conflicting request (row 1) then a row-hit (row 0).
        mem.try_push(MemToken(2), Addr::new(4096 << 6), false, t1);
        mem.try_push(MemToken(3), Addr::new(0x40), false, t1);
        let mut out = Vec::new();
        for c in t1.raw()..t1.raw() + 600 {
            out.extend(mem.tick(Cycle::new(c)));
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].token, MemToken(3), "row hit scheduled first");
        assert_eq!(out[1].token, MemToken(2));
    }

    #[test]
    fn fcfs_preserves_order() {
        let cfg = SdramConfig {
            interleave: BankInterleave::Linear,
            schedule: SdramSchedule::Fcfs,
            ..SdramConfig::baseline()
        };
        let mut mem = Sdram::new(cfg);
        mem.try_push(MemToken(1), Addr::new(0), false, Cycle::new(0));
        let t1 = run_until_done(&mut mem, 200)[0].finished_at;
        mem.try_push(MemToken(2), Addr::new(4096 << 6), false, t1);
        mem.try_push(MemToken(3), Addr::new(0x40), false, t1);
        let mut out = Vec::new();
        for c in t1.raw()..t1.raw() + 600 {
            out.extend(mem.tick(Cycle::new(c)));
        }
        assert_eq!(out[0].token, MemToken(1 + 1));
    }

    #[test]
    fn permutation_interleave_spreads_rows() {
        let linear = Sdram::new(SdramConfig {
            interleave: BankInterleave::Linear,
            ..SdramConfig::baseline()
        });
        let perm = Sdram::new(SdramConfig::baseline());
        // Two conflicting rows in the same bank under linear mapping...
        let a = Addr::new(0);
        let b = Addr::new(4096 << 6);
        assert_eq!(linear.map(a).0, linear.map(b).0);
        // ...land in different banks under permutation mapping.
        assert_ne!(perm.map(a).0, perm.map(b).0);
    }

    #[test]
    fn constant_memory_flat_latency() {
        let mut mem = ConstantMemory::new(70);
        mem.push(MemToken(1), false, Cycle::new(5));
        mem.push(MemToken(2), false, Cycle::new(5));
        let mut done = Vec::new();
        for c in 0..100 {
            mem.tick_into(Cycle::new(c), &mut done);
        }
        assert_eq!(done.len(), 2, "unlimited bandwidth");
        assert!(done.iter().all(|d| d.finished_at.raw() == 75));
        assert!((mem.stats().average_latency().unwrap() - 70.0).abs() < 1e-12);
    }

    #[test]
    fn main_memory_dispatch() {
        let mut c = MainMemory::from_model(&MemoryModel::simplescalar_70());
        assert!(c.try_push(MemToken(9), Addr::new(0x40), false, Cycle::ZERO));
        let mut s = MainMemory::from_model(&MemoryModel::Sdram(SdramConfig::baseline()));
        assert!(s.try_push(MemToken(9), Addr::new(0x40), true, Cycle::ZERO));
        for mem in [&mut c, &mut s] {
            let mut done = Vec::new();
            for cyc in 0..300 {
                mem.tick_into(Cycle::new(cyc), &mut done);
            }
            assert_eq!(done.len(), 1);
        }
    }

    #[test]
    fn writes_count_in_stats() {
        let mut mem = Sdram::new(SdramConfig::baseline());
        mem.try_push(MemToken(1), Addr::new(0x40), true, Cycle::new(0));
        let done = run_until_done(&mut mem, 300);
        assert!(done[0].is_write);
        assert_eq!(mem.stats().requests, 1);
    }

    /// The idle fast path must be invisible: ticking far past the last
    /// completion and then submitting again behaves identically to the
    /// always-scanning reference, including the queue-wait counter.
    #[test]
    fn idle_fast_path_is_invisible() {
        let mut mem = Sdram::new(SdramConfig::baseline());
        mem.try_push(MemToken(1), Addr::new(0x40), false, Cycle::new(0));
        let mut done = Vec::new();
        for c in 0..10_000u64 {
            mem.tick_into(Cycle::new(c), &mut done);
        }
        assert_eq!(done.len(), 1);
        let wait_after_first = mem.stats().queue_wait_cycles;
        // Long-idle controller accrues no queue-wait cycles.
        mem.try_push(MemToken(2), Addr::new(0x80), false, Cycle::new(10_000));
        for c in 10_000..10_200u64 {
            mem.tick_into(Cycle::new(c), &mut done);
        }
        assert_eq!(done.len(), 2);
        assert_eq!(done[1].token, MemToken(2));
        assert_eq!(
            mem.stats().queue_wait_cycles,
            wait_after_first + 1,
            "one wait cycle for the second request's submission cycle"
        );
        assert_eq!(mem.in_service_len(), 0);
    }

    /// `next_event` never reports a cycle later than the next tick that
    /// does more than count queue wait: under a bursty random request
    /// stream, every tick before the reported cycle completes nothing and
    /// starts no command.
    #[test]
    fn next_event_bounds_every_busy_tick() {
        let mut mem = Sdram::new(SdramConfig::baseline());
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut done = Vec::new();
        let mut token = 0;
        for c in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x.is_multiple_of(8) && mem.can_accept() {
                token += 1;
                let line = Addr::new((x >> 16) % 4096 * 64);
                mem.try_push(MemToken(token), line, x.is_multiple_of(3), Cycle::new(c));
            }
            let (event, queued) = (mem.next_event(), mem.queue.len());
            done.clear();
            mem.tick_into(Cycle::new(c), &mut done);
            if event > Cycle::new(c) {
                assert!(done.is_empty(), "cycle {c}: completion before {event}");
                assert_eq!(mem.queue.len(), queued, "cycle {c}: command before {event}");
            }
        }
        assert!(token > 1_000, "the stream kept the controller busy");
    }
}
