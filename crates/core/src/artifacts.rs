//! The shared-artifact store: one home for everything a simulation run
//! needs that does not depend on the mechanism under study.
//!
//! A (benchmark × mechanism) campaign repeats several expensive,
//! mechanism-independent computations for every cell: generating the
//! instruction stream, replaying the functional warmup, choosing the
//! SimPoints of a sampled window, and — across experiments —
//! re-simulating cells another sweep already produced. An
//! [`ArtifactStore`] computes each once and shares it:
//!
//! - **traces** ([`TraceBuffer`]): keyed by (benchmark, seed), grown to
//!   the longest window requested so far, replayed by every cell through
//!   a zero-copy cursor;
//! - **warm states** ([`WarmState`]): keyed by (benchmark, seed, skip,
//!   warm start, configuration), the mechanism-independent cache/memory
//!   checkpoint plus the recorded mechanism-visible event log (see
//!   [`microlib_mem::capture_warm_state`]);
//! - **sampling plans** ([`SamplingPlan`]): keyed by (benchmark, seed,
//!   region, interval, cluster cap) — the BBV profile + clustering of a
//!   sampled window, computed once per benchmark and reused by every
//!   mechanism column;
//! - **cell results** ([`RunResult`]): memoized by full content key
//!   (benchmark, mechanism, seed, window, options — including the
//!   sampling mode — and configuration), so re-sweeps and overlapping
//!   experiments get identical cells for free.
//!
//! Sharing never changes results: replayed traces are
//! instruction-for-instruction identical to streamed ones, warm replay
//! reproduces the exact per-mechanism warm effects for mechanisms that
//! opt in (others keep the full warm path), and the memo key covers every
//! input a run depends on. `tests/artifacts.rs` asserts equality for all
//! thirteen study mechanisms, cold vs shared.
//!
//! A [disabled](ArtifactStore::disabled) store (`MICROLIB_ARTIFACTS=off`
//! through [`from_settings`](ArtifactStore::from_settings)) makes every
//! run take the legacy cold path.
//!
//! # The on-disk tier
//!
//! A store can additionally carry a persistent
//! [`DiskCache`](crate::DiskCache) tier
//! ([`with_disk_cache`](ArtifactStore::with_disk_cache), or
//! `MICROLIB_CACHE_DIR` via [`from_settings`](ArtifactStore::from_settings)).
//! Result memos, sampling plans and warm-state checkpoints are then
//! written through to disk as they are computed and served from disk by
//! later processes; traces stay memory-only (they regenerate faster than
//! they deserialize). Each memo file is written atomically the moment its
//! cell completes, so the memo directory doubles as a **resume journal**:
//! a killed campaign restarts and recomputes only the cells whose files
//! are missing. Corrupt, truncated or version-mismatched entries are
//! detected (checksums + embedded keys) and silently recomputed.

use crate::disk::DiskCache;
use crate::lease::{Claim, LeaseManager};
use crate::settings::Settings;
use crate::shard::ShardSpec;
use crate::simulator::{RunResult, SimError, SimOptions};
use microlib_mech::MechanismKind;
use microlib_mem::{capture_warm_state, FunctionalMemory, WarmState};
use microlib_model::codec::{BinCodec, Encoder};
use microlib_model::SystemConfig;
use microlib_trace::{benchmarks, SamplingPlan, TraceBuffer, TraceWindow, Workload};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

/// A stable identity string for a [`SystemConfig`]: every field, via the
/// `Debug` rendering (exhaustive by construction — new fields show up
/// automatically). Used as the configuration component of warm-state and
/// memo keys.
pub fn config_key(config: &SystemConfig) -> String {
    format!("{config:?}")
}

/// Locks `m`, recovering it if a panicking holder poisoned it. Every slot
/// state is written only after its computation succeeds, so a panic
/// mid-computation leaves the state as it found it and the next caller
/// simply computes.
fn lock<S>(m: &Mutex<S>) -> MutexGuard<'_, S> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock`] without waiting: `None` while another thread holds `m`.
fn try_lock<S>(m: &Mutex<S>) -> Option<MutexGuard<'_, S>> {
    match m.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// The store's one compute-once mechanism: a map from key to a per-key
/// slot holding state `S`. A caller locks its key's slot for the whole
/// lookup-or-compute, so same-key callers wait for that one computation
/// while other keys proceed in parallel. Each artifact class keeps its
/// policy in `S`: trace growth, the warm capture gate and its byte cap,
/// and the memo's single flight under the lease layer.
struct Slots<K, S> {
    map: Mutex<HashMap<K, Arc<Mutex<S>>>>,
}

impl<K: Hash + Eq, S: Default> Slots<K, S> {
    fn new() -> Self {
        Slots {
            map: Mutex::new(HashMap::new()),
        }
    }

    /// The slot for `key`, created empty on first use.
    fn slot<Q>(&self, key: &Q) -> Arc<Mutex<S>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        let mut map = lock(&self.map);
        match map.get(key) {
            Some(slot) => Arc::clone(slot),
            None => Arc::clone(map.entry(key.to_owned()).or_default()),
        }
    }

    /// Every slot, for a walk outside the map lock.
    fn all(&self) -> Vec<Arc<Mutex<S>>> {
        lock(&self.map).values().cloned().collect()
    }

    fn clear(&self) {
        lock(&self.map).clear();
    }
}

/// Capture gate for one warm key: the first requester is told to take
/// the (equally priced) cold path; the capture — which costs roughly one
/// extra warm phase plus the event log — only happens once a second
/// requester proves the state will actually be reused.
#[derive(Default)]
struct WarmGate {
    requests: u32,
    state: Option<Arc<WarmState>>,
    /// Approximate resident footprint of `state` (0 when empty), counted
    /// against the store-wide resident byte budget.
    bytes: usize,
    /// LRU stamp: the store-wide tick of the most recent request that
    /// touched this gate's state.
    last_used: u64,
}

/// (benchmark, seed, skip, warm start, configuration key) — see
/// [`config_key`].
type WarmKey = (&'static str, u64, u64, u64, String);
/// (benchmark, seed, region skip, region simulate, interval, max clusters).
type PlanKey = (&'static str, u64, u64, u64, u64, usize);

microlib_model::counters! {
    /// Hit/miss counters for the three artifact classes (observability; the
    /// numbers are reported by `run_all` on stderr, and every field by the
    /// daemon's `/metrics` as `store_<field>`).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct ArtifactStoreStats {
        /// Trace requests served from a shared buffer.
        pub trace_hits: u64,
        /// Trace requests that had to build (or extend) a buffer.
        pub trace_misses: u64,
        /// Warm-state requests served from a shared checkpoint.
        pub warm_hits: u64,
        /// Warm-state requests that had to run a recording warm phase.
        pub warm_misses: u64,
        /// First-time warm-state requests declined (capture deferred until a
        /// second requester proves reuse).
        pub warm_declined: u64,
        /// Sampling-plan requests served from a shared plan.
        pub plan_hits: u64,
        /// Sampling-plan requests that had to profile and cluster.
        pub plan_misses: u64,
        /// Cell results served from the in-memory memo cache.
        pub memo_hits: u64,
        /// Cell results that had to simulate.
        pub memo_misses: u64,
        /// Cell results served from the on-disk tier (a RAM miss that decoded
        /// a valid disk entry; **not** counted in `memo_misses`).
        pub memo_disk_hits: u64,
        /// Sampling plans served from the on-disk tier.
        pub plan_disk_hits: u64,
        /// Warm states served from the on-disk tier.
        pub warm_disk_hits: u64,
        /// Cells this process claimed (and computed) through the lease layer.
        pub lease_claims: u64,
        /// Cells this process waited out instead of computing: another
        /// worker held the lease (or owned the shard) and the memo arrived.
        pub lease_waits: u64,
        /// Cells refused because they were quarantined (crashed too many
        /// consecutive claimers).
        pub cells_quarantined: u64,
        /// Same-key cell requests that arrived while the cell was already
        /// being computed in this process and waited for the leader's memo
        /// instead of re-simulating (in-process single-flight).
        pub memo_coalesced: u64,
        /// Resident warm states dropped to respect the byte cap set by
        /// [`ArtifactStore::set_warm_resident_cap`].
        pub warm_evictions: u64,
    }
    atomic StoreCounters;
}

impl ArtifactStoreStats {
    /// Cells that had to simulate — zero means every requested cell came
    /// from memory or disk (the resume / warm-cache fast path).
    pub fn cells_recomputed(&self) -> u64 {
        self.memo_misses
    }
}

/// Shared, thread-safe store of mechanism-independent simulation
/// artifacts (see the module docs).
///
/// # Examples
///
/// ```
/// use microlib::{ArtifactStore, Cell, SimOptions};
/// use microlib_mech::MechanismKind;
/// use microlib_model::SystemConfig;
/// use microlib_trace::TraceWindow;
/// use std::sync::Arc;
///
/// let store = ArtifactStore::new();
/// let config = Arc::new(SystemConfig::baseline_constant_memory());
/// let opts = SimOptions {
///     window: TraceWindow::new(2_000, 1_000),
///     ..SimOptions::default()
/// };
/// let cell = Cell::new(config, "swim", opts, MechanismKind::Ghb);
/// let a = store.run(&cell)?;
/// // Identical request: served from the memo cache, same result.
/// let b = store.run(&cell)?;
/// assert_eq!(a.perf, b.perf);
/// assert_eq!(store.stats().memo_hits, 1);
/// # Ok::<(), microlib::SimError>(())
/// ```
pub struct ArtifactStore {
    enabled: bool,
    disk: Option<DiskCache>,
    lease: Option<LeaseManager>,
    shard: Option<ShardSpec>,
    /// How long a memo miss on another shard's cell waits for its owner.
    steal_grace: Duration,
    /// Largest encoded warm state (bytes) the disk tier persists.
    /// Small-window warm states (the CI regime) fit comfortably; the
    /// multi-ten-MB event logs of article-scale warm phases are cheaper
    /// to re-record than to store per configuration.
    warm_disk_cap: usize,
    traces: Slots<(&'static str, u64), Option<Arc<TraceBuffer>>>,
    warm: Slots<WarmKey, WarmGate>,
    plans: Slots<PlanKey, Option<Arc<SamplingPlan>>>,
    memo: Slots<String, Option<Arc<RunResult>>>,
    /// Resident warm-state budget in bytes (`u64::MAX` = unbounded).
    warm_cap: AtomicU64,
    /// Approximate bytes currently held by resident warm states.
    warm_bytes: AtomicU64,
    /// Monotone tick stamping warm-state recency for LRU eviction.
    warm_tick: AtomicU64,
    counts: StoreCounters,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("enabled", &self.enabled)
            .field("disk", &self.disk.as_ref().map(|d| d.root()))
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Default for ArtifactStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ArtifactStore {
    fn with_enabled(enabled: bool) -> Self {
        let defaults = Settings::default();
        ArtifactStore {
            enabled,
            disk: None,
            lease: None,
            shard: None,
            steal_grace: defaults.steal_grace,
            warm_disk_cap: defaults.warm_disk_cap(),
            traces: Slots::new(),
            warm: Slots::new(),
            plans: Slots::new(),
            memo: Slots::new(),
            warm_cap: AtomicU64::new(u64::MAX),
            warm_bytes: AtomicU64::new(0),
            warm_tick: AtomicU64::new(0),
            counts: StoreCounters::default(),
        }
    }

    /// An enabled, empty, memory-only store.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A disabled store: every consumer falls back to the legacy cold
    /// path (fresh generation, full per-mechanism warmup, no memo).
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    /// Attaches a persistent on-disk tier rooted at `dir`: result memos,
    /// sampling plans and warm states are written through as they are
    /// computed and served from disk across processes (see the module
    /// docs). No effect on a [disabled](ArtifactStore::disabled) store.
    pub fn with_disk_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.disk = self.enabled.then(|| DiskCache::new(dir));
        self
    }

    /// The on-disk tier, if one is attached.
    pub fn disk_cache(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// Attaches a [`LeaseManager`]: memoized cells are then claimed
    /// through first-writer-wins lease files before simulation, so
    /// concurrent processes sharing the disk tier each compute a cell at
    /// most once (see the [`crate::LeaseManager`] docs for the protocol,
    /// crash recovery and quarantine). Only meaningful together with a
    /// disk tier rooted at the same directory.
    pub fn with_lease_manager(mut self, lease: LeaseManager) -> Self {
        self.lease = self.enabled.then_some(lease);
        self
    }

    /// The store `settings` describe: enabled unless `artifacts` is off,
    /// with the disk tier at `cache_dir` (if any), its steal grace and
    /// warm-state disk cap, and — when the disk tier is active and a
    /// `shard` is set or `lease` is on — cell claims through lease files
    /// in the cache directory. Memo misses on cells *another* shard owns
    /// first wait out the steal grace for the owner's memo before
    /// claiming the cell themselves: the partition steers work while the
    /// lease layer keeps it correct and live (see [`ShardSpec`]).
    pub fn from_settings(settings: &Settings) -> Self {
        let mut store = Self::with_enabled(settings.artifacts);
        store.steal_grace = settings.steal_grace;
        store.warm_disk_cap = settings.warm_disk_cap();
        if let Some(dir) = settings.cache_dir.path() {
            store = store.with_disk_cache(dir);
            if store.disk.is_some() && (settings.shard.is_some() || settings.lease) {
                store.lease = Some(LeaseManager::new(
                    dir,
                    settings.lease_timeout,
                    settings.cell_retries,
                    settings.worker_id.as_deref().unwrap_or("-"),
                ));
                store.shard = settings.shard;
            }
        }
        store
    }

    /// Whether this store shares artifacts (`false` for
    /// [`disabled`](ArtifactStore::disabled) stores).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Hit/miss counters accumulated so far.
    pub fn stats(&self) -> ArtifactStoreStats {
        self.counts.snapshot()
    }

    /// The shared workload and trace buffer for `(benchmark, seed)`,
    /// covering at least `min_len` instructions. The workload is the
    /// process-wide [`Workload::shared`] one; the buffer is built on first
    /// use and regenerated (longer) when a caller needs more than any
    /// previous one. Existing replay cursors keep their `Arc` to the old
    /// buffer and are unaffected.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownBenchmark`] if `benchmark` is not in the
    /// registry.
    pub fn trace(
        &self,
        benchmark: &str,
        seed: u64,
        min_len: u64,
    ) -> Result<(Arc<Workload>, Arc<TraceBuffer>), SimError> {
        let profile = benchmarks::by_name(benchmark)
            .ok_or_else(|| SimError::UnknownBenchmark(benchmark.to_owned()))?;
        let workload = Workload::shared(profile, seed);
        let slot = self.traces.slot(&(workload.name(), seed));
        let mut buffer = lock(&slot);
        if let Some(buffer) = buffer.as_ref().filter(|b| b.len() >= min_len) {
            self.counts.trace_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((workload, Arc::clone(buffer)));
        }
        self.counts.trace_misses.fetch_add(1, Ordering::Relaxed);
        let grown = Arc::new(TraceBuffer::capture(&workload, min_len));
        *buffer = Some(Arc::clone(&grown));
        Ok((workload, grown))
    }

    /// The shared warm state for `(benchmark, seed, skip, warm_start)`
    /// under `config`: the mechanism-independent checkpoint plus the
    /// recorded warm event log. `warm_start` is `0` for full-prefix warm
    /// (every full-mode run); sampled runs with a bounded warm-up budget
    /// key their truncated warm phases separately.
    ///
    /// Returns `Ok(None)` for the *first* request of a key — capturing
    /// costs roughly one extra warm phase, so the store only records once
    /// a second requester proves the state is reused; the first caller
    /// runs its (equally priced) full warm phase instead. From the second
    /// request on, the state is captured once and served shared.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownBenchmark`] for unknown benchmarks,
    /// [`SimError::Config`] for invalid configurations.
    pub fn warm_state(
        &self,
        benchmark: &str,
        seed: u64,
        skip: u64,
        warm_start: u64,
        config: &Arc<SystemConfig>,
    ) -> Result<Option<Arc<WarmState>>, SimError> {
        config.validate()?;
        let warm_start = warm_start.min(skip);
        let (workload, buffer) = self.trace(benchmark, seed, skip)?;
        let key = (
            buffer.benchmark(),
            seed,
            skip,
            warm_start,
            config_key(config),
        );
        let gate = self.warm.slot(&key);
        let mut gate = lock(&gate);
        if let Some(state) = gate.state.clone() {
            self.counts.warm_hits.fetch_add(1, Ordering::Relaxed);
            gate.last_used = self.warm_tick.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(state));
        }
        // The disk key is only built when a disk tier exists: most warm
        // requests resolve in memory (hit, or first-requester decline), and
        // the formatting must cost nothing there — same lazy discipline as
        // `trace_event`.
        let disk = self.disk.as_ref().map(|disk| {
            let (bench, ckey) = (key.0, &key.4);
            (
                disk,
                format!("{bench}|seed={seed:#x}|skip={skip}|start={warm_start}|{ckey}"),
            )
        });
        // Warm entries encode the functional memory as a delta against the
        // workload's initial image (cheap to rebuild: the workload keeps a
        // prebuilt copy-on-write image).
        let base = || {
            let mut base = FunctionalMemory::new();
            workload.initialize(&mut base);
            base
        };
        // A disk hit short-circuits the capture gate entirely: the state
        // was already earned by an earlier process.
        let loaded = disk.as_ref().and_then(|(disk, key)| {
            disk.load_with("warm", key, |d| WarmState::decode(d, config, &base()))
        });
        let state = match loaded {
            Some(state) => {
                self.counts.warm_disk_hits.fetch_add(1, Ordering::Relaxed);
                state
            }
            None => {
                gate.requests += 1;
                if gate.requests < 2 {
                    self.counts.warm_declined.fetch_add(1, Ordering::Relaxed);
                    return Ok(None);
                }
                self.counts.warm_misses.fetch_add(1, Ordering::Relaxed);
                let insts = TraceBuffer::replay_from(&buffer, warm_start)
                    .take((skip - warm_start) as usize)
                    .map(|inst| (inst.pc, inst.warm_mem_ref()));
                let state =
                    capture_warm_state(Arc::clone(config), |fm| workload.initialize(fm), insts)
                        .expect("configuration validated above");
                if let Some((disk, key)) = &disk {
                    let mut e = Encoder::new();
                    state.encode(&base(), &mut e);
                    // Long warm phases produce multi-ten-MB event logs whose
                    // disk round trip is worth less than the space: persist
                    // only entries under the cap (memos and plans — the
                    // artifacts that make re-runs incremental — are never
                    // capped).
                    if e.as_bytes().len() <= self.warm_disk_cap {
                        disk.store("warm", key, e.as_bytes());
                    }
                }
                state
            }
        };
        let state = Arc::new(state);
        gate.bytes = state.resident_bytes();
        gate.last_used = self.warm_tick.fetch_add(1, Ordering::Relaxed);
        gate.state = Some(Arc::clone(&state));
        self.warm_bytes
            .fetch_add(gate.bytes as u64, Ordering::Relaxed);
        drop(gate);
        self.enforce_warm_cap();
        Ok(Some(state))
    }

    /// Caps the bytes of warm states kept resident between requests:
    /// least-recently-used states are dropped (their capture gates stay
    /// armed, so a later request re-captures immediately) until the
    /// estimate fits. `u64::MAX` — the default — disables eviction.
    /// Long-lived processes (the `microlib-serve` daemon sets this from
    /// `MICROLIB_SERVE_RESIDENT_MB`) use it to bound steady-state RSS.
    pub fn set_warm_resident_cap(&self, bytes: u64) {
        self.warm_cap.store(bytes, Ordering::Relaxed);
        self.enforce_warm_cap();
    }

    /// Approximate bytes currently held by resident warm states.
    pub fn warm_resident_bytes(&self) -> u64 {
        self.warm_bytes.load(Ordering::Relaxed)
    }

    /// Evicts least-recently-used warm states until the resident estimate
    /// fits the cap. Gates locked by a concurrent requester are skipped
    /// via `try_lock` — they are in active use (the opposite of an LRU
    /// victim), and skipping them keeps this free of lock-order cycles
    /// with `warm_state`, which calls in while holding its own gate.
    fn enforce_warm_cap(&self) {
        let cap = self.warm_cap.load(Ordering::Relaxed);
        if self.warm_bytes.load(Ordering::Relaxed) <= cap {
            return;
        }
        let mut candidates: Vec<(u64, Arc<Mutex<WarmGate>>)> = Vec::new();
        for gate in self.warm.all() {
            let stamp = try_lock(&gate)
                .filter(|g| g.state.is_some())
                .map(|g| g.last_used);
            candidates.extend(stamp.map(|stamp| (stamp, gate)));
        }
        candidates.sort_by_key(|(last_used, _)| *last_used);
        for (_, gate) in candidates {
            if self.warm_bytes.load(Ordering::Relaxed) <= cap {
                break;
            }
            if let Some(mut g) = try_lock(&gate) {
                if g.state.take().is_some() {
                    self.warm_bytes.fetch_sub(g.bytes as u64, Ordering::Relaxed);
                    g.bytes = 0;
                    self.counts.warm_evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// The shared sampling plan for a window of `benchmark`: the BBV
    /// profile + clustering of [`SamplingPlan::profile`], computed once
    /// per (benchmark, seed, region, interval, cluster cap) and reused by
    /// every mechanism column of a sampled sweep.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownBenchmark`] if `benchmark` is not in the
    /// registry.
    pub fn sampling_plan(
        &self,
        benchmark: &str,
        seed: u64,
        region: TraceWindow,
        interval: u64,
        max_clusters: usize,
    ) -> Result<Arc<SamplingPlan>, SimError> {
        let (_workload, buffer) = self.trace(benchmark, seed, region.end())?;
        let (skip, simulate) = (region.skip, region.simulate);
        let key = (
            buffer.benchmark(),
            seed,
            skip,
            simulate,
            interval,
            max_clusters,
        );
        let slot = self.plans.slot(&key);
        let mut plan = lock(&slot);
        if let Some(plan) = plan.as_ref() {
            self.counts.plan_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(plan));
        }
        let disk_key = format!(
            "{}|seed={seed:#x}|region={skip}+{simulate}|interval={interval}|k={max_clusters}",
            key.0
        );
        let disk = self.disk.as_ref();
        let loaded = disk.and_then(|d| d.load_with("plan", &disk_key, SamplingPlan::decode));
        let built = match loaded {
            Some(built) => {
                self.counts.plan_disk_hits.fetch_add(1, Ordering::Relaxed);
                built
            }
            None => {
                self.counts.plan_misses.fetch_add(1, Ordering::Relaxed);
                let replay = TraceBuffer::replay(&buffer);
                let built = SamplingPlan::profile(replay, region, interval, max_clusters, seed);
                self.disk_store("plan", &disk_key, |e| built.encode(e));
                built
            }
        };
        let built = Arc::new(built);
        *plan = Some(Arc::clone(&built));
        Ok(built)
    }

    /// Drops all cached warm states (the largest artifacts). Long-lived
    /// stores — `run_all` keeps one across the whole battery — call this
    /// between experiments: warm states only pay off *within* a sweep,
    /// while traces and the result memo stay useful across experiments
    /// and are kept.
    pub fn clear_warm_states(&self) {
        self.warm.clear();
        self.warm_bytes.store(0, Ordering::Relaxed);
    }

    /// Writes an artifact through to the disk tier, if one is attached,
    /// as one atomically written file.
    fn disk_store(&self, class: &str, key: &str, encode: impl FnOnce(&mut Encoder)) {
        if let Some(disk) = &self.disk {
            let mut e = Encoder::new();
            encode(&mut e);
            disk.store(class, key, e.as_bytes());
        }
    }

    pub(crate) fn memo_key(
        config: &SystemConfig,
        mechanism: MechanismKind,
        benchmark: &str,
        opts: &SimOptions,
    ) -> String {
        format!(
            "{benchmark}|{mechanism:?}|seed={:#x}|window={}+{}|check={}|max={}|sampling={:?}|{}",
            opts.seed,
            opts.window.skip,
            opts.window.simulate,
            opts.check_values,
            opts.max_cycles,
            opts.sampling,
            config_key(config),
        )
    }

    /// Resolves a memoized cell: the memo in RAM, else the disk tier,
    /// else `compute` — through the lease layer when one is attached, so
    /// across concurrent processes each cell is computed at most once.
    ///
    /// In this process the key's slot lock is the single flight: the
    /// first requester holds it while it reads disk or computes, and
    /// same-key requesters block on it (counted as coalesced when they
    /// find it held), then read the leader's result. A leader that fails
    /// or panics leaves the slot empty, so the next waiter computes.
    pub(crate) fn memo_run(
        &self,
        key: &str,
        cell: &str,
        benchmark: &str,
        repro: &str,
        compute: impl FnOnce() -> Result<RunResult, SimError>,
    ) -> Result<Arc<RunResult>, SimError> {
        let slot = self.memo.slot(key);
        let mut memo = try_lock(&slot).unwrap_or_else(|| {
            self.counts.memo_coalesced.fetch_add(1, Ordering::Relaxed);
            lock(&slot)
        });
        if let Some(hit) = memo.as_ref() {
            self.counts.memo_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        let result = match self.memo_disk_hit(key) {
            Some(hit) => hit,
            None => self.memo_compute(key, cell, benchmark, repro, compute)?,
        };
        let result = Arc::new(result);
        *memo = Some(Arc::clone(&result));
        Ok(result)
    }

    /// The memo of `key` decoded from the disk tier, counted as a disk hit.
    fn memo_disk_hit(&self, key: &str) -> Option<RunResult> {
        let hit = self
            .disk
            .as_ref()?
            .load_with("memo", key, RunResult::decode)?;
        self.counts.memo_disk_hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// The miss path of [`memo_run`](Self::memo_run), run under the key's
    /// slot lock: count the miss, run `compute`, and journal the result
    /// to the disk tier the moment it completes, so a killed campaign
    /// resumes from exactly the cells that finished.
    ///
    /// With a lease manager the claim loop of the [`LeaseManager`] docs
    /// runs instead; `cell` and `repro` feed its quarantine reports, and
    /// a panic unwinding out of `compute` abandons the claim (counting
    /// toward quarantine) before resuming.
    fn memo_compute(
        &self,
        key: &str,
        cell: &str,
        benchmark: &str,
        repro: &str,
        compute: impl FnOnce() -> Result<RunResult, SimError>,
    ) -> Result<RunResult, SimError> {
        let Some(lease) = &self.lease else {
            self.counts.memo_misses.fetch_add(1, Ordering::Relaxed);
            let result = compute()?;
            self.disk_store("memo", key, |e| result.encode(e));
            return Ok(result);
        };
        // Re-claiming after Busy/steal loops back here; the closure can
        // only actually run once, so carry it in an Option.
        let mut compute = Some(compute);
        let started = Instant::now();
        let mut waited = false;
        let mut poll = Duration::from_millis(5);
        let poll_cap = std::cmp::max(poll, Duration::from_millis(200).min(lease.timeout() / 3));
        loop {
            if let Some(hit) = self.memo_disk_hit(key) {
                if waited {
                    self.counts.lease_waits.fetch_add(1, Ordering::Relaxed);
                }
                return Ok(hit);
            }
            // Shard steering: give the owning shard a grace period to
            // publish its memo before claiming its cell.
            if let Some(shard) = &self.shard {
                if !shard.owns(key) && started.elapsed() < self.steal_grace {
                    waited = true;
                    std::thread::sleep(poll);
                    poll = (poll * 2).min(poll_cap);
                    continue;
                }
            }
            match lease.claim(key, cell, repro) {
                Claim::Acquired(guard) => {
                    self.counts.lease_claims.fetch_add(1, Ordering::Relaxed);
                    self.counts.memo_misses.fetch_add(1, Ordering::Relaxed);
                    let compute = compute.take().expect("claim acquired once");
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(compute));
                    match outcome {
                        Ok(Ok(result)) => {
                            self.disk_store("memo", key, |e| result.encode(e));
                            guard.complete();
                            return Ok(result);
                        }
                        Ok(Err(e)) => {
                            // A deterministic failure, not a crash: the
                            // guard's Drop releases lease + attempts (a
                            // retry would fail identically).
                            drop(guard);
                            return Err(e);
                        }
                        Err(payload) => {
                            // Crash-like: keep the attempt on record and
                            // expire the lease so the next claimer
                            // retries — or quarantines.
                            guard.abandon();
                            std::panic::resume_unwind(payload);
                        }
                    }
                }
                Claim::Busy => {
                    waited = true;
                    std::thread::sleep(poll);
                    poll = (poll * 2).min(poll_cap);
                }
                Claim::Quarantined { attempts } => {
                    self.counts
                        .cells_quarantined
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(crate::lease::quarantined_error(benchmark, attempts));
                }
            }
        }
    }

    /// Clean-shutdown sweep for multi-process runs: releases every lease
    /// this process still holds and fsyncs the memo journal, so a
    /// follow-up run neither waits out stale-lease timeouts nor loses
    /// journaled cells to a machine crash. A no-op without those tiers.
    pub fn finish(&self) {
        if let Some(lease) = &self.lease {
            lease.release_owned();
        }
        if let Some(disk) = &self.disk {
            disk.sync_class("memo");
        }
    }

    /// An RAII handle over [`finish`](ArtifactStore::finish): the sweep
    /// runs when the guard drops — on clean returns, early `?` exits
    /// *and* unwinding panics alike — so exit paths that forget (or never
    /// reach) an explicit `finish()` cannot leak lease files. `finish` is
    /// idempotent; guarded code may still call it explicitly before a
    /// `std::process::exit` (which skips `Drop`).
    pub fn finish_guard(self: &Arc<Self>) -> FinishGuard {
        FinishGuard {
            store: Arc::clone(self),
        }
    }
}

/// Runs [`ArtifactStore::finish`] on drop (see
/// [`ArtifactStore::finish_guard`]): lease files are released and the
/// memo journal fsynced however the scope exits — including panics —
/// which is what lets the serve daemon's drain path and panicking tests
/// guarantee a lease-free cache directory.
#[must_use = "the sweep runs when the guard drops; an unbound guard drops immediately"]
pub struct FinishGuard {
    store: Arc<ArtifactStore>,
}

impl FinishGuard {
    /// The guarded store.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }
}

impl std::fmt::Debug for FinishGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FinishGuard").finish_non_exhaustive()
    }
}

impl Drop for FinishGuard {
    fn drop(&mut self) {
        self.store.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_shared_and_grows() {
        let store = ArtifactStore::new();
        let (w1, b1) = store.trace("swim", 7, 1_000).unwrap();
        let (w2, b2) = store.trace("swim", 7, 500).unwrap();
        assert!(Arc::ptr_eq(&w1, &w2), "workload shared");
        assert!(Arc::ptr_eq(&b1, &b2), "shorter request reuses the buffer");
        let (w3, b3) = store.trace("swim", 7, 2_000).unwrap();
        assert!(Arc::ptr_eq(&w1, &w3), "workload survives buffer growth");
        assert_eq!(b3.len(), 2_000);
        // The grown buffer replays the same prefix.
        let old: Vec<_> = TraceBuffer::replay(&b1).collect();
        let new: Vec<_> = TraceBuffer::replay(&b3).take(1_000).collect();
        assert_eq!(old, new);
        let stats = store.stats();
        assert_eq!(stats.trace_hits, 1);
        assert_eq!(stats.trace_misses, 2);
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        let store = ArtifactStore::new();
        assert!(matches!(
            store.trace("quake3", 1, 10),
            Err(SimError::UnknownBenchmark(_))
        ));
    }

    #[test]
    fn warm_state_captures_on_second_request() {
        let store = ArtifactStore::new();
        let base = Arc::new(SystemConfig::baseline_constant_memory());
        assert!(
            store
                .warm_state("swim", 7, 1_000, 0, &base)
                .unwrap()
                .is_none(),
            "first request is declined (capture deferred until reuse)"
        );
        let b = store
            .warm_state("swim", 7, 1_000, 0, &base)
            .unwrap()
            .unwrap();
        let c = store
            .warm_state("swim", 7, 1_000, 0, &base)
            .unwrap()
            .unwrap();
        assert!(Arc::ptr_eq(&b, &c));
        let mut other = SystemConfig::baseline_constant_memory();
        other.l1d.mshr_entries = 4;
        let other = Arc::new(other);
        assert!(
            store
                .warm_state("swim", 7, 1_000, 0, &other)
                .unwrap()
                .is_none(),
            "different config gates independently"
        );
        assert!(
            store
                .warm_state("swim", 7, 1_000, 500, &base)
                .unwrap()
                .is_none(),
            "different warm start gates independently"
        );
        let stats = store.stats();
        assert_eq!(stats.warm_declined, 3);
        assert_eq!(stats.warm_misses, 1);
        assert_eq!(stats.warm_hits, 1);
        store.clear_warm_states();
        assert!(
            store
                .warm_state("swim", 7, 1_000, 0, &base)
                .unwrap()
                .is_none(),
            "cleared states re-arm the gate"
        );
    }

    #[test]
    fn truncated_warm_state_covers_only_the_tail() {
        let store = ArtifactStore::new();
        let base = Arc::new(SystemConfig::baseline_constant_memory());
        let full_key = store.warm_state("swim", 7, 2_000, 0, &base).unwrap();
        assert!(full_key.is_none());
        let full = store
            .warm_state("swim", 7, 2_000, 0, &base)
            .unwrap()
            .unwrap();
        let trunc_key = store.warm_state("swim", 7, 2_000, 1_500, &base).unwrap();
        assert!(trunc_key.is_none());
        let trunc = store
            .warm_state("swim", 7, 2_000, 1_500, &base)
            .unwrap()
            .unwrap();
        assert_eq!(full.log.insts(), 2_000);
        assert_eq!(trunc.log.insts(), 500, "only the tail is warmed");
    }

    #[test]
    fn sampling_plan_is_shared() {
        let store = ArtifactStore::new();
        let region = TraceWindow::new(5_000, 50_000);
        let a = store.sampling_plan("gcc", 7, region, 10_000, 4).unwrap();
        let b = store.sampling_plan("gcc", 7, region, 10_000, 4).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second request hits the shared plan");
        let c = store.sampling_plan("gcc", 7, region, 25_000, 4).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "different interval is a new plan");
        let stats = store.stats();
        assert_eq!(stats.plan_hits, 1);
        assert_eq!(stats.plan_misses, 2);
        assert!(matches!(
            store.sampling_plan("quake3", 1, region, 10_000, 4),
            Err(SimError::UnknownBenchmark(_))
        ));
    }

    /// A real cell result for the memo tests' compute closures to return.
    fn sample_result() -> RunResult {
        let opts = SimOptions {
            window: TraceWindow::new(500, 500),
            ..SimOptions::default()
        };
        let config = Arc::new(SystemConfig::baseline_constant_memory());
        let cell = crate::Cell::new(config, "swim", opts, MechanismKind::Base);
        ArtifactStore::new().run(&cell).expect("sample cell runs")
    }

    /// Polls until a second requester of a key is parked behind the
    /// computing leader (it has been counted as coalesced).
    fn await_follower(store: &ArtifactStore) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while store.stats().memo_coalesced == 0 {
            assert!(Instant::now() < deadline, "follower never queued");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn concurrent_same_key_requests_compute_once() {
        const THREADS: usize = 4;
        let store = ArtifactStore::new();
        let result = sample_result();
        let computed = AtomicU64::new(0);
        let barrier = std::sync::Barrier::new(THREADS);
        let outputs: Vec<Arc<RunResult>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        store
                            .memo_run("k", "cell", "swim", "", || {
                                computed.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_millis(50));
                                Ok(result.clone())
                            })
                            .expect("memo run")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(computed.load(Ordering::Relaxed), 1, "one compute");
        assert!(outputs.iter().all(|r| r.perf == result.perf));
        let stats = store.stats();
        assert_eq!(stats.memo_misses, 1);
        assert_eq!(stats.memo_hits, THREADS as u64 - 1);
    }

    /// Runs a leader whose compute ends in `finish` once a follower is
    /// queued behind it. The follower must then compute the key itself
    /// and succeed, within a deadline rather than hanging the suite.
    fn follower_after_failed_leader(finish: fn() -> Result<RunResult, SimError>) {
        let store = ArtifactStore::new();
        let result = sample_result();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let (store, result) = (&store, &result);
        std::thread::scope(|scope| {
            let leader = scope.spawn(move || {
                store.memo_run("k", "cell", "swim", "", move || {
                    started_tx.send(()).unwrap();
                    // Bounded, so a failing assertion below cannot leave
                    // the scope waiting on this thread forever.
                    let _ = go_rx.recv_timeout(Duration::from_secs(30));
                    finish()
                })
            });
            started_rx.recv().unwrap();
            scope.spawn(move || {
                let outcome = store.memo_run("k", "cell", "swim", "", || Ok(result.clone()));
                done_tx.send(outcome).unwrap();
            });
            await_follower(store);
            go_tx.send(()).unwrap();
            let follower = done_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("follower finished (no deadlock)");
            assert_eq!(follower.expect("follower computes").perf, result.perf);
            assert!(!matches!(leader.join(), Ok(Ok(_))), "leader failed");
        });
        let stats = store.stats();
        assert_eq!(stats.memo_misses, 2, "leader and follower each computed");
        let again = store.memo_run("k", "cell", "swim", "", || panic!("memoized"));
        assert_eq!(again.unwrap().perf, result.perf);
    }

    #[test]
    fn leader_error_lets_a_follower_compute() {
        follower_after_failed_leader(|| Err(SimError::UnknownBenchmark("planted".into())));
    }

    #[test]
    fn leader_panic_lets_a_follower_compute() {
        follower_after_failed_leader(|| panic!("planted leader panic"));
    }

    /// A panic inside a trace capture (here: a length no buffer can hold,
    /// refused before anything is allocated) must not poison the key.
    #[test]
    fn trace_panic_leaves_the_slot_usable() {
        let store = ArtifactStore::new();
        let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.trace("swim", 7, u64::MAX)
        }));
        let payload = crash.expect_err("an impossible capture panics");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(message.contains("capacity overflow"), "{message}");
        let (_, buffer) = store.trace("swim", 7, 100).expect("slot still usable");
        assert_eq!(buffer.len(), 100);
    }

    #[test]
    fn env_knob_parses() {
        let off = Settings {
            artifacts: false,
            ..Settings::default()
        };
        assert!(!ArtifactStore::from_settings(&off).is_enabled());
        assert!(ArtifactStore::from_settings(&Settings::default()).is_enabled());
        assert!(!ArtifactStore::disabled().is_enabled());
        assert!(ArtifactStore::new().is_enabled());
    }
}
