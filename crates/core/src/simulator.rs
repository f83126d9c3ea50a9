//! The canonical driver: workload + out-of-order core + memory hierarchy +
//! one mechanism, run over a trace window.

use crate::artifacts::ArtifactStore;
use crate::cell::Cell;
use crate::sampling::SamplingMode;
use microlib_cpu::{CoreStats, OoOCore};
use microlib_mech::MechanismKind;
use microlib_mem::{IntegrityError, MemorySystem};
use microlib_model::{
    CacheStats, ConfigError, HardwareBudget, MechanismStats, MemoryStats, PerfSummary,
    PrefetchQueueStats, SamplingEstimate, SystemConfig,
};
use microlib_trace::{benchmarks, InstStream, TraceBuffer, TraceWindow, Workload};
use std::fmt;
use std::ops::Sub;
use std::sync::Arc;

/// Everything a simulation run needs besides the system configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimOptions {
    /// Workload layout/stream seed.
    pub seed: u64,
    /// Trace window to simulate.
    pub window: TraceWindow,
    /// Whether to run the per-load value-integrity checker (on by default;
    /// it is cheap and catches protocol bugs).
    pub check_values: bool,
    /// Hard cycle budget per run (guards against configuration-induced
    /// livelock).
    pub max_cycles: u64,
    /// How the window is covered: every instruction
    /// ([`SamplingMode::Full`], the default) or SimPoint-selected
    /// representative intervals recombined by weight
    /// ([`SamplingMode::SimPoints`]).
    pub sampling: SamplingMode,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            seed: 0xC0FFEE,
            window: TraceWindow::new(20_000, 100_000),
            check_values: true,
            max_cycles: 0, // derived from the window
            sampling: SamplingMode::Full,
        }
    }
}

impl SimOptions {
    /// The effective cycle budget.
    pub fn cycle_budget(&self) -> u64 {
        self.cycle_budget_for(self.window.simulate)
    }

    /// The effective cycle budget for a detailed phase of `instructions`
    /// (sampled runs budget each stretch separately; an explicit
    /// `max_cycles` overrides the derived bound in every mode).
    pub fn cycle_budget_for(&self, instructions: u64) -> u64 {
        if self.max_cycles > 0 {
            self.max_cycles
        } else {
            // Generous: even IPC 0.01 fits.
            instructions.max(1_000) * 120 + 200_000
        }
    }
}

/// Complete measurements from one simulation run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Benchmark name (the registry's static name — benchmarks are a
    /// static catalog, so results carry no per-run string allocation).
    pub benchmark: &'static str,
    /// Mechanism configuration simulated.
    pub mechanism: MechanismKind,
    /// Committed instructions / cycles.
    pub perf: PerfSummary,
    /// Core counters.
    pub core: CoreStats,
    /// L1 data cache counters.
    pub l1d: CacheStats,
    /// L1 instruction cache counters.
    pub l1i: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// Main-memory counters.
    pub memory: MemoryStats,
    /// Mechanism counters (L1 slot).
    pub mech_l1: Option<MechanismStats>,
    /// Mechanism counters (L2 slot).
    pub mech_l2: Option<MechanismStats>,
    /// Prefetch-queue counters (L1 slot).
    pub queue_l1: Option<PrefetchQueueStats>,
    /// Prefetch-queue counters (L2 slot).
    pub queue_l2: Option<PrefetchQueueStats>,
    /// The mechanism's hardware inventory.
    pub hardware: HardwareBudget,
    /// How the result was reconstructed from sampled intervals, when the
    /// run used [`SamplingMode::SimPoints`] (`None` for full runs).
    pub sampling: Option<SamplingEstimate>,
}

impl RunResult {
    /// The mechanism's combined activity counters (whichever slot it used).
    pub fn mechanism_stats(&self) -> MechanismStats {
        self.mech_l1.or(self.mech_l2).unwrap_or_default()
    }

    /// Encodes the result for the artifact store's on-disk memo tier.
    pub fn encode(&self, e: &mut microlib_model::Encoder) {
        use microlib_model::BinCodec as _;
        e.put_str(self.benchmark);
        self.mechanism.encode(e);
        self.perf.encode(e);
        self.core.encode(e);
        self.l1d.encode(e);
        self.l1i.encode(e);
        self.l2.encode(e);
        self.memory.encode(e);
        self.mech_l1.encode(e);
        self.mech_l2.encode(e);
        self.queue_l1.encode(e);
        self.queue_l2.encode(e);
        self.hardware.encode(e);
        self.sampling.encode(e);
    }

    /// Decodes a result written by [`RunResult::encode`]. The benchmark
    /// name is resolved against the static registry (results only exist
    /// for registered benchmarks).
    ///
    /// # Errors
    ///
    /// Any [`microlib_model::CodecError`] on truncated or invalid bytes,
    /// including a benchmark name no longer in the registry.
    pub fn decode(d: &mut microlib_model::Decoder<'_>) -> Result<Self, microlib_model::CodecError> {
        use microlib_model::BinCodec as _;
        let name = d.take_str()?;
        let benchmark = benchmarks::by_name(name)
            .map(|p| p.name)
            .ok_or(microlib_model::CodecError::Invalid("unknown benchmark"))?;
        Ok(RunResult {
            benchmark,
            mechanism: MechanismKind::decode(d)?,
            perf: PerfSummary::decode(d)?,
            core: CoreStats::decode(d)?,
            l1d: CacheStats::decode(d)?,
            l1i: CacheStats::decode(d)?,
            l2: CacheStats::decode(d)?,
            memory: MemoryStats::decode(d)?,
            mech_l1: Option::decode(d)?,
            mech_l2: Option::decode(d)?,
            queue_l1: Option::decode(d)?,
            queue_l2: Option::decode(d)?,
            hardware: HardwareBudget::decode(d)?,
            sampling: Option::decode(d)?,
        })
    }
}

/// Every monotone counter bundle `simulate` reports, captured mid-run at
/// measurement boundaries and differenced.
#[derive(Clone, Copy, Debug, Default)]
struct StatsSnapshot {
    core: CoreStats,
    l1d: CacheStats,
    l1i: CacheStats,
    l2: CacheStats,
    memory: MemoryStats,
    mech_l1: Option<MechanismStats>,
    mech_l2: Option<MechanismStats>,
    queue_l1: Option<PrefetchQueueStats>,
    queue_l2: Option<PrefetchQueueStats>,
}

impl StatsSnapshot {
    fn capture(core: &OoOCore, mem: &MemorySystem) -> Self {
        let (queue_l1, queue_l2) = mem.prefetch_queue_stats();
        StatsSnapshot {
            core: core.stats(),
            l1d: mem.l1d_stats(),
            l1i: mem.l1i_stats(),
            l2: mem.l2_stats(),
            memory: mem.memory_stats(),
            mech_l1: mem.l1_mechanism_stats(),
            mech_l2: mem.l2_mechanism_stats(),
            queue_l1,
            queue_l2,
        }
    }

    /// `end - self`, field by field (all counters are monotone).
    fn delta_from(&self, end: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            core: end.core - self.core,
            l1d: end.l1d - self.l1d,
            l1i: end.l1i - self.l1i,
            l2: end.l2 - self.l2,
            memory: end.memory - self.memory,
            mech_l1: sub_opt(end.mech_l1, self.mech_l1),
            mech_l2: sub_opt(end.mech_l2, self.mech_l2),
            queue_l1: sub_opt(end.queue_l1, self.queue_l1),
            queue_l2: sub_opt(end.queue_l2, self.queue_l2),
        }
    }
}

fn sub_opt<T: Default + Sub<Output = T>>(end: Option<T>, start: Option<T>) -> Option<T> {
    end.map(|e| e - start.unwrap_or_default())
}

/// Why a simulation run failed.
#[derive(Debug)]
pub enum SimError {
    /// The system configuration was rejected.
    Config(ConfigError),
    /// The benchmark name is not in the registry.
    UnknownBenchmark(String),
    /// A loaded value diverged from the architectural memory image.
    Integrity {
        /// Benchmark being simulated.
        benchmark: String,
        /// The divergence.
        error: IntegrityError,
    },
    /// The run exceeded its cycle budget.
    Timeout {
        /// Benchmark being simulated.
        benchmark: String,
        /// Budget that was exhausted.
        cycles: u64,
    },
    /// The cell crashed too many consecutive workers and was quarantined
    /// by the lease layer (see [`crate::LeaseManager`]); it was not
    /// computed, but the rest of the battery still completes.
    Quarantined {
        /// Benchmark of the poisoned cell.
        benchmark: String,
        /// Crashed attempts recorded before quarantine.
        attempts: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "{e}"),
            SimError::UnknownBenchmark(n) => write!(f, "unknown benchmark {n:?}"),
            SimError::Integrity { benchmark, error } => {
                write!(f, "{benchmark}: {error}")
            }
            SimError::Timeout { benchmark, cycles } => {
                write!(f, "{benchmark}: exceeded {cycles}-cycle budget")
            }
            SimError::Quarantined {
                benchmark,
                attempts,
            } => {
                write!(
                    f,
                    "{benchmark}: quarantined after {attempts} crashed attempts"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

/// Runs one (benchmark, mechanism, configuration) simulation on the cold
/// path (fresh trace generation, full warmup, no memo): shorthand for
/// [`ArtifactStore::run`] on a [disabled](ArtifactStore::disabled) store.
/// Sweeps should run their [`Cell`]s through a shared store instead.
///
/// # Errors
///
/// Returns a [`SimError`] for invalid configurations, unknown benchmarks,
/// value-integrity violations, or cycle-budget exhaustion.
///
/// # Examples
///
/// ```
/// use microlib::{run_one, SimOptions};
/// use microlib_mech::MechanismKind;
/// use microlib_model::SystemConfig;
/// use microlib_trace::TraceWindow;
///
/// let opts = SimOptions {
///     window: TraceWindow::new(0, 3_000),
///     ..SimOptions::default()
/// };
/// let result = run_one(
///     &SystemConfig::baseline_constant_memory(),
///     MechanismKind::Base,
///     "swim",
///     &opts,
/// )?;
/// assert_eq!(result.perf.instructions, 3_000);
/// assert!(result.perf.ipc() > 0.0);
/// # Ok::<(), microlib::SimError>(())
/// ```
pub fn run_one(
    config: &SystemConfig,
    mechanism: MechanismKind,
    benchmark: &str,
    opts: &SimOptions,
) -> Result<RunResult, SimError> {
    ArtifactStore::disabled().run(&Cell::new(
        Arc::new(config.clone()),
        benchmark,
        *opts,
        mechanism,
    ))
}

/// Builds the warmed system for a run: functional memory initialized,
/// caches and mechanism tables warmed over `[warm_start, skip)`, and the
/// instruction stream positioned at `skip`. With a store, the trace comes
/// from the shared [`TraceBuffer`] (grown to `trace_len`) and the warm
/// phase either restores the shared checkpoint + replays the recorded
/// mechanism events (mechanisms that opt in via
/// [`warm_events_only`](microlib_model::Mechanism::warm_events_only)) or
/// runs the exact full warm path over the shared trace (everything else).
/// Without a store, the cold path: generate, initialize, warm.
#[allow(clippy::too_many_arguments)] // one bundle per warm-phase input
fn warmed_system(
    store: Option<&ArtifactStore>,
    config: &Arc<SystemConfig>,
    mem: &mut MemorySystem,
    warm_replayable: bool,
    benchmark: &'static str,
    opts: &SimOptions,
    warm_start: u64,
    trace_len: u64,
) -> Result<InstStream, SimError> {
    let skip = opts.window.skip;
    let stream = match store {
        Some(store) => {
            let (workload, buffer) = store.trace(benchmark, opts.seed, trace_len)?;
            let mut stream = TraceBuffer::replay(&buffer);
            let warm = if skip > warm_start && warm_replayable {
                // Fast path when the store has (or now earns) the shared
                // checkpoint: restore it and replay only the
                // mechanism-visible events. The key's first requester
                // gets `None` and warms in full — capture only pays off
                // once a state is reused.
                store.warm_state(benchmark, opts.seed, skip, warm_start, config)?
            } else {
                None
            };
            match warm {
                Some(warm) => {
                    mem.restore_warm(&warm.checkpoint);
                    mem.replay_warm_events(&warm.log);
                    stream.advance_to(skip);
                }
                None => {
                    // Exact path over the shared trace (sidecar
                    // mechanisms, first requesters, or nothing to skip).
                    workload.initialize(mem.functional_mut());
                    stream.advance_to(warm_start);
                    warm_loop(mem, &mut stream, skip - warm_start);
                }
            }
            stream
        }
        None => {
            let profile = benchmarks::by_name(benchmark).expect("resolved by the caller");
            // Shared instantiation: layout is paid once per (benchmark,
            // seed) process-wide, not once per run.
            let workload = Workload::shared(profile, opts.seed);
            workload.initialize(mem.functional_mut());
            let mut stream = workload.stream();
            stream.advance_to(warm_start);
            warm_loop(mem, &mut stream, skip - warm_start);
            stream
        }
    };
    Ok(stream)
}

/// One measured region of a detailed stretch, in committed instructions
/// relative to the stretch start.
struct Mark {
    /// Where measurement opens; `None` opens it before the first cycle
    /// against the zero counter baseline.
    begin_at: Option<u64>,
    /// Where measurement closes; `u64::MAX` closes it at drain.
    end_at: u64,
}

/// One contiguous detailed-simulation phase: fed `feed` instructions
/// starting at absolute instruction `start`, with the measured regions
/// inside it.
struct Stretch {
    start: u64,
    feed: u64,
    marks: Vec<Mark>,
}

/// Where a run simulates in detail and what it measures: the driver warms
/// `[warm_start, skip)`, then walks the stretches in order, fast-forwarding
/// functionally through any gap before each one.
pub(crate) struct Plan {
    warm_start: u64,
    stretches: Vec<Stretch>,
}

/// Detailed instructions committed before a measured slice (fills the
/// out-of-order window so measurement starts in steady issue).
const SLICE_RAMP: u64 = 1_024;

/// Detailed instructions fed past a measured slice so the pipeline stays
/// busy while the last measured instructions commit.
const SLICE_TAIL: u64 = 512;

impl Plan {
    /// Full mode: one stretch over the whole window, measured against the
    /// zero counter baseline and captured at drain.
    pub(crate) fn full(window: TraceWindow, warm_start: u64) -> Self {
        Plan {
            warm_start,
            stretches: vec![Stretch {
                start: window.skip,
                feed: window.simulate,
                marks: vec![Mark {
                    begin_at: None,
                    end_at: u64::MAX,
                }],
            }],
        }
    }

    /// Sampled mode: the slice windows laid out as detailed stretches. A
    /// ramp before each slice and a tail after it keep measurement in
    /// steady state; overlapping or touching extents merge into one
    /// stretch. `floor` is the first instruction detailed simulation may
    /// touch (the window start — everything before it is warm phase).
    pub(crate) fn slices(windows: &[TraceWindow], floor: u64, warm_start: u64) -> Self {
        let mut stretches: Vec<Stretch> = Vec::new();
        for w in windows {
            let detail_start = w.skip.saturating_sub(SLICE_RAMP).max(floor);
            let feed_end = w.end() + SLICE_TAIL;
            match stretches.last_mut() {
                // The previous tail (or measured region) doubles as this
                // slice's ramp.
                Some(cur) if detail_start <= cur.start + cur.feed => {
                    cur.feed = cur.feed.max(feed_end - cur.start);
                    cur.marks.push(Mark {
                        begin_at: Some(w.skip - cur.start),
                        end_at: w.end() - cur.start,
                    });
                }
                _ => stretches.push(Stretch {
                    start: detail_start,
                    feed: feed_end - detail_start,
                    marks: vec![Mark {
                        begin_at: Some(w.skip - detail_start),
                        end_at: w.end() - detail_start,
                    }],
                }),
            }
        }
        Plan {
            warm_start,
            stretches,
        }
    }
}

/// The simulation driver behind every cell: one warm phase up to the
/// window start, then one continuous pass over the trace that alternates
/// **detailed stretches** with **functional fast-forward** through the
/// gaps between them. Caches, the functional memory and the mechanism
/// evolve across the whole window exactly once.
///
/// Returns one measured part per plan mark, in plan order, each shaped
/// like a [`RunResult`].
///
/// The two plan shapes measure on different counter baselines:
///
/// - a **full** plan's single mark counts from zero and is captured at
///   drain. `finish_warmup` rebases only the cache counters, so counters
///   it leaves alone — notably the mechanism's table and prefetch
///   counters — include warm-phase activity;
/// - a **sampled** slice is the difference of two snapshots taken as
///   committed instructions cross its boundaries, so it counts detailed
///   activity inside the slice only.
///
/// `plan.warm_start` truncates the functional warm phase to the
/// instructions in `[warm_start, skip)` (`0` warms the whole prefix).
/// Instructions before `warm_start` are skipped entirely: their stores
/// never reach the functional image, which stays self-consistent for the
/// integrity checker but approximates the true architectural state — the
/// accuracy trade a bounded warm-up budget buys.
#[allow(clippy::too_many_arguments)] // one bundle per run input
pub(crate) fn simulate(
    store: Option<&ArtifactStore>,
    config: Arc<SystemConfig>,
    mech: Box<dyn microlib_model::Mechanism>,
    label: MechanismKind,
    benchmark: &str,
    opts: &SimOptions,
    plan: &Plan,
) -> Result<Vec<RunResult>, SimError> {
    let profile = benchmarks::by_name(benchmark)
        .ok_or_else(|| SimError::UnknownBenchmark(benchmark.to_owned()))?;
    let benchmark: &'static str = profile.name;
    let hardware = mech.hardware();
    let warm_replayable = mech.warm_events_only();
    let warm_start = plan.warm_start.min(opts.window.skip);
    let trace_len = plan
        .stretches
        .last()
        .map_or(opts.window.end(), |s| s.start + s.feed);

    let mut mem = MemorySystem::new(Arc::clone(&config), vec![mech])?;
    mem.set_check_values(opts.check_values);
    let mut stream = warmed_system(
        store,
        &config,
        &mut mem,
        warm_replayable,
        benchmark,
        opts,
        warm_start,
        trace_len,
    )?;

    let timeout = |cycles: u64| SimError::Timeout {
        benchmark: benchmark.to_owned(),
        cycles,
    };
    let mut parts: Vec<RunResult> = Vec::new();
    let mut now = mem.finish_warmup();
    let mut completions = Vec::new();
    for (i, stretch) in plan.stretches.iter().enumerate() {
        if stretch.start > stream.stream_position() {
            // Fast-forward the gap functionally (the fidelity of the skip
            // phase), the warm clock resuming from detailed time. Gaps
            // apply prefetches functionally instead of dropping them: a
            // continuous detailed run would have issued them, and slices
            // measured after a prefetch-starved gap overstate prefetcher
            // misses. (The prefix warm stays in the default drop mode — it
            // must match the shared warm checkpoints.)
            mem.set_warm_prefetch_fill(true);
            mem.resume_warmup(now);
            let gap = stretch.start - stream.stream_position();
            warm_loop(&mut mem, &mut stream, gap);
            now = mem.finish_warmup();
        }

        let mut core = OoOCore::new(config.core);
        let mut trace = stream.by_ref().take(stretch.feed as usize);
        let budget = opts.cycle_budget_for(stretch.feed) + now.raw();
        let mut marks = stretch.marks.iter().peekable();
        let mut open = marks
            .peek()
            .is_some_and(|m| m.begin_at.is_none())
            .then(StatsSnapshot::default);
        // The committed count at which the next boundary is crossed: the
        // hot loop's only per-cycle measurement work is one compare.
        let boundary_of = |open: bool, next: Option<&&Mark>| match next {
            None => u64::MAX,
            Some(mark) if open => mark.end_at,
            Some(mark) => mark.begin_at.unwrap_or(u64::MAX),
        };
        let mut boundary = boundary_of(open.is_some(), marks.peek());
        loop {
            mem.begin_cycle_into(now, &mut completions);
            core.cycle(now, &completions, &mut mem, &mut trace);
            if let Some(error) = mem.integrity_error() {
                return Err(SimError::Integrity {
                    benchmark: benchmark.to_owned(),
                    error,
                });
            }
            if core.stats().committed >= boundary {
                // A commit burst can cross a begin and an end boundary in
                // one cycle; settle all crossed boundaries.
                loop {
                    let committed = core.stats().committed;
                    match (&open, marks.peek()) {
                        (Some(begin), Some(mark)) if committed >= mark.end_at => {
                            let measured = begin.delta_from(&StatsSnapshot::capture(&core, &mem));
                            parts.push(result_from(benchmark, label, hardware.clone(), &measured));
                            open = None;
                            marks.next();
                        }
                        (None, Some(mark)) if mark.begin_at.is_some_and(|b| committed >= b) => {
                            open = Some(StatsSnapshot::capture(&core, &mem));
                        }
                        _ => break,
                    }
                }
                boundary = boundary_of(open.is_some(), marks.peek());
            }
            if core.drained() {
                break;
            }
            if now.raw() >= budget {
                return Err(timeout(budget));
            }
            now += 1;
        }
        // A mark still open at drain closes at whatever committed: the
        // whole-stretch measurement always ends here, and a truncated
        // trace can drain a stretch before its last slice ends (combine
        // weighs parts by their actual instruction counts).
        if let Some(begin) = open {
            let measured = begin.delta_from(&StatsSnapshot::capture(&core, &mem));
            parts.push(result_from(benchmark, label, hardware.clone(), &measured));
        }
        if i + 1 < plan.stretches.len() {
            // Quiesce before handing the system back to functional
            // warm-up: a fill still in flight would otherwise complete
            // *after* the gap has moved memory on, installing stale data
            // (and its completion token could collide with the next
            // stretch's fresh core).
            while !mem.quiescent() {
                now += 1;
                mem.begin_cycle_into(now, &mut completions);
                if now.raw() >= budget {
                    return Err(timeout(budget));
                }
            }
        }
    }
    Ok(parts)
}

/// Shapes one measured counter bundle as a [`RunResult`].
fn result_from(
    benchmark: &'static str,
    mechanism: MechanismKind,
    hardware: HardwareBudget,
    measured: &StatsSnapshot,
) -> RunResult {
    RunResult {
        benchmark,
        mechanism,
        perf: PerfSummary {
            instructions: measured.core.committed,
            cycles: measured.core.cycles,
        },
        core: measured.core,
        l1d: measured.l1d,
        l1i: measured.l1i,
        l2: measured.l2,
        memory: measured.memory,
        mech_l1: measured.mech_l1,
        mech_l2: measured.mech_l2,
        queue_l1: measured.queue_l1,
        queue_l2: measured.queue_l2,
        hardware,
        sampling: None,
    }
}

/// The skip region warms caches and mechanism tables functionally (the
/// paper's long SimPoint traces run in steady state; see
/// [`MemorySystem::warm_inst`]) before the window is simulated in detail.
fn warm_loop(mem: &mut MemorySystem, stream: &mut InstStream, skip: u64) {
    for _ in 0..skip {
        let Some(inst) = stream.next() else { break };
        mem.warm_inst(inst.pc, inst.warm_mem_ref());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts(n: u64) -> SimOptions {
        SimOptions {
            window: TraceWindow::new(0, n),
            ..SimOptions::default()
        }
    }

    #[test]
    fn base_run_commits_every_instruction() {
        let r = run_one(
            &SystemConfig::baseline_constant_memory(),
            MechanismKind::Base,
            "crafty",
            &quick_opts(5_000),
        )
        .unwrap();
        assert_eq!(r.perf.instructions, 5_000);
        assert!(r.perf.cycles > 0);
        assert!(r.l1d.accesses() > 500, "crafty has memory traffic");
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        let e = run_one(
            &SystemConfig::baseline(),
            MechanismKind::Base,
            "quake3",
            &quick_opts(100),
        )
        .unwrap_err();
        assert!(matches!(e, SimError::UnknownBenchmark(_)));
        assert!(e.to_string().contains("quake3"));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_one(
            &SystemConfig::baseline_constant_memory(),
            MechanismKind::Ghb,
            "swim",
            &quick_opts(4_000),
        )
        .unwrap();
        let b = run_one(
            &SystemConfig::baseline_constant_memory(),
            MechanismKind::Ghb,
            "swim",
            &quick_opts(4_000),
        )
        .unwrap();
        assert_eq!(a.perf, b.perf);
        assert_eq!(a.l1d, b.l1d);
        assert_eq!(a.l2, b.l2);
    }

    #[test]
    fn every_mechanism_survives_a_smoke_run() {
        for kind in MechanismKind::study_set() {
            let r = run_one(
                &SystemConfig::baseline_constant_memory(),
                kind,
                "gzip",
                &quick_opts(3_000),
            )
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(r.perf.instructions, 3_000, "{kind:?}");
        }
    }

    #[test]
    fn sdram_memory_model_runs() {
        let r = run_one(
            &SystemConfig::baseline(),
            MechanismKind::Sp,
            "swim",
            &quick_opts(4_000),
        )
        .unwrap();
        assert!(r.memory.requests > 0, "swim must reach DRAM");
        assert!(r.memory.average_latency().unwrap() > 30.0);
    }

    #[test]
    fn window_skip_is_respected() {
        let opts = SimOptions {
            window: TraceWindow::new(5_000, 2_000),
            ..SimOptions::default()
        };
        let r = run_one(
            &SystemConfig::baseline_constant_memory(),
            MechanismKind::Base,
            "gcc",
            &opts,
        )
        .unwrap();
        assert_eq!(r.perf.instructions, 2_000);
    }

    /// Pins the memo byte layout: every counter of every bundle holds a
    /// distinct value, so a reordered, dropped or added field changes the
    /// hash even where a round trip would still succeed.
    #[test]
    fn memo_byte_layout_is_pinned() {
        use microlib_model::stats::SampledPoint;
        let mut n = 0u64;
        let mut next = || {
            n += 1;
            n
        };
        let mut cache = || CacheStats {
            loads: next(),
            stores: next(),
            misses: next(),
            sidecar_hits: next(),
            mshr_merges: next(),
            mshr_full_stalls: next(),
            pipeline_stalls: next(),
            port_stalls: next(),
            demand_fills: next(),
            prefetch_fills: next(),
            useful_prefetches: next(),
            writebacks: next(),
            useless_prefetch_evictions: next(),
        };
        let (l1d, l1i, l2) = (cache(), cache(), cache());
        let perf = PerfSummary {
            instructions: next(),
            cycles: next(),
        };
        let core = CoreStats {
            committed: next(),
            cycles: next(),
            fetched: next(),
            mispredict_stall_cycles: next(),
            icache_stall_cycles: next(),
            loads_forwarded: next(),
            cache_reject_stalls: next(),
            window_full_stalls: next(),
            lsq_full_stalls: next(),
            store_commit_stalls: next(),
        };
        let memory = MemoryStats {
            requests: next(),
            total_latency: next(),
            row_hits: next(),
            precharges: next(),
            bus_busy_cycles: next(),
            queue_wait_cycles: next(),
        };
        let mut mech = || MechanismStats {
            table_reads: next(),
            table_writes: next(),
            prefetches_requested: next(),
            prefetches_useful: next(),
            sidecar_hits: next(),
            sidecar_misses: next(),
            victims_captured: next(),
        };
        let (mech_l1, mech_l2) = (mech(), mech());
        let mut queue = || PrefetchQueueStats {
            accepted: next(),
            discarded: next(),
            duplicates: next(),
        };
        let (queue_l1, queue_l2) = (queue(), queue());
        let result = RunResult {
            benchmark: "mcf",
            mechanism: MechanismKind::CdpSp,
            perf,
            core,
            l1d,
            l1i,
            l2,
            memory,
            mech_l1: Some(mech_l1),
            mech_l2: Some(mech_l2),
            queue_l1: Some(queue_l1),
            queue_l2: Some(queue_l2),
            hardware: HardwareBudget::none("CDPSP"),
            sampling: Some(SamplingEstimate::from_points(vec![SampledPoint {
                interval: 3,
                weight: 1.0,
                cpi: 1.5,
            }])),
        };
        let mut e = microlib_model::Encoder::new();
        result.encode(&mut e);
        let bytes = e.into_bytes();
        assert_eq!(
            microlib_model::codec::fnv1a(&bytes),
            0xd5a5_1c2f_a342_6987,
            "memo layout moved ({} bytes)",
            bytes.len()
        );
        let back = RunResult::decode(&mut microlib_model::Decoder::new(&bytes)).unwrap();
        assert_eq!(back.core, result.core);
        assert_eq!(back.l2, result.l2);
        assert_eq!(back.queue_l2, result.queue_l2);
    }
}
