//! SimPoint-sampled simulation: run a handful of weighted representative
//! intervals instead of the whole trace window, then reconstruct the
//! whole-window measurements.
//!
//! Sampling is a property of [`SimOptions`]: with
//! [`SamplingMode::SimPoints`] every [`Cell`](crate::Cell) of a registered
//! mechanism (and therefore every campaign cell) turns into
//!
//! 1. a **plan** — BBV-profile the window, cluster the interval vectors,
//!    keep a weighted representative (plus, for multi-member clusters, a
//!    centroid-farthest probe) per cluster
//!    ([`microlib_trace::SamplingPlan`]; shared across all mechanisms of a
//!    benchmark through the [`ArtifactStore`]);
//! 2. one **continuous pass** over the trace — the usual warm phase up to
//!    the window start (sharing the same warm-state checkpoints full-mode
//!    cells use), then detailed simulation of each slice in steady state
//!    (ramped in, measured between counter snapshots, quiesced) with
//!    functional fast-forward through the gaps, so caches, memory and the
//!    mechanism evolve over the whole window exactly once;
//! 3. a **reconstruction** — per-slice CPIs and counters recombined into
//!    one weighted whole-window [`RunResult`], carrying a
//!    [`SamplingEstimate`] with the per-interval CPIs and a reported error
//!    bound.
//!
//! The reconstruction is deterministic (slices run in interval order and
//! combine in fixed order), so sampled campaigns keep the engine's
//! bit-identical-across-thread-counts guarantee — for any worker count
//! and with the artifact store on or off.

use crate::artifacts::ArtifactStore;
use crate::simulator::{simulate, Plan, RunResult, SimError, SimOptions};
use microlib_cpu::CoreStats;
use microlib_mech::MechanismKind;
use microlib_model::stats::{SampledPoint, SamplingEstimate};
use microlib_model::{
    CacheStats, MechanismStats, MemoryStats, PerfSummary, PrefetchQueueStats, SystemConfig,
};
use microlib_trace::{benchmarks, SamplingPlan, TraceWindow, Workload};
use std::sync::Arc;

/// How a run covers its trace window.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SamplingMode {
    /// Simulate every instruction of the window in detail (the paper's
    /// fixed-trace methodology; the default).
    #[default]
    Full,
    /// Simulate only SimPoint-selected representative intervals and
    /// reconstruct the whole-window result from their weighted
    /// measurements.
    SimPoints {
        /// Instructions per profiling interval (also the length of each
        /// detailed slice). Intervals that do not fit the window are
        /// degraded to a single full-window slice.
        interval: u64,
        /// Cluster-count cap for k-means (the BIC rule usually keeps
        /// fewer).
        max_clusters: usize,
        /// Functional warm-up budget before the window: `0` warms the
        /// entire trace prefix (exact warm state, the default); a
        /// positive value warms only the last `warmup` instructions
        /// before the window start, trading warm-up time for warm-state
        /// accuracy. Gaps *between* slices are always warmed exactly.
        warmup: u64,
    },
}

impl SamplingMode {
    /// The default SimPoint configuration for a window: twenty intervals
    /// across the simulated region but never shorter than 10 000
    /// instructions (shorter intervals are dominated by interval-to-
    /// interval noise at this simulation scale), at most three clusters —
    /// each sampled at both its centroid-nearest and centroid-farthest
    /// interval — and the exact full-prefix warm-up.
    ///
    /// Accuracy holds across window sizes (median CPI error ~1.4% on the
    /// standard campaign); wall-clock speedup grows with the window, from
    /// ~1.5× at the standard 100 k window to ~3× at 500 k (the regime
    /// SimPoint exists for — the floor is the minimum detailed coverage a
    /// 2%-accurate estimate needs).
    ///
    /// # Examples
    ///
    /// ```
    /// use microlib::SamplingMode;
    /// use microlib_trace::TraceWindow;
    ///
    /// let mode = SamplingMode::simpoints_for(TraceWindow::new(150_000, 500_000));
    /// assert_eq!(
    ///     mode,
    ///     SamplingMode::SimPoints { interval: 25_000, max_clusters: 3, warmup: 0 }
    /// );
    /// ```
    pub fn simpoints_for(window: TraceWindow) -> Self {
        SamplingMode::SimPoints {
            interval: (window.simulate / 20).max(10_000),
            max_clusters: 3,
            warmup: 0,
        }
    }

    /// Whether this mode samples (anything but [`SamplingMode::Full`]).
    pub fn is_sampled(&self) -> bool {
        !matches!(self, SamplingMode::Full)
    }
}

/// Computes (or fetches) the sampling plan and runs one detailed slice per
/// representative interval, recombining the results. Called by
/// [`ArtifactStore::run`] when a cell's `opts.sampling` samples.
pub(crate) fn run_sampled(
    store: Option<&ArtifactStore>,
    config: Arc<SystemConfig>,
    label: MechanismKind,
    benchmark: &str,
    opts: &SimOptions,
) -> Result<RunResult, SimError> {
    let SamplingMode::SimPoints {
        interval,
        max_clusters,
        warmup,
    } = opts.sampling
    else {
        unreachable!("run_sampled requires a sampling mode");
    };
    let interval = interval.max(1);
    let max_clusters = max_clusters.max(1);
    let plan = match store {
        Some(store) => {
            store.sampling_plan(benchmark, opts.seed, opts.window, interval, max_clusters)?
        }
        None => {
            let profile = benchmarks::by_name(benchmark)
                .ok_or_else(|| SimError::UnknownBenchmark(benchmark.to_owned()))?;
            let workload = Workload::shared(profile, opts.seed);
            Arc::new(SamplingPlan::profile(
                workload.stream(),
                opts.window,
                interval,
                max_clusters,
                opts.seed,
            ))
        }
    };

    let windows: Vec<TraceWindow> = plan.windows().map(|(w, _)| w).collect();
    let weights: Vec<f64> = plan.windows().map(|(_, weight)| weight).collect();
    // Prefix warm-up budget: 0 warms the whole prefix [0, skip); a
    // positive budget warms only the last `warmup` instructions before
    // the window (the gaps between slices are always warmed exactly).
    let warm_start = if warmup == 0 {
        0
    } else {
        opts.window.skip.saturating_sub(warmup)
    };

    // A degenerate single-slice plan (window too short to cluster) runs
    // exactly as a full simulation would (bit-identical).
    let detail = if windows.len() == 1 && windows[0] == opts.window {
        Plan::full(opts.window, warm_start)
    } else {
        Plan::slices(&windows, opts.window.skip, warm_start)
    };
    let parts = simulate(
        store,
        config,
        label.build(),
        label,
        benchmark,
        opts,
        &detail,
    )?;
    let parts: Vec<(f64, RunResult)> = weights.into_iter().zip(parts).collect();
    Ok(combine(label, opts, &plan, parts))
}

/// Recombines per-slice measurements into one weighted whole-window
/// [`RunResult`]: every rate (CPI, misses per instruction, …) is the
/// cluster-weighted mean of the slice rates, scaled back to the window's
/// instruction count and rounded.
fn combine(
    label: MechanismKind,
    opts: &SimOptions,
    plan: &SamplingPlan,
    parts: Vec<(f64, RunResult)>,
) -> RunResult {
    debug_assert!(!parts.is_empty(), "a plan always has at least one point");
    let total = opts.window.simulate;
    // Per-part scale: weight × (window length / slice length). Multiplying
    // a slice counter by its scale and summing yields the whole-window
    // estimate of that counter.
    let scales: Vec<f64> = parts
        .iter()
        .map(|(w, r)| w * total as f64 / r.perf.instructions.max(1) as f64)
        .collect();
    // Each part's counter times its scale, summed over the parts in order.
    let agg = |get: &dyn Fn(&RunResult) -> u64| -> u64 {
        parts
            .iter()
            .zip(&scales)
            .map(|((_, r), s)| get(r) as f64 * s)
            .sum::<f64>()
            .round() as u64
    };

    let points: Vec<SampledPoint> = plan
        .points()
        .iter()
        .zip(&parts)
        .map(|(p, (_, r))| SampledPoint {
            interval: p.interval,
            weight: p.weight,
            cpi: r.perf.cycles as f64 / r.perf.instructions.max(1) as f64,
        })
        .collect();
    let estimate = SamplingEstimate::from_points(points);
    // Weighted CPI × instructions — identical to scaling each slice's
    // cycles (the scales factor out), stated once so perf and core agree.
    let cycles = (estimate.cpi * total as f64).round() as u64;

    let first = &parts[0].1;
    RunResult {
        benchmark: first.benchmark,
        mechanism: label,
        perf: PerfSummary {
            instructions: total,
            cycles,
        },
        core: CoreStats {
            committed: total,
            cycles,
            ..CoreStats::from_fn(|get| agg(&|r| get(&r.core)))
        },
        l1d: CacheStats::from_fn(|get| agg(&|r| get(&r.l1d))),
        l1i: CacheStats::from_fn(|get| agg(&|r| get(&r.l1i))),
        l2: CacheStats::from_fn(|get| agg(&|r| get(&r.l2))),
        memory: MemoryStats::from_fn(|get| agg(&|r| get(&r.memory))),
        mech_l1: first
            .mech_l1
            .map(|_| MechanismStats::from_fn(|get| agg(&|r| r.mech_l1.map_or(0, |m| get(&m))))),
        mech_l2: first
            .mech_l2
            .map(|_| MechanismStats::from_fn(|get| agg(&|r| r.mech_l2.map_or(0, |m| get(&m))))),
        queue_l1: first.queue_l1.map(|_| {
            PrefetchQueueStats::from_fn(|get| agg(&|r| r.queue_l1.map_or(0, |q| get(&q))))
        }),
        queue_l2: first.queue_l2.map(|_| {
            PrefetchQueueStats::from_fn(|get| agg(&|r| r.queue_l2.map_or(0, |q| get(&q))))
        }),
        hardware: first.hardware.clone(),
        sampling: Some(estimate),
    }
}
