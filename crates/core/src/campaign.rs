//! The campaign engine: rayon-backed (benchmark × mechanism) sweeps with
//! deterministic result ordering, per-cell error capture and structured
//! progress reporting.
//!
//! A [`Campaign`] is the reusable form of the repo's central operation —
//! "run every cell of a sweep under one fixed methodology". Cells are
//! independent deterministic simulations, so they are distributed over a
//! work-stealing thread pool; results are keyed by cell index, which makes
//! the output **bit-identical for any worker count** (the paper's
//! repeatability requirement, enforced by `tests/campaign_smoke.rs`).
//!
//! A campaign always runs every cell and records each failure next to its
//! coordinates, so one bad configuration never aborts a 338-cell sweep
//! ([`CampaignReport::into_matrix`] surfaces the first failure when a
//! caller wants all-or-nothing).
//!
//! # Crash-safe resume
//!
//! A campaign over a store with an on-disk tier
//! ([`ArtifactStore::with_disk_cache`], or `MICROLIB_CACHE_DIR`) is
//! resumable: every finished cell is journaled to the disk memo the
//! moment it completes (one atomically written file per cell), so a
//! campaign killed at any point — `SIGKILL` included — restarts,
//! re-serves the journaled cells from disk and recomputes only the
//! missing ones, with bit-identical output. The same key mechanism makes
//! re-runs **incremental**: the content key covers the configuration,
//! window, seed and sampling mode, so a config tweak invalidates exactly
//! the cells it touches.

use crate::artifacts::ArtifactStore;
use crate::cell::Cell;
use crate::experiment::{ExperimentConfig, Matrix};
use crate::simulator::{RunResult, SimError};
use microlib_mech::MechanismKind;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Progress snapshot passed to the campaign's progress callback after each
/// cell finishes. Callbacks run concurrently on worker threads; completion
/// order is **not** deterministic (route this to stderr, never into result
/// tables).
#[derive(Clone, Copy, Debug)]
pub struct CellUpdate<'a> {
    /// Cells finished so far, including this one.
    pub completed: usize,
    /// Total cells in the campaign.
    pub total: usize,
    /// Benchmark of the finished cell.
    pub benchmark: &'a str,
    /// Mechanism of the finished cell.
    pub mechanism: MechanismKind,
    /// Whether the cell simulated cleanly.
    pub ok: bool,
    /// Wall-clock time the cell took.
    pub elapsed: Duration,
}

type ProgressFn = dyn Fn(&CellUpdate<'_>) + Send + Sync;

/// A configured, reusable (benchmark × mechanism) sweep.
///
/// # Examples
///
/// ```
/// use microlib::{Campaign, ExperimentConfig, SamplingMode};
/// use microlib_mech::MechanismKind;
/// use microlib_model::SystemConfig;
/// use microlib_trace::TraceWindow;
///
/// let cfg = ExperimentConfig {
///     system: SystemConfig::baseline_constant_memory(),
///     benchmarks: vec!["swim".into(), "gzip".into()],
///     mechanisms: vec![MechanismKind::Base, MechanismKind::Ghb],
///     window: TraceWindow::new(0, 2_000),
///     seed: 7,
///     threads: 2,
///     sampling: SamplingMode::Full,
/// };
/// let report = Campaign::new(cfg).run()?;
/// assert_eq!(report.cells().len(), 4);
/// assert_eq!(report.failure_count(), 0);
/// let matrix = report.into_matrix()?;
/// assert!(matrix.speedup("swim", MechanismKind::Ghb) > 0.0);
/// # Ok::<(), microlib::SimError>(())
/// ```
pub struct Campaign {
    config: ExperimentConfig,
    progress: Option<Box<ProgressFn>>,
    store: Arc<ArtifactStore>,
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("config", &self.config)
            .field("progress", &self.progress.as_ref().map(|_| ".."))
            .field("store", &self.store)
            .finish()
    }
}

impl Campaign {
    /// Creates a campaign over `config`'s (benchmark × mechanism) grid.
    ///
    /// Unless `MICROLIB_ARTIFACTS` disables sharing, the campaign owns a
    /// fresh [`ArtifactStore`], so its cells share one trace buffer and
    /// one warm state per benchmark instead of re-deriving them per
    /// mechanism. Use [`with_store`](Campaign::with_store) to share
    /// artifacts *across* campaigns as well.
    pub fn new(config: ExperimentConfig) -> Self {
        let store = if ArtifactStore::enabled_by_env() {
            ArtifactStore::new()
        } else {
            ArtifactStore::disabled()
        };
        Campaign {
            config,
            progress: None,
            store: Arc::new(store),
        }
    }

    /// Replaces the campaign's artifact store with a shared one (a
    /// [disabled](ArtifactStore::disabled) store turns sharing off and
    /// routes every cell through the cold path).
    pub fn with_store(mut self, store: Arc<ArtifactStore>) -> Self {
        self.store = store;
        self
    }

    /// Disables artifact sharing for this campaign: every cell generates
    /// its trace and runs its full warmup from scratch (the cold path;
    /// results are identical either way).
    pub fn without_artifacts(self) -> Self {
        self.with_store(Arc::new(ArtifactStore::disabled()))
    }

    /// The store the campaign's cells run through.
    pub fn artifact_store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }

    /// Installs a progress callback, invoked from worker threads after
    /// every cell.
    pub fn with_progress(
        mut self,
        progress: impl Fn(&CellUpdate<'_>) + Send + Sync + 'static,
    ) -> Self {
        self.progress = Some(Box::new(progress));
        self
    }

    /// The sweep configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Number of cells the sweep will run.
    pub fn cell_count(&self) -> usize {
        self.config.benchmarks.len() * self.config.mechanisms.len()
    }

    /// Worker threads the sweep will use (resolving `0` to the core count).
    pub fn effective_threads(&self) -> usize {
        if self.config.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            self.config.threads
        }
    }

    /// Runs every cell across the work-stealing pool.
    ///
    /// Cell results come back in row-major (benchmark-major,
    /// mechanism-minor) order regardless of the worker count or scheduling;
    /// per-cell simulation failures are *captured* in the report, not
    /// returned here.
    ///
    /// # Errors
    ///
    /// Only configuration-level failure (an invalid [`SystemConfig`]
    /// rejected before any cell runs) aborts the campaign.
    ///
    /// [`SystemConfig`]: microlib_model::SystemConfig
    pub fn run(&self) -> Result<CampaignReport, SimError> {
        self.config.system.validate()?;
        let jobs: Vec<(&str, MechanismKind)> = self
            .config
            .benchmarks
            .iter()
            .flat_map(|b| self.config.mechanisms.iter().map(move |m| (b.as_str(), *m)))
            .collect();
        let total = jobs.len();
        let opts = self.config.options();
        // One Arc'd configuration for the whole sweep: cells share it
        // instead of deep-cloning SystemConfig per run.
        let system = Arc::new(self.config.system.clone());

        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(self.effective_threads().clamp(1, total.max(1)))
            .build()
            .expect("campaign thread pool");

        let completed = AtomicUsize::new(0);
        let cells: Vec<CampaignCell> = pool.install(|| {
            jobs.par_iter()
                .map(|&(benchmark, mechanism)| {
                    let started = Instant::now();
                    let cell = Cell::new(Arc::clone(&system), benchmark, opts, mechanism);
                    let outcome = self.store.run(&cell);
                    let elapsed = started.elapsed();
                    if let Some(progress) = &self.progress {
                        progress(&CellUpdate {
                            completed: completed.fetch_add(1, Ordering::Relaxed) + 1,
                            total,
                            benchmark,
                            mechanism,
                            ok: outcome.is_ok(),
                            elapsed,
                        });
                    }
                    CampaignCell {
                        benchmark: benchmark.to_owned(),
                        mechanism,
                        elapsed,
                        outcome,
                    }
                })
                .collect()
        });

        Ok(CampaignReport {
            benchmarks: self.config.benchmarks.clone(),
            mechanisms: self.config.mechanisms.clone(),
            cells,
        })
    }
}

/// One finished sweep cell: its coordinates, its wall-clock cost and its
/// simulation outcome (captured, never propagated mid-sweep).
#[derive(Debug)]
pub struct CampaignCell {
    /// Benchmark simulated.
    pub benchmark: String,
    /// Mechanism simulated.
    pub mechanism: MechanismKind,
    /// Wall-clock time of the cell.
    pub elapsed: Duration,
    /// The measurements, or why the cell failed.
    pub outcome: Result<RunResult, SimError>,
}

/// Results of a full campaign, in deterministic row-major order.
#[derive(Debug)]
pub struct CampaignReport {
    benchmarks: Vec<String>,
    mechanisms: Vec<MechanismKind>,
    cells: Vec<CampaignCell>,
}

impl CampaignReport {
    /// Benchmarks in row order.
    pub fn benchmarks(&self) -> &[String] {
        &self.benchmarks
    }

    /// Mechanisms in column order.
    pub fn mechanisms(&self) -> &[MechanismKind] {
        &self.mechanisms
    }

    /// All cells, row-major (benchmark-major, mechanism-minor).
    pub fn cells(&self) -> &[CampaignCell] {
        &self.cells
    }

    /// The cells that failed, in deterministic order.
    pub fn failures(&self) -> impl Iterator<Item = &CampaignCell> {
        self.cells.iter().filter(|c| c.outcome.is_err())
    }

    /// Number of failed cells.
    pub fn failure_count(&self) -> usize {
        self.failures().count()
    }

    /// Sum of per-cell wall-clock times (the sweep's total CPU-side work;
    /// wall-clock of the whole sweep is roughly this over the thread
    /// count).
    pub fn total_cell_time(&self) -> Duration {
        self.cells.iter().map(|c| c.elapsed).sum()
    }

    /// Converts into the indexable [`Matrix`], surfacing the first failure
    /// (in deterministic cell order) if any cell failed.
    ///
    /// # Errors
    ///
    /// The first cell failure, if any.
    pub fn into_matrix(self) -> Result<Matrix, SimError> {
        let mut results = Vec::with_capacity(self.cells.len());
        for cell in self.cells {
            results.push(cell.outcome?);
        }
        Ok(Matrix::from_parts(
            self.benchmarks,
            self.mechanisms,
            results,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microlib_model::SystemConfig;
    use microlib_trace::TraceWindow;
    use std::sync::Mutex;

    fn tiny_config(threads: usize) -> ExperimentConfig {
        ExperimentConfig {
            system: SystemConfig::baseline_constant_memory(),
            benchmarks: vec!["swim".into(), "gzip".into(), "mcf".into()],
            mechanisms: vec![MechanismKind::Base, MechanismKind::Tp],
            window: TraceWindow::new(0, 2_000),
            seed: 1,
            threads,
            sampling: crate::SamplingMode::Full,
        }
    }

    #[test]
    fn cells_come_back_in_row_major_order() {
        let report = Campaign::new(tiny_config(4)).run().unwrap();
        let coords: Vec<(String, MechanismKind)> = report
            .cells()
            .iter()
            .map(|c| (c.benchmark.clone(), c.mechanism))
            .collect();
        let expected: Vec<(String, MechanismKind)> = ["swim", "gzip", "mcf"]
            .iter()
            .flat_map(|b| {
                [MechanismKind::Base, MechanismKind::Tp]
                    .iter()
                    .map(|m| (b.to_string(), *m))
            })
            .collect();
        assert_eq!(coords, expected);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let serial = Campaign::new(tiny_config(1)).run().unwrap();
        let parallel = Campaign::new(tiny_config(8)).run().unwrap();
        for (a, b) in serial.cells().iter().zip(parallel.cells()) {
            assert_eq!(a.benchmark, b.benchmark);
            assert_eq!(a.mechanism, b.mechanism);
            let (ra, rb) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
            assert_eq!(ra.perf, rb.perf);
            assert_eq!(ra.l1d, rb.l1d);
            assert_eq!(ra.l2, rb.l2);
        }
    }

    #[test]
    fn bad_cell_is_captured_not_fatal() {
        let mut cfg = tiny_config(2);
        cfg.benchmarks = vec!["swim".into(), "quake3".into(), "gzip".into()];
        let report = Campaign::new(cfg).run().unwrap();
        assert_eq!(report.cells().len(), 6);
        assert_eq!(report.failure_count(), 2, "both quake3 cells fail");
        for cell in report.failures() {
            assert_eq!(cell.benchmark, "quake3");
            assert!(matches!(cell.outcome, Err(SimError::UnknownBenchmark(_))));
        }
        // The healthy cells still carry results.
        assert!(report.cells()[0].outcome.is_ok());
        // into_matrix surfaces the first failure deterministically.
        assert!(matches!(
            report.into_matrix(),
            Err(SimError::UnknownBenchmark(n)) if n == "quake3"
        ));
    }

    #[test]
    fn progress_reports_every_cell_once() {
        let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let report = Campaign::new(tiny_config(3))
            .with_progress(move |u| {
                sink.lock().unwrap().push((
                    u.benchmark.to_owned(),
                    u.mechanism,
                    u.completed,
                    u.total,
                ));
            })
            .run()
            .unwrap();
        let seen = seen.lock().unwrap().clone();
        assert_eq!(seen.len(), report.cells().len());
        assert!(seen
            .iter()
            .all(|(_, _, done, total)| { *total == 6 && (1..=6).contains(done) }));
        // Every coordinate reported exactly once.
        let mut coords: Vec<String> = seen.iter().map(|(b, m, _, _)| format!("{b}/{m}")).collect();
        coords.sort();
        coords.dedup();
        assert_eq!(coords.len(), 6);
    }

    #[test]
    fn config_error_aborts_before_any_cell() {
        let mut cfg = tiny_config(1);
        cfg.system.l1d.ports = 0;
        assert!(matches!(Campaign::new(cfg).run(), Err(SimError::Config(_))));
    }
}
