//! # microlib-bench
//!
//! Experiment harnesses that regenerate every figure and table of the
//! MicroLib paper. Each `fig*`/`tab*` binary prints the same rows/series
//! the paper reports; `run_all` executes the full battery **in process**,
//! sharing one standard campaign across every experiment that needs it.
//! [`experiments::ALL`] is the experiment index.
//!
//! All binaries accept the environment overrides (numbers in decimal or
//! `0x` hex; a malformed value is an error naming the variable — `run_all`
//! exits 2 on it, see [`check_env`]):
//!
//! - `MICROLIB_SKIP` — warmed (functionally simulated) instructions
//!   (default 150 000);
//! - `MICROLIB_SIM` — detailed-simulated instructions (default 100 000);
//! - `MICROLIB_SEED` — workload seed (default `0xC0FFEE`);
//! - `MICROLIB_THREADS` — worker threads (default: all cores);
//! - `MICROLIB_ARTIFACTS` — `off`/`0`/`false` disables the shared
//!   artifact store (traces, warm checkpoints, sampling plans, cell
//!   memo); results are bit-identical either way;
//! - `MICROLIB_SAMPLED` — `1`/`on` runs sweeps SimPoint-sampled with the
//!   default plan for the window, `interval/clusters[/warmup]` picks an
//!   explicit plan (what `run_all --sampled` sets; see
//!   [`SamplingMode::SimPoints`]).
//!
//! Result tables are written to stdout and are bit-identical for any
//! `MICROLIB_THREADS` value; progress and timing go to stderr.

#![warn(missing_docs)]

use microlib::{ArtifactStore, Campaign, ExperimentConfig, Matrix, SamplingMode, SimOptions};
use microlib_trace::TraceWindow;
use std::io::Write as _;
use std::sync::{Arc, Mutex};

pub mod experiments;

/// Reads a numeric environment override: unset or empty gives `default`;
/// otherwise the value must be a decimal or `0x`-prefixed hex `u64` (the
/// form repro lines print seeds in).
///
/// # Errors
///
/// A message naming the variable when the value does not parse.
pub fn env_u64(name: &str, default: u64) -> Result<u64, String> {
    let value = match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => return Ok(default),
        Err(std::env::VarError::NotUnicode(raw)) => raw.to_string_lossy().into_owned(),
        Ok(value) if value.trim().is_empty() => return Ok(default),
        Ok(value) => value,
    };
    parse_u64(&value).ok_or_else(|| format!("{name}={value:?} is not a decimal or 0x-hex integer"))
}

fn parse_u64(raw: &str) -> Option<u64> {
    let raw = raw.trim();
    match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

/// Checks every environment override the standard settings read, so a
/// driver can reject a malformed value before any work starts.
///
/// # Errors
///
/// The first malformed override.
pub fn check_env() -> Result<(), String> {
    for name in [
        "MICROLIB_SKIP",
        "MICROLIB_SIM",
        "MICROLIB_SEED",
        "MICROLIB_THREADS",
    ] {
        env_u64(name, 0)?;
    }
    sampling_from_env(TraceWindow::new(0, 0)).map(|_| ())
}

/// The standard settings read their overrides infallibly: a malformed
/// value panics with the error (drivers reject it earlier through
/// [`check_env`]).
fn std_u64(name: &str, default: u64) -> u64 {
    env_u64(name, default).unwrap_or_else(|e| panic!("{e}"))
}

/// Environment-configurable trace window shared by all experiments.
pub fn std_window() -> TraceWindow {
    TraceWindow::new(
        std_u64("MICROLIB_SKIP", 150_000),
        std_u64("MICROLIB_SIM", 100_000),
    )
}

/// The longer "article setup" window for validation experiments (the
/// paper's "skip 1 billion, simulate 2 billion", scaled).
pub fn article_window() -> TraceWindow {
    let w = std_window();
    TraceWindow::new(w.skip / 2, w.simulate * 2)
}

/// Environment-configurable seed.
pub fn std_seed() -> u64 {
    std_u64("MICROLIB_SEED", 0xC0FFEE)
}

/// Environment-configurable thread count (0 = all cores).
pub fn std_threads() -> usize {
    std_u64("MICROLIB_THREADS", 0) as usize
}

/// Environment-configurable sampling mode (`MICROLIB_SAMPLED`): unset,
/// `0`, `off` or `false` run full simulations; `1`, `on` or `true` use
/// [`SamplingMode::simpoints_for`] the standard window; an
/// `interval/clusters[/warmup]` triple picks an explicit SimPoint plan.
/// Any other value is malformed (see [`check_env`]).
pub fn std_sampling() -> SamplingMode {
    sampling_from_env(std_window()).unwrap_or_else(|e| panic!("{e}"))
}

fn sampling_from_env(window: TraceWindow) -> Result<SamplingMode, String> {
    match std::env::var("MICROLIB_SAMPLED") {
        Ok(value) => parse_sampling_spec(&value, window).ok_or_else(|| {
            format!("MICROLIB_SAMPLED={value:?} is not 0/1/on/off or interval/clusters[/warmup]")
        }),
        Err(_) => Ok(SamplingMode::Full),
    }
}

fn parse_sampling_spec(spec: &str, window: TraceWindow) -> Option<SamplingMode> {
    match spec {
        "" | "0" | "off" | "false" => Some(SamplingMode::Full),
        "1" | "on" | "true" => Some(SamplingMode::simpoints_for(window)),
        spec => {
            let parts: Vec<Option<u64>> = spec.split('/').map(|p| p.parse::<u64>().ok()).collect();
            let (interval, clusters, warmup) = match parts.as_slice() {
                [Some(interval), Some(clusters)] => (*interval, *clusters, 0),
                [Some(interval), Some(clusters), Some(warmup)] => (*interval, *clusters, *warmup),
                _ => return None,
            };
            Some(SamplingMode::SimPoints {
                interval,
                max_clusters: clusters as usize,
                warmup,
            })
        }
    }
}

/// Standard [`SimOptions`] for single runs.
pub fn std_options() -> SimOptions {
    SimOptions {
        seed: std_seed(),
        window: std_window(),
        sampling: std_sampling(),
        ..SimOptions::default()
    }
}

/// The paper's main sweep configuration with environment overrides applied.
pub fn std_experiment() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_baseline(std_window());
    cfg.seed = std_seed();
    cfg.threads = std_threads();
    cfg.sampling = std_sampling();
    cfg
}

/// A thread pool honouring `MICROLIB_THREADS`, for experiment-local
/// parallelism outside the campaign engine (per-benchmark comparison
/// loops). Collected results are always in input order, so this never
/// perturbs output tables.
pub fn par_pool() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(std_threads())
        .build()
        .expect("experiment thread pool")
}

/// Runs `cfg` through the campaign engine with progress on stderr.
///
/// Per-cell failures are all reported (coordinates + cause) before the
/// sweep panics — one bad cell no longer masks the rest of a sweep's
/// diagnostics. Standalone binaries abort on the panic (the historical
/// `.expect("sweep runs")` behavior); `run_all` catches it per
/// experiment so one failing experiment cannot sink the battery.
///
/// # Panics
///
/// Panics if the configuration is rejected or any cell fails.
pub fn sweep(cfg: &ExperimentConfig) -> Matrix {
    sweep_with(None, cfg)
}

/// [`sweep`] over a shared [`ArtifactStore`] (`None` keeps the campaign's
/// own per-sweep store). `run_all` passes its battery-wide store so
/// overlapping cells across experiments are computed once.
///
/// # Panics
///
/// Panics if the configuration is rejected or any cell fails (see
/// [`sweep`]).
pub fn sweep_with(store: Option<Arc<ArtifactStore>>, cfg: &ExperimentConfig) -> Matrix {
    sweep_logged(store, None, cfg)
}

/// [`sweep_with`] with an optional per-cell failure sink: failed cells
/// are recorded as `"benchmark x mechanism: cause"` lines *before* the
/// panic, so a battery driver that catches the panic can still report
/// exactly which cells failed at the end of the run.
fn sweep_logged(
    store: Option<Arc<ArtifactStore>>,
    failure_sink: Option<&Mutex<Vec<String>>>,
    cfg: &ExperimentConfig,
) -> Matrix {
    let mut campaign = Campaign::new(cfg.clone());
    if let Some(store) = store {
        campaign = campaign.with_store(store);
    }
    let campaign = campaign.with_progress(|u| {
        eprint!(
            "\r  [{}/{}] {} x {}        ",
            u.completed, u.total, u.benchmark, u.mechanism
        );
        let _ = std::io::stderr().flush();
    });
    eprintln!(
        "campaign: {} cells on {} threads",
        campaign.cell_count(),
        campaign.effective_threads()
    );
    let report = match campaign.run() {
        Ok(report) => report,
        Err(e) => panic!("campaign configuration rejected: {e}"),
    };
    eprintln!();
    if report.failure_count() > 0 {
        for cell in report.failures() {
            let err = cell.outcome.as_ref().expect_err("failure cell");
            eprintln!("  FAILED {} x {}: {err}", cell.benchmark, cell.mechanism);
            if let Some(sink) = failure_sink {
                // Dedup: a cell of the shared standard campaign that
                // fails re-fails under every later experiment that
                // touches `std_matrix` (the panic aborts assignment, so
                // nothing caches) — one summary line per distinct cell.
                let line = format!("{} x {}: {err}", cell.benchmark, cell.mechanism);
                let mut sink = sink.lock().expect("failure sink lock");
                if !sink.contains(&line) {
                    sink.push(line);
                }
            }
        }
        panic!(
            "{} of {} sweep cells failed (details on stderr)",
            report.failure_count(),
            report.cells().len()
        );
    }
    report.into_matrix().expect("all cells succeeded")
}

/// Shared state across experiments in one process: the standard campaign's
/// matrix is computed once and reused by every experiment that sweeps the
/// paper's main setup (`run_all` runs eight such experiments off a single
/// sweep).
#[derive(Debug)]
pub struct Context {
    std_matrix: Option<Matrix>,
    store: Arc<ArtifactStore>,
    cell_failures: Mutex<Vec<String>>,
}

impl Default for Context {
    fn default() -> Self {
        Self::new()
    }
}

impl Context {
    /// Creates an empty context (no sweeps run yet) with a battery-wide
    /// artifact store honouring `MICROLIB_ARTIFACTS` and
    /// `MICROLIB_CACHE_DIR` (the persistent disk tier).
    pub fn new() -> Self {
        Context {
            std_matrix: None,
            store: Arc::new(ArtifactStore::from_env()),
            cell_failures: Mutex::new(Vec::new()),
        }
    }

    /// The battery-wide artifact store. Experiments route their sweeps
    /// and single runs through it so traces, warm states and duplicated
    /// cells are shared across the whole battery.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }

    /// Runs `cfg` through the campaign engine over the battery-wide
    /// artifact store (see [`sweep`] for the failure handling). Failed
    /// cells are additionally recorded in the context's failure log
    /// ([`cell_failures`](Context::cell_failures)) before the panic, so
    /// the battery driver can summarize them after catching it.
    pub fn sweep(&self, cfg: &ExperimentConfig) -> Matrix {
        sweep_logged(
            Some(Arc::clone(&self.store)),
            Some(&self.cell_failures),
            cfg,
        )
    }

    /// The matrix of the standard experiment ([`std_experiment`]), swept on
    /// first use through the campaign engine and cached for the rest of
    /// the process.
    pub fn std_matrix(&mut self) -> &Matrix {
        if self.std_matrix.is_none() {
            self.std_matrix = Some(sweep_logged(
                Some(Arc::clone(&self.store)),
                Some(&self.cell_failures),
                &std_experiment(),
            ));
        }
        self.std_matrix.as_ref().expect("just computed")
    }

    /// Every campaign cell that failed under this context, as
    /// `"benchmark x mechanism: cause"` lines in the order the failures
    /// were reported. `run_all` prints these in its end-of-battery
    /// summary so a partially failed battery can never look green.
    pub fn cell_failures(&self) -> Vec<String> {
        self.cell_failures
            .lock()
            .expect("failure sink lock")
            .clone()
    }
}

/// Prints the standard experiment header.
///
/// # Errors
///
/// Propagates write failures on `w`.
pub fn header(
    w: &mut dyn std::io::Write,
    id: &str,
    paper_ref: &str,
    what: &str,
) -> std::io::Result<()> {
    writeln!(
        w,
        "=============================================================="
    )?;
    writeln!(w, "{id} — {paper_ref}")?;
    writeln!(w, "{what}")?;
    writeln!(w, "window: {} (seed {:#x})", std_window(), std_seed())?;
    writeln!(
        w,
        "=============================================================="
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let w = std_window();
        assert!(w.simulate > 0);
        assert!(std_options().window.simulate > 0);
        let cfg = std_experiment();
        assert_eq!(cfg.benchmarks.len(), 26);
        assert_eq!(cfg.mechanisms.len(), 13);
    }

    #[test]
    fn article_window_is_longer() {
        assert!(article_window().simulate > std_window().simulate);
    }

    #[test]
    fn failed_cells_are_recorded_before_the_sweep_panics() {
        use microlib_mech::MechanismKind;
        use microlib_model::SystemConfig;

        let cx = Context::new();
        let cfg = ExperimentConfig {
            system: SystemConfig::baseline_constant_memory(),
            benchmarks: vec!["swim".into(), "quake3".into()],
            mechanisms: vec![MechanismKind::Base],
            window: TraceWindow::new(0, 1_000),
            seed: 1,
            threads: 1,
            sampling: SamplingMode::Full,
        };
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cx.sweep(&cfg)));
        assert!(panicked.is_err(), "a failed cell still panics the sweep");
        let failures = cx.cell_failures();
        assert_eq!(failures.len(), 1, "one cell failed: {failures:?}");
        assert!(failures[0].contains("quake3"));
        assert!(failures[0].contains("Base"));
        assert!(failures[0].contains("unknown benchmark"));
    }

    #[test]
    fn sampling_spec_parses() {
        let w = TraceWindow::new(0, 100_000);
        assert_eq!(parse_sampling_spec("off", w), Some(SamplingMode::Full));
        assert_eq!(parse_sampling_spec("0", w), Some(SamplingMode::Full));
        assert_eq!(
            parse_sampling_spec("1", w),
            Some(SamplingMode::simpoints_for(w))
        );
        assert_eq!(
            parse_sampling_spec("5000/3", w),
            Some(SamplingMode::SimPoints {
                interval: 5_000,
                max_clusters: 3,
                warmup: 0
            })
        );
        assert_eq!(
            parse_sampling_spec("5000/3/20000", w),
            Some(SamplingMode::SimPoints {
                interval: 5_000,
                max_clusters: 3,
                warmup: 20_000
            })
        );
        // Garbage is malformed, not a silent default plan.
        assert_eq!(parse_sampling_spec("5000:3", w), None);
    }

    #[test]
    fn numbers_parse_decimal_and_hex_and_reject_garbage() {
        assert_eq!(parse_u64("7"), Some(7));
        assert_eq!(parse_u64("0x7"), Some(7));
        assert_eq!(parse_u64("0XC0FFEE"), Some(0xC0FFEE));
        assert_eq!(parse_u64(" 2000 "), Some(2_000));
        assert_eq!(parse_u64("2k"), None);
        assert_eq!(parse_u64("0x"), None);
        assert_eq!(parse_u64("-1"), None);
    }

    #[test]
    fn malformed_env_values_are_errors_naming_the_variable() {
        // Variables no other test reads, so setting them cannot race.
        std::env::set_var("MICROLIB_TEST_ENV_HEX", "0x7");
        assert_eq!(env_u64("MICROLIB_TEST_ENV_HEX", 1), Ok(7));
        std::env::set_var("MICROLIB_TEST_ENV_BAD", "2k");
        let e = env_u64("MICROLIB_TEST_ENV_BAD", 100_000).unwrap_err();
        assert!(e.to_string().contains("MICROLIB_TEST_ENV_BAD"), "{e}");
        assert!(e.to_string().contains("2k"), "{e}");
        assert_eq!(env_u64("MICROLIB_TEST_ENV_UNSET", 5), Ok(5));
    }

    #[test]
    fn header_is_deterministic() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        header(&mut a, "x", "y", "z").unwrap();
        header(&mut b, "x", "y", "z").unwrap();
        assert_eq!(a, b);
    }
}
