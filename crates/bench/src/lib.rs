//! # microlib-bench
//!
//! Experiment harnesses that regenerate every figure and table of the
//! MicroLib paper. `run_all` executes the battery **in process**, sharing
//! one standard campaign across every experiment that needs it, and
//! `run_all --only <name>` runs one experiment. [`experiments::ALL`] is
//! the experiment index.
//!
//! Every experiment reads its window, seed, threads and sampling mode
//! from the [`Context`]'s [`Settings`] (the `MICROLIB_*` variables; see
//! [`Settings`] for the table). `run_all` exits 2 on a malformed value.
//!
//! Result tables are bit-identical for any `MICROLIB_THREADS` value;
//! progress and timing go to stderr.

#![warn(missing_docs)]

use microlib::{ArtifactStore, Campaign, ExperimentConfig, Matrix, Settings};
use std::sync::{Arc, Mutex};

pub mod experiments;

/// Runs `cfg` through the campaign engine over `store` with progress on
/// stderr.
///
/// Per-cell failures are all reported (coordinates + cause) before the
/// sweep panics — one bad cell no longer masks the rest of a sweep's
/// diagnostics — and recorded in `failure_sink` as `"benchmark x
/// mechanism: cause"` lines, so a battery driver that catches the panic
/// can still report exactly which cells failed at the end of the run.
fn sweep_logged(
    store: Arc<ArtifactStore>,
    failure_sink: &Mutex<Vec<String>>,
    cfg: &ExperimentConfig,
) -> Matrix {
    let campaign = Campaign::new(cfg.clone())
        .with_store(store)
        .with_progress(|u| {
            // One line per tenth of the campaign: `completed` is unique
            // per cell, so each decile is crossed (and printed) once.
            if u.completed * 10 / u.total > (u.completed - 1) * 10 / u.total {
                eprintln!(
                    "  [{}/{}] {} x {}",
                    u.completed, u.total, u.benchmark, u.mechanism
                );
            }
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
    if report.failure_count() > 0 {
        for cell in report.failures() {
            let err = cell.outcome.as_ref().expect_err("failure cell");
            eprintln!("  FAILED {} x {}: {err}", cell.benchmark, cell.mechanism);
            // Dedup: a cell of the shared standard campaign that fails
            // re-fails under every later experiment that touches
            // `std_matrix` (the panic aborts assignment, so nothing
            // caches) — one summary line per distinct cell.
            let line = format!("{} x {}: {err}", cell.benchmark, cell.mechanism);
            let mut sink = failure_sink.lock().expect("failure sink lock");
            if !sink.contains(&line) {
                sink.push(line);
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

/// Shared state across experiments in one process: the settings, and the
/// standard campaign's matrix, computed once and reused by every
/// experiment that sweeps the paper's main setup (`run_all` runs eight
/// such experiments off a single sweep).
#[derive(Debug)]
pub struct Context {
    settings: Settings,
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
    /// [`with_settings`](Context::with_settings) the process environment.
    ///
    /// # Panics
    ///
    /// On a malformed `MICROLIB_*` variable (binaries parse
    /// [`Settings::from_env`] themselves and exit 2 instead).
    pub fn new() -> Self {
        Self::with_settings(Settings::from_env().unwrap_or_else(|e| panic!("{e}")))
    }

    /// Creates an empty context (no sweeps run yet) with a battery-wide
    /// artifact store built from `settings` (see
    /// [`ArtifactStore::from_settings`]).
    pub fn with_settings(settings: Settings) -> Self {
        Context {
            store: Arc::new(ArtifactStore::from_settings(&settings)),
            settings,
            std_matrix: None,
            cell_failures: Mutex::new(Vec::new()),
        }
    }

    /// The settings every experiment runs at.
    pub fn settings(&self) -> &Settings {
        &self.settings
    }

    /// The battery-wide artifact store. Experiments route their sweeps
    /// and single runs through it so traces, warm states and duplicated
    /// cells are shared across the whole battery.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }

    /// Runs `cfg` through the campaign engine over the battery-wide
    /// artifact store, with progress on stderr.
    ///
    /// # Panics
    ///
    /// If the configuration is rejected or any cell fails. Every failed
    /// cell is reported on stderr and recorded in the context's failure
    /// log ([`cell_failures`](Context::cell_failures)) first, so the
    /// battery driver can summarize them after catching the panic.
    pub fn sweep(&self, cfg: &ExperimentConfig) -> Matrix {
        sweep_logged(Arc::clone(&self.store), &self.cell_failures, cfg)
    }

    /// The matrix of the standard experiment
    /// ([`Settings::experiment`]), swept on first use through the
    /// campaign engine and cached for the rest of the process.
    pub fn std_matrix(&mut self) -> &Matrix {
        if self.std_matrix.is_none() {
            self.std_matrix = Some(self.sweep(&self.settings.experiment()));
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

    /// Prints the standard experiment header.
    ///
    /// # Errors
    ///
    /// Propagates write failures on `w`.
    pub fn header(
        &self,
        w: &mut dyn std::io::Write,
        id: &str,
        paper_ref: &str,
        what: &str,
    ) -> std::io::Result<()> {
        let rule = "==============================================================";
        writeln!(w, "{rule}")?;
        writeln!(w, "{id} — {paper_ref}")?;
        writeln!(w, "{what}")?;
        let (window, seed) = (self.settings.window(), self.settings.seed);
        writeln!(w, "window: {window} (seed {seed:#x})")?;
        writeln!(w, "{rule}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microlib::SamplingMode;
    use microlib_trace::TraceWindow;

    #[test]
    fn defaults_are_sane() {
        let settings = Settings::default();
        assert!(settings.window().simulate > 0);
        assert!(settings.sim_options().window.simulate > 0);
        let cfg = settings.experiment();
        assert_eq!(cfg.benchmarks.len(), 26);
        assert_eq!(cfg.mechanisms.len(), 13);
    }

    #[test]
    fn article_window_is_longer() {
        let settings = Settings::default();
        assert!(settings.article_window().simulate > settings.window().simulate);
    }

    #[test]
    fn failed_cells_are_recorded_before_the_sweep_panics() {
        use microlib_mech::MechanismKind;
        use microlib_model::SystemConfig;

        let cx = Context::with_settings(Settings::default());
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
    fn header_is_deterministic() {
        let cx = Context::with_settings(Settings::default());
        let mut a = Vec::new();
        let mut b = Vec::new();
        cx.header(&mut a, "x", "y", "z").unwrap();
        cx.header(&mut b, "x", "y", "z").unwrap();
        assert_eq!(a, b);
    }
}
