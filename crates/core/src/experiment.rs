//! The experiment matrix: the declarative description of a
//! (benchmark × mechanism) sweep and its indexable result grid. The sweep
//! itself runs on the campaign engine ([`crate::Campaign`]).

use crate::sampling::SamplingMode;
use crate::simulator::{RunResult, SimOptions};
use microlib_mech::MechanismKind;
use microlib_model::SystemConfig;
use microlib_trace::{benchmarks, TraceWindow};

/// Declarative description of a (benchmark × mechanism) sweep.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Shared system configuration.
    pub system: SystemConfig,
    /// Benchmarks to run (names from [`benchmarks::NAMES`]).
    pub benchmarks: Vec<String>,
    /// Mechanism configurations to compare.
    pub mechanisms: Vec<MechanismKind>,
    /// Trace window (identical across cells — the paper's fixed-trace
    /// methodology).
    pub window: TraceWindow,
    /// Workload seed.
    pub seed: u64,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Window coverage: full detailed simulation or SimPoint-sampled
    /// slices (identical across cells, like the window).
    pub sampling: SamplingMode,
}

impl ExperimentConfig {
    /// The paper's main setup: all 26 benchmarks × the 13 study
    /// configurations on the Table 1 baseline, fully simulated.
    pub fn paper_baseline(window: TraceWindow) -> Self {
        ExperimentConfig {
            system: SystemConfig::baseline(),
            benchmarks: benchmarks::NAMES.iter().map(|s| s.to_string()).collect(),
            mechanisms: MechanismKind::study_set().to_vec(),
            window,
            seed: 0xC0FFEE,
            threads: 0,
            sampling: SamplingMode::Full,
        }
    }

    pub(crate) fn options(&self) -> SimOptions {
        SimOptions {
            seed: self.seed,
            window: self.window,
            sampling: self.sampling,
            ..SimOptions::default()
        }
    }
}

/// Results of a full sweep, indexable by (benchmark, mechanism).
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
///     benchmarks: vec!["swim".into(), "crafty".into()],
///     mechanisms: vec![MechanismKind::Base, MechanismKind::Sp],
///     window: TraceWindow::new(0, 2_000),
///     seed: 7,
///     threads: 2,
///     sampling: SamplingMode::Full,
/// };
/// let matrix = Campaign::new(cfg).run()?.into_matrix()?;
/// assert!(matrix.speedup("swim", MechanismKind::Sp) > 0.0);
/// # Ok::<(), microlib::SimError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Matrix {
    benchmarks: Vec<String>,
    mechanisms: Vec<MechanismKind>,
    results: Vec<RunResult>, // row-major: benchmark-major, mechanism-minor
}

impl Matrix {
    pub(crate) fn from_parts(
        benchmarks: Vec<String>,
        mechanisms: Vec<MechanismKind>,
        results: Vec<RunResult>,
    ) -> Self {
        debug_assert_eq!(results.len(), benchmarks.len() * mechanisms.len());
        Matrix {
            benchmarks,
            mechanisms,
            results,
        }
    }

    /// Benchmarks in row order.
    pub fn benchmarks(&self) -> &[String] {
        &self.benchmarks
    }

    /// Mechanisms in column order.
    pub fn mechanisms(&self) -> &[MechanismKind] {
        &self.mechanisms
    }

    /// The result cell for (benchmark, mechanism).
    ///
    /// # Panics
    ///
    /// Panics if either coordinate was not part of the sweep.
    pub fn result(&self, benchmark: &str, mechanism: MechanismKind) -> &RunResult {
        let b = self
            .benchmarks
            .iter()
            .position(|n| n == benchmark)
            .unwrap_or_else(|| panic!("benchmark {benchmark} not in sweep"));
        let m = self
            .mechanisms
            .iter()
            .position(|k| *k == mechanism)
            .unwrap_or_else(|| panic!("mechanism {mechanism} not in sweep"));
        &self.results[b * self.mechanisms.len() + m]
    }

    /// IPC speedup of `mechanism` on `benchmark` relative to the sweep's
    /// `Base` column.
    pub fn speedup(&self, benchmark: &str, mechanism: MechanismKind) -> f64 {
        let base = self.result(benchmark, MechanismKind::Base);
        self.result(benchmark, mechanism)
            .perf
            .speedup_over(&base.perf)
    }

    /// Per-benchmark speedups for one mechanism, in benchmark order.
    pub fn speedups_for(&self, mechanism: MechanismKind) -> Vec<f64> {
        self.benchmarks
            .iter()
            .map(|b| self.speedup(b, mechanism))
            .collect()
    }

    /// Mean speedup over a benchmark selection (the paper's per-figure
    /// averages).
    pub fn mean_speedup_over(&self, mechanism: MechanismKind, selection: &[&str]) -> f64 {
        let vals: Vec<f64> = selection
            .iter()
            .map(|b| self.speedup(b, mechanism))
            .collect();
        microlib_model::stats::mean(&vals).unwrap_or(0.0)
    }

    /// Mean speedup over all benchmarks in the sweep.
    pub fn mean_speedup(&self, mechanism: MechanismKind) -> f64 {
        let names: Vec<&str> = self.benchmarks.iter().map(String::as_str).collect();
        self.mean_speedup_over(mechanism, &names)
    }

    /// All cells (for custom aggregation).
    pub fn iter(&self) -> impl Iterator<Item = &RunResult> {
        self.results.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(cfg: &ExperimentConfig) -> Result<Matrix, crate::SimError> {
        crate::Campaign::new(cfg.clone()).run()?.into_matrix()
    }

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            system: SystemConfig::baseline_constant_memory(),
            benchmarks: vec!["swim".into(), "gzip".into()],
            mechanisms: vec![MechanismKind::Base, MechanismKind::Tp],
            window: TraceWindow::new(0, 2_000),
            seed: 1,
            threads: 2,
            sampling: SamplingMode::Full,
        }
    }

    #[test]
    fn matrix_has_all_cells() {
        let m = sweep(&tiny_config()).unwrap();
        assert_eq!(m.benchmarks().len(), 2);
        assert_eq!(m.mechanisms().len(), 2);
        for b in ["swim", "gzip"] {
            for k in [MechanismKind::Base, MechanismKind::Tp] {
                let r = m.result(b, k);
                assert_eq!(r.benchmark, b);
                assert_eq!(r.mechanism, k);
                assert_eq!(r.perf.instructions, 2_000);
            }
        }
    }

    #[test]
    fn base_speedup_is_exactly_one() {
        let m = sweep(&tiny_config()).unwrap();
        for b in ["swim", "gzip"] {
            assert!((m.speedup(b, MechanismKind::Base) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_and_serial_agree() {
        let mut cfg = tiny_config();
        cfg.threads = 1;
        let serial = sweep(&cfg).unwrap();
        cfg.threads = 4;
        let parallel = sweep(&cfg).unwrap();
        for b in ["swim", "gzip"] {
            for k in [MechanismKind::Base, MechanismKind::Tp] {
                assert_eq!(serial.result(b, k).perf, parallel.result(b, k).perf);
            }
        }
    }

    #[test]
    fn mean_speedup_over_selection() {
        let m = sweep(&tiny_config()).unwrap();
        let all = m.mean_speedup(MechanismKind::Tp);
        let swim_only = m.mean_speedup_over(MechanismKind::Tp, &["swim"]);
        assert!(all > 0.0 && swim_only > 0.0);
    }

    #[test]
    #[should_panic(expected = "not in sweep")]
    fn missing_cell_panics() {
        let m = sweep(&tiny_config()).unwrap();
        m.result("mcf", MechanismKind::Base);
    }
}
