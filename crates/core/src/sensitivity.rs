//! Benchmark-sensitivity analysis (Fig 6) and sensitivity-selected
//! rankings (Fig 7).

use crate::experiment::Matrix;
use microlib_mech::MechanismKind;

/// Per-benchmark sensitivity: how much the mechanism choice matters.
#[derive(Clone, Debug)]
pub struct BenchmarkSensitivity {
    /// Benchmark name.
    pub benchmark: String,
    /// Highest speedup any mechanism achieves.
    pub max_speedup: f64,
    /// Lowest speedup (slowdowns < 1.0 included).
    pub min_speedup: f64,
}

impl BenchmarkSensitivity {
    /// The sensitivity span (max − min); Fig 6's y-axis spread.
    pub fn span(&self) -> f64 {
        self.max_speedup - self.min_speedup
    }
}

/// Computes the per-benchmark speedup spread across all non-Base
/// mechanisms, sorted most-sensitive first.
///
/// # Examples
///
/// ```no_run
/// use microlib::{benchmark_sensitivity, Campaign, ExperimentConfig};
/// use microlib_trace::TraceWindow;
///
/// let cfg = ExperimentConfig::paper_baseline(TraceWindow::new(0, 50_000));
/// let matrix = Campaign::new(cfg.clone()).run()?.into_matrix()?;
/// for s in benchmark_sensitivity(&matrix) {
///     println!("{:10} span {:.3}", s.benchmark, s.span());
/// }
/// # Ok::<(), microlib::SimError>(())
/// ```
pub fn benchmark_sensitivity(matrix: &Matrix) -> Vec<BenchmarkSensitivity> {
    let mut rows: Vec<BenchmarkSensitivity> = matrix
        .benchmarks()
        .iter()
        .map(|b| {
            let speedups: Vec<f64> = matrix
                .mechanisms()
                .iter()
                .filter(|k| **k != MechanismKind::Base)
                .map(|k| matrix.speedup(b, *k))
                .collect();
            BenchmarkSensitivity {
                benchmark: b.clone(),
                max_speedup: speedups.iter().cloned().fold(f64::MIN, f64::max),
                min_speedup: speedups.iter().cloned().fold(f64::MAX, f64::min),
            }
        })
        .collect();
    // total_cmp keeps the comparator a genuine total order even if a
    // degenerate matrix yields a NaN span (same class of hazard as the
    // ranking sort — see rank_by_speedup).
    rows.sort_by(|a, b| b.span().total_cmp(&a.span()));
    rows
}

/// The `count` most and least sensitive benchmarks (Fig 7's high-6/low-6).
pub fn sensitivity_classes(matrix: &Matrix, count: usize) -> (Vec<String>, Vec<String>) {
    let rows = benchmark_sensitivity(matrix);
    let high = rows
        .iter()
        .take(count)
        .map(|r| r.benchmark.clone())
        .collect();
    let low = rows
        .iter()
        .rev()
        .take(count)
        .map(|r| r.benchmark.clone())
        .collect();
    (high, low)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use microlib_model::SystemConfig;
    use microlib_trace::TraceWindow;

    fn matrix() -> Matrix {
        let cfg = ExperimentConfig {
            system: SystemConfig::baseline_constant_memory(),
            benchmarks: vec!["swim".into(), "crafty".into(), "mcf".into()],
            mechanisms: vec![
                MechanismKind::Base,
                MechanismKind::Sp,
                MechanismKind::Markov,
            ],
            window: TraceWindow::new(0, 3_000),
            seed: 5,
            threads: 0,
            sampling: crate::SamplingMode::Full,
        };
        crate::Campaign::new(cfg)
            .run()
            .unwrap()
            .into_matrix()
            .unwrap()
    }

    #[test]
    fn spans_are_nonnegative_and_sorted() {
        let rows = benchmark_sensitivity(&matrix());
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.span() >= 0.0);
            assert!(r.max_speedup >= r.min_speedup);
        }
        for pair in rows.windows(2) {
            assert!(pair[0].span() >= pair[1].span());
        }
    }

    #[test]
    fn classes_partition_extremes() {
        let m = matrix();
        let (high, low) = sensitivity_classes(&m, 1);
        assert_eq!(high.len(), 1);
        assert_eq!(low.len(), 1);
        assert_ne!(high[0], low[0]);
    }

    #[test]
    fn streaming_beats_pointer_chase_in_sensitivity_to_stride_prefetch() {
        // swim (pure strided) must respond to SP far more than crafty
        // (tiny working set).
        let m = matrix();
        let swim = m.speedup("swim", MechanismKind::Sp);
        let crafty = m.speedup("crafty", MechanismKind::Sp);
        assert!(
            swim > crafty - 0.05,
            "swim {swim} should benefit at least as much as crafty {crafty}"
        );
    }
}
