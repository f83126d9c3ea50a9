//! Validation harnesses for the paper's §2.2: model-fidelity comparison
//! (Fig 1), reverse-engineering error measurement (Fig 2) and the DBCP
//! initial-vs-fixed study (Fig 3).

use crate::artifacts::ArtifactStore;
use crate::cell::Cell;
use crate::simulator::{run_one, RunResult, SimError, SimOptions};
use microlib_mech::MechanismKind;
use microlib_model::{FidelityConfig, MemoryModel, SystemConfig};
use microlib_trace::TraceWindow;
use std::sync::Arc;

/// One benchmark's IPC under two cache-model fidelities (Fig 1).
#[derive(Clone, Debug)]
pub struct FidelityComparison {
    /// Benchmark name.
    pub benchmark: String,
    /// IPC with the detailed MicroLib model.
    pub detailed_ipc: f64,
    /// IPC with the SimpleScalar-like idealized model.
    pub idealized_ipc: f64,
}

impl FidelityComparison {
    /// Relative IPC difference (idealized vs detailed), in percent.
    pub fn gap_percent(&self) -> f64 {
        if self.detailed_ipc == 0.0 {
            return 0.0;
        }
        (self.idealized_ipc - self.detailed_ipc) / self.detailed_ipc * 100.0
    }
}

/// Runs Fig 1's comparison: the same benchmark + baseline cache under the
/// detailed and the SimpleScalar-like fidelity models. Both runs draw the
/// trace (and, per fidelity configuration, the warm state) from `store`,
/// and repeated comparisons across a battery are served from its memo.
///
/// # Errors
///
/// Propagates any [`SimError`] from the underlying runs.
pub fn compare_fidelity(
    store: &ArtifactStore,
    benchmark: &str,
    window: TraceWindow,
    seed: u64,
) -> Result<FidelityComparison, SimError> {
    let opts = SimOptions {
        seed,
        window,
        ..SimOptions::default()
    };
    let mut detailed_cfg = SystemConfig::baseline_constant_memory();
    detailed_cfg.fidelity = FidelityConfig::microlib();
    let mut idealized_cfg = detailed_cfg.clone();
    idealized_cfg.fidelity = FidelityConfig::simplescalar_like();
    let base = |cfg: SystemConfig| {
        store.run(&Cell::new(
            Arc::new(cfg),
            benchmark,
            opts,
            MechanismKind::Base,
        ))
    };
    let detailed = base(detailed_cfg)?;
    let idealized = base(idealized_cfg)?;
    Ok(FidelityComparison {
        benchmark: benchmark.to_owned(),
        detailed_ipc: detailed.perf.ipc(),
        idealized_ipc: idealized.perf.ipc(),
    })
}

/// One benchmark's speedup under two experimental setups (Fig 2's
/// reverse-engineering error, reproduced as setup sensitivity: the article
/// numbers come from running the article setup rather than from reading
/// the articles' graphs).
#[derive(Clone, Debug)]
pub struct SetupComparison {
    /// Benchmark name.
    pub benchmark: String,
    /// Speedup in the reproduction's standard setup.
    pub ours: f64,
    /// Speedup in the original article's setup (long arbitrary window,
    /// constant 70-cycle memory).
    pub article_setup: f64,
}

impl SetupComparison {
    /// Relative speedup error, in percent (Fig 2's y-axis).
    pub fn relative_error_percent(&self) -> f64 {
        if self.article_setup == 0.0 {
            return 0.0;
        }
        (self.ours - self.article_setup) / self.article_setup * 100.0
    }

    /// Whether the setups disagree on speedup vs slowdown (the paper's
    /// gcc/gzip sign-flip observation for TK).
    pub fn tendency_flipped(&self) -> bool {
        (self.ours > 1.0) != (self.article_setup > 1.0)
    }
}

/// Measures one mechanism's speedup under the reproduction's setup vs the
/// validation setup the articles used ("2-billion instruction traces,
/// skipping the first billion … original SimpleScalar 70-cycle constant
/// latency memory model", scaled down).
///
/// # Errors
///
/// Propagates any [`SimError`] from the four underlying runs.
pub fn compare_setups(
    mechanism: MechanismKind,
    benchmark: &str,
    our_window: TraceWindow,
    article_window: TraceWindow,
    seed: u64,
) -> Result<SetupComparison, SimError> {
    let ours_cfg = SystemConfig::baseline();
    let our_opts = SimOptions {
        seed,
        window: our_window,
        ..SimOptions::default()
    };

    let speedup = |cfg: &SystemConfig, opts: &SimOptions| -> Result<f64, SimError> {
        let base = run_one(cfg, MechanismKind::Base, benchmark, opts)?;
        let with = run_one(cfg, mechanism, benchmark, opts)?;
        Ok(with.perf.speedup_over(&base.perf))
    };

    Ok(SetupComparison {
        benchmark: benchmark.to_owned(),
        ours: speedup(&ours_cfg, &our_opts)?,
        article_setup: article_speedup(
            &ArtifactStore::disabled(),
            mechanism,
            benchmark,
            article_window,
            seed,
        )?,
    })
}

/// The article half of [`compare_setups`] alone: speedup of `mechanism`
/// on `benchmark` under the original articles' setup (long arbitrary
/// window, constant 70-cycle memory). Split out so harnesses that already
/// hold the standard-setup speedup (from a campaign matrix) don't have to
/// re-simulate it. The Base half of the pair is mechanism-independent, so
/// across the per-mechanism loops of Fig 2 (and the DBCP study of Fig 3,
/// which uses the same setup) `store`'s memo computes it once per
/// benchmark instead of once per mechanism.
///
/// # Errors
///
/// Any [`SimError`] from the two underlying runs.
pub fn article_speedup(
    store: &ArtifactStore,
    mechanism: MechanismKind,
    benchmark: &str,
    article_window: TraceWindow,
    seed: u64,
) -> Result<f64, SimError> {
    let cfg = Arc::new(SystemConfig {
        memory: MemoryModel::simplescalar_70(),
        ..SystemConfig::baseline()
    });
    let opts = SimOptions {
        seed,
        window: article_window,
        ..SimOptions::default()
    };
    let run = |kind| store.run(&Cell::new(Arc::clone(&cfg), benchmark, opts, kind));
    let base = run(MechanismKind::Base)?;
    let with = run(mechanism)?;
    Ok(with.perf.speedup_over(&base.perf))
}

/// Fig 3: speedups of the initial (buggy) and fixed DBCP implementations
/// on one benchmark, under the validation setup.
#[derive(Clone, Debug)]
pub struct DbcpComparison {
    /// Benchmark name.
    pub benchmark: String,
    /// Speedup of the initial reverse-engineered implementation.
    pub initial: f64,
    /// Speedup of the fixed implementation.
    pub fixed: f64,
}

impl DbcpComparison {
    /// Relative difference in percent (the paper reports an average 38%).
    pub fn difference_percent(&self) -> f64 {
        if self.initial == 0.0 {
            return 0.0;
        }
        (self.fixed - self.initial) / self.initial * 100.0
    }
}

/// Runs Fig 3's initial-vs-fixed DBCP comparison on one benchmark. The
/// three runs share one trace and warm state through `store`, and the Base
/// run is memo-shared with any other experiment using the same setup.
///
/// # Errors
///
/// Propagates any [`SimError`] from the three underlying runs.
pub fn compare_dbcp_variants(
    store: &ArtifactStore,
    benchmark: &str,
    window: TraceWindow,
    seed: u64,
) -> Result<DbcpComparison, SimError> {
    let cfg = Arc::new(SystemConfig::baseline_constant_memory());
    let opts = SimOptions {
        seed,
        window,
        ..SimOptions::default()
    };
    let run = |kind| store.run(&Cell::new(Arc::clone(&cfg), benchmark, opts, kind));
    let base = run(MechanismKind::Base)?;
    let initial = run(MechanismKind::DbcpInitial)?;
    let fixed = run(MechanismKind::Dbcp)?;
    Ok(DbcpComparison {
        benchmark: benchmark.to_owned(),
        initial: initial.perf.speedup_over(&base.perf),
        fixed: fixed.perf.speedup_over(&base.perf),
    })
}

/// Convenience: the speedup of one run pair.
pub fn speedup_of(with: &RunResult, base: &RunResult) -> f64 {
    with.perf.speedup_over(&base.perf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idealized_model_is_at_least_as_fast() {
        let store = ArtifactStore::disabled();
        let cmp = compare_fidelity(&store, "swim", TraceWindow::new(0, 4_000), 2).unwrap();
        assert!(
            cmp.idealized_ipc >= cmp.detailed_ipc * 0.98,
            "removing hazards must not slow the machine: {cmp:?}"
        );
    }

    #[test]
    fn gap_percent_sign_convention() {
        let c = FidelityComparison {
            benchmark: "x".into(),
            detailed_ipc: 1.0,
            idealized_ipc: 1.1,
        };
        assert!((c.gap_percent() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn setup_comparison_runs() {
        let cmp = compare_setups(
            MechanismKind::Tp,
            "gzip",
            TraceWindow::new(0, 3_000),
            TraceWindow::new(1_000, 3_000),
            4,
        )
        .unwrap();
        assert!(cmp.ours > 0.0 && cmp.article_setup > 0.0);
    }

    #[test]
    fn dbcp_variants_both_run() {
        let store = ArtifactStore::disabled();
        let cmp = compare_dbcp_variants(&store, "gzip", TraceWindow::new(0, 3_000), 6).unwrap();
        assert!(cmp.initial > 0.0 && cmp.fixed > 0.0);
    }

    #[test]
    fn tendency_flip_detection() {
        let c = SetupComparison {
            benchmark: "x".into(),
            ours: 0.98,
            article_setup: 1.02,
        };
        assert!(c.tendency_flipped());
    }
}
