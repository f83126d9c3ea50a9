//! End-to-end checks of SimPoint-sampled simulation: the weighted
//! whole-window reconstruction must agree with full simulation within the
//! reported error bound, for every study mechanism, on a strongly-phased
//! workload — and sampled campaigns must keep the engine's determinism
//! guarantees (thread count, artifact store on/off).

use microlib::{
    run_one, ArtifactStore, Campaign, Cell, ExperimentConfig, SamplingMode, SimOptions,
};
use microlib_mech::MechanismKind;
use microlib_model::SystemConfig;
use microlib_trace::TraceWindow;
use std::sync::Arc;

/// The shared scenario: a phased synthetic benchmark over a window wide
/// enough for six 5 000-instruction intervals.
const BENCH: &str = "pulse";

fn window() -> TraceWindow {
    TraceWindow::new(5_000, 30_000)
}

fn sampled_opts() -> SimOptions {
    SimOptions {
        seed: 0xC0FFEE,
        window: window(),
        sampling: SamplingMode::SimPoints {
            interval: 5_000,
            max_clusters: 3,
            warmup: 0,
        },
        ..SimOptions::default()
    }
}

fn full_opts() -> SimOptions {
    SimOptions {
        sampling: SamplingMode::Full,
        ..sampled_opts()
    }
}

fn cpi(r: &microlib::RunResult) -> f64 {
    r.perf.cycles as f64 / r.perf.instructions as f64
}

/// Every mechanism's sampled CPI lands within the estimate's own reported
/// error bound of the full-simulation CPI, and the reconstruction
/// bookkeeping holds (window-length instruction count, weights sum to 1).
#[test]
fn sampled_cpi_within_reported_bound_for_every_mechanism() {
    let config = Arc::new(SystemConfig::baseline_constant_memory());
    let store = ArtifactStore::new();
    for kind in MechanismKind::study_set() {
        let full = store
            .run(&Cell::new(Arc::clone(&config), BENCH, full_opts(), kind))
            .unwrap_or_else(|e| panic!("{kind:?} full: {e}"));
        let sampled = store
            .run(&Cell::new(Arc::clone(&config), BENCH, sampled_opts(), kind))
            .unwrap_or_else(|e| panic!("{kind:?} sampled: {e}"));

        assert_eq!(sampled.perf.instructions, window().simulate, "{kind:?}");
        assert!(
            full.sampling.is_none(),
            "{kind:?}: full runs carry no estimate"
        );
        let est = sampled
            .sampling
            .as_ref()
            .unwrap_or_else(|| panic!("{kind:?}: sampled result lacks its estimate"));
        let weights: f64 = est.points.iter().map(|p| p.weight).sum();
        assert!(
            (weights - 1.0).abs() < 1e-9,
            "{kind:?}: weights sum {weights}"
        );
        assert!(
            (est.cpi - cpi(&sampled)).abs() < 1e-3,
            "{kind:?}: estimate and result disagree"
        );

        let err = (cpi(&sampled) - cpi(&full)).abs();
        assert!(
            err <= est.cpi_error_bound,
            "{kind:?}: |sampled-full| CPI error {err:.4} exceeds reported bound {:.4} \
             (full {:.4}, sampled {:.4})",
            est.cpi_error_bound,
            cpi(&full),
            cpi(&sampled)
        );
    }
}

/// The phased benchmark actually phases: the plan keeps more than one
/// representative interval with genuinely different CPIs.
#[test]
fn phased_benchmark_yields_multiple_weighted_slices() {
    let r = run_one(
        &SystemConfig::baseline_constant_memory(),
        MechanismKind::Base,
        BENCH,
        &sampled_opts(),
    )
    .unwrap();
    let est = r.sampling.as_ref().expect("sampled estimate");
    assert!(
        est.points.len() >= 2,
        "pulse alternates phases, got {} slice(s)",
        est.points.len()
    );
    let cpis: Vec<f64> = est.points.iter().map(|p| p.cpi).collect();
    let max = cpis.iter().cloned().fold(f64::MIN, f64::max);
    let min = cpis.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max > min * 1.2, "phases should differ in CPI: {cpis:?}");
}

/// A sampled campaign returns bit-identical results for any thread count
/// and with the artifact store on or off (plan from replay vs generation,
/// warm from checkpoints vs cold — all the same numbers).
#[test]
fn sampled_campaign_deterministic_across_threads_and_store() {
    let cfg = |threads: usize| ExperimentConfig {
        system: SystemConfig::baseline_constant_memory(),
        benchmarks: vec!["pulse".into(), "drift".into()],
        mechanisms: vec![MechanismKind::Base, MechanismKind::Ghb],
        window: TraceWindow::new(2_000, 12_000),
        seed: 7,
        threads,
        sampling: SamplingMode::SimPoints {
            interval: 3_000,
            max_clusters: 3,
            warmup: 0,
        },
    };
    let serial = Campaign::new(cfg(1)).run().unwrap();
    let parallel = Campaign::new(cfg(4)).run().unwrap();
    let cold = Campaign::new(cfg(2)).without_artifacts().run().unwrap();
    for ((a, b), c) in serial
        .cells()
        .iter()
        .zip(parallel.cells())
        .zip(cold.cells())
    {
        let ra = a.outcome.as_ref().unwrap();
        let rb = b.outcome.as_ref().unwrap();
        let rc = c.outcome.as_ref().unwrap();
        assert_eq!(
            ra.perf, rb.perf,
            "{}/{:?}: thread count",
            a.benchmark, a.mechanism
        );
        assert_eq!(ra.l1d, rb.l1d);
        assert_eq!(
            ra.perf, rc.perf,
            "{}/{:?}: store on vs off",
            a.benchmark, a.mechanism
        );
        assert_eq!(ra.l1d, rc.l1d);
        assert_eq!(ra.sampling, rc.sampling);
    }
}

/// A window too short to cluster degrades to one full-weight slice whose
/// measurements equal full simulation exactly.
#[test]
fn degenerate_sampled_window_equals_full_run() {
    let config = SystemConfig::baseline_constant_memory();
    let opts = SimOptions {
        seed: 3,
        window: TraceWindow::new(1_000, 4_000),
        sampling: SamplingMode::SimPoints {
            interval: 10_000, // longer than the window: nothing to cluster
            max_clusters: 4,
            warmup: 0,
        },
        ..SimOptions::default()
    };
    let sampled = run_one(&config, MechanismKind::Ghb, "swim", &opts).unwrap();
    let full = run_one(
        &config,
        MechanismKind::Ghb,
        "swim",
        &SimOptions {
            sampling: SamplingMode::Full,
            ..opts
        },
    )
    .unwrap();
    assert_eq!(sampled.perf, full.perf);
    assert_eq!(sampled.l1d, full.l1d);
    assert_eq!(sampled.l2, full.l2);
    assert_eq!(sampled.sampling.as_ref().unwrap().points.len(), 1);
}

/// Truncated warm-up (`warmup > 0`) still simulates and commits the whole
/// window; the warm state is approximate by design, so only liveness and
/// bookkeeping are asserted.
#[test]
fn truncated_warmup_runs_and_commits() {
    let opts = SimOptions {
        sampling: SamplingMode::SimPoints {
            interval: 5_000,
            max_clusters: 3,
            warmup: 2_000,
        },
        ..sampled_opts()
    };
    let r = run_one(
        &SystemConfig::baseline_constant_memory(),
        MechanismKind::Sp,
        BENCH,
        &opts,
    )
    .unwrap();
    assert_eq!(r.perf.instructions, window().simulate);
    assert!(r.perf.cycles > 0);
}
