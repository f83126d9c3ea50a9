//! Cross-crate integration tests: the full simulator (workload → OoO core →
//! hierarchy → mechanism → SDRAM) exercised end-to-end.
//!
//! Windows are kept small so the suite stays debug-build friendly; the
//! experiment binaries in `crates/bench` are the full-scale runs.

use microlib::{
    run_one, ArtifactStore, Campaign, Cell, CellMechanism, ExperimentConfig, SamplingMode,
    SimError, SimOptions,
};
use microlib_mech::{DbcpVariant, DeadBlockPrefetcher, MechanismKind};
use microlib_model::{FidelityConfig, SystemConfig};
use microlib_trace::{benchmarks, TraceWindow};
use std::sync::Arc;

fn quick(skip: u64, simulate: u64) -> SimOptions {
    SimOptions {
        window: TraceWindow::new(skip, simulate),
        ..SimOptions::default()
    }
}

#[test]
fn every_mechanism_runs_clean_on_sdram() {
    // Value integrity is checked on every load inside run_one; an Err here
    // means the hierarchy corrupted or lost data.
    for kind in MechanismKind::study_set() {
        let r = run_one(
            &SystemConfig::baseline(),
            kind,
            "gzip",
            &quick(8_000, 4_000),
        )
        .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert_eq!(
            r.perf.instructions, 4_000,
            "{kind:?} must commit the window"
        );
        assert!(r.perf.ipc() > 0.01, "{kind:?} IPC collapsed");
    }
}

#[test]
fn pointer_chasing_benchmark_runs_clean_with_value_consumers() {
    // mcf exercises the value-carrying paths hardest (pointer loads, CDP
    // scans, decoys).
    for kind in [
        MechanismKind::Cdp,
        MechanismKind::CdpSp,
        MechanismKind::Markov,
    ] {
        let r = run_one(&SystemConfig::baseline(), kind, "mcf", &quick(8_000, 4_000))
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert_eq!(r.perf.instructions, 4_000);
    }
}

#[test]
fn runs_are_deterministic() {
    let a = run_one(
        &SystemConfig::baseline(),
        MechanismKind::Ghb,
        "swim",
        &quick(5_000, 4_000),
    )
    .unwrap();
    let b = run_one(
        &SystemConfig::baseline(),
        MechanismKind::Ghb,
        "swim",
        &quick(5_000, 4_000),
    )
    .unwrap();
    assert_eq!(a.perf, b.perf);
    assert_eq!(a.l1d, b.l1d);
    assert_eq!(a.l2, b.l2);
    assert_eq!(a.memory, b.memory);
}

#[test]
fn different_seeds_change_the_trace() {
    let mut opts = quick(5_000, 4_000);
    let a = run_one(
        &SystemConfig::baseline(),
        MechanismKind::Base,
        "swim",
        &opts,
    )
    .unwrap();
    opts.seed ^= 0xDEAD;
    let b = run_one(
        &SystemConfig::baseline(),
        MechanismKind::Base,
        "swim",
        &opts,
    )
    .unwrap();
    assert_ne!(a.perf.cycles, b.perf.cycles, "seed must matter");
}

#[test]
fn writeback_fault_injection_is_caught() {
    // The paper's §2.2 anecdote: a forgotten dirty bit silently corrupts
    // data unless values are checked. Reproduce via fault injection at the
    // lowest level (no public simulator path drops writebacks).
    use microlib_cpu::OoOCore;
    use microlib_mem::MemorySystem;
    use microlib_model::{CoreConfig, Cycle};
    use microlib_trace::Workload;

    let workload = Workload::new(benchmarks::by_name("gzip").unwrap(), 7);
    let mut mem = MemorySystem::new(SystemConfig::baseline_constant_memory(), Vec::new()).unwrap();
    workload.initialize(mem.functional_mut());
    mem.inject_writeback_drop_fault(true);
    let mut core = OoOCore::new(CoreConfig::baseline());
    let mut trace = workload.stream().take(30_000);
    let mut now = Cycle::ZERO;
    let mut violated = false;
    while !core.drained() && now.raw() < 3_000_000 {
        let completions = mem.begin_cycle(now);
        core.cycle(now, &completions, &mut mem, &mut trace);
        if mem.integrity_error().is_some() {
            violated = true;
            break;
        }
        now += 1;
    }
    assert!(
        violated,
        "dropped writebacks must be detected by the value checker"
    );
}

#[test]
fn idealized_fidelity_is_at_least_as_fast() {
    let mut detailed_cfg = SystemConfig::baseline_constant_memory();
    detailed_cfg.fidelity = FidelityConfig::microlib();
    let mut ideal_cfg = detailed_cfg.clone();
    ideal_cfg.fidelity = FidelityConfig::simplescalar_like();
    let opts = quick(5_000, 5_000);
    let detailed = run_one(&detailed_cfg, MechanismKind::Base, "mgrid", &opts).unwrap();
    let ideal = run_one(&ideal_cfg, MechanismKind::Base, "mgrid", &opts).unwrap();
    assert!(
        ideal.perf.ipc() >= detailed.perf.ipc() * 0.99,
        "removing hazards must not hurt: ideal {} vs detailed {}",
        ideal.perf.ipc(),
        detailed.perf.ipc()
    );
}

#[test]
fn warmup_removes_cold_misses() {
    let cold = run_one(
        &SystemConfig::baseline_constant_memory(),
        MechanismKind::Base,
        "crafty",
        &quick(0, 4_000),
    )
    .unwrap();
    let warm = run_one(
        &SystemConfig::baseline_constant_memory(),
        MechanismKind::Base,
        "crafty",
        &quick(30_000, 4_000),
    )
    .unwrap();
    assert!(
        warm.l1d.miss_ratio().unwrap() < cold.l1d.miss_ratio().unwrap(),
        "functional warmup must reduce the miss ratio: warm {:?} vs cold {:?}",
        warm.l1d.miss_ratio(),
        cold.l1d.miss_ratio()
    );
}

#[test]
fn matrix_base_column_is_unity() {
    let cfg = ExperimentConfig {
        system: SystemConfig::baseline_constant_memory(),
        benchmarks: vec!["swim".into(), "gzip".into()],
        mechanisms: vec![MechanismKind::Base, MechanismKind::Tp, MechanismKind::Sp],
        window: TraceWindow::new(5_000, 3_000),
        seed: 3,
        threads: 0,
        sampling: SamplingMode::Full,
    };
    let m = Campaign::new(cfg).run().unwrap().into_matrix().unwrap();
    for b in ["swim", "gzip"] {
        assert!((m.speedup(b, MechanismKind::Base) - 1.0).abs() < 1e-12);
        for k in [MechanismKind::Tp, MechanismKind::Sp] {
            let s = m.speedup(b, k);
            assert!(
                s > 0.5 && s < 3.0,
                "{b}/{k:?} speedup {s} out of plausible range"
            );
        }
    }
}

#[test]
fn ghb_beats_base_on_streaming_workload() {
    // The paper's headline winner must at least win its home turf.
    let opts = quick(40_000, 10_000);
    let base = run_one(
        &SystemConfig::baseline(),
        MechanismKind::Base,
        "swim",
        &opts,
    )
    .unwrap();
    let ghb = run_one(&SystemConfig::baseline(), MechanismKind::Ghb, "swim", &opts).unwrap();
    assert!(
        ghb.perf.speedup_over(&base.perf) > 1.05,
        "GHB speedup on swim too small: {:.3}",
        ghb.perf.speedup_over(&base.perf)
    );
}

#[test]
fn cdp_degrades_mcf() {
    // Fig 4 anecdote: "CDP also does degrade the performance of
    // pointer-intensive benchmarks like mcf (0.75 speedup)".
    let opts = quick(40_000, 15_000);
    let base = run_one(&SystemConfig::baseline(), MechanismKind::Base, "mcf", &opts).unwrap();
    let cdp = run_one(&SystemConfig::baseline(), MechanismKind::Cdp, "mcf", &opts).unwrap();
    assert!(
        cdp.perf.speedup_over(&base.perf) < 1.0,
        "CDP must hurt mcf: {:.3}",
        cdp.perf.speedup_over(&base.perf)
    );
}

#[test]
fn dbcp_variants_differ() {
    let opts = quick(30_000, 10_000);
    let cfg = SystemConfig::baseline_constant_memory();
    let base = run_one(&cfg, MechanismKind::Base, "facerec", &opts).unwrap();
    let fixed = run_one(&cfg, MechanismKind::Dbcp, "facerec", &opts).unwrap();
    let initial = CellMechanism::custom(MechanismKind::DbcpInitial, "initial", || {
        Box::new(DeadBlockPrefetcher::new(DbcpVariant::Initial))
    });
    let initial = ArtifactStore::disabled()
        .run(&Cell::new(Arc::new(cfg), "facerec", opts, initial))
        .unwrap();
    // Both run clean; the fixed variant must not be worse than the buggy
    // one (Fig 3's direction).
    let sf = fixed.perf.speedup_over(&base.perf);
    let si = initial.perf.speedup_over(&base.perf);
    assert!(sf >= si - 0.02, "fixed {sf:.3} vs initial {si:.3}");
}

#[test]
fn unknown_benchmark_error_reports_name() {
    let e = run_one(
        &SystemConfig::baseline(),
        MechanismKind::Base,
        "doom3",
        &quick(0, 100),
    )
    .unwrap_err();
    match e {
        SimError::UnknownBenchmark(n) => assert_eq!(n, "doom3"),
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn all_26_benchmarks_run_clean_on_base() {
    for bench in benchmarks::NAMES {
        let r = run_one(
            &SystemConfig::baseline_constant_memory(),
            MechanismKind::Base,
            bench,
            &quick(4_000, 2_000),
        )
        .unwrap_or_else(|e| panic!("{bench}: {e}"));
        assert_eq!(r.perf.instructions, 2_000, "{bench}");
    }
}
