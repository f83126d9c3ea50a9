//! The acceptance property behind the shared-artifact stack: sharing
//! trace buffers, warm-state checkpoints and memoized cells must never
//! change a single result byte. Every study mechanism — the ten that
//! replay their warmup from the recorded event log and the three sidecar
//! mechanisms that keep the exact full warm path — is compared cold vs
//! shared, field for field.

use microlib::report::text_table;
use microlib::{
    run_one, ArtifactStore, Campaign, CampaignReport, Cell, CellMechanism, ExperimentConfig,
    RunResult, SamplingMode, SimOptions,
};
use microlib_mech::{MechanismKind, TagCorrelatingPrefetcher};
use microlib_model::SystemConfig;
use microlib_trace::TraceWindow;
use std::sync::Arc;

fn opts(skip: u64, simulate: u64) -> SimOptions {
    SimOptions {
        window: TraceWindow::new(skip, simulate),
        ..SimOptions::default()
    }
}

/// Every observable field of a run, rendered exhaustively: `RunResult`'s
/// `Debug` output covers perf, all cache/memory/core counters, mechanism
/// and queue stats, and the hardware inventory.
fn fingerprint(r: &RunResult) -> String {
    format!("{r:?}")
}

#[test]
fn shared_artifacts_match_cold_runs_for_every_mechanism() {
    let config = SystemConfig::baseline_constant_memory();
    let shared_config = Arc::new(config.clone());
    let store = ArtifactStore::new();
    let opts = opts(3_000, 2_000);
    let mut kinds = MechanismKind::study_set().to_vec();
    kinds.push(MechanismKind::DbcpInitial);
    for bench in ["swim", "mcf"] {
        for kind in &kinds {
            let cold = run_one(&config, *kind, bench, &opts).unwrap();
            let shared = store
                .run(&Cell::new(Arc::clone(&shared_config), bench, opts, *kind))
                .unwrap();
            assert_eq!(
                fingerprint(&cold),
                fingerprint(&shared),
                "{bench} × {kind:?}: shared artifacts changed the result"
            );
        }
    }
    let stats = store.stats();
    assert!(stats.trace_hits > 0, "cells must share the trace buffer");
    assert!(stats.warm_hits > 0, "cells must share the warm checkpoint");
}

#[test]
fn memo_cache_serves_identical_results() {
    let store = ArtifactStore::new();
    let config = Arc::new(SystemConfig::baseline_constant_memory());
    let opts = opts(1_000, 1_000);
    let first = store
        .run(&Cell::new(
            Arc::clone(&config),
            "gzip",
            opts,
            MechanismKind::Sp,
        ))
        .unwrap();
    let misses = store.stats().memo_misses;
    let second = store
        .run(&Cell::new(
            Arc::clone(&config),
            "gzip",
            opts,
            MechanismKind::Sp,
        ))
        .unwrap();
    assert_eq!(fingerprint(&first), fingerprint(&second));
    assert_eq!(
        store.stats().memo_misses,
        misses,
        "second run must not simulate"
    );
    assert_eq!(store.stats().memo_hits, 1);
}

/// A TCP built with a `capacity`-entry request queue, as a custom cell.
fn tcp_queue(capacity: usize) -> CellMechanism {
    CellMechanism::custom(MechanismKind::Tcp, format!("queue={capacity}"), move || {
        Box::new(TagCorrelatingPrefetcher::with_queue_capacity(capacity))
    })
}

#[test]
fn custom_cells_memoize_by_variant() {
    let store = ArtifactStore::new();
    let config = Arc::new(SystemConfig::baseline());
    let cell = |capacity| {
        Cell::new(
            Arc::clone(&config),
            "mgrid",
            opts(4_000, 4_000),
            tcp_queue(capacity),
        )
    };
    let cold = ArtifactStore::disabled().run(&cell(1)).unwrap();
    let shared = store.run(&cell(1)).unwrap();
    assert_eq!(
        fingerprint(&cold),
        fingerprint(&shared),
        "cold vs shared store"
    );
    assert_eq!(store.stats().memo_misses, 1);

    let again = store.run(&cell(1)).unwrap();
    assert_eq!(fingerprint(&shared), fingerprint(&again));
    assert_eq!(
        store.stats().memo_hits,
        1,
        "same (label, variant): memo hit"
    );
    assert_eq!(store.stats().memo_misses, 1);

    let q4 = store.run(&cell(4)).unwrap();
    assert_eq!(
        store.stats().memo_misses,
        2,
        "queue=4 must not alias queue=1"
    );
    let q4_cold = ArtifactStore::disabled().run(&cell(4)).unwrap();
    assert_eq!(fingerprint(&q4), fingerprint(&q4_cold));
    assert_ne!(
        fingerprint(&q4),
        fingerprint(&shared),
        "the variants differ"
    );
}

/// Custom cells always simulate the whole window: SimPoints options give
/// the full-mode result, cold and through a shared store.
#[test]
fn sampled_custom_cell_equals_its_full_run() {
    let config = Arc::new(SystemConfig::baseline_constant_memory());
    let sampled = SimOptions {
        sampling: SamplingMode::SimPoints {
            interval: 1_000,
            max_clusters: 3,
            warmup: 0,
        },
        ..opts(2_000, 6_000)
    };
    let full = SimOptions {
        sampling: SamplingMode::Full,
        ..sampled
    };
    for store in [ArtifactStore::disabled(), ArtifactStore::new()] {
        let run = |opts| {
            store
                .run(&Cell::new(Arc::clone(&config), "swim", opts, tcp_queue(1)))
                .unwrap()
        };
        let (a, b) = (run(sampled), run(full));
        assert!(a.sampling.is_none(), "custom cells are never sampled");
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }
}

fn campaign_config() -> ExperimentConfig {
    ExperimentConfig {
        system: SystemConfig::baseline_constant_memory(),
        benchmarks: vec!["swim".into(), "gzip".into(), "mcf".into()],
        mechanisms: vec![
            MechanismKind::Base,
            MechanismKind::Ghb,
            MechanismKind::Vc, // sidecar: exercises the exact-warm fallback
            MechanismKind::Tk, // eviction observer: exercises event replay
        ],
        window: TraceWindow::new(2_000, 1_500),
        seed: 0xC0FFEE,
        threads: 2,
        sampling: SamplingMode::Full,
    }
}

/// Renders a report the way the experiment harnesses do, covering every
/// counter that reaches a result table.
fn result_table(report: CampaignReport) -> String {
    let matrix = report.into_matrix().expect("all cells clean");
    let mut rows = Vec::new();
    for b in matrix.benchmarks() {
        let mut row = vec![b.clone()];
        for k in matrix.mechanisms() {
            let r = matrix.result(b, *k);
            row.push(format!(
                "{:.9}/{}/{}/{}/{}",
                matrix.speedup(b, *k),
                r.perf.cycles,
                r.l1d.misses,
                r.l2.misses,
                r.mechanism_stats().prefetches_requested,
            ));
        }
        rows.push(row);
    }
    text_table(&["benchmark", "Base", "GHB", "VC", "TK"], &rows)
}

#[test]
fn campaign_tables_match_with_sharing_on_off_and_memoized() {
    let cfg = campaign_config();
    let cold = result_table(
        Campaign::new(cfg.clone())
            .without_artifacts()
            .run()
            .unwrap(),
    );
    let store = Arc::new(ArtifactStore::new());
    let shared = result_table(
        Campaign::new(cfg.clone())
            .with_store(Arc::clone(&store))
            .run()
            .unwrap(),
    );
    assert_eq!(
        cold.as_bytes(),
        shared.as_bytes(),
        "artifact sharing changed the table:\n--- cold\n{cold}\n--- shared\n{shared}"
    );
    // Re-sweeping over the same store is served entirely from the memo.
    let before = store.stats().memo_misses;
    let memoized = result_table(Campaign::new(cfg).with_store(store.clone()).run().unwrap());
    assert_eq!(cold.as_bytes(), memoized.as_bytes());
    assert_eq!(
        store.stats().memo_misses,
        before,
        "re-sweep must not simulate any cell"
    );
}

#[test]
fn disabled_store_routes_to_cold_path() {
    let store = ArtifactStore::disabled();
    let config = Arc::new(SystemConfig::baseline_constant_memory());
    let o = opts(500, 500);
    store
        .run(&Cell::new(
            Arc::clone(&config),
            "swim",
            o,
            MechanismKind::Tp,
        ))
        .unwrap();
    store
        .run(&Cell::new(
            Arc::clone(&config),
            "swim",
            o,
            MechanismKind::Tp,
        ))
        .unwrap();
    let stats = store.stats();
    assert_eq!(stats.trace_hits + stats.trace_misses, 0);
    assert_eq!(stats.memo_hits + stats.memo_misses, 0);
}

/// Diagnostic (run with `--ignored --nocapture`): where warm time goes.
#[test]
#[ignore = "timing probe, not an assertion"]
fn warm_path_cost_breakdown() {
    use microlib_trace::{benchmarks, TraceBuffer, Workload};
    use std::time::Instant;
    let skip = 150_000u64;
    let config = Arc::new(SystemConfig::baseline());
    for bench in ["swim", "mcf", "gzip"] {
        let w = Arc::new(Workload::new(benchmarks::by_name(bench).unwrap(), 0xC0FFEE));
        let t = Instant::now();
        let buf = Arc::new(TraceBuffer::capture(&w, skip + 100_000));
        let t_capture_trace = t.elapsed();

        // Cold warm (replay cursor, full warm path, Base mech).
        let t = Instant::now();
        let mut mem = microlib::mem::MemorySystem::new(
            Arc::clone(&config),
            vec![MechanismKind::Base.build()],
        )
        .unwrap();
        w.initialize(mem.functional_mut());
        let mut s = TraceBuffer::replay(&buf);
        for _ in 0..skip {
            let inst = s.next().unwrap();
            let mr = inst.mem.map(|m| {
                (
                    m.addr,
                    if m.is_store {
                        microlib::model::AccessKind::Store
                    } else {
                        microlib::model::AccessKind::Load
                    },
                    m.value,
                )
            });
            mem.warm_inst(inst.pc, mr);
        }
        let t_cold_warm = t.elapsed();

        // Capture warm state (recorder run + log).
        let store = ArtifactStore::new();
        store.trace(bench, 0xC0FFEE, skip + 100_000).unwrap();
        assert!(store
            .warm_state(bench, 0xC0FFEE, skip, 0, &config)
            .unwrap()
            .is_none());
        let t = Instant::now();
        let ws = store
            .warm_state(bench, 0xC0FFEE, skip, 0, &config)
            .unwrap()
            .expect("second request captures");
        let t_capture_warm = t.elapsed();
        eprintln!("{bench}: log events = {}", ws.log.len());

        // Restore + replay.
        let t = Instant::now();
        let mut mem2 =
            microlib::mem::MemorySystem::new(Arc::clone(&config), vec![MechanismKind::Ghb.build()])
                .unwrap();
        mem2.restore_warm(&ws.checkpoint);
        mem2.replay_warm_events(&ws.log);
        let t_restore = t.elapsed();

        eprintln!(
            "{bench}: trace-capture {t_capture_trace:?}, cold-warm {t_cold_warm:?}, \
             warm-capture {t_capture_warm:?}, restore+replay {t_restore:?}"
        );
    }
}
