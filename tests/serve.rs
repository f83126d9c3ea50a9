//! End-to-end tests of the campaign service: the daemon must answer
//! byte-for-byte what the library computes, coalesce identical
//! in-flight cells to one compute, turn away overload deterministically
//! with a retry hint, keep its metrics consistent with the requests it
//! served, and hold resident warm state under the configured byte cap.

use microlib::{ArtifactStore, Cell, SimOptions};
use microlib_mech::MechanismKind;
use microlib_model::SystemConfig;
use microlib_serve::{
    metric_value, render_result, run_cell, CampaignOutcome, CampaignSpec, Client, Server,
    ServerConfig,
};
use microlib_trace::TraceWindow;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Boots an in-process daemon on an ephemeral port (memory-only store
/// unless the config says otherwise) and a client pointed at it.
fn boot(config: ServerConfig) -> (Server, Client) {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..config
    })
    .expect("bind ephemeral port");
    let client = Client::new(server.addr().to_string());
    assert!(
        client.wait_ready(Duration::from_secs(5)),
        "daemon not ready"
    );
    (server, client)
}

fn completed(client: &Client, spec: &str) -> Vec<String> {
    match client.campaign(spec).expect("campaign request") {
        CampaignOutcome::Completed(lines) => lines,
        CampaignOutcome::Rejected(response) => {
            panic!(
                "unexpected rejection {}: {}",
                response.status, response.body
            )
        }
    }
}

/// The daemon's streamed NDJSON, restored to grid order, must be
/// byte-identical to a local (no daemon, no HTTP) run of the same spec
/// through `run_cell`, and to `ArtifactStore::run` + `render_result` directly.
#[test]
fn daemon_streams_byte_identical_to_local() {
    let spec_json = r#"{"benchmarks":["swim","gzip"],"mechanisms":["Base","GHB"],
                        "window":{"skip":1000,"simulate":1500}}"#;
    let (server, client) = boot(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let daemon_lines = completed(&client, spec_json);
    drop(server);

    let spec = CampaignSpec::parse(spec_json).expect("spec parses");
    let local_store = ArtifactStore::new();
    let local_lines: Vec<String> = spec
        .cells()
        .iter()
        .map(|cell| run_cell(&local_store, cell))
        .collect();
    assert_eq!(daemon_lines, local_lines, "daemon differs from local run");

    // And against the raw library call, bypassing CellSpec entirely.
    let direct = ArtifactStore::new()
        .run(&Cell::new(
            Arc::clone(&spec.config),
            spec.benchmarks[0],
            spec.opts,
            spec.mechanisms[0],
        ))
        .expect("direct run");
    assert_eq!(daemon_lines[0], render_result(0, &direct));
}

/// N identical concurrent campaigns over one daemon compute each
/// distinct cell exactly once: every request past the first resolves by
/// memo hit or by waiting on the in-flight leader (single-flight).
#[test]
fn identical_concurrent_campaigns_compute_each_cell_once() {
    let spec_json = r#"{"benchmarks":["swim"],"mechanisms":["Base","GHB"],
                        "window":{"skip":1000,"simulate":2000}}"#;
    const SUBMITTERS: usize = 6;
    let (server, client) = boot(ServerConfig {
        threads: 4,
        ..ServerConfig::default()
    });
    let outputs: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|_| scope.spawn(|| completed(&client, spec_json)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for output in &outputs[1..] {
        assert_eq!(output, &outputs[0], "concurrent submitters disagree");
    }
    let stats = server.store().stats();
    assert_eq!(stats.memo_misses, 2, "one compute per distinct cell");
    // Every request past the two computes resolves as a memo hit — a
    // coalesced follower re-probes (and so also counts a hit) once its
    // leader publishes.
    assert_eq!(stats.memo_hits, (SUBMITTERS as u64) * 2 - 2);
    assert!(stats.memo_coalesced <= stats.memo_hits);
}

/// Store-level single-flight: threads released by a barrier into the
/// same cell must produce one compute, with at least one follower
/// parked on the in-flight leader rather than re-running it.
#[test]
fn store_coalesces_simultaneous_identical_cells() {
    const THREADS: usize = 6;
    let store = ArtifactStore::new();
    let config = Arc::new(SystemConfig::baseline());
    let opts = SimOptions {
        window: TraceWindow::new(2_000, 20_000),
        ..SimOptions::default()
    };
    let barrier = Barrier::new(THREADS);
    let ipcs: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    store
                        .run(&Cell::new(
                            Arc::clone(&config),
                            "swim",
                            opts,
                            MechanismKind::Base,
                        ))
                        .expect("cell runs")
                        .perf
                        .ipc()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(ipcs.iter().all(|&ipc| ipc == ipcs[0]), "results diverge");
    let stats = store.stats();
    assert_eq!(stats.memo_misses, 1, "exactly one compute");
    assert_eq!(stats.memo_hits, THREADS as u64 - 1);
    assert!(
        stats.memo_coalesced >= 1,
        "barrier-released duplicates should coalesce on the leader \
         (hits={} coalesced={})",
        stats.memo_hits,
        stats.memo_coalesced
    );
}

/// A campaign that cannot fit under the queue bound is rejected whole
/// with 429 + `Retry-After` — deterministically, because admission is
/// checked against the bound before any cell is enqueued.
#[test]
fn overload_rejects_with_retry_after() {
    let (server, client) = boot(ServerConfig {
        threads: 1,
        queue_cap: 2,
        ..ServerConfig::default()
    });
    let big = r#"{"benchmarks":["swim","gzip","mcf"],"mechanisms":["Base"],
                  "window":{"skip":500,"simulate":500}}"#;
    match client.campaign(big).expect("campaign request") {
        CampaignOutcome::Rejected(response) => {
            assert_eq!(response.status, 429);
            assert_eq!(response.header("Retry-After"), Some("1"));
        }
        CampaignOutcome::Completed(_) => panic!("3 cells admitted past a 2-cell queue bound"),
    }
    let metrics = client.metrics().expect("metrics scrape");
    assert_eq!(metric_value(&metrics, "serve_rejected_total"), Some(1));
    // A campaign that fits the bound still goes through afterwards.
    let small = r#"{"benchmarks":["swim"],"mechanisms":["Base"],
                    "window":{"skip":500,"simulate":500}}"#;
    assert_eq!(completed(&client, small).len(), 1);
    drop(server);
}

/// A body nested deeper than the parser allows is a 400, not a stack
/// overflow that takes the whole daemon down.
#[test]
fn deeply_nested_body_is_rejected_and_the_daemon_survives() {
    let (server, client) = boot(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    match client
        .campaign(&"[".repeat(500_000))
        .expect("campaign request")
    {
        CampaignOutcome::Rejected(response) => assert_eq!(response.status, 400),
        CampaignOutcome::Completed(_) => panic!("a 500 000-deep array was accepted"),
    }
    assert!(client.healthz().expect("healthz after the hostile body"));
    drop(server);
}

/// `/metrics` counters move exactly with the requests served, the
/// gauges settle to zero when the daemon is idle, and the store's
/// counters agree with what the campaign actually computed.
#[test]
fn metrics_track_requests_and_settle_idle() {
    let (server, client) = boot(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let before = client.metrics().expect("metrics scrape");
    assert!(client.healthz().expect("healthz"));
    assert!(client.healthz().expect("healthz"));
    let spec = r#"{"benchmarks":["swim"],"mechanisms":["Base","GHB"],
                   "window":{"skip":500,"simulate":1000}}"#;
    let lines = completed(&client, spec);
    assert_eq!(lines.len(), 2);
    let after = client.metrics().expect("metrics scrape");

    let delta = |name: &str| {
        metric_value(&after, name).expect(name) - metric_value(&before, name).expect(name)
    };
    assert_eq!(delta("serve_healthz_requests_total"), 2);
    assert_eq!(delta("serve_campaign_requests_total"), 1);
    assert_eq!(delta("serve_cells_streamed_total"), 2);
    assert_eq!(delta("serve_cells_failed_total"), 0);
    assert_eq!(delta("serve_metrics_requests_total"), 1);
    assert_eq!(metric_value(&after, "serve_queue_depth"), Some(0));
    assert_eq!(metric_value(&after, "serve_inflight_cells"), Some(0));
    assert!(metric_value(&after, "process_rss_bytes").expect("rss") > 0);
    assert_eq!(metric_value(&after, "store_memo_misses"), Some(2));
    assert_eq!(
        metric_value(&after, "store_memo_misses"),
        Some(server.store().stats().memo_misses)
    );
}

/// The resident warm-state LRU: lowering the byte cap evicts the
/// least-recently-used state (not the most recently touched one), the
/// resident estimate stays under the cap, and an evicted key re-captures
/// on its next request because the capture gate stays armed.
#[test]
fn warm_lru_respects_byte_cap_and_recaptures() {
    let store = ArtifactStore::new();
    let config = Arc::new(SystemConfig::baseline_constant_memory());
    let warm = |bench: &str| store.warm_state(bench, 7, 2_000, 0, &config).expect("warm");
    for bench in ["swim", "gzip", "mcf"] {
        assert!(warm(bench).is_none(), "first {bench} request is declined");
        assert!(warm(bench).is_some(), "second {bench} request captures");
    }
    let resident = store.warm_resident_bytes();
    assert!(resident > 0, "three captured states have a footprint");
    // Touch swim so gzip becomes the LRU victim.
    assert!(warm("swim").is_some(), "resident swim state is a hit");
    let hits_before = store.stats().warm_hits;

    let cap = resident - 1;
    store.set_warm_resident_cap(cap);
    let stats = store.stats();
    assert_eq!(stats.warm_evictions, 1, "one eviction restores the cap");
    assert!(store.warm_resident_bytes() <= cap, "estimate fits the cap");

    // swim was recently touched, so it must still be resident ...
    assert!(warm("swim").is_some());
    assert_eq!(store.stats().warm_hits, hits_before + 1, "swim survived");
    // ... and the evicted gzip re-captures immediately (its gate stays
    // armed), re-entering the LRU under the cap.
    assert!(warm("gzip").is_some(), "evicted key re-captures");
    assert!(
        store.warm_resident_bytes() <= cap,
        "cap holds after re-entry"
    );
}
