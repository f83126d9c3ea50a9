//! End-to-end tests of the campaign service: the daemon must answer
//! byte-for-byte what the library computes, coalesce identical
//! in-flight cells to one compute, turn away overload deterministically
//! with a retry hint, keep its metrics consistent with the requests it
//! served, hold resident warm state under the configured byte cap,
//! survive panicking cells and hostile request heads, bound how long a
//! client may take to send its request, and answer a warm query without
//! waiting on a timer.

use microlib::{ArtifactStore, Cell, SimOptions};
use microlib_mech::MechanismKind;
use microlib_model::SystemConfig;
use microlib_serve::json::Json;
use microlib_serve::server::{BACKLOG, HANDLERS};
use microlib_serve::{
    metric_value, render_result, run_cell, CampaignOutcome, CampaignSpec, Client, Server,
    ServerConfig,
};
use microlib_trace::TraceWindow;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

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

/// Drains `server` on another thread and fails the test if the drain
/// has not returned within `timeout`, instead of hanging the suite.
fn shutdown_within(mut server: Server, timeout: Duration) {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(timeout).is_ok(),
        "shutdown did not return within {timeout:?}"
    );
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

/// A panicking cell (fault-injected) costs one error line, not a worker:
/// the line carries the cell's index, the panic is counted, the
/// in-flight gauge settles to zero, the lone worker serves the next
/// campaign, and the drain returns. Fault arming is process-global, so
/// the armed pair (applu × SP) appears in no other test of this binary.
#[test]
fn panicking_cell_streams_an_error_line_and_the_worker_survives() {
    microlib::fault::arm("cell@applu+SP:*:panic").expect("fault spec parses");
    let (server, client) = boot(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let spec = r#"{"benchmarks":["applu"],"mechanisms":["Base","SP"],
                   "window":{"skip":500,"simulate":500}}"#;
    let lines = completed(&client, spec);
    assert_eq!(lines.len(), 2, "one line per cell: {lines:?}");
    assert!(!lines[0].contains("\"error\""), "{}", lines[0]);
    assert!(
        lines[1].starts_with("{\"cell\":1,\"benchmark\":\"applu\",\"mechanism\":\"SP\",\"error\":\"cell panicked: injected fault"),
        "{}",
        lines[1]
    );
    let metrics = client.metrics().expect("metrics scrape");
    assert_eq!(
        metric_value(&metrics, "serve_cells_panicked_total"),
        Some(1)
    );
    assert_eq!(metric_value(&metrics, "serve_cells_failed_total"), Some(1));
    assert_eq!(metric_value(&metrics, "serve_inflight_cells"), Some(0));

    let follow_up = r#"{"benchmarks":["applu"],"mechanisms":["Base"],
                        "window":{"skip":500,"simulate":600}}"#;
    let lines = completed(&client, follow_up);
    assert_eq!(lines.len(), 1);
    assert!(!lines[0].contains("\"error\""), "{}", lines[0]);
    shutdown_within(server, Duration::from_secs(60));
    microlib::fault::disarm();
}

/// `Client::campaign` counts the cell indices of a `200` stream against
/// the spec: a stream one line short is an `InvalidData` error naming
/// the missing cell, not a `Completed` with a hole in it.
#[test]
fn client_rejects_a_stream_missing_a_cell() {
    let stub = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = stub.local_addr().expect("stub address");
    let stub = std::thread::spawn(move || {
        let (mut stream, _) = stub.accept().expect("accept the client");
        stream
            .write_all(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n\
                  {\"cell\":0,\"benchmark\":\"swim\",\"mechanism\":\"Base\",\"error\":\"stub\"}\n",
            )
            .expect("stub response");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let _ = std::io::copy(&mut stream, &mut std::io::sink());
    });
    let spec = r#"{"benchmarks":["swim"],"mechanisms":["Base","GHB"]}"#;
    let error = Client::new(addr.to_string())
        .campaign(spec)
        .expect_err("a one-line stream for a two-cell campaign");
    assert_eq!(error.kind(), ErrorKind::InvalidData);
    assert!(error.to_string().contains("missing cells [1]"), "{error}");
    stub.join().expect("stub thread");
}

/// A request head line is read at most 8 KiB deep: a 1 MiB header line
/// with no newline is answered 400 (counted as a bad request) at once,
/// not after the 10 s read timeout of a reader waiting for the newline,
/// and the daemon goes on answering.
#[test]
fn oversized_header_line_is_rejected_and_the_daemon_survives() {
    let (server, client) = boot(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let before = client.metrics().expect("metrics scrape");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nX-Long: ")
        .expect("head");
    stream.write_all(&vec![b'a'; 1 << 20]).expect("1 MiB line");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    drop(stream);
    assert!(client.healthz().expect("healthz after the long line"));
    let after = client.metrics().expect("metrics scrape");
    let bad = |text: &str| metric_value(text, "serve_bad_requests_total").expect("counter");
    assert_eq!(bad(&after) - bad(&before), 1);
    drop(server);
}

/// When every handler holds a connection and the connection queue is
/// full, the next connection gets 503 + `Retry-After` from the accept
/// thread (counted apart from the 429 queue cap), and the daemon serves
/// normally once the idle connections go away.
#[test]
fn full_handler_pool_answers_503() {
    let (server, client) = boot(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let idle: Vec<TcpStream> = (0..HANDLERS + BACKLOG)
        .map(|_| TcpStream::connect(server.addr()).expect("connect"))
        .collect();
    let response = raw_get(&server, "/healthz");
    assert!(response.starts_with("HTTP/1.1 503 "), "{response}");
    assert!(response.contains("\r\nRetry-After: 1\r\n"), "{response}");
    // Each held or queued connection now sends its request and is
    // answered in turn.
    for stream in idle {
        let response = send_get(stream, "/healthz");
        assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
    }
    let metrics = client.metrics().expect("metrics scrape");
    assert_eq!(metric_value(&metrics, "serve_busy_rejects_total"), Some(1));
    assert_eq!(metric_value(&metrics, "serve_rejected_total"), Some(0));
    shutdown_within(server, Duration::from_secs(60));
}

/// Sends `GET path` on `stream` and reads the whole response.
fn send_get(mut stream: TcpStream, path: &str) -> String {
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    write!(stream, "GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    response
}

/// `GET path` on a fresh connection to `server`, raw response text.
fn raw_get(server: &Server, path: &str) -> String {
    send_get(TcpStream::connect(server.addr()).expect("connect"), path)
}

/// How long a request head and body may take, from accept (the server's
/// `REQUEST_DEADLINE`), and the slack a test allows past it.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);
const DEADLINE_SLACK: Duration = Duration::from_secs(2);

/// Opens a connection that starts a valid request and then never
/// finishes its header line.
fn trickler(server: &Server) -> TcpStream {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("read timeout");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nX-Slow: ")
        .expect("request start");
    stream
}

/// Sends one more byte of the endless header and collects whatever
/// response has arrived (the server may already have closed: a failed
/// write is not an error here).
fn trickle(stream: &mut TcpStream, response: &mut Vec<u8>) {
    let _ = stream.write_all(b"a");
    let mut buf = [0u8; 512];
    while let Ok(n @ 1..) = stream.read(&mut buf) {
        response.extend_from_slice(&buf[..n]);
    }
}

/// A client trickling its head one byte at a time cannot extend the
/// request deadline: it is answered 408 once the deadline passes.
#[test]
fn trickling_client_is_answered_408_at_the_deadline() {
    let (server, client) = boot(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let started = Instant::now();
    let mut stream = trickler(&server);
    let mut response = Vec::new();
    while response.is_empty() && started.elapsed() < REQUEST_DEADLINE + DEADLINE_SLACK {
        trickle(&mut stream, &mut response);
        std::thread::sleep(Duration::from_millis(200));
    }
    let response = String::from_utf8_lossy(&response);
    assert!(
        response.starts_with("HTTP/1.1 408 "),
        "no 408 within {:?}: {response:?}",
        started.elapsed()
    );
    let metrics = client.metrics().expect("metrics scrape");
    assert_eq!(metric_value(&metrics, "serve_head_timeouts_total"), Some(1));
    assert_eq!(metric_value(&metrics, "serve_bad_requests_total"), Some(0));
    shutdown_within(server, Duration::from_secs(30));
}

/// `HANDLERS + BACKLOG` trickling clients fill every handler and the
/// backlog, so `/healthz` is turned away with 503; once their deadline
/// passes they are all answered 408 and `/healthz` is served again.
#[test]
fn trickling_clients_release_the_pool_at_the_deadline() {
    let (server, client) = boot(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let started = Instant::now();
    let mut tricklers: Vec<TcpStream> =
        (0..HANDLERS + BACKLOG).map(|_| trickler(&server)).collect();
    let first = raw_get(&server, "/healthz");
    assert!(first.starts_with("HTTP/1.1 503 "), "{first}");
    let mut ignored = Vec::new();
    loop {
        for stream in &mut tricklers {
            trickle(stream, &mut ignored);
        }
        let response = raw_get(&server, "/healthz");
        if response.starts_with("HTTP/1.1 200 ") {
            break;
        }
        assert!(response.starts_with("HTTP/1.1 503 "), "{response}");
        assert!(
            started.elapsed() < REQUEST_DEADLINE + DEADLINE_SLACK,
            "/healthz still refused after {:?}",
            started.elapsed()
        );
        std::thread::sleep(Duration::from_millis(200));
    }
    assert!(
        started.elapsed() < REQUEST_DEADLINE + DEADLINE_SLACK,
        "/healthz answered only after {:?}",
        started.elapsed()
    );
    let metrics = client.metrics().expect("metrics scrape");
    let timeouts = metric_value(&metrics, "serve_head_timeouts_total").expect("counter");
    assert!(timeouts >= HANDLERS as u64, "{timeouts} head timeouts");
    drop(tricklers);
    shutdown_within(server, Duration::from_secs(30));
}

/// Draining a daemon bound to the wildcard address returns: the wake-up
/// connection goes to loopback.
#[test]
fn wildcard_bound_daemon_drains() {
    let server = Server::start(ServerConfig {
        addr: "0.0.0.0:0".to_owned(),
        threads: 1,
        ..ServerConfig::default()
    })
    .expect("bind wildcard port");
    let client = Client::new(format!("127.0.0.1:{}", server.addr().port()));
    assert!(
        client.wait_ready(Duration::from_secs(5)),
        "daemon not ready"
    );
    shutdown_within(server, Duration::from_secs(30));
}

/// No request waits on a timer: 200 sequential memo-hit queries finish
/// in under half a second. An accept loop that polls every 5 ms needs
/// about a second for them.
#[test]
fn warm_queries_do_not_wait_on_a_poll() {
    let (server, client) = boot(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let spec = r#"{"benchmarks":["wupwise"],"mechanisms":["Base"],
                   "window":{"skip":500,"simulate":500}}"#;
    let first = completed(&client, spec);
    let started = Instant::now();
    for _ in 0..200 {
        assert_eq!(completed(&client, spec), first);
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "200 warm queries took {elapsed:?}"
    );
    drop(server);
}

/// Seeded random inputs up to 1 MiB never panic the request parsers:
/// raw bytes, JSON punctuation soup, and byte edits of a valid spec.
#[test]
fn request_parsers_never_panic_on_random_input() {
    const VALID: &[u8] = br#"{"benchmarks":["swim","gcc"],"mechanisms":["Base","GHB"],"overrides":"ruu=16,mem=const200","window":{"skip":2000,"simulate":2000},"seed":"0x1234","sampling":"10000/4/500","class":"batch"}"#;
    const SOUP: &[u8] = b"{}[]{}[]\"\",:\\ \t\n0123456789.-+eEtrufalsn";
    for case in 0..96u64 {
        let mut rng =
            SmallRng::seed_from_u64(0x5EED_F00D ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let len = if case % 16 == 0 {
            1 << 20
        } else {
            let bits = rng.gen_range(1..21usize);
            rng.gen_range(0..1usize << bits)
        };
        let bytes: Vec<u8> = match case % 3 {
            0 => (0..len).map(|_| rng.gen::<u64>() as u8).collect(),
            1 => (0..len)
                .map(|_| SOUP[rng.gen_range(0..SOUP.len())])
                .collect(),
            _ => {
                let mut bytes = VALID.to_vec();
                for _ in 0..rng.gen_range(1..8usize) {
                    let at = rng.gen_range(0..bytes.len());
                    let byte = SOUP[rng.gen_range(0..SOUP.len())];
                    match rng.gen_range(0..3u32) {
                        0 => bytes[at] = byte,
                        1 => bytes.insert(at, byte),
                        _ => {
                            bytes.remove(at);
                        }
                    }
                }
                bytes
            }
        };
        let text = String::from_utf8_lossy(&bytes);
        let outcome = std::panic::catch_unwind(|| {
            let _ = Json::parse(&text);
            let _ = CampaignSpec::parse(&text);
        });
        assert!(
            outcome.is_ok(),
            "case {case} ({} bytes) panicked",
            bytes.len()
        );
    }
}
