//! The HTTP/1.1 campaign daemon: a hand-rolled `TcpListener` front end
//! over a small worker pool that executes campaign cells through the
//! shared [`ArtifactStore`].
//!
//! # Request flow
//!
//! ```text
//! POST /campaign ── parse spec ── admission (bounded queue, 429 on
//!   overload) ── enqueue cells (interactive queue ahead of batch) ──
//!   workers run cells via ArtifactStore::run (store memo + in-process
//!   single-flight + cross-process leases) ── NDJSON lines streamed back
//!   as cells complete (Connection: close, body ends at EOF)
//! ```
//!
//! # Drain
//!
//! [`Server::shutdown`] (the binary calls it on SIGTERM) stops the
//! accept loop, lets in-flight connections and queued cells finish,
//! rejects new campaigns with 503 meanwhile, then releases the store's
//! leases and fsyncs the memo journal — a drained daemon leaves a
//! lease-free cache directory behind.

use crate::metrics::Metrics;
use crate::spec::{CampaignSpec, CellSpec, Class};
use crate::{json, spec};
use microlib::{ArtifactStore, FinishGuard, LeaseManager};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration (the binary fills this from flags/envs).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7700` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads executing cells.
    pub threads: usize,
    /// Admission bound: max campaign cells queued at once; a campaign
    /// that would push past it is rejected with 429 + `Retry-After`.
    pub queue_cap: usize,
    /// Disk cache directory (leases are layered on it automatically, so
    /// coalescing extends across processes sharing the directory).
    /// `None` = memory-only store.
    pub cache_dir: Option<PathBuf>,
    /// Byte cap for warm states kept resident between requests
    /// (`MICROLIB_SERVE_RESIDENT_MB`); `None` = unbounded.
    pub resident_cap_bytes: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7700".to_owned(),
            threads: 4,
            queue_cap: 256,
            cache_dir: None,
            resident_cap_bytes: None,
        }
    }
}

/// One queued cell plus the channel its rendered line returns on.
struct Job {
    cell: CellSpec,
    done: mpsc::Sender<String>,
}

#[derive(Default)]
struct QueueState {
    interactive: VecDeque<Job>,
    batch: VecDeque<Job>,
    /// Cells queued (both queues).
    queued: usize,
    /// Cells currently executing on a worker.
    inflight: usize,
    /// Connections currently being handled.
    connections: usize,
    /// Tells idle workers to exit (set after the queues drain).
    stop: bool,
}

struct Shared {
    store: Arc<ArtifactStore>,
    metrics: Metrics,
    state: Mutex<QueueState>,
    /// Wakes workers when work arrives (or `stop` is set).
    work_cv: Condvar,
    /// Wakes the drain loop when a connection or cell retires.
    idle_cv: Condvar,
    drain: AtomicBool,
    queue_cap: usize,
}

/// A running daemon; see the module docs for the request flow.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// Sweeps leases + journal when the server drops, whatever the exit
    /// path — `shutdown` also sweeps explicitly on the clean path.
    _finish: FinishGuard,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Binds the listener, spawns the accept loop and worker pool, and
    /// returns immediately. The daemon serves until
    /// [`shutdown`](Server::shutdown) (or drop).
    ///
    /// # Errors
    ///
    /// Any I/O error binding `config.addr`.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let mut store = ArtifactStore::new();
        if let Some(dir) = &config.cache_dir {
            store = store
                .with_disk_cache(dir.clone())
                .with_lease_manager(LeaseManager::new(dir.clone()));
        }
        let store = Arc::new(store);
        if let Some(cap) = config.resident_cap_bytes {
            store.set_warm_resident_cap(cap);
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            store: Arc::clone(&store),
            metrics: Metrics::default(),
            state: Mutex::new(QueueState::default()),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            drain: AtomicBool::new(false),
            queue_cap: config.queue_cap.max(1),
        });
        let workers = (0..config.threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-accept".to_owned())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept loop")
        };
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            workers,
            _finish: store.finish_guard(),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The artifact store answering this daemon's cells.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.shared.store
    }

    /// Whether a drain has been requested.
    pub fn draining(&self) -> bool {
        self.shared.drain.load(Ordering::SeqCst)
    }

    /// Graceful drain: stop accepting, finish every in-flight connection
    /// and queued cell, retire the workers, then release leases and
    /// fsync the memo journal. Idempotent; called by the binary on
    /// SIGTERM and by `Drop`.
    pub fn shutdown(&mut self) {
        self.shared.drain.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        {
            let mut state = self.shared.state.lock().expect("queue lock");
            while state.connections > 0 || state.queued > 0 || state.inflight > 0 {
                state = self.shared.idle_cv.wait(state).expect("queue lock");
            }
            state.stop = true;
        }
        self.shared.work_cv.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.store.finish();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                {
                    let mut state = shared.state.lock().expect("queue lock");
                    state.connections += 1;
                }
                let conn_shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("serve-conn".to_owned())
                    .spawn(move || {
                        handle_connection(stream, &conn_shared);
                        let mut state = conn_shared.state.lock().expect("queue lock");
                        state.connections -= 1;
                        drop(state);
                        conn_shared.idle_cv.notify_all();
                    });
                if spawned.is_err() {
                    let mut state = shared.state.lock().expect("queue lock");
                    state.connections -= 1;
                    drop(state);
                    shared.idle_cv.notify_all();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if shared.drain.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                if shared.drain.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("queue lock");
            loop {
                if let Some(job) = state
                    .interactive
                    .pop_front()
                    .or_else(|| state.batch.pop_front())
                {
                    state.queued -= 1;
                    state.inflight += 1;
                    shared
                        .metrics
                        .queue_depth
                        .store(state.queued as u64, Ordering::Relaxed);
                    shared
                        .metrics
                        .inflight_cells
                        .store(state.inflight as u64, Ordering::Relaxed);
                    break job;
                }
                if state.stop {
                    return;
                }
                state = shared.work_cv.wait(state).expect("queue lock");
            }
        };
        let started = Instant::now();
        let line = spec::run_cell(&shared.store, &job.cell);
        shared
            .metrics
            .cell_latency
            .observe_us(started.elapsed().as_micros() as u64);
        shared
            .metrics
            .cells_streamed
            .fetch_add(1, Ordering::Relaxed);
        if line.contains("\"error\":") {
            shared.metrics.cells_failed.fetch_add(1, Ordering::Relaxed);
        }
        // Retire the cell BEFORE delivering its line: a client that
        // scrapes /metrics the moment its stream completes must see the
        // gauges already settled.
        {
            let mut state = shared.state.lock().expect("queue lock");
            state.inflight -= 1;
            shared
                .metrics
                .inflight_cells
                .store(state.inflight as u64, Ordering::Relaxed);
        }
        shared.idle_cv.notify_all();
        // The receiver hangs up if the client disconnected mid-stream;
        // the cell still completed (and was journaled), so that is not
        // an error here.
        let _ = job.done.send(line);
    }
}

/// A parsed request head plus body.
struct Request {
    method: String,
    path: String,
    body: String,
}

fn read_request(stream: &mut TcpStream) -> Option<Request> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    let mut reader = BufReader::new(stream.try_clone().ok()?);
    let mut line = String::new();
    reader.read_line(&mut line).ok()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_owned();
    let path = parts.next()?.to_owned();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).ok()?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some(value) = header
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
            .and_then(|v| v.parse::<usize>().ok())
        {
            content_length = value;
        }
    }
    // Specs are small; a megabyte bound keeps a hostile Content-Length
    // from ballooning the allocation.
    if content_length > 1 << 20 {
        return None;
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some(Request {
        method,
        path,
        body: String::from_utf8(body).ok()?,
    })
}

fn respond(stream: &mut TcpStream, status: &str, extra_headers: &[(&str, String)], body: &str) {
    let mut head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let started = Instant::now();
    let Some(request) = read_request(&mut stream) else {
        shared.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
        respond(&mut stream, "400 Bad Request", &[], "malformed request\n");
        return;
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            shared
                .metrics
                .healthz_requests
                .fetch_add(1, Ordering::Relaxed);
            respond(&mut stream, "200 OK", &[], "ok\n");
            shared
                .metrics
                .probe_latency
                .observe_us(started.elapsed().as_micros() as u64);
        }
        ("GET", "/metrics") => {
            shared
                .metrics
                .metrics_requests
                .fetch_add(1, Ordering::Relaxed);
            let text = shared.metrics.render(&shared.store);
            respond(&mut stream, "200 OK", &[], &text);
            shared
                .metrics
                .probe_latency
                .observe_us(started.elapsed().as_micros() as u64);
        }
        ("POST", "/campaign") => {
            handle_campaign(&mut stream, shared, &request.body);
            shared
                .metrics
                .campaign_latency
                .observe_us(started.elapsed().as_micros() as u64);
        }
        _ => {
            shared.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            respond(&mut stream, "404 Not Found", &[], "unknown route\n");
        }
    }
}

fn handle_campaign(stream: &mut TcpStream, shared: &Arc<Shared>, body: &str) {
    let spec = match CampaignSpec::parse(body) {
        Ok(spec) => spec,
        Err(message) => {
            shared.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            respond(stream, "400 Bad Request", &[], &format!("{message}\n"));
            return;
        }
    };
    if shared.drain.load(Ordering::SeqCst) {
        shared
            .metrics
            .draining_rejects
            .fetch_add(1, Ordering::Relaxed);
        respond(stream, "503 Service Unavailable", &[], "draining\n");
        return;
    }
    let cells = spec.cells();
    let (done_tx, done_rx) = mpsc::channel();
    {
        // Admission control: a campaign is all-or-nothing — either every
        // cell fits under the queue bound or the request is turned away
        // with a retry hint (no partial enqueues to wedge the stream).
        let mut state = shared.state.lock().expect("queue lock");
        if state.queued + cells.len() > shared.queue_cap {
            drop(state);
            shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            respond(
                stream,
                "429 Too Many Requests",
                &[("Retry-After", "1".to_owned())],
                "queue full, retry later\n",
            );
            return;
        }
        let queue = match spec.class {
            Class::Interactive => &mut state.interactive,
            Class::Batch => &mut state.batch,
        };
        for cell in cells.iter().cloned() {
            queue.push_back(Job {
                cell,
                done: done_tx.clone(),
            });
        }
        state.queued += cells.len();
        shared
            .metrics
            .queue_depth
            .store(state.queued as u64, Ordering::Relaxed);
    }
    drop(done_tx);
    shared.work_cv.notify_all();
    shared
        .metrics
        .campaign_requests
        .fetch_add(1, Ordering::Relaxed);
    // Stream results as cells complete. The body is NDJSON delimited by
    // connection close (no chunked framing needed); each line carries
    // its cell index so clients can re-order deterministically.
    let head = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        // Client went away; workers still drain the queue (results are
        // journaled for the next requester).
        for _ in done_rx.iter().take(cells.len()) {}
        return;
    }
    let mut received = 0;
    while received < cells.len() {
        let Ok(line) = done_rx.recv() else { break };
        received += 1;
        if stream
            .write_all(line.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .and_then(|()| stream.flush())
            .is_err()
        {
            // Keep draining completions so worker sends never error.
            for _ in done_rx.iter().take(cells.len() - received) {}
            return;
        }
    }
}

/// Parses the cell index out of a rendered NDJSON line (used by clients
/// to restore grid order after out-of-order streaming).
pub fn line_cell_index(line: &str) -> Option<u64> {
    json::Json::parse(line).ok()?.get("cell")?.as_u64()
}
