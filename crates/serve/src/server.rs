//! The HTTP/1.1 campaign daemon: a hand-rolled `TcpListener` front end
//! over a small worker pool that executes campaign cells through the
//! shared [`ArtifactStore`].
//!
//! # Request flow
//!
//! ```text
//! accept thread (blocking accept) ── bounded connection queue ──
//!   handler pool (HANDLERS threads) ── read the head and body (line
//!   and header count bounded, 400 past them; one deadline from accept,
//!   408 past it) ── POST /campaign: parse spec ──
//!   admission (bounded cell queue, 429 on overload) ── enqueue cells
//!   (interactive queue ahead of batch) ── workers run cells via
//!   ArtifactStore::run (store memo + in-process single-flight +
//!   cross-process leases) ── NDJSON lines streamed back as cells
//!   complete (Connection: close, body ends at EOF)
//! ```
//!
//! No step waits on a timer: the accept thread blocks in `accept`, hands
//! each stream to the fixed pool of connection handlers and goes straight
//! back to `accept`; handlers and workers block on condition variables.
//!
//! # Two kinds of "busy"
//!
//! - **503 + `Retry-After: 1`** (`serve_busy_rejects_total`): every
//!   handler holds a connection and [`BACKLOG`] more wait for one. The
//!   accept thread answers without reading the request, so a flood of
//!   slow or idle connections cannot grow the thread count.
//! - **429 + `Retry-After: 1`** (`serve_rejected_total`): a handler read
//!   the campaign, but its cells would push the cell queue past
//!   `queue_cap`. The campaign is refused whole.
//!
//! # Slow clients
//!
//! A request's head and body share one deadline, `REQUEST_DEADLINE`
//! (10 s) after accept; each read waits only for the time left, so
//! trickling bytes cannot extend it. Past it the handler answers 408 and
//! bumps `serve_head_timeouts_total`. A connection that spent its
//! deadline in the backlog still gets `PICKUP_GRACE` (250 ms) once picked
//! up, so a flood of slow clients frees the pool about one deadline after
//! it arrived.
//!
//! # Cells that panic
//!
//! A worker runs each cell under `catch_unwind`. A panicking cell streams
//! an error line with its index, retires its in-flight gauge, bumps
//! `serve_cells_panicked_total`, and leaves the worker serving.
//!
//! # Drain
//!
//! [`Server::shutdown`] (the binary calls it on SIGTERM) sets the drain
//! flag and wakes the blocked accept thread with one connection to its
//! own address (`0.0.0.0`/`[::]` mapped to loopback); the accept thread
//! sees the flag and returns. Handlers finish the connections they hold
//! and the queued ones, answering new campaigns with 503 meanwhile;
//! workers finish the queued cells. Then handlers and workers exit and
//! are joined, and the store releases its leases and fsyncs the memo
//! journal, so a drained daemon leaves a lease-free cache directory
//! behind.

use crate::metrics::Metrics;
use crate::spec::{CampaignSpec, CellSpec, Class};
use crate::{json, spec};
use microlib::{ArtifactStore, CacheDir, FinishGuard, Settings};
use std::any::Any;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Connection handler threads: CI's eight concurrent submitters plus a
/// scrape, with headroom.
pub const HANDLERS: usize = 64;
/// Accepted connections that may wait for a free handler; past
/// `HANDLERS + BACKLOG` open connections the accept thread answers 503.
pub const BACKLOG: usize = HANDLERS;
/// Longest request line or header line, newline included.
const MAX_HEAD_LINE: u64 = 8 << 10;
/// Most header lines in one request.
const MAX_HEADERS: usize = 100;
/// Largest request body. Specs are small; the bound keeps a hostile
/// `Content-Length` from ballooning the allocation.
const MAX_BODY: usize = 1 << 20;
/// Time from accept to the last byte of the request head and body; past
/// it the request is answered 408.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);
/// Least time a handler gives a request it picks up, so a prompt client
/// that waited out its deadline in the backlog is still read.
const PICKUP_GRACE: Duration = Duration::from_millis(250);

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
    /// Byte cap for warm states kept resident between requests; `None` =
    /// unbounded.
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
    /// Accepted connections waiting for a handler, with their accept
    /// times.
    pending: VecDeque<(TcpStream, Instant)>,
    /// Connections accepted and not yet closed (`pending` included).
    connections: usize,
    /// Tells idle workers and handlers to exit (set after the queues
    /// drain).
    stop: bool,
}

struct Shared {
    store: Arc<ArtifactStore>,
    /// The settings the daemon runs with (printed by `/metrics`).
    settings: Settings,
    metrics: Metrics,
    state: Mutex<QueueState>,
    /// Wakes workers when work arrives (or `stop` is set).
    work_cv: Condvar,
    /// Wakes handlers when a connection arrives (or `stop` is set).
    conn_cv: Condvar,
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
    /// Cell workers and connection handlers.
    threads: Vec<JoinHandle<()>>,
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
    /// [`start_with_settings`](Server::start_with_settings) the default
    /// settings.
    ///
    /// # Errors
    ///
    /// Any I/O error binding `config.addr`.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        Self::start_with_settings(config, &Settings::default())
    }

    /// Binds the listener, spawns the accept thread, the connection
    /// handlers and the worker pool, and returns immediately. The daemon
    /// serves until [`shutdown`](Server::shutdown) (or drop). Its store
    /// always shares artifacts and, with a cache directory, claims cells
    /// through leases; `settings` supply the lease timeout, retry budget,
    /// worker id, steal grace and warm-state disk cap.
    ///
    /// # Errors
    ///
    /// Any I/O error binding `config.addr`.
    pub fn start_with_settings(
        config: ServerConfig,
        settings: &Settings,
    ) -> std::io::Result<Server> {
        let settings = Settings {
            threads: config.threads.max(1),
            artifacts: true,
            cache_dir: config.cache_dir.clone().map_or(CacheDir::Off, CacheDir::At),
            lease: true,
            shard: None,
            ..settings.clone()
        };
        let store = Arc::new(ArtifactStore::from_settings(&settings));
        if let Some(cap) = config.resident_cap_bytes {
            store.set_warm_resident_cap(cap);
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            store: Arc::clone(&store),
            settings,
            metrics: Metrics::default(),
            state: Mutex::new(QueueState::default()),
            work_cv: Condvar::new(),
            conn_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            drain: AtomicBool::new(false),
            queue_cap: config.queue_cap.max(1),
        });
        let spawn = |name: String, body: fn(&Shared)| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(name)
                .spawn(move || body(&shared))
                .expect("spawn serve thread")
        };
        let threads = (0..config.threads.max(1))
            .map(|i| spawn(format!("serve-worker-{i}"), worker_loop))
            .chain((0..HANDLERS).map(|i| spawn(format!("serve-conn-{i}"), handler_loop)))
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
            threads,
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

    /// Graceful drain: stop accepting, finish every open connection and
    /// queued cell, retire the handlers and workers, then release leases
    /// and fsync the memo journal. Idempotent; called by the binary on
    /// SIGTERM and by `Drop`.
    pub fn shutdown(&mut self) {
        self.shared.drain.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            // The accept thread is blocked in `accept`: one connection to
            // ourselves wakes it to see the drain flag.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(if wake.is_ipv4() {
                    Ipv4Addr::LOCALHOST.into()
                } else {
                    Ipv6Addr::LOCALHOST.into()
                });
            }
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
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
        self.shared.conn_cv.notify_all();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        self.shared.store.finish();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                if shared.drain.load(Ordering::SeqCst) {
                    return;
                }
                let mut state = shared.state.lock().expect("queue lock");
                if state.connections >= HANDLERS + BACKLOG {
                    drop(state);
                    shared.metrics.busy_rejects.fetch_add(1, Ordering::Relaxed);
                    respond(
                        &mut stream,
                        "503 Service Unavailable",
                        &[("Retry-After", "1".to_owned())],
                        "all connection handlers busy, retry later\n",
                    );
                    // Briefly: this thread must get back to `accept`.
                    close_unread(stream, Duration::from_millis(10));
                    continue;
                }
                state.connections += 1;
                state.pending.push_back((stream, Instant::now()));
                drop(state);
                shared.conn_cv.notify_one();
            }
            // A real accept failure (e.g. EMFILE): back off so a
            // persistent one does not spin.
            Err(_) => {
                if shared.drain.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

fn handler_loop(shared: &Shared) {
    loop {
        let (stream, accepted) = {
            let mut state = shared.state.lock().expect("queue lock");
            loop {
                if let Some(pending) = state.pending.pop_front() {
                    break pending;
                }
                if state.stop {
                    return;
                }
                state = shared.conn_cv.wait(state).expect("queue lock");
            }
        };
        let deadline = (accepted + REQUEST_DEADLINE).max(Instant::now() + PICKUP_GRACE);
        handle_connection(stream, deadline, shared);
        let mut state = shared.state.lock().expect("queue lock");
        state.connections -= 1;
        drop(state);
        shared.idle_cv.notify_all();
    }
}

fn worker_loop(shared: &Shared) {
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
        let cell = &job.cell;
        let line = catch_unwind(AssertUnwindSafe(|| spec::run_cell(&shared.store, cell)))
            .unwrap_or_else(|payload| {
                shared
                    .metrics
                    .cells_panicked
                    .fetch_add(1, Ordering::Relaxed);
                let message = format!("cell panicked: {}", panic_message(&*payload));
                spec::render_error(cell.index, cell.benchmark, cell.mechanism, &message)
            });
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

/// The text of a panic payload (`panic!` with a literal or a format).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload")
}

/// A parsed request head plus body.
struct Request {
    method: String,
    path: String,
    body: String,
}

/// Why a request could not be read.
enum BadRequest {
    /// Unparseable, oversized, or cut short by the client (400).
    Malformed,
    /// The request deadline passed before the head and body arrived (408).
    Timeout,
}

impl From<io::Error> for BadRequest {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => BadRequest::Timeout,
            _ => BadRequest::Malformed,
        }
    }
}

/// The request side of a connection under one deadline: each read waits
/// at most for the time left, so a client trickling bytes cannot extend
/// it.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Reads one line of the request head into `line`; a line that runs past
/// [`MAX_HEAD_LINE`] or ends without its newline is malformed.
fn read_head_line(reader: &mut impl BufRead, line: &mut String) -> Result<(), BadRequest> {
    line.clear();
    reader.take(MAX_HEAD_LINE).read_line(line)?;
    if line.ends_with('\n') {
        Ok(())
    } else {
        Err(BadRequest::Malformed)
    }
}

fn read_request(stream: &TcpStream, deadline: Instant) -> Result<Request, BadRequest> {
    let mut reader = BufReader::new(DeadlineReader { stream, deadline });
    let mut line = String::new();
    read_head_line(&mut reader, &mut line)?;
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(BadRequest::Malformed);
    };
    let (method, path) = (method.to_owned(), path.to_owned());
    let mut content_length = 0usize;
    let mut header = String::new();
    for _ in 0..=MAX_HEADERS {
        read_head_line(&mut reader, &mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            if content_length > MAX_BODY {
                return Err(BadRequest::Malformed);
            }
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body)?;
            return Ok(Request {
                method,
                path,
                body: String::from_utf8(body).map_err(|_| BadRequest::Malformed)?,
            });
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
    Err(BadRequest::Malformed)
}

/// Half-closes `stream`, then discards what the client still sends for
/// at most `within` before closing, so unread input does not reset the
/// connection before the client has read the response.
fn close_unread(stream: TcpStream, within: Duration) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + within;
    let mut sink = [0u8; 8 << 10];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match (&stream).read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
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

fn handle_connection(mut stream: TcpStream, deadline: Instant, shared: &Shared) {
    let started = Instant::now();
    let request = match read_request(&stream, deadline) {
        Ok(request) => request,
        Err(BadRequest::Malformed) => {
            shared.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            respond(&mut stream, "400 Bad Request", &[], "malformed request\n");
            close_unread(stream, Duration::from_secs(1));
            return;
        }
        Err(BadRequest::Timeout) => {
            shared.metrics.head_timeouts.fetch_add(1, Ordering::Relaxed);
            respond(
                &mut stream,
                "408 Request Timeout",
                &[],
                "request too slow\n",
            );
            // Briefly: a slow client must not hold the handler again.
            close_unread(stream, Duration::from_millis(100));
            return;
        }
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
            let text = shared.metrics.render(&shared.store, &shared.settings);
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

fn handle_campaign(stream: &mut TcpStream, shared: &Shared, body: &str) {
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
