//! Lease-based cell claiming for fault-tolerant multi-process campaigns.
//!
//! When several worker processes sweep the same battery over one shared
//! [`DiskCache`](crate::DiskCache), the memo journal already makes their
//! results *correct* (content-keyed, atomically written, first writer
//! wins). Leases make them *coordinated*: before simulating a memoized
//! cell, a worker claims `<cache>/lease/<fnv64(key)>.lease` with an
//! `O_EXCL` create — an atomic first-writer-wins claim on any local
//! filesystem — and everyone else waits for the memo instead of
//! duplicating the work.
//!
//! # The protocol
//!
//! - **Claim**: `create_new` the lease file; the winner writes its pid
//!   and worker id into the body and simulates the cell. Losers poll the
//!   memo (and the lease's freshness) and never compute.
//! - **Heartbeat**: the lease file's *mtime* is the liveness signal. A
//!   background thread touches every lease its process holds at a
//!   fraction of the stale timeout (`MICROLIB_LEASE_TIMEOUT_MS`). The
//!   body is diagnostics; mtime is the authority — a torn lease body
//!   heartbeats (and expires) exactly like a healthy one.
//! - **Reclaim**: a lease whose mtime is older than the timeout belongs
//!   to a dead (or stalled — a stall freezes the heartbeat thread) worker.
//!   A claimer *steals* it by renaming it to a unique name — exactly one
//!   racer wins the rename — and then re-claims from scratch.
//! - **Release**: completing a cell deletes the lease (and its attempt
//!   counter) the moment the memo is journaled; a clean worker exit
//!   sweeps any lease still owned by its pid ([`LeaseManager::release_owned`])
//!   so a warm re-run never waits out a stale-lease timeout.
//!
//! # Attempts and quarantine
//!
//! Every successful claim first bumps a sidecar attempt counter
//! (`<hash>.attempts`, atomic write); completing the cell deletes it.
//! The counter therefore counts *claims that never completed* — crashed
//! or abandoned-on-panic attempts. A claimer that finds the counter
//! already at the retry budget (`MICROLIB_CELL_RETRIES`) writes a quarantine
//! marker under `<cache>/quarantine/` instead of claiming: the cell has
//! killed that many consecutive workers and nobody should try again.
//! Quarantined cells surface as [`SimError::Quarantined`], which the
//! campaign engine records as an ordinary per-cell failure — the rest of
//! the battery completes and the final report (nonzero exit) lists each
//! quarantined cell with a minimized repro command. Deleting the
//! `quarantine/` directory clears the verdict.

use crate::simulator::SimError;
use microlib_model::codec::fnv1a;
use std::collections::HashSet;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, SystemTime};

/// Magic first line of lease files and quarantine markers.
const LEASE_HEADER: &str = "microlib-lease v1";
const QUARANTINE_HEADER: &str = "microlib-quarantine v1";

/// The battery-level scope label (the experiment currently running),
/// folded into quarantine markers so the repro command can name it.
static RUN_SCOPE: Mutex<Option<String>> = Mutex::new(None);

/// Records the experiment (or other scope) currently running in this
/// process; quarantine markers written while it is set include it in
/// their repro command (`run_all --only <scope>`). `run_all` sets this
/// before each experiment.
pub fn set_run_scope(name: &str) {
    *RUN_SCOPE.lock().expect("run scope lock") = Some(name.to_owned());
}

fn run_scope() -> Option<String> {
    RUN_SCOPE.lock().expect("run scope lock").clone()
}

#[derive(Debug)]
struct Inner {
    lease_dir: PathBuf,
    quarantine_dir: PathBuf,
    timeout: Duration,
    max_attempts: u32,
    worker: String,
    /// Lease files this process currently holds (heartbeat set).
    held: Mutex<HashSet<PathBuf>>,
    steal_seq: AtomicU64,
}

/// Coordinates cell claims across worker processes sharing one cache
/// directory (see the module docs).
#[derive(Clone, Debug)]
pub struct LeaseManager {
    inner: Arc<Inner>,
}

/// Outcome of a [`LeaseManager::claim`].
#[derive(Debug)]
pub enum Claim {
    /// This caller owns the cell; simulate it, then
    /// [`complete`](LeaseGuard::complete) (or drop / abandon) the guard.
    Acquired(LeaseGuard),
    /// A live worker holds the lease — wait for the memo and retry.
    Busy,
    /// The cell crashed `attempts` consecutive claimers and is
    /// quarantined; do not compute it.
    Quarantined {
        /// Crashed attempts recorded when the marker was written.
        attempts: u32,
    },
}

/// One quarantine marker, parsed for reporting.
#[derive(Clone, Debug)]
pub struct QuarantineReport {
    /// `"<benchmark> x <mechanism>"`.
    pub cell: String,
    /// Crashed attempts before quarantine.
    pub attempts: u32,
    /// Minimized repro command recorded at quarantine time.
    pub repro: String,
    /// Full content key of the poisoned cell.
    pub key: String,
}

impl LeaseManager {
    /// A manager over `<cache_root>/lease` + `<cache_root>/quarantine`
    /// that treats a lease silent for `timeout` as stale, quarantines a
    /// cell after `max_attempts` crashed claims, and signs its leases
    /// with `worker` (see [`Settings`](crate::Settings) for the knobs).
    pub fn new(
        cache_root: impl Into<PathBuf>,
        timeout: Duration,
        max_attempts: u32,
        worker: &str,
    ) -> LeaseManager {
        let root = cache_root.into();
        let inner = Arc::new(Inner {
            lease_dir: root.join("lease"),
            quarantine_dir: root.join("quarantine"),
            timeout,
            max_attempts: max_attempts.max(1),
            worker: worker.to_owned(),
            held: Mutex::new(HashSet::new()),
            steal_seq: AtomicU64::new(0),
        });
        // The heartbeat: touch every held lease well inside the timeout.
        // Holds only a Weak — the thread dies with the manager.
        let weak: Weak<Inner> = Arc::downgrade(&inner);
        let interval = (timeout / 4).clamp(Duration::from_millis(20), Duration::from_secs(2));
        std::thread::Builder::new()
            .name("microlib-lease-heartbeat".to_owned())
            .spawn(move || loop {
                std::thread::sleep(interval);
                let Some(inner) = weak.upgrade() else { return };
                // A stalled process stops heartbeating — that is the
                // signal the stall fault exists to produce.
                if crate::fault::stalled() {
                    continue;
                }
                let held = inner.held.lock().expect("held leases lock").clone();
                for path in held {
                    if let Ok(f) = fs::OpenOptions::new().append(true).open(&path) {
                        let _ = f.set_modified(SystemTime::now());
                    }
                }
            })
            .expect("spawn lease heartbeat");
        LeaseManager { inner }
    }

    /// The stale-lease timeout this manager enforces.
    pub fn timeout(&self) -> Duration {
        self.inner.timeout
    }

    fn stem(key: &str) -> String {
        format!("{:016x}", fnv1a(key.as_bytes()))
    }

    fn lease_path(&self, key: &str) -> PathBuf {
        self.inner
            .lease_dir
            .join(format!("{}.lease", Self::stem(key)))
    }

    fn attempts_path(&self, key: &str) -> PathBuf {
        self.inner
            .lease_dir
            .join(format!("{}.attempts", Self::stem(key)))
    }

    fn quarantine_path(&self, key: &str) -> PathBuf {
        self.inner
            .quarantine_dir
            .join(format!("{}.txt", Self::stem(key)))
    }

    fn read_attempts(&self, key: &str) -> u32 {
        fs::read_to_string(self.attempts_path(key))
            .ok()
            .and_then(|s| s.trim().parse::<u32>().ok())
            .unwrap_or(0)
    }

    fn write_attempts(&self, key: &str, attempts: u32) {
        let path = self.attempts_path(key);
        let tmp = path.with_extension(format!("attempts.tmp.{}", std::process::id()));
        if fs::write(&tmp, format!("{attempts}\n")).is_ok() && fs::rename(&tmp, &path).is_err() {
            let _ = fs::remove_file(&tmp);
        }
    }

    /// Crashed-attempt count for `key` if it is quarantined.
    pub fn quarantined(&self, key: &str) -> Option<u32> {
        let text = fs::read_to_string(self.quarantine_path(key)).ok()?;
        if !text.starts_with(QUARANTINE_HEADER) {
            return None;
        }
        Some(
            text.lines()
                .find_map(|l| l.strip_prefix("attempts "))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0),
        )
    }

    fn write_quarantine(&self, key: &str, cell: &str, attempts: u32, repro: &str) {
        if fs::create_dir_all(&self.inner.quarantine_dir).is_err() {
            return;
        }
        let only = run_scope()
            .map(|s| format!(" --only {s}"))
            .unwrap_or_default();
        let body = format!(
            "{QUARANTINE_HEADER}\ncell {cell}\nattempts {attempts}\nrepro {repro}{only}\nkey {key}\n"
        );
        // First marker wins; racing claimers would write the same verdict.
        if let Ok(mut f) = fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(self.quarantine_path(key))
        {
            let _ = f.write_all(body.as_bytes());
            eprintln!("QUARANTINED {cell}: {attempts} consecutive crashed attempts");
        }
    }

    /// Attempts to claim the cell `key` (see the module docs for the
    /// protocol). `cell` is the human label (`"<benchmark> x <mech>"`)
    /// and `repro` the environment part of the repro command; both are
    /// only used if this claim ends in a quarantine verdict.
    pub fn claim(&self, key: &str, cell: &str, repro: &str) -> Claim {
        if let Some(attempts) = self.quarantined(key) {
            return Claim::Quarantined { attempts };
        }
        let path = self.lease_path(key);
        if fs::create_dir_all(&self.inner.lease_dir).is_err() {
            // Unwritable cache: degrade to uncoordinated (still correct —
            // the memo layer dedups by content).
            return Claim::Acquired(LeaseGuard {
                inner: Arc::clone(&self.inner),
                path,
                attempts_path: self.attempts_path(key),
                attempts: 1,
                done: true,
            });
        }
        loop {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    // Quarantine check under the lease: exactly one
                    // claimer reads-and-bumps at a time, so the counter
                    // cannot be bumped past the budget by a race.
                    let prior = self.read_attempts(key);
                    if prior >= self.inner.max_attempts {
                        drop(f);
                        let _ = fs::remove_file(&path);
                        self.write_quarantine(key, cell, prior, repro);
                        return Claim::Quarantined { attempts: prior };
                    }
                    self.write_attempts(key, prior + 1);
                    let body = format!(
                        "{LEASE_HEADER}\npid {}\nworker {}\nattempts {}\nkey {key}\n",
                        std::process::id(),
                        self.inner.worker,
                        prior + 1,
                    );
                    match crate::fault::injected("lease-write", "") {
                        Some(crate::fault::FaultKind::Torn) => {
                            // Torn lease body: half the bytes land. The
                            // mtime heartbeat still governs liveness, so
                            // a torn-but-held lease behaves normally and
                            // a torn-and-abandoned one expires like any
                            // stale lease.
                            let _ = f.write_all(&body.as_bytes()[..body.len() / 2]);
                        }
                        Some(kind) => crate::fault::execute(kind, "lease-write", ""),
                        None => {
                            let _ = f.write_all(body.as_bytes());
                        }
                    }
                    self.inner
                        .held
                        .lock()
                        .expect("held leases lock")
                        .insert(path.clone());
                    return Claim::Acquired(LeaseGuard {
                        inner: Arc::clone(&self.inner),
                        path,
                        attempts_path: self.attempts_path(key),
                        attempts: prior + 1,
                        done: false,
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let age = match fs::metadata(&path).and_then(|m| m.modified()) {
                        Ok(mtime) => SystemTime::now()
                            .duration_since(mtime)
                            .unwrap_or(Duration::ZERO),
                        // Vanished between create_new and stat: retry.
                        Err(_) => continue,
                    };
                    if age <= self.inner.timeout {
                        return Claim::Busy;
                    }
                    // Stale: the holder is dead or frozen. Exactly one
                    // racer wins the rename and proceeds to re-claim.
                    let steal = self.inner.lease_dir.join(format!(
                        "{}.steal.{}.{}",
                        Self::stem(key),
                        std::process::id(),
                        self.inner.steal_seq.fetch_add(1, Ordering::Relaxed),
                    ));
                    if fs::rename(&path, &steal).is_ok() {
                        let _ = fs::remove_file(&steal);
                        eprintln!(
                            "lease: reclaimed stale lease for {cell} ({}s old)",
                            age.as_secs()
                        );
                    }
                    // Winner and losers alike loop back to create_new.
                }
                Err(_) => {
                    // Unwritable lease dir: degrade to uncoordinated.
                    return Claim::Acquired(LeaseGuard {
                        inner: Arc::clone(&self.inner),
                        path,
                        attempts_path: self.attempts_path(key),
                        attempts: 1,
                        done: true,
                    });
                }
            }
        }
    }

    /// Deletes every lease owned by this process — the clean-exit sweep
    /// (guards already release per cell; this catches leaks) — and
    /// returns how many were released.
    pub fn release_owned(&self) -> usize {
        let mut released = 0;
        let held: Vec<PathBuf> = self
            .inner
            .held
            .lock()
            .expect("held leases lock")
            .drain()
            .collect();
        for path in held {
            if fs::remove_file(&path).is_ok() {
                released += 1;
            }
        }
        let me = format!("pid {}", std::process::id());
        let Ok(entries) = fs::read_dir(&self.inner.lease_dir) else {
            return released;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("lease") {
                continue;
            }
            let owned = fs::read_to_string(&path)
                .map(|text| text.lines().any(|l| l.trim() == me))
                .unwrap_or(false);
            if owned && fs::remove_file(&path).is_ok() {
                released += 1;
            }
        }
        released
    }

    /// `(pid, age)` of every lease under `cache_root` whose mtime is
    /// older than `timeout` — the coordinator's stalled-worker detector.
    pub fn stale_owners(cache_root: &Path, timeout: Duration) -> Vec<(u32, Duration)> {
        let mut stale = Vec::new();
        let Ok(entries) = fs::read_dir(cache_root.join("lease")) else {
            return stale;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("lease") {
                continue;
            }
            let Ok(mtime) = fs::metadata(&path).and_then(|m| m.modified()) else {
                continue;
            };
            let age = SystemTime::now()
                .duration_since(mtime)
                .unwrap_or(Duration::ZERO);
            if age <= timeout {
                continue;
            }
            let pid = fs::read_to_string(&path)
                .ok()
                .and_then(|text| {
                    text.lines()
                        .find_map(|l| l.strip_prefix("pid "))
                        .and_then(|v| v.trim().parse::<u32>().ok())
                })
                .unwrap_or(0);
            stale.push((pid, age));
        }
        stale
    }

    /// Every quarantine marker under `cache_root`, parsed for the final
    /// report.
    pub fn quarantine_reports(cache_root: &Path) -> Vec<QuarantineReport> {
        let mut reports = Vec::new();
        let Ok(entries) = fs::read_dir(cache_root.join("quarantine")) else {
            return reports;
        };
        for entry in entries.flatten() {
            let Ok(text) = fs::read_to_string(entry.path()) else {
                continue;
            };
            if !text.starts_with(QUARANTINE_HEADER) {
                continue;
            }
            let field = |name: &str| -> String {
                text.lines()
                    .find_map(|l| l.strip_prefix(name))
                    .map(|v| v.trim().to_owned())
                    .unwrap_or_default()
            };
            reports.push(QuarantineReport {
                cell: field("cell "),
                attempts: field("attempts ").parse().unwrap_or(0),
                repro: field("repro "),
                key: field("key "),
            });
        }
        reports.sort_by(|a, b| a.cell.cmp(&b.cell));
        reports
    }
}

/// Proof of a successful claim: the holder of the cell `key` behind it.
///
/// Dropping the guard **releases** the lease and its attempt counter —
/// right for completed cells and deterministic [`SimError`]s (a retry
/// would fail identically; no crash happened). A *crash-like* failure
/// must instead [`abandon`](LeaseGuard::abandon) the guard, which keeps
/// the attempt counter and expires the lease immediately, so the next
/// claimer retries — and the counter converges on quarantine.
#[derive(Debug)]
pub struct LeaseGuard {
    inner: Arc<Inner>,
    path: PathBuf,
    attempts_path: PathBuf,
    /// Which claim of the cell this is (1 = first ever / first since the
    /// last completion).
    pub attempts: u32,
    done: bool,
}

impl LeaseGuard {
    fn unregister(&self) {
        self.inner
            .held
            .lock()
            .expect("held leases lock")
            .remove(&self.path);
    }

    /// Releases the lease after the cell's memo was journaled: deletes
    /// the lease file and the attempt counter.
    pub fn complete(mut self) {
        self.done = true;
        self.unregister();
        let _ = fs::remove_file(&self.path);
        let _ = fs::remove_file(&self.attempts_path);
    }

    /// Abandons the claim after a crash-like failure (a panic unwinding
    /// through the cell): stops heartbeating and backdates the lease to
    /// the epoch so the next claimer reclaims it *immediately* — with
    /// the attempt counter intact, so repeated abandonment quarantines.
    pub fn abandon(mut self) {
        self.done = true;
        self.unregister();
        if let Ok(f) = fs::OpenOptions::new().append(true).open(&self.path) {
            let _ = f.set_modified(SystemTime::UNIX_EPOCH);
        }
    }
}

impl Drop for LeaseGuard {
    fn drop(&mut self) {
        if !self.done {
            self.done = true;
            self.unregister();
            let _ = fs::remove_file(&self.path);
            let _ = fs::remove_file(&self.attempts_path);
        }
    }
}

/// Builds the [`SimError::Quarantined`] for a quarantined claim.
pub(crate) fn quarantined_error(benchmark: &str, attempts: u32) -> SimError {
    SimError::Quarantined {
        benchmark: benchmark.to_owned(),
        attempts,
    }
}
