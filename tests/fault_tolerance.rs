//! In-process tests of the fault-tolerance substrate: lease claiming and
//! stale-lease reclaim, attempt counting and poison-cell quarantine,
//! single-flight deduplication across stores sharing one cache dir, and
//! the fault-injection harness's torn-write / panic kinds recovering to
//! identical results. (Process-level kinds — abort, stall, worker
//! respawn — are exercised end-to-end in
//! `crates/bench/tests/sharded_run_all.rs`.)

use microlib::model::codec::fnv1a;
use microlib::{fault, ArtifactStore, Cell, Claim, LeaseManager, RunResult, SimError, SimOptions};
use microlib_mech::MechanismKind;
use microlib_model::SystemConfig;
use microlib_trace::TraceWindow;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, SystemTime};

/// Serializes tests that arm the (process-global) fault harness.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_guard() -> std::sync::MutexGuard<'static, ()> {
    // A panicking armed test must not poison the rest of the suite.
    FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("microlib-fault-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts(window: TraceWindow) -> SimOptions {
    SimOptions {
        window,
        ..SimOptions::default()
    }
}

fn lease_path(root: &Path, key: &str) -> PathBuf {
    root.join("lease")
        .join(format!("{:016x}.lease", fnv1a(key.as_bytes())))
}

/// Hand-crafts a lease file as a *foreign* process would leave it (no
/// heartbeat runs for it), aged by `age`.
fn plant_lease(root: &Path, key: &str, body: &str, age: Duration) {
    let path = lease_path(root, key);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(&path, body).unwrap();
    let f = fs::OpenOptions::new().append(true).open(&path).unwrap();
    f.set_modified(SystemTime::now() - age).unwrap();
}

fn assert_same_result(a: &RunResult, b: &RunResult) {
    assert_eq!(a.benchmark, b.benchmark);
    assert_eq!(a.mechanism, b.mechanism);
    assert_eq!(a.perf, b.perf);
    assert_eq!(a.l1d, b.l1d);
    assert_eq!(a.memory, b.memory);
}

#[test]
fn fresh_lease_is_busy_and_stale_lease_is_reclaimed() {
    let dir = tmp_dir("stale-reclaim");
    let mgr = LeaseManager::new(&dir, Duration::from_millis(500), 3, "-");
    let key = "swim|Ghb|some-cell-key";
    let body = "microlib-lease v1\npid 999999\nworker 7\nattempts 1\nkey swim\n";

    // A lease touched moments ago belongs to a live worker: back off.
    plant_lease(&dir, key, body, Duration::ZERO);
    assert!(matches!(mgr.claim(key, "swim x GHB", "repro"), Claim::Busy));

    // The same lease long past the timeout is a dead worker's: steal it
    // and claim the cell.
    plant_lease(&dir, key, body, Duration::from_secs(3600));
    match mgr.claim(key, "swim x GHB", "repro") {
        Claim::Acquired(guard) => {
            assert!(
                lease_path(&dir, key).exists(),
                "reclaimed under a new lease"
            );
            let text = fs::read_to_string(lease_path(&dir, key)).unwrap();
            assert!(
                text.contains(&format!("pid {}", std::process::id())),
                "the new lease is ours: {text}"
            );
            guard.complete();
            assert!(!lease_path(&dir, key).exists(), "completion releases");
        }
        other => panic!("expected to reclaim the stale lease, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_lease_body_is_governed_by_mtime() {
    let dir = tmp_dir("torn-lease");
    let mgr = LeaseManager::new(&dir, Duration::from_millis(500), 3, "-");
    let key = "gcc|Tcp|torn-lease-key";
    // Garbage content — a torn lease-file write. Fresh mtime must still
    // read as Busy (mtime is the liveness authority, not the body)…
    plant_lease(&dir, key, "gar", Duration::ZERO);
    assert!(matches!(mgr.claim(key, "gcc x TCP", "repro"), Claim::Busy));
    // …and a stale mtime must be stolen like any dead worker's lease.
    plant_lease(&dir, key, "gar", Duration::from_secs(3600));
    assert!(matches!(
        mgr.claim(key, "gcc x TCP", "repro"),
        Claim::Acquired(_)
    ));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn clean_exit_sweep_releases_held_leases() {
    let dir = tmp_dir("release-owned");
    let mgr = LeaseManager::new(&dir, Duration::from_secs(10), 3, "-");
    let key = "swim|Base|sweep-key";
    let guard = match mgr.claim(key, "swim x Base", "repro") {
        Claim::Acquired(g) => g,
        other => panic!("expected to claim, got {other:?}"),
    };
    // Simulate an exit path that never resolved the guard (leaked cell).
    std::mem::forget(guard);
    assert!(lease_path(&dir, key).exists());
    assert_eq!(
        mgr.release_owned(),
        1,
        "the sweep releases the leaked lease"
    );
    assert!(!lease_path(&dir, key).exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn abandoned_claims_count_toward_quarantine() {
    let dir = tmp_dir("quarantine");
    let mgr = LeaseManager::new(&dir, Duration::from_secs(10), 2, "-");
    let key = "mcf|Markov|poison-key";

    // Two claims that end crash-like (abandon keeps the attempt counter
    // and expires the lease immediately)…
    for attempt in 1..=2u32 {
        match mgr.claim(key, "mcf x Markov", "MICROLIB_SEED=0x7 run_all --no-cache") {
            Claim::Acquired(guard) => {
                assert_eq!(guard.attempts, attempt);
                guard.abandon();
            }
            other => panic!("attempt {attempt}: expected claim, got {other:?}"),
        }
    }
    // …and the third claimer refuses the cell and writes the marker.
    match mgr.claim(key, "mcf x Markov", "MICROLIB_SEED=0x7 run_all --no-cache") {
        Claim::Quarantined { attempts } => assert_eq!(attempts, 2),
        other => panic!("expected quarantine, got {other:?}"),
    }
    assert_eq!(mgr.quarantined(key), Some(2), "marker persists");

    let reports = LeaseManager::quarantine_reports(&dir);
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].cell, "mcf x Markov");
    assert_eq!(reports[0].attempts, 2);
    assert!(reports[0].repro.contains("run_all --no-cache"));
    assert_eq!(reports[0].key, key);

    // A *completed* claim, by contrast, clears the attempt history.
    let key2 = "mcf|Markov|healthy-key";
    match mgr.claim(key2, "cell", "repro") {
        Claim::Acquired(g) => g.abandon(),
        other => panic!("{other:?}"),
    }
    match mgr.claim(key2, "cell", "repro") {
        Claim::Acquired(g) => {
            assert_eq!(g.attempts, 2, "abandoned attempt was counted");
            g.complete();
        }
        other => panic!("{other:?}"),
    }
    match mgr.claim(key2, "cell", "repro") {
        Claim::Acquired(g) => assert_eq!(g.attempts, 1, "completion reset the counter"),
        other => panic!("{other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn single_flight_across_stores_computes_each_cell_once() {
    // Journals memos: a torn-write fault armed by another test must not
    // land on this test's entries.
    let _guard = fault_guard();
    let dir = tmp_dir("single-flight");
    let config = Arc::new(SystemConfig::baseline_constant_memory());
    let o = opts(TraceWindow::new(500, 1_500));
    let store = |_: u32| {
        ArtifactStore::new()
            .with_disk_cache(&dir)
            .with_lease_manager(LeaseManager::new(&dir, Duration::from_secs(10), 3, "-"))
    };
    let (a, b) = (store(0), store(1));
    let (ra, rb) = std::thread::scope(|s| {
        let ta = s.spawn(|| {
            a.run(&Cell::new(
                Arc::clone(&config),
                "swim",
                o,
                MechanismKind::Ghb,
            ))
            .unwrap()
        });
        let tb = s.spawn(|| {
            b.run(&Cell::new(
                Arc::clone(&config),
                "swim",
                o,
                MechanismKind::Ghb,
            ))
            .unwrap()
        });
        (ta.join().unwrap(), tb.join().unwrap())
    });
    assert_same_result(&ra, &rb);
    let (sa, sb) = (a.stats(), b.stats());
    assert_eq!(
        sa.memo_misses + sb.memo_misses,
        1,
        "exactly one store computed the cell (a: {sa:?}, b: {sb:?})"
    );
    assert_eq!(sa.lease_claims + sb.lease_claims, 1);
    assert!(
        !dir.join("lease")
            .read_dir()
            .map(|mut d| d.next().is_some())
            .unwrap_or(false),
        "no lease survives two clean completions"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_memo_write_recovers_byte_identical() {
    let _guard = fault_guard();
    let dir = tmp_dir("torn-memo");
    let config = Arc::new(SystemConfig::baseline_constant_memory());
    let o = opts(TraceWindow::new(1_000, 1_500));

    fault::arm("disk-write@memo:1:torn").unwrap();
    let first = ArtifactStore::new().with_disk_cache(&dir);
    let torn = first
        .run(&Cell::new(
            Arc::clone(&config),
            "gcc",
            o,
            MechanismKind::Tcp,
        ))
        .unwrap();
    fault::disarm();
    // The journal write was torn (half the framed entry at the final
    // path); the in-RAM result is still whole.
    let memo_files: Vec<PathBuf> = dir
        .join("memo")
        .read_dir()
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(memo_files.len(), 1, "the torn entry is on disk");

    // A fresh process must reject the torn entry, recompute the identical
    // result, and heal the journal.
    let second = ArtifactStore::new().with_disk_cache(&dir);
    let healed = second
        .run(&Cell::new(
            Arc::clone(&config),
            "gcc",
            o,
            MechanismKind::Tcp,
        ))
        .unwrap();
    assert_same_result(&torn, &healed);
    assert_eq!(second.stats().memo_disk_hits, 0, "torn entry never served");
    assert_eq!(second.stats().memo_misses, 1, "recomputed once");

    let third = ArtifactStore::new().with_disk_cache(&dir);
    let served = third
        .run(&Cell::new(
            Arc::clone(&config),
            "gcc",
            o,
            MechanismKind::Tcp,
        ))
        .unwrap();
    assert_same_result(&torn, &served);
    assert_eq!(third.stats().memo_disk_hits, 1, "healed entry serves");
    assert_eq!(third.stats().memo_misses, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_lease_write_still_coordinates() {
    let _guard = fault_guard();
    let dir = tmp_dir("torn-lease-write");
    let mgr = LeaseManager::new(&dir, Duration::from_secs(10), 3, "-");
    let key = "swim|Base|torn-write-key";
    fault::arm("lease-write:1:torn").unwrap();
    let guard = match mgr.claim(key, "cell", "repro") {
        Claim::Acquired(g) => g,
        other => panic!("{other:?}"),
    };
    fault::disarm();
    // The torn lease body is half-written, but the file exists with a
    // fresh mtime: another claimer still reads Busy.
    let other = LeaseManager::new(&dir, Duration::from_secs(10), 3, "-");
    assert!(matches!(other.claim(key, "cell", "repro"), Claim::Busy));
    guard.complete();
    assert!(matches!(
        other.claim(key, "cell", "repro"),
        Claim::Acquired(_)
    ));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn panic_fault_abandons_the_lease_then_recovery_completes_the_cell() {
    let _guard = fault_guard();
    let dir = tmp_dir("panic-cell");
    let config = Arc::new(SystemConfig::baseline_constant_memory());
    let o = opts(TraceWindow::new(2_000, 1_000));
    let store = || {
        ArtifactStore::new()
            .with_disk_cache(&dir)
            .with_lease_manager(LeaseManager::new(&dir, Duration::from_secs(10), 3, "-"))
    };

    fault::arm("cell@swim+Base:1:panic").unwrap();
    let crashing = store();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        crashing.run(&Cell::new(
            Arc::clone(&config),
            "swim",
            o,
            MechanismKind::Base,
        ))
    }));
    fault::disarm();
    assert!(outcome.is_err(), "the injected panic unwinds to the caller");
    let lease_dir = dir.join("lease");
    let attempts: Vec<PathBuf> = lease_dir
        .read_dir()
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("attempts"))
        .collect();
    assert_eq!(attempts.len(), 1, "the crashed attempt stays on record");
    assert_eq!(fs::read_to_string(&attempts[0]).unwrap().trim(), "1");

    // Recovery: a fresh store reclaims the abandoned (epoch-dated) lease
    // immediately, computes the cell, and clears the attempt history.
    let recovered = store()
        .run(&Cell::new(
            Arc::clone(&config),
            "swim",
            o,
            MechanismKind::Base,
        ))
        .unwrap();
    assert_eq!(recovered.perf.instructions, 1_000);
    assert!(!attempts[0].exists(), "completion cleared the counter");

    // And the journaled memo now serves without recomputing.
    let warm = store();
    let served = warm
        .run(&Cell::new(
            Arc::clone(&config),
            "swim",
            o,
            MechanismKind::Base,
        ))
        .unwrap();
    assert_same_result(&recovered, &served);
    assert_eq!(warm.stats().memo_misses, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn poison_cell_is_quarantined_and_the_rest_completes() {
    let _guard = fault_guard();
    let dir = tmp_dir("poison");
    let config = Arc::new(SystemConfig::baseline_constant_memory());
    let o = opts(TraceWindow::new(3_000, 1_000));
    let store = || {
        ArtifactStore::new()
            .with_disk_cache(&dir)
            .with_lease_manager(LeaseManager::new(&dir, Duration::from_secs(10), 2, "-"))
    };

    // A poison cell: every claim of swim x Base panics ('*' = no one-shot
    // sentinel). Two crashed attempts exhaust the budget of 2.
    fault::arm("cell@swim+Base:*:panic").unwrap();
    let s = store();
    for _ in 0..2 {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.run(&Cell::new(
                Arc::clone(&config),
                "swim",
                o,
                MechanismKind::Base,
            ))
        }));
        assert!(outcome.is_err());
    }
    // The third attempt quarantines instead of crashing — even with the
    // fault still armed, the cell is never executed again.
    let verdict = s.run(&Cell::new(
        Arc::clone(&config),
        "swim",
        o,
        MechanismKind::Base,
    ));
    fault::disarm();
    match verdict {
        Err(SimError::Quarantined {
            benchmark,
            attempts,
        }) => {
            assert_eq!(benchmark, "swim");
            assert_eq!(attempts, 2);
        }
        other => panic!("expected quarantine, got {other:?}"),
    }
    assert_eq!(s.stats().cells_quarantined, 1);

    // Graceful degradation: every *other* cell still computes on the
    // same store, and the verdict is reportable with a repro command.
    let healthy = s
        .run(&Cell::new(
            Arc::clone(&config),
            "swim",
            o,
            MechanismKind::Ghb,
        ))
        .unwrap();
    assert_eq!(healthy.perf.instructions, 1_000);
    let reports = LeaseManager::quarantine_reports(&dir);
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].cell, "swim x Base");
    assert!(
        reports[0]
            .repro
            .contains("MICROLIB_SKIP=3000 MICROLIB_SIM=1000"),
        "repro pins the window: {}",
        reports[0].repro
    );
    let _ = fs::remove_dir_all(&dir);
}
