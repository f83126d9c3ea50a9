//! Deterministic fault injection for the fault-tolerance test matrix.
//!
//! [`arm_from`] arms the *fault specs* of `MICROLIB_FAULT` (read into
//! [`Settings`]; `run_all` and `microlib-serve` arm at startup), each of
//! the form
//!
//! ```text
//! <point>[@<qualifier>]:<nth>[:<kind>]
//! ```
//!
//! separated by commas. A spec fires when the named injection point is
//! hit for the `nth` time in this process (`nth = *` fires on **every**
//! hit — the "poison cell" mode). Kinds:
//!
//! | kind | effect at the injection point |
//! |---|---|
//! | `abort` (default) | `std::process::abort()` — an uncatchable `SIGABRT`, indistinguishable from a `SIGKILL`-class crash to the coordinator |
//! | `panic` | a Rust panic — exercises the in-process isolation layers (`catch_unwind` per experiment, lease abandonment on unwind) |
//! | `stall` | freezes lease heartbeats ([`stalled`]) and sleeps `MICROLIB_FAULT_STALL_MS`, then aborts — exercises the stale-lease timeout → reclaim → kill path |
//! | `torn` | returned to the caller ([`injected`]), which simulates a torn write: truncated bytes placed at the *final* path, bypassing the atomic temp-file + rename protocol |
//!
//! Injection points wired through the codebase:
//!
//! | point | qualifier | where |
//! |---|---|---|
//! | `disk-write` | entry class (`memo`, `plan`, `warm`) | [`DiskCache::store`](crate::DiskCache::store) — `disk-write@memo` is the memo-journal write |
//! | `lease-write` | — | lease-file body write in [`LeaseManager`](crate::LeaseManager) |
//! | `cell` | `<benchmark>+<mechanism acronym>` (e.g. `swim+GHB`) | cell execution, after the lease claim and before the simulation |
//! | `worker-start` | worker id | `run_all` worker startup |
//!
//! Determinism knobs:
//!
//! - `MICROLIB_FAULT_WORKER=<id>` restricts the whole harness to the
//!   worker whose `MICROLIB_WORKER_ID` matches, so a multi-worker test
//!   can kill exactly one worker while the others stay healthy.
//! - A numeric `nth` fires **once globally**, not once per process: the
//!   first process to fire records a sentinel file under
//!   `$MICROLIB_FAULT_DIR` (default `$MICROLIB_CACHE_DIR/fault`), so a
//!   respawned worker does not re-crash at the same point and recovery
//!   can be observed. `nth = *` skips the sentinel and fires every time
//!   in every process — the semantics a poison cell needs.
//!
//! Everything here is inert (one uncontended lock per call site) unless
//! a spec is armed.

use crate::settings::Settings;
use microlib_model::codec::fnv1a;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// What an armed fault spec does when it fires (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// `std::process::abort()` — a `SIGABRT` crash.
    Abort,
    /// A Rust panic (unwinds through the cell into the experiment catch).
    Panic,
    /// Freeze heartbeats, sleep `MICROLIB_FAULT_STALL_MS`, then abort.
    Stall,
    /// Returned to the write site, which places truncated bytes at the
    /// final path (simulating a torn, non-atomic write).
    Torn,
}

/// One armed `<point>[@qual]:<nth>[:<kind>]` spec.
#[derive(Debug)]
pub(crate) struct FaultSpec {
    point: String,
    qual: Option<String>,
    /// `None` = fire on every hit; `Some(n)` = fire on the `n`th hit of
    /// this process (guarded by the global one-shot sentinel).
    nth: Option<u64>,
    kind: FaultKind,
    hits: AtomicU64,
    /// The raw spec text (sentinel-file identity).
    text: String,
}

#[derive(Debug)]
struct Harness {
    specs: Vec<FaultSpec>,
    /// Sentinel directory for the fire-once-globally protocol.
    dir: Option<PathBuf>,
    /// How long a stall sleeps before aborting.
    stall: Duration,
}

/// Set once a stall fault fires: the lease heartbeat thread checks this
/// and stops touching lease files, exactly as a frozen process would.
static STALLED: AtomicBool = AtomicBool::new(false);

/// `true` once a stall fault has fired in this process.
pub fn stalled() -> bool {
    STALLED.load(Ordering::Relaxed)
}

static ARMED: Mutex<Option<&'static Harness>> = Mutex::new(None);

fn active() -> Option<&'static Harness> {
    *ARMED.lock().expect("fault harness lock")
}

fn install(harness: Harness) {
    *ARMED.lock().expect("fault harness lock") = Some(&*Box::leak(Box::new(harness)));
}

/// Arms `settings.fault`, if any, unless `settings.fault_worker` names a
/// worker other than `settings.worker_id` (the coordinator, which has no
/// worker id, then stays clean too). Numeric specs fire once globally
/// through sentinels under `settings.fault_dir`, by default
/// `<cache dir>/fault`.
///
/// # Errors
///
/// The parse failure for a malformed spec; nothing is armed then.
pub fn arm_from(settings: &Settings) -> Result<(), String> {
    let Some(spec) = &settings.fault else {
        return Ok(());
    };
    if settings.fault_worker.is_some() && settings.fault_worker != settings.worker_id {
        return Ok(());
    }
    let dir = settings
        .fault_dir
        .clone()
        .or_else(|| Some(settings.cache_dir.path()?.join("fault")));
    install(Harness {
        specs: parse_specs(spec)?,
        dir,
        stall: settings.fault_stall,
    });
    Ok(())
}

/// Parses and arms `spec` (the test hook), with no fire-once sentinels.
/// Hit counters start at zero.
///
/// # Errors
///
/// Returns the parse failure for a malformed spec; the previously armed
/// harness stays in place.
pub fn arm(spec: &str) -> Result<(), String> {
    install(Harness {
        specs: parse_specs(spec)?,
        dir: None,
        stall: Settings::default().fault_stall,
    });
    Ok(())
}

/// Disarms every fault spec (test hook).
pub fn disarm() {
    *ARMED.lock().expect("fault harness lock") = None;
}

/// Parses a comma-separated list of fault specs.
pub(crate) fn parse_specs(spec: &str) -> Result<Vec<FaultSpec>, String> {
    let specs = spec
        .split(',')
        .filter(|p| !p.is_empty())
        .map(parse_spec)
        .collect::<Result<Vec<_>, _>>()?;
    if specs.is_empty() {
        return Err("no fault specs".to_owned());
    }
    Ok(specs)
}

fn parse_spec(part: &str) -> Result<FaultSpec, String> {
    let fields: Vec<&str> = part.split(':').collect();
    let (point_qual, nth, kind) = match fields.as_slice() {
        [p, n] => (*p, *n, "abort"),
        [p, n, k] => (*p, *n, *k),
        _ => return Err(format!("{part:?} is not <point>[@qual]:<nth>[:<kind>]")),
    };
    let (point, qual) = match point_qual.split_once('@') {
        Some((p, q)) => (p, Some(q.to_owned())),
        None => (point_qual, None),
    };
    if point.is_empty() {
        return Err(format!("{part:?} has an empty injection point"));
    }
    let nth = match nth {
        "*" => None,
        n => Some(
            n.parse::<u64>()
                .ok()
                .filter(|n| *n > 0)
                .ok_or_else(|| format!("{part:?}: nth must be a positive integer or '*'"))?,
        ),
    };
    let kind = match kind {
        "abort" => FaultKind::Abort,
        "panic" => FaultKind::Panic,
        "stall" => FaultKind::Stall,
        "torn" | "torn-write" => FaultKind::Torn,
        other => return Err(format!("unknown fault kind {other:?}")),
    };
    Ok(FaultSpec {
        point: point.to_owned(),
        qual,
        nth,
        kind,
        hits: AtomicU64::new(0),
        text: part.to_owned(),
    })
}

impl Harness {
    /// Claims the global one-shot sentinel for `spec`. `true` means this
    /// process fires; `false` means another process (an earlier
    /// incarnation of a respawned worker, typically) already did.
    fn claim_once(&self, spec: &FaultSpec) -> bool {
        let Some(dir) = &self.dir else { return true };
        if std::fs::create_dir_all(dir).is_err() {
            return true;
        }
        let sentinel = dir.join(format!("{:016x}.fired", fnv1a(spec.text.as_bytes())));
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(sentinel)
        {
            Ok(_) => true,
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => false,
            Err(_) => true,
        }
    }
}

/// Counts a hit on `(point, qual)` against every armed spec and returns
/// the kind of the first spec that fires, if any. Call sites that can
/// simulate a torn write use the returned [`FaultKind::Torn`] themselves
/// and [`execute`] everything else; sites with nothing to tear use
/// [`trigger`].
pub fn injected(point: &str, qual: &str) -> Option<FaultKind> {
    let harness = active()?;
    for spec in &harness.specs {
        if spec.point != point {
            continue;
        }
        if let Some(q) = &spec.qual {
            if q != qual {
                continue;
            }
        }
        let hit = spec.hits.fetch_add(1, Ordering::Relaxed) + 1;
        let fires = match spec.nth {
            None => true,
            Some(n) => hit == n && harness.claim_once(spec),
        };
        if fires {
            return Some(spec.kind);
        }
    }
    None
}

/// Performs a fired fault: abort, panic, or stall-then-abort.
/// [`FaultKind::Torn`] is a no-op here — only write sites can tear.
pub fn execute(kind: FaultKind, point: &str, qual: &str) {
    let at = if qual.is_empty() {
        point.to_owned()
    } else {
        format!("{point}@{qual}")
    };
    match kind {
        FaultKind::Torn => {}
        FaultKind::Panic => panic!("injected fault: panic at {at}"),
        FaultKind::Abort => {
            eprintln!("injected fault: abort at {at}");
            std::process::abort();
        }
        FaultKind::Stall => {
            eprintln!("injected fault: stall at {at} (heartbeats frozen)");
            STALLED.store(true, Ordering::Relaxed);
            let stall = active().map_or(Settings::default().fault_stall, |h| h.stall);
            std::thread::sleep(stall);
            // A stalled worker that nobody killed must still not complete
            // the cell (the stall simulates a hang, not a delay).
            eprintln!("injected fault: stall at {at} expired; aborting");
            std::process::abort();
        }
    }
}

/// [`injected`] + [`execute`] for call sites with nothing to tear.
pub fn trigger(point: &str, qual: &str) {
    if let Some(kind) = injected(point, qual) {
        execute(kind, point, qual);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness(spec: &str, dir: Option<PathBuf>) -> Harness {
        Harness {
            specs: parse_specs(spec).unwrap(),
            dir,
            stall: Duration::ZERO,
        }
    }

    #[test]
    fn spec_grammar_parses() {
        let h = harness("cell@swim+GHB:1:panic,disk-write@memo:3:torn", None);
        assert_eq!(h.specs.len(), 2);
        assert_eq!(h.specs[0].point, "cell");
        assert_eq!(h.specs[0].qual.as_deref(), Some("swim+GHB"));
        assert_eq!(h.specs[0].nth, Some(1));
        assert_eq!(h.specs[0].kind, FaultKind::Panic);
        assert_eq!(h.specs[1].kind, FaultKind::Torn);

        let every = harness("cell:*:abort", None);
        assert_eq!(every.specs[0].nth, None);
        assert_eq!(every.specs[0].kind, FaultKind::Abort);
        assert_eq!(every.specs[0].qual, None);

        let default_kind = harness("worker-start:2", None);
        assert_eq!(default_kind.specs[0].kind, FaultKind::Abort);

        assert!(parse_specs("").is_err());
        assert!(parse_specs("cell").is_err());
        assert!(parse_specs("cell:0").is_err());
        assert!(parse_specs("cell:x").is_err());
        assert!(parse_specs("cell:1:explode").is_err());
        assert!(parse_specs("@q:1").is_err());
    }

    #[test]
    fn nth_counts_per_spec_and_qualifier_filters() {
        let h = harness("p@a:2:torn", None);
        let fire = |point: &str, qual: &str| -> Option<FaultKind> {
            for spec in &h.specs {
                if spec.point != point {
                    continue;
                }
                if let Some(q) = &spec.qual {
                    if q != qual {
                        continue;
                    }
                }
                let hit = spec.hits.fetch_add(1, Ordering::Relaxed) + 1;
                if spec.nth.is_none_or(|n| hit == n) {
                    return Some(spec.kind);
                }
            }
            None
        };
        assert_eq!(fire("p", "b"), None, "other qualifier never counts");
        assert_eq!(fire("p", "a"), None, "first hit: not yet");
        assert_eq!(fire("p", "a"), Some(FaultKind::Torn), "second hit fires");
        assert_eq!(fire("p", "a"), None, "numeric nth fires once");
    }

    #[test]
    fn one_shot_sentinel_claims_once() {
        let dir = std::env::temp_dir().join(format!("microlib-fault-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let h = harness("p:1:abort", Some(dir.clone()));
        assert!(h.claim_once(&h.specs[0]), "first claim wins");
        assert!(!h.claim_once(&h.specs[0]), "second claim is refused");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
