//! End-to-end tests of `run_all`'s sharded, fault-tolerant execution:
//! coordinator + worker processes over one shared cache, crash recovery
//! after an injected worker abort, stall detection via frozen lease
//! heartbeats, and poison-cell quarantine — each asserting the merged
//! `results/` stay byte-identical to a single-process run.
//!
//! Windows are kept tiny (`MICROLIB_SKIP=50 MICROLIB_SIM=100`) because
//! these tests run the *debug* binary; the selected experiments
//! (`fig04_speedup` = the standard campaign, `tab01_config` = no
//! simulation) still cover the full claim/steal/journal machinery.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("microlib-shard-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A `run_all` invocation with a hermetic MICROLIB_* environment and the
/// tiny test window.
fn run_all() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_run_all"));
    for stale in [
        "MICROLIB_CACHE_DIR",
        "MICROLIB_SAMPLED",
        "MICROLIB_LEASE",
        "MICROLIB_WORKER_ID",
        "MICROLIB_FAULT",
        "MICROLIB_FAULT_WORKER",
        "MICROLIB_FAULT_DIR",
        "MICROLIB_ARTIFACTS",
    ] {
        c.env_remove(stale);
    }
    c.env("MICROLIB_SKIP", "50")
        .env("MICROLIB_SIM", "100")
        .env("MICROLIB_THREADS", "2")
        // Short coordination timings so recovery paths run in test time.
        .env("MICROLIB_LEASE_TIMEOUT_MS", "1000")
        .env("MICROLIB_STEAL_GRACE_MS", "200")
        .env("MICROLIB_RETRY_BACKOFF_MS", "50");
    c
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn assert_success(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed ({:?}):\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status,
        text(&out.stdout),
        text(&out.stderr),
    );
}

/// Byte-compares one produced results file across two output dirs.
fn assert_identical(a: &Path, b: &Path, name: &str) {
    let fa = fs::read(a.join(format!("{name}.txt"))).unwrap_or_else(|e| {
        panic!("missing {name}.txt under {}: {e}", a.display());
    });
    let fb = fs::read(b.join(format!("{name}.txt"))).unwrap_or_else(|e| {
        panic!("missing {name}.txt under {}: {e}", b.display());
    });
    assert!(
        fa == fb,
        "{name}.txt differs between {} and {}",
        a.display(),
        b.display()
    );
}

const SELECTED: &str = "fig04_speedup,tab01_config";
const FILES: [&str; 2] = ["fig04_speedup", "tab01_config"];

/// The single-process reference battery (cached), shared by the tests
/// that need a golden to compare against.
fn reference(root: &Path) -> PathBuf {
    let out = root.join("ref-results");
    let cache = root.join("ref-cache");
    let run = run_all()
        .args(["--only", SELECTED, "--cache-dir"])
        .arg(&cache)
        .arg("--out-dir")
        .arg(&out)
        .output()
        .unwrap();
    assert_success(&run, "single-process reference battery");
    out
}

#[test]
fn sharded_battery_is_byte_identical_to_single_process() {
    let root = tmp_dir("identity");
    let golden = reference(&root);

    // Cache-off single process: same bytes (the memoization layers never
    // leak into the captured outputs).
    let nocache_out = root.join("nocache-results");
    let run = run_all()
        .args(["--only", SELECTED, "--no-cache", "--out-dir"])
        .arg(&nocache_out)
        .output()
        .unwrap();
    assert_success(&run, "cache-off battery");
    for name in FILES {
        assert_identical(&golden, &nocache_out, name);
    }

    // Four coordinated workers over a fresh cache, with the sharded
    // merge verified against the single-process golden (`--verify-golden`
    // under sharded mode — the coordinator runs the gate on the merged
    // outputs).
    let shard_out = root.join("shard-results");
    let run = run_all()
        .args(["--only", SELECTED, "--workers", "4", "--cache-dir"])
        .arg(root.join("shard-cache"))
        .arg("--out-dir")
        .arg(&shard_out)
        .arg("--verify-golden")
        .arg(&golden)
        .output()
        .unwrap();
    assert_success(&run, "4-worker battery");
    let stdout = text(&run.stdout);
    assert!(
        stdout.contains("golden verification passed"),
        "coordinator must run the golden gate on the merged outputs:\n{stdout}"
    );
    for name in FILES {
        assert_identical(&golden, &shard_out, name);
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn manual_shards_share_one_cache_and_a_rerun_recomputes_nothing() {
    let root = tmp_dir("manual-shards");
    let golden = reference(&root);
    let cache = root.join("cache");

    // Two concurrent worker-style processes, each preferring one shard of
    // the same cache.
    let mut children: Vec<std::process::Child> = (0..2)
        .map(|i| {
            run_all()
                .args(["--only", SELECTED, "--shard"])
                .arg(format!("{i}/2"))
                .arg("--cache-dir")
                .arg(&cache)
                .arg("--out-dir")
                .arg(root.join(format!("shard{i}")))
                .env("MICROLIB_WORKER_ID", i.to_string())
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .spawn()
                .unwrap()
        })
        .collect();
    for child in &mut children {
        assert!(child.wait().unwrap().success(), "shard process failed");
    }
    for name in FILES {
        assert_identical(&golden, &root.join("shard0"), name);
        assert_identical(&golden, &root.join("shard1"), name);
    }

    // A follow-up plain run over the same cache is served entirely from
    // the journal: the workers released their leases on clean exit, so
    // nothing waits and nothing recomputes.
    let rerun_out = root.join("rerun");
    let rerun = run_all()
        .args(["--only", SELECTED, "--cache-dir"])
        .arg(&cache)
        .arg("--out-dir")
        .arg(&rerun_out)
        .output()
        .unwrap();
    assert_success(&rerun, "warm rerun");
    let stderr = text(&rerun.stderr);
    assert!(
        stderr.contains("recomputed 0 cells"),
        "warm rerun must be fully journal-served:\n{stderr}"
    );
    assert!(
        stderr.contains("campaign: ") && !stderr.contains('\r'),
        "campaign progress is whole lines, never a \\r rewrite:\n{stderr}"
    );
    for name in FILES {
        assert_identical(&golden, &rerun_out, name);
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn killed_worker_is_respawned_and_only_orphans_recompute() {
    let root = tmp_dir("kill-recovery");
    let golden = reference(&root);

    // Worker 0 aborts (SIGABRT — a SIGKILL-class death) at its second
    // computed cell, once globally: the respawned incarnation must not
    // re-crash, and the battery must still merge byte-identical.
    let out = root.join("results");
    let run = run_all()
        .args(["--only", SELECTED, "--workers", "2", "--cache-dir"])
        .arg(root.join("cache"))
        .arg("--out-dir")
        .arg(&out)
        .env("MICROLIB_FAULT", "cell:2:abort")
        .env("MICROLIB_FAULT_WORKER", "0")
        .output()
        .unwrap();
    assert_success(&run, "battery with injected worker kill");
    let stdout = text(&run.stdout);
    assert!(
        stdout.contains("crash recovery: recomputed only orphaned cells"),
        "the coordinator must report the recovery:\n{stdout}\n{}",
        text(&run.stderr)
    );
    for name in FILES {
        assert_identical(&golden, &out, name);
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn stalled_worker_is_killed_via_lease_expiry_and_battery_recovers() {
    let root = tmp_dir("stall");
    let golden = reference(&root);

    // Worker 0 freezes (heartbeats stop, the claimed cell never ends).
    // The stall outlives the whole test unless the coordinator notices
    // the silent lease and kills the worker.
    let out = root.join("results");
    let run = run_all()
        .args(["--only", SELECTED, "--workers", "2", "--cache-dir"])
        .arg(root.join("cache"))
        .arg("--out-dir")
        .arg(&out)
        .env("MICROLIB_FAULT", "cell:1:stall")
        .env("MICROLIB_FAULT_WORKER", "0")
        .env("MICROLIB_FAULT_STALL_MS", "120000")
        .output()
        .unwrap();
    assert_success(&run, "battery with stalled worker");
    let stdout = text(&run.stdout);
    assert!(
        stdout.contains("stale-lease kill"),
        "the stall must be detected through lease expiry:\n{stdout}\n{}",
        text(&run.stderr)
    );
    for name in FILES {
        assert_identical(&golden, &out, name);
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn poison_cell_quarantines_while_the_rest_of_the_battery_completes() {
    let root = tmp_dir("poison");
    let golden = reference(&root);

    // Every claim of swim x Base aborts its worker ('*' = every process,
    // every time). After two crashed claims the cell must be quarantined,
    // every *other* cell must complete, and the run must fail loudly.
    let out = root.join("results");
    let run = run_all()
        .args(["--only", SELECTED, "--workers", "2", "--cache-dir"])
        .arg(root.join("cache"))
        .arg("--out-dir")
        .arg(&out)
        .env("MICROLIB_FAULT", "cell@swim+Base:*:abort")
        .env("MICROLIB_CELL_RETRIES", "2")
        .output()
        .unwrap();
    assert!(
        !run.status.success(),
        "a quarantined cell must fail the battery:\n{}",
        text(&run.stdout)
    );
    let stderr = text(&run.stderr);
    assert!(
        stderr.contains("QUARANTINED CELLS (1)"),
        "the final report lists the poison cell:\n{stderr}"
    );
    assert!(
        stderr.contains("swim x Base") && stderr.contains("repro:"),
        "the report names the cell with a repro command:\n{stderr}"
    );
    assert!(
        stderr.contains("MICROLIB_SKIP=50 MICROLIB_SIM=100"),
        "the repro pins the exact window:\n{stderr}"
    );
    // tab01_config simulates nothing — it must have survived untouched.
    assert_identical(&golden, &out, "tab01_config");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn usage_errors_exit_2() {
    let cases: &[&[&str]] = &[
        &["--workers", "2", "--no-cache"],
        &["--shard", "1/4", "--no-cache"],
        &["--shard", "0/2", "--workers", "2"],
        &["--shard", "9/4"],
        &["--workers", "0"],
    ];
    for args in cases {
        let out = run_all().args(*args).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "run_all {args:?} must be a usage error:\n{}",
            text(&out.stderr)
        );
    }
}

/// A malformed `MICROLIB_*` value is a usage error naming the variable,
/// never a silent fall-back to the default — including the knobs only
/// the coordinator, the lease layer, the disk tier, the miner or the
/// fault harness read.
#[test]
fn malformed_env_overrides_exit_2() {
    for (name, value) in [
        ("MICROLIB_SIM", "2k"),
        ("MICROLIB_SEED", "0xZZ"),
        ("MICROLIB_SAMPLED", "5000:3"),
        ("MICROLIB_LEASE_TIMEOUT_MS", "5s"),
        ("MICROLIB_STEAL_GRACE_MS", "x"),
        ("MICROLIB_CELL_RETRIES", "-1"),
        ("MICROLIB_CACHE_WARM_MAX_MB", "8M"),
        ("MICROLIB_MINE_PERTURB", "abc"),
        ("MICROLIB_FAULT", "bogus"),
        ("MICROLIB_ARTIFACTS", "of"),
    ] {
        let out = run_all()
            .env(name, value)
            .args(["--no-cache", "--only", "tab01_config"])
            .output()
            .unwrap();
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}={value}:\n{stderr}");
        assert!(stderr.contains(name), "{name}={value}:\n{stderr}");
    }
}

/// Every run prints its effective settings, once, on stderr only.
#[test]
fn run_banner_shows_the_effective_settings() {
    let root = tmp_dir("banner");
    let out = root.join("results");
    let run = run_all()
        .args(["--no-cache", "--only", "tab01_config", "--out-dir"])
        .arg(&out)
        .output()
        .unwrap();
    assert_success(&run, "tab01_config");
    let stderr = text(&run.stderr);
    let banner: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("settings: "))
        .collect();
    assert_eq!(banner.len(), 1, "one banner line:\n{stderr}");
    assert!(
        banner[0].contains("skip=50 sim=100") && banner[0].contains("cache=off"),
        "{}",
        banner[0]
    );
    assert!(!text(&run.stdout).contains("settings: "));
    let table = fs::read_to_string(out.join("tab01_config.txt")).unwrap();
    assert!(!table.contains("settings: "));
    let _ = fs::remove_dir_all(&root);
}
