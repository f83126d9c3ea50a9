//! Runs the experiment battery (every figure and table, or a `--only`
//! selection) **in-process** on the campaign engine, capturing each
//! experiment's output under `results/`.
//!
//! All experiments share one [`microlib_bench::Context`]: the standard
//! 26×13 campaign is swept exactly once and reused by the eight
//! experiments that need it, and the context's battery-wide
//! [`ArtifactStore`](microlib::ArtifactStore) shares traces, warm-state
//! checkpoints and duplicated cells across the rest. Captured outputs
//! contain only deterministic content (progress and timing go to stderr),
//! so `results/` is bit-identical for any `MICROLIB_THREADS` value, with
//! artifact sharing on or off (`MICROLIB_ARTIFACTS=off`), and with the
//! disk cache cold, warm or disabled.
//!
//! # Usage
//!
//! ```text
//! run_all [--sampled] [--only <name>[,<name>...]]
//!         [--cache-dir <dir>] [--no-cache] [--verify-golden <dir>]
//!         [--shard i/N] [--workers N] [--out-dir <dir>]
//!         [--mine] [--mine-budget <n>] [--mine-bound <f>]
//!         [--mine-export <dir>] [--mine-cell <benchmark>:<delta>]
//! ```
//!
//! `--only` filters the battery by experiment name (exact or unambiguous
//! prefix — `--only fig03` runs `fig03_dbcp_fix`), so a single figure can
//! be (re)produced without the whole battery.
//!
//! `--sampled` runs every sweep SimPoint-sampled (the default plan for the
//! window unless `MICROLIB_SAMPLED` gives an explicit one) and writes to
//! `results-sampled/` so the committed full-mode `results/` stay
//! untouched. The `ablation_sampling` experiment — which exists to compare
//! sampled against full simulation — is excluded from the default sampled
//! battery (select it explicitly with `--only` if wanted).
//!
//! # The persistent cache
//!
//! By default the battery runs over a persistent on-disk artifact cache
//! (`.microlib-cache/`, or `$MICROLIB_CACHE_DIR`, or `--cache-dir <dir>`):
//! finished cells, sampling plans and warm-state checkpoints are journaled
//! to disk as they complete, so a killed run resumes where it stopped, a
//! re-run is served from disk (`recomputed 0 cells` on stderr), and a
//! config/window tweak recomputes only the cells it touches. `--no-cache`
//! (or `MICROLIB_CACHE_DIR=off`) runs memory-only. Entries are checksummed
//! and version-stamped; corrupt or stale files are recomputed, never
//! trusted.
//!
//! # Sharded, fault-tolerant execution
//!
//! `--workers N` turns this process into a **coordinator**: it spawns `N`
//! worker processes of itself (worker `i` gets `--shard i/N`), all sharing
//! the cache directory, where they coordinate cell-by-cell through atomic
//! lease files (see `ARCHITECTURE.md` and the `microlib::LeaseManager`
//! docs). The coordinator monitors exit statuses and lease heartbeats:
//! a crashed worker (signal, abort, panic at top level) is respawned with
//! exponential backoff up to `MICROLIB_WORKER_RESPAWNS` times, a worker
//! whose lease heartbeat freezes is killed and respawned, and the
//! orphaned cells of either are simply recomputed by whichever worker
//! claims them next — nothing already journaled is redone. A cell that
//! crashes `MICROLIB_CELL_RETRIES` consecutive claimers is *quarantined*:
//! the rest of the battery completes, the final report lists each
//! quarantined cell with a minimized repro command, and the exit code is
//! nonzero. After the workers finish, the coordinator byte-compares their
//! outputs against each other (they must agree exactly — the merged run
//! is only published if they do) and writes the merged battery to the
//! final output directory, where `--verify-golden` applies as usual.
//!
//! `--shard i/N` alone runs a single worker-style process claiming (by
//! preference) the `i`-th shard of the cell grid — the mode the
//! coordinator uses internally, also usable by hand across machines that
//! share a cache directory.
//!
//! # Inconsistency mining
//!
//! `--mine` runs the differential inconsistency miner (`microlib-miner`)
//! instead of the experiment battery: a deterministic budgeted walk of
//! config space probing every cell through both model tiers, minimizing
//! each inconsistency to its load-bearing knobs, and writing the
//! byte-reproducible report to `results-mine/mine.txt` (see
//! `ARCHITECTURE.md` § Inconsistency mining). `--mine-budget` and
//! `--mine-bound` override the default 64-cell / 0.25-bound run,
//! `--mine-export <dir>` additionally writes one `cliff-<id>.txt` per
//! confirmed cliff (the `cliffs-golden/` corpus is generated this way),
//! and `--mine-cell benchmark:delta` re-probes a single cell from a
//! cliff record's repro line. Mining honours `MICROLIB_SKIP` /
//! `MICROLIB_SIM` / `MICROLIB_SEED` (defaulting to a small
//! 2000-skip/4000-instruction window, not the battery's full window),
//! memoizes per-cell outcomes in the `mine` class of the disk cache
//! (a warm re-run recomputes 0 mine cells), and composes with
//! `--workers`/`--shard`: workers probe their own shard's cells first,
//! the detailed runs underneath coordinate through the lease layer, and
//! the coordinator byte-compares every worker's full report.
//!
//! # The golden gate
//!
//! `--verify-golden <dir>` re-runs the selected battery and byte-compares
//! every produced results file against the committed snapshot in `<dir>`,
//! exiting nonzero on any drift — CI runs this on every PR so a silent
//! CPI change cannot land unnoticed.
//!
//! # Settings and exit status
//!
//! Every process parses the `MICROLIB_*` variables once
//! ([`microlib::Settings`]), applies its flags on top and prints the
//! result as one `settings: …` line on stderr.
//!
//! `0` only if every selected experiment ran cleanly (and, with
//! `--verify-golden`, matched the snapshot). Any failed experiment — or
//! any failed campaign cell inside one — is summarized per cell on stderr
//! and the process exits `1`. Usage errors — including a malformed
//! `MICROLIB_*` variable, in the coordinator, a worker or the miner —
//! exit `2`.

use microlib::{CacheDir, LeaseManager, SamplingMode, Settings, ShardSpec, SimOptions};
use microlib_bench::{experiments, Context};
use microlib_miner::{mine, reprobe_cell, CellOutcome, MineConfig};
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{exit, Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Resolves one `--only` entry against the experiment list (exact name
/// wins, else an unambiguous prefix).
fn resolve(name: &str) -> Result<&'static str, String> {
    if let Some((exact, _)) = experiments::ALL.iter().find(|(n, _)| *n == name) {
        return Ok(exact);
    }
    let matches: Vec<&'static str> = experiments::ALL
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| n.starts_with(name))
        .collect();
    match matches.as_slice() {
        [one] => Ok(one),
        [] => Err(format!(
            "unknown experiment {name:?}; available:\n  {}",
            experiments::ALL
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join("\n  ")
        )),
        many => Err(format!(
            "ambiguous experiment {name:?}: {}",
            many.join(", ")
        )),
    }
}

/// The parsed command line.
struct Cli {
    selected: Vec<&'static str>,
    sampled: bool,
    /// Golden snapshot directory to verify against, if requested.
    verify_golden: Option<String>,
    /// `--workers N`: run as the coordinator of N worker processes.
    workers: Option<u32>,
    /// Output directory override (the coordinator points each worker at
    /// its own).
    out_dir: Option<String>,
    /// `--mine`: run the inconsistency miner instead of the battery.
    mine: bool,
    /// `--mine-budget <n>`: cells to sample (default 64).
    mine_budget: Option<usize>,
    /// `--mine-bound <f>`: divergence-shift bound (default 0.25).
    mine_bound: Option<f64>,
    /// `--mine-export <dir>`: also write one file per confirmed cliff.
    mine_export: Option<String>,
    /// `--mine-cell benchmark:delta`: re-probe one cell and exit.
    mine_cell: Option<String>,
}

/// Parses the settings and the command line (see the module docs for the
/// grammar), applies the flags on top of the settings and arms the fault
/// harness they describe.
fn parse() -> Result<(Cli, Settings), String> {
    let mut settings = Settings::from_env()?;
    let mut args = std::env::args().skip(1);
    let mut selected: Vec<&'static str> = Vec::new();
    let mut explicit = false;
    let mut sampled = false;
    let mut no_cache = false;
    let mut cache_dir: Option<String> = None;
    let mut verify_golden: Option<String> = None;
    let mut workers: Option<u32> = None;
    let mut out_dir: Option<String> = None;
    let mut mine = false;
    let mut mine_budget: Option<usize> = None;
    let mut mine_bound: Option<f64> = None;
    let mut mine_export: Option<String> = None;
    let mut mine_cell: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sampled" => sampled = true,
            "--no-cache" => no_cache = true,
            "--cache-dir" => {
                cache_dir = Some(args.next().ok_or("--cache-dir needs a directory")?);
            }
            "--verify-golden" => {
                verify_golden = Some(args.next().ok_or("--verify-golden needs a directory")?);
            }
            "--shard" => {
                let spec = args.next().ok_or("--shard needs i/N")?;
                settings.shard = Some(ShardSpec::parse(&spec)?);
            }
            "--workers" => {
                let n = args.next().ok_or("--workers needs a count")?;
                let n: u32 = n
                    .parse()
                    .map_err(|_| format!("--workers count {n:?} is not a number"))?;
                if n == 0 {
                    return Err("--workers needs at least 1".to_owned());
                }
                workers = Some(n);
            }
            "--out-dir" => {
                out_dir = Some(args.next().ok_or("--out-dir needs a directory")?);
            }
            "--mine" => mine = true,
            "--mine-budget" => {
                let n = args.next().ok_or("--mine-budget needs a cell count")?;
                mine_budget = Some(
                    n.parse()
                        .map_err(|_| format!("--mine-budget count {n:?} is not a number"))?,
                );
            }
            "--mine-bound" => {
                let b = args.next().ok_or("--mine-bound needs a bound")?;
                mine_bound = Some(
                    b.parse()
                        .map_err(|_| format!("--mine-bound {b:?} is not a number"))?,
                );
            }
            "--mine-export" => {
                mine_export = Some(args.next().ok_or("--mine-export needs a directory")?);
            }
            "--mine-cell" => {
                mine_cell = Some(args.next().ok_or("--mine-cell needs benchmark:delta")?);
            }
            "--only" => {
                explicit = true;
                let list = args
                    .next()
                    .ok_or_else(|| "--only needs a comma-separated experiment list".to_owned())?;
                for name in list.split(',').filter(|s| !s.is_empty()) {
                    let resolved = resolve(name)?;
                    if !selected.contains(&resolved) {
                        selected.push(resolved);
                    }
                }
            }
            other => {
                return Err(format!(
                    "unknown argument {other:?} (expected --sampled, --only <list>, \
                     --cache-dir <dir>, --no-cache, --verify-golden <dir>, \
                     --shard i/N, --workers <n>, --out-dir <dir>, --mine, \
                     --mine-budget <n>, --mine-bound <f>, --mine-export <dir> \
                     or --mine-cell <benchmark>:<delta>)"
                ))
            }
        }
    }
    if !explicit {
        selected = experiments::ALL
            .iter()
            .map(|(n, _)| *n)
            // The sampled-vs-full calibration study forces a full-mode
            // standard campaign, defeating the point of a sampled battery.
            .filter(|n| !(sampled && *n == "ablation_sampling"))
            .collect();
    }
    let shard = settings.shard.is_some();
    if shard && workers.is_some() {
        return Err("--shard and --workers are mutually exclusive \
                    (the coordinator assigns shards itself)"
            .to_owned());
    }
    if !mine
        && mine_cell.is_none()
        && (mine_budget.is_some() || mine_bound.is_some() || mine_export.is_some())
    {
        return Err("--mine-budget/--mine-bound/--mine-export need --mine".to_owned());
    }
    if (mine || mine_cell.is_some()) && verify_golden.is_some() {
        return Err(
            "--verify-golden applies to the experiment battery, not --mine \
                    (the cliffs-golden gate lives in the test suite)"
                .to_owned(),
        );
    }
    if mine_export.is_some() && workers.is_some() {
        return Err("--mine-export is a solo-run flag (the coordinator merges \
                    workers' reports; export from a single run)"
            .to_owned());
    }
    if mine_cell.is_some() && (workers.is_some() || shard) {
        return Err("--mine-cell re-probes one cell and does not shard".to_owned());
    }
    // Cache resolution: --no-cache wins; then --cache-dir; then
    // MICROLIB_CACHE_DIR (including its own off switch); then the
    // default directory.
    if no_cache {
        settings.cache_dir = CacheDir::Off;
    } else if let Some(dir) = cache_dir {
        settings.cache_dir = CacheDir::At(dir.into());
    } else if settings.cache_dir == CacheDir::Unset {
        settings.cache_dir = CacheDir::At(".microlib-cache".into());
    }
    if settings.cache_dir.path().is_none() && (shard || workers.is_some()) {
        return Err("--shard/--workers coordinate through lease files in the \
                    cache directory and cannot run with the cache off"
            .to_owned());
    }
    // `--sampled` must actually sample: a disabling MICROLIB_SAMPLED (a
    // stale `=0` in the shell) would otherwise run the whole battery in
    // full mode while labeling the output sampled. An explicit plan wins.
    if sampled && !settings.sampling.is_sampled() {
        settings.sampling = SamplingMode::simpoints_for(settings.window());
    }
    let mine = mine || mine_cell.is_some();
    if mine {
        // Mining probes dozens of cells x mechanisms x two tiers, so it
        // defaults to a much smaller window than the battery.
        settings.skip.get_or_insert(2_000);
        settings.sim.get_or_insert(4_000);
    }
    microlib::fault::arm_from(&settings)?;
    let cli = Cli {
        selected,
        sampled,
        verify_golden,
        workers,
        out_dir,
        mine,
        mine_budget,
        mine_bound,
        mine_export,
        mine_cell,
    };
    Ok((cli, settings))
}

/// Byte-compares every selected results file against the golden snapshot.
/// Returns the number of mismatched (or missing) files.
fn verify_golden(out_dir: &str, golden_dir: &str, selected: &[&str]) -> usize {
    let mut drifted = 0usize;
    println!("\nverifying {out_dir}/ against golden snapshot {golden_dir}/");
    for name in selected {
        let produced = fs::read(format!("{out_dir}/{name}.txt"));
        let golden = fs::read(format!("{golden_dir}/{name}.txt"));
        match (produced, golden) {
            (Ok(p), Ok(g)) if p == g => println!("  ok      {name}"),
            (Ok(_), Ok(_)) => {
                drifted += 1;
                println!(
                    "  DRIFT   {name} (run `diff {golden_dir}/{name}.txt {out_dir}/{name}.txt`)"
                );
            }
            (_, Err(_)) => {
                drifted += 1;
                println!("  MISSING {name} (no golden file — regenerate the snapshot?)");
            }
            (Err(_), _) => {
                drifted += 1;
                println!("  MISSING {name} (experiment produced no output)");
            }
        }
    }
    drifted
}

/// How one worker process's life ended, as the coordinator sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WorkerOutcome {
    /// Still running (or awaiting a respawn).
    Running,
    /// Exit 0: full battery, no failures.
    Clean,
    /// Exit 1: battery completed but some experiment/cell failed
    /// deterministically (a respawn would fail identically).
    Failed,
    /// Crashed (signal/abort/panic) more than the respawn budget allows.
    Dead,
}

/// One worker slot the coordinator manages.
struct Worker {
    id: u32,
    child: Option<Child>,
    outcome: WorkerOutcome,
    respawns: u32,
    /// Deadline of a pending exponential-backoff respawn.
    respawn_at: Option<Instant>,
    log_path: PathBuf,
    out_dir: PathBuf,
}

/// Spawns (or respawns) worker `id`, logging to its append-mode log file.
fn spawn_worker(
    exe: &Path,
    cli: &Cli,
    cache_dir: &Path,
    worker: &Worker,
    workers: u32,
    threads: u32,
) -> std::io::Result<Child> {
    let log = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&worker.log_path)?;
    let log_err = log.try_clone()?;
    let mut cmd = Command::new(exe);
    cmd.arg("--shard")
        .arg(format!("{}/{workers}", worker.id))
        .arg("--cache-dir")
        .arg(cache_dir)
        .arg("--out-dir")
        .arg(&worker.out_dir);
    if cli.mine {
        cmd.arg("--mine");
        if let Some(n) = cli.mine_budget {
            cmd.arg("--mine-budget").arg(n.to_string());
        }
        if let Some(b) = cli.mine_bound {
            cmd.arg("--mine-bound").arg(b.to_string());
        }
    } else {
        cmd.arg("--only").arg(cli.selected.join(","));
        if cli.sampled {
            cmd.arg("--sampled");
        }
    }
    cmd.env("MICROLIB_WORKER_ID", worker.id.to_string())
        .env("MICROLIB_THREADS", threads.to_string())
        .stdout(Stdio::from(log))
        .stderr(Stdio::from(log_err));
    cmd.spawn()
}

/// Prints the last lines of a failed worker's log.
fn print_log_tail(worker: &Worker) {
    let Ok(text) = fs::read_to_string(&worker.log_path) else {
        return;
    };
    let lines: Vec<&str> = text.lines().collect();
    let tail = lines.len().saturating_sub(25);
    eprintln!(
        "--- worker {} log tail ({}) ---",
        worker.id,
        worker.log_path.display()
    );
    for line in &lines[tail..] {
        eprintln!("  {line}");
    }
}

/// The `--workers N` coordinator (see the module docs): spawns, monitors,
/// respawns and merges. Returns the process exit code.
fn coordinate(cli: &Cli, settings: &Settings, worker_count: u32) -> i32 {
    let cache_dir = settings
        .cache_dir
        .path()
        .expect("parse() rejects --workers without a cache dir")
        .to_path_buf();
    let out_dir = cli.out_dir.clone().unwrap_or_else(|| default_out_dir(cli));
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate own executable to spawn workers: {e}");
            return 2;
        }
    };
    let worker_root = cache_dir.join("workers");
    if fs::create_dir_all(&worker_root).is_err() {
        eprintln!("cannot create {}", worker_root.display());
        return 2;
    }
    let timeout = settings.lease_timeout;
    let max_respawns = settings.worker_respawns;
    let total_threads = match settings.threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    } as u32;
    let worker_threads = (total_threads / worker_count).max(1);

    println!(
        ">>> coordinator: {worker_count} workers x {worker_threads} thread(s), \
         cache {}, lease timeout {timeout:?}",
        cache_dir.display()
    );
    let battery = Instant::now();
    let mut workers: Vec<Worker> = (0..worker_count)
        .map(|id| Worker {
            id,
            child: None,
            outcome: WorkerOutcome::Running,
            respawns: 0,
            respawn_at: None,
            log_path: worker_root.join(format!("w{id}.log")),
            out_dir: worker_root.join(format!("w{id}")),
        })
        .collect();
    for w in &mut workers {
        // A fresh run must not merge stale outputs or read old logs.
        let _ = fs::remove_dir_all(&w.out_dir);
        let _ = fs::remove_file(&w.log_path);
        match spawn_worker(&exe, cli, &cache_dir, w, worker_count, worker_threads) {
            Ok(child) => w.child = Some(child),
            Err(e) => {
                eprintln!("cannot spawn worker {}: {e}", w.id);
                return 2;
            }
        }
    }

    let mut respawn_count = 0u32;
    let mut stale_kills = 0u32;
    let mut fatal = false;
    // Kill frozen workers well before other workers steal their leases
    // (a live worker heartbeats at ~timeout/4, so timeout/2 of silence
    // already means frozen).
    let kill_after = timeout / 2;
    let mut next_stale_scan = Instant::now() + kill_after;
    'monitor: loop {
        let mut all_settled = true;
        for w in &mut workers {
            if w.outcome != WorkerOutcome::Running {
                continue;
            }
            all_settled = false;
            if let Some(child) = &mut w.child {
                match child.try_wait() {
                    Ok(None) => {}
                    Ok(Some(status)) => {
                        w.child = None;
                        match status.code() {
                            Some(0) => {
                                w.outcome = WorkerOutcome::Clean;
                                println!("worker {} finished clean", w.id);
                            }
                            Some(1) => {
                                // Deterministic failure: a respawn would
                                // fail the same way. Keep its outputs for
                                // the merge (quarantine runs end here).
                                w.outcome = WorkerOutcome::Failed;
                                eprintln!("worker {} failed (deterministic, not respawning)", w.id);
                            }
                            Some(2) => {
                                eprintln!("worker {} rejected its command line — fatal", w.id);
                                print_log_tail(w);
                                fatal = true;
                                break 'monitor;
                            }
                            code => {
                                // Signal (None) or abort/panic exit: a
                                // crash. Its leases expire and its cells
                                // get reclaimed; respawn it (bounded) to
                                // keep its shard's throughput.
                                eprintln!(
                                    "worker {} crashed ({}), {} respawn(s) used",
                                    w.id,
                                    match code {
                                        Some(c) => format!("exit code {c}"),
                                        None => "killed by signal".to_owned(),
                                    },
                                    w.respawns,
                                );
                                if w.respawns < max_respawns {
                                    let delay = settings
                                        .retry_backoff
                                        .saturating_mul(1 << w.respawns.min(16));
                                    w.respawn_at = Some(Instant::now() + delay);
                                } else {
                                    w.outcome = WorkerOutcome::Dead;
                                    eprintln!(
                                        "worker {} exhausted its {} respawns — giving up on it \
                                         (its cells fall to the other workers)",
                                        w.id, max_respawns
                                    );
                                }
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("worker {}: wait failed: {e}", w.id);
                        w.child = None;
                        w.outcome = WorkerOutcome::Dead;
                    }
                }
            } else if w.respawn_at.is_some_and(|at| Instant::now() >= at) {
                w.respawn_at = None;
                w.respawns += 1;
                respawn_count += 1;
                match spawn_worker(&exe, cli, &cache_dir, w, worker_count, worker_threads) {
                    Ok(child) => {
                        println!("worker {} respawned (attempt {})", w.id, w.respawns + 1);
                        w.child = Some(child);
                    }
                    Err(e) => {
                        eprintln!("worker {} respawn failed: {e}", w.id);
                        w.outcome = WorkerOutcome::Dead;
                    }
                }
            }
        }
        if all_settled {
            break;
        }
        if Instant::now() >= next_stale_scan {
            next_stale_scan = Instant::now() + kill_after.max(Duration::from_millis(50));
            for (pid, age) in LeaseManager::stale_owners(&cache_dir, kill_after) {
                let frozen = workers
                    .iter_mut()
                    .find(|w| w.child.as_ref().is_some_and(|c| c.id() == pid));
                if let Some(w) = frozen {
                    eprintln!(
                        "worker {} holds a lease silent for {age:?} — presumed frozen, killing it",
                        w.id
                    );
                    if let Some(child) = &mut w.child {
                        if child.kill().is_ok() {
                            stale_kills += 1;
                        }
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    if fatal {
        for w in &mut workers {
            if let Some(c) = &mut w.child {
                let _ = c.kill();
            }
        }
        return 2;
    }

    if respawn_count + stale_kills > 0 {
        // The recovery marker CI greps for: the journal + lease layer
        // guarantee that respawned/stolen work re-ran only the cells the
        // dead worker had claimed but not journaled.
        println!(
            "crash recovery: recomputed only orphaned cells \
             ({respawn_count} worker respawn(s), {stale_kills} stale-lease kill(s))"
        );
    }

    // Merge: every completed worker ran the full battery over the shared
    // memo, so their outputs must agree byte-for-byte — this cross-check
    // is the sharded-mode determinism gate. Prefer clean workers; if none
    // survived clean (e.g. a quarantine run), merge the deterministic
    // failures so the report still shows every healthy cell.
    let clean: Vec<&Worker> = workers
        .iter()
        .filter(|w| w.outcome == WorkerOutcome::Clean)
        .collect();
    let failed: Vec<&Worker> = workers
        .iter()
        .filter(|w| w.outcome == WorkerOutcome::Failed)
        .collect();
    let any_failed = !failed.is_empty();
    let any_dead = workers.iter().any(|w| w.outcome == WorkerOutcome::Dead);
    for w in workers.iter().filter(|w| w.outcome != WorkerOutcome::Clean) {
        print_log_tail(w);
    }
    let sources = if !clean.is_empty() { &clean } else { &failed };
    if sources.is_empty() {
        eprintln!("BATTERY FAILED — no worker completed the battery");
        return 1;
    }
    let mut merge_mismatch = 0usize;
    if fs::create_dir_all(&out_dir).is_err() {
        eprintln!("cannot create {out_dir}/");
        return 2;
    }
    // In mine mode every worker produces the single deterministic mining
    // report; the battery produces one file per selected experiment.
    let merge_names: Vec<&str> = if cli.mine {
        vec!["mine"]
    } else {
        cli.selected.clone()
    };
    for name in &merge_names {
        let reference = fs::read(sources[0].out_dir.join(format!("{name}.txt")));
        let Ok(reference) = reference else {
            eprintln!(
                "MERGE MISSING {name}: worker {} produced no output",
                sources[0].id
            );
            merge_mismatch += 1;
            continue;
        };
        for other in &sources[1..] {
            match fs::read(other.out_dir.join(format!("{name}.txt"))) {
                Ok(bytes) if bytes == reference => {}
                Ok(_) => {
                    eprintln!(
                        "MERGE MISMATCH {name}: workers {} and {} disagree byte-for-byte",
                        sources[0].id, other.id
                    );
                    merge_mismatch += 1;
                }
                Err(_) => {
                    eprintln!(
                        "MERGE MISSING {name}: worker {} produced no output",
                        other.id
                    );
                    merge_mismatch += 1;
                }
            }
        }
        if fs::write(format!("{out_dir}/{name}.txt"), &reference).is_err() {
            eprintln!("cannot write {out_dir}/{name}.txt");
            merge_mismatch += 1;
        }
    }
    if merge_mismatch == 0 {
        println!(
            "merged {} result file(s) from {} worker(s) into {out_dir}/ (all byte-identical)",
            merge_names.len(),
            sources.len()
        );
    }

    // Quarantine report: poison cells that crashed every claimer. The
    // battery around them completed — that is the point — but the run
    // must not look green.
    let quarantined = LeaseManager::quarantine_reports(&cache_dir);
    if !quarantined.is_empty() {
        eprintln!("\nQUARANTINED CELLS ({}):", quarantined.len());
        for q in &quarantined {
            eprintln!("  {} — {} crashed attempt(s)", q.cell, q.attempts);
            eprintln!("    repro: {}", q.repro);
        }
        eprintln!(
            "(each cell above crashed every worker that claimed it; the rest of the \
             battery completed. Remove {}/quarantine/ to retry.)",
            cache_dir.display()
        );
    }

    let mut code = 0;
    if merge_mismatch > 0 {
        eprintln!("BATTERY FAILED — {merge_mismatch} merge mismatch(es)");
        code = 1;
    }
    if !quarantined.is_empty() || any_failed {
        code = 1;
    }
    if code == 0 {
        if let Some(golden_dir) = &cli.verify_golden {
            let drifted = verify_golden(&out_dir, golden_dir, &cli.selected);
            if drifted > 0 {
                eprintln!("golden verification FAILED: {drifted} file(s) drifted");
                code = 1;
            } else {
                println!("golden verification passed ({} files)", cli.selected.len());
            }
        }
    }
    match code {
        0 if any_dead => println!(
            "\nbattery done in {:.1?} (degraded: some workers died, all cells completed); \
             results under {out_dir}/",
            battery.elapsed()
        ),
        0 => println!(
            "\nbattery done in {:.1?} across {worker_count} workers (0 failed); \
             results under {out_dir}/",
            battery.elapsed()
        ),
        _ => println!(
            "\nbattery FAILED in {:.1?}; partial results under {out_dir}/",
            battery.elapsed()
        ),
    }
    code
}

/// Where results land when `--out-dir` is not given.
fn default_out_dir(cli: &Cli) -> String {
    if cli.mine {
        "results-mine".to_owned()
    } else if cli.sampled {
        "results-sampled".to_owned()
    } else {
        "results".to_owned()
    }
}

/// The `--mine` mode: runs the differential inconsistency miner (or a
/// single `--mine-cell` re-probe) instead of the experiment battery and
/// returns the process exit code. The report written to
/// `<out-dir>/mine.txt` is fully deterministic — cache and timing
/// counters go to stderr — so a warm re-run (and every parallel worker)
/// produces byte-identical output.
fn run_mine(cli: &Cli, settings: Settings) -> i32 {
    let window = settings.window();
    let base_opts = SimOptions {
        seed: settings.seed,
        window,
        ..SimOptions::default()
    };
    let mut cfg = MineConfig::standard(base_opts);
    if let Some(n) = cli.mine_budget {
        cfg.budget = n;
    }
    if let Some(b) = cli.mine_bound {
        cfg.bound = b;
    }
    cfg.threads = settings.threads;
    cfg.shard = settings.shard.map(|s| (s.index, s.count));
    cfg.perturb = settings.mine_perturb;
    let cx = Context::with_settings(settings);
    let store = cx.store();
    // Drop-time sweep: even a panicking mine run releases its leases and
    // syncs the journal (the explicit finish() calls below still cover
    // the exit() paths, which skip Drop).
    let _finish = store.finish_guard();
    if let Some(spec) = &cli.mine_cell {
        return match reprobe_cell(store, spec, &cfg) {
            Ok(text) => {
                print!("{text}");
                store.finish();
                0
            }
            Err(e) => {
                eprintln!("{e}");
                2
            }
        };
    }
    let out_dir = cli.out_dir.clone().unwrap_or_else(|| default_out_dir(cli));
    if fs::create_dir_all(&out_dir).is_err() {
        eprintln!("cannot create {out_dir}/");
        return 2;
    }
    let t = Instant::now();
    println!(
        ">>> mining {} cells (bound {:.4}, window skip={} sim={})",
        cfg.budget, cfg.bound, window.skip, window.simulate
    );
    let report = mine(store, &cfg);

    let mut out = String::new();
    out.push_str(&format!(
        "inconsistency mining: seed={:#x} skip={} sim={} budget={} bound={:.4} perturb={:.4}\n",
        cfg.base_opts.seed, window.skip, window.simulate, cfg.budget, cfg.bound, cfg.perturb,
    ));
    out.push_str(&format!(
        "mechanisms: {}\n\n",
        cfg.mechanisms
            .iter()
            .map(|m| m.to_string())
            .collect::<Vec<_>>()
            .join(",")
    ));
    let mut failed = 0usize;
    for cell in &report.cells {
        let verdict = match &cell.outcome {
            CellOutcome::Consistent => "consistent".to_owned(),
            CellOutcome::Cliff(r) => format!("cliff {:016x} ({})", r.id(), r.kind.label()),
            CellOutcome::Failed(e) => {
                failed += 1;
                format!("FAILED {e}")
            }
        };
        out.push_str(&format!(
            "cell {:3} {}:{} -> {verdict}\n",
            cell.index,
            cell.benchmark,
            cell.delta.key()
        ));
    }
    let cliffs = report.cliffs();
    for r in &cliffs {
        out.push('\n');
        out.push_str(&r.render());
    }
    out.push_str(&format!(
        "\nmined {} cells: {} cliffs, {} failed\n",
        report.cells.len(),
        cliffs.len(),
        failed
    ));
    let path = format!("{out_dir}/mine.txt");
    if fs::write(&path, &out).is_err() {
        eprintln!("cannot write {path}");
        return 2;
    }
    println!("    -> {path} ({:.1?})", t.elapsed());
    if let Some(export) = &cli.mine_export {
        if fs::create_dir_all(export).is_err() {
            eprintln!("cannot create {export}/");
            return 2;
        }
        for r in &cliffs {
            let p = format!("{export}/cliff-{:016x}.txt", r.id());
            if fs::write(&p, r.render()).is_err() {
                eprintln!("cannot write {p}");
                return 2;
            }
        }
        println!("exported {} cliff record(s) to {export}/", cliffs.len());
    }
    store.finish();
    // The CI smoke markers: cliff yield and incrementality.
    eprintln!(
        "miner: found and minimized {} cliff(s) across {} cells",
        cliffs.len(),
        report.cells.len()
    );
    eprintln!(
        "miner: recomputed {} mine cells, {} served from cache",
        report.computed, report.cached
    );
    if failed > 0 {
        eprintln!("MINING FAILED — {failed} cell(s) could not be probed (see {path})");
        return 1;
    }
    0
}

fn main() {
    // A malformed variable or flag is a usage error, never a silent default.
    let (cli, settings) = parse().unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2)
    });
    eprintln!("settings: {settings}");
    if let Some(n) = cli.workers {
        exit(coordinate(&cli, &settings, n));
    }
    // The worker-start fault point (after the settings are resolved,
    // before any real work).
    let worker_id = settings.worker_id.clone().unwrap_or_default();
    microlib::fault::trigger("worker-start", &worker_id);
    if cli.mine {
        exit(run_mine(&cli, settings));
    }
    let out_dir = cli.out_dir.clone().unwrap_or_else(|| default_out_dir(&cli));
    fs::create_dir_all(&out_dir).expect("results dir");
    let mut cx = Context::with_settings(settings);
    // Drop-time sweep for every path that unwinds or returns without
    // reaching the explicit finish() below: no exit leaves lease files
    // behind. (exit() skips Drop, but those paths finish() explicitly.)
    let _finish = cx.store().finish_guard();
    if let Some(spec) = cx.settings().shard {
        println!(
            ">>> worker{}: shard {spec}, cache {}",
            if worker_id.is_empty() {
                String::new()
            } else {
                format!(" {worker_id}")
            },
            cx.settings()
                .cache_dir
                .path()
                .map_or("off".into(), |d| d.display().to_string()),
        );
    }
    let battery = Instant::now();
    let mut failed: Vec<&'static str> = Vec::new();
    let mut ran = 0usize;
    for (name, run) in experiments::ALL {
        if !cli.selected.contains(name) {
            continue;
        }
        ran += 1;
        // Quarantine repro commands name the experiment that was running
        // when the poison cell was claimed.
        microlib::set_run_scope(name);
        println!(">>> {name}");
        let t = Instant::now();
        let mut captured: Vec<u8> = Vec::new();
        // One failing experiment (a panicking sweep cell, say) must not
        // sink the rest of the battery: catch it, keep the partial
        // capture for diagnosis, move on — the old child-process
        // orchestrator's isolation, kept across the in-process port.
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| run(&mut cx, &mut captured)));
        let path = format!("{out_dir}/{name}.txt");
        fs::write(&path, &captured).expect("write result");
        match outcome {
            Ok(Ok(())) => println!("    -> {path} ({:.1?})", t.elapsed()),
            Ok(Err(e)) => {
                failed.push(name);
                eprintln!("{name} FAILED writing output: {e} (partial capture in {path})");
            }
            Err(payload) => {
                failed.push(name);
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic");
                eprintln!("{name} FAILED: {msg} (partial capture in {path})");
            }
        }
        // Warm checkpoints only pay off within one experiment's sweeps
        // (different experiments warm different configurations); traces
        // and the cell memo keep earning across the battery and stay.
        // (The disk tier keeps its copies — a later experiment or process
        // with the same configuration re-hydrates from disk.)
        cx.store().clear_warm_states();
    }
    // Clean-exit sweep: release every lease this process still holds and
    // fsync the memo journal, before any of the exit paths below.
    cx.store().finish();
    let stats = cx.store().stats();
    eprintln!(
        "artifact store: traces {}/{} hits, warm states {}/{} hits, sampling plans {}/{} hits, cell memo {}/{} hits",
        stats.trace_hits,
        stats.trace_hits + stats.trace_misses,
        stats.warm_hits,
        stats.warm_hits + stats.warm_misses,
        stats.plan_hits,
        stats.plan_hits + stats.plan_misses,
        stats.memo_hits,
        stats.memo_hits + stats.memo_misses + stats.memo_disk_hits,
    );
    match cx.store().disk_cache() {
        Some(disk) => eprintln!(
            "disk cache ({}): {} memo hits, {} plan hits, {} warm hits; recomputed {} cells",
            disk.root().display(),
            stats.memo_disk_hits,
            stats.plan_disk_hits,
            stats.warm_disk_hits,
            stats.cells_recomputed(),
        ),
        None => eprintln!("disk cache: off"),
    }
    if stats.lease_claims + stats.lease_waits + stats.cells_quarantined > 0 {
        eprintln!(
            "lease layer: claimed {} cells, waited out {} held elsewhere, {} quarantined",
            stats.lease_claims, stats.lease_waits, stats.cells_quarantined,
        );
    }

    // A partially failed battery must never look green: summarize every
    // failed experiment — and every failed campaign cell — then exit 1.
    let cell_failures = cx.cell_failures();
    if !failed.is_empty() || !cell_failures.is_empty() {
        eprintln!("\nBATTERY FAILED — {} experiment(s):", failed.len());
        for name in &failed {
            eprintln!("  {name}");
        }
        if !cell_failures.is_empty() {
            eprintln!("failed campaign cells:");
            for line in &cell_failures {
                eprintln!("  {line}");
            }
        }
        println!(
            "\n{ran} experiments attempted in {:.1?} ({} failed); results under {out_dir}/",
            battery.elapsed(),
            failed.len()
        );
        exit(1);
    }
    // The golden gate runs before the success banner: a drifting run
    // must never print "done (0 failed)" and then exit 1.
    if let Some(golden_dir) = &cli.verify_golden {
        let drifted = verify_golden(&out_dir, golden_dir, &cli.selected);
        if drifted > 0 {
            eprintln!("golden verification FAILED: {drifted} file(s) drifted");
            exit(1);
        }
        println!("golden verification passed ({} files)", cli.selected.len());
    }
    println!(
        "\nall {ran} experiments done in {:.1?} (0 failed); results under {out_dir}/",
        battery.elapsed()
    );
}
