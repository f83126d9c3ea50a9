//! The experiment battery's probe for the traced run: all experiments
//! in-process through one `Context`, at the window `results-golden/` was
//! recorded at, once over an empty disk cache and once over the cache that
//! fill left — the researcher's re-run loop.

use crate::common::{experiment_metric, Report, WorkDir, SIM_SEED, THREADS};
use microlib::{subset_winner_analysis, ArtifactStoreStats};
use microlib_bench::experiments::ALL;
use microlib_bench::Context;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// The window and seed of `results-golden/` (`MICROLIB_SKIP=SIM=2000`).
const SKIP: u64 = 2_000;
const SIM: u64 = 2_000;
/// Where the golden tables live, relative to the checkout root.
const GOLDEN: &str = "results-golden";
/// The subset-winner enumeration: seconds of computation over the
/// standard campaign, which other experiments load too, so a cold fill
/// leaves it out and still fills the whole cache.
const ENUMERATION: &str = "tab06_subset_winners";

/// Points the battery's environment-driven settings at the golden window
/// and seed, two threads, and `cache` as the disk tier.
fn configure(cache: &Path) {
    for var in [
        "MICROLIB_SAMPLED",
        "MICROLIB_ARTIFACTS",
        "MICROLIB_SHARD",
        "MICROLIB_LEASE",
    ] {
        std::env::remove_var(var);
    }
    std::env::set_var("MICROLIB_SKIP", SKIP.to_string());
    std::env::set_var("MICROLIB_SIM", SIM.to_string());
    std::env::set_var("MICROLIB_SEED", SIM_SEED.to_string());
    std::env::set_var("MICROLIB_THREADS", THREADS.to_string());
    std::env::set_var("MICROLIB_CACHE_DIR", cache);
}

/// One battery over a fresh `Context` on `cache`.
struct Pass {
    /// Per experiment, in run order: name, wall time, captured tables
    /// (`None` when it panicked or failed to write).
    experiments: Vec<(&'static str, Duration, Option<Vec<u8>>)>,
    stats: ArtifactStoreStats,
    /// Time of the exhaustive subset-winner enumeration on the standard
    /// campaign, timed on its own after a warm pass.
    subset: Duration,
}

/// Runs the battery in `run_all`'s order. A `fill` leaves out
/// [`ENUMERATION`]; a warm pass (`!fill`) also times the enumeration on
/// its own.
fn pass(cache: &Path, fill: bool) -> Pass {
    configure(cache);
    let mut cx = Context::new();
    let mut experiments = Vec::new();
    for &(name, run) in ALL {
        if fill && name == ENUMERATION {
            continue;
        }
        let t = Instant::now();
        let mut captured = Vec::new();
        let outcome = catch_unwind(AssertUnwindSafe(|| run(&mut cx, &mut captured)));
        let ok = matches!(outcome, Ok(Ok(())));
        experiments.push((name, t.elapsed(), ok.then_some(captured)));
        cx.store().clear_warm_states();
    }
    // No `finish()`: its fsync of every journaled memo buys durability the
    // benchmark does not need (the warm pass reads the page cache).
    let stats = cx.store().stats();
    let subset = if fill {
        Duration::ZERO
    } else {
        let matrix = cx.std_matrix();
        let t = Instant::now();
        std::hint::black_box(subset_winner_analysis(matrix));
        t.elapsed()
    };
    Pass {
        experiments,
        stats,
        subset,
    }
}

/// Byte-compares every table of `p` to `results-golden/` and, when given,
/// to the tables the earlier pass made of the same experiment.
fn check(report: &mut Report, p: &Pass, earlier: Option<&Pass>) {
    for (name, _, tables) in &p.experiments {
        let golden = std::fs::read(Path::new(GOLDEN).join(format!("{name}.txt"))).ok();
        report.check(tables.is_some() && *tables == golden, || {
            format!("{name}: tables differ from {GOLDEN}/ (or the experiment failed)")
        });
        let before = earlier.and_then(|e| e.experiments.iter().find(|(n, _, _)| n == name));
        if let Some((_, _, before)) = before {
            report.check(before == tables, || {
                format!("{name}: tables differ from the cold fill")
            });
        }
    }
}

/// The battery's per-layer metrics: one cold fill and one timed warm pass
/// over a fresh cache. The warm pass must run every experiment and
/// simulate nothing.
pub fn probe(report: &mut Report, work: &WorkDir) {
    let cache = work.fresh("battery-probe");
    let cold = pass(&cache, true);
    let warm = pass(&cache, false);
    check(report, &cold, None);
    check(report, &warm, Some(&cold));
    report.check(warm.experiments.len() == ALL.len(), || {
        format!(
            "warm pass ran {} of {} experiments",
            warm.experiments.len(),
            ALL.len()
        )
    });
    report.check(warm.stats.memo_misses == 0, || {
        format!("warm pass simulated {} cells", warm.stats.memo_misses)
    });
    report.set("ranking.subset_s", warm.subset.as_secs_f64());
    for (name, d, _) in &warm.experiments {
        report.set(experiment_metric(name), d.as_secs_f64() * 1e3);
    }
    let _ = std::fs::remove_dir_all(&cache);
}
