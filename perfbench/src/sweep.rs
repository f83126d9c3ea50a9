//! `sweep_cold`: the 26 × 13 study grid, every cell fully simulated,
//! through the campaign engine over a fresh store and an empty disk
//! cache, repeated until the run's time is spent.

use crate::common::{
    dir_bytes, fnv1a, median, peak_rss_mb, quantile, secs, Args, Report, Rng, Spans, WorkDir,
    SIM_SEED, THREADS,
};
use crate::{battery, layers, serve};
use microlib::mech::MechanismKind;
use microlib::trace::{benchmarks, TraceWindow};
use microlib::{run_one, ArtifactStore, ArtifactStoreStats, Campaign, ExperimentConfig, RunResult};
use microlib::{SamplingMode, SimOptions};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The sweep's window: the detailed loop dominates every cell.
fn window() -> TraceWindow {
    TraceWindow::new(20_000, 20_000)
}

/// Digest of the whole grid (see [`digest`]) at [`SIM_SEED`], pinned from
/// a run of this code: any change to a simulated statistic of any cell
/// changes it.
const PINNED_DIGEST: u64 = 0x703e_e345_6f23_b2e3;

/// The reference sample recomputed on the cold `run_one` path: one cell
/// per benchmark, the mechanisms taken in turn.
fn sample() -> Vec<(&'static str, MechanismKind)> {
    let study = MechanismKind::study_set();
    benchmarks::NAMES
        .iter()
        .enumerate()
        .map(|(i, &b)| (b, study[i % study.len()]))
        .collect()
}

/// The simulated statistics of one cell, as one line.
fn cell_line(r: &RunResult) -> String {
    format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{}",
        r.benchmark,
        r.mechanism,
        r.perf.instructions,
        r.perf.cycles,
        r.l1d.misses,
        r.l1i.misses,
        r.l2.misses,
        r.memory.requests,
        r.core.fetched
    )
}

/// Order-independent digest of a grid: FNV-1a over its sorted cell lines.
fn digest(results: &[&RunResult]) -> u64 {
    let mut lines: Vec<String> = results.iter().map(|r| cell_line(r)).collect();
    lines.sort();
    fnv1a(lines.join("\n").as_bytes())
}

/// The study grid in the order of the seed's `rep`-th repetition:
/// benchmarks and mechanisms are both shuffled, which changes which cells
/// run side by side and which requester of a trace or warm state comes
/// first. Each repetition has its own order, so a run's median is taken
/// over several orders.
fn grid(seed: u64, rep: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_baseline(window());
    let mut rng = Rng::new(seed, &format!("grid-{rep}"));
    rng.shuffle(&mut cfg.benchmarks);
    rng.shuffle(&mut cfg.mechanisms);
    cfg.seed = SIM_SEED;
    cfg.threads = THREADS;
    cfg.sampling = SamplingMode::Full;
    cfg
}

/// One repetition of the measured phase.
struct Rep {
    wall: Duration,
    cell_ms: Vec<f64>,
    instructions: u64,
    bytes_written: u64,
    stats: ArtifactStoreStats,
}

pub fn run(args: &Args, work: &WorkDir) -> Report {
    let mut report = Report::default();
    let cfg = grid(args.seed, 0);
    let opts = SimOptions {
        seed: SIM_SEED,
        window: window(),
        sampling: SamplingMode::Full,
        ..SimOptions::default()
    };

    // Set-up: the reference sample on the cold path, three times (the
    // repeats must agree exactly).
    let sample = sample();
    let mut setups = Vec::new();
    let mut reference: Option<Vec<String>> = None;
    for _ in 0..3 {
        let t = Instant::now();
        let lines: Vec<String> = sample
            .iter()
            .map(|&(b, m)| match run_one(&cfg.system, m, b, &opts) {
                Ok(r) => cell_line(&r),
                Err(e) => format!("{b}|{m}|error: {e}"),
            })
            .collect();
        setups.push(secs(t));
        match &reference {
            None => reference = Some(lines),
            Some(first) => report.check(*first == lines, || {
                "cold reference sample differs between repeats".to_owned()
            }),
        }
    }
    let reference = reference.expect("three set-up passes ran");
    for line in &reference {
        report.check(!line.contains("error"), || {
            format!("reference cell failed: {line}")
        });
    }

    // Measured phase: whole sweeps until the time is spent.
    let phase = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut first_digest = None;
    let mut peak_rss = 0.0;
    while reps.is_empty()
        || secs(phase) + reps.last().map_or(0.0, |r| r.wall.as_secs_f64()) <= args.seconds
    {
        let dir = work.fresh("sweep");
        let store = Arc::new(ArtifactStore::new().with_disk_cache(&dir));
        let campaign = Campaign::new(grid(args.seed, reps.len())).with_store(Arc::clone(&store));
        let t = Instant::now();
        let outcome = campaign.run();
        let wall = t.elapsed();
        let bytes_written = dir_bytes(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        let Ok(cells) = outcome else {
            report.check(false, || "campaign configuration rejected".to_owned());
            break;
        };
        let mut ok: Vec<&RunResult> = Vec::new();
        for cell in cells.cells() {
            report.check(cell.outcome.is_ok(), || {
                format!("{} x {} failed", cell.benchmark, cell.mechanism)
            });
            if let Ok(r) = &cell.outcome {
                ok.push(r);
            }
        }
        for (line, &(b, m)) in reference.iter().zip(&sample) {
            let got = ok
                .iter()
                .find(|r| r.benchmark == b && r.mechanism == m)
                .map(|r| cell_line(r));
            report.check(got.as_deref() == Some(line.as_str()), || {
                format!("{b} x {m}: sweep {got:?} vs cold run_one {line}")
            });
        }
        let d = digest(&ok);
        report.check(*first_digest.get_or_insert(d) == d, || {
            format!("grid digest {d:#x} differs between repetitions")
        });
        if reps.is_empty() {
            // The process's peak after exactly one sweep: later
            // repetitions only add allocator fragmentation.
            peak_rss = peak_rss_mb();
            eprintln!("sweep_cold: grid digest at seed {SIM_SEED:#x}: {d:#x}");
            report.check(d == PINNED_DIGEST, || {
                format!("grid digest {d:#x} != pinned {PINNED_DIGEST:#x}")
            });
        }
        reps.push(Rep {
            wall,
            cell_ms: cells
                .cells()
                .iter()
                .map(|c| c.elapsed.as_secs_f64() * 1e3)
                .collect(),
            instructions: ok.iter().map(|r| r.perf.instructions).sum(),
            bytes_written,
            stats: store.stats(),
        });
    }
    eprintln!(
        "sweep_cold: {} sweeps, walls {:?}",
        reps.len(),
        reps.iter().map(|r| r.wall).collect::<Vec<_>>()
    );

    let walls: Vec<f64> = reps.iter().map(|r| r.wall.as_secs_f64()).collect();
    let cells = cfg.benchmarks.len() * cfg.mechanisms.len();
    let cell_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.cell_ms.iter().copied())
        .collect();
    report.set("wall_s", median(&walls));
    let cells_per_s: Vec<f64> = walls.iter().map(|w| cells as f64 / w).collect();
    report.set("cells_per_s", median(&cells_per_s));
    report.set("queries_per_s", median(&cells_per_s));
    let minsts: Vec<f64> = reps
        .iter()
        .map(|r| r.instructions as f64 / 1e6 / r.wall.as_secs_f64())
        .collect();
    report.set("sim_minsts_per_s", median(&minsts));
    // Pooled over every repetition: a p99 of one sweep's 338 cells rests
    // on three samples, and its median over repetitions spread 13% from
    // seed to seed.
    report.set("latency_p50_ms", quantile(&cell_ms, 0.5));
    report.set("latency_p99_ms", quantile(&cell_ms, 0.99));
    report.set("latency.samples", cell_ms.len() as f64);
    report.set("setup_s", median(&setups));

    if args.trace {
        let total: Duration = reps.iter().map(|r| r.wall).sum();
        layers::campaign(&mut report, &cell_ms, total, THREADS);
        // Every repetition runs the same grid over a fresh store.
        let last = reps.last().expect("at least one repetition ran");
        layers::store(&mut report, &last.stats);
        let written: Vec<f64> = reps.iter().map(|r| r.bytes_written as f64).collect();
        report.set("disk.mb_written", median(&written) / (1 << 20) as f64);
        let mut spans = Spans::default();
        let results = layers::replay(&mut report, &mut spans);
        layers::disk_codec(&mut report, &work.fresh("codec"), &results);
        plan_probe(&mut report);
        battery::probe(&mut report, work);
        serve::probe(&mut report, work, args.seed);
        spans.write_to(&work.spans_path());
    }
    report.set("peak_rss_mb", peak_rss);
    report
}

/// Times sampling-plan construction for SimPoint-sampled cells over a
/// 20k/100k window: 20 intervals of 5k instructions, at most three
/// clusters.
pub fn plan_probe(report: &mut Report) {
    layers::plans(report, TraceWindow::new(20_000, 100_000), 5_000, 3);
}
