//! Per-layer probes of the traced run. Each probe calls one layer's
//! public functions directly, from the benchmark's own code, and records
//! spans or counts at the call boundaries:
//!
//! - [`replay`]: a fixed sample of cells rebuilt from the pieces
//!   `simulate` is made of (`MemorySystem::new`, `Workload::initialize`,
//!   `warm_inst` or `restore_warm` + `replay_warm_events`,
//!   `finish_warmup`, and a loop of `begin_cycle_into` /
//!   `OoOCore::cycle`), cross-checked against `run_one`;
//! - [`disk_codec`]: `DiskCache::store` / `load` and `RunResult::decode`;
//! - [`plans`]: `SamplingPlan::profile` (BBV + k-means);
//! - [`campaign`] and [`store`]: ratios over a workload's own campaign
//!   cells and artifact-store counters.

use crate::common::{median, quantile, ratio, Report, Spans, SIM_SEED};
use microlib::cpu::OoOCore;
use microlib::mech::MechanismKind;
use microlib::mem::{capture_warm_state, MemorySystem, WarmState};
use microlib::model::{Decoder, Encoder, SystemConfig};
use microlib::trace::{benchmarks, SamplingPlan, TraceBuffer, TraceWindow, Workload};
use microlib::{run_one, ArtifactStoreStats, DiskCache, RunResult, SimOptions};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Memory-bound benchmarks of the replay sample (CPI 5.6–13.5).
const MEMBOUND: [&str; 4] = ["mcf", "equake", "ammp", "twolf"];
/// High-IPC benchmarks of the replay sample.
const HIGHIPC: [&str; 3] = ["eon", "bzip2", "wupwise"];
/// Mechanisms of the replay sample: the baseline, a sidecar cache that
/// warms on the exact path, and four that restore a shared checkpoint.
const MECHANISMS: [MechanismKind; 6] = [
    MechanismKind::Base,
    MechanismKind::Vc,
    MechanismKind::Sp,
    MechanismKind::Dbcp,
    MechanismKind::Tk,
    MechanismKind::Ghb,
];
/// The replay window: long enough that the detailed loop dominates.
const REPLAY_WINDOW: TraceWindow = TraceWindow {
    skip: 20_000,
    simulate: 20_000,
};

/// Time split of one detailed loop.
#[derive(Default)]
struct Loop {
    committed: u64,
    cycles: u64,
    total: Duration,
    begin_cycle: Duration,
    core_cycle: Duration,
    calls: u64,
}

/// Builds a warmed memory system for one cell the way `simulate` does
/// over a shared trace: restore + replay for mechanisms that warm from
/// events, the exact functional warm otherwise. Returns the system and
/// the stream positioned at the window start.
fn warmed(
    spans: &mut Spans,
    cell: usize,
    config: &Arc<SystemConfig>,
    kind: MechanismKind,
    workload: &Workload,
    buffer: &Arc<TraceBuffer>,
    warm: &WarmState,
) -> (MemorySystem, microlib::trace::InstStream) {
    let mech = kind.build();
    let events_only = mech.warm_events_only();
    let mut mem = spans.time("mem.new", Some(cell), || {
        MemorySystem::new(Arc::clone(config), vec![mech]).expect("baseline configuration is valid")
    });
    mem.set_check_values(true);
    let mut stream = TraceBuffer::replay(buffer);
    let skip = REPLAY_WINDOW.skip;
    if events_only {
        spans.time("mem.warm_restore", Some(cell), || {
            mem.restore_warm(&warm.checkpoint);
            mem.replay_warm_events(&warm.log);
        });
        stream.advance_to(skip);
    } else {
        spans.time("workload.initialize", Some(cell), || {
            workload.initialize(mem.functional_mut());
        });
        spans.time("mem.warm", Some(cell), || {
            for inst in stream.by_ref().take(skip as usize) {
                mem.warm_inst(inst.pc, inst.warm_mem_ref());
            }
        });
    }
    (mem, stream)
}

/// One detailed loop, exactly `simulate`'s; with `timed`, every
/// `begin_cycle_into` and `OoOCore::cycle` call is timed.
fn detailed(
    config: &SystemConfig,
    mut mem: MemorySystem,
    mut stream: microlib::trace::InstStream,
    timed: bool,
) -> Result<Loop, String> {
    let opts = SimOptions {
        window: REPLAY_WINDOW,
        ..SimOptions::default()
    };
    let started = Instant::now();
    let start = mem.finish_warmup();
    let mut core = OoOCore::new(config.core);
    let mut trace = stream.by_ref().take(REPLAY_WINDOW.simulate as usize);
    let budget = opts.cycle_budget() + start.raw();
    let mut now = start;
    let mut completions = Vec::new();
    let mut out = Loop::default();
    loop {
        if timed {
            let t0 = Instant::now();
            mem.begin_cycle_into(now, &mut completions);
            let t1 = Instant::now();
            core.cycle(now, &completions, &mut mem, &mut trace);
            let t2 = Instant::now();
            out.begin_cycle += t1 - t0;
            out.core_cycle += t2 - t1;
            out.calls += 1;
        } else {
            mem.begin_cycle_into(now, &mut completions);
            core.cycle(now, &completions, &mut mem, &mut trace);
        }
        if let Some(error) = mem.integrity_error() {
            return Err(error.to_string());
        }
        if core.drained() {
            break;
        }
        if now.raw() >= budget {
            return Err(format!("exceeded {budget}-cycle budget"));
        }
        now += 1;
    }
    out.total = started.elapsed();
    out.committed = core.stats().committed;
    out.cycles = core.stats().cycles;
    Ok(out)
}

/// Replays the fixed cell sample, cross-checks every cell against the
/// cold `run_one` path (instructions and cycles must match exactly), and
/// records the trace, warm and detailed-loop metrics plus the tracing
/// overhead (the timed loop minus the untimed one). Returns the cold
/// results for the codec probe.
pub fn replay(report: &mut Report, spans: &mut Spans) -> Vec<RunResult> {
    let config = Arc::new(SystemConfig::baseline());
    let opts = SimOptions {
        window: REPLAY_WINDOW,
        seed: SIM_SEED,
        ..SimOptions::default()
    };
    let (mut capture, mut captured) = (Duration::ZERO, 0u64);
    let (mut replay_time, mut replayed) = (Duration::ZERO, 0u64);
    let mut cell_time: Vec<(MechanismKind, Duration)> = Vec::new();
    let (mut untimed, mut timed) = (Loop::default(), Loop::default());
    let mut by_class = [(Duration::ZERO, 0u64); 2];
    let mut cells_total = Duration::ZERO;
    let mut results = Vec::new();
    for (class, names) in [&MEMBOUND[..], &HIGHIPC[..]].into_iter().enumerate() {
        for &name in names {
            let profile = benchmarks::by_name(name).expect("registered benchmark");
            let workload = Workload::new(profile, SIM_SEED);
            let t = Instant::now();
            let buffer = Arc::new(spans.time("trace.capture", None, || {
                TraceBuffer::capture(&workload, REPLAY_WINDOW.end())
            }));
            capture += t.elapsed();
            captured += buffer.len();
            let t = Instant::now();
            let mut n = 0u64;
            for inst in TraceBuffer::replay(&buffer) {
                black_box(inst);
                n += 1;
            }
            replay_time += t.elapsed();
            replayed += n;
            let warm = spans.time("mem.warm_capture", None, || {
                let insts = TraceBuffer::replay(&buffer)
                    .take(REPLAY_WINDOW.skip as usize)
                    .map(|inst| (inst.pc, inst.warm_mem_ref()));
                capture_warm_state(Arc::clone(&config), |fm| workload.initialize(fm), insts)
                    .expect("baseline configuration is valid")
            });
            for kind in MECHANISMS {
                let expected = run_one(&config, kind, name, &opts);
                // Timed pass (per-call spans), then the untimed pass the
                // loop and cell metrics come from.
                let cell = spans.open("cell.timed", None);
                let (mem, stream) = warmed(spans, cell, &config, kind, &workload, &buffer, &warm);
                let traced = spans.time("detailed", Some(cell), || {
                    detailed(&config, mem, stream, true)
                });
                spans.close(cell);
                let started = Instant::now();
                let cell = spans.open("cell", None);
                let (mem, stream) = warmed(spans, cell, &config, kind, &workload, &buffer, &warm);
                let plain = spans.time("detailed", Some(cell), || {
                    detailed(&config, mem, stream, false)
                });
                spans.close(cell);
                let elapsed = started.elapsed();
                let want = expected
                    .as_ref()
                    .map(|r| (r.perf.instructions, r.perf.cycles))
                    .map_err(ToString::to_string);
                let counts = |l: &Result<Loop, String>| {
                    l.as_ref()
                        .map(|l| (l.committed, l.cycles))
                        .map_err(Clone::clone)
                };
                let (a, b) = (counts(&traced), counts(&plain));
                report.check(want.is_ok() && a == want && b == want, || {
                    format!("replay {name} x {kind}: run_one {want:?}, timed replay {a:?}, replay {b:?}")
                });
                if let (Ok(a), Ok(b)) = (traced, plain) {
                    timed.total += a.total;
                    timed.begin_cycle += a.begin_cycle;
                    timed.core_cycle += a.core_cycle;
                    timed.calls += a.calls;
                    untimed.total += b.total;
                    untimed.cycles += b.cycles;
                    by_class[class].0 += b.total;
                    by_class[class].1 += b.cycles;
                }
                cells_total += elapsed;
                cell_time.push((kind, elapsed));
                if let Ok(r) = expected {
                    results.push(r);
                }
            }
        }
    }
    let ns = |d: Duration| d.as_nanos() as f64;
    let self_time = spans.self_time();
    let totals = spans.totals();
    let span_ns = |name: &str| self_time.get(name).copied().unwrap_or(0) as f64;
    report.set(
        "trace.capture_ns_per_inst",
        ratio(ns(capture), captured as f64),
    );
    report.set(
        "trace.replay_ns_per_inst",
        ratio(ns(replay_time), replayed as f64),
    );
    let (_, warms) = totals.get("mem.warm").copied().unwrap_or((0, 0));
    report.set(
        "mem.warm_ns_per_inst",
        ratio(span_ns("mem.warm"), (warms * REPLAY_WINDOW.skip) as f64),
    );
    let (restore_ns, restores) = totals.get("mem.warm_restore").copied().unwrap_or((0, 0));
    report.set(
        "mem.warm_restore_us",
        ratio(restore_ns as f64, restores as f64) / 1e3,
    );
    report.set(
        "mem.begin_cycle_ns",
        ratio(ns(timed.begin_cycle), timed.calls as f64),
    );
    report.set(
        "cpu.cycle_ns",
        ratio(ns(timed.core_cycle), timed.calls as f64),
    );
    report.set(
        "detailed.ns_per_cycle",
        ratio(ns(untimed.total), untimed.cycles as f64),
    );
    report.set(
        "detailed.ns_per_cycle.membound",
        ratio(ns(by_class[0].0), by_class[0].1 as f64),
    );
    report.set(
        "detailed.ns_per_cycle.highipc",
        ratio(ns(by_class[1].0), by_class[1].1 as f64),
    );
    report.set("detailed.share", ratio(ns(untimed.total), ns(cells_total)));
    let per_mech = |kind: MechanismKind| -> f64 {
        cell_time
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, d)| ns(*d))
            .sum()
    };
    let base = per_mech(MechanismKind::Base);
    let worst = MECHANISMS[1..]
        .iter()
        .map(|&k| ratio(per_mech(k), base))
        .fold(0.0, f64::max);
    report.set("mech.cell_time_ratio", worst);
    let overhead = ns(timed.total) - ns(untimed.total);
    report.set("tracing.overhead_ms", overhead / 1e6);
    report.set("tracing.overhead_frac", ratio(overhead, ns(untimed.total)));
    report.set("replay.cells_checked", cell_time.len() as f64);
    results
}

/// Times the disk tier and the result codec on real cell results: one
/// memo entry stored and loaded per result, and many decodes.
pub fn disk_codec(report: &mut Report, dir: &Path, results: &[RunResult]) {
    let disk = DiskCache::new(dir);
    let payloads: Vec<Vec<u8>> = results
        .iter()
        .map(|r| {
            let mut e = Encoder::new();
            r.encode(&mut e);
            e.into_bytes()
        })
        .collect();
    let (mut stores, mut loads) = (Vec::new(), Vec::new());
    for round in 0..3 {
        for (i, payload) in payloads.iter().enumerate() {
            let key = format!("probe|{round}|{i}");
            let t = Instant::now();
            disk.store("memo", &key, payload);
            stores.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let loaded = disk.load("memo", &key);
            loads.push(t.elapsed().as_secs_f64() * 1e6);
            report.check(loaded.as_deref() == Some(payload.as_slice()), || {
                format!("disk entry {key} did not round-trip")
            });
        }
    }
    report.set("disk.store_us", median(&stores));
    report.set("disk.load_us", median(&loads));
    let rounds = 200;
    let t = Instant::now();
    for _ in 0..rounds {
        for payload in &payloads {
            let decoded = RunResult::decode(&mut Decoder::new(black_box(payload)));
            black_box(decoded.is_ok());
        }
    }
    let decodes = (rounds * payloads.len()) as f64;
    report.set(
        "codec.run_result_decode_ns",
        ratio(t.elapsed().as_nanos() as f64, decodes),
    );
    for (original, payload) in results.iter().zip(&payloads) {
        let decoded = RunResult::decode(&mut Decoder::new(payload));
        report.check(
            decoded.is_ok_and(|d| d.perf == original.perf && d.l2 == original.l2),
            || {
                format!(
                    "{} x {} did not decode",
                    original.benchmark, original.mechanism
                )
            },
        );
    }
}

/// Times sampling-plan construction (BBV profile + k-means) for a few
/// benchmarks over `region`.
pub fn plans(report: &mut Report, region: TraceWindow, interval: u64, max_clusters: usize) {
    let mut times = Vec::new();
    for name in ["gcc", "mcf", "swim", "bzip2"] {
        let profile = benchmarks::by_name(name).expect("registered benchmark");
        let buffer = Arc::new(TraceBuffer::capture(
            &Workload::new(profile, SIM_SEED),
            region.end(),
        ));
        let t = Instant::now();
        let plan = SamplingPlan::profile(
            TraceBuffer::replay(&buffer),
            region,
            interval,
            max_clusters,
            SIM_SEED,
        );
        times.push(t.elapsed().as_secs_f64() * 1e3);
        report.check(!plan.points().is_empty(), || {
            format!("empty plan for {name}")
        });
    }
    report.set("sampling.plan_ms", median(&times));
}

/// Campaign-engine metrics over a workload's cells: per-cell time
/// quantiles and how busy the workers were over `wall`.
pub fn campaign(report: &mut Report, cell_ms: &[f64], wall: Duration, threads: usize) {
    report.set("campaign.cell_ms_p50", quantile(cell_ms, 0.5));
    report.set("campaign.cell_ms_p99", quantile(cell_ms, 0.99));
    let busy: f64 = cell_ms.iter().sum::<f64>() / 1e3;
    report.set(
        "campaign.busy_frac",
        ratio(busy, wall.as_secs_f64() * threads as f64),
    );
}

/// Artifact-store hit ratios and counts of a workload's store.
pub fn store(report: &mut Report, s: &ArtifactStoreStats) {
    let f = |v: u64| v as f64;
    report.set(
        "trace.hit_ratio",
        ratio(f(s.trace_hits), f(s.trace_hits + s.trace_misses)),
    );
    let plan_hits = s.plan_hits + s.plan_disk_hits;
    report.set(
        "sampling.plan_hit_ratio",
        ratio(f(plan_hits), f(plan_hits + s.plan_misses)),
    );
    let memo_hits = s.memo_hits + s.memo_disk_hits;
    report.set(
        "artifacts.memo_hit_ratio",
        ratio(f(memo_hits), f(memo_hits + s.memo_misses)),
    );
    let warm_hits = s.warm_hits + s.warm_disk_hits;
    report.set(
        "artifacts.warm_hit_ratio",
        ratio(f(warm_hits), f(warm_hits + s.warm_misses + s.warm_declined)),
    );
    report.set("artifacts.coalesced", f(s.memo_coalesced));
    report.set("artifacts.warm_evictions", f(s.warm_evictions));
}
