//! Golden stat fingerprints for the detailed core: every study mechanism
//! on several seeds, pinned down to the full counter vectors — cycles,
//! committed/fetched, every core stall counter, cache and mechanism
//! counters — not just final CPI. The flattened SoA core (arena window,
//! bitset wakeup, batched loads) must reproduce these digests exactly;
//! any scheduling or accounting drift shows up as a readable field diff.
//!
//! To re-record after an *intentional* behaviour change, run
//! `cargo test --test bit_exactness -- --nocapture` with
//! `MICROLIB_RECORD_FINGERPRINTS=1` and paste the printed table.

use microlib::{run_one, RunResult, SamplingMode, SimOptions};
use microlib_mech::MechanismKind;
use microlib_mem::{capture_warm_state, FunctionalMemory, MemorySystem, WarmLog, WarmState};
use microlib_model::{Encoder, SystemConfig};
use microlib_trace::{benchmarks, SamplingPlan, TraceWindow, Workload};

const SEEDS: [u64; 3] = [1, 2, 0xC0FFEE];

/// Compact, field-labelled digest of every scheduling-sensitive counter.
fn digest(r: &RunResult) -> String {
    let c = &r.core;
    let d = &r.l1d;
    let i = &r.l1i;
    let l2 = &r.l2;
    let m = &r.memory;
    let mech = r.mech_l1.or(r.mech_l2).unwrap_or_default();
    format!(
        "cyc={} com={} fet={} stalls=[{},{},{},{},{},{},{}] \
         l1d=[{},{},{},{},{},{},{},{},{},{},{},{},{}] l1i=[{},{}] \
         l2=[{},{},{},{}] mem=[{},{}] mech=[{},{},{},{},{},{},{}]",
        c.cycles,
        c.committed,
        c.fetched,
        c.mispredict_stall_cycles,
        c.icache_stall_cycles,
        c.loads_forwarded,
        c.cache_reject_stalls,
        c.window_full_stalls,
        c.lsq_full_stalls,
        c.store_commit_stalls,
        d.loads,
        d.stores,
        d.misses,
        d.sidecar_hits,
        d.mshr_merges,
        d.mshr_full_stalls,
        d.pipeline_stalls,
        d.port_stalls,
        d.demand_fills,
        d.prefetch_fills,
        d.useful_prefetches,
        d.writebacks,
        d.useless_prefetch_evictions,
        i.loads,
        i.misses,
        l2.loads,
        l2.stores,
        l2.misses,
        l2.writebacks,
        m.requests,
        m.total_latency,
        mech.table_reads,
        mech.table_writes,
        mech.prefetches_requested,
        mech.prefetches_useful,
        mech.sidecar_hits,
        mech.sidecar_misses,
        mech.victims_captured,
    )
}

fn run(kind: MechanismKind, seed: u64) -> RunResult {
    let opts = SimOptions {
        seed,
        window: TraceWindow::new(500, 800),
        ..SimOptions::default()
    };
    run_one(&SystemConfig::baseline(), kind, "swim", &opts).expect("run succeeds")
}

/// Recorded digests: (mechanism, seed, digest). Every study mechanism ×
/// every seed in [`SEEDS`].
const GOLDEN: &[(&str, u64, &str)] = &[
    ("Base", 1, "cyc=1744 com=800 fet=800 stalls=[0,1060,17,49,475,0,10] l1d=[224,124,69,0,66,45,13,1,69,0,0,36,0] l1i=[125,24] l2=[82,11,43,36] mem=[45,4341] mech=[0,0,0,0,0,0,0]"),
    ("Base", 2, "cyc=1388 com=800 fet=800 stalls=[0,563,8,76,529,0,3] l1d=[222,120,97,0,70,52,26,1,97,0,0,44,0] l1i=[121,12] l2=[87,22,30,44] mem=[30,2450] mech=[0,0,0,0,0,0,0]"),
    ("Base", 12648430, "cyc=1720 com=800 fet=800 stalls=[0,1284,5,28,150,0,0] l1d=[224,113,52,0,59,10,15,3,51,0,0,28,0] l1i=[123,21] l2=[67,5,40,28] mem=[40,3317] mech=[0,0,0,0,0,0,0]"),
    ("Tp", 1, "cyc=1916 com=800 fet=800 stalls=[0,1173,16,58,554,0,25] l1d=[225,124,69,0,64,65,15,3,68,0,0,35,0] l1i=[125,25] l2=[84,10,32,35] mem=[76,8468] mech=[0,0,102,4,0,0,0]"),
    ("Tp", 2, "cyc=1292 com=800 fet=800 stalls=[0,523,7,73,588,0,3] l1d=[223,120,102,0,71,45,28,3,100,0,0,44,0] l1i=[121,12] l2=[85,28,24,44] mem=[50,4218] mech=[0,0,101,5,0,0,0]"),
    ("Tp", 12648430, "cyc=1636 com=800 fet=800 stalls=[0,1221,5,20,131,0,0] l1d=[224,113,52,0,57,3,15,2,51,0,0,28,0] l1i=[123,21] l2=[67,5,26,28] mem=[64,5920] mech=[0,0,98,6,0,0,0]"),
    ("Vc", 1, "cyc=1734 com=800 fet=800 stalls=[0,1038,16,11,498,0,0] l1d=[225,124,47,28,47,2,8,1,47,0,0,0,0] l1i=[125,24] l2=[68,3,43,21] mem=[45,4301] mech=[180,84,0,0,40,140,84]"),
    ("Vc", 2, "cyc=1303 com=800 fet=800 stalls=[0,495,7,16,501,0,0] l1d=[223,120,42,69,30,1,12,3,42,0,0,0,0] l1i=[121,12] l2=[52,2,30,24] mem=[30,2668] mech=[203,129,0,0,80,123,129]"),
    ("Vc", 12648430, "cyc=1710 com=800 fet=800 stalls=[0,1274,5,16,150,0,0] l1d=[224,113,43,11,51,1,12,3,42,0,0,0,0] l1i=[123,21] l2=[60,3,40,22] mem=[40,3362] mech=[153,54,0,0,15,138,54]"),
    ("Sp", 1, "cyc=1678 com=800 fet=800 stalls=[0,1060,17,49,475,0,10] l1d=[224,124,69,0,66,45,13,1,68,0,0,35,0] l1i=[125,24] l2=[82,11,42,35] mem=[45,4280] mech=[188,188,4,1,0,0,0]"),
    ("Sp", 2, "cyc=1388 com=800 fet=800 stalls=[0,563,8,76,529,0,3] l1d=[222,120,97,0,70,52,26,1,97,0,0,44,0] l1i=[121,12] l2=[87,22,30,44] mem=[31,2540] mech=[220,220,2,0,0,0,0]"),
    ("Sp", 12648430, "cyc=1602 com=800 fet=800 stalls=[0,1189,5,22,187,0,0] l1d=[224,113,52,0,59,4,16,2,51,0,0,28,0] l1i=[123,21] l2=[67,5,38,28] mem=[40,3218] mech=[156,156,2,2,0,0,0]"),
    ("Markov", 1, "cyc=1734 com=800 fet=800 stalls=[0,1062,16,46,468,0,10] l1d=[225,124,63,6,59,41,14,1,63,19,0,36,0] l1i=[125,24] l2=[98,9,43,36] mem=[45,4354] mech=[628,124,137,6,6,219,0]"),
    ("Markov", 2, "cyc=1378 com=800 fet=800 stalls=[0,577,7,48,490,0,0] l1d=[223,120,79,22,60,28,18,2,79,45,0,47,0] l1i=[121,12] l2=[124,16,30,47] mem=[30,2377] mech=[885,161,266,22,22,228,0]"),
    ("Markov", 12648430, "cyc=1721 com=800 fet=800 stalls=[0,1285,5,27,150,0,0] l1d=[224,113,52,0,59,10,15,2,51,4,0,28,0] l1i=[123,21] l2=[71,5,40,28] mem=[40,3307] mech=[429,98,49,0,0,168,0]"),
    ("Fvc", 1, "cyc=1744 com=800 fet=800 stalls=[0,1060,17,49,475,0,10] l1d=[224,124,69,0,66,45,13,1,69,0,0,35,0] l1i=[125,24] l2=[82,11,43,35] mem=[45,4341] mech=[236,1,0,0,0,236,1]"),
    ("Fvc", 2, "cyc=1388 com=800 fet=800 stalls=[0,563,8,75,529,0,3] l1d=[222,120,96,2,70,51,26,1,96,0,0,44,0] l1i=[121,12] l2=[86,22,30,44] mem=[30,2450] mech=[280,4,0,0,2,278,4]"),
    ("Fvc", 12648430, "cyc=1720 com=800 fet=800 stalls=[0,1284,5,26,150,0,0] l1d=[224,113,51,3,57,9,14,3,50,0,0,29,0] l1i=[123,21] l2=[65,6,40,29] mem=[40,3317] mech=[167,3,0,0,3,164,3]"),
    ("Dbcp", 1, "cyc=1744 com=800 fet=800 stalls=[0,1060,17,49,475,0,10] l1d=[224,124,69,0,66,45,13,1,69,0,0,36,0] l1i=[125,24] l2=[82,11,43,36] mem=[45,4341] mech=[376,79,1,0,0,0,0]"),
    ("Dbcp", 2, "cyc=1388 com=800 fet=800 stalls=[0,563,8,76,529,0,3] l1d=[222,120,97,0,70,52,26,1,97,0,0,44,0] l1i=[121,12] l2=[87,22,30,44] mem=[30,2450] mech=[337,115,0,0,0,0,0]"),
    ("Dbcp", 12648430, "cyc=1720 com=800 fet=800 stalls=[0,1284,5,28,150,0,0] l1d=[224,113,52,0,59,10,15,3,51,0,0,28,0] l1i=[123,21] l2=[67,5,40,28] mem=[40,3317] mech=[408,52,0,0,0,0,0]"),
    ("Tkvc", 1, "cyc=1721 com=800 fet=800 stalls=[0,1056,16,15,462,0,0] l1d=[225,124,60,11,55,3,11,1,59,0,0,18,0] l1i=[125,24] l2=[78,6,43,18] mem=[45,4228] mech=[265,24,0,0,15,170,31]"),
    ("Tkvc", 2, "cyc=1311 com=800 fet=800 stalls=[0,520,7,26,485,0,1] l1d=[223,120,61,48,44,5,20,2,61,0,0,6,0] l1i=[121,12] l2=[68,5,30,16] mem=[30,2655] mech=[346,29,0,0,54,165,80]"),
    ("Tkvc", 12648430, "cyc=1710 com=800 fet=800 stalls=[0,1274,5,28,150,0,0] l1d=[224,113,50,2,57,10,15,3,49,0,0,19,0] l1i=[123,21] l2=[66,4,40,19] mem=[40,3358] mech=[218,11,0,0,2,164,12]"),
    ("Tk", 1, "cyc=1744 com=800 fet=800 stalls=[0,1060,17,49,475,0,10] l1d=[224,124,69,0,66,45,13,1,69,0,0,36,0] l1i=[125,24] l2=[82,11,43,36] mem=[45,4341] mech=[15,79,0,0,0,0,0]"),
    ("Tk", 2, "cyc=1388 com=800 fet=800 stalls=[0,563,8,76,529,0,3] l1d=[222,120,97,0,70,52,26,1,97,0,0,44,0] l1i=[121,12] l2=[87,22,30,44] mem=[30,2450] mech=[14,115,0,0,0,0,0]"),
    ("Tk", 12648430, "cyc=1720 com=800 fet=800 stalls=[0,1284,5,28,150,0,0] l1d=[224,113,52,0,59,10,15,3,51,0,0,28,0] l1i=[123,21] l2=[67,5,40,28] mem=[40,3317] mech=[14,52,0,0,0,0,0]"),
    ("Cdp", 1, "cyc=1744 com=800 fet=800 stalls=[0,1060,17,49,475,0,10] l1d=[224,124,69,0,66,45,13,1,69,0,0,36,0] l1i=[125,24] l2=[82,11,43,36] mem=[45,4341] mech=[97,0,0,0,0,0,0]"),
    ("Cdp", 2, "cyc=1388 com=800 fet=800 stalls=[0,563,8,76,529,0,3] l1d=[222,120,97,0,70,52,26,1,97,0,0,44,0] l1i=[121,12] l2=[87,22,30,44] mem=[30,2450] mech=[97,0,0,0,0,0,0]"),
    ("Cdp", 12648430, "cyc=1720 com=800 fet=800 stalls=[0,1284,5,28,150,0,0] l1d=[224,113,52,0,59,10,15,3,51,0,0,28,0] l1i=[123,21] l2=[67,5,40,28] mem=[40,3317] mech=[93,0,0,0,0,0,0]"),
    ("CdpSp", 1, "cyc=1678 com=800 fet=800 stalls=[0,1060,17,49,475,0,10] l1d=[224,124,69,0,66,45,13,1,68,0,0,35,0] l1i=[125,24] l2=[82,11,42,35] mem=[45,4280] mech=[285,188,4,2,0,0,0]"),
    ("CdpSp", 2, "cyc=1388 com=800 fet=800 stalls=[0,563,8,76,529,0,3] l1d=[222,120,97,0,70,52,26,1,97,0,0,44,0] l1i=[121,12] l2=[87,22,30,44] mem=[31,2540] mech=[318,220,2,0,0,0,0]"),
    ("CdpSp", 12648430, "cyc=1602 com=800 fet=800 stalls=[0,1189,5,22,187,0,0] l1d=[224,113,52,0,59,4,16,2,51,0,0,28,0] l1i=[123,21] l2=[67,5,38,28] mem=[40,3218] mech=[249,156,2,4,0,0,0]"),
    ("Tcp", 1, "cyc=1744 com=800 fet=800 stalls=[0,1060,17,49,475,0,10] l1d=[224,124,69,0,66,45,13,1,69,0,0,36,0] l1i=[125,24] l2=[82,11,43,36] mem=[45,4341] mech=[102,31,0,0,0,0,0]"),
    ("Tcp", 2, "cyc=1388 com=800 fet=800 stalls=[0,563,8,76,529,0,3] l1d=[222,120,97,0,70,52,26,1,97,0,0,44,0] l1i=[121,12] l2=[87,22,30,44] mem=[30,2450] mech=[103,33,0,0,0,0,0]"),
    ("Tcp", 12648430, "cyc=1720 com=800 fet=800 stalls=[0,1284,5,28,150,0,0] l1d=[224,113,52,0,59,10,15,3,51,0,0,28,0] l1i=[123,21] l2=[67,5,40,28] mem=[40,3317] mech=[99,29,0,0,0,0,0]"),
    ("Ghb", 1, "cyc=1918 com=800 fet=800 stalls=[0,1060,17,49,475,0,10] l1d=[224,124,69,0,66,45,13,1,68,0,0,35,0] l1i=[125,24] l2=[82,11,42,35] mem=[53,5444] mech=[336,376,16,1,0,0,0]"),
    ("Ghb", 2, "cyc=1388 com=800 fet=800 stalls=[0,563,8,77,529,0,3] l1d=[222,120,97,0,70,53,26,1,97,0,0,44,0] l1i=[121,12] l2=[87,22,30,44] mem=[37,3105] mech=[395,440,8,0,0,0,0]"),
    ("Ghb", 12648430, "cyc=1684 com=800 fet=800 stalls=[0,1180,7,29,214,0,0] l1d=[222,113,55,0,59,11,15,3,53,0,0,28,0] l1i=[123,21] l2=[67,8,35,28] mem=[44,4212] mech=[271,318,12,4,0,0,0]"),
];

/// Memory-side digest: the counters the SoA cache/MSHR/SDRAM arenas are
/// responsible for, down to row-buffer behaviour. A layout change that
/// perturbs MSHR slot reuse, bank scheduling order or writeback timing
/// shows up here even when the core-side digest above stays green.
fn mem_digest(r: &RunResult) -> String {
    let d = &r.l1d;
    let i = &r.l1i;
    let l2 = &r.l2;
    let m = &r.memory;
    format!(
        "l1d=[{},{},{},{},{},{}] l1i=[{},{}] l2=[{},{},{},{},{},{}] \
         sdram=[{},{},{},{},{},{}]",
        d.loads,
        d.stores,
        d.misses,
        d.mshr_merges,
        d.mshr_full_stalls,
        d.writebacks,
        i.loads,
        i.misses,
        l2.loads,
        l2.stores,
        l2.misses,
        l2.writebacks,
        l2.demand_fills,
        l2.prefetch_fills,
        m.requests,
        m.total_latency,
        m.row_hits,
        m.precharges,
        m.bus_busy_cycles,
        m.queue_wait_cycles,
    )
}

/// Recorded memory-hierarchy digests: (mechanism, seed, digest) over a
/// window long enough to exercise SDRAM bank scheduling and writebacks.
const MEM_GOLDEN: &[(&str, u64, &str)] = &[
    ("Base", 1, "l1d=[531,294,131,124,177,87] l1i=[309,8] l2=[118,17,42,87,42,0] sdram=[43,4449,13,26,425,910]"),
    ("Base", 2, "l1d=[554,289,156,135,252,79] l1i=[304,7] l2=[131,31,43,79,42,0] sdram=[42,4422,13,25,425,1028]"),
    ("Base", 12648430, "l1d=[561,290,131,151,144,80] l1i=[302,13] l2=[134,10,59,80,59,0] sdram=[60,5770,18,38,595,968]"),
    ("Ghb", 1, "l1d=[531,294,132,125,132,88] l1i=[309,8] l2=[115,21,33,88,34,24] sdram=[59,6136,32,24,590,1318]"),
    ("Ghb", 2, "l1d=[555,289,156,129,217,81] l1i=[304,7] l2=[130,32,30,81,32,30] sdram=[62,8215,37,21,620,1520]"),
    ("Ghb", 12648430, "l1d=[564,290,131,148,67,80] l1i=[302,13] l2=[134,10,50,80,51,23] sdram=[75,8634,34,37,745,1645]"),
];

#[test]
fn memory_hierarchy_stats_match_recorded_golden() {
    let record = std::env::var("MICROLIB_RECORD_FINGERPRINTS").is_ok();
    let mut missing = Vec::new();
    for kind in [MechanismKind::Base, MechanismKind::Ghb] {
        for seed in SEEDS {
            let opts = SimOptions {
                seed,
                window: TraceWindow::new(1_000, 2_000),
                ..SimOptions::default()
            };
            let r = run_one(&SystemConfig::baseline(), kind, "swim", &opts).expect("run succeeds");
            let got = mem_digest(&r);
            let name = format!("{kind:?}");
            if record {
                println!("    (\"{name}\", {seed}, \"{got}\"),");
                continue;
            }
            match MEM_GOLDEN
                .iter()
                .find(|(k, s, _)| *k == name && *s == seed)
                .map(|(_, _, want)| *want)
            {
                Some(want) => assert_eq!(got, want, "{name} seed {seed} drifted"),
                None => missing.push(format!("{name}/{seed}")),
            }
        }
    }
    assert!(
        record || missing.is_empty(),
        "no recorded digest for: {missing:?}"
    );
}

/// Splitting a warm phase at an arbitrary point — capture a [`WarmState`]
/// mid-warm, restore it into a fresh system, warm the rest — must land on
/// a byte-identical checkpoint to warming straight through. This pins the
/// warm fast path (same-line short-circuit) across the restore boundary:
/// the restored system starts with a cold fast-path slot, the uninterrupted
/// one doesn't, and any divergence in array state, functional images,
/// stats or the warm clock shows up in the encoded bytes.
#[test]
fn warm_capture_restore_is_bit_identical() {
    const WARM: usize = 3_000;
    const SPLIT: u64 = 1_500;
    for (bench, seed) in [("swim", 1u64), ("mcf", 2), ("gzip", 0xC0FFEE)] {
        let cfg = SystemConfig::baseline();
        let workload = Workload::new(benchmarks::by_name(bench).unwrap(), seed);

        // Uninterrupted: one system warms the whole prefix.
        let mut direct = MemorySystem::new(cfg.clone(), Vec::new()).unwrap();
        workload.initialize(direct.functional_mut());
        for inst in workload.stream().take(WARM) {
            direct.warm_inst(inst.pc, inst.warm_mem_ref());
        }
        let direct_ckpt = direct.snapshot_warm();

        // Split: capture at SPLIT, restore into a fresh system, finish.
        let state = capture_warm_state(
            cfg.clone(),
            |f| workload.initialize(f),
            workload
                .stream()
                .take(SPLIT as usize)
                .map(|i| (i.pc, i.warm_mem_ref())),
        )
        .unwrap();
        let mut resumed = MemorySystem::new(cfg, Vec::new()).unwrap();
        resumed.restore_warm(&state.checkpoint);
        resumed.replay_warm_events(&state.log);
        let mut stream = workload.stream();
        stream.advance_to(SPLIT);
        for inst in stream.take(WARM - SPLIT as usize) {
            resumed.warm_inst(inst.pc, inst.warm_mem_ref());
        }
        let resumed_ckpt = resumed.snapshot_warm();

        // Byte-level equality via the checkpoint codec (delta against the
        // same freshly initialized image).
        let mut base = FunctionalMemory::new();
        workload.initialize(&mut base);
        let encode = |ckpt| {
            let mut e = Encoder::new();
            WarmState {
                checkpoint: ckpt,
                log: WarmLog::default(),
            }
            .encode(&base, &mut e);
            e.into_bytes()
        };
        assert_eq!(
            encode(direct_ckpt),
            encode(resumed_ckpt),
            "{bench} seed {seed}: split warm diverged from uninterrupted warm"
        );
    }
}

#[test]
fn study_set_stats_match_recorded_golden() {
    let record = std::env::var("MICROLIB_RECORD_FINGERPRINTS").is_ok();
    let mut missing = Vec::new();
    for kind in MechanismKind::study_set() {
        for seed in SEEDS {
            let got = digest(&run(kind, seed));
            let name = format!("{kind:?}");
            if record {
                println!("    (\"{name}\", {seed}, \"{got}\"),");
                continue;
            }
            match GOLDEN
                .iter()
                .find(|(k, s, _)| *k == name && *s == seed)
                .map(|(_, _, want)| *want)
            {
                Some(want) => assert_eq!(got, want, "{name} seed {seed} drifted"),
                None => missing.push(format!("{name}/{seed}")),
            }
        }
    }
    assert!(
        record || missing.is_empty(),
        "no recorded digest for: {missing:?}"
    );
}

/// The sampled-mode scenarios: a SimPoints plan whose slices lay out as
/// several detailed stretches separated by functional gaps, and a window
/// too short to cluster (one full-window slice, with a bounded warm-up).
fn sampled_cases() -> [(&'static str, TraceWindow, SamplingMode); 2] {
    [
        (
            "stretches",
            TraceWindow::new(1_000, 12_000),
            SamplingMode::SimPoints {
                interval: 1_000,
                max_clusters: 3,
                warmup: 0,
            },
        ),
        (
            "single",
            TraceWindow::new(500, 800),
            SamplingMode::SimPoints {
                interval: 10_000,
                max_clusters: 3,
                warmup: 200,
            },
        ),
    ]
}

/// [`digest`] plus the sampling estimate: every simulated point's interval,
/// weight and CPI, and the recombined CPI, at full float precision.
fn sampled_digest(r: &RunResult) -> String {
    let est = r.sampling.as_ref().expect("sampled runs carry an estimate");
    let points: Vec<String> = est
        .points
        .iter()
        .map(|p| format!("{}:{:?}:{:?}", p.interval, p.weight, p.cpi))
        .collect();
    format!("{} est={:?} pts=[{}]", digest(r), est.cpi, points.join(","))
}

/// Recorded sampled-mode digests: (case, mechanism, seed, digest) for four
/// mechanisms (no mechanism, an L1 prefetcher, a victim sidecar and a
/// timekeeping predictor) × every seed in [`SEEDS`] × both
/// [`sampled_cases`].
const SAMPLED_GOLDEN: &[(&str, &str, u64, &str)] = &[
    ("stretches", "Base", 1, "cyc=13283 com=12000 fet=11980 stalls=[0,968,367,2012,11126,0,654] l1d=[3177,1729,662,0,806,1764,822,79,661,0,0,437,0] l1i=[1792,12] l2=[600,74,243,437] mem=[242,27488] mech=[0,0,0,0,0,0,0] est=1.1069151706670926 pts=[3:0.20833333333333334:0.8555776892430279,4:0.2916666666666667:1.0811623246492985,5:0.2916666666666667:1.3570712136409229,9:0.20833333333333334:1.0440881763527055]"),
    ("stretches", "Base", 2, "cyc=14196 com=12000 fet=11952 stalls=[561,210,312,1110,12282,0,564] l1d=[3232,1727,783,0,757,806,784,84,787,0,0,552,0] l1i=[1787,4] l2=[670,124,222,552] mem=[220,24693] mech=[0,0,0,0,0,0,0] est=1.1830393583216414 pts=[3:0.16666666666666666:1.2675350701402806,6:0.16666666666666666:1.5409181636726548,8:0.16666666666666666:0.818,9:0.16666666666666666:0.992992992992993,10:0.16666666666666666:1.3803803803803805,11:0.16666666666666666:1.0984095427435387]"),
    ("stretches", "Base", 12648430, "cyc=12786 com=12000 fet=12147 stalls=[238,1008,179,1129,10316,0,137] l1d=[3330,1768,701,0,797,848,340,78,706,0,0,454,0] l1i=[1843,10] l2=[659,58,283,454] mem=[279,27350] mech=[0,0,0,0,0,0,0] est=1.065537916355312 pts=[1:0.16666666666666666:1.464,3:0.16666666666666666:1.1351888667992047,4:0.20833333333333334:0.921765295887663,7:0.20833333333333334:0.933933933933934,9:0.125:1.0199401794616152,10:0.125:0.9459459459459459]"),
    ("stretches", "Ghb", 1, "cyc=11428 com=12000 fet=12005 stalls=[0,1217,368,1137,8966,0,225] l1d=[3152,1731,662,0,733,876,412,74,653,0,0,436,0] l1i=[1795,12] l2=[590,71,134,436] mem=[280,39366] mech=[3005,1323,363,98,0,0,0] est=0.9523184331150241 pts=[3:0.20833333333333334:0.9482071713147411,4:0.2916666666666667:1.066132264529058,5:0.2916666666666667:1.0908183632734532,9:0.20833333333333334:0.6031904287138584]"),
    ("stretches", "Ghb", 2, "cyc=9540 com=12000 fet=11910 stalls=[42,221,308,665,8099,0,62] l1d=[3212,1728,771,0,653,391,236,100,763,0,0,539,0] l1i=[1780,4] l2=[639,124,66,539] mem=[256,37580] mech=[3885,1526,607,154,0,0,0] est=0.7950140719946374 pts=[3:0.16666666666666666:1.191044776119403,6:0.16666666666666666:1.087087087087087,8:0.16666666666666666:0.721,9:0.16666666666666666:0.5415415415415415,10:0.16666666666666666:0.7762237762237763,11:0.16666666666666666:0.4531872509960159]"),
    ("stretches", "Ghb", 12648430, "cyc=12044 com=12000 fet=12106 stalls=[183,1305,186,556,9215,0,32] l1d=[3336,1769,688,0,776,281,218,89,692,0,0,451,0] l1i=[1837,10] l2=[640,55,132,451] mem=[328,43429] mech=[3884,1388,412,128,0,0,0] est=1.0036906852725453 pts=[1:0.16666666666666666:1.659,3:0.16666666666666666:1.166003976143141,4:0.20833333333333334:1.0080482897384306,7:0.20833333333333334:0.795,9:0.125:0.6856287425149701,10:0.125:0.5721442885771543]"),
    ("stretches", "Vc", 1, "cyc=13014 com=12000 fet=11980 stalls=[0,950,369,1841,10852,0,590] l1d=[3181,1729,517,181,706,1601,744,87,518,0,0,0,0] l1i=[1792,12] l2=[520,12,243,354] mem=[245,27764] mech=[3005,549,0,0,181,2823,549] est=1.084465415237214 pts=[3:0.20833333333333334:0.8346613545816733,4:0.2916666666666667:1.0711422845691383,5:0.2916666666666667:1.3079237713139418,9:0.20833333333333334:1.0400801603206413]"),
    ("stretches", "Vc", 2, "cyc=13835 com=12000 fet=11964 stalls=[561,227,304,893,11872,0,577] l1d=[3240,1726,492,410,520,679,733,58,500,0,0,0,0] l1i=[1788,4] l2=[484,14,220,398] mem=[222,24749] mech=[2101,828,0,0,410,1691,828] est=1.1528902457626897 pts=[3:0.16666666666666666:1.184924623115578,6:0.16666666666666666:1.4945054945054945,8:0.16666666666666666:0.818,9:0.16666666666666666:0.9540918163672655,10:0.16666666666666666:1.3614457831325302,11:0.16666666666666666:1.1043737574552683]"),
    ("stretches", "Vc", 12648430, "cyc=12638 com=12000 fet=12142 stalls=[238,1056,179,966,10122,0,123] l1d=[3321,1767,597,136,726,711,308,70,594,0,0,0,0] l1i=[1843,10] l2=[573,30,277,393] mem=[279,27655] mech=[2170,547,0,0,136,2034,547] est=1.0531683248899857 pts=[1:0.16666666666666666:1.488,3:0.16666666666666666:1.1351888667992047,4:0.20833333333333334:0.8786359077231695,7:0.20833333333333334:0.919436052366566,9:0.125:0.9890329012961117,10:0.125:0.9419419419419419]"),
    ("stretches", "Tk", 1, "cyc=13283 com=12000 fet=11980 stalls=[0,968,367,2012,11126,0,654] l1d=[3177,1729,662,0,806,1764,822,79,661,0,0,437,0] l1i=[1792,12] l2=[600,74,243,437] mem=[242,27488] mech=[277,511,0,0,0,0,0] est=1.1069151706670926 pts=[3:0.20833333333333334:0.8555776892430279,4:0.2916666666666667:1.0811623246492985,5:0.2916666666666667:1.3570712136409229,9:0.20833333333333334:1.0440881763527055]"),
    ("stretches", "Tk", 2, "cyc=14196 com=12000 fet=11952 stalls=[561,210,312,1110,12282,0,564] l1d=[3232,1727,783,0,757,806,784,84,787,2,0,552,2] l1i=[1787,4] l2=[670,124,222,552] mem=[220,24693] mech=[264,707,2,0,0,0,0] est=1.1830393583216414 pts=[3:0.16666666666666666:1.2675350701402806,6:0.16666666666666666:1.5409181636726548,8:0.16666666666666666:0.818,9:0.16666666666666666:0.992992992992993,10:0.16666666666666666:1.3803803803803805,11:0.16666666666666666:1.0984095427435387]"),
    ("stretches", "Tk", 12648430, "cyc=12786 com=12000 fet=12147 stalls=[238,1008,179,1129,10316,0,137] l1d=[3330,1768,701,0,797,848,340,78,706,0,0,454,0] l1i=[1843,10] l2=[659,58,283,454] mem=[279,27350] mech=[342,523,0,0,0,0,0] est=1.065537916355312 pts=[1:0.16666666666666666:1.464,3:0.16666666666666666:1.1351888667992047,4:0.20833333333333334:0.921765295887663,7:0.20833333333333334:0.933933933933934,9:0.125:1.0199401794616152,10:0.125:0.9459459459459459]"),
    ("single", "Base", 1, "cyc=2142 com=800 fet=800 stalls=[0,1612,19,33,254,0,0] l1d=[222,124,70,0,72,17,15,1,69,0,0,33,0] l1i=[125,38] l2=[100,8,58,33] mem=[59,4564] mech=[0,0,0,0,0,0,0] est=2.6775 pts=[0:1.0:2.6775]"),
    ("single", "Base", 2, "cyc=1761 com=800 fet=800 stalls=[0,968,8,46,489,0,3] l1d=[222,120,101,0,72,22,27,0,101,0,0,44,0] l1i=[120,26] l2=[103,24,45,44] mem=[45,3692] mech=[0,0,0,0,0,0,0] est=2.20125 pts=[0:1.0:2.20125]"),
    ("single", "Base", 12648430, "cyc=2116 com=800 fet=800 stalls=[0,1725,3,16,208,0,0] l1d=[226,113,53,0,62,1,15,0,52,0,0,26,0] l1i=[123,32] l2=[80,4,52,26] mem=[52,4135] mech=[0,0,0,0,0,0,0] est=2.645 pts=[0:1.0:2.645]"),
    ("single", "Ghb", 1, "cyc=2142 com=800 fet=800 stalls=[0,1612,19,33,254,0,0] l1d=[222,124,70,0,72,17,15,1,69,0,0,33,0] l1i=[125,38] l2=[100,8,57,33] mem=[63,4834] mech=[211,312,8,1,0,0,0] est=2.6775 pts=[0:1.0:2.6775]"),
    ("single", "Ghb", 2, "cyc=1761 com=800 fet=800 stalls=[0,982,7,46,489,0,3] l1d=[223,120,101,0,72,22,27,0,101,0,0,44,0] l1i=[120,26] l2=[103,24,45,44] mem=[49,4188] mech=[290,354,4,0,0,0,0] est=2.20125 pts=[0:1.0:2.20125]"),
    ("single", "Ghb", 12648430, "cyc=2116 com=800 fet=800 stalls=[0,1725,3,16,208,0,0] l1d=[226,113,53,0,62,1,15,0,52,0,0,26,0] l1i=[123,32] l2=[80,4,52,26] mem=[52,4135] mech=[192,264,0,0,0,0,0] est=2.645 pts=[0:1.0:2.645]"),
    ("single", "Vc", 1, "cyc=2254 com=800 fet=800 stalls=[0,1642,11,12,267,0,0] l1d=[230,124,51,24,58,2,10,0,51,0,0,0,0] l1i=[125,38] l2=[86,3,58,13] mem=[59,4763] mech=[160,54,0,0,24,136,54] est=2.8175 pts=[0:1.0:2.8175]"),
    ("single", "Vc", 2, "cyc=1687 com=800 fet=800 stalls=[0,889,8,15,480,0,0] l1d=[222,120,50,61,39,1,12,2,50,0,0,0,0] l1i=[120,26] l2=[73,3,45,17] mem=[45,4066] mech=[175,99,0,0,61,114,99] est=2.10875 pts=[0:1.0:2.10875]"),
    ("single", "Vc", 12648430, "cyc=2121 com=800 fet=800 stalls=[0,1732,3,16,208,0,0] l1d=[226,113,49,6,58,1,15,0,48,0,0,0,0] l1i=[123,32] l2=[76,4,52,11] mem=[52,4179] mech=[138,33,0,0,6,132,33] est=2.65125 pts=[0:1.0:2.65125]"),
    ("single", "Tk", 1, "cyc=2142 com=800 fet=800 stalls=[0,1612,19,33,254,0,0] l1d=[222,124,70,0,72,17,15,1,69,0,0,33,0] l1i=[125,38] l2=[100,8,58,33] mem=[59,4564] mech=[15,48,0,0,0,0,0] est=2.6775 pts=[0:1.0:2.6775]"),
    ("single", "Tk", 2, "cyc=1761 com=800 fet=800 stalls=[0,968,8,46,489,0,3] l1d=[222,120,101,0,72,22,27,0,101,0,0,44,0] l1i=[120,26] l2=[103,24,45,44] mem=[45,3692] mech=[8,89,0,0,0,0,0] est=2.20125 pts=[0:1.0:2.20125]"),
    ("single", "Tk", 12648430, "cyc=2116 com=800 fet=800 stalls=[0,1725,3,16,208,0,0] l1d=[226,113,53,0,62,1,15,0,52,0,0,26,0] l1i=[123,32] l2=[80,4,52,26] mem=[52,4135] mech=[13,31,0,0,0,0,0] est=2.645 pts=[0:1.0:2.645]"),
];

#[test]
fn sampled_stats_match_recorded_golden() {
    let record = std::env::var("MICROLIB_RECORD_FINGERPRINTS").is_ok();
    let mut missing = Vec::new();
    for (case, window, sampling) in sampled_cases() {
        for kind in [
            MechanismKind::Base,
            MechanismKind::Ghb,
            MechanismKind::Vc,
            MechanismKind::Tk,
        ] {
            for seed in SEEDS {
                let opts = SimOptions {
                    seed,
                    window,
                    sampling,
                    ..SimOptions::default()
                };
                let r =
                    run_one(&SystemConfig::baseline(), kind, "swim", &opts).expect("run succeeds");
                let got = sampled_digest(&r);
                let name = format!("{kind:?}");
                if record {
                    println!("    (\"{case}\", \"{name}\", {seed}, \"{got}\"),");
                    continue;
                }
                match SAMPLED_GOLDEN
                    .iter()
                    .find(|(c, k, s, _)| *c == case && *k == name && *s == seed)
                    .map(|(_, _, _, want)| *want)
                {
                    Some(want) => assert_eq!(got, want, "{case} {name} seed {seed} drifted"),
                    None => missing.push(format!("{case}/{name}/{seed}")),
                }
            }
        }
    }
    assert!(
        record || missing.is_empty(),
        "no recorded digest for: {missing:?}"
    );
}

/// The sampled scenarios cover what they claim: the first plan lays out
/// at least two detailed stretches with a functional gap between them
/// (slices further apart than the driver's 1 024-instruction ramp plus
/// 512-instruction tail), and the second degenerates to one full-window
/// slice.
#[test]
fn sampled_cases_cover_gaps_and_the_degenerate_plan() {
    for seed in SEEDS {
        let [(_, window, stretches), (_, short, single)] = sampled_cases();
        let plan = |window: TraceWindow, mode: SamplingMode| {
            let SamplingMode::SimPoints {
                interval,
                max_clusters,
                ..
            } = mode
            else {
                unreachable!("sampled cases sample")
            };
            let workload = Workload::new(benchmarks::by_name("swim").unwrap(), seed);
            SamplingPlan::profile(workload.stream(), window, interval, max_clusters, seed)
        };
        let windows: Vec<TraceWindow> = plan(window, stretches).windows().map(|(w, _)| w).collect();
        let gaps = windows
            .windows(2)
            .filter(|pair| pair[1].skip > pair[0].end() + 1_024 + 512)
            .count();
        assert!(gaps >= 1, "seed {seed}: no gap between slices {windows:?}");
        let single: Vec<TraceWindow> = plan(short, single).windows().map(|(w, _)| w).collect();
        assert_eq!(single, vec![short], "seed {seed}");
    }
}
