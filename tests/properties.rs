//! Property-based tests over the core data structures and the end-to-end
//! simulator invariants.
//!
//! crates.io is not reachable from the build environment, so instead of
//! proptest these run hand-rolled generate-and-check loops over the
//! vendored deterministic RNG: every case is derived from a fixed master
//! seed plus the case index, and each assertion message carries that case
//! seed so a failure reproduces exactly.

use microlib_mech::{AssocTable, MechanismKind};
use microlib_mem::{CacheArray, MemToken, MshrFile, MshrTarget, Sdram, SparseMemory};
use microlib_model::{
    Addr, CacheConfig, Cycle, LineData, PrefetchDestination, PrefetchQueue, PrefetchRequest,
    SdramConfig, SystemConfig,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const MASTER_SEED: u64 = 0x5EED_CAFE;
const CASES: u64 = 64;

/// One deterministic RNG per (property, case) pair.
fn case_rng(property: &str, case: u64) -> SmallRng {
    let tag = property.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    });
    SmallRng::seed_from_u64(MASTER_SEED ^ tag ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

fn u64_vec(rng: &mut SmallRng, len_range: std::ops::Range<usize>, max: u64) -> Vec<u64> {
    let len = rng.gen_range(len_range);
    (0..len).map(|_| rng.gen_range(0..max)).collect()
}

fn small_cache() -> CacheConfig {
    CacheConfig {
        size_bytes: 1024,
        assoc: 2,
        ..CacheConfig::baseline_l1d()
    }
}

/// The cache never holds more lines than its capacity, never holds the
/// same line twice, and a just-filled line is always found.
#[test]
fn cache_array_capacity_and_uniqueness() {
    for case in 0..CASES {
        let mut rng = case_rng("cache_array", case);
        let addrs = u64_vec(&mut rng, 1..200, 1 << 20);
        let mut cache = CacheArray::new(small_cache()).unwrap();
        for a in &addrs {
            let addr = Addr::new(a & !7);
            if !cache.contains(addr) {
                cache.fill(addr, LineData::zeroed(4), false, false);
            }
            assert!(cache.contains(addr), "case {case}: just-filled line lost");
        }
        assert!(cache.occupancy() <= 32, "case {case}"); // 1 KB / 32 B
        let mut lines: Vec<u64> = cache.resident_lines().map(Addr::raw).collect();
        let total = lines.len();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), total, "case {case}: duplicate resident line");
    }
}

/// Set/tag decomposition round-trips for arbitrary addresses.
#[test]
fn cache_index_round_trip() {
    let cache = CacheArray::new(CacheConfig::baseline_l1d()).unwrap();
    for case in 0..CASES {
        let mut rng = case_rng("index_round_trip", case);
        let addr = rng.gen_range(0..u64::MAX / 2);
        let a = Addr::new(addr);
        let (set, tag) = cache.index_of(a);
        assert_eq!(
            cache.address_of(set, tag),
            a.line(32),
            "case {case}: addr {addr:#x}"
        );
    }
}

/// Written words read back; unwritten words read zero.
#[test]
fn sparse_memory_read_your_writes() {
    for case in 0..CASES {
        let mut rng = case_rng("sparse_memory", case);
        let count = rng.gen_range(1usize..100);
        let mut mem = SparseMemory::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for _ in 0..count {
            let addr = rng.gen_range(0u64..1 << 30) & !7;
            let value = rng.gen::<u64>();
            mem.write_word(Addr::new(addr), value);
            model.insert(addr, value);
        }
        for (addr, value) in &model {
            assert_eq!(
                mem.read_word(Addr::new(*addr)),
                *value,
                "case {case}: addr {addr:#x}"
            );
        }
        assert_eq!(mem.read_word(Addr::new((1u64 << 40) + 8)), 0, "case {case}");
    }
}

/// The MSHR file never exceeds its entry capacity and all accepted
/// targets come back exactly once at completion.
#[test]
fn mshr_occupancy_and_target_conservation() {
    for case in 0..CASES {
        let mut rng = case_rng("mshr", case);
        let lines = u64_vec(&mut rng, 1..100, 64);
        let mut mshr = MshrFile::new(4, 2);
        mshr.set_model_busy_cycle(false);
        let mut accepted = 0u64;
        for (i, l) in lines.iter().enumerate() {
            let line = Addr::new(l * 64);
            let t = MshrTarget {
                req: None,
                addr: line,
                is_store: false,
                value: 0,
            };
            if mshr
                .try_insert(line, t, false, Cycle::new(i as u64))
                .accepted()
            {
                accepted += 1;
            }
            assert!(mshr.len() <= 4, "case {case}: MSHR overflow");
        }
        let mut drained = 0u64;
        for l in 0u64..64 {
            if let Some(entry) = mshr.complete(Addr::new(l * 64)) {
                drained += entry.targets.len() as u64;
            }
        }
        assert_eq!(drained, accepted, "case {case}: targets lost or duplicated");
    }
}

/// Prefetch queues never exceed capacity and FIFO order is preserved
/// among accepted requests.
#[test]
fn prefetch_queue_bounded_fifo() {
    for case in 0..CASES {
        let mut rng = case_rng("prefetch_queue", case);
        let lines = u64_vec(&mut rng, 1..200, 128);
        let cap = rng.gen_range(1usize..32);
        let mut q = PrefetchQueue::new(cap);
        let mut accepted = Vec::new();
        for l in &lines {
            let req = PrefetchRequest {
                line: Addr::new(l * 64),
                destination: PrefetchDestination::Cache,
            };
            if q.push(req) {
                accepted.push(l * 64);
            }
            assert!(q.len() <= cap, "case {case}: queue over capacity {cap}");
        }
        let mut popped = Vec::new();
        while let Some(r) = q.pop() {
            popped.push(r.line.raw());
        }
        assert_eq!(
            &popped[..],
            &accepted[..popped.len()],
            "case {case}: FIFO violated"
        );
    }
}

/// Every transaction submitted to the SDRAM completes.
#[test]
fn sdram_completes_all_traffic() {
    for case in 0..CASES {
        let mut rng = case_rng("sdram", case);
        let lines = u64_vec(&mut rng, 1..40, 1 << 22);
        let mut mem = Sdram::new(SdramConfig::baseline());
        let mut submitted = 0u64;
        let mut done = 0u64;
        let mut queue: Vec<u64> = lines.clone();
        let mut now = 0u64;
        while done < lines.len() as u64 && now < 1_000_000 {
            if let Some(l) = queue.last().copied() {
                if mem.try_push(
                    MemToken(submitted),
                    Addr::new(l * 64),
                    false,
                    Cycle::new(now),
                ) {
                    queue.pop();
                    submitted += 1;
                }
            }
            done += mem.tick(Cycle::new(now)).len() as u64;
            now += 1;
        }
        assert_eq!(
            done,
            lines.len() as u64,
            "case {case}: SDRAM lost transactions"
        );
        assert_eq!(mem.in_service_len(), 0, "case {case}");
    }
}

/// The associative table's LRU keeps the most recently touched entry.
#[test]
fn assoc_table_keeps_mru() {
    for case in 0..CASES {
        let mut rng = case_rng("assoc_table", case);
        let len = rng.gen_range(2usize..50);
        let keys: Vec<u64> = (0..len).map(|_| rng.gen_range(0..1000)).collect();
        let mut t: AssocTable<u64> = AssocTable::new(4, 0); // 4-entry fully assoc
        for k in &keys {
            t.insert(*k, *k);
        }
        let last = *keys.last().unwrap();
        assert!(
            t.contains(&last),
            "case {case}: most recent insert must survive"
        );
    }
}

/// Workload streams are reproducible and causally well-formed for
/// arbitrary seeds.
#[test]
fn workload_streams_well_formed() {
    use microlib_trace::{benchmarks, Workload};
    for case in 0..CASES {
        let mut rng = case_rng("workload", case);
        let seed = rng.gen::<u64>();
        let name = benchmarks::NAMES[rng.gen_range(0usize..26)];
        let w = Workload::new(benchmarks::by_name(name).unwrap(), seed);
        let a: Vec<_> = w.stream().take(300).collect();
        let b: Vec<_> = w.stream().take(300).collect();
        assert_eq!(
            a, b,
            "case {case}: {name}/{seed:#x} stream not reproducible"
        );
        for (i, inst) in a.iter().enumerate() {
            for d in inst.src_deps.into_iter().flatten() {
                assert!(
                    d >= 1 && d as usize <= i.max(1),
                    "case {case}: {name}/{seed:#x} dep not causal at {i}"
                );
            }
            if let Some(m) = inst.mem {
                assert_eq!(
                    m.addr.raw() % 8,
                    0,
                    "case {case}: {name}/{seed:#x} unaligned access"
                );
            }
        }
    }
}

/// Replaying a captured [`TraceBuffer`] is instruction-for-instruction
/// identical to streaming generation, for random (benchmark, seed,
/// window) triples — including replay cursors that start mid-buffer the
/// way a restored warm checkpoint does.
#[test]
fn trace_buffer_replay_equals_streaming_generation() {
    use microlib_trace::{benchmarks, TraceBuffer, Workload};
    use std::sync::Arc;
    for case in 0..24 {
        let mut rng = case_rng("trace_buffer_replay", case);
        let seed = rng.gen::<u64>();
        let bench = benchmarks::NAMES[rng.gen_range(0usize..26)];
        let skip = rng.gen_range(0u64..4_000);
        let simulate = rng.gen_range(1u64..4_000);
        let len = skip + simulate;
        let workload = Workload::new(benchmarks::by_name(bench).unwrap(), seed);
        let buffer = Arc::new(TraceBuffer::capture(&workload, len));
        assert_eq!(buffer.len(), len, "case {case}: {bench}/{seed:#x}");

        let generated: Vec<_> = workload.stream().take(len as usize).collect();
        let replayed: Vec<_> = TraceBuffer::replay(&buffer).collect();
        assert_eq!(
            generated, replayed,
            "case {case}: {bench}/{seed:#x}/{skip}+{simulate}: full replay diverged"
        );

        // A cursor advanced to the window start yields the window exactly.
        let mut cursor = TraceBuffer::replay(&buffer);
        cursor.advance_to(skip);
        assert_eq!(cursor.stream_position(), skip);
        let window: Vec<_> = cursor.collect();
        assert_eq!(
            &generated[skip as usize..],
            window.as_slice(),
            "case {case}: {bench}/{seed:#x}/{skip}+{simulate}: windowed replay diverged"
        );
    }
}

/// For arbitrary seeds and mechanisms, a short end-to-end run commits
/// every instruction and never violates value integrity (`run_one`
/// returns `Err` on violation). End-to-end cases are expensive; the case
/// count stays low.
#[test]
fn end_to_end_integrity() {
    use microlib::{run_one, SimOptions};
    use microlib_trace::{benchmarks, TraceWindow};
    for case in 0..8 {
        let mut rng = case_rng("end_to_end", case);
        let seed = rng.gen_range(0u64..1000);
        let kind = MechanismKind::study_set()[rng.gen_range(0usize..13)];
        let bench = benchmarks::NAMES[rng.gen_range(0usize..26)];
        let opts = SimOptions {
            seed,
            window: TraceWindow::new(2_000, 1_500),
            ..SimOptions::default()
        };
        match run_one(&SystemConfig::baseline(), kind, bench, &opts) {
            Ok(result) => assert_eq!(
                result.perf.instructions, 1_500,
                "case {case}: {bench}/{kind:?}/{seed}"
            ),
            Err(e) => panic!("case {case}: {bench}/{kind:?}/{seed}: {e}"),
        }
    }
}

/// For arbitrary (benchmark, seed, region, interval, cluster cap), a
/// sampling plan's weights always sum to 1, its windows stay inside the
/// region, and re-planning with the same inputs is bit-identical
/// (clustering is seed-deterministic).
#[test]
fn sampling_plan_weights_sum_to_one_and_deterministic() {
    use microlib_trace::{benchmarks, SamplingPlan, TraceWindow, Workload};
    let names_with_synthetics: Vec<&str> = benchmarks::NAMES
        .iter()
        .chain(benchmarks::PHASED_SYNTHETICS.iter())
        .copied()
        .collect();
    for case in 0..24 {
        let mut rng = case_rng("sampling_plan", case);
        let seed = rng.gen::<u64>();
        let bench = names_with_synthetics[rng.gen_range(0usize..names_with_synthetics.len())];
        let region = TraceWindow::new(rng.gen_range(0u64..30_000), rng.gen_range(1u64..60_000));
        let interval = rng.gen_range(500u64..20_000);
        let max_clusters = rng.gen_range(1usize..6);
        let workload = Workload::new(benchmarks::by_name(bench).unwrap(), seed);
        let tag = format!("case {case}: {bench}/{seed:#x}/{region}/{interval}/{max_clusters}");

        let plan = SamplingPlan::profile(workload.stream(), region, interval, max_clusters, seed);
        assert!(!plan.points().is_empty(), "{tag}: empty plan");
        // At most a representative + probe per cluster.
        assert!(plan.points().len() <= 2 * max_clusters.max(1), "{tag}");
        let total: f64 = plan.points().iter().map(|p| p.weight).sum();
        assert!((total - 1.0).abs() < 1e-9, "{tag}: weights sum to {total}");
        let mut last_start = 0;
        for (window, weight) in plan.windows() {
            assert!(weight > 0.0, "{tag}: non-positive weight");
            assert!(window.skip >= region.skip, "{tag}: window before region");
            assert!(window.end() <= region.end(), "{tag}: window past region");
            assert!(window.skip >= last_start, "{tag}: windows out of order");
            last_start = window.skip;
        }
        assert!(plan.detailed_instructions() <= region.simulate, "{tag}");

        let again = SamplingPlan::profile(workload.stream(), region, interval, max_clusters, seed);
        assert_eq!(plan, again, "{tag}: plan not seed-deterministic");
    }
}
