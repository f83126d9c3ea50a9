//! Criterion throughput benches for the simulation substrates: cache
//! array, MSHR file, SDRAM controller, workload generation and the
//! end-to-end simulator. These measure *simulator* performance (how fast
//! the reproduction runs), complementing the `run_all` experiments that
//! regenerate the paper's figures.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use microlib::{run_one, SimOptions};
use microlib_mech::MechanismKind;
use microlib_mem::{CacheArray, MemToken, MemorySystem, MshrFile, MshrTarget, Sdram};
use microlib_model::{Addr, CacheConfig, Cycle, LineData, SdramConfig, SystemConfig};
use microlib_trace::{benchmarks, TraceBuffer, TraceWindow, Workload};
use std::sync::Arc;

fn cache_array(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_array");
    group.throughput(Throughput::Elements(1024));
    group.bench_function("l1_lookup_hit_1k", |b| {
        let mut cache = CacheArray::new(CacheConfig::baseline_l1d()).unwrap();
        for i in 0..1024u64 {
            cache.fill(Addr::new(i * 32), LineData::zeroed(4), false, false);
        }
        b.iter(|| {
            for i in 0..1024u64 {
                black_box(cache.lookup(Addr::new(i * 32)));
            }
        });
    });
    group.bench_function("l1_fill_evict_1k", |b| {
        let mut cache = CacheArray::new(CacheConfig::baseline_l1d()).unwrap();
        let mut next = 0u64;
        b.iter(|| {
            for _ in 0..1024 {
                next = next.wrapping_add(32);
                if !cache.contains(Addr::new(next)) {
                    black_box(cache.fill(Addr::new(next), LineData::zeroed(4), false, false));
                }
            }
        });
    });
    group.finish();
}

fn mshr(c: &mut Criterion) {
    c.bench_function("mshr_insert_complete_x8", |b| {
        let mut m = MshrFile::new(8, 4);
        m.set_model_busy_cycle(false);
        let t = |a: u64| MshrTarget {
            req: None,
            addr: Addr::new(a),
            is_store: false,
            value: 0,
        };
        b.iter(|| {
            for i in 0..8u64 {
                black_box(m.try_insert(Addr::new(i * 64), t(i * 64), false, false, Cycle::ZERO));
            }
            for i in 0..8u64 {
                black_box(m.complete(Addr::new(i * 64)));
            }
        });
    });
}

fn sdram(c: &mut Criterion) {
    let mut group = c.benchmark_group("sdram");
    group.throughput(Throughput::Elements(32));
    group.bench_function("row_hit_stream_32", |b| {
        b.iter(|| {
            let mut mem = Sdram::new(SdramConfig::baseline());
            for i in 0..32u64 {
                mem.try_push(MemToken(i), Addr::new(i * 64), false, Cycle::new(i));
            }
            let mut done = 0;
            let mut now = 0;
            while done < 32 {
                done += mem.tick(Cycle::new(now)).len();
                now += 1;
            }
            black_box(now)
        });
    });
    group.finish();
}

fn workload_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload");
    group.throughput(Throughput::Elements(10_000));
    for name in ["swim", "mcf", "gzip"] {
        group.bench_function(format!("{name}_gen_10k"), |b| {
            let w = Workload::new(benchmarks::by_name(name).unwrap(), 1);
            b.iter(|| {
                let mut n = 0u64;
                for inst in w.stream().take(10_000) {
                    n = n.wrapping_add(inst.pc.raw());
                }
                black_box(n)
            });
        });
        group.bench_function(format!("{name}_replay_10k"), |b| {
            let w = Workload::new(benchmarks::by_name(name).unwrap(), 1);
            let buf = std::sync::Arc::new(microlib_trace::TraceBuffer::capture(&w, 10_000));
            b.iter(|| {
                let mut n = 0u64;
                for inst in microlib_trace::TraceBuffer::replay(&buf) {
                    n = n.wrapping_add(inst.pc.raw());
                }
                black_box(n)
            });
        });
    }
    group.finish();
}

fn warmup(c: &mut Criterion) {
    let mut group = c.benchmark_group("warmup");
    group.sample_size(20);
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("warm_inst_10k", |b| {
        let cfg: Arc<SystemConfig> = Arc::new(SystemConfig::baseline());
        let workload = Workload::new(benchmarks::by_name("swim").unwrap(), 1);
        let buf = Arc::new(TraceBuffer::capture(&workload, 10_000));
        b.iter(|| {
            let mut mem = MemorySystem::new(Arc::clone(&cfg), Vec::new()).unwrap();
            workload.initialize(mem.functional_mut());
            for inst in TraceBuffer::replay(&buf) {
                mem.warm_inst(inst.pc, inst.warm_mem_ref());
            }
            black_box(mem.finish_warmup())
        });
    });
    group.finish();
}

fn end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    group.throughput(Throughput::Elements(5_000));
    for kind in [MechanismKind::Base, MechanismKind::Ghb] {
        group.bench_function(format!("swim_{kind}_5k_insts"), |b| {
            let cfg = SystemConfig::baseline();
            let opts = SimOptions {
                window: TraceWindow::new(2_000, 5_000),
                ..SimOptions::default()
            };
            b.iter(|| black_box(run_one(&cfg, kind, "swim", &opts).unwrap().perf.cycles));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    cache_array,
    mshr,
    sdram,
    workload_generation,
    warmup,
    end_to_end
);
criterion_main!(benches);
