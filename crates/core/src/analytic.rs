//! The analytic tier's runner: a functional-warm measurement pass that
//! feeds cache counters into the closed-form [`CpiModel`] — no detailed
//! out-of-order core, no timing simulation.
//!
//! The pass replays the window's instructions through the *storage* model
//! only ([`MemorySystem::warm_inst`]): caches, mechanism tables and the
//! functional memory evolve exactly as a detailed run would leave them,
//! prefetch requests are applied functionally (so prefetchers still
//! differentiate), and the measured miss counters drive the latency stack.
//! The result is deterministic, orders of magnitude cheaper than detailed
//! simulation, and deliberately approximate — the differential
//! inconsistency miner (`crates/miner`) exists to find the configurations
//! where this approximation and the detailed simulator part ways.

use crate::artifacts::ArtifactStore;
use crate::simulator::{SimError, SimOptions};
use microlib_cost::{CpiBreakdown, CpiCounters, CpiModel};
use microlib_mech::MechanismKind;
use microlib_mem::MemorySystem;
use microlib_model::{CacheStats, SystemConfig};
use microlib_trace::{benchmarks, TraceBuffer, Workload};
use std::sync::Arc;

/// One analytic-tier measurement: the counters observed over the window
/// and the CPI stack predicted from them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnalyticResult {
    /// Benchmark name (static registry entry).
    pub benchmark: &'static str,
    /// Mechanism whose tables/prefetches shaped the counters.
    pub mechanism: MechanismKind,
    /// Counters measured over the simulated window.
    pub counters: CpiCounters,
    /// The predicted CPI stack.
    pub breakdown: CpiBreakdown,
}

impl AnalyticResult {
    /// The predicted cycles per instruction.
    pub fn cpi(&self) -> f64 {
        self.breakdown.total()
    }
}

/// Counter snapshot of the three caches (the analytic tier reads nothing
/// else).
#[derive(Clone, Copy, Default)]
struct WarmSnapshot {
    l1d: CacheStats,
    l1i: CacheStats,
    l2: CacheStats,
}

impl WarmSnapshot {
    fn capture(mem: &MemorySystem) -> Self {
        WarmSnapshot {
            l1d: mem.l1d_stats(),
            l1i: mem.l1i_stats(),
            l2: mem.l2_stats(),
        }
    }
}

/// Runs the analytic tier for one (configuration, mechanism, benchmark)
/// cell: functional warm over the skip prefix, a counter-measured
/// functional pass over the window (with prefetches applied), and the
/// [`CpiModel`] stack over the measured deltas.
///
/// The trace comes from `store`'s shared buffer when the store is enabled
/// (the same buffer detailed runs replay, so both tiers see an identical
/// instruction stream); a [disabled](ArtifactStore::disabled) store
/// generates the trace directly.
///
/// # Errors
///
/// [`SimError::UnknownBenchmark`] for unknown benchmarks,
/// [`SimError::Config`] for invalid configurations.
///
/// # Examples
///
/// ```
/// use microlib::{run_analytic, ArtifactStore, SimOptions};
/// use microlib_mech::MechanismKind;
/// use microlib_model::SystemConfig;
/// use microlib_trace::TraceWindow;
/// use std::sync::Arc;
///
/// let store = ArtifactStore::new();
/// let config = Arc::new(SystemConfig::baseline_constant_memory());
/// let opts = SimOptions {
///     window: TraceWindow::new(2_000, 4_000),
///     ..SimOptions::default()
/// };
/// let r = run_analytic(&store, &config, MechanismKind::Sp, "swim", &opts)?;
/// assert!(r.cpi() > 0.0);
/// # Ok::<(), microlib::SimError>(())
/// ```
pub fn run_analytic(
    store: &ArtifactStore,
    config: &Arc<SystemConfig>,
    mechanism: MechanismKind,
    benchmark: &str,
    opts: &SimOptions,
) -> Result<AnalyticResult, SimError> {
    let profile = benchmarks::by_name(benchmark)
        .ok_or_else(|| SimError::UnknownBenchmark(benchmark.to_owned()))?;
    let benchmark: &'static str = profile.name;

    let mut mem = MemorySystem::new(Arc::clone(config), vec![mechanism.build()])?;
    // The analytic tier never runs the detailed load path, so the value
    // integrity checker has nothing to verify.
    mem.set_check_values(false);

    let mut stream = if store.is_enabled() {
        let (workload, buffer) = store.trace(benchmark, opts.seed, opts.window.end())?;
        workload.initialize(mem.functional_mut());
        TraceBuffer::replay(&buffer)
    } else {
        let workload = Workload::shared(profile, opts.seed);
        workload.initialize(mem.functional_mut());
        workload.stream()
    };

    // Warm prefix: the plain drop-prefetch warm mode, matching the warm
    // phase every detailed run uses before its window.
    for _ in 0..opts.window.skip {
        let Some(inst) = stream.next() else { break };
        mem.warm_inst(inst.pc, inst.warm_mem_ref());
    }

    // Measured window: prefetches now apply functionally, so prefetching
    // mechanisms shape the miss counters the way a continuous detailed
    // run would let them.
    mem.set_warm_prefetch_fill(true);
    let before = WarmSnapshot::capture(&mem);
    let mut instructions = 0u64;
    for _ in 0..opts.window.simulate {
        let Some(inst) = stream.next() else { break };
        mem.warm_inst(inst.pc, inst.warm_mem_ref());
        instructions += 1;
    }
    let after = WarmSnapshot::capture(&mem);

    let l1d = after.l1d - before.l1d;
    let counters = CpiCounters {
        instructions,
        data_accesses: l1d.accesses(),
        l1d_misses: l1d.misses,
        sidecar_hits: l1d.sidecar_hits,
        l1i_misses: (after.l1i - before.l1i).misses,
        l2_misses: (after.l2 - before.l2).misses,
    };
    let breakdown = CpiModel::for_config(config).predict(&counters);
    Ok(AnalyticResult {
        benchmark,
        mechanism,
        counters,
        breakdown,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use microlib_trace::TraceWindow;

    fn opts(skip: u64, sim: u64) -> SimOptions {
        SimOptions {
            window: TraceWindow::new(skip, sim),
            ..SimOptions::default()
        }
    }

    #[test]
    fn analytic_run_produces_positive_cpi() {
        let store = ArtifactStore::new();
        let config = Arc::new(SystemConfig::baseline_constant_memory());
        let r = run_analytic(
            &store,
            &config,
            MechanismKind::Base,
            "swim",
            &opts(1_000, 4_000),
        )
        .unwrap();
        assert_eq!(r.counters.instructions, 4_000);
        assert!(r.cpi() > 0.0);
        assert!(r.counters.data_accesses > 0, "swim streams data");
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        let store = ArtifactStore::new();
        let config = Arc::new(SystemConfig::baseline());
        let e =
            run_analytic(&store, &config, MechanismKind::Base, "doom", &opts(0, 100)).unwrap_err();
        assert!(matches!(e, SimError::UnknownBenchmark(_)));
    }

    #[test]
    fn shared_and_disabled_store_agree_bit_for_bit() {
        let shared = ArtifactStore::new();
        let disabled = ArtifactStore::disabled();
        let config = Arc::new(SystemConfig::baseline_constant_memory());
        let a = run_analytic(
            &shared,
            &config,
            MechanismKind::Ghb,
            "mcf",
            &opts(2_000, 3_000),
        )
        .unwrap();
        let b = run_analytic(
            &disabled,
            &config,
            MechanismKind::Ghb,
            "mcf",
            &opts(2_000, 3_000),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn prefetcher_counters_differ_from_base() {
        let store = ArtifactStore::new();
        let config = Arc::new(SystemConfig::baseline_constant_memory());
        let base = run_analytic(
            &store,
            &config,
            MechanismKind::Base,
            "swim",
            &opts(2_000, 8_000),
        )
        .unwrap();
        let sp = run_analytic(
            &store,
            &config,
            MechanismKind::Sp,
            "swim",
            &opts(2_000, 8_000),
        )
        .unwrap();
        // The stride prefetcher must visibly change swim's miss profile:
        // functionally applied prefetches land in the L2, covering part of
        // the memory traffic.
        assert_ne!(base.counters, sp.counters);
        assert!(
            sp.counters.l2_misses < base.counters.l2_misses,
            "SP should cover strided L2 misses: {} vs {}",
            sp.counters.l2_misses,
            base.counters.l2_misses
        );
        assert!(sp.cpi() < base.cpi());
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        let store = ArtifactStore::new();
        let config = Arc::new(SystemConfig::baseline());
        let a = run_analytic(
            &store,
            &config,
            MechanismKind::Tkvc,
            "gcc",
            &opts(1_500, 3_000),
        )
        .unwrap();
        let b = run_analytic(
            &store,
            &config,
            MechanismKind::Tkvc,
            "gcc",
            &opts(1_500, 3_000),
        )
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.cpi().to_bits(), b.cpi().to_bits());
    }
}
