//! The mining driver: walk a budgeted slice of config space, probe every
//! cell through both tiers, minimize the hits, and memoize per-cell
//! outcomes through the shared [`DiskCache`] so re-runs are incremental.

use crate::cliff::CliffRecord;
use crate::minimize::minimize;
use crate::probe::{probe, DEFAULT_MECHANISMS};
use crate::space::{sample_cell, ConfigDelta};
use microlib::{ArtifactStore, SimOptions};
use microlib_mech::MechanismKind;
use microlib_model::{Decoder, Encoder};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The disk-cache class mined cell outcomes live under.
pub const MINE_CACHE_CLASS: &str = "mine";

/// Parameters of one mining run.
#[derive(Clone, Debug)]
pub struct MineConfig {
    /// Number of cells to sample.
    pub budget: usize,
    /// Relative speedup-divergence bound for
    /// [`CliffKind::Disagreement`](crate::probe::CliffKind::Disagreement).
    pub bound: f64,
    /// Base simulation options (seed, window) every cell starts from.
    pub base_opts: SimOptions,
    /// Mechanism set, Base first.
    pub mechanisms: Vec<MechanismKind>,
    /// Worker threads (0 = one per available core, capped at 8).
    pub threads: usize,
    /// Optional `(index, count)` shard hint: own-shard cells are probed
    /// first so parallel workers spend their leases on disjoint cells,
    /// but every worker still computes the full budget (outputs stay
    /// byte-identical across workers).
    pub shard: Option<(u32, u32)>,
    /// Injected analytic-CPI error: every analytic CPI is scaled by
    /// `1 + perturb` (`MICROLIB_MINE_PERTURB`, the negative gate proving
    /// the cliffs-golden check watches the numbers).
    pub perturb: f64,
}

impl MineConfig {
    /// The standard mining run: 64 cells at bound 0.25 with the default
    /// mechanism set.
    pub fn standard(base_opts: SimOptions) -> Self {
        MineConfig {
            budget: 64,
            bound: 0.25,
            base_opts,
            mechanisms: DEFAULT_MECHANISMS.to_vec(),
            threads: 0,
            shard: None,
            perturb: 0.0,
        }
    }
}

/// What mining one cell concluded.
#[derive(Clone, Debug, PartialEq)]
pub enum CellOutcome {
    /// The tiers agree here.
    Consistent,
    /// Confirmed and minimized inconsistency.
    Cliff(Box<CliffRecord>),
    /// The cell could not be probed (e.g. a detailed-run timeout on a
    /// degenerate configuration); recorded so the failure is visible and
    /// memoized like any other outcome.
    Failed(String),
}

/// One mined cell.
#[derive(Clone, Debug)]
pub struct MinedCell {
    /// Cell index within the run's budget.
    pub index: usize,
    /// Sampled benchmark.
    pub benchmark: &'static str,
    /// Sampled config delta.
    pub delta: ConfigDelta,
    /// The conclusion.
    pub outcome: CellOutcome,
    /// Whether the outcome came from the disk cache.
    pub cached: bool,
}

/// A full mining run's results, in cell order.
#[derive(Debug)]
pub struct MineReport {
    /// Every cell, indexed by its sample number.
    pub cells: Vec<MinedCell>,
    /// Cells whose outcome was computed this run.
    pub computed: usize,
    /// Cells served from the disk cache.
    pub cached: usize,
}

impl MineReport {
    /// The confirmed cliff records, in cell order.
    pub fn cliffs(&self) -> Vec<&CliffRecord> {
        self.cells
            .iter()
            .filter_map(|c| match &c.outcome {
                CellOutcome::Cliff(r) => Some(r.as_ref()),
                _ => None,
            })
            .collect()
    }
}

/// The memo key for one cell: every input that can change its outcome,
/// including float bounds bit-exactly and any injected perturbation.
fn memo_key(cfg: &MineConfig, benchmark: &str, delta: &ConfigDelta) -> String {
    let mechs = cfg
        .mechanisms
        .iter()
        .map(|m| m.to_string())
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "mine|{benchmark}|{}|seed={:#x}|skip={}|sim={}|bound={:016x}|mechs={mechs}|perturb={:016x}",
        delta.key(),
        cfg.base_opts.seed,
        cfg.base_opts.window.skip,
        cfg.base_opts.window.simulate,
        cfg.bound.to_bits(),
        cfg.perturb.to_bits(),
    )
}

fn encode_outcome(outcome: &CellOutcome) -> Vec<u8> {
    let mut enc = Encoder::new();
    match outcome {
        CellOutcome::Consistent => enc.put_u8(0),
        CellOutcome::Cliff(record) => {
            enc.put_u8(1);
            enc.put_str(&record.render());
        }
        CellOutcome::Failed(err) => {
            enc.put_u8(2);
            enc.put_str(err);
        }
    }
    enc.into_bytes()
}

fn decode_outcome(bytes: &[u8]) -> Option<CellOutcome> {
    let mut dec = Decoder::new(bytes);
    match dec.take_u8().ok()? {
        0 => Some(CellOutcome::Consistent),
        1 => CliffRecord::parse(dec.take_str().ok()?).map(|r| CellOutcome::Cliff(Box::new(r))),
        2 => Some(CellOutcome::Failed(dec.take_str().ok()?.to_owned())),
        _ => None,
    }
}

/// Probes + minimizes one cell (no caching). Cliffness is judged
/// relative to the benchmark's baseline cell, which is probed first (its
/// detailed runs are memoized, so the cost is shared across the run).
fn compute_cell(
    store: &ArtifactStore,
    cfg: &MineConfig,
    benchmark: &'static str,
    delta: &ConfigDelta,
) -> CellOutcome {
    let baseline = match probe(store, cfg, &ConfigDelta::default(), benchmark) {
        Ok(outcome) => outcome,
        Err(e) => return CellOutcome::Failed(format!("baseline probe: {e}")),
    };
    let first = match probe(store, cfg, delta, benchmark) {
        Ok(outcome) => outcome,
        Err(e) => return CellOutcome::Failed(e.to_string()),
    };
    if first.cliff_kind(&baseline, cfg.bound).is_none() {
        return CellOutcome::Consistent;
    }
    // A probe error during minimization counts as consistent: the
    // reversion is rejected and the knob stays in the delta.
    let minimal = minimize(delta, |candidate| {
        probe(store, cfg, candidate, benchmark)
            .map(|o| o.cliff_kind(&baseline, cfg.bound).is_some())
            .unwrap_or(false)
    });
    let last = match probe(store, cfg, &minimal, benchmark) {
        Ok(outcome) => outcome,
        Err(e) => return CellOutcome::Failed(e.to_string()),
    };
    let kind = last
        .cliff_kind(&baseline, cfg.bound)
        .expect("minimizer preserves the inconsistency");
    // Record the run's *base* window: a win knob in the delta scales the
    // measured slice on re-probe exactly as it did when mined, so the
    // repro line exports the base values, not the scaled ones.
    CellOutcome::Cliff(Box::new(CliffRecord::from_probe(
        benchmark,
        kind,
        &delta.key(),
        &minimal.key(),
        cfg.base_opts.seed,
        cfg.base_opts.window.skip,
        cfg.base_opts.window.simulate,
        cfg.bound,
        cfg.perturb,
        baseline.max_rel_err,
        last.divergence_shift(&baseline),
        &last,
    )))
}

/// Mines one cell, going through the disk cache when available.
fn mine_cell(store: &ArtifactStore, cfg: &MineConfig, index: usize) -> MinedCell {
    let (benchmark, delta) = sample_cell(cfg.base_opts.seed, index as u64, &cfg.base_opts);
    let key = memo_key(cfg, benchmark, &delta);
    if let Some(cache) = store.disk_cache() {
        if let Some(outcome) = cache
            .load(MINE_CACHE_CLASS, &key)
            .and_then(|bytes| decode_outcome(&bytes))
        {
            return MinedCell {
                index,
                benchmark,
                delta,
                outcome,
                cached: true,
            };
        }
    }
    let outcome = compute_cell(store, cfg, benchmark, &delta);
    if let Some(cache) = store.disk_cache() {
        cache.store(MINE_CACHE_CLASS, &key, &encode_outcome(&outcome));
    }
    MinedCell {
        index,
        benchmark,
        delta,
        outcome,
        cached: false,
    }
}

/// Runs a full mining campaign: samples `cfg.budget` cells, probes and
/// minimizes each, and returns the outcomes in cell order.
///
/// Cells are independent, so they fan out over `cfg.threads` workers;
/// result order (and therefore every derived artifact) depends only on
/// the cell index, never on scheduling. With a shard hint the worker
/// probes its own cells first — combined with the lease-coordinated
/// detailed runs underneath, parallel workers split the cold-start cost
/// without diverging on output.
pub fn mine(store: &ArtifactStore, cfg: &MineConfig) -> MineReport {
    let mut order: Vec<usize> = (0..cfg.budget).collect();
    if let Some((index, count)) = cfg.shard {
        if count > 1 {
            order.sort_by_key(|i| ((*i as u32) % count != index, *i));
        }
    }

    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    } else {
        cfg.threads
    }
    .max(1)
    .min(cfg.budget.max(1));

    let slots: Vec<Mutex<Option<MinedCell>>> = (0..cfg.budget).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let pos = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&index) = order.get(pos) else { break };
                let cell = mine_cell(store, cfg, index);
                *slots[index].lock().expect("slot lock") = Some(cell);
            });
        }
    });

    let cells: Vec<MinedCell> = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("slot lock").expect("cell mined"))
        .collect();
    let cached = cells.iter().filter(|c| c.cached).count();
    MineReport {
        computed: cells.len() - cached,
        cached,
        cells,
    }
}

/// Re-probes one cell from a `benchmark:delta` repro spec (the
/// `--mine-cell` flag) and returns the rendered evidence, or an error
/// string.
pub fn reprobe_cell(store: &ArtifactStore, spec: &str, cfg: &MineConfig) -> Result<String, String> {
    let (benchmark, delta_key) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad --mine-cell spec {spec:?}: expected benchmark:delta"))?;
    let delta =
        ConfigDelta::parse(delta_key).ok_or_else(|| format!("bad delta key {delta_key:?}"))?;
    let baseline =
        probe(store, cfg, &ConfigDelta::default(), benchmark).map_err(|e| e.to_string())?;
    let outcome = probe(store, cfg, &delta, benchmark).map_err(|e| e.to_string())?;
    let mut s = String::new();
    s.push_str(&format!("cell {benchmark}:{}\n", delta.key()));
    for p in &outcome.pairs {
        s.push_str(&format!(
            "  {:6} detailed cpi {:.4} speedup {:.4} | analytic cpi {:.4} speedup {:.4}\n",
            p.mechanism.to_string(),
            p.detailed_cpi,
            p.detailed_speedup,
            p.analytic_cpi,
            p.analytic_speedup
        ));
    }
    s.push_str(&format!(
        "  max-rel-err {:.4} (baseline {:.4}) verdict {}\n",
        outcome.max_rel_err,
        baseline.max_rel_err,
        match outcome.cliff_kind(&baseline, cfg.bound) {
            Some(kind) => kind.label(),
            None => "consistent",
        }
    ));
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use microlib_trace::TraceWindow;

    fn tiny_cfg() -> MineConfig {
        let base_opts = SimOptions {
            window: TraceWindow::new(1_000, 2_000),
            ..SimOptions::default()
        };
        MineConfig {
            budget: 4,
            threads: 2,
            ..MineConfig::standard(base_opts)
        }
    }

    #[test]
    fn outcomes_round_trip_through_the_codec() {
        let consistent = CellOutcome::Consistent;
        let failed = CellOutcome::Failed("timeout".into());
        for o in [&consistent, &failed] {
            assert_eq!(decode_outcome(&encode_outcome(o)).as_ref(), Some(o));
        }
    }

    #[test]
    fn memo_keys_separate_perturbed_runs() {
        let mut cfg = tiny_cfg();
        let delta = ConfigDelta::default();
        let a = memo_key(&cfg, "swim", &delta);
        cfg.perturb = 0.07;
        let b = memo_key(&cfg, "swim", &delta);
        assert_ne!(a, b);
    }

    #[test]
    fn mining_is_deterministic_across_thread_counts() {
        let store = ArtifactStore::new();
        let mut cfg = tiny_cfg();
        cfg.threads = 1;
        let one = mine(&store, &cfg);
        cfg.threads = 4;
        let four = mine(&store, &cfg);
        let render = |r: &MineReport| {
            r.cells
                .iter()
                .map(|c| format!("{} {} {:?}", c.benchmark, c.delta.key(), c.outcome))
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&one), render(&four));
    }

    #[test]
    fn shard_hint_reorders_processing_not_results() {
        let store = ArtifactStore::new();
        let mut cfg = tiny_cfg();
        let plain = mine(&store, &cfg);
        cfg.shard = Some((1, 2));
        let sharded = mine(&store, &cfg);
        assert_eq!(plain.cells.len(), sharded.cells.len());
        for (a, b) in plain.cells.iter().zip(&sharded.cells) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.outcome, b.outcome);
        }
    }

    #[test]
    fn reprobe_reports_a_verdict() {
        let store = ArtifactStore::new();
        let cfg = tiny_cfg();
        let text = reprobe_cell(&store, "swim:baseline", &cfg).unwrap();
        assert!(text.contains("verdict"));
        assert!(reprobe_cell(&store, "nonsense", &cfg).is_err());
    }
}
