//! Probing one cell through both model tiers and deciding whether the
//! tiers are inconsistent there.
//!
//! Both tiers normalize by their own Base run, so the comparison is over
//! mechanism *speedups*, not raw CPI — the analytic stack has a known
//! systematic magnitude bias, and speedup ratios cancel it. The analytic
//! model also carries a per-benchmark *residual* divergence even at the
//! baseline configuration, so cliffness is judged **relative to the
//! benchmark's baseline cell**: a cell is a cliff when moving knobs away
//! from baseline grows the tier divergence beyond the bound
//! ([`CliffKind::Disagreement`]) or introduces a decisive mechanism-pair
//! ordering flip that baseline does not have ([`CliffKind::RankFlip`]).

use crate::space::ConfigDelta;
use microlib::{rank_by_speedup, run_analytic, ArtifactStore, Cell, SimError, SimOptions};
use microlib_mech::MechanismKind;
use std::sync::Arc;

/// The mechanism set probed by default: Base plus four mechanisms chosen
/// for distinct interactions with the analytic model's assumptions
/// (turnaround prefetch, stride prefetch, victim cache, GHB).
pub const DEFAULT_MECHANISMS: [MechanismKind; 5] = [
    MechanismKind::Base,
    MechanismKind::Tp,
    MechanismKind::Sp,
    MechanismKind::Tkvc,
    MechanismKind::Ghb,
];

/// Speedup gap below which two mechanisms are considered tied for
/// rank-flip purposes — orderings inside the margin are noise, not
/// disagreement.
pub const RANK_MARGIN: f64 = 0.02;

/// Reads the injected analytic-CPI perturbation from
/// `MICROLIB_MINE_PERTURB` (fraction, default 0). Read per call so tests
/// and the CI negative gate can toggle it without process restarts.
pub fn perturb_from_env() -> f64 {
    std::env::var("MICROLIB_MINE_PERTURB")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0.0)
}

/// One mechanism's measurements in both tiers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TierPair {
    /// The mechanism.
    pub mechanism: MechanismKind,
    /// Detailed-simulator CPI.
    pub detailed_cpi: f64,
    /// Analytic-stack CPI (after any injected perturbation).
    pub analytic_cpi: f64,
    /// Detailed speedup over the probed Base (1.0 for Base itself).
    pub detailed_speedup: f64,
    /// Analytic speedup over the probed Base (1.0 for Base itself).
    pub analytic_speedup: f64,
}

/// Why a cell is inconsistent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CliffKind {
    /// Tier speedups diverge beyond the bound.
    Disagreement,
    /// The tiers decisively order some mechanism pair opposite ways.
    RankFlip,
}

impl CliffKind {
    /// Stable record label.
    pub fn label(&self) -> &'static str {
        match self {
            CliffKind::Disagreement => "disagreement",
            CliffKind::RankFlip => "rank-flip",
        }
    }

    /// Parses a [`label`](CliffKind::label).
    pub fn parse(s: &str) -> Option<CliffKind> {
        match s {
            "disagreement" => Some(CliffKind::Disagreement),
            "rank-flip" => Some(CliffKind::RankFlip),
            _ => None,
        }
    }
}

/// Both tiers' view of one cell.
#[derive(Clone, Debug, PartialEq)]
pub struct ProbeOutcome {
    /// Per-mechanism measurements, in probe order (Base first).
    pub pairs: Vec<TierPair>,
    /// Non-Base mechanisms by detailed speedup, best first.
    pub detailed_rank: Vec<MechanismKind>,
    /// Non-Base mechanisms by analytic speedup, best first.
    pub analytic_rank: Vec<MechanismKind>,
    /// Largest relative speedup divergence across non-Base mechanisms.
    pub max_rel_err: f64,
}

impl ProbeOutcome {
    /// Signed relative speedup error per non-Base mechanism:
    /// `(analytic − detailed) / detailed`. The analytic tier's
    /// per-mechanism *bias* at this cell.
    pub fn rel_errs(&self) -> Vec<(MechanismKind, f64)> {
        self.pairs
            .iter()
            .filter(|p| p.mechanism != MechanismKind::Base && p.detailed_speedup > 0.0)
            .map(|p| {
                (
                    p.mechanism,
                    (p.analytic_speedup - p.detailed_speedup) / p.detailed_speedup,
                )
            })
            .collect()
    }

    /// The largest per-mechanism *shift* in signed relative error
    /// between `baseline` and this cell — how badly the analytic tier
    /// failed to track the detailed tier's response to the knob change.
    /// Zero for the baseline against itself.
    pub fn divergence_shift(&self, baseline: &ProbeOutcome) -> f64 {
        let base = baseline.rel_errs();
        self.rel_errs()
            .iter()
            .filter_map(|(m, e)| {
                base.iter()
                    .find(|(bm, _)| bm == m)
                    .map(|(_, be)| (e - be).abs())
            })
            .fold(0.0f64, f64::max)
    }

    /// Classifies the cell against the same benchmark's `baseline` cell:
    /// a per-mechanism divergence shift beyond `bound` first, then
    /// decisive ranking flips not present at baseline. By construction
    /// the baseline cell itself is never a cliff, so minimization always
    /// terminates on the knobs that *create* the inconsistency.
    pub fn cliff_kind(&self, baseline: &ProbeOutcome, bound: f64) -> Option<CliffKind> {
        if self.divergence_shift(baseline) > bound {
            return Some(CliffKind::Disagreement);
        }
        let base_flips = baseline.decisive_flips();
        if self
            .decisive_flips()
            .iter()
            .any(|pair| !base_flips.contains(pair))
        {
            return Some(CliffKind::RankFlip);
        }
        None
    }

    /// The mechanism pairs ordered opposite ways by the two tiers with
    /// both tiers' speedup gaps exceeding [`RANK_MARGIN`], in canonical
    /// order.
    pub fn decisive_flips(&self) -> Vec<(MechanismKind, MechanismKind)> {
        let non_base: Vec<&TierPair> = self
            .pairs
            .iter()
            .filter(|p| p.mechanism != MechanismKind::Base)
            .collect();
        let mut flips = Vec::new();
        for (i, a) in non_base.iter().enumerate() {
            for b in &non_base[i + 1..] {
                let d_gap = a.detailed_speedup - b.detailed_speedup;
                let a_gap = a.analytic_speedup - b.analytic_speedup;
                if d_gap.abs() > RANK_MARGIN && a_gap.abs() > RANK_MARGIN && d_gap * a_gap < 0.0 {
                    flips.push((a.mechanism, b.mechanism));
                }
            }
        }
        flips
    }
}

/// Probes one cell: runs every mechanism of `mechanisms` (Base must come
/// first) through the detailed simulator and the analytic tier under
/// `delta` applied to the baseline, and compares the tiers.
///
/// Detailed runs go through [`ArtifactStore::run`], so they are memoized,
/// lease-coordinated and fault-aware exactly like campaign cells; the
/// analytic runs are cheap enough to recompute.
///
/// # Errors
///
/// Propagates any [`SimError`] from either tier (an unknown benchmark,
/// an invalid configuration, a detailed-run timeout on a degenerate
/// cell).
pub fn probe(
    store: &ArtifactStore,
    delta: &ConfigDelta,
    benchmark: &str,
    mechanisms: &[MechanismKind],
    base_opts: &SimOptions,
) -> Result<ProbeOutcome, SimError> {
    assert_eq!(
        mechanisms.first(),
        Some(&MechanismKind::Base),
        "probe mechanism sets must lead with Base"
    );
    let (config, opts) = delta.apply(base_opts);
    let config = Arc::new(config);
    let perturb = perturb_from_env();

    let mut raw = Vec::with_capacity(mechanisms.len());
    for &mech in mechanisms {
        let detailed = store.run(&Cell::new(Arc::clone(&config), benchmark, opts, mech))?;
        let analytic = run_analytic(store, &config, mech, benchmark, &opts)?;
        let detailed_cpi = if detailed.perf.instructions == 0 {
            0.0
        } else {
            detailed.perf.cycles as f64 / detailed.perf.instructions as f64
        };
        raw.push((mech, detailed_cpi, analytic.cpi() * (1.0 + perturb)));
    }

    let (base_d, base_a) = (raw[0].1, raw[0].2);
    let speedup = |base: f64, cpi: f64| if cpi > 0.0 { base / cpi } else { 0.0 };
    let pairs: Vec<TierPair> = raw
        .iter()
        .map(|&(mechanism, detailed_cpi, analytic_cpi)| TierPair {
            mechanism,
            detailed_cpi,
            analytic_cpi,
            detailed_speedup: speedup(base_d, detailed_cpi),
            analytic_speedup: speedup(base_a, analytic_cpi),
        })
        .collect();

    let rank_of = |key: fn(&TierPair) -> f64| -> Vec<MechanismKind> {
        let rows: Vec<(MechanismKind, f64)> = pairs
            .iter()
            .filter(|p| p.mechanism != MechanismKind::Base)
            .map(|p| (p.mechanism, key(p)))
            .collect();
        rank_by_speedup(&rows)
            .into_iter()
            .map(|r| r.mechanism)
            .collect()
    };
    let detailed_rank = rank_of(|p| p.detailed_speedup);
    let analytic_rank = rank_of(|p| p.analytic_speedup);

    let max_rel_err = pairs
        .iter()
        .filter(|p| p.mechanism != MechanismKind::Base && p.detailed_speedup > 0.0)
        .map(|p| (p.analytic_speedup - p.detailed_speedup).abs() / p.detailed_speedup)
        .fold(0.0f64, f64::max);

    Ok(ProbeOutcome {
        pairs,
        detailed_rank,
        analytic_rank,
        max_rel_err,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(m: MechanismKind, d: f64, a: f64) -> TierPair {
        TierPair {
            mechanism: m,
            detailed_cpi: 1.0 / d,
            analytic_cpi: 1.0 / a,
            detailed_speedup: d,
            analytic_speedup: a,
        }
    }

    fn outcome(pairs: Vec<TierPair>) -> ProbeOutcome {
        let max_rel_err = pairs
            .iter()
            .filter(|p| p.mechanism != MechanismKind::Base)
            .map(|p| (p.analytic_speedup - p.detailed_speedup).abs() / p.detailed_speedup)
            .fold(0.0f64, f64::max);
        ProbeOutcome {
            pairs,
            detailed_rank: vec![],
            analytic_rank: vec![],
            max_rel_err,
        }
    }

    fn agreeing_baseline() -> ProbeOutcome {
        outcome(vec![
            pair(MechanismKind::Base, 1.0, 1.0),
            pair(MechanismKind::Sp, 1.20, 1.21),
            pair(MechanismKind::Ghb, 1.10, 1.11),
        ])
    }

    #[test]
    fn agreement_is_not_a_cliff() {
        let o = outcome(vec![
            pair(MechanismKind::Base, 1.0, 1.0),
            pair(MechanismKind::Sp, 1.20, 1.22),
            pair(MechanismKind::Ghb, 1.10, 1.09),
        ]);
        assert_eq!(o.cliff_kind(&agreeing_baseline(), 0.25), None);
    }

    #[test]
    fn baseline_is_never_a_cliff_against_itself() {
        // Even a benchmark whose tiers diverge badly at baseline is
        // consistent relative to itself — only *excess* divergence mines.
        let o = outcome(vec![
            pair(MechanismKind::Base, 1.0, 1.0),
            pair(MechanismKind::Sp, 1.50, 1.05),
            pair(MechanismKind::Ghb, 1.00, 1.10),
        ]);
        assert_eq!(o.cliff_kind(&o, 0.25), None);
    }

    #[test]
    fn excess_divergence_beyond_bound_is_a_disagreement() {
        let o = outcome(vec![
            pair(MechanismKind::Base, 1.0, 1.0),
            pair(MechanismKind::Sp, 1.50, 1.05),
        ]);
        assert_eq!(
            o.cliff_kind(&agreeing_baseline(), 0.25),
            Some(CliffKind::Disagreement)
        );
    }

    #[test]
    fn new_decisive_opposite_ordering_is_a_rank_flip() {
        let o = outcome(vec![
            pair(MechanismKind::Base, 1.0, 1.0),
            pair(MechanismKind::Sp, 1.10, 1.00),
            pair(MechanismKind::Ghb, 1.00, 1.10),
        ]);
        assert_eq!(
            o.cliff_kind(&agreeing_baseline(), 0.25),
            Some(CliffKind::RankFlip)
        );
    }

    #[test]
    fn flips_already_present_at_baseline_do_not_mine() {
        let flipped = outcome(vec![
            pair(MechanismKind::Base, 1.0, 1.0),
            pair(MechanismKind::Sp, 1.10, 1.00),
            pair(MechanismKind::Ghb, 1.00, 1.10),
        ]);
        assert_eq!(flipped.cliff_kind(&flipped, 0.25), None);
    }

    #[test]
    fn flips_within_the_margin_are_ties() {
        let o = outcome(vec![
            pair(MechanismKind::Base, 1.0, 1.0),
            pair(MechanismKind::Sp, 1.010, 1.000),
            pair(MechanismKind::Ghb, 1.000, 1.010),
        ]);
        assert_eq!(o.cliff_kind(&agreeing_baseline(), 0.25), None);
    }

    #[test]
    fn kind_labels_round_trip() {
        for k in [CliffKind::Disagreement, CliffKind::RankFlip] {
            assert_eq!(CliffKind::parse(k.label()), Some(k));
        }
        assert_eq!(CliffKind::parse("avalanche"), None);
    }
}
