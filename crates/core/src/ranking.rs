//! Ranking machinery: Fig 4's mechanism ordering, Table 7's
//! selection-dependent rankings, and Table 6's exhaustive benchmark-subset
//! winner analysis.

use crate::experiment::Matrix;
use microlib_mech::MechanismKind;

/// A ranked mechanism with its mean speedup.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankedMechanism {
    /// The mechanism.
    pub mechanism: MechanismKind,
    /// Rank (1 = best).
    pub rank: usize,
    /// Mean speedup over the selection used.
    pub mean_speedup: f64,
}

/// Ranks all mechanisms of `matrix` by mean speedup over `selection`
/// (descending). Ties break toward the earlier mechanism in the sweep
/// order.
///
/// # Examples
///
/// ```no_run
/// use microlib::{rank_mechanisms, Campaign, ExperimentConfig};
/// use microlib_trace::TraceWindow;
///
/// let cfg = ExperimentConfig::paper_baseline(TraceWindow::new(0, 50_000));
/// let matrix = Campaign::new(cfg.clone()).run()?.into_matrix()?;
/// let names: Vec<&str> = cfg.benchmarks.iter().map(String::as_str).collect();
/// for row in rank_mechanisms(&matrix, &names) {
///     println!("{:2}. {:8} {:.3}", row.rank, row.mechanism, row.mean_speedup);
/// }
/// # Ok::<(), microlib::SimError>(())
/// ```
pub fn rank_mechanisms(matrix: &Matrix, selection: &[&str]) -> Vec<RankedMechanism> {
    let rows: Vec<(MechanismKind, f64)> = matrix
        .mechanisms()
        .iter()
        .map(|k| (*k, matrix.mean_speedup_over(*k, selection)))
        .collect();
    rank_by_speedup(&rows)
}

/// Ranks `(mechanism, speedup)` rows by speedup, descending. Ties break
/// toward the earlier row. The sort uses [`f64::total_cmp`], so the order
/// is well-defined (and stable across std versions) even when a degenerate
/// input produces a NaN speedup — NaN sorts below every real value rather
/// than poisoning the comparator.
///
/// This is the single ranking primitive: both the matrix-level
/// [`rank_mechanisms`] and the miner's per-tier rankings go through it, so
/// a tier ranking flip can never be an artifact of two different sort
/// rules.
pub fn rank_by_speedup(rows: &[(MechanismKind, f64)]) -> Vec<RankedMechanism> {
    let mut indexed: Vec<(usize, MechanismKind, f64)> = rows
        .iter()
        .enumerate()
        .map(|(i, (k, s))| (i, *k, *s))
        .collect();
    indexed.sort_by(|a, b| match (a.2.is_nan(), b.2.is_nan()) {
        // NaN rows sink below every real speedup (total_cmp alone would
        // float positive NaN above +inf in a descending sort).
        (true, true) => a.0.cmp(&b.0),
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)),
    });
    indexed
        .into_iter()
        .enumerate()
        .map(|(rank, (_, mechanism, mean_speedup))| RankedMechanism {
            mechanism,
            rank: rank + 1,
            mean_speedup,
        })
        .collect()
}

/// Rank (1 = best) of each mechanism in sweep order, for one selection —
/// one row of Table 7.
pub fn ranking_row(matrix: &Matrix, selection: &[&str]) -> Vec<usize> {
    let ranked = rank_mechanisms(matrix, selection);
    matrix
        .mechanisms()
        .iter()
        .map(|k| {
            ranked
                .iter()
                .find(|r| r.mechanism == *k)
                .expect("mechanism present")
                .rank
        })
        .collect()
}

/// Table 6: for every subset size N, which mechanisms can win some
/// N-benchmark selection (winner = highest mean speedup over the subset).
#[derive(Clone, Debug)]
pub struct SubsetWinners {
    /// Mechanisms in sweep order.
    pub mechanisms: Vec<MechanismKind>,
    /// `can_win[m][n-1]` — whether mechanism `m` wins some subset of size
    /// `n`.
    pub can_win: Vec<Vec<bool>>,
    /// Number of benchmarks analyzed.
    pub benchmark_count: usize,
}

impl SubsetWinners {
    /// Whether `mechanism` wins some subset of size `n`.
    pub fn wins_at(&self, mechanism: MechanismKind, n: usize) -> bool {
        let m = self
            .mechanisms
            .iter()
            .position(|k| *k == mechanism)
            .expect("mechanism analyzed");
        self.can_win[m][n - 1]
    }

    /// Largest subset size `mechanism` can still win, if any.
    pub fn max_winning_size(&self, mechanism: MechanismKind) -> Option<usize> {
        let m = self.mechanisms.iter().position(|k| *k == mechanism)?;
        (1..=self.benchmark_count)
            .rev()
            .find(|n| self.can_win[m][n - 1])
    }

    /// Number of distinct winners possible at subset size `n`.
    pub fn winners_at(&self, n: usize) -> usize {
        self.can_win.iter().filter(|row| row[n - 1]).count()
    }
}

/// Exhaustively enumerates every benchmark subset (Gray-code walk, one
/// add/remove per step) and records, per subset size, which mechanism wins.
///
/// The paper: "we have ranked the different mechanisms for every possible
/// benchmark combination, from 1 to 26 benchmarks". With 26 benchmarks this
/// is 2²⁶ ≈ 67 M subsets; the incremental walk keeps it to a few seconds in
/// release builds.
///
/// # Panics
///
/// Panics if the matrix holds more than 26 benchmarks (2³⁰⁺ subsets would
/// not be a sensible exhaustive enumeration).
pub fn subset_winner_analysis(matrix: &Matrix) -> SubsetWinners {
    let mechanisms = matrix.mechanisms().to_vec();
    let benches = matrix.benchmarks().len();
    assert!(
        benches <= 26,
        "exhaustive enumeration capped at 26 benchmarks"
    );
    assert!(benches >= 1, "need at least one benchmark");

    // speedups[m][b]
    let speedups: Vec<Vec<f64>> = mechanisms.iter().map(|k| matrix.speedups_for(*k)).collect();

    let m_count = mechanisms.len();
    let mut sums = vec![0.0f64; m_count];
    let mut can_win = vec![vec![false; benches]; m_count];
    let mut members: u32 = 0; // popcount tracker

    // Standard binary-reflected Gray code: subset(i) = i ^ (i >> 1); the
    // bit toggled between steps i-1 and i is trailing_zeros(i).
    let total: u64 = 1u64 << benches;
    for i in 1..total {
        let bit = i.trailing_zeros() as usize;
        let gray = i ^ (i >> 1);
        let added = gray & (1 << bit) != 0;
        if added {
            members += 1;
            for (m, s) in sums.iter_mut().enumerate() {
                *s += speedups[m][bit];
            }
        } else {
            members -= 1;
            for (m, s) in sums.iter_mut().enumerate() {
                *s -= speedups[m][bit];
            }
        }
        if members == 0 {
            continue;
        }
        // Winner: strictly greatest sum (first index on exact ties).
        let mut best = 0;
        for m in 1..m_count {
            if sums[m] > sums[best] {
                best = m;
            }
        }
        can_win[best][(members - 1) as usize] = true;
    }

    SubsetWinners {
        mechanisms,
        can_win,
        benchmark_count: benches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use microlib_model::SystemConfig;
    use microlib_trace::TraceWindow;

    fn small_matrix() -> Matrix {
        let cfg = ExperimentConfig {
            system: SystemConfig::baseline_constant_memory(),
            benchmarks: vec!["swim".into(), "gzip".into(), "crafty".into()],
            mechanisms: vec![MechanismKind::Base, MechanismKind::Tp, MechanismKind::Sp],
            window: TraceWindow::new(0, 2_000),
            seed: 3,
            threads: 0,
            sampling: crate::SamplingMode::Full,
        };
        crate::Campaign::new(cfg)
            .run()
            .unwrap()
            .into_matrix()
            .unwrap()
    }

    #[test]
    fn ranking_is_a_permutation() {
        let m = small_matrix();
        let names: Vec<&str> = m.benchmarks().iter().map(String::as_str).collect();
        let row = ranking_row(&m, &names);
        let mut sorted = row.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3]);
    }

    #[test]
    fn rank_one_has_highest_mean() {
        let m = small_matrix();
        let names: Vec<&str> = m.benchmarks().iter().map(String::as_str).collect();
        let ranked = rank_mechanisms(&m, &names);
        assert_eq!(ranked[0].rank, 1);
        assert!(ranked[0].mean_speedup >= ranked[1].mean_speedup);
        assert!(ranked[1].mean_speedup >= ranked[2].mean_speedup);
    }

    #[test]
    fn rank_by_speedup_is_total_even_with_nan() {
        // Regression: the old comparator used partial_cmp().unwrap_or(Equal),
        // which is not a total order when a degenerate speedup is NaN and
        // could give unspecified orderings. total_cmp sorts NaN last.
        let rows = [
            (MechanismKind::Tp, f64::NAN),
            (MechanismKind::Sp, 1.2),
            (MechanismKind::Base, 1.0),
            (MechanismKind::Ghb, f64::NAN),
        ];
        let ranked = rank_by_speedup(&rows);
        assert_eq!(ranked[0].mechanism, MechanismKind::Sp);
        assert_eq!(ranked[1].mechanism, MechanismKind::Base);
        // Both NaNs sort below every real value, original order preserved.
        assert_eq!(ranked[2].mechanism, MechanismKind::Tp);
        assert_eq!(ranked[3].mechanism, MechanismKind::Ghb);
        assert_eq!(
            ranked.iter().map(|r| r.rank).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn rank_by_speedup_breaks_ties_by_position() {
        let rows = [
            (MechanismKind::Base, 1.0),
            (MechanismKind::Vc, 1.5),
            (MechanismKind::Tp, 1.5),
        ];
        let ranked = rank_by_speedup(&rows);
        assert_eq!(ranked[0].mechanism, MechanismKind::Vc);
        assert_eq!(ranked[1].mechanism, MechanismKind::Tp);
    }

    #[test]
    fn subset_analysis_covers_all_sizes() {
        let m = small_matrix();
        let analysis = subset_winner_analysis(&m);
        // Exactly one winner of the full set.
        assert_eq!(analysis.winners_at(3), 1);
        // Every size has at least one winner.
        for n in 1..=3 {
            assert!(analysis.winners_at(n) >= 1);
        }
    }

    #[test]
    fn full_set_winner_matches_ranking() {
        let m = small_matrix();
        let names: Vec<&str> = m.benchmarks().iter().map(String::as_str).collect();
        let best = rank_mechanisms(&m, &names)[0].mechanism;
        let analysis = subset_winner_analysis(&m);
        assert!(analysis.wins_at(best, 3));
        assert_eq!(analysis.max_winning_size(best), Some(3));
    }

    #[test]
    fn synthetic_subset_winner_check() {
        // Hand-verifiable case via a crafted matrix: use the real runner
        // but check internal consistency — a mechanism that wins no
        // single-benchmark selection cannot be the full-set winner unless
        // means interact; verify winners_at(1) equals the number of
        // distinct per-benchmark argmaxes.
        let m = small_matrix();
        let analysis = subset_winner_analysis(&m);
        let mut single_winners = std::collections::HashSet::new();
        for b in m.benchmarks() {
            let mut best = (MechanismKind::Base, f64::MIN);
            for k in m.mechanisms() {
                let s = m.speedup(b, *k);
                if s > best.1 {
                    best = (*k, s);
                }
            }
            single_winners.insert(format!("{:?}", best.0));
        }
        assert_eq!(analysis.winners_at(1), single_winners.len());
    }
}
