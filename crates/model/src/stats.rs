//! Statistics primitives shared across components: cache counters, memory
//! counters, and the derived metrics (IPC, miss ratio, speedup) the paper
//! reports.

use std::fmt;

/// Declares a bundle of `u64` counters once and derives everything that
/// walks its fields, so adding a counter is one line in the declaration:
///
/// - the struct itself, with the attributes and doc comments given;
/// - its [`BinCodec`](crate::BinCodec): every field as a `u64`, in
///   declaration order (that order is the on-disk memo layout);
/// - field-wise `Sub` (an interval's delta; like `-`, it panics on
///   underflow in debug builds) and `Add`;
/// - `from_fn(|get| …)`, which builds each field from the closure, called
///   once per field in declaration order with that field's accessor;
/// - `fields()`, every `(name, value)` pair in declaration order.
///
/// A trailing `atomic Name;` also declares a module-private twin holding
/// one `AtomicU64` per field, for counters bumped from several threads;
/// its `snapshot()` reads every field (`Relaxed`) into the plain bundle.
///
/// # Examples
///
/// ```
/// microlib_model::counters! {
///     /// Two counters.
///     #[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
///     pub struct Pair {
///         /// First.
///         pub a: u64,
///         /// Second.
///         pub b: u64,
///     }
/// }
///
/// let end = Pair { a: 5, b: 7 };
/// let start = Pair { a: 1, b: 2 };
/// assert_eq!(end - start, Pair { a: 4, b: 5 });
/// assert_eq!(Pair::from_fn(|get| get(&end) * 10), Pair { a: 50, b: 70 });
/// assert_eq!(end.fields().collect::<Vec<_>>(), [("a", 5), ("b", 7)]);
/// ```
#[macro_export]
macro_rules! counters {
    (@atomic [] $name:ident { $($field:ident)+ }) => {};
    (@atomic [$atomic:ident] $name:ident { $($field:ident)+ }) => {
        #[derive(Debug, Default)]
        struct $atomic {
            $( $field: ::std::sync::atomic::AtomicU64, )+
        }

        impl $atomic {
            fn snapshot(&self) -> $name {
                use ::std::sync::atomic::Ordering::Relaxed;
                $name { $( $field: self.$field.load(Relaxed), )+ }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident: u64, )+
        }
        $( atomic $atomic:ident; )?
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: u64, )+
        }

        impl $name {
            /// Builds every counter from `f`, called once per field in
            /// declaration order with that field's accessor.
            pub fn from_fn(mut f: impl FnMut(fn(&Self) -> u64) -> u64) -> Self {
                $name { $( $field: f(|s| s.$field), )+ }
            }

            /// Every counter as `(name, value)`, in declaration order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$( (stringify!($field), self.$field) ),+].into_iter()
            }
        }

        impl ::std::ops::Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                $name { $( $field: self.$field - rhs.$field, )+ }
            }
        }

        impl ::std::ops::Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                $name { $( $field: self.$field + rhs.$field, )+ }
            }
        }

        impl $crate::codec::BinCodec for $name {
            fn encode(&self, e: &mut $crate::codec::Encoder) {
                $( e.put_u64(self.$field); )+
            }
            fn decode(
                d: &mut $crate::codec::Decoder<'_>,
            ) -> ::std::result::Result<Self, $crate::codec::CodecError> {
                Ok($name { $( $field: d.take_u64()?, )+ })
            }
        }

        $crate::counters!(@atomic [$($atomic)?] $name { $($field)+ });
    };
}

counters! {
    /// Counters accumulated by one cache level.
    #[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
    pub struct CacheStats {
        /// Demand load accesses.
        pub loads: u64,
        /// Demand store accesses.
        pub stores: u64,
        /// Demand misses (loads + stores).
        pub misses: u64,
        /// Misses serviced by mechanism sidecar storage.
        pub sidecar_hits: u64,
        /// Misses merged into an existing MSHR entry.
        pub mshr_merges: u64,
        /// Cycles a request stalled because every MSHR was busy or full.
        pub mshr_full_stalls: u64,
        /// Cycles a request stalled on a cache-pipeline hazard.
        pub pipeline_stalls: u64,
        /// Cycles a request stalled because no port was free.
        pub port_stalls: u64,
        /// Lines filled (demand).
        pub demand_fills: u64,
        /// Lines filled (prefetch).
        pub prefetch_fills: u64,
        /// Prefetched lines that saw a later demand hit.
        pub useful_prefetches: u64,
        /// Dirty victims written back.
        pub writebacks: u64,
        /// Evictions of prefetched-but-never-used lines.
        pub useless_prefetch_evictions: u64,
    }
}

impl CacheStats {
    /// Total demand accesses.
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }

    /// Demand miss ratio, if any access occurred.
    pub fn miss_ratio(&self) -> Option<f64> {
        let a = self.accesses();
        (a > 0).then(|| self.misses as f64 / a as f64)
    }

    /// Fraction of prefetch fills that turned out useful.
    pub fn prefetch_accuracy(&self) -> Option<f64> {
        (self.prefetch_fills > 0)
            .then(|| self.useful_prefetches as f64 / self.prefetch_fills as f64)
    }
}

counters! {
    /// Counters accumulated by the main-memory model.
    #[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
    pub struct MemoryStats {
        /// Requests serviced.
        pub requests: u64,
        /// Sum of request latencies (CPU cycles), for averaging.
        pub total_latency: u64,
        /// Row-buffer hits (SDRAM only).
        pub row_hits: u64,
        /// Row conflicts requiring precharge (SDRAM only).
        pub precharges: u64,
        /// Cycles the memory bus was busy.
        pub bus_busy_cycles: u64,
        /// Cycles at least one request waited in the controller queue.
        pub queue_wait_cycles: u64,
    }
}

impl MemoryStats {
    /// Mean request latency in CPU cycles.
    pub fn average_latency(&self) -> Option<f64> {
        (self.requests > 0).then(|| self.total_latency as f64 / self.requests as f64)
    }

    /// Row-buffer hit ratio.
    pub fn row_hit_ratio(&self) -> Option<f64> {
        (self.requests > 0).then(|| self.row_hits as f64 / self.requests as f64)
    }
}

counters! {
    /// End-of-run performance summary for one simulation.
    #[derive(Clone, Copy, Default, PartialEq, Debug)]
    pub struct PerfSummary {
        /// Instructions committed.
        pub instructions: u64,
        /// Cycles elapsed.
        pub cycles: u64,
    }
}

impl PerfSummary {
    /// Instructions per cycle.
    ///
    /// # Examples
    ///
    /// ```
    /// use microlib_model::PerfSummary;
    ///
    /// let p = PerfSummary { instructions: 300, cycles: 150 };
    /// assert!((p.ipc() - 2.0).abs() < 1e-12);
    /// ```
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Speedup of `self` relative to `baseline` (ratio of IPCs, the metric
    /// of Figs 2–4 and 6–11).
    pub fn speedup_over(&self, baseline: &PerfSummary) -> f64 {
        let base = baseline.ipc();
        if base == 0.0 {
            0.0
        } else {
            self.ipc() / base
        }
    }
}

impl fmt::Display for PerfSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instructions in {} cycles (IPC {:.3})",
            self.instructions,
            self.cycles,
            self.ipc()
        )
    }
}

/// Geometric mean of a slice of positive values (used for speedup averages
/// where indicated; the paper's averages over benchmarks are arithmetic,
/// which [`mean`] provides).
///
/// # Examples
///
/// ```
/// use microlib_model::stats::{geometric_mean, mean};
///
/// assert!((geometric_mean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
/// assert!((mean(&[1.0, 3.0]).unwrap() - 2.0).abs() < 1e-12);
/// ```
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Arithmetic mean of a slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Sample standard deviation of a slice (n−1 denominator).
pub fn std_dev(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let m = mean(values)?;
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64;
    Some(var.sqrt())
}

/// Weighted arithmetic mean of `(weight, value)` pairs.
///
/// Returns `None` for an empty slice or non-positive total weight.
///
/// # Examples
///
/// ```
/// use microlib_model::stats::weighted_mean;
///
/// let m = weighted_mean(&[(0.75, 2.0), (0.25, 6.0)]).unwrap();
/// assert!((m - 3.0).abs() < 1e-12);
/// ```
pub fn weighted_mean(pairs: &[(f64, f64)]) -> Option<f64> {
    let total: f64 = pairs.iter().map(|(w, _)| w).sum();
    if pairs.is_empty() || total <= 0.0 {
        return None;
    }
    Some(pairs.iter().map(|(w, v)| w * v).sum::<f64>() / total)
}

/// Weighted population standard deviation of `(weight, value)` pairs —
/// the dispersion of the values around their [`weighted_mean`].
///
/// Returns `None` under the same conditions as [`weighted_mean`].
pub fn weighted_std_dev(pairs: &[(f64, f64)]) -> Option<f64> {
    let m = weighted_mean(pairs)?;
    let total: f64 = pairs.iter().map(|(w, _)| w).sum();
    let var = pairs
        .iter()
        .map(|(w, v)| w * (v - m) * (v - m))
        .sum::<f64>()
        / total;
    Some(var.sqrt())
}

/// Relative margin added to the sampling error bound to cover the error
/// sources the between-cluster dispersion cannot see: the representative
/// interval deviating from its cluster mean, pipeline fill/drain at slice
/// boundaries, and extrapolation over a partial trailing interval.
pub const WITHIN_CLUSTER_MARGIN: f64 = 0.02;

/// One simulated representative interval of a sampled run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SampledPoint {
    /// Interval index within the sampled region (0 = the first interval
    /// after the region start).
    pub interval: usize,
    /// Cluster weight (fraction of all profiled intervals this point
    /// stands for; weights over a run sum to 1).
    pub weight: f64,
    /// Cycles per instruction measured over the interval's detailed slice.
    pub cpi: f64,
}

/// How a sampled run's whole-window estimate was reconstructed: the
/// simulated representative intervals, the weighted-CPI estimate, and a
/// heuristic error bound.
///
/// The bound is the weighted between-cluster standard deviation of the
/// per-interval CPIs plus [`WITHIN_CLUSTER_MARGIN`] of the estimate —
/// clusters that disagree strongly make the extrapolation less
/// trustworthy, and the margin covers within-cluster variation that
/// simulating one representative per cluster cannot measure. It is a
/// reported confidence figure, not a statistical guarantee.
///
/// # Examples
///
/// ```
/// use microlib_model::stats::{SampledPoint, SamplingEstimate};
///
/// let est = SamplingEstimate::from_points(vec![
///     SampledPoint { interval: 1, weight: 0.5, cpi: 1.0 },
///     SampledPoint { interval: 6, weight: 0.5, cpi: 3.0 },
/// ]);
/// assert!((est.cpi - 2.0).abs() < 1e-12);
/// assert!(est.cpi_error_bound >= 1.0, "clusters disagree by ±1 CPI");
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct SamplingEstimate {
    /// The simulated representative intervals, in interval order.
    pub points: Vec<SampledPoint>,
    /// Weighted whole-window CPI estimate.
    pub cpi: f64,
    /// Absolute CPI error bound on the estimate (see the type docs).
    pub cpi_error_bound: f64,
}

impl SamplingEstimate {
    /// Builds the estimate from simulated points (weighted mean + bound).
    pub fn from_points(points: Vec<SampledPoint>) -> Self {
        let pairs: Vec<(f64, f64)> = points.iter().map(|p| (p.weight, p.cpi)).collect();
        let cpi = weighted_mean(&pairs).unwrap_or(0.0);
        let spread = weighted_std_dev(&pairs).unwrap_or(0.0);
        SamplingEstimate {
            points,
            cpi,
            cpi_error_bound: spread + WITHIN_CLUSTER_MARGIN * cpi,
        }
    }

    /// The error bound relative to the estimate (e.g. `0.03` = ±3%).
    pub fn relative_error_bound(&self) -> f64 {
        if self.cpi == 0.0 {
            0.0
        } else {
            self.cpi_error_bound / self.cpi
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_stats_ratios() {
        let s = CacheStats {
            loads: 60,
            stores: 40,
            misses: 25,
            prefetch_fills: 10,
            useful_prefetches: 4,
            ..CacheStats::default()
        };
        assert_eq!(s.accesses(), 100);
        assert!((s.miss_ratio().unwrap() - 0.25).abs() < 1e-12);
        assert!((s.prefetch_accuracy().unwrap() - 0.4).abs() < 1e-12);
        assert!(CacheStats::default().miss_ratio().is_none());
    }

    #[test]
    fn memory_stats_latency() {
        let s = MemoryStats {
            requests: 4,
            total_latency: 700,
            row_hits: 1,
            ..MemoryStats::default()
        };
        assert!((s.average_latency().unwrap() - 175.0).abs() < 1e-12);
        assert!((s.row_hit_ratio().unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn perf_summary_speedup() {
        let base = PerfSummary {
            instructions: 1000,
            cycles: 1000,
        };
        let fast = PerfSummary {
            instructions: 1000,
            cycles: 500,
        };
        assert!((fast.speedup_over(&base) - 2.0).abs() < 1e-12);
        assert!((base.speedup_over(&base) - 1.0).abs() < 1e-12);
        assert_eq!(PerfSummary::default().ipc(), 0.0);
    }

    #[test]
    fn weighted_stats() {
        assert!(weighted_mean(&[]).is_none());
        assert!(weighted_mean(&[(0.0, 1.0)]).is_none());
        let pairs = [(0.25, 4.0), (0.75, 8.0)];
        assert!((weighted_mean(&pairs).unwrap() - 7.0).abs() < 1e-12);
        // Spread of {4 (w .25), 8 (w .75)} around 7: sqrt(.25*9 + .75*1) = sqrt(3).
        assert!((weighted_std_dev(&pairs).unwrap() - 3.0_f64.sqrt()).abs() < 1e-12);
        // Unnormalized weights are normalized.
        let scaled = [(1.0, 4.0), (3.0, 8.0)];
        assert!((weighted_mean(&scaled).unwrap() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_estimate_single_point_has_floor_bound() {
        let est = SamplingEstimate::from_points(vec![SampledPoint {
            interval: 3,
            weight: 1.0,
            cpi: 2.0,
        }]);
        assert!((est.cpi - 2.0).abs() < 1e-12);
        assert!((est.cpi_error_bound - WITHIN_CLUSTER_MARGIN * 2.0).abs() < 1e-12);
        assert!((est.relative_error_bound() - WITHIN_CLUSTER_MARGIN).abs() < 1e-12);
    }

    #[test]
    fn means() {
        assert!(mean(&[]).is_none());
        assert!(geometric_mean(&[]).is_none());
        assert!(geometric_mean(&[0.0]).is_none());
        assert!((mean(&[2.0, 4.0]).unwrap() - 3.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!(std_dev(&[1.0]).is_none());
        assert!((std_dev(&[1.0, 3.0]).unwrap() - std::f64::consts::SQRT_2).abs() < 1e-12);
    }
}
