//! # microlib-miner
//!
//! A differential inconsistency miner over MicroLib's two model tiers:
//! the detailed out-of-order simulator and the cheap analytic CPI stack
//! ([`microlib_cost::CpiModel`] fed by functional-warm counters via
//! [`microlib::run_analytic`]).
//!
//! The miner walks a deterministic sample of configuration space
//! ([`KNOBS`]): for each cell it measures every mechanism of a fixed set
//! in both tiers, normalizes to Base, and flags the cell when the tiers'
//! speedups diverge beyond a bound or decisively *rank* mechanisms
//! opposite ways. Hits are minimized AnICA-style ([`minimize`]) — greedy
//! per-knob reversion toward the baseline until the inconsistency
//! disappears — and emitted as content-keyed, byte-reproducible
//! [`CliffRecord`]s. Per-cell outcomes are memoized through the shared
//! disk cache, so mining is incremental and resumable, and the committed
//! `cliffs-golden/` corpus turns confirmed cliffs into permanent
//! regression cells.
//!
//! # Examples
//!
//! ```
//! use microlib::{ArtifactStore, SimOptions};
//! use microlib_miner::{mine, MineConfig};
//! use microlib_trace::TraceWindow;
//!
//! let store = ArtifactStore::new();
//! let base_opts = SimOptions {
//!     window: TraceWindow::new(1_000, 2_000),
//!     ..SimOptions::default()
//! };
//! let cfg = MineConfig {
//!     budget: 2,
//!     ..MineConfig::standard(base_opts)
//! };
//! let report = mine(&store, &cfg);
//! assert_eq!(report.cells.len(), 2);
//! ```

mod cliff;
mod mine;
mod minimize;
mod probe;
mod space;

pub use cliff::CliffRecord;
pub use mine::{
    mine, reprobe_cell, CellOutcome, MineConfig, MineReport, MinedCell, MINE_CACHE_CLASS,
};
pub use minimize::minimize;
pub use probe::{probe, CliffKind, ProbeOutcome, TierPair, DEFAULT_MECHANISMS, RANK_MARGIN};
pub use space::{sample_cell, ConfigDelta, Knob, KNOBS, MINE_BENCHMARKS};
