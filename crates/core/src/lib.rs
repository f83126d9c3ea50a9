//! # microlib
//!
//! A Rust reproduction of **MicroLib** — *"MicroLib: A Case for the
//! Quantitative Comparison of Micro-Architecture Mechanisms"* (Gracia
//! Pérez, Mouchard, Temam; MICRO 2004): an open library of modular
//! processor-simulator components, populated with the paper's thirteen
//! data-cache mechanism configurations, plus the complete quantitative-
//! comparison methodology (ranking, benchmark-selection analysis,
//! model-precision studies, trace-selection studies).
//!
//! ## Architecture
//!
//! | Crate | Role |
//! |---|---|
//! | [`microlib_model`] | shared vocabulary: events, the `Mechanism` trait, Table 1 configuration |
//! | [`microlib_mem`] | functional memory, detailed caches/MSHRs/buses, SDRAM |
//! | [`microlib_trace`] | 26 synthetic SPEC CPU2000 workloads, BBV + SimPoint |
//! | [`microlib_cpu`] | out-of-order RUU/LSQ core (sim-outorder-like) |
//! | [`microlib_mech`] | the mechanisms: TP, VC, SP, Markov, FVC, DBCP(+initial), TKVC, TK, CDP, CDPSP, TCP, GHB |
//! | [`microlib_cost`] | CACTI-like area + XCACTI-like energy models |
//! | `microlib` (this crate) | simulation driver, campaign engine, experiment matrix, ranking & analysis |
//!
//! Every simulation is a [`Cell`] — configuration, benchmark, options and
//! mechanism — answered by [`ArtifactStore::run`], which shares traces,
//! warm states and sampling plans across cells and memoizes results (a
//! [disabled](ArtifactStore::disabled) store is the cold path). Sweeps run
//! on the [`Campaign`] engine: a rayon-backed work-stealing pool over the
//! (benchmark × mechanism) grid with deterministic result ordering,
//! per-cell error capture and structured progress reporting.
//!
//! ## Quick start
//!
//! ```
//! use microlib::{run_one, SimOptions};
//! use microlib_mech::MechanismKind;
//! use microlib_model::SystemConfig;
//! use microlib_trace::TraceWindow;
//!
//! let opts = SimOptions {
//!     window: TraceWindow::new(0, 5_000),
//!     ..SimOptions::default()
//! };
//! let config = SystemConfig::baseline_constant_memory();
//! let base = run_one(&config, MechanismKind::Base, "swim", &opts)?;
//! let ghb = run_one(&config, MechanismKind::Ghb, "swim", &opts)?;
//! println!(
//!     "GHB speedup on swim: {:.3}",
//!     ghb.perf.speedup_over(&base.perf)
//! );
//! # Ok::<(), microlib::SimError>(())
//! ```
//!
//! The `crates/bench` experiment binaries regenerate every figure and
//! table of the paper; `run_all` runs the whole battery.

#![warn(missing_docs)]

mod analytic;
mod artifacts;
mod campaign;
mod cell;
mod disk;
mod experiment;
pub mod fault;
mod lease;
mod ranking;
pub mod report;
mod sampling;
mod sensitivity;
mod shard;
mod simulator;
mod validation;

pub use analytic::{run_analytic, AnalyticResult};
pub use artifacts::{config_key, ArtifactStore, ArtifactStoreStats, FinishGuard};
pub use campaign::{Campaign, CampaignCell, CampaignReport, CellUpdate};
pub use cell::{Cell, CellMechanism, MechanismBuilder};
pub use disk::{DiskCache, FORMAT_VERSION};
pub use experiment::{ExperimentConfig, Matrix};
pub use lease::{set_run_scope, Claim, LeaseGuard, LeaseManager, QuarantineReport};
pub use ranking::{
    rank_by_speedup, rank_mechanisms, ranking_row, subset_winner_analysis, RankedMechanism,
    SubsetWinners,
};
pub use sampling::SamplingMode;
pub use sensitivity::{benchmark_sensitivity, sensitivity_classes, BenchmarkSensitivity};
pub use shard::ShardSpec;
pub use simulator::{run_one, RunResult, SimError, SimOptions};
pub use validation::{
    article_speedup, compare_dbcp_variants, compare_fidelity, compare_setups, speedup_of,
    DbcpComparison, FidelityComparison, SetupComparison,
};

// Re-export the component crates so downstream users need only one
// dependency (the "library" face of MicroLib).
pub use microlib_cost as cost;
pub use microlib_cpu as cpu;
pub use microlib_mech as mech;
pub use microlib_mem as mem;
pub use microlib_model as model;
pub use microlib_trace as trace;
