//! The experiment battery, one module per figure/table of the paper.
//!
//! Every experiment is a plain function `run(cx, w)`: settings and shared
//! sweeps come from the [`Context`] (so a battery run computes the
//! standard campaign once), and all deterministic output goes to `w`
//! (`run_all` captures it under `results/`). Progress and timing go to
//! stderr only — result tables must be bit-identical across runs and
//! thread counts.

use crate::Context;
use std::io;

pub mod ablation_fidelity;
pub mod ablation_sampling;
pub mod fig01_model_validation;
pub mod fig02_reveng_error;
pub mod fig03_dbcp_fix;
pub mod fig04_speedup;
pub mod fig05_power_cost;
pub mod fig06_benchmark_sensitivity;
pub mod fig07_sensitivity_selection;
pub mod fig08_memory_model;
pub mod fig09_mshr;
pub mod fig10_second_guessing;
pub mod fig11_trace_selection;
pub mod tab01_config;
pub mod tab05_prior_comparisons;
pub mod tab06_subset_winners;
pub mod tab07_selection_ranking;

/// The uniform experiment entry point.
pub type ExperimentFn = fn(&mut Context, &mut dyn io::Write) -> io::Result<()>;

/// The full battery in execution order. fig10/fig11 are slow
/// (per-benchmark resimulation); they run last so a partial battery still
/// covers the headline results.
pub const ALL: &[(&str, ExperimentFn)] = &[
    ("ablation_fidelity", ablation_fidelity::run),
    ("ablation_sampling", ablation_sampling::run),
    ("tab01_config", tab01_config::run),
    ("fig01_model_validation", fig01_model_validation::run),
    ("fig02_reveng_error", fig02_reveng_error::run),
    ("fig03_dbcp_fix", fig03_dbcp_fix::run),
    ("fig04_speedup", fig04_speedup::run),
    ("fig05_power_cost", fig05_power_cost::run),
    ("tab05_prior_comparisons", tab05_prior_comparisons::run),
    ("tab06_subset_winners", tab06_subset_winners::run),
    ("tab07_selection_ranking", tab07_selection_ranking::run),
    (
        "fig06_benchmark_sensitivity",
        fig06_benchmark_sensitivity::run,
    ),
    (
        "fig07_sensitivity_selection",
        fig07_sensitivity_selection::run,
    ),
    ("fig08_memory_model", fig08_memory_model::run),
    ("fig09_mshr", fig09_mshr::run),
    ("fig10_second_guessing", fig10_second_guessing::run),
    ("fig11_trace_selection", fig11_trace_selection::run),
];
