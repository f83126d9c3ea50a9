//! # microlib-cost
//!
//! Cost models for the MicroLib reproduction's Fig 5: a CACTI 3.2-like
//! analytical SRAM **area** model ([`AreaModel`]) and an XCACTI-like
//! **energy** model ([`EnergyModel`]) that multiplies per-access energies
//! by activity counts measured in simulation.
//!
//! Both models are substitutions for the closed tools the paper used: Fig 5
//! reports *ratios* relative to the base cache hierarchy, and those ratios
//! are dominated by storage bits and activity, which these models capture.
//!
//! # Examples
//!
//! ```
//! use microlib_cost::{AreaModel, EnergyModel};
//! use microlib_mech::MechanismKind;
//!
//! let area = AreaModel::default();
//! let markov = MechanismKind::Markov.build().hardware();
//! let ghb = MechanismKind::Ghb.build().hardware();
//! // Fig 5 shape: Markov's megabyte table dwarfs GHB's.
//! assert!(area.cost_ratio(&markov) > 50.0 * area.cost_ratio(&ghb));
//! ```

#![warn(missing_docs)]

mod area;
mod cpi;
mod power;

pub use area::AreaModel;
pub use cpi::{CpiBreakdown, CpiCounters, CpiModel};
pub use power::{CostModels, EnergyModel, RunActivity};
