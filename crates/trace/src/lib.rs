//! # microlib-trace
//!
//! Workload substrate of the MicroLib reproduction: deterministic synthetic
//! SPEC CPU2000-like instruction traces, basic-block-vector profiling and
//! SimPoint trace selection.
//!
//! The paper simulated 500-million-instruction SimPoint traces of SPEC
//! CPU2000 Alpha binaries; this crate provides a scaled-down substitution
//! — 26 behaviour profiles ([`benchmarks::spec2000`]) turned into concrete
//! memory images and instruction streams ([`Workload`]), plus the real
//! SimPoint machinery ([`BbvProfiler`], [`simpoint`]) applied to those
//! streams.
//!
//! # Examples
//!
//! ```
//! use microlib_trace::{benchmarks, TraceWindow, Workload};
//!
//! let profile = benchmarks::by_name("mcf").expect("known benchmark");
//! let workload = Workload::new(profile, 42);
//! let window = TraceWindow::new(1_000, 10_000);
//! let trace: Vec<_> = window.apply(workload.stream()).collect();
//! assert_eq!(trace.len(), 10_000);
//! ```

#![warn(missing_docs)]

pub mod bbv;
pub mod benchmarks;
mod buffer;
mod inst;
mod profile;
pub mod simpoint;
mod window;
mod workload;

pub use bbv::{BbvInterval, BbvProfiler};
pub use buffer::TraceBuffer;
pub use inst::{BranchInfo, MemRef, OpClass, TraceInst};
pub use profile::{BenchmarkProfile, PhaseProfile, StreamSpec, Suite, FREQUENT_VALUES};
pub use simpoint::{
    choose_simpoints, choose_simpoints_with_probes, primary_simpoint, SamplingPlan, SimPoint,
};
pub use window::TraceWindow;
pub use workload::{InstStream, Workload, BLOCK_CODE_BYTES, CODE_BASE, DATA_BASE, HEAP_BASE};
