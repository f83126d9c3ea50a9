//! The one cell entry point: a [`Cell`] names everything a simulation
//! depends on, and [`ArtifactStore::run`] answers it — from the memo, or
//! by simulating through the store's shared artifacts.

use crate::artifacts::ArtifactStore;
use crate::sampling::run_sampled;
use crate::simulator::{simulate, Plan, RunResult, SimError, SimOptions};
use microlib_mech::MechanismKind;
use microlib_model::{Mechanism, SystemConfig};
use std::fmt;
use std::sync::Arc;

/// Builds a fresh instance of a caller-constructed mechanism.
pub type MechanismBuilder = Arc<dyn Fn() -> Box<dyn Mechanism> + Send + Sync>;

/// The mechanism a [`Cell`] simulates.
#[derive(Clone)]
pub enum CellMechanism {
    /// A registered configuration, built by [`MechanismKind::build`].
    Kind(MechanismKind),
    /// A caller-constructed instance — the hook for parameter studies
    /// such as Fig 10's prefetch-queue-size sweep.
    ///
    /// `variant` must name **every** parameter `build` sets beyond what
    /// `label` implies (e.g. `"queue=1"` for a TCP with a 1-entry request
    /// queue): together with the label and the regular content key it is
    /// the cell's memo identity, so two different instances under the same
    /// `(label, variant)` would alias.
    ///
    /// Custom cells always simulate the full window, whatever their
    /// [`sampling`](SimOptions::sampling) option says.
    Custom {
        /// The configuration the result rows are tagged with.
        label: MechanismKind,
        /// What distinguishes this instance from the stock `label`.
        variant: String,
        /// Builds the instance to simulate.
        build: MechanismBuilder,
    },
}

impl CellMechanism {
    /// A custom mechanism cell: `build` constructs the instance, `label`
    /// tags its results and `variant` names its construction (see
    /// [`CellMechanism::Custom`]).
    pub fn custom(
        label: MechanismKind,
        variant: impl Into<String>,
        build: impl Fn() -> Box<dyn Mechanism> + Send + Sync + 'static,
    ) -> Self {
        CellMechanism::Custom {
            label,
            variant: variant.into(),
            build: Arc::new(build),
        }
    }

    /// The configuration results are tagged with.
    pub fn label(&self) -> MechanismKind {
        match self {
            CellMechanism::Kind(kind) => *kind,
            CellMechanism::Custom { label, .. } => *label,
        }
    }
}

impl From<MechanismKind> for CellMechanism {
    fn from(kind: MechanismKind) -> Self {
        CellMechanism::Kind(kind)
    }
}

impl fmt::Debug for CellMechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellMechanism::Kind(kind) => f.debug_tuple("Kind").field(kind).finish(),
            CellMechanism::Custom { label, variant, .. } => f
                .debug_struct("Custom")
                .field("label", label)
                .field("variant", variant)
                .finish_non_exhaustive(),
        }
    }
}

/// One (configuration, benchmark, options, mechanism) simulation — the
/// unit every sweep, experiment, daemon request and miner probe runs
/// through [`ArtifactStore::run`].
#[derive(Clone, Debug)]
pub struct Cell {
    /// System configuration (shared across a sweep's cells).
    pub config: Arc<SystemConfig>,
    /// Benchmark name (from the registry).
    pub benchmark: String,
    /// Seed, window, sampling and checking options.
    pub opts: SimOptions,
    /// The mechanism to simulate.
    pub mech: CellMechanism,
}

impl Cell {
    /// A cell of `benchmark` under `config` and `opts` with `mech` (a
    /// [`MechanismKind`] or a [`CellMechanism`]).
    pub fn new(
        config: Arc<SystemConfig>,
        benchmark: &str,
        opts: SimOptions,
        mech: impl Into<CellMechanism>,
    ) -> Self {
        Cell {
            config,
            benchmark: benchmark.to_owned(),
            opts,
            mech: mech.into(),
        }
    }

    /// Simulates the cell, sharing `store`'s trace, warm-state and plan
    /// artifacts when one is given (`None` is the cold path).
    fn simulate(&self, store: Option<&ArtifactStore>) -> Result<RunResult, SimError> {
        let (benchmark, config) = (self.benchmark.as_str(), Arc::clone(&self.config));
        let (mech, label) = match &self.mech {
            CellMechanism::Kind(kind) if self.opts.sampling.is_sampled() => {
                return run_sampled(store, config, *kind, benchmark, &self.opts);
            }
            CellMechanism::Kind(kind) => (kind.build(), *kind),
            CellMechanism::Custom { label, build, .. } => (build(), *label),
        };
        let plan = Plan::full(self.opts.window, 0);
        let mut parts = simulate(store, config, mech, label, benchmark, &self.opts, &plan)?;
        Ok(parts.pop().expect("a full plan measures its one stretch"))
    }
}

impl ArtifactStore {
    /// Runs one cell: served from the result memo (RAM, then the disk
    /// tier) when an identical cell was already computed, else simulated
    /// once — concurrent identical requests in this process wait for one
    /// leader (single-flight), and with a lease manager each cell is
    /// computed at most once across processes. The simulation shares the
    /// store's traces, warm states and sampling plans; results are
    /// bit-identical to the cold path.
    ///
    /// A [disabled](ArtifactStore::disabled) store is the cold path: fresh
    /// trace generation, full per-mechanism warmup, no memo.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] for invalid configurations, unknown
    /// benchmarks, value-integrity violations, cycle-budget exhaustion, or
    /// (with a lease manager) a quarantined cell.
    ///
    /// See the [`ArtifactStore`] example.
    pub fn run(&self, cell: &Cell) -> Result<RunResult, SimError> {
        if !self.is_enabled() {
            return cell.simulate(None);
        }
        let (benchmark, opts) = (cell.benchmark.as_str(), &cell.opts);
        let label = cell.mech.label();
        let mut key = ArtifactStore::memo_key(&cell.config, label, benchmark, opts);
        let mut name = format!("{benchmark} x {label}");
        if let CellMechanism::Custom { variant, .. } = &cell.mech {
            key.push_str(&format!("|variant={variant}"));
            name.push_str(&format!(" [{variant}]"));
        }
        let result = self.memo_run(&key, &name, benchmark, &repro_hint(opts), || {
            crate::fault::trigger("cell", &format!("{benchmark}+{label}"));
            cell.simulate(Some(self))
        })?;
        Ok((*result).clone())
    }
}

/// The environment part of a quarantined cell's minimized repro command:
/// enough to replay exactly this window and seed single-process, without
/// the cache (so the repro actually re-executes the crashing cell).
fn repro_hint(opts: &SimOptions) -> String {
    format!(
        "MICROLIB_SKIP={} MICROLIB_SIM={} MICROLIB_SEED={:#x} run_all --no-cache",
        opts.window.skip, opts.window.simulate, opts.seed
    )
}
