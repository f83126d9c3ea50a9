//! One typed home for every `MICROLIB_*` environment knob.
//!
//! [`Settings::from_env`] is the only code outside tests that reads the
//! process environment. It parses every knob once and rejects a malformed
//! value with an error naming the variable (the binaries exit 2 on it).
//! Library code takes its values from a `Settings`, and binaries apply
//! their command-line flags on top by assigning fields.
//!
//! Integers are decimal or `0x` hex, switches are `on`/`off`, `1`/`0` or
//! `true`/`false`, and an unset or empty variable takes the default:
//!
//! | variable | field | default | meaning |
//! |---|---|---|---|
//! | `MICROLIB_SKIP` | `skip` | 150 000 (`run_all --mine`: 2 000) | functionally warmed instructions before the window |
//! | `MICROLIB_SIM` | `sim` | 100 000 (`run_all --mine`: 4 000) | detailed-simulated instructions |
//! | `MICROLIB_SEED` | `seed` | `0xC0FFEE` | workload seed |
//! | `MICROLIB_THREADS` | `threads` | 0 = all cores | worker threads |
//! | `MICROLIB_SAMPLED` | `sampling` | off | a switch (on = [`SamplingMode::simpoints_for`] the window) or an `interval/clusters[/warmup]` SimPoint plan |
//! | `MICROLIB_ARTIFACTS` | `artifacts` | on | share traces, warm states, plans and cell results (results are identical either way) |
//! | `MICROLIB_CACHE_DIR` | `cache_dir` | unset | directory of the persistent disk tier; `off`/`0`/`false` disable it (`run_all` defaults to `.microlib-cache`) |
//! | `MICROLIB_CACHE_WARM_MAX_MB` | `warm_disk_cap_mb` | 8 | largest warm state written to disk, MiB; 0 = unlimited |
//! | `MICROLIB_LEASE` | `lease` | off | claim cells through lease files in the disk tier (implied by a shard) |
//! | `MICROLIB_LEASE_TIMEOUT_MS` | `lease_timeout` | 30 000 | a lease whose heartbeat is this old is stale |
//! | `MICROLIB_CELL_RETRIES` | `cell_retries` | 3 | crashed claims before a cell is quarantined |
//! | `MICROLIB_STEAL_GRACE_MS` | `steal_grace` | 1 500 | how long a non-owner waits for a cell's shard owner |
//! | `MICROLIB_WORKER_ID` | `worker_id` | unset | this process's worker id (the `run_all` coordinator sets it) |
//! | `MICROLIB_WORKER_RESPAWNS` | `worker_respawns` | 3 | respawns of a crashed worker |
//! | `MICROLIB_RETRY_BACKOFF_MS` | `retry_backoff` | 100 | first respawn delay, doubled per respawn |
//! | `MICROLIB_FAULT` | `fault` | unset | fault specs to arm (see [`crate::fault`]) |
//! | `MICROLIB_FAULT_WORKER` | `fault_worker` | unset | arm the faults only in the worker with this id |
//! | `MICROLIB_FAULT_DIR` | `fault_dir` | `<cache dir>/fault` | directory of the fire-once sentinels |
//! | `MICROLIB_FAULT_STALL_MS` | `fault_stall` | 600 000 | how long a `stall` fault sleeps |
//! | `MICROLIB_MINE_PERTURB` | `mine_perturb` | 0 | fraction added to the miner's analytic CPI |
//! | `MICROLIB_SERVE_RESIDENT_MB` | `serve_resident_mb` | unbounded | `microlib-serve`'s resident warm-state cap, MiB |

use crate::experiment::ExperimentConfig;
use crate::sampling::SamplingMode;
use crate::shard::ShardSpec;
use crate::simulator::SimOptions;
use microlib_trace::TraceWindow;
use std::ffi::OsString;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The `MICROLIB_CACHE_DIR` setting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum CacheDir {
    /// Not set: memory-only, unless a binary supplies its own default.
    #[default]
    Unset,
    /// Explicitly switched off.
    Off,
    /// The disk tier's root directory.
    At(PathBuf),
}

impl CacheDir {
    /// The disk tier's directory, if there is one.
    pub fn path(&self) -> Option<&Path> {
        match self {
            CacheDir::At(dir) => Some(dir),
            CacheDir::Unset | CacheDir::Off => None,
        }
    }
}

/// Every `MICROLIB_*` knob, parsed (see the module docs for the table).
#[derive(Clone, Debug, PartialEq)]
pub struct Settings {
    /// `MICROLIB_SKIP`; `None` takes the window's default.
    pub skip: Option<u64>,
    /// `MICROLIB_SIM`; `None` takes the window's default.
    pub sim: Option<u64>,
    /// `MICROLIB_SEED`.
    pub seed: u64,
    /// `MICROLIB_THREADS`.
    pub threads: usize,
    /// `MICROLIB_SAMPLED`.
    pub sampling: SamplingMode,
    /// `MICROLIB_ARTIFACTS`.
    pub artifacts: bool,
    /// `MICROLIB_CACHE_DIR`.
    pub cache_dir: CacheDir,
    /// `MICROLIB_CACHE_WARM_MAX_MB`.
    pub warm_disk_cap_mb: u64,
    /// `MICROLIB_LEASE`.
    pub lease: bool,
    /// `MICROLIB_LEASE_TIMEOUT_MS`.
    pub lease_timeout: Duration,
    /// `MICROLIB_CELL_RETRIES`.
    pub cell_retries: u32,
    /// `MICROLIB_STEAL_GRACE_MS`.
    pub steal_grace: Duration,
    /// `MICROLIB_WORKER_ID`.
    pub worker_id: Option<String>,
    /// `MICROLIB_WORKER_RESPAWNS`.
    pub worker_respawns: u32,
    /// `MICROLIB_RETRY_BACKOFF_MS`.
    pub retry_backoff: Duration,
    /// `MICROLIB_FAULT`.
    pub fault: Option<String>,
    /// `MICROLIB_FAULT_WORKER`.
    pub fault_worker: Option<String>,
    /// `MICROLIB_FAULT_DIR`.
    pub fault_dir: Option<PathBuf>,
    /// `MICROLIB_FAULT_STALL_MS`.
    pub fault_stall: Duration,
    /// `MICROLIB_MINE_PERTURB`.
    pub mine_perturb: f64,
    /// `MICROLIB_SERVE_RESIDENT_MB`.
    pub serve_resident_mb: Option<u64>,
    /// This process's shard. No variable: `run_all --shard i/N` sets it.
    pub shard: Option<ShardSpec>,
}

impl Default for Settings {
    /// The settings of an empty environment.
    fn default() -> Self {
        Self::from_lookup(|_| None).expect("an empty environment parses")
    }
}

/// Reads variables through a lookup (the process environment, or a
/// table in tests) and parses them.
struct Vars<F>(F);

impl<F: Fn(&str) -> Option<OsString>> Vars<F> {
    /// The trimmed value, `None` when unset or empty.
    fn text(&self, name: &str) -> Result<Option<String>, String> {
        match (self.0)(name).map(OsString::into_string) {
            None => Ok(None),
            Some(Ok(value)) if value.trim().is_empty() => Ok(None),
            Some(Ok(value)) => Ok(Some(value.trim().to_owned())),
            Some(Err(raw)) => Err(format!("{name}={raw:?} is not valid UTF-8")),
        }
    }

    fn parsed<T>(
        &self,
        name: &str,
        what: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.text(name)? {
            None => Ok(None),
            Some(value) => parse(&value)
                .map(Some)
                .ok_or_else(|| format!("{name}={value:?} is not {what}")),
        }
    }

    fn int<T: TryFrom<u64>>(&self, name: &str, default: T) -> Result<T, String> {
        let parse = |s: &str| parse_u64(s).and_then(|n| T::try_from(n).ok());
        Ok(self
            .parsed(name, "a decimal or 0x-hex integer", parse)?
            .unwrap_or(default))
    }

    fn millis(&self, name: &str, default: u64) -> Result<Duration, String> {
        Ok(Duration::from_millis(self.int(name, default)?))
    }

    fn switch(&self, name: &str, default: bool) -> Result<bool, String> {
        Ok(self
            .parsed(name, "on/off, 1/0 or true/false", parse_switch)?
            .unwrap_or(default))
    }
}

fn parse_u64(raw: &str) -> Option<u64> {
    match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

fn parse_switch(raw: &str) -> Option<bool> {
    match raw {
        "on" | "1" | "true" => Some(true),
        "off" | "0" | "false" => Some(false),
        _ => None,
    }
}

fn parse_sampling(raw: &str, window: TraceWindow) -> Option<SamplingMode> {
    if let Some(on) = parse_switch(raw) {
        return Some(if on {
            SamplingMode::simpoints_for(window)
        } else {
            SamplingMode::Full
        });
    }
    let parts: Vec<u64> = raw
        .split('/')
        .map(|p| p.parse().ok())
        .collect::<Option<_>>()?;
    let (interval, clusters, warmup) = match parts[..] {
        [interval, clusters] => (interval, clusters, 0),
        [interval, clusters, warmup] => (interval, clusters, warmup),
        _ => return None,
    };
    Some(SamplingMode::SimPoints {
        interval,
        max_clusters: clusters as usize,
        warmup,
    })
}

impl Settings {
    /// Parses every `MICROLIB_*` variable of the process environment.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed variable and its value.
    pub fn from_env() -> Result<Settings, String> {
        Self::from_lookup(|name| std::env::var_os(name))
    }

    fn from_lookup(lookup: impl Fn(&str) -> Option<OsString>) -> Result<Settings, String> {
        let vars = Vars(lookup);
        let int = |name: &str| vars.parsed(name, "a decimal or 0x-hex integer", parse_u64);
        let mut s = Settings {
            skip: int("MICROLIB_SKIP")?,
            sim: int("MICROLIB_SIM")?,
            seed: vars.int("MICROLIB_SEED", 0xC0FFEE)?,
            threads: vars.int("MICROLIB_THREADS", 0)?,
            sampling: SamplingMode::Full,
            artifacts: vars.switch("MICROLIB_ARTIFACTS", true)?,
            cache_dir: match vars.text("MICROLIB_CACHE_DIR")? {
                None => CacheDir::Unset,
                Some(off) if parse_switch(&off) == Some(false) => CacheDir::Off,
                Some(dir) => CacheDir::At(PathBuf::from(dir)),
            },
            warm_disk_cap_mb: vars.int("MICROLIB_CACHE_WARM_MAX_MB", 8)?,
            lease: vars.switch("MICROLIB_LEASE", false)?,
            lease_timeout: vars.millis("MICROLIB_LEASE_TIMEOUT_MS", 30_000)?,
            cell_retries: vars.int("MICROLIB_CELL_RETRIES", 3)?,
            steal_grace: vars.millis("MICROLIB_STEAL_GRACE_MS", 1_500)?,
            worker_id: vars.text("MICROLIB_WORKER_ID")?,
            worker_respawns: vars.int("MICROLIB_WORKER_RESPAWNS", 3)?,
            retry_backoff: vars.millis("MICROLIB_RETRY_BACKOFF_MS", 100)?,
            fault: vars.text("MICROLIB_FAULT")?,
            fault_worker: vars.text("MICROLIB_FAULT_WORKER")?,
            fault_dir: vars.text("MICROLIB_FAULT_DIR")?.map(PathBuf::from),
            fault_stall: vars.millis("MICROLIB_FAULT_STALL_MS", 600_000)?,
            mine_perturb: vars
                .parsed("MICROLIB_MINE_PERTURB", "a number", |v| {
                    v.parse::<f64>().ok().filter(|p| p.is_finite())
                })?
                .unwrap_or(0.0),
            serve_resident_mb: int("MICROLIB_SERVE_RESIDENT_MB")?,
            shard: None,
        };
        let window = s.window();
        s.sampling = vars
            .parsed(
                "MICROLIB_SAMPLED",
                "a switch or interval/clusters[/warmup]",
                |v| parse_sampling(v, window),
            )?
            .unwrap_or(SamplingMode::Full);
        if let Some(spec) = &s.fault {
            crate::fault::parse_specs(spec)
                .map_err(|e| format!("MICROLIB_FAULT={spec:?} is not a fault spec: {e}"))?;
        }
        Ok(s)
    }

    /// The trace window every standard experiment simulates.
    pub fn window(&self) -> TraceWindow {
        TraceWindow::new(self.skip.unwrap_or(150_000), self.sim.unwrap_or(100_000))
    }

    /// The longer "article setup" window of the validation experiments
    /// (the paper's "skip 1 billion, simulate 2 billion", scaled).
    pub fn article_window(&self) -> TraceWindow {
        let w = self.window();
        TraceWindow::new(w.skip / 2, w.simulate * 2)
    }

    /// [`SimOptions`] for single runs at the standard window.
    pub fn sim_options(&self) -> SimOptions {
        SimOptions {
            seed: self.seed,
            window: self.window(),
            sampling: self.sampling,
            ..SimOptions::default()
        }
    }

    /// The paper's main sweep at these settings.
    pub fn experiment(&self) -> ExperimentConfig {
        ExperimentConfig {
            seed: self.seed,
            threads: self.threads,
            sampling: self.sampling,
            ..ExperimentConfig::paper_baseline(self.window())
        }
    }

    /// A thread pool of `threads` workers for experiment-local loops
    /// (collected results stay in input order).
    pub fn pool(&self) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(self.threads)
            .build()
            .expect("experiment thread pool")
    }

    /// The disk tier's byte cap on one warm state.
    pub fn warm_disk_cap(&self) -> usize {
        match self.warm_disk_cap_mb {
            0 => usize::MAX,
            mib => usize::try_from(mib).map_or(usize::MAX, |m| m.saturating_mul(1 << 20)),
        }
    }
}

/// The run banner: `skip=… sim=… seed=… threads=… sampled=… cache=…`.
impl fmt::Display for Settings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.window();
        write!(
            f,
            "skip={} sim={} seed={:#x} ",
            w.skip, w.simulate, self.seed
        )?;
        match self.threads {
            0 => write!(f, "threads=all ")?,
            n => write!(f, "threads={n} ")?,
        }
        match self.sampling {
            SamplingMode::Full => write!(f, "sampled=off ")?,
            SamplingMode::SimPoints {
                interval,
                max_clusters,
                warmup,
            } => write!(f, "sampled={interval}/{max_clusters}/{warmup} ")?,
        }
        match self.cache_dir.path() {
            Some(dir) => write!(f, "cache={}", dir.display()),
            None => write!(f, "cache=off"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(vars: &[(&str, &str)]) -> Result<Settings, String> {
        Settings::from_lookup(|name| {
            vars.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| OsString::from(v))
        })
    }

    #[test]
    fn an_empty_environment_gives_every_default() {
        let s = Settings::default();
        assert_eq!(s.window(), TraceWindow::new(150_000, 100_000));
        assert_eq!(s.article_window(), TraceWindow::new(75_000, 200_000));
        assert_eq!(s.seed, 0xC0FFEE);
        assert_eq!(s.threads, 0);
        assert_eq!(s.sampling, SamplingMode::Full);
        assert!(s.artifacts);
        assert_eq!(s.cache_dir, CacheDir::Unset);
        assert_eq!(s.warm_disk_cap(), 8 << 20);
        assert!(!s.lease);
        assert_eq!(s.lease_timeout, Duration::from_secs(30));
        assert_eq!(s.cell_retries, 3);
        assert_eq!(s.steal_grace, Duration::from_millis(1_500));
        assert_eq!(s.worker_id, None);
        assert_eq!(s.worker_respawns, 3);
        assert_eq!(s.retry_backoff, Duration::from_millis(100));
        assert_eq!(s.fault, None);
        assert_eq!(s.fault_worker, None);
        assert_eq!(s.fault_dir, None);
        assert_eq!(s.fault_stall, Duration::from_secs(600));
        assert_eq!(s.mine_perturb, 0.0);
        assert_eq!(s.serve_resident_mb, None);
        assert_eq!(s.shard, None);
        // Empty means unset.
        assert_eq!(
            parse(&[("MICROLIB_SIM", " "), ("MICROLIB_ARTIFACTS", "")]),
            Ok(s)
        );
    }

    #[test]
    fn every_field_reads_its_variable() {
        let s = parse(&[
            ("MICROLIB_SKIP", "0x7"),
            ("MICROLIB_SIM", " 2000 "),
            ("MICROLIB_SEED", "0XC0FFEF"),
            ("MICROLIB_THREADS", "4"),
            ("MICROLIB_SAMPLED", "5000/3"),
            ("MICROLIB_ARTIFACTS", "off"),
            ("MICROLIB_CACHE_DIR", "/tmp/c"),
            ("MICROLIB_CACHE_WARM_MAX_MB", "0"),
            ("MICROLIB_LEASE", "true"),
            ("MICROLIB_LEASE_TIMEOUT_MS", "5000"),
            ("MICROLIB_CELL_RETRIES", "2"),
            ("MICROLIB_STEAL_GRACE_MS", "200"),
            ("MICROLIB_WORKER_ID", "1"),
            ("MICROLIB_WORKER_RESPAWNS", "0"),
            ("MICROLIB_RETRY_BACKOFF_MS", "50"),
            ("MICROLIB_FAULT", "cell:3:abort,disk-write@memo:1:torn"),
            ("MICROLIB_FAULT_WORKER", "1"),
            ("MICROLIB_FAULT_DIR", "/tmp/f"),
            ("MICROLIB_FAULT_STALL_MS", "120000"),
            ("MICROLIB_MINE_PERTURB", "0.07"),
            ("MICROLIB_SERVE_RESIDENT_MB", "64"),
        ])
        .unwrap();
        assert_eq!(s.window(), TraceWindow::new(7, 2_000));
        assert_eq!(s.seed, 0xC0FFEF);
        assert_eq!(s.threads, 4);
        assert_eq!(
            s.sampling,
            SamplingMode::SimPoints {
                interval: 5_000,
                max_clusters: 3,
                warmup: 0
            }
        );
        assert!(!s.artifacts);
        assert_eq!(s.cache_dir.path(), Some(Path::new("/tmp/c")));
        assert_eq!(s.warm_disk_cap(), usize::MAX);
        assert!(s.lease);
        assert_eq!(s.lease_timeout, Duration::from_secs(5));
        assert_eq!(s.cell_retries, 2);
        assert_eq!(s.steal_grace, Duration::from_millis(200));
        assert_eq!(s.worker_id.as_deref(), Some("1"));
        assert_eq!(s.worker_respawns, 0);
        assert_eq!(s.retry_backoff, Duration::from_millis(50));
        assert_eq!(
            s.fault.as_deref(),
            Some("cell:3:abort,disk-write@memo:1:torn")
        );
        assert_eq!(s.fault_worker.as_deref(), Some("1"));
        assert_eq!(s.fault_dir.as_deref(), Some(Path::new("/tmp/f")));
        assert_eq!(s.fault_stall, Duration::from_secs(120));
        assert_eq!(s.mine_perturb, 0.07);
        assert_eq!(s.serve_resident_mb, Some(64));
        assert_eq!(
            s.to_string(),
            "skip=7 sim=2000 seed=0xc0ffef threads=4 sampled=5000/3/0 cache=/tmp/c"
        );
        assert_eq!(
            Settings::default().to_string(),
            "skip=150000 sim=100000 seed=0xc0ffee threads=all sampled=off cache=off"
        );
    }

    #[test]
    fn numbers_parse_decimal_and_hex_and_reject_garbage() {
        assert_eq!(parse_u64("7"), Some(7));
        assert_eq!(parse_u64("0x7"), Some(7));
        assert_eq!(parse_u64("0XC0FFEE"), Some(0xC0FFEE));
        assert_eq!(parse_u64("2k"), None);
        assert_eq!(parse_u64("0x"), None);
        assert_eq!(parse_u64("-1"), None);
        assert_eq!(parse(&[("MICROLIB_SIM", "0x7")]).unwrap().sim, Some(7));
        let e = parse(&[("MICROLIB_SIM", "2k")]).unwrap_err();
        assert!(e.contains("MICROLIB_SIM") && e.contains("2k"), "{e}");
    }

    #[test]
    fn sampling_spec_parses() {
        let w = TraceWindow::new(0, 100_000);
        assert_eq!(parse_sampling("off", w), Some(SamplingMode::Full));
        assert_eq!(parse_sampling("0", w), Some(SamplingMode::Full));
        assert_eq!(parse_sampling("1", w), Some(SamplingMode::simpoints_for(w)));
        assert_eq!(
            parse_sampling("5000/3", w),
            Some(SamplingMode::SimPoints {
                interval: 5_000,
                max_clusters: 3,
                warmup: 0
            })
        );
        assert_eq!(
            parse_sampling("5000/3/20000", w),
            Some(SamplingMode::SimPoints {
                interval: 5_000,
                max_clusters: 3,
                warmup: 20_000
            })
        );
        // Garbage is malformed, not a silent default plan.
        assert_eq!(parse_sampling("5000:3", w), None);
        // "on" samples the window the other variables set.
        let s = parse(&[("MICROLIB_SKIP", "0"), ("MICROLIB_SAMPLED", "on")]);
        assert_eq!(s.unwrap().sampling, SamplingMode::simpoints_for(w));
    }

    #[test]
    fn switches_take_the_documented_spellings() {
        for (value, on) in [
            ("on", true),
            ("1", true),
            ("true", true),
            ("off", false),
            ("0", false),
            ("false", false),
        ] {
            let s = parse(&[("MICROLIB_ARTIFACTS", value), ("MICROLIB_LEASE", value)]).unwrap();
            assert_eq!((s.artifacts, s.lease), (on, on), "{value}");
        }
        for off in ["off", "0", "false"] {
            assert_eq!(
                parse(&[("MICROLIB_CACHE_DIR", off)]).unwrap().cache_dir,
                CacheDir::Off
            );
        }
    }

    #[test]
    fn malformed_env_values_are_errors_naming_the_variable() {
        for (name, value) in [
            ("MICROLIB_SIM", "2k"),
            ("MICROLIB_SEED", "0x"),
            ("MICROLIB_SKIP", "-1"),
            ("MICROLIB_THREADS", "four"),
            ("MICROLIB_SAMPLED", "5000:3"),
            ("MICROLIB_SAMPLED", "5000/3/1/1"),
            ("MICROLIB_ARTIFACTS", "of"),
            ("MICROLIB_LEASE", "yes"),
            ("MICROLIB_LEASE_TIMEOUT_MS", "5s"),
            ("MICROLIB_STEAL_GRACE_MS", "x"),
            ("MICROLIB_CELL_RETRIES", "-1"),
            ("MICROLIB_CELL_RETRIES", "0x100000000"),
            ("MICROLIB_CACHE_WARM_MAX_MB", "8M"),
            ("MICROLIB_MINE_PERTURB", "abc"),
            ("MICROLIB_MINE_PERTURB", "0,07"),
            ("MICROLIB_MINE_PERTURB", "inf"),
            ("MICROLIB_FAULT", "bogus"),
            ("MICROLIB_FAULT", "cell:0"),
            ("MICROLIB_SERVE_RESIDENT_MB", "2G"),
        ] {
            let e = parse(&[(name, value)]).unwrap_err();
            assert!(e.contains(name) && e.contains(value), "{name}={value}: {e}");
        }
    }
}
