//! Campaign specs and their canonical NDJSON result rendering.
//!
//! A spec names the (benchmark × mechanism) grid to run, plus the shared
//! knobs: a [`ConfigDelta`] override string, the trace window, the seed
//! and the sampling mode. [`CampaignSpec::parse`] reads the JSON wire
//! form; [`CampaignSpec::cells`] expands the grid in deterministic
//! (benchmark-major) order; [`render_result`] / [`render_error`] produce
//! the one-line-per-cell output — the *same* function renders the
//! daemon's streamed lines and the client's direct/local mode, which is
//! what makes byte-comparing the two a meaningful end-to-end check.

use crate::json::{escape, Json};
use microlib::{ArtifactStore, Cell, RunResult, SamplingMode, SimOptions};
use microlib_mech::MechanismKind;
use microlib_miner::ConfigDelta;
use microlib_model::SystemConfig;
use microlib_trace::{benchmarks, TraceWindow};
use std::sync::Arc;

/// Scheduling class of a campaign: interactive requests are served ahead
/// of batch sweeps when both are queued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Small, latency-sensitive query — scheduled first.
    Interactive,
    /// Large sweep — yields to interactive work.
    Batch,
}

/// Campaigns at most this many cells default to [`Class::Interactive`]
/// when the spec does not name a class.
pub const AUTO_INTERACTIVE_MAX: usize = 8;

/// The largest window (`skip + simulate` instructions) one cell may ask
/// for. A cell's trace holds its whole window in memory, about 27 bytes an
/// instruction, so an unbounded window lets one request body exhaust the
/// daemon's memory. 10 M is 80× the default 20k + 100k window.
const MAX_CELL_WINDOW: u64 = 10_000_000;

/// The most instructions one campaign may ask for: cells × window. It
/// admits the full 26 × 13 study grid at the default window (40.6 M) about
/// five times over, but not a request that would pin every worker for
/// hours.
const MAX_CAMPAIGN_INSTS: u64 = 200_000_000;

/// A parsed campaign request: the grid plus shared run options.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Benchmarks (registry names), outer grid axis.
    pub benchmarks: Vec<&'static str>,
    /// Mechanisms, inner grid axis.
    pub mechanisms: Vec<MechanismKind>,
    /// The configuration the override string produced.
    pub config: Arc<SystemConfig>,
    /// Run options (window, seed, sampling) after overrides.
    pub opts: SimOptions,
    /// Scheduling class (explicit, or sized by `AUTO_INTERACTIVE_MAX`).
    pub class: Class,
}

/// One cell of an expanded campaign, tagged with its grid index so
/// streamed results can be re-ordered deterministically by the client.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Position in the spec's benchmark-major grid order.
    pub index: usize,
    /// Benchmark registry name.
    pub benchmark: &'static str,
    /// Mechanism to attach.
    pub mechanism: MechanismKind,
    /// System configuration (shared across the campaign).
    pub config: Arc<SystemConfig>,
    /// Run options (shared across the campaign).
    pub opts: SimOptions,
}

impl CampaignSpec {
    /// Parses the JSON wire form:
    ///
    /// ```json
    /// {
    ///   "benchmarks": ["swim", "gcc"],
    ///   "mechanisms": ["Base", "GHB"],
    ///   "overrides": "ruu=16,mem=const200",
    ///   "window": {"skip": 2000, "simulate": 2000},
    ///   "seed": "0xC0FFEE",
    ///   "sampling": "10000/4",
    ///   "class": "interactive"
    /// }
    /// ```
    ///
    /// `benchmarks` is required; everything else defaults (`mechanisms`
    /// to `"study"` — the paper's thirteen; `overrides` to `baseline`;
    /// window/seed to [`SimOptions::default`]; `sampling` to `full`;
    /// `class` to interactive for grids of at most
    /// [`AUTO_INTERACTIVE_MAX`] cells, batch above).
    ///
    /// The window, after overrides, must fit one cell's instruction
    /// budget (10 M) and the grid the campaign's (200 M: cells × window).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field — surfaced to
    /// HTTP clients as the 400 body.
    pub fn parse(text: &str) -> Result<CampaignSpec, String> {
        let doc = Json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
        let benchmarks = doc
            .get("benchmarks")
            .and_then(Json::as_arr)
            .ok_or("spec needs a \"benchmarks\" array")?
            .iter()
            .map(|b| {
                let name = b.as_str().ok_or("benchmarks must be strings")?;
                benchmarks::by_name(name)
                    .map(|p| p.name)
                    .ok_or_else(|| format!("unknown benchmark {name:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if benchmarks.is_empty() {
            return Err("\"benchmarks\" is empty".to_owned());
        }
        let mechanisms = match doc.get("mechanisms") {
            None => MechanismKind::study_set().to_vec(),
            Some(Json::Str(s)) if s == "study" => MechanismKind::study_set().to_vec(),
            Some(m) => {
                let names = m
                    .as_arr()
                    .ok_or("mechanisms must be an array or \"study\"")?;
                let parsed = names
                    .iter()
                    .map(|m| {
                        let acronym = m.as_str().ok_or("mechanisms must be strings")?;
                        MechanismKind::by_acronym(acronym)
                            .ok_or_else(|| format!("unknown mechanism {acronym:?}"))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                if parsed.is_empty() {
                    return Err("\"mechanisms\" is empty".to_owned());
                }
                parsed
            }
        };
        let mut opts = SimOptions::default();
        if let Some(window) = doc.get("window") {
            let skip = window
                .get("skip")
                .and_then(Json::as_u64)
                .ok_or("window needs integer \"skip\"")?;
            let simulate = window
                .get("simulate")
                .and_then(Json::as_u64)
                .filter(|&n| n > 0)
                .ok_or("window needs positive integer \"simulate\"")?;
            opts.window = TraceWindow::new(skip, simulate);
        }
        if let Some(seed) = doc.get("seed") {
            opts.seed = seed.as_u64().ok_or("bad \"seed\"")?;
        }
        if let Some(sampling) = doc.get("sampling") {
            let s = sampling.as_str().ok_or("\"sampling\" must be a string")?;
            opts.sampling = parse_sampling(s)?;
        }
        let overrides = match doc.get("overrides") {
            None => ConfigDelta::default(),
            Some(o) => {
                let key = o.as_str().ok_or("\"overrides\" must be a string")?;
                ConfigDelta::parse(key).ok_or_else(|| format!("bad overrides key {key:?}"))?
            }
        };
        let (config, opts) = overrides.apply(&opts);
        let window = opts
            .window
            .skip
            .checked_add(opts.window.simulate)
            .filter(|&n| n <= MAX_CELL_WINDOW)
            .ok_or_else(|| {
                format!(
                    "\"window\" skip + simulate exceeds the per-cell budget of \
                     {MAX_CELL_WINDOW} instructions"
                )
            })?;
        let cells = benchmarks.len() * mechanisms.len();
        if (cells as u64).saturating_mul(window) > MAX_CAMPAIGN_INSTS {
            return Err(format!(
                "{cells} cells (\"benchmarks\" × \"mechanisms\") of a {window}-instruction \
                 \"window\" exceed the per-campaign budget of {MAX_CAMPAIGN_INSTS} instructions"
            ));
        }
        let class = match doc.get("class") {
            None => {
                if cells <= AUTO_INTERACTIVE_MAX {
                    Class::Interactive
                } else {
                    Class::Batch
                }
            }
            Some(c) => match c.as_str() {
                Some("interactive") => Class::Interactive,
                Some("batch") => Class::Batch,
                _ => return Err("\"class\" must be \"interactive\" or \"batch\"".to_owned()),
            },
        };
        Ok(CampaignSpec {
            benchmarks,
            mechanisms,
            config: Arc::new(config),
            opts,
            class,
        })
    }

    /// The expanded grid in benchmark-major order (cell `index` counts
    /// mechanisms within a benchmark first).
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut cells = Vec::with_capacity(self.benchmarks.len() * self.mechanisms.len());
        for benchmark in &self.benchmarks {
            for &mechanism in &self.mechanisms {
                cells.push(CellSpec {
                    index: cells.len(),
                    benchmark,
                    mechanism,
                    config: Arc::clone(&self.config),
                    opts: self.opts,
                });
            }
        }
        cells
    }
}

/// `"full"`, or `"interval/clusters"` / `"interval/clusters/warmup"` —
/// the same shape `run_all --sampled` takes.
fn parse_sampling(s: &str) -> Result<SamplingMode, String> {
    if s == "full" {
        return Ok(SamplingMode::Full);
    }
    let mut parts = s.split('/');
    let parse = |part: Option<&str>| part.and_then(|p| p.parse::<u64>().ok());
    let (interval, max_clusters) = parse(parts.next())
        .zip(parse(parts.next()))
        .filter(|&(i, k)| i > 0 && k > 0)
        .ok_or_else(|| format!("bad sampling spec {s:?} (want \"interval/clusters[/warmup]\")"))?;
    let warmup = match parts.next() {
        None => 0,
        Some(w) => w
            .parse::<u64>()
            .map_err(|_| format!("bad sampling warmup in {s:?}"))?,
    };
    if parts.next().is_some() {
        return Err(format!("bad sampling spec {s:?}"));
    }
    Ok(SamplingMode::SimPoints {
        interval,
        max_clusters: max_clusters as usize,
        warmup,
    })
}

/// Renders one completed cell as its canonical NDJSON line (no trailing
/// newline). Deterministic for a given result: fixed key order, fixed
/// float precision.
pub fn render_result(index: usize, result: &RunResult) -> String {
    format!(
        concat!(
            "{{\"cell\":{},\"benchmark\":\"{}\",\"mechanism\":\"{}\",",
            "\"instructions\":{},\"cycles\":{},\"ipc\":{:.6},",
            "\"l1d_loads\":{},\"l1d_stores\":{},\"l1d_misses\":{},\"l2_misses\":{}}}"
        ),
        index,
        escape(result.benchmark),
        escape(&result.mechanism.to_string()),
        result.perf.instructions,
        result.perf.cycles,
        result.perf.ipc(),
        result.l1d.loads,
        result.l1d.stores,
        result.l1d.misses,
        result.l2.misses,
    )
}

/// Renders one failed cell as its canonical NDJSON error line.
pub fn render_error(
    index: usize,
    benchmark: &str,
    mechanism: MechanismKind,
    error: &str,
) -> String {
    format!(
        "{{\"cell\":{},\"benchmark\":\"{}\",\"mechanism\":\"{}\",\"error\":\"{}\"}}",
        index,
        escape(benchmark),
        escape(&mechanism.to_string()),
        escape(error),
    )
}

/// Executes one cell through `store` and renders its line — the single
/// code path behind both the daemon's workers and the client's local
/// mode.
pub fn run_cell(store: &ArtifactStore, cell: &CellSpec) -> String {
    let run = Cell::new(
        Arc::clone(&cell.config),
        cell.benchmark,
        cell.opts,
        cell.mechanism,
    );
    match store.run(&run) {
        Ok(result) => render_result(cell.index, &result),
        Err(e) => render_error(cell.index, cell.benchmark, cell.mechanism, &e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_defaults_and_grid_order() {
        let spec = CampaignSpec::parse(r#"{"benchmarks":["swim","gcc"]}"#).unwrap();
        assert_eq!(spec.mechanisms.len(), 13, "defaults to the study set");
        assert_eq!(spec.class, Class::Batch, "26 cells exceed the auto cap");
        let cells = spec.cells();
        assert_eq!(cells.len(), 26);
        assert_eq!(cells[0].benchmark, "swim");
        assert_eq!(cells[13].benchmark, "gcc");
        assert!(cells.iter().enumerate().all(|(i, c)| c.index == i));
    }

    #[test]
    fn parses_explicit_fields() {
        let spec = CampaignSpec::parse(
            r#"{"benchmarks":["swim"],"mechanisms":["Base","GHB"],
                "overrides":"ruu=16","window":{"skip":2000,"simulate":2000},
                "seed":"0x1234","sampling":"10000/4/500","class":"batch"}"#,
        )
        .unwrap();
        assert_eq!(
            spec.mechanisms,
            vec![MechanismKind::Base, MechanismKind::Ghb]
        );
        assert_eq!(spec.opts.seed, 0x1234);
        assert_eq!(spec.opts.window, TraceWindow::new(2_000, 2_000));
        assert_eq!(
            spec.opts.sampling,
            SamplingMode::SimPoints {
                interval: 10_000,
                max_clusters: 4,
                warmup: 500
            }
        );
        assert_eq!(spec.class, Class::Batch);
        assert_eq!(spec.config.core.ruu_entries, 16);
    }

    #[test]
    fn rejects_bad_specs() {
        for bad in [
            r#"{}"#,
            r#"{"benchmarks":[]}"#,
            r#"{"benchmarks":["quake3"]}"#,
            r#"{"benchmarks":["swim"],"mechanisms":["XYZ"]}"#,
            r#"{"benchmarks":["swim"],"overrides":"bogus=1"}"#,
            r#"{"benchmarks":["swim"],"window":{"skip":0,"simulate":0}}"#,
            r#"{"benchmarks":["swim"],"sampling":"nope"}"#,
            r#"{"benchmarks":["swim"],"class":"urgent"}"#,
            r#"not json"#,
        ] {
            assert!(CampaignSpec::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn bounds_each_window_and_campaign() {
        let spec = |benchmarks: &str, window: &str| {
            CampaignSpec::parse(&format!(
                r#"{{"benchmarks":[{benchmarks}],"mechanisms":"study","window":{window}}}"#
            ))
        };
        let swim = r#""swim""#;
        for (window, field) in [
            (r#"{"skip":0,"simulate":1099511627776}"#, "\"window\""),
            (
                r#"{"skip":"0xffffffffffffffff","simulate":1}"#,
                "\"window\"",
            ),
            (r#"{"skip":9999001,"simulate":1000}"#, "\"window\""),
        ] {
            let err = spec(swim, window).expect_err(window);
            assert!(err.contains(field) && err.contains("budget"), "{err}");
        }
        assert!(spec(swim, r#"{"skip":9999000,"simulate":1000}"#).is_ok());
        // The whole study grid at the default window fits; the same grid
        // at a window 5× the default does not, and the error names it.
        let all = benchmarks::NAMES
            .iter()
            .map(|name| format!("{name:?}"))
            .collect::<Vec<_>>()
            .join(",");
        let grid = spec(&all, r#"{"skip":20000,"simulate":100000}"#).unwrap();
        assert_eq!(grid.cells().len(), 26 * 13);
        let err = spec(&all, r#"{"skip":100000,"simulate":500000}"#).unwrap_err();
        assert!(
            err.contains("338 cells") && err.contains("per-campaign"),
            "{err}"
        );
        // The budget is checked after overrides: `win` shrinks the window.
        let shrunk = CampaignSpec::parse(
            r#"{"benchmarks":["swim"],"overrides":"win=quarter",
                "window":{"skip":0,"simulate":10000000}}"#,
        )
        .unwrap();
        assert_eq!(shrunk.opts.window.simulate, 2_500_000);
    }

    #[test]
    fn renders_cells_deterministically() {
        let store = ArtifactStore::new();
        let spec = CampaignSpec::parse(
            r#"{"benchmarks":["swim"],"mechanisms":["Base"],
                "window":{"skip":1000,"simulate":1000}}"#,
        )
        .unwrap();
        let cells = spec.cells();
        let a = run_cell(&store, &cells[0]);
        let b = run_cell(&store, &cells[0]);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"cell\":0,\"benchmark\":\"swim\""), "{a}");
        let parsed = Json::parse(&a).unwrap();
        assert!(parsed.get("instructions").unwrap().as_u64().unwrap() > 0);
    }
}
