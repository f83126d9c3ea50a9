//! Shared plumbing: arguments, seeded input generation, statistics, the
//! metric declarations, span recording and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The simulator seed every workload runs at: the repository's default
/// (`MICROLIB_SEED`), so `results-golden/` and the pinned digests apply.
/// The benchmark seed varies the *inputs* (grid order, request mix, hot
/// set), never the simulated programs.
pub const SIM_SEED: u64 = 0xC0FFEE;

/// Worker threads and client connections of every workload (sized for a
/// two-core host).
pub const THREADS: usize = 2;

/// Workload names, in the order `BENCHMARK.json` declares them.
pub const WORKLOADS: [&str; 2] = ["sweep_cold", "serve_mixed"];

/// End-to-end metrics (printed with `--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("cells_per_s", "1/s"),
    ("sim_minsts_per_s", "Minst/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (printed with `--trace 1`) other than the
/// per-experiment timings, which [`per_layer`] appends.
const LAYERS: [(&str, &str); 34] = [
    ("trace.capture_ns_per_inst", "ns/inst"),
    ("trace.replay_ns_per_inst", "ns/inst"),
    ("trace.hit_ratio", "ratio"),
    ("mem.warm_ns_per_inst", "ns/inst"),
    ("mem.warm_restore_us", "us"),
    ("mem.begin_cycle_ns", "ns"),
    ("cpu.cycle_ns", "ns"),
    ("detailed.ns_per_cycle", "ns"),
    ("detailed.ns_per_cycle.membound", "ns"),
    ("detailed.ns_per_cycle.highipc", "ns"),
    ("detailed.share", "ratio"),
    ("mech.cell_time_ratio", "ratio"),
    ("campaign.cell_ms_p50", "ms"),
    ("campaign.cell_ms_p99", "ms"),
    ("campaign.busy_frac", "ratio"),
    ("sampling.plan_ms", "ms"),
    ("sampling.plan_hit_ratio", "ratio"),
    ("artifacts.memo_hit_ratio", "ratio"),
    ("artifacts.warm_hit_ratio", "ratio"),
    ("artifacts.memo_hit_us", "us"),
    ("artifacts.coalesced", "count"),
    ("artifacts.warm_evictions", "count"),
    ("disk.load_us", "us"),
    ("disk.store_us", "us"),
    ("disk.mb_written", "MiB"),
    ("codec.run_result_decode_ns", "ns"),
    ("ranking.subset_s", "s"),
    ("serve.parse_us", "us"),
    ("serve.overhead_ms", "ms"),
    ("serve.rejected", "count"),
    ("replay.cells_checked", "count"),
    ("latency.samples", "count"),
    ("tracing.overhead_ms", "ms"),
    ("tracing.overhead_frac", "ratio"),
];

/// Every per-layer metric: [`LAYERS`] plus one `experiments.<name>_ms`
/// per battery experiment.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    all.extend(
        microlib_bench::experiments::ALL
            .iter()
            .map(|(name, _)| (experiment_metric(name), "ms")),
    );
    all
}

/// The per-layer metric name of one battery experiment's wall time.
pub fn experiment_metric(name: &str) -> String {
    format!("experiments.{name}_ms")
}

/// The declarations as one JSON object (`--list`), which the self-test
/// compares against `BENCHMARK.json`.
pub fn list_json() -> String {
    let quote = |items: Vec<String>| items.join(",");
    let pairs = |items: Vec<(String, &str)>| {
        quote(
            items
                .into_iter()
                .map(|(n, u)| format!("{{\"name\":\"{n}\",\"unit\":\"{u}\"}}"))
                .collect(),
        )
    };
    format!(
        "{{\"workloads\":[{}],\"end_to_end\":[{}],\"per_layer\":[{}]}}",
        quote(WORKLOADS.iter().map(|w| format!("\"{w}\"")).collect()),
        pairs(END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()),
        pairs(per_layer()),
    )
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub list: bool,
}

impl Args {
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            list: false,
        };
        while let Some(flag) = argv.next() {
            if flag == "--list" {
                args.list = true;
                continue;
            }
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    args.seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !args.list && !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, got {:?}",
                args.workload
            ));
        }
        Ok(args)
    }
}

/// splitmix64: the benchmark's only source of input randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream of one workload: the same seed and
    /// stream always give the same sequence.
    pub fn new(seed: u64, stream: &str) -> Rng {
        Rng(seed ^ fnv1a(stream.as_bytes()))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a 64: digests of simulated statistics.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// The run's scratch directory under the checkout
/// (`.perfbench-work/<workload>-<pid>`), removed when dropped.
#[derive(Debug)]
pub struct WorkDir {
    root: PathBuf,
    workload: String,
    next: std::cell::Cell<u32>,
}

impl WorkDir {
    pub fn create(workload: &str) -> std::io::Result<WorkDir> {
        let root =
            PathBuf::from(".perfbench-work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir {
            root: std::fs::canonicalize(root)?,
            workload: workload.to_owned(),
            next: std::cell::Cell::new(0),
        })
    }

    /// A fresh, empty subdirectory (created lazily by its user).
    pub fn fresh(&self, label: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("{label}-{n}"))
    }

    /// Where the traced run writes its spans (kept after the run, one
    /// file per workload).
    pub fn spans_path(&self) -> PathBuf {
        self.root
            .with_file_name(format!("spans-{}.ndjson", self.workload))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// One recorded span: a call into a layer, timed from the benchmark.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder; written out once, at the end of the run.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Self time per span name: each span's duration minus the part of
    /// it its children cover, summed by name (nanoseconds).
    pub fn self_time(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]);
            *by_name.entry(s.name).or_insert(0) += own;
        }
        by_name
    }

    /// Total duration per span name (nanoseconds) and call count.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut by_name = BTreeMap::new();
        for s in &self.spans {
            let e = by_name.entry(s.name).or_insert((0, 0));
            e.0 += s.end_ns - s.start_ns;
            e.1 += 1;
        }
        by_name
    }

    /// Writes every span as one NDJSON line to `path` (best effort: a
    /// failure is reported on stderr and does not fail the run).
    pub fn write_to(&self, path: &Path) {
        if let Err(e) = self.write(path) {
            eprintln!("could not write spans to {}: {e}", path.display());
        }
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Everything one run reports: output-check tallies and metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Output checks, cells and requests attempted.
    pub attempted: u64,
    /// Of those, failed, refused or wrong.
    pub failed: u64,
    /// Why each failure happened (stderr only).
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Counts one output check (or request); a failure carries its reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// The result line: exactly the declared metrics of the mode, in
    /// declaration order.
    ///
    /// # Errors
    ///
    /// A declared metric that was not measured or is not a finite number,
    /// or a measured one that is declared in neither mode.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let end_to_end: Vec<(String, &str)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
        let layers = per_layer();
        if let Some(stray) = self
            .metrics
            .keys()
            .find(|k| !end_to_end.iter().chain(&layers).any(|(n, _)| n == *k))
        {
            return Err(format!("metric {stray} is not declared"));
        }
        let declared = if trace { layers } else { end_to_end };
        let mut body = Vec::new();
        for (name, unit) in &declared {
            let value = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            body.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            body.join(",")
        ))
    }
}
