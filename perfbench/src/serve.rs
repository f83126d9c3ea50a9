//! `serve_mixed`: an in-process daemon with a disk cache and two workers,
//! driven as a closed loop by two client connections in lockstep rounds.
//!
//! Each round both clients send one request and wait for its last
//! streamed line. The seeded mix:
//! - mostly interactive hot-set queries (memo hits);
//! - fresh cells under configuration overrides (compute, journal writes,
//!   warm-state evictions under the resident cap);
//! - twin rounds, where both clients send the same fresh cell at once
//!   (single-flight);
//! - a few 13-mechanism batch campaigns.
//!
//! Every streamed line is byte-compared to a local `run_cell` of the same
//! cell.

use crate::common::{
    dir_bytes, median, peak_rss_mb, quantile, ratio, secs, Args, Report, Rng, Spans, WorkDir,
    SIM_SEED, THREADS,
};
use crate::{battery, layers, sweep};
use microlib::mech::MechanismKind;
use microlib::trace::benchmarks;
use microlib::{ArtifactStore, Campaign, ExperimentConfig};
use microlib_serve::json::Json;
use microlib_serve::{run_cell, CampaignOutcome, CampaignSpec, Client, Server, ServerConfig};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Window of every served cell.
const SKIP: u64 = 4_000;
const SIM: u64 = 4_000;
/// Resident warm-state budget: small enough that fresh cells evict.
const RESIDENT_CAP: u64 = 2 << 20;
/// Rounds per block: the mix's unit of composition, and the unit of
/// `wall_s` (phase time per block).
const BLOCK: usize = 100;
/// Configuration overrides fresh cells are drawn under.
const OVERRIDES: [&str; 12] = [
    "l1d_kb=8",
    "l1d_kb=64",
    "l1d_assoc=1",
    "l1d_mshr=2",
    "l2_kb=256",
    "l2_kb=512",
    "l2_lat=6",
    "l2_lat=24",
    "ruu=32",
    "ruu=64",
    "mem=const70",
    "mem=sdram70",
];

/// What a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Hot,
    Fresh,
    Twin,
    Batch,
}

/// One request: its kind and its spec (JSON wire form).
#[derive(Clone, Debug)]
struct Request {
    kind: Kind,
    spec: String,
}

fn cell_spec(benchmark: &str, mechanism: MechanismKind, overrides: &str) -> String {
    format!(
        "{{\"benchmarks\":[\"{benchmark}\"],\"mechanisms\":[\"{mechanism}\"],\"overrides\":\"{overrides}\",\
         \"window\":{{\"skip\":{SKIP},\"simulate\":{SIM}}},\"seed\":{SIM_SEED},\"class\":\"interactive\"}}"
    )
}

fn batch_spec(benchmark: &str, overrides: &str) -> String {
    format!(
        "{{\"benchmarks\":[\"{benchmark}\"],\"mechanisms\":\"study\",\"overrides\":\"{overrides}\",\
         \"window\":{{\"skip\":{SKIP},\"simulate\":{SIM}}},\"seed\":{SIM_SEED},\"class\":\"batch\"}}"
    )
}

/// A seeded deck of indices: draws run through a shuffled permutation of
/// `0..n` and reshuffle when it is used up, so every index comes up
/// equally often over a run whatever the seed.
struct Deck {
    cards: Vec<usize>,
    next: usize,
}

impl Deck {
    fn new(n: usize) -> Deck {
        Deck {
            cards: (0..n).collect(),
            next: n,
        }
    }

    fn draw(&mut self, rng: &mut Rng) -> usize {
        if self.next == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// Per block of [`BLOCK`] rounds: twin rounds, then of the remaining
/// requests, fresh cells and batch campaigns (the rest are hot queries).
/// Every block has the same composition; the seed picks the cells and
/// their positions.
const TWIN_ROUNDS: usize = 5;
const FRESH: usize = 20;
const BATCHES: usize = 6;

/// The seeded request mix: the hot set and blocks of rounds.
struct Mix {
    rng: Rng,
    hot: Vec<String>,
    used: HashSet<(usize, usize, usize)>,
    hot_deck: Deck,
    benchmarks: Deck,
    mechanisms: Deck,
    overrides: Deck,
    batches: Deck,
}

impl Mix {
    /// The hot set is one cell per benchmark, under a seeded mechanism,
    /// so priming it also builds every benchmark's trace.
    fn new(seed: u64) -> Mix {
        let mut rng = Rng::new(seed, "serve-mix");
        let study = MechanismKind::study_set();
        let mut hot: Vec<String> = benchmarks::NAMES
            .iter()
            .map(|b| cell_spec(b, study[rng.below(study.len())], "baseline"))
            .collect();
        rng.shuffle(&mut hot);
        Mix {
            rng,
            hot_deck: Deck::new(hot.len()),
            hot,
            used: HashSet::new(),
            benchmarks: Deck::new(benchmarks::NAMES.len()),
            mechanisms: Deck::new(study.len()),
            overrides: Deck::new(OVERRIDES.len()),
            batches: Deck::new(benchmarks::NAMES.len()),
        }
    }

    /// A cell no earlier request of this mix asked for.
    fn fresh(&mut self) -> String {
        let study = MechanismKind::study_set();
        loop {
            let key = (
                self.benchmarks.draw(&mut self.rng),
                self.mechanisms.draw(&mut self.rng),
                self.overrides.draw(&mut self.rng),
            );
            if self.used.insert(key) {
                return cell_spec(benchmarks::NAMES[key.0], study[key.1], OVERRIDES[key.2]);
            }
        }
    }

    /// The next [`BLOCK`] rounds, one request per client each.
    fn block(&mut self) -> Vec<[Request; 2]> {
        let singles = 2 * (BLOCK - TWIN_ROUNDS);
        let mut kinds = vec![Kind::Hot; singles];
        kinds[..FRESH].fill(Kind::Fresh);
        kinds[FRESH..FRESH + BATCHES].fill(Kind::Batch);
        self.rng.shuffle(&mut kinds);
        let mut rounds = vec![Kind::Twin; TWIN_ROUNDS];
        rounds.resize(BLOCK, Kind::Hot);
        self.rng.shuffle(&mut rounds);
        let mut kinds = kinds.into_iter();
        rounds
            .into_iter()
            .map(|round| {
                if round == Kind::Twin {
                    let twin = self.request(Kind::Twin);
                    [twin.clone(), twin]
                } else {
                    let a = kinds.next().expect("two requests per single round");
                    let b = kinds.next().expect("two requests per single round");
                    [self.request(a), self.request(b)]
                }
            })
            .collect()
    }

    fn request(&mut self, kind: Kind) -> Request {
        let spec = match kind {
            Kind::Hot => self.hot[self.hot_deck.draw(&mut self.rng)].clone(),
            Kind::Fresh | Kind::Twin => self.fresh(),
            Kind::Batch => {
                let b = benchmarks::NAMES[self.batches.draw(&mut self.rng)];
                batch_spec(b, OVERRIDES[self.overrides.draw(&mut self.rng)])
            }
        };
        Request { kind, spec }
    }
}

/// What one request got back.
#[derive(Debug)]
struct Answer {
    kind: Kind,
    spec: String,
    latency: Duration,
    /// The streamed lines (grid order), or why there were none.
    outcome: Result<Vec<String>, String>,
}

fn ask(client: &Client, spec: &str) -> Result<Vec<String>, String> {
    match client.campaign(spec) {
        Ok(CampaignOutcome::Completed(lines)) => Ok(lines),
        Ok(CampaignOutcome::Rejected(r)) => Err(format!("HTTP {}: {}", r.status, r.body.trim())),
        Err(e) => Err(format!("transport: {e}")),
    }
}

/// Boots a daemon on `cache`, waits until it answers, and primes the hot
/// set (each hot cell computed and journaled).
fn boot(cache: &Path, hot: &[String]) -> Result<(Server, Client), String> {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: THREADS,
        queue_cap: 64,
        cache_dir: Some(cache.to_path_buf()),
        resident_cap_bytes: Some(RESIDENT_CAP),
    })
    .map_err(|e| format!("daemon did not start: {e}"))?;
    let client = Client::new(server.addr().to_string());
    if !client.wait_ready(Duration::from_secs(10)) {
        return Err("daemon never became ready".to_owned());
    }
    for spec in hot {
        ask(&client, spec)?;
    }
    Ok((server, client))
}

/// The lines a local `run_cell` renders for `spec`.
fn expected(store: &ArtifactStore, spec: &str) -> Result<Vec<String>, String> {
    let parsed = CampaignSpec::parse(spec)?;
    Ok(parsed.cells().iter().map(|c| run_cell(store, c)).collect())
}

pub fn run(args: &Args, work: &WorkDir) -> Report {
    let mut report = Report::default();
    let mut mix = Mix::new(args.seed);

    // Set-up: boot-to-ready plus priming the hot set, three times; the
    // last daemon serves the measured phase.
    let mut setups = Vec::new();
    let mut daemon = None;
    let mut cache = work.fresh("serve-cache");
    let mut peak_rss = 0.0;
    for i in 0..3 {
        // Dropping a daemon drains and stops it.
        if daemon.take().is_some() {
            let _ = std::fs::remove_dir_all(&cache);
            cache = work.fresh("serve-cache");
        }
        let t = Instant::now();
        match boot(&cache, &mix.hot) {
            Ok(d) => daemon = Some(d),
            Err(e) => {
                report.check(false, || e);
                report.set("setup_s", secs(t));
                return report;
            }
        }
        setups.push(secs(t));
        if i == 0 {
            // The peak of one booted daemon with every benchmark's trace
            // resident. Read later, it mostly measured how fragmented
            // the allocator's per-connection-thread arenas happened to
            // get (290-420 MiB from run to run).
            peak_rss = peak_rss_mb();
        }
    }
    let (mut server, client) = daemon.expect("three set-up passes ran");
    let primed = dir_bytes(&cache);

    // Measured phase: lockstep rounds until the time is spent.
    // A block takes at least half a second (every request waits out the
    // accept loop's poll), so this many blocks outlast the phase.
    let rounds: Vec<[Request; 2]> = (0..(args.seconds * 2.0) as usize + 1)
        .flat_map(|_| mix.block())
        .collect();
    let answers = Mutex::new(Vec::new());
    let barrier = Barrier::new(2);
    let stop = AtomicBool::new(false);
    let phase = Instant::now();
    std::thread::scope(|s| {
        for c in 0..2 {
            let (client, rounds, answers) = (&client, &rounds, &answers);
            let (barrier, stop) = (&barrier, &stop);
            s.spawn(move || {
                let mut mine = Vec::new();
                for (r, round) in rounds.iter().enumerate() {
                    let req = &round[c];
                    let t = Instant::now();
                    let outcome = ask(client, &req.spec);
                    mine.push(Answer {
                        kind: req.kind,
                        spec: req.spec.clone(),
                        latency: t.elapsed(),
                        outcome,
                    });
                    if barrier.wait().is_leader() {
                        let done = secs(phase) >= args.seconds || r + 1 == rounds.len();
                        stop.store(done, Ordering::SeqCst);
                    }
                    barrier.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                }
                answers.lock().expect("answer log").extend(mine);
            });
        }
    });
    let elapsed = phase.elapsed();
    let answers = answers.into_inner().expect("answer log");
    let rounds_run = answers.len() / 2;
    let stats = server.store().stats();
    let written = dir_bytes(&cache).saturating_sub(primed);

    // Output check: every line against a local run_cell of its cell, the
    // distinct specs rendered on the workload's threads once the phase is
    // over.
    let specs: Vec<&str> = answers
        .iter()
        .map(|a| a.spec.as_str())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let local = ArtifactStore::new();
    let want: BTreeMap<&str, Result<Vec<String>, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (specs, local) = (&specs, &local);
                s.spawn(move || {
                    specs
                        .iter()
                        .skip(t)
                        .step_by(THREADS)
                        .map(|&spec| (spec, expected(local, spec)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("output-check thread"))
            .collect()
    });
    let (mut lines, mut instructions, mut rejected) = (0u64, 0u64, 0u64);
    for a in &answers {
        let expect = &want[a.spec.as_str()];
        report.check(a.outcome.is_ok() && a.outcome == *expect, || {
            format!(
                "{:?} request {}: got {:?}, want {:?}",
                a.kind, a.spec, a.outcome, expect
            )
        });
        match &a.outcome {
            Ok(got) => {
                lines += got.len() as u64;
                instructions += got
                    .iter()
                    .filter_map(|l| Json::parse(l).ok()?.get("instructions")?.as_u64())
                    .sum::<u64>();
            }
            Err(e) if e.starts_with("HTTP 429") => rejected += 1,
            Err(_) => {}
        }
    }
    // Latency is taken over the hot-set queries: the warm interactive path
    // the daemon exists to serve. Fresh and twin cells are timed by their
    // compute (`sweep_cold` and `campaign.cell_ms_*` cover that), and their
    // tail made a p99 over all interactive requests swing by a quarter
    // from run to run on a shared two-vCPU host.
    let hot_ms: Vec<f64> = answers
        .iter()
        .filter(|a| a.kind == Kind::Hot)
        .map(|a| a.latency.as_secs_f64() * 1e3)
        .collect();
    eprintln!(
        "serve_mixed: {rounds_run} rounds, {} requests, {lines} lines in {elapsed:?}",
        answers.len(),
    );
    let total = elapsed.as_secs_f64();
    // Every block has the same composition, so the mean block time is
    // the phase's cost per unit of the mix.
    report.set("wall_s", total * BLOCK as f64 / rounds_run.max(1) as f64);
    report.set("cells_per_s", lines as f64 / total);
    report.set("sim_minsts_per_s", instructions as f64 / 1e6 / total);
    report.set("queries_per_s", answers.len() as f64 / total);
    report.set("latency_p50_ms", quantile(&hot_ms, 0.5));
    report.set("latency_p99_ms", quantile(&hot_ms, 0.99));
    report.set("latency.samples", hot_ms.len() as f64);
    report.set("setup_s", median(&setups));

    if args.trace {
        layers::store(&mut report, &stats);
        report.set("serve.rejected", rejected as f64);
        report.set("disk.mb_written", written as f64 / (1 << 20) as f64);
        overhead(&mut report, &server, &client, &mix.hot[0], &specs);
        campaign_probe(&mut report, &server, &mix.hot);
        let mut spans = Spans::default();
        let results = layers::replay(&mut report, &mut spans);
        layers::disk_codec(&mut report, &work.fresh("codec"), &results);
        sweep::plan_probe(&mut report);
        battery::probe(&mut report, work);
        spans.write_to(&work.spans_path());
    }
    server.shutdown();
    report.set("peak_rss_mb", peak_rss);
    report
}

/// The daemon's own cost on a memo-hit cell: round trip minus the
/// `run_cell` it wraps, plus spec parsing and the memo-hit path itself.
fn overhead(report: &mut Report, server: &Server, client: &Client, hot: &str, specs: &[&str]) {
    let cell = CampaignSpec::parse(hot).expect("hot spec parses").cells()[0].clone();
    let expect = run_cell(server.store(), &cell);
    let (mut trips, mut local) = (Vec::new(), Vec::new());
    for _ in 0..40 {
        let t = Instant::now();
        let got = ask(client, hot);
        trips.push(t.elapsed().as_secs_f64() * 1e3);
        report.check(got == Ok(vec![expect.clone()]), || {
            format!("hot cell round trip {got:?} != {expect}")
        });
        let t = Instant::now();
        std::hint::black_box(run_cell(server.store(), &cell));
        local.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.set("serve.overhead_ms", median(&trips) - median(&local));
    report.set("artifacts.memo_hit_us", median(&local) * 1e3);
    let t = Instant::now();
    let rounds = 20;
    for _ in 0..rounds {
        for spec in specs {
            std::hint::black_box(CampaignSpec::parse(spec).is_ok());
        }
    }
    report.set(
        "serve.parse_us",
        ratio(
            t.elapsed().as_secs_f64() * 1e6,
            (rounds * specs.len()) as f64,
        ),
    );
}

/// The campaign engine over the daemon's store: the hot set's benchmarks
/// across every mechanism at the served window.
fn campaign_probe(report: &mut Report, server: &Server, hot: &[String]) {
    let mut cfg = ExperimentConfig::paper_baseline(microlib::trace::TraceWindow::new(SKIP, SIM));
    cfg.benchmarks = hot
        .iter()
        .filter_map(|s| CampaignSpec::parse(s).ok())
        .map(|s| s.benchmarks[0].to_owned())
        .collect();
    cfg.benchmarks.sort();
    cfg.benchmarks.dedup();
    cfg.seed = SIM_SEED;
    cfg.threads = THREADS;
    let t = Instant::now();
    let run = Campaign::new(cfg)
        .with_store(std::sync::Arc::clone(server.store()))
        .run();
    let wall = t.elapsed();
    let cell_ms: Vec<f64> = run
        .map(|r| {
            r.cells()
                .iter()
                .map(|c| c.elapsed.as_secs_f64() * 1e3)
                .collect()
        })
        .unwrap_or_default();
    report.check(!cell_ms.is_empty(), || {
        "hot-set campaign rejected".to_owned()
    });
    layers::campaign(report, &cell_ms, wall, THREADS);
}

/// The daemon's per-layer metrics for workloads that do not serve: boot,
/// prime the seed's hot set, and time the memo-hit path.
pub fn probe(report: &mut Report, work: &WorkDir, seed: u64) {
    let mix = Mix::new(seed);
    let cache = work.fresh("serve-probe");
    match boot(&cache, &mix.hot) {
        Ok((mut server, client)) => {
            let specs: Vec<&str> = mix.hot.iter().map(String::as_str).collect();
            overhead(report, &server, &client, &mix.hot[0], &specs);
            report.set("serve.rejected", 0.0);
            server.shutdown();
        }
        Err(e) => report.check(false, || e),
    }
    let _ = std::fs::remove_dir_all(&cache);
}
