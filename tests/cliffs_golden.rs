//! The cliffs-golden regression gate: every committed cliff record in
//! `cliffs-golden/` is re-probed through **both** model tiers and the
//! re-rendered record must match the committed bytes exactly.
//!
//! The corpus pins the two tiers *against each other*: a change to the
//! detailed simulator, the analytic CPI stack, the warm counters, the
//! ranking, or the record format itself shows up as a byte diff here.
//! The CI golden job also runs this test with `MICROLIB_MINE_PERTURB`
//! set and asserts it FAILS — proving the gate actually watches the
//! numbers.
//!
//! Regenerate the corpus (after an intentional model change) with:
//!
//! ```text
//! rm -rf cliffs-golden && \
//!   cargo run --release --bin run_all -- --mine --mine-export cliffs-golden
//! ```

use microlib::{ArtifactStore, Settings, SimOptions};
use microlib_miner::{probe, CliffRecord, ConfigDelta, MineConfig};
use microlib_trace::TraceWindow;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("cliffs-golden")
}

fn corpus() -> Vec<(PathBuf, String)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("cliffs-golden/ exists (regenerate with run_all --mine --mine-export)")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("cliff-") && n.ends_with(".txt"))
        })
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable record");
            (p, text)
        })
        .collect()
}

#[test]
fn corpus_is_nonempty_and_well_formed() {
    let records = corpus();
    assert!(
        records.len() >= 5,
        "cliffs-golden/ holds {} records, expected at least 5",
        records.len()
    );
    for (path, text) in &records {
        let record = CliffRecord::parse(text)
            .unwrap_or_else(|| panic!("{} is malformed or its id is stale", path.display()));
        assert_eq!(
            path.file_name().and_then(|n| n.to_str()),
            Some(format!("cliff-{:016x}.txt", record.id()).as_str()),
            "file name must carry the record's content id"
        );
        assert!(
            text.lines().any(|l| l.starts_with("repro: ")),
            "{} lacks a repro line",
            path.display()
        );
    }
}

/// Re-probes every committed cliff and byte-compares the re-rendered
/// record. One shared store keeps each benchmark's baseline probe (and
/// its detailed runs) memoized across records.
#[test]
fn every_committed_cliff_reproduces_byte_identically() {
    let store = ArtifactStore::new();
    let perturb = Settings::from_env().expect("MICROLIB_* parse").mine_perturb;
    let mut checked = 0usize;
    for (path, text) in corpus() {
        let golden =
            CliffRecord::parse(&text).unwrap_or_else(|| panic!("{} is malformed", path.display()));
        let cfg = MineConfig {
            mechanisms: golden.mechanisms.clone(),
            perturb,
            ..MineConfig::standard(SimOptions {
                seed: golden.seed,
                window: TraceWindow::new(golden.skip, golden.simulate),
                ..SimOptions::default()
            })
        };
        let minimal = ConfigDelta::parse(&golden.minimal)
            .unwrap_or_else(|| panic!("{}: bad minimal delta", path.display()));
        let baseline = probe(&store, &cfg, &ConfigDelta::default(), &golden.benchmark)
            .unwrap_or_else(|e| panic!("{}: baseline probe failed: {e}", path.display()));
        let cell = probe(&store, &cfg, &minimal, &golden.benchmark)
            .unwrap_or_else(|e| panic!("{}: cell probe failed: {e}", path.display()));
        let kind = cell.cliff_kind(&baseline, golden.bound).unwrap_or_else(|| {
            panic!("{}: the minimal delta is no longer a cliff", path.display())
        });
        let rebuilt = CliffRecord::from_probe(
            &golden.benchmark,
            kind,
            &golden.original,
            &golden.minimal,
            golden.seed,
            golden.skip,
            golden.simulate,
            golden.bound,
            perturb,
            baseline.max_rel_err,
            cell.divergence_shift(&baseline),
            &cell,
        );
        assert_eq!(
            rebuilt.render(),
            text,
            "{}: re-probed record drifted from the committed bytes \
             (a tier's numbers changed; regenerate the corpus if intentional)",
            path.display()
        );
        checked += 1;
    }
    assert!(checked >= 5, "gate re-checked only {checked} records");
}
