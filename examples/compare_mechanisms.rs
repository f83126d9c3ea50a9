//! The library's reason to exist: a fair, same-configuration quantitative
//! comparison of all thirteen mechanism configurations on a benchmark
//! selection of your choice.
//!
//! ```sh
//! cargo run --release --example compare_mechanisms            # default trio
//! cargo run --release --example compare_mechanisms -- swim mcf gzip ammp
//! ```

use microlib::report::bar;
use microlib::{rank_mechanisms, Campaign, ExperimentConfig};
use microlib_trace::{benchmarks, TraceWindow};

fn main() -> Result<(), microlib::SimError> {
    let mut selection: Vec<String> = std::env::args().skip(1).collect();
    if selection.is_empty() {
        selection = vec!["swim".into(), "mcf".into(), "gzip".into()];
    }
    for name in &selection {
        assert!(
            benchmarks::by_name(name).is_some(),
            "unknown benchmark {name:?}; known: {:?}",
            benchmarks::NAMES
        );
    }

    let cfg = ExperimentConfig {
        benchmarks: selection.clone(),
        ..ExperimentConfig::paper_baseline(TraceWindow::new(80_000, 50_000))
    };
    println!(
        "running {} x {} simulations…",
        cfg.benchmarks.len(),
        cfg.mechanisms.len()
    );
    let matrix = Campaign::new(cfg).run()?.into_matrix()?;

    let names: Vec<&str> = selection.iter().map(String::as_str).collect();
    println!("\nmean speedup over {:?}:", selection);
    for row in rank_mechanisms(&matrix, &names) {
        println!(
            "{:2}. {}",
            row.rank,
            bar(&row.mechanism.to_string(), row.mean_speedup, 1.5, 40)
        );
    }
    println!("\nper-benchmark winners:");
    for b in &selection {
        let best = rank_mechanisms(&matrix, &[b.as_str()])
            .into_iter()
            .next()
            .expect("nonempty");
        println!(
            "  {:10} {:8} ({:.3})",
            b,
            best.mechanism.to_string(),
            best.mean_speedup
        );
    }
    println!("\n(the full-suite ranking is regenerated by `cargo run --release -p microlib-bench --bin fig04_speedup`)");
    Ok(())
}
