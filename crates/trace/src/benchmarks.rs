//! The 26 synthetic SPEC CPU2000 benchmark profiles.
//!
//! Each profile is tuned to reproduce the *behaviour class* the paper (and
//! the literature it cites) attributes to the benchmark (the mechanisms
//! only observe the address/PC/value stream, so matching the behaviour
//! class exercises the same mechanism code paths). Every phase mixes a
//! **hot** stream (a small working set that caches well — the
//! stack/globals/hot structures real programs spend most accesses on) with
//! the benchmark's *characteristic* streams. Highlights wired to specific paper anecdotes:
//!
//! - `ammp`: 96-byte nodes with the next pointer 88 bytes in, so a 64-byte
//!   line fetch never contains it — CDP "systematically fails to prefetch
//!   it, saturating the memory bandwidth with useless prefetch requests";
//! - `mcf`: huge shuffled pointer graph with decoy pointers (CDP degrades
//!   it, speedup 0.75 in the paper);
//! - `equake`/`twolf`: pointer structures whose next pointers sit inside
//!   the fetched line (CDP gains, 1.11 / 1.07);
//! - `gzip`/`ammp`: repeating access sequences that Markov prefetching
//!   learns ("Markov outperforms all other mechanisms on gzip and ammp");
//! - `lucas`: long-stride memory-bound streams (387-cycle average SDRAM
//!   latency anecdote);
//! - high-sensitivity set {apsi, equake, fma3d, mgrid, swim, gap} and
//!   low-sensitivity set {wupwise, bzip2, crafty, eon, perlbmk, vortex}
//!   per Fig 6.

use crate::profile::{BenchmarkProfile, PhaseProfile, StreamSpec, Suite};

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

fn strided(stride: i64, working_set: u64, weight: f64) -> StreamSpec {
    StreamSpec::Strided {
        stride,
        working_set,
        weight,
    }
}

/// The hot, cache-resident stream every program has (stack, globals, hot
/// structures): a tight sequential walk over a small buffer.
fn hot(working_set: u64, weight: f64) -> StreamSpec {
    strided(8, working_set, weight)
}

fn chase(
    nodes: u32,
    node_bytes: u32,
    next_offset: u32,
    decoy_pointers: u32,
    shuffled: bool,
    weight: f64,
) -> StreamSpec {
    StreamSpec::PointerChase {
        nodes,
        node_bytes,
        next_offset,
        decoy_pointers,
        shuffled,
        weight,
    }
}

fn random(working_set: u64, weight: f64) -> StreamSpec {
    StreamSpec::Random {
        working_set,
        weight,
    }
}

fn repeating(sequence_len: u32, working_set: u64, noise: f64, weight: f64) -> StreamSpec {
    StreamSpec::Repeating {
        sequence_len,
        working_set,
        noise,
        weight,
    }
}

#[allow(clippy::too_many_arguments)]
fn phase(
    load_frac: f64,
    store_frac: f64,
    fp_frac: f64,
    mult_frac: f64,
    block_len: u32,
    streams: Vec<StreamSpec>,
) -> PhaseProfile {
    PhaseProfile {
        load_frac,
        store_frac,
        fp_frac,
        mult_frac,
        streams,
        block_len,
    }
}

#[allow(clippy::too_many_arguments)]
fn profile(
    name: &'static str,
    suite: Suite,
    phases: Vec<PhaseProfile>,
    phase_pattern: Vec<usize>,
    mispredict_rate: f64,
    mean_dep_distance: f64,
    code_blocks: u32,
    frequent_value_bias: f64,
) -> BenchmarkProfile {
    BenchmarkProfile {
        name,
        suite,
        phases,
        phase_pattern,
        phase_len: 25_000,
        mispredict_rate,
        mean_dep_distance,
        code_blocks,
        frequent_value_bias,
    }
}

/// All 26 benchmark names in the paper's canonical (suite, alphabetical)
/// order: 14 CFP2000 then 12 CINT2000.
pub const NAMES: [&str; 26] = [
    "ammp", "applu", "apsi", "art", "equake", "facerec", "fma3d", "galgel", "lucas", "mesa",
    "mgrid", "sixtrack", "swim", "wupwise", "bzip2", "crafty", "eon", "gap", "gcc", "gzip", "mcf",
    "parser", "perlbmk", "twolf", "vortex", "vpr",
];

/// The six high-sensitivity benchmarks of Fig 6/7.
pub const HIGH_SENSITIVITY: [&str; 6] = ["apsi", "equake", "fma3d", "mgrid", "swim", "gap"];

/// The six low-sensitivity benchmarks of Fig 6/7.
pub const LOW_SENSITIVITY: [&str; 6] = ["wupwise", "bzip2", "crafty", "eon", "perlbmk", "vortex"];

/// The five-benchmark selection used in the DBCP article (Table 4; the
/// exact set is approximated by the five pointer/correlation-friendly
/// benchmarks).
pub const DBCP_SELECTION: [&str; 5] = ["ammp", "equake", "gzip", "mcf", "twolf"];

/// The twelve-benchmark selection used in the GHB article (Table 4,
/// approximated by the stride/pointer mix the HPCA 2004 paper evaluated).
pub const GHB_SELECTION: [&str; 12] = [
    "applu", "art", "equake", "facerec", "lucas", "mcf", "mgrid", "parser", "swim", "twolf", "vpr",
    "wupwise",
];

/// Strongly-phased synthetic profiles (not SPEC models and not part of
/// [`NAMES`] or the paper's campaign): each alternates sharply different
/// execution phases so BBV clustering has real structure to find. They
/// exercise the SimPoint sampling pipeline — `tests/sampling.rs` checks
/// that sampled and full simulation agree on them within the reported
/// error bound.
pub const PHASED_SYNTHETICS: [&str; 3] = ["pulse", "drift", "strobe"];

/// Builds the profile for one benchmark.
///
/// # Examples
///
/// ```
/// let p = microlib_trace::benchmarks::by_name("mcf").unwrap();
/// assert_eq!(p.name, "mcf");
/// p.validate().unwrap();
/// ```
pub fn by_name(name: &str) -> Option<BenchmarkProfile> {
    let p = match name {
        // ----------------------------- CFP2000 -----------------------------
        "ammp" => profile(
            "ammp",
            Suite::Fp,
            vec![
                // Molecular-dynamics neighbour lists: a repeating pointer
                // traversal (Markov-learnable) whose next pointer sits
                // *past* the fetched 64-byte line, plus stale pointer
                // fields that bait CDP.
                phase(
                    0.30,
                    0.10,
                    0.55,
                    0.08,
                    10,
                    vec![chase(2_600, 96, 88, 4, true, 2.0), hot(6 * KB, 4.0)],
                ),
                phase(
                    0.26,
                    0.14,
                    0.60,
                    0.10,
                    12,
                    vec![chase(9_000, 96, 88, 4, true, 2.0), hot(6 * KB, 4.5)],
                ),
            ],
            vec![0, 0, 1, 0],
            0.02,
            2.8,
            80,
            0.15,
        ),
        "applu" => profile(
            "applu",
            Suite::Fp,
            vec![phase(
                0.30,
                0.12,
                0.78,
                0.12,
                14,
                vec![
                    strided(32, 2 * MB, 2.0),
                    strided(-32, MB, 1.0),
                    hot(6 * KB, 3.0),
                ],
            )],
            vec![0],
            0.010,
            5.0,
            48,
            0.10,
        ),
        "apsi" => profile(
            "apsi",
            Suite::Fp,
            vec![
                phase(
                    0.32,
                    0.12,
                    0.72,
                    0.10,
                    12,
                    vec![
                        strided(32, 3 * MB, 2.0),
                        strided(64, MB, 1.5),
                        hot(8 * KB, 2.5),
                    ],
                ),
                phase(
                    0.30,
                    0.16,
                    0.70,
                    0.10,
                    12,
                    vec![
                        strided(32, 3 * MB, 2.0),
                        strided(-32, 2 * MB, 1.5),
                        strided(256 * KB as i64, 2 * MB, 0.7),
                        hot(8 * KB, 2.5),
                    ],
                ),
            ],
            vec![0, 1],
            0.012,
            4.5,
            64,
            0.10,
        ),
        "art" => profile(
            "art",
            Suite::Fp,
            vec![phase(
                0.34,
                0.08,
                0.70,
                0.08,
                10,
                vec![
                    strided(-32, 1536 * KB, 1.3),
                    strided(32, MB, 1.2),
                    random(64 * KB, 0.8),
                    hot(8 * KB, 3.0),
                ],
            )],
            vec![0],
            0.015,
            3.5,
            32,
            0.20,
        ),
        "equake" => profile(
            "equake",
            Suite::Fp,
            vec![
                // Sparse-matrix pointer structure: next pointer *inside*
                // the fetched line (CDP-friendly).
                phase(
                    0.33,
                    0.08,
                    0.60,
                    0.08,
                    10,
                    vec![
                        chase(20_000, 64, 8, 0, true, 2.0),
                        strided(32, MB, 1.0),
                        hot(6 * KB, 3.0),
                    ],
                ),
                phase(
                    0.30,
                    0.12,
                    0.65,
                    0.10,
                    12,
                    vec![
                        chase(20_000, 64, 8, 0, true, 1.5),
                        strided(32, 2 * MB, 1.5),
                        hot(6 * KB, 3.0),
                    ],
                ),
            ],
            vec![0, 1],
            0.015,
            3.0,
            72,
            0.12,
        ),
        "facerec" => profile(
            "facerec",
            Suite::Fp,
            vec![phase(
                0.30,
                0.10,
                0.72,
                0.10,
                12,
                vec![
                    strided(128, 2 * MB, 1.2),
                    strided(256 * KB as i64, 2 * MB, 1.0),
                    strided(32, 512 * KB, 1.0),
                    hot(6 * KB, 1.8),
                    hot(6 * KB, 1.7),
                ],
            )],
            vec![0],
            0.012,
            4.2,
            48,
            0.10,
        ),
        "fma3d" => profile(
            "fma3d",
            Suite::Fp,
            vec![
                phase(
                    0.31,
                    0.13,
                    0.70,
                    0.10,
                    12,
                    vec![
                        strided(32, 3 * MB, 2.0),
                        strided(256 * KB as i64, 2 * MB, 0.5),
                        random(256 * KB, 0.8),
                        hot(8 * KB, 2.8),
                    ],
                ),
                phase(
                    0.28,
                    0.15,
                    0.72,
                    0.12,
                    14,
                    vec![
                        strided(32, 2 * MB, 2.0),
                        random(512 * KB, 0.8),
                        hot(8 * KB, 2.8),
                    ],
                ),
            ],
            vec![0, 1, 0],
            0.015,
            4.0,
            96,
            0.10,
        ),
        "galgel" => profile(
            "galgel",
            Suite::Fp,
            vec![phase(
                0.30,
                0.12,
                0.78,
                0.14,
                14,
                vec![
                    strided(-32, 320 * KB, 1.5),
                    hot(6 * KB, 2.5),
                    hot(6 * KB, 2.5),
                ],
            )],
            vec![0],
            0.008,
            4.8,
            40,
            0.10,
        ),
        "lucas" => profile(
            "lucas",
            Suite::Fp,
            vec![phase(
                0.28,
                0.12,
                0.82,
                0.14,
                16,
                vec![
                    strided(32, 4 * MB, 2.0),
                    strided(512, 4 * MB, 1.0),
                    hot(8 * KB, 2.0),
                ],
            )],
            vec![0],
            0.006,
            5.5,
            24,
            0.08,
        ),
        "mesa" => profile(
            "mesa",
            Suite::Fp,
            vec![phase(
                0.26,
                0.12,
                0.55,
                0.10,
                12,
                vec![
                    strided(32, 96 * KB, 1.0),
                    random(32 * KB, 0.5),
                    hot(6 * KB, 5.0),
                ],
            )],
            vec![0],
            0.020,
            3.5,
            80,
            0.18,
        ),
        "mgrid" => profile(
            "mgrid",
            Suite::Fp,
            vec![
                phase(
                    0.33,
                    0.10,
                    0.80,
                    0.12,
                    16,
                    vec![
                        strided(32, 2560 * KB, 2.2),
                        strided(256, 2560 * KB, 1.0),
                        strided(256 * KB as i64, 2 * MB, 0.5),
                        hot(8 * KB, 2.2),
                    ],
                ),
                phase(
                    0.30,
                    0.14,
                    0.80,
                    0.12,
                    16,
                    vec![
                        strided(-32, 2560 * KB, 2.0),
                        strided(32, MB, 1.5),
                        hot(8 * KB, 2.2),
                    ],
                ),
            ],
            vec![0, 0, 1],
            0.008,
            5.0,
            40,
            0.08,
        ),
        "sixtrack" => profile(
            "sixtrack",
            Suite::Fp,
            vec![phase(
                0.24,
                0.10,
                0.75,
                0.16,
                14,
                vec![strided(32, 96 * KB, 1.0), hot(6 * KB, 5.0)],
            )],
            vec![0],
            0.010,
            2.8,
            56,
            0.10,
        ),
        "swim" => profile(
            "swim",
            Suite::Fp,
            vec![phase(
                0.31,
                0.15,
                0.80,
                0.10,
                16,
                vec![
                    strided(32, 1536 * KB, 1.4),
                    strided(-32, 1536 * KB, 1.4),
                    strided(32, 1536 * KB, 1.4),
                    hot(8 * KB, 3.0),
                ],
            )],
            vec![0],
            0.005,
            5.5,
            24,
            0.08,
        ),
        "wupwise" => profile(
            "wupwise",
            Suite::Fp,
            vec![phase(
                0.26,
                0.10,
                0.72,
                0.14,
                14,
                vec![strided(-32, 128 * KB, 1.0), hot(6 * KB, 6.0)],
            )],
            vec![0],
            0.008,
            4.5,
            40,
            0.10,
        ),
        // ----------------------------- CINT2000 ----------------------------
        "bzip2" => profile(
            "bzip2",
            Suite::Int,
            vec![
                phase(
                    0.28,
                    0.12,
                    0.0,
                    0.04,
                    8,
                    vec![
                        random(256 * KB, 0.7),
                        strided(32, 128 * KB, 0.8),
                        hot(6 * KB, 6.0),
                    ],
                ),
                phase(
                    0.30,
                    0.14,
                    0.0,
                    0.04,
                    8,
                    vec![
                        strided(-32, 192 * KB, 1.0),
                        random(96 * KB, 0.5),
                        hot(6 * KB, 6.0),
                    ],
                ),
            ],
            vec![0, 1],
            0.040,
            3.0,
            72,
            0.25,
        ),
        "crafty" => profile(
            "crafty",
            Suite::Int,
            vec![phase(
                0.27,
                0.09,
                0.0,
                0.06,
                6,
                vec![random(64 * KB, 0.6), hot(6 * KB, 3.0), hot(6 * KB, 3.0)],
            )],
            vec![0],
            0.060,
            2.5,
            104,
            0.22,
        ),
        "eon" => profile(
            "eon",
            Suite::Int,
            vec![phase(
                0.28,
                0.12,
                0.30,
                0.08,
                8,
                vec![strided(32, 48 * KB, 0.8), hot(6 * KB, 6.0)],
            )],
            vec![0],
            0.030,
            3.0,
            88,
            0.18,
        ),
        "gap" => profile(
            "gap",
            Suite::Int,
            vec![
                // Group-theory workspace sweeps: big sequential bags plus a
                // pointer structure — very mechanism-sensitive (Fig 6).
                phase(
                    0.33,
                    0.12,
                    0.0,
                    0.06,
                    9,
                    vec![
                        chase(16_000, 64, 8, 0, false, 1.2),
                        strided(32, 2 * MB, 2.2),
                        hot(8 * KB, 2.5),
                    ],
                ),
                phase(
                    0.30,
                    0.15,
                    0.0,
                    0.06,
                    9,
                    vec![
                        strided(-32, 3 * MB, 2.5),
                        random(256 * KB, 0.6),
                        hot(8 * KB, 2.5),
                    ],
                ),
            ],
            vec![0, 1],
            0.025,
            3.2,
            88,
            0.25,
        ),
        "gcc" => profile(
            "gcc",
            Suite::Int,
            vec![
                phase(
                    0.30,
                    0.14,
                    0.0,
                    0.04,
                    6,
                    vec![
                        random(768 * KB, 1.0),
                        strided(32, 256 * KB, 0.8),
                        hot(6 * KB, 4.0),
                    ],
                ),
                phase(
                    0.28,
                    0.12,
                    0.0,
                    0.04,
                    7,
                    vec![random(256 * KB, 0.8), hot(6 * KB, 4.5)],
                ),
                phase(
                    0.33,
                    0.16,
                    0.0,
                    0.04,
                    6,
                    vec![
                        random(MB, 1.0),
                        repeating(300, 512 * KB, 0.10, 0.8),
                        hot(6 * KB, 4.0),
                    ],
                ),
            ],
            vec![0, 1, 2, 1],
            0.050,
            2.8,
            224,
            0.20,
        ),
        "gzip" => profile(
            "gzip",
            Suite::Int,
            vec![
                // Dictionary scans: the same miss sequence replays over and
                // over — Markov territory.
                phase(
                    0.30,
                    0.12,
                    0.0,
                    0.04,
                    8,
                    vec![repeating(3000, 1536 * KB, 0.04, 2.2), hot(6 * KB, 4.5)],
                ),
                phase(
                    0.28,
                    0.14,
                    0.0,
                    0.04,
                    8,
                    vec![repeating(2200, MB, 0.06, 1.8), hot(6 * KB, 4.5)],
                ),
            ],
            vec![0, 1],
            0.030,
            3.0,
            64,
            0.30,
        ),
        "mcf" => profile(
            "mcf",
            Suite::Int,
            vec![
                // Network-simplex graph: enormous shuffled pointer chase
                // with pointer-dense nodes (every field looks like a
                // pointer) — CDP chases them to depth 3 and saturates the
                // memory system.
                phase(
                    0.35,
                    0.08,
                    0.0,
                    0.03,
                    7,
                    vec![chase(36_000, 96, 8, 2, true, 3.0), hot(8 * KB, 3.0)],
                ),
                phase(
                    0.32,
                    0.12,
                    0.0,
                    0.03,
                    7,
                    vec![
                        chase(36_000, 96, 8, 2, true, 2.5),
                        strided(32, MB, 0.8),
                        hot(8 * KB, 3.0),
                    ],
                ),
            ],
            vec![0, 0, 1],
            0.040,
            2.4,
            56,
            0.30,
        ),
        "parser" => profile(
            "parser",
            Suite::Int,
            vec![phase(
                0.31,
                0.11,
                0.0,
                0.04,
                7,
                vec![
                    chase(12_000, 48, 16, 0, true, 1.2),
                    random(256 * KB, 0.6),
                    hot(6 * KB, 2.3),
                    hot(6 * KB, 2.2),
                ],
            )],
            vec![0],
            0.045,
            2.6,
            112,
            0.25,
        ),
        "perlbmk" => profile(
            "perlbmk",
            Suite::Int,
            vec![phase(
                0.29,
                0.13,
                0.0,
                0.05,
                6,
                vec![random(96 * KB, 0.6), hot(6 * KB, 6.0)],
            )],
            vec![0],
            0.050,
            2.8,
            120,
            0.22,
        ),
        "twolf" => profile(
            "twolf",
            Suite::Int,
            vec![phase(
                0.32,
                0.10,
                0.0,
                0.05,
                8,
                vec![
                    chase(10_000, 64, 16, 0, true, 1.4),
                    random(128 * KB, 0.6),
                    hot(6 * KB, 2.0),
                    hot(6 * KB, 2.0),
                ],
            )],
            vec![0],
            0.035,
            2.8,
            96,
            0.20,
        ),
        "vortex" => profile(
            "vortex",
            Suite::Int,
            vec![phase(
                0.30,
                0.14,
                0.0,
                0.04,
                7,
                vec![
                    strided(-32, 256 * KB, 0.8),
                    random(128 * KB, 0.5),
                    hot(6 * KB, 3.0),
                    hot(6 * KB, 3.0),
                ],
            )],
            vec![0],
            0.030,
            3.2,
            112,
            0.22,
        ),
        "vpr" => profile(
            "vpr",
            Suite::Int,
            vec![
                phase(
                    0.31,
                    0.11,
                    0.0,
                    0.05,
                    8,
                    vec![
                        chase(8_000, 64, 24, 0, true, 1.0),
                        random(512 * KB, 0.8),
                        hot(6 * KB, 4.0),
                    ],
                ),
                phase(
                    0.29,
                    0.13,
                    0.0,
                    0.05,
                    8,
                    vec![
                        random(768 * KB, 1.0),
                        strided(16, 128 * KB, 0.6),
                        hot(6 * KB, 4.0),
                    ],
                ),
            ],
            vec![0, 1],
            0.040,
            2.9,
            112,
            0.20,
        ),
        // ---------------------- phased synthetics ---------------------
        // (see PHASED_SYNTHETICS — sampling-pipeline workloads, not SPEC)
        "pulse" => profile(
            "pulse",
            Suite::Fp,
            vec![
                // Phase 0: memory-bound streaming burst — long strided
                // sweeps far beyond L2, low ILP pressure on the cache.
                phase(
                    0.34,
                    0.10,
                    0.75,
                    0.10,
                    16,
                    vec![
                        strided(32, 4 * MB, 2.5),
                        strided(-64, 3 * MB, 1.5),
                        hot(6 * KB, 1.5),
                    ],
                ),
                // Phase 1: cache-resident compute — almost everything
                // hits L1, CPI drops by multiples vs phase 0.
                phase(
                    0.18,
                    0.06,
                    0.70,
                    0.16,
                    12,
                    vec![hot(4 * KB, 6.0), strided(8, 16 * KB, 2.0)],
                ),
            ],
            vec![0, 1],
            0.010,
            4.5,
            48,
            0.10,
        ),
        "drift" => profile(
            "drift",
            Suite::Int,
            vec![
                // Phase 0: serialized pointer chasing (latency-bound).
                phase(
                    0.33,
                    0.08,
                    0.0,
                    0.04,
                    8,
                    vec![chase(24_000, 64, 8, 0, true, 2.5), hot(6 * KB, 2.0)],
                ),
                // Phase 1: regular strides (prefetcher-friendly).
                phase(
                    0.30,
                    0.12,
                    0.0,
                    0.05,
                    10,
                    vec![strided(64, 2 * MB, 2.5), hot(6 * KB, 2.0)],
                ),
                // Phase 2: random scatter (nothing helps but capacity).
                phase(
                    0.31,
                    0.11,
                    0.0,
                    0.04,
                    7,
                    vec![random(MB, 1.5), hot(6 * KB, 2.0)],
                ),
            ],
            vec![0, 1, 2, 1, 0, 2],
            0.035,
            2.8,
            96,
            0.20,
        ),
        "strobe" => profile(
            "strobe",
            Suite::Int,
            vec![
                // Phase 0: a long repeating miss sequence (Markov/TCP
                // learnable) over a large footprint.
                phase(
                    0.31,
                    0.11,
                    0.0,
                    0.04,
                    8,
                    vec![repeating(2400, 2 * MB, 0.03, 2.2), hot(6 * KB, 2.5)],
                ),
                // Phase 1: hostile random churn that evicts what phase 0
                // learned.
                phase(
                    0.29,
                    0.13,
                    0.0,
                    0.04,
                    7,
                    vec![random(1536 * KB, 1.2), hot(6 * KB, 2.5)],
                ),
            ],
            vec![0, 0, 1],
            0.040,
            3.0,
            72,
            0.25,
        ),
        _ => return None,
    };
    Some(p)
}

/// All 26 profiles in canonical order.
pub fn spec2000() -> Vec<BenchmarkProfile> {
    NAMES
        .iter()
        .map(|n| by_name(n).expect("registry covers NAMES"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_exist_and_validate() {
        let all = spec2000();
        assert_eq!(all.len(), 26);
        for p in &all {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<_> = NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 26);
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(by_name("doom3").is_none());
    }

    #[test]
    fn suite_split_is_14_12() {
        let all = spec2000();
        let fp = all.iter().filter(|p| p.suite == Suite::Fp).count();
        assert_eq!(fp, 14);
        assert_eq!(all.len() - fp, 12);
    }

    #[test]
    fn selections_are_subsets_of_names() {
        for sel in [
            HIGH_SENSITIVITY.as_slice(),
            LOW_SENSITIVITY.as_slice(),
            DBCP_SELECTION.as_slice(),
            GHB_SELECTION.as_slice(),
        ] {
            for n in sel {
                assert!(NAMES.contains(n), "{n} not a benchmark");
            }
        }
    }

    #[test]
    fn ammp_defeats_line_contained_pointer_scan() {
        let p = by_name("ammp").unwrap();
        let found = p.phases.iter().flat_map(|ph| &ph.streams).any(|s| {
            matches!(
                s,
                StreamSpec::PointerChase {
                    next_offset, ..
                } if *next_offset >= 64
            )
        });
        assert!(found, "ammp's next pointer must sit past the 64-byte line");
    }

    #[test]
    fn mcf_has_decoy_pointers() {
        let p = by_name("mcf").unwrap();
        let found = p.phases.iter().flat_map(|ph| &ph.streams).any(
            |s| matches!(s, StreamSpec::PointerChase { decoy_pointers, .. } if *decoy_pointers > 0),
        );
        assert!(found);
    }

    #[test]
    fn phased_synthetics_validate_and_stay_out_of_the_campaign() {
        for name in PHASED_SYNTHETICS {
            let p = by_name(name).unwrap_or_else(|| panic!("{name} missing"));
            p.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                !NAMES.contains(&name),
                "{name} must not join the 26-benchmark campaign"
            );
            assert!(
                p.phases.len() >= 2,
                "{name} must have multiple distinct phases"
            );
            assert!(
                p.phase_pattern.len() >= 2,
                "{name} must alternate between phases"
            );
        }
    }

    #[test]
    fn high_and_low_sensitivity_disjoint() {
        for h in HIGH_SENSITIVITY {
            assert!(!LOW_SENSITIVITY.contains(&h));
        }
    }

    #[test]
    fn every_phase_has_a_hot_stream() {
        for p in spec2000() {
            for (i, ph) in p.phases.iter().enumerate() {
                let has_hot = ph.streams.iter().any(|s| {
                    matches!(
                        s,
                        StreamSpec::Strided { stride: 8, working_set, .. }
                        if *working_set <= 16 * KB
                    )
                });
                assert!(has_hot, "{} phase {i} lacks a hot stream", p.name);
            }
        }
    }
}
