//! Behaviour profiles describing synthetic SPEC CPU2000-like workloads.
//!
//! A [`BenchmarkProfile`] is a declarative description of how a benchmark
//! behaves: instruction mix, dependency density (ILP), memory streams
//! (strided, pointer-chasing, random, repeating), working-set sizes, value
//! locality, code footprint, phase structure and branch predictability.
//! [`Workload`](crate::Workload) turns a profile into a concrete
//! deterministic instruction stream plus an initialized memory image.
//!
//! The profiles stand in for the paper's SPEC CPU2000 Alpha binaries: the
//! mechanisms only observe the address/PC/value stream, so a profile tuned
//! to a benchmark's published behaviour exercises the same mechanism code
//! paths the real benchmark would.

/// Integer or floating-point suite membership (SPEC CINT2000 / CFP2000).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Suite {
    /// CINT2000.
    Int,
    /// CFP2000.
    Fp,
}

/// One memory access stream within a phase.
#[derive(Clone, Debug, PartialEq)]
pub enum StreamSpec {
    /// Regular strided walk over a working set (array sweeps). Stride
    /// prefetchers (SP, GHB) love these; the stride is in bytes.
    Strided {
        /// Byte stride between consecutive accesses.
        stride: i64,
        /// Working-set size in bytes (the walk wraps around).
        working_set: u64,
        /// Relative selection weight within the phase.
        weight: f64,
    },
    /// Pointer chasing through a linked structure laid out in memory at
    /// initialization time. Each access loads the next pointer, serializing
    /// on memory latency. Content-directed prefetching inspects these very
    /// nodes for pointers.
    PointerChase {
        /// Number of nodes in the chain.
        nodes: u32,
        /// Node size in bytes (ammp's 88-byte nodes defeat 64-byte-line
        /// pointer scans).
        node_bytes: u32,
        /// Byte offset of the `next` pointer within the node.
        next_offset: u32,
        /// Extra pointer-looking fields per node within the first 64 bytes
        /// (stale pointers that bait CDP into useless prefetches, as in
        /// mcf).
        decoy_pointers: u32,
        /// Whether node order in memory is shuffled (defeats next-line
        /// prefetching) or sequential.
        shuffled: bool,
        /// Relative selection weight within the phase.
        weight: f64,
    },
    /// Uniformly random accesses within a working set (hash tables, symbol
    /// tables). Defeats every prefetcher; only capacity helps.
    Random {
        /// Working-set size in bytes.
        working_set: u64,
        /// Relative selection weight within the phase.
        weight: f64,
    },
    /// A fixed sequence of addresses replayed over and over with occasional
    /// noise — the repeating miss sequences Markov prefetching and
    /// tag-correlating prefetching learn.
    Repeating {
        /// Number of distinct addresses in the sequence.
        sequence_len: u32,
        /// Working-set size in bytes the sequence is drawn from.
        working_set: u64,
        /// Probability of replacing one step with a random address.
        noise: f64,
        /// Relative selection weight within the phase.
        weight: f64,
    },
}

impl StreamSpec {
    /// The stream's selection weight.
    pub fn weight(&self) -> f64 {
        match self {
            StreamSpec::Strided { weight, .. }
            | StreamSpec::PointerChase { weight, .. }
            | StreamSpec::Random { weight, .. }
            | StreamSpec::Repeating { weight, .. } => *weight,
        }
    }
}

/// Instruction mix and memory behaviour for one program phase.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseProfile {
    /// Fraction of instructions that are loads.
    pub load_frac: f64,
    /// Fraction that are stores.
    pub store_frac: f64,
    /// Of the non-memory, non-branch instructions, fraction that are FP.
    pub fp_frac: f64,
    /// Of the ALU instructions, fraction that are multiplies/divides.
    pub mult_frac: f64,
    /// Memory streams active in this phase.
    pub streams: Vec<StreamSpec>,
    /// Mean basic-block length in instructions (a branch ends each block).
    pub block_len: u32,
}

impl PhaseProfile {
    /// Validates the mix fractions.
    ///
    /// # Errors
    ///
    /// Returns a message when fractions are out of range or streams are
    /// missing while memory instructions are requested.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.load_frac)
            || !(0.0..=1.0).contains(&self.store_frac)
            || self.load_frac + self.store_frac > 0.95
        {
            return Err(format!(
                "memory fractions invalid: loads {} stores {}",
                self.load_frac, self.store_frac
            ));
        }
        if self.load_frac + self.store_frac > 0.0 && self.streams.is_empty() {
            return Err("memory instructions requested but no streams defined".to_owned());
        }
        if self.block_len < 2 {
            return Err("basic blocks must hold at least 2 instructions".to_owned());
        }
        Ok(())
    }
}

/// Complete behavioural description of one synthetic benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchmarkProfile {
    /// Benchmark name (matches the SPEC CPU2000 name it models).
    pub name: &'static str,
    /// Suite membership.
    pub suite: Suite,
    /// The distinct phases of the program.
    pub phases: Vec<PhaseProfile>,
    /// Order in which phases repeat (indices into `phases`).
    pub phase_pattern: Vec<usize>,
    /// Instructions per phase segment.
    pub phase_len: u64,
    /// Branch misprediction probability.
    pub mispredict_rate: f64,
    /// Mean producer distance for dependencies (smaller = tighter chains =
    /// less ILP).
    pub mean_dep_distance: f64,
    /// Static code footprint in basic blocks (drives L1I behaviour).
    pub code_blocks: u32,
    /// Probability that a store writes one of the 7 frequent values
    /// (frequent-value locality, the FVC food source).
    pub frequent_value_bias: f64,
}

impl BenchmarkProfile {
    /// Validates the whole profile.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err(format!("{}: no phases", self.name));
        }
        for (i, p) in self.phases.iter().enumerate() {
            p.validate()
                .map_err(|e| format!("{} phase {}: {}", self.name, i, e))?;
        }
        if self.phase_pattern.is_empty() {
            return Err(format!("{}: empty phase pattern", self.name));
        }
        if let Some(bad) = self.phase_pattern.iter().find(|&&i| i >= self.phases.len()) {
            return Err(format!("{}: phase index {} out of range", self.name, bad));
        }
        if self.phase_len == 0 {
            return Err(format!("{}: zero phase length", self.name));
        }
        if !(0.0..=1.0).contains(&self.mispredict_rate)
            || !(0.0..=1.0).contains(&self.frequent_value_bias)
        {
            return Err(format!("{}: probability out of range", self.name));
        }
        if self.mean_dep_distance < 1.0 {
            return Err(format!(
                "{}: mean dependency distance must be >= 1",
                self.name
            ));
        }
        if self.code_blocks == 0 {
            return Err(format!("{}: needs at least one code block", self.name));
        }
        Ok(())
    }
}

/// The seven frequent values (plus implicit "unknown") used for
/// frequent-value locality, mirroring the FVC configuration of Table 3.
pub const FREQUENT_VALUES: [u64; 7] = [0, 1, u64::MAX, 2, 4, 8, 0xFF];

#[cfg(test)]
mod tests {
    use super::*;

    fn phase() -> PhaseProfile {
        PhaseProfile {
            load_frac: 0.3,
            store_frac: 0.1,
            fp_frac: 0.0,
            mult_frac: 0.05,
            streams: vec![StreamSpec::Strided {
                stride: 8,
                working_set: 1 << 20,
                weight: 1.0,
            }],
            block_len: 8,
        }
    }

    fn profile() -> BenchmarkProfile {
        BenchmarkProfile {
            name: "test",
            suite: Suite::Int,
            phases: vec![phase()],
            phase_pattern: vec![0],
            phase_len: 10_000,
            mispredict_rate: 0.02,
            mean_dep_distance: 4.0,
            code_blocks: 64,
            frequent_value_bias: 0.2,
        }
    }

    #[test]
    fn valid_profile_passes() {
        profile().validate().unwrap();
    }

    #[test]
    fn bad_fractions_rejected() {
        let mut p = profile();
        p.phases[0].load_frac = 0.9;
        p.phases[0].store_frac = 0.4;
        assert!(p.validate().is_err());
    }

    #[test]
    fn missing_streams_rejected() {
        let mut p = profile();
        p.phases[0].streams.clear();
        assert!(p.validate().is_err());
    }

    #[test]
    fn bad_phase_pattern_rejected() {
        let mut p = profile();
        p.phase_pattern = vec![3];
        assert!(p.validate().is_err());
        p.phase_pattern = vec![];
        assert!(p.validate().is_err());
    }

    #[test]
    fn stream_weights() {
        let s = StreamSpec::Random {
            working_set: 4096,
            weight: 2.5,
        };
        assert!((s.weight() - 2.5).abs() < 1e-12);
    }
}
