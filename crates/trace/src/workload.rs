//! Turning a [`BenchmarkProfile`] into a concrete, deterministic workload:
//! a memory image (arrays, linked structures, value distributions) plus an
//! infinite instruction stream.

use crate::inst::{BranchInfo, OpClass, TraceInst};
use crate::profile::{BenchmarkProfile, PhaseProfile, StreamSpec, FREQUENT_VALUES};
use microlib_mem::{FunctionalMemory, SparseMemory};
use microlib_model::Addr;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Base of the code region (PCs).
pub const CODE_BASE: u64 = 0x0040_0000;
/// Base of the flat data region (arrays, random working sets).
pub const DATA_BASE: u64 = 0x1000_0000;
/// Base of the pointer heap (linked structures live here; content-directed
/// prefetching recognizes pointers by this region's high bits).
pub const HEAP_BASE: u64 = 0x4000_0000;
/// Bytes reserved per static basic block in the code region.
pub const BLOCK_CODE_BYTES: u64 = 256;

#[derive(Clone, Debug)]
enum ConcreteStream {
    Strided {
        base: u64,
        stride: i64,
        working_set: u64,
    },
    Chain {
        nodes: Arc<Vec<u64>>,
        next_offset: u32,
        cursor: usize,
        last_load_seq: Option<u64>,
    },
    Random {
        base: u64,
        working_set: u64,
    },
    Repeating {
        sequence: Arc<Vec<u64>>,
        base: u64,
        working_set: u64,
        noise: f64,
        cursor: usize,
    },
}

/// Per-block traversal state: each basic block behaves like one loop with
/// its own position in the stream it is bound to (distinct loops sweep the
/// same data at distinct positions — and give their load PCs perfectly
/// regular strides).
#[derive(Clone, Copy, Debug, Default)]
struct BlockCursor {
    pos: u64,
}

#[derive(Clone, Debug)]
struct ConcretePhase {
    profile: PhaseProfile,
    streams: Vec<ConcreteStream>,
    block_cursors: Vec<BlockCursor>,
    /// Static binding of basic blocks to streams: every memory instruction
    /// of a block draws from the block's stream, so a block re-executed in
    /// a loop gives its load PCs consecutive positions of one stream —
    /// the stable per-PC behaviour that PC-indexed predictors (SP, GHB,
    /// DBCP) rely on. Entries are stream indices, populated proportionally
    /// to the stream weights.
    block_stream_lut: Vec<usize>,
    /// First code block owned by this phase (phases use disjoint blocks so
    /// basic-block vectors distinguish them).
    block_base: u32,
    blocks: u32,
}

/// A fully instantiated synthetic benchmark: memory layout + stream factory.
///
/// # Examples
///
/// ```
/// use microlib_trace::{benchmarks, Workload};
///
/// let profile = benchmarks::by_name("swim").unwrap();
/// let workload = Workload::new(profile, 42);
/// let first: Vec<_> = workload.stream().take(100).collect();
/// assert_eq!(first.len(), 100);
/// // Deterministic: same seed, same trace.
/// let again: Vec<_> = workload.stream().take(100).collect();
/// assert_eq!(first, again);
/// ```
#[derive(Clone, Debug)]
pub struct Workload {
    profile: BenchmarkProfile,
    seed: u64,
    phases: Vec<ConcretePhase>,
    /// The initial memory image, built once at instantiation. `initialize`
    /// stamps copy-on-write clones of it into fresh systems, so laying out
    /// multi-megabyte structures is paid once per workload, not once per
    /// run (sampled campaigns initialize one system per slice).
    image: Arc<FunctionalMemory>,
}

impl Workload {
    /// Instantiates `profile` with a deterministic layout derived from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`BenchmarkProfile::validate`] — the
    /// built-in benchmark profiles are tested to pass.
    pub fn new(profile: BenchmarkProfile, seed: u64) -> Self {
        profile.validate().expect("invalid benchmark profile");
        let mut rng = SmallRng::seed_from_u64(seed ^ hash_name(profile.name));
        let mut data_cursor = DATA_BASE;
        let mut heap_cursor = HEAP_BASE;
        let mut init_words: Vec<(u64, u64)> = Vec::new();
        let mut phases = Vec::new();
        let blocks_per_phase = (profile.code_blocks / profile.phases.len() as u32).max(1);

        for (pi, phase) in profile.phases.iter().enumerate() {
            let mut streams = Vec::new();
            for spec in &phase.streams {
                match *spec {
                    StreamSpec::Strided {
                        stride,
                        working_set,
                        ..
                    } => {
                        // 32 KB alignment: small regions of one phase map
                        // onto the same L1 sets, producing the conflict
                        // misses victim caches exist for.
                        let base = align_up(data_cursor, 32 * 1024);
                        data_cursor = base + working_set;
                        // Pre-fill with values. Some regions are entirely
                        // frequent-valued (zero-initialized arrays are
                        // common in real programs) — the food source of the
                        // frequent value cache.
                        let frequent_region =
                            rng.gen::<f64>() < (profile.frequent_value_bias * 2.5).min(0.95);
                        let words = (working_set / 8).min(1 << 16);
                        let step = (working_set / 8 / words.max(1)).max(1) * 8;
                        let mut a = base;
                        for _ in 0..words {
                            let v = if frequent_region {
                                value_sample(&mut rng, 1.0)
                            } else {
                                value_sample(&mut rng, profile.frequent_value_bias)
                            };
                            init_words.push((a, v));
                            a += step;
                        }
                        streams.push(ConcreteStream::Strided {
                            base,
                            stride,
                            working_set,
                        });
                    }
                    StreamSpec::PointerChase {
                        nodes,
                        node_bytes,
                        next_offset,
                        decoy_pointers,
                        shuffled,
                        ..
                    } => {
                        let node_bytes = align_up(node_bytes as u64, 8);
                        let base = align_up(heap_cursor, 64);
                        heap_cursor = base + nodes as u64 * node_bytes;
                        let mut addrs: Vec<u64> =
                            (0..nodes as u64).map(|i| base + i * node_bytes).collect();
                        if shuffled {
                            // Fisher-Yates with the layout RNG.
                            for i in (1..addrs.len()).rev() {
                                let j = rng.gen_range(0..=i);
                                addrs.swap(i, j);
                            }
                        }
                        // Write next pointers (circular) and decoys.
                        for w in 0..addrs.len() {
                            let node = addrs[w];
                            let next = addrs[(w + 1) % addrs.len()];
                            init_words.push((node + next_offset as u64, next));
                            for d in 0..decoy_pointers {
                                let off = 8 * (d as u64 + 1);
                                if off != next_offset as u64 && off < node_bytes {
                                    let target = addrs[rng.gen_range(0..addrs.len())];
                                    init_words.push((node + off, target));
                                }
                            }
                        }
                        streams.push(ConcreteStream::Chain {
                            nodes: Arc::new(addrs),
                            next_offset,
                            cursor: 0,
                            last_load_seq: None,
                        });
                    }
                    StreamSpec::Random { working_set, .. } => {
                        let base = align_up(data_cursor, 64);
                        data_cursor = base + working_set;
                        streams.push(ConcreteStream::Random { base, working_set });
                    }
                    StreamSpec::Repeating {
                        sequence_len,
                        working_set,
                        noise,
                        ..
                    } => {
                        let base = align_up(data_cursor, 64);
                        data_cursor = base + working_set;
                        let sequence: Vec<u64> = (0..sequence_len)
                            .map(|_| base + (rng.gen_range(0..working_set / 8)) * 8)
                            .collect();
                        streams.push(ConcreteStream::Repeating {
                            sequence: Arc::new(sequence),
                            base,
                            working_set,
                            noise,
                            cursor: 0,
                        });
                    }
                }
            }
            // Distribute the 64 LUT slots proportionally to stream weights
            // (largest-remainder), so the dynamic mix matches the weights
            // while each static PC stays bound to one stream.
            let weight_sum: f64 = phase.streams.iter().map(StreamSpec::weight).sum();
            let mut lut = Vec::with_capacity(64);
            for (si, spec) in phase.streams.iter().enumerate() {
                let share = (spec.weight() / weight_sum * 64.0).round() as usize;
                for _ in 0..share.max(1) {
                    lut.push(si);
                }
            }
            lut.truncate(64);
            while lut.len() < 64 {
                lut.push(lut[lut.len() % phase.streams.len().max(1)]);
            }
            // Deterministic shuffle so adjacent PCs do not all share a
            // stream.
            for i in (1..lut.len()).rev() {
                let j = rng.gen_range(0..=i);
                lut.swap(i, j);
            }
            // Stagger each block's starting position through its stream so
            // concurrent "loops" cover different parts of the data.
            let mut block_cursors = Vec::with_capacity(blocks_per_phase as usize);
            for b in 0..blocks_per_phase {
                let si = lut[(b & 63) as usize].min(streams.len() - 1);
                let pos = match &streams[si] {
                    ConcreteStream::Strided { working_set, .. } => {
                        (b as u64 * (working_set / blocks_per_phase as u64)) & !7
                    }
                    ConcreteStream::Chain { nodes, .. } => {
                        b as u64 * (nodes.len() as u64 / blocks_per_phase as u64)
                    }
                    ConcreteStream::Repeating { sequence, .. } => {
                        b as u64 * (sequence.len() as u64 / blocks_per_phase as u64)
                    }
                    ConcreteStream::Random { .. } => 0,
                };
                block_cursors.push(BlockCursor { pos });
            }
            phases.push(ConcretePhase {
                profile: phase.clone(),
                streams,
                block_cursors,
                block_stream_lut: lut,
                block_base: pi as u32 * blocks_per_phase,
                blocks: blocks_per_phase,
            });
        }

        let mut words = SparseMemory::new();
        for (addr, value) in &init_words {
            words.write_word(Addr::new(*addr), *value);
        }
        let mut image = FunctionalMemory::from_image(words);
        // Warm states persist as deltas against this image and digest it
        // on every encode and decode.
        image.memoize_digests();
        Workload {
            profile,
            seed,
            phases,
            image: Arc::new(image),
        }
    }

    /// Process-wide shared instantiation of `profile` with `seed`, keyed by
    /// `(profile.name, seed)`. Instantiation lays out a multi-megabyte
    /// memory image, which dominates the cost of short runs; every run of
    /// the same (benchmark, seed) pair can share one immutable instance
    /// ([`Workload::initialize`] stamps copy-on-write clones, and
    /// [`Workload::stream`] starts fresh cursors, so sharing is invisible).
    ///
    /// The name is the cache key: callers must pass profiles from the
    /// built-in registry (`benchmarks::by_name`), where a name denotes one
    /// profile. Hand-built profiles should use [`Workload::new`].
    pub fn shared(profile: BenchmarkProfile, seed: u64) -> Arc<Workload> {
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};
        type Cache = Mutex<HashMap<(&'static str, u64), Arc<Workload>>>;
        static CACHE: OnceLock<Cache> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry((profile.name, seed))
                .or_insert_with(|| Arc::new(Workload::new(profile, seed))),
        )
    }

    /// The profile this workload instantiates.
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    /// The benchmark name.
    pub fn name(&self) -> &'static str {
        self.profile.name
    }

    /// The layout/stream seed this workload was instantiated with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Writes the workload's initial memory image (both architectural and
    /// DRAM copies) into `memory`. Call once, on a fresh memory, before
    /// simulation: the pre-built image **replaces** the current contents
    /// (a cheap copy-on-write clone — pages are only copied when the
    /// simulation later writes them).
    pub fn initialize(&self, memory: &mut FunctionalMemory) {
        *memory = (*self.image).clone();
    }

    /// Creates the deterministic instruction stream (infinite; `take` what
    /// you need).
    pub fn stream(&self) -> InstStream {
        InstStream {
            inner: StreamInner::Generate(Box::new(GenState {
                rng: SmallRng::seed_from_u64(
                    self.seed ^ hash_name(self.profile.name) ^ 0x5717_ce57,
                ),
                profile: self.profile.clone(),
                phases: self.phases.clone(),
                seq: 0,
                block_left: 0,
                pc: Addr::new(CODE_BASE),
                block_pc: Addr::new(CODE_BASE),
                current_block: 0,
                block_mem_slot: 0,
            })),
        }
    }
}

/// Deterministic instruction stream for one workload.
///
/// A stream is either a *generator* (infinite, RNG-driven — the mode
/// [`Workload::stream`] returns) or a *zero-copy replay cursor* over a
/// shared pre-materialized [`TraceBuffer`](crate::TraceBuffer) (finite,
/// pure table reads — the mode [`TraceBuffer::replay`] returns). Both
/// modes yield the identical instruction sequence for the same
/// (benchmark, seed) pair; campaigns share one buffer across cells and
/// replay it instead of re-generating.
///
/// [`TraceBuffer::replay`]: crate::TraceBuffer::replay
#[derive(Clone, Debug)]
pub struct InstStream {
    inner: StreamInner,
}

#[derive(Clone, Debug)]
enum StreamInner {
    Generate(Box<GenState>),
    Replay {
        buffer: Arc<crate::TraceBuffer>,
        pos: u64,
    },
}

impl InstStream {
    pub(crate) fn replay(buffer: Arc<crate::TraceBuffer>, pos: u64) -> Self {
        InstStream {
            inner: StreamInner::Replay { buffer, pos },
        }
    }

    /// The number of instructions produced so far (for replay cursors, the
    /// current buffer position). Named to avoid clashing with
    /// [`Iterator::position`].
    pub fn stream_position(&self) -> u64 {
        match &self.inner {
            StreamInner::Generate(g) => g.seq,
            StreamInner::Replay { pos, .. } => *pos,
        }
    }

    /// Fast-forwards to absolute position `target` without yielding the
    /// skipped instructions. O(1) for replay cursors; generators step
    /// through the intermediate instructions.
    ///
    /// # Panics
    ///
    /// Panics if `target` is behind the current position, or (replay mode)
    /// beyond the end of the buffer.
    pub fn advance_to(&mut self, target: u64) {
        assert!(
            target >= self.stream_position(),
            "cannot rewind stream from {} to {target}",
            self.stream_position()
        );
        match &mut self.inner {
            StreamInner::Generate(g) => {
                while g.seq < target {
                    g.next_inst();
                }
            }
            StreamInner::Replay { buffer, pos } => {
                assert!(
                    target <= buffer.len(),
                    "advance target {target} beyond buffer length {}",
                    buffer.len()
                );
                *pos = target;
            }
        }
    }
}

impl Iterator for InstStream {
    type Item = TraceInst;

    fn next(&mut self) -> Option<TraceInst> {
        match &mut self.inner {
            StreamInner::Generate(g) => Some(g.next_inst()),
            StreamInner::Replay { buffer, pos } => {
                if *pos < buffer.len() {
                    let inst = buffer.get(*pos);
                    *pos += 1;
                    Some(inst)
                } else {
                    None
                }
            }
        }
    }
}

/// The RNG-driven generator state behind [`InstStream`]'s generate mode.
#[derive(Clone, Debug)]
struct GenState {
    rng: SmallRng,
    profile: BenchmarkProfile,
    phases: Vec<ConcretePhase>,
    seq: u64,
    block_left: u32,
    pc: Addr,
    block_pc: Addr,
    current_block: u32,
    /// Memory accesses issued by the current block execution (the "loop
    /// iteration" offset for strided streams).
    block_mem_slot: u32,
}

impl GenState {
    /// Index of the phase active at instruction `seq`.
    fn phase_index(&self, seq: u64) -> usize {
        let segment = (seq / self.profile.phase_len) as usize;
        self.profile.phase_pattern[segment % self.profile.phase_pattern.len()]
    }

    fn sample_dep(&mut self) -> Option<u32> {
        if self.seq == 0 {
            return None;
        }
        let mean = self.profile.mean_dep_distance;
        let u: f64 = self.rng.gen::<f64>().max(1e-9);
        let d = 1.0 + (-u.ln()) * (mean - 1.0).max(0.0);
        let d = (d as u32).clamp(1, 64).min(self.seq as u32);
        Some(d)
    }

    fn next_block(&mut self, phase: usize) {
        let ph = &self.phases[phase];
        // Skewed block popularity within the phase's block range so basic-
        // block vectors carry real signal.
        let u: f64 = self.rng.gen();
        let idx = ((u * u) * ph.blocks as f64) as u32;
        self.current_block = ph.block_base + idx.min(ph.blocks - 1);
        self.block_pc = Addr::new(CODE_BASE + self.current_block as u64 * BLOCK_CODE_BYTES);
        self.pc = self.block_pc;
        let len = ph.profile.block_len;
        let jitter = if len > 4 {
            self.rng.gen_range(0..len / 2)
        } else {
            0
        };
        self.block_left = (len - len / 4 + jitter).max(2);
        self.block_mem_slot = 0;
    }

    fn gen_mem_access(
        &mut self,
        phase: usize,
        _pc: Addr,
        is_store: bool,
    ) -> (Addr, Option<u32>, u64) {
        let bias = self.profile.frequent_value_bias;
        let block = self.current_block;
        let ph = &mut self.phases[phase];
        // Static block -> stream binding (see `block_stream_lut`).
        let chosen = ph.block_stream_lut[(block & 63) as usize].min(ph.streams.len() - 1);
        let seq_now = self.seq;
        let slot = self.block_mem_slot;
        self.block_mem_slot += 1;
        let block_idx = (block.saturating_sub(ph.block_base) as usize)
            .min(ph.block_cursors.len().saturating_sub(1));
        let value = value_sample(&mut self.rng, bias);
        let stream = &mut ph.streams[chosen];
        match stream {
            ConcreteStream::Strided {
                base,
                stride,
                working_set,
            } => {
                // Loop-iteration semantics with a *per-block* cursor: this
                // block's cursor advances once per block execution; each
                // static slot reads a fixed offset from it. Every memory PC
                // therefore has a constant stride across executions — what
                // stride-based predictors see in real loops.
                let cur = &mut ph.block_cursors[block_idx];
                let ws = *working_set as i64;
                if slot == 0 {
                    let mut next = cur.pos as i64 + *stride;
                    if next < 0 {
                        next += ws;
                    }
                    cur.pos = (next % ws) as u64 & !7;
                }
                let addr = *base + (cur.pos + slot as u64 * 8) % *working_set;
                (Addr::new(addr), None, value)
            }
            ConcreteStream::Chain {
                nodes,
                next_offset,
                cursor,
                last_load_seq,
            } => {
                // One global traversal (stream-level cursor): pointer
                // chasing is *serial* — that is the property that defines
                // these workloads — and its miss sequence repeats exactly,
                // which is what Markov prefetching learns.
                let idx = *cursor % nodes.len();
                let node = nodes[idx];
                let addr = node + *next_offset as u64;
                let dep = last_load_seq
                    .map(|s| (seq_now - s).min(64) as u32)
                    .filter(|d| *d >= 1);
                if is_store {
                    // Stores to the structure rewrite the link (as list
                    // updates do), preserving pointer integrity for the
                    // content scans.
                    let next_node = nodes[(idx + 1) % nodes.len()];
                    (Addr::new(addr), dep, next_node)
                } else {
                    *last_load_seq = Some(seq_now);
                    *cursor = (idx + 1) % nodes.len();
                    (Addr::new(addr), dep, value)
                }
            }
            ConcreteStream::Random { base, working_set } => {
                let addr = *base + self.rng.gen_range(0..*working_set / 8) * 8;
                (Addr::new(addr), None, value)
            }
            ConcreteStream::Repeating {
                sequence,
                base,
                working_set,
                noise,
                cursor,
            } => {
                // One global replay position, so the observable address
                // sequence repeats verbatim (Markov/TCP food).
                let idx = *cursor % sequence.len();
                let addr = if self.rng.gen::<f64>() < *noise {
                    *base + self.rng.gen_range(0..*working_set / 8) * 8
                } else {
                    sequence[idx]
                };
                *cursor = (idx + 1) % sequence.len();
                (Addr::new(addr), None, value)
            }
        }
    }
}

impl GenState {
    /// Generates the next instruction (the stream is infinite).
    fn next_inst(&mut self) -> TraceInst {
        let phase = self.phase_index(self.seq);
        if self.block_left == 0 {
            self.next_block(phase);
        }
        let pc = self.pc;
        self.pc = pc.offset(4);
        self.block_left -= 1;

        let inst = if self.block_left == 0 {
            // Block-terminating branch.
            let taken = self.rng.gen::<f64>() < 0.7;
            let mispredicted = self.rng.gen::<f64>() < self.profile.mispredict_rate;
            let dep = self.sample_dep();
            // Target resolved when the next block is chosen; use the block
            // base of a plausible target (the actual next block is chosen
            // fresh — the core only uses `taken`/`mispredicted`).
            let target = self.block_pc;
            TraceInst::branch(
                pc,
                BranchInfo {
                    taken,
                    target,
                    mispredicted,
                },
                [dep, None],
            )
        } else {
            let ph = &self.phases[phase].profile;
            // Static code: an instruction's class is a pure function of its
            // PC (real binaries don't re-roll their opcodes per execution).
            // Only operands — addresses via stream cursors, dependencies,
            // values — vary dynamically.
            let h = pc.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let roll = ((h >> 11) & 0xFFFF_FFFF) as f64 / 4_294_967_296.0;
            if roll < ph.load_frac {
                let (addr, chain_dep, _) = self.gen_mem_access(phase, pc, false);
                // Most loads have trivially computable addresses (index
                // increments folded into the instruction); only some wait
                // on earlier producers.
                let dep2 = if self.rng.gen::<f64>() < 0.4 {
                    self.sample_dep()
                } else {
                    None
                };
                TraceInst::load(pc, addr, [chain_dep.or(dep2), None])
            } else if roll < ph.load_frac + ph.store_frac {
                let (addr, chain_dep, value) = self.gen_mem_access(phase, pc, true);
                let dep2 = self.sample_dep();
                TraceInst::store(pc, addr, value, [chain_dep, dep2])
            } else {
                let h2 = h.rotate_left(23);
                let fp = (h2 & 0xFF) as f64 / 256.0 < ph.fp_frac;
                let mult = ((h2 >> 8) & 0xFF) as f64 / 256.0 < ph.mult_frac;
                let div = mult && ((h2 >> 16) & 0xFF) < 26;
                let op = match (fp, mult, div) {
                    (false, false, _) => OpClass::IntAlu,
                    (false, true, false) => OpClass::IntMult,
                    (false, true, true) => OpClass::IntDiv,
                    (true, false, _) => OpClass::FpAlu,
                    (true, true, false) => OpClass::FpMult,
                    (true, true, true) => OpClass::FpDiv,
                };
                let d1 = self.sample_dep();
                let d2 = if self.rng.gen::<f64>() < 0.5 {
                    self.sample_dep()
                } else {
                    None
                };
                TraceInst::alu(pc, op, [d1, d2])
            }
        };
        self.seq += 1;
        inst
    }
}

fn align_up(v: u64, align: u64) -> u64 {
    v.div_ceil(align) * align
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, stable across runs.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn value_sample(rng: &mut SmallRng, frequent_bias: f64) -> u64 {
    if rng.gen::<f64>() < frequent_bias {
        FREQUENT_VALUES[rng.gen_range(0..FREQUENT_VALUES.len())]
    } else {
        rng.gen::<u64>() | 1 << 63 // high bit set: never looks like a heap pointer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn streams_are_deterministic() {
        let w = Workload::new(benchmarks::by_name("mcf").unwrap(), 7);
        let a: Vec<_> = w.stream().take(500).collect();
        let b: Vec<_> = w.stream().take(500).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let p = benchmarks::by_name("gzip").unwrap();
        let a: Vec<_> = Workload::new(p.clone(), 1).stream().take(200).collect();
        let b: Vec<_> = Workload::new(p, 2).stream().take(200).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn pointer_chase_values_match_layout() {
        let w = Workload::new(benchmarks::by_name("mcf").unwrap(), 3);
        let mut mem = FunctionalMemory::new();
        w.initialize(&mut mem);
        // Find two consecutive chain loads; the value at the first load's
        // address must point at the second load's node.
        let insts: Vec<_> = w.stream().take(5000).collect();
        let chain_loads: Vec<_> = insts
            .iter()
            .filter(|i| {
                i.op == OpClass::Load && i.mem.map(|m| m.addr.raw() >= HEAP_BASE).unwrap_or(false)
            })
            .collect();
        assert!(chain_loads.len() > 2, "mcf must chase pointers");
        let first = chain_loads[0].mem.unwrap().addr;
        let second = chain_loads[1].mem.unwrap().addr;
        // The value at the first load's address is the next node's base;
        // the second chain load reads that node's next pointer.
        let next_ptr = mem.architectural(first);
        assert!(next_ptr >= HEAP_BASE, "next pointer must live in the heap");
        assert!(
            second.raw() >= next_ptr && second.raw() - next_ptr < 128,
            "second chain load ({:#x}) must address a field of the next node ({next_ptr:#x})",
            second.raw()
        );
    }

    #[test]
    fn branches_terminate_blocks() {
        let w = Workload::new(benchmarks::by_name("crafty").unwrap(), 5);
        let insts: Vec<_> = w.stream().take(2000).collect();
        let branches = insts.iter().filter(|i| i.op == OpClass::Branch).count();
        assert!(branches > 50, "expected many basic blocks, got {branches}");
        // Every branch is followed by a block-start PC (aligned to
        // BLOCK_CODE_BYTES).
        for pair in insts.windows(2) {
            if pair[0].op == OpClass::Branch {
                assert_eq!(pair[1].pc.raw() % BLOCK_CODE_BYTES, 0);
            }
        }
    }

    #[test]
    fn phase_index_cycles_pattern() {
        let p = benchmarks::by_name("gcc").unwrap();
        let w = Workload::new(p.clone(), 1);
        let s = w.stream();
        let StreamInner::Generate(g) = &s.inner else {
            panic!("Workload::stream is a generator");
        };
        let max_phase = p.phases.len();
        for seg in 0..6u64 {
            let idx = g.phase_index(seg * p.phase_len + 1);
            assert!(idx < max_phase);
        }
    }

    #[test]
    fn addresses_are_word_aligned() {
        for name in ["swim", "mcf", "gzip", "vpr"] {
            let w = Workload::new(benchmarks::by_name(name).unwrap(), 11);
            for inst in w.stream().take(3000) {
                if let Some(m) = inst.mem {
                    assert_eq!(m.addr.raw() % 8, 0, "{name}: unaligned {:#x}", m.addr.raw());
                }
            }
        }
    }

    #[test]
    fn dep_distances_are_bounded_and_causal() {
        let w = Workload::new(benchmarks::by_name("parser").unwrap(), 9);
        for (i, inst) in w.stream().take(5000).enumerate() {
            for d in inst.src_deps.into_iter().flatten() {
                assert!((1..=64).contains(&d));
                assert!((d as u64) <= i as u64, "dep beyond start at inst {i}");
            }
        }
    }
}
