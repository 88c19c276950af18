//! Combinational equivalence checking — the workspace's one
//! differential-verification engine.
//!
//! Any two implementations of the bit-parallel [`WordFunction`]
//! contract (64 input patterns per `u64` word) can be compared by the
//! one sweep driver, [`check_word_functions`], under an
//! [`EquivalencePolicy`]:
//!
//! * **Exhaustive** for small input counts: all `2^n` patterns swept in
//!   64-wide [`PatternBlock`]s — a *proof*, with no truth-table
//!   materialization, practical up to ~20 inputs (2^20 patterns is
//!   16384 block evaluations per side).
//! * **Seeded stratified sampling** beyond: a corner block (all-zero,
//!   all-ones, one-hot patterns) followed by rounds of biased-density
//!   random words cycling through activation densities from 1/16 to
//!   15/16, so both sparse and dense input activity is exercised — the
//!   standard pragmatic check for synthesis transforms that are correct
//!   by construction.
//!
//! [`check_equivalence`] compares two [`Mig`]s through this engine; the
//! `wavepipe` crate compares mapped netlists against their source MIGs
//! through the same engine (`wavepipe::differential`), so every
//! differential check in the workspace shares one implementation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::graph::Mig;
use crate::simulate::Simulator;

/// Outcome of an equivalence check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Equivalence {
    /// Functions proven identical on all input patterns.
    Equal,
    /// Functions identical on every simulated random pattern (not a
    /// proof).
    ProbablyEqual {
        /// Number of 64-pattern simulation rounds that were run.
        rounds: usize,
    },
    /// A distinguishing input pattern was found for the named output.
    NotEqual {
        /// Name of the first mismatching output.
        output: String,
        /// Input assignment (one bool per input, declaration order).
        pattern: Vec<bool>,
    },
}

impl Equivalence {
    /// `true` unless a counterexample was found.
    pub fn holds(&self) -> bool {
        !matches!(self, Equivalence::NotEqual { .. })
    }
}

/// Errors raised when two functions cannot even be compared.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// Input counts differ.
    InputCountMismatch {
        /// Inputs of the left function.
        left: usize,
        /// Inputs of the right function.
        right: usize,
    },
    /// Output counts differ.
    OutputCountMismatch {
        /// Outputs of the left function.
        left: usize,
        /// Outputs of the right function.
        right: usize,
    },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::InputCountMismatch { left, right } => {
                write!(f, "input count mismatch: {left} vs {right}")
            }
            CheckError::OutputCountMismatch { left, right } => {
                write!(f, "output count mismatch: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// Default number of 64-pattern random rounds for large functions.
pub const DEFAULT_RANDOM_ROUNDS: usize = 256;

/// Default exhaustive ceiling: functions with at most this many inputs
/// are proven over all `2^n` patterns (1024 block evaluations at 16
/// inputs).
pub const DEFAULT_EXHAUSTIVE_INPUTS: u32 = 16;

/// The default seed of [`check_equivalence`].
pub const DEFAULT_SEED: u64 = 0xDA7E_2017;

/// How hard a differential check works: exhaustive up to a ceiling,
/// seeded stratified sampling beyond.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EquivalencePolicy {
    /// Functions with at most this many inputs are checked exhaustively
    /// (all `2^n` patterns, swept in 64-wide blocks). Cost doubles per
    /// input: ~20 is the practical ceiling (16384 blocks per side).
    pub exhaustive_inputs: u32,
    /// Number of 64-pattern sampling rounds beyond the exhaustive
    /// ceiling. Round 0 is a deterministic-corner block (all-zero,
    /// all-ones, one-hot patterns); later rounds cycle through biased
    /// bit densities.
    pub rounds: usize,
    /// RNG seed of the sampling rounds — identical policies replay the
    /// exact pattern sequence.
    pub seed: u64,
}

impl Default for EquivalencePolicy {
    /// Exhaustive up to [`DEFAULT_EXHAUSTIVE_INPUTS`],
    /// [`DEFAULT_RANDOM_ROUNDS`] sampling rounds beyond, seeded with
    /// [`DEFAULT_SEED`].
    fn default() -> EquivalencePolicy {
        EquivalencePolicy {
            exhaustive_inputs: DEFAULT_EXHAUSTIVE_INPUTS,
            rounds: DEFAULT_RANDOM_ROUNDS,
            seed: DEFAULT_SEED,
        }
    }
}

impl EquivalencePolicy {
    /// A policy that proves equivalence for up to `max_inputs` inputs
    /// (and falls back to the default sampling beyond).
    pub fn exhaustive(max_inputs: u32) -> EquivalencePolicy {
        EquivalencePolicy {
            exhaustive_inputs: max_inputs,
            ..EquivalencePolicy::default()
        }
    }

    /// A pure sampling policy: never exhaustive, `rounds` stratified
    /// 64-pattern rounds with the given seed.
    ///
    /// Note that `rounds == 0` makes the policy vacuous for any
    /// function above the exhaustive ceiling: the check returns
    /// [`Equivalence::ProbablyEqual`]` { rounds: 0 }` having compared
    /// zero patterns. The pipeline builder rejects such gates
    /// (`wavepipe::PipelineError::GateZeroRounds`).
    pub fn sampled(rounds: usize, seed: u64) -> EquivalencePolicy {
        EquivalencePolicy {
            exhaustive_inputs: 0,
            rounds,
            seed,
        }
    }

    /// `true` if a function with `inputs` inputs is checked
    /// exhaustively under this policy.
    pub fn is_exhaustive_for(&self, inputs: usize) -> bool {
        inputs < 64 && inputs as u32 <= self.exhaustive_inputs
    }

    /// Number of input patterns this policy applies to a function with
    /// `inputs` inputs.
    pub fn patterns_for(&self, inputs: usize) -> u64 {
        if self.is_exhaustive_for(inputs) {
            1u64 << inputs
        } else {
            self.rounds as u64 * PatternBlock::LANES as u64
        }
    }
}

/// 64-lane words per wide sweep block (8 × 64 = 512 patterns per
/// traversal; 8 adjacent `u64`s are exactly one 64-byte cache line, so
/// every random fan-in read is fully used).
const DEFAULT_BLOCK_WORDS: usize = 8;

/// Bit patterns of the low-order selector words: bit `k` of
/// `EXHAUSTIVE_MASKS[i]` is `(k >> i) & 1`.
const EXHAUSTIVE_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Up to 64 input patterns packed bit-parallel: bit `k` of word `i` is
/// the value of input `i` in lane (pattern) `k` — the input shape
/// [`WordFunction::eval_wide`] consumes at `width == 1`.
///
/// Blocks are either packed from explicit patterns
/// ([`PatternBlock::pack`]) or generated as one 64-lane slice of an
/// exhaustive `2^n` sweep ([`PatternBlock::exhaustive`]).
///
/// # Examples
///
/// ```
/// use mig::PatternBlock;
///
/// let block = PatternBlock::pack(&[
///     vec![false, true],
///     vec![true, true],
/// ]);
/// assert_eq!(block.lanes(), 2);
/// assert_eq!(block.words(), &[0b10, 0b11]);
/// assert_eq!(block.pattern(0), vec![false, true]);
///
/// // Block 0 of an exhaustive 3-input sweep holds all 8 patterns.
/// let sweep = PatternBlock::exhaustive(3, 0);
/// assert_eq!(sweep.lanes(), 8);
/// assert_eq!(sweep.pattern(5), vec![true, false, true]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatternBlock {
    inputs: usize,
    lanes: usize,
    words: Vec<u64>,
}

impl PatternBlock {
    /// Number of lanes (patterns) a full block carries.
    pub const LANES: usize = 64;

    /// Packs up to 64 scalar patterns into one block.
    ///
    /// # Panics
    ///
    /// Panics if `patterns` is empty, holds more than 64 entries, or
    /// the patterns differ in width.
    pub fn pack(patterns: &[Vec<bool>]) -> PatternBlock {
        assert!(
            !patterns.is_empty() && patterns.len() <= Self::LANES,
            "a pattern block packs 1..=64 patterns, got {}",
            patterns.len()
        );
        let inputs = patterns[0].len();
        let mut words = vec![0u64; inputs];
        for (lane, pattern) in patterns.iter().enumerate() {
            assert_eq!(pattern.len(), inputs, "patterns must share a width");
            for (i, &bit) in pattern.iter().enumerate() {
                if bit {
                    words[i] |= 1 << lane;
                }
            }
        }
        PatternBlock {
            inputs,
            lanes: patterns.len(),
            words,
        }
    }

    /// Number of 64-lane blocks an exhaustive sweep over `inputs`
    /// variables needs (`⌈2^inputs / 64⌉`, at least 1).
    ///
    /// # Panics
    ///
    /// Panics if `inputs >= 64` (the pattern count would overflow; use
    /// sampling for such functions).
    pub fn block_count(inputs: usize) -> u64 {
        assert!(inputs < 64, "exhaustive sweeps support at most 63 inputs");
        (1u64 << inputs).div_ceil(Self::LANES as u64).max(1)
    }

    /// Block `block` of the exhaustive sweep: lane `k` carries the
    /// input pattern whose binary encoding is `block * 64 + k` (input 0
    /// is the least-significant selector bit).
    ///
    /// # Panics
    ///
    /// Panics if `inputs >= 64` or `block >= block_count(inputs)`.
    pub fn exhaustive(inputs: usize, block: u64) -> PatternBlock {
        let blocks = Self::block_count(inputs);
        assert!(block < blocks, "block {block} out of range ({blocks})");
        let total = 1u64 << inputs;
        let base = block * Self::LANES as u64;
        let lanes = (total - base).min(Self::LANES as u64) as usize;
        PatternBlock {
            inputs,
            lanes,
            words: (0..inputs).map(|i| exhaustive_word(i, block)).collect(),
        }
    }

    /// Pattern width (number of inputs).
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of meaningful lanes (1..=64); bits of lanes beyond this
    /// are don't-care.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Mask with one bit set per meaningful lane.
    pub fn lane_mask(&self) -> u64 {
        if self.lanes == Self::LANES {
            !0
        } else {
            (1u64 << self.lanes) - 1
        }
    }

    /// The packed input words (one per input, in declaration order).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Unpacks lane `lane` back into a scalar pattern.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()`.
    pub fn pattern(&self, lane: usize) -> Vec<bool> {
        assert!(lane < self.lanes, "lane {lane} out of range");
        self.words.iter().map(|w| w >> lane & 1 != 0).collect()
    }
}

/// A combinational function evaluated bit-parallel, 64 input patterns
/// per `u64` lane word — the contract the differential engine compares
/// over. Implemented by [`Simulator`] for MIGs and by `wavepipe`'s
/// netlist adapter, so one engine serves every "are these two still
/// the same function?" question in the workspace.
///
/// `eval_wide` takes `&mut self` so implementations can reuse internal
/// scratch buffers across the thousands of blocks an exhaustive sweep
/// evaluates.
pub trait WordFunction {
    /// Number of primary inputs.
    fn input_count(&self) -> usize;

    /// Number of primary outputs.
    fn output_count(&self) -> usize;

    /// Evaluates `width` 64-lane blocks in one call:
    /// `inputs[i * width + j]` is word `j` of input `i` (bit `k` is the
    /// input's value in lane `k`); the result holds word `j` of output
    /// `o` at `[o * width + j]`.
    fn eval_wide(&mut self, inputs: &[u64], width: usize) -> Vec<u64>;

    /// Display name of output `position` (used in counterexamples).
    fn output_name(&self, position: usize) -> String;
}

/// The corner block of the sampling path: lane 0 is the all-zero
/// pattern, lane 1 all-ones, lane `2 + j` the one-hot pattern of input
/// `j`; leftover lanes stay uniformly random.
fn corner_block(inputs: usize, rng: &mut StdRng) -> Vec<u64> {
    (0..inputs)
        .map(|i| {
            let mut word: u64 = rng.gen();
            word &= !1; // lane 0: all inputs low
            word |= 2; // lane 1: all inputs high
            for lane in 2..PatternBlock::LANES {
                if lane - 2 < inputs {
                    let bit = 1u64 << lane;
                    if lane - 2 == i {
                        word |= bit;
                    } else {
                        word &= !bit;
                    }
                }
            }
            word
        })
        .collect()
}

/// One stratified sampling round: the activation density cycles through
/// {1/2, 1/4, 3/4, 1/8, 7/8, 1/16, 15/16} so sparse and dense input
/// activity are both exercised.
fn stratified_block(inputs: usize, round: usize, rng: &mut StdRng) -> Vec<u64> {
    let stratum = (round - 1) % 7;
    (0..inputs)
        .map(|_| {
            let a: u64 = rng.gen();
            match stratum {
                0 => a,
                1 => a & rng.gen::<u64>(),
                2 => a | rng.gen::<u64>(),
                3 => a & rng.gen::<u64>() & rng.gen::<u64>(),
                4 => a | rng.gen::<u64>() | rng.gen::<u64>(),
                5 => a & rng.gen::<u64>() & rng.gen::<u64>() & rng.gen::<u64>(),
                _ => a | rng.gen::<u64>() | rng.gen::<u64>() | rng.gen::<u64>(),
            }
        })
        .collect()
}

/// Checks that two word functions have comparable interfaces.
fn interface_check(left: &impl WordFunction, right: &impl WordFunction) -> Result<(), CheckError> {
    if left.input_count() != right.input_count() {
        return Err(CheckError::InputCountMismatch {
            left: left.input_count(),
            right: right.input_count(),
        });
    }
    if left.output_count() != right.output_count() {
        return Err(CheckError::OutputCountMismatch {
            left: left.output_count(),
            right: right.output_count(),
        });
    }
    Ok(())
}

/// Word of input `i` in block `block` of the exhaustive sweep — the
/// generator behind [`PatternBlock::exhaustive`], usable without
/// materializing a block.
fn exhaustive_word(i: usize, block: u64) -> u64 {
    if i < EXHAUSTIVE_MASKS.len() {
        // The low 6 selector bits cycle within the block.
        EXHAUSTIVE_MASKS[i]
    } else if (block * PatternBlock::LANES as u64) >> i & 1 != 0 {
        !0
    } else {
        0
    }
}

/// Meaningful-lane mask of block `block` of an exhaustive sweep over
/// `inputs` variables (only the final block can be partial).
fn block_lane_mask(inputs: usize, block: u64) -> u64 {
    let total = 1u64 << inputs;
    let base = block * PatternBlock::LANES as u64;
    let lanes = (total - base).min(PatternBlock::LANES as u64);
    if lanes == PatternBlock::LANES as u64 {
        !0
    } else {
        (1u64 << lanes) - 1
    }
}

/// The first divergence found in a contiguous sweep range, in the
/// canonical order: block ascending, then output ascending, then lane
/// ascending — the order every block width and shard count reports,
/// which is what makes verdicts bit-identical across them.
#[derive(Clone, Copy, Debug)]
struct Divergence {
    /// Exhaustive block index, or sampling round.
    at: u64,
    /// Position of the first diverging output within that block.
    output: usize,
    /// First diverging lane of that output.
    lane: u32,
}

/// Scans blocks `[start, end)` in `width`-wide strides and returns the
/// range's first divergence (canonical order). `word(i, b)` is the word
/// of input `i` in block `b`; `lane_mask(b)` masks off block `b`'s
/// don't-care lanes.
fn scan<L, R, W, M>(
    left: &mut L,
    right: &mut R,
    (start, end): (u64, u64),
    width: usize,
    word: &W,
    lane_mask: &M,
) -> Option<Divergence>
where
    L: WordFunction,
    R: WordFunction,
    W: Fn(usize, u64) -> u64,
    M: Fn(u64) -> u64,
{
    let inputs = left.input_count();
    let mut buf = vec![0u64; inputs * width];
    let mut block = start;
    while block < end {
        let w = ((end - block) as usize).min(width);
        for i in 0..inputs {
            for j in 0..w {
                buf[i * w + j] = word(i, block + j as u64);
            }
        }
        let lo = left.eval_wide(&buf[..inputs * w], w);
        let ro = right.eval_wide(&buf[..inputs * w], w);
        let outputs = lo.len() / w;
        for j in 0..w {
            let mask = lane_mask(block + j as u64);
            for o in 0..outputs {
                let diff = (lo[o * w + j] ^ ro[o * w + j]) & mask;
                if diff != 0 {
                    return Some(Divergence {
                        at: block + j as u64,
                        output: o,
                        lane: diff.trailing_zeros(),
                    });
                }
            }
        }
        block += w as u64;
    }
    None
}

/// Splits `total` work items into at most `shards` contiguous,
/// near-equal ranges.
fn shard_ranges(total: u64, shards: usize) -> Vec<(u64, u64)> {
    let shards = (shards.max(1) as u64).min(total.max(1));
    let base = total / shards;
    let extra = total % shards;
    let mut ranges = Vec::with_capacity(shards as usize);
    let mut start = 0;
    for s in 0..shards {
        let len = base + u64::from(s < extra);
        ranges.push((start, start + len));
        start += len;
    }
    ranges
}

/// Scans blocks `[0, blocks)` as [`shard_ranges`] splits them, in
/// parallel with per-shard function instances from the two factories,
/// and merges in range order: the first reporting range holds the
/// sweep's first divergence.
fn scan_shards<L, R, W, M>(
    make_left: &(impl Fn() -> L + Sync),
    make_right: &(impl Fn() -> R + Sync),
    blocks: u64,
    block_words: usize,
    shards: usize,
    word: W,
    lane_mask: M,
) -> Option<Divergence>
where
    L: WordFunction,
    R: WordFunction,
    W: Fn(usize, u64) -> u64 + Sync,
    M: Fn(u64) -> u64 + Sync,
{
    use rayon::prelude::*;
    let found: Vec<Option<Divergence>> = shard_ranges(blocks, shards)
        .par_iter()
        .map(|&range| {
            scan(
                &mut make_left(),
                &mut make_right(),
                range,
                block_words,
                &word,
                &lane_mask,
            )
        })
        .collect();
    found.into_iter().flatten().next()
}

/// The counterexample of divergence `d`: lane `d.lane` of block `d.at`,
/// named after the left function's output.
fn counterexample(
    left: &impl WordFunction,
    d: Divergence,
    word: impl Fn(usize, u64) -> u64,
) -> Equivalence {
    Equivalence::NotEqual {
        output: left.output_name(d.output),
        pattern: (0..left.input_count())
            .map(|i| word(i, d.at) >> d.lane & 1 != 0)
            .collect(),
    }
}

/// Generates the policy's full sampling schedule: round 0 is the corner
/// block, later rounds stratified densities, all drawn from one
/// sequential seeded stream — so the schedule is identical however the
/// rounds are then sharded.
fn sampling_rounds(inputs: usize, policy: &EquivalencePolicy) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(policy.seed);
    (0..policy.rounds)
        .map(|round| {
            if round == 0 {
                corner_block(inputs, &mut rng)
            } else {
                stratified_block(inputs, round, &mut rng)
            }
        })
        .collect()
}

/// Compares two [`WordFunction`]s under a policy — the engine behind
/// [`check_equivalence`] and `wavepipe::differential::check`.
///
/// Outputs are matched by position, not by name; counterexamples are
/// named after the **left** function's outputs and report the first
/// divergence in canonical order (block, then output, then lane).
///
/// The sweep evaluates 8 blocks (512 patterns) per traversal and splits
/// its blocks (or sampling rounds) into one contiguous range per
/// available core, each scanned by its own function instances from the
/// two factories. Ranges are merged in order, so the verdict —
/// counterexample included — does not depend on the machine's core
/// count. Give the factories cheap construction by sharing prepared
/// state (e.g. [`Simulator::with_plan`] over one [`crate::SimPlan`]).
///
/// # Errors
///
/// Returns [`CheckError`] if the interfaces (input/output counts)
/// differ.
pub fn check_word_functions<L, R, FL, FR>(
    make_left: FL,
    make_right: FR,
    policy: &EquivalencePolicy,
) -> Result<Equivalence, CheckError>
where
    L: WordFunction,
    R: WordFunction,
    FL: Fn() -> L + Sync,
    FR: Fn() -> R + Sync,
{
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    sweep(make_left, make_right, policy, DEFAULT_BLOCK_WORDS, cores)
}

/// [`check_word_functions`] at an explicit block width and shard count.
fn sweep<L, R, FL, FR>(
    make_left: FL,
    make_right: FR,
    policy: &EquivalencePolicy,
    block_words: usize,
    shards: usize,
) -> Result<Equivalence, CheckError>
where
    L: WordFunction,
    R: WordFunction,
    FL: Fn() -> L + Sync,
    FR: Fn() -> R + Sync,
{
    let left = make_left();
    interface_check(&left, &make_right())?;
    let inputs = left.input_count();

    if policy.is_exhaustive_for(inputs) {
        let blocks = PatternBlock::block_count(inputs);
        let mask = |block| block_lane_mask(inputs, block);
        let found = scan_shards(
            &make_left,
            &make_right,
            blocks,
            block_words,
            shards,
            exhaustive_word,
            mask,
        );
        return Ok(found.map_or(Equivalence::Equal, |d| {
            counterexample(&left, d, exhaustive_word)
        }));
    }

    let rounds = sampling_rounds(inputs, policy);
    let word = |i: usize, round: u64| rounds[round as usize][i];
    let found = scan_shards(
        &make_left,
        &make_right,
        policy.rounds as u64,
        block_words,
        shards,
        word,
        |_| !0,
    );
    Ok(found.map_or(
        Equivalence::ProbablyEqual {
            rounds: policy.rounds,
        },
        |d| counterexample(&left, d, word),
    ))
}

/// [`check_equivalence`] under an explicit [`EquivalencePolicy`].
///
/// Both graphs are flattened once and the per-shard simulators share
/// the plans, so the parallel fan-out costs no re-preparation.
///
/// # Errors
///
/// Returns [`CheckError`] if the interfaces (input/output counts) differ.
pub fn check_equivalence_with_policy(
    left: &Mig,
    right: &Mig,
    policy: &EquivalencePolicy,
) -> Result<Equivalence, CheckError> {
    let left_plan = std::sync::Arc::new(crate::simulate::SimPlan::build(left));
    let right_plan = std::sync::Arc::new(crate::simulate::SimPlan::build(right));
    check_word_functions(
        || Simulator::with_plan(left, left_plan.clone()),
        || Simulator::with_plan(right, right_plan.clone()),
        policy,
    )
}

/// Checks combinational equivalence of `left` and `right`.
///
/// Outputs are matched by position, not by name. Graphs with at most
/// [`DEFAULT_EXHAUSTIVE_INPUTS`] inputs are *proven* equivalent (or
/// not) over all `2^n` patterns, swept bit-parallel in 64-wide blocks;
/// larger graphs are checked with [`DEFAULT_RANDOM_ROUNDS`] rounds of
/// stratified simulation (64 patterns per round) seeded with
/// [`DEFAULT_SEED`].
///
/// # Errors
///
/// Returns [`CheckError`] if the interfaces (input/output counts) differ.
///
/// # Examples
///
/// ```
/// use mig::{check_equivalence, Equivalence, Mig};
///
/// # fn main() -> Result<(), mig::CheckError> {
/// let mut g1 = Mig::new();
/// let a = g1.add_input("a");
/// let b = g1.add_input("b");
/// let f = g1.add_and(a, b);
/// g1.add_output("f", f);
///
/// // De Morgan variant of the same function.
/// let mut g2 = Mig::new();
/// let a = g2.add_input("a");
/// let b = g2.add_input("b");
/// let f = g2.add_or(!a, !b);
/// g2.add_output("f", !f);
///
/// assert_eq!(check_equivalence(&g1, &g2)?, Equivalence::Equal);
/// # Ok(())
/// # }
/// ```
pub fn check_equivalence(left: &Mig, right: &Mig) -> Result<Equivalence, CheckError> {
    check_equivalence_with_policy(left, right, &EquivalencePolicy::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adder_graph(swap: bool) -> Mig {
        let mut g = Mig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let (s, cy) = if swap {
            g.add_full_adder(c, a, b)
        } else {
            g.add_full_adder(a, b, c)
        };
        g.add_output("s", s);
        g.add_output("cy", cy);
        g
    }

    #[test]
    fn commuted_adders_are_equal() {
        let r = check_equivalence(&adder_graph(false), &adder_graph(true)).unwrap();
        assert_eq!(r, Equivalence::Equal);
        assert!(r.holds());
    }

    #[test]
    fn different_functions_yield_counterexample() {
        let mut g1 = Mig::new();
        let a = g1.add_input("a");
        let b = g1.add_input("b");
        let f = g1.add_and(a, b);
        g1.add_output("f", f);

        let mut g2 = Mig::new();
        let a = g2.add_input("a");
        let b = g2.add_input("b");
        let f = g2.add_or(a, b);
        g2.add_output("f", f);

        match check_equivalence(&g1, &g2).unwrap() {
            Equivalence::NotEqual { output, pattern } => {
                assert_eq!(output, "f");
                // The counterexample must actually distinguish AND from OR.
                let ones = pattern.iter().filter(|&&b| b).count();
                assert_eq!(ones, 1, "AND and OR differ exactly on one-hot patterns");
            }
            other => panic!("expected NotEqual, got {other:?}"),
        }
    }

    #[test]
    fn interface_mismatch_is_an_error() {
        let mut g1 = Mig::new();
        g1.add_input("a");
        let mut g2 = Mig::new();
        g2.add_input("a");
        g2.add_input("b");
        assert!(matches!(
            check_equivalence(&g1, &g2),
            Err(CheckError::InputCountMismatch { left: 1, right: 2 })
        ));
    }

    #[test]
    fn large_graphs_use_random_simulation() {
        // 40-input parity vs the same parity with reordered reduction.
        let build = |chunked: bool| {
            let mut g = Mig::new();
            let ins = g.add_inputs("x", 40);
            let p = if chunked {
                let front = g.add_xor_n(&ins[..20]);
                let back = g.add_xor_n(&ins[20..]);
                g.add_xor(front, back)
            } else {
                g.add_xor_n(&ins)
            };
            g.add_output("p", p);
            g
        };
        let r = check_equivalence(&build(false), &build(true)).unwrap();
        assert!(matches!(
            r,
            Equivalence::ProbablyEqual {
                rounds: DEFAULT_RANDOM_ROUNDS
            }
        ));
        assert!(r.holds());
    }

    #[test]
    fn large_graph_counterexample_is_found() {
        let build = |broken: bool| {
            let mut g = Mig::new();
            let ins = g.add_inputs("x", 30);
            let mut p = g.add_xor_n(&ins);
            if broken {
                p = !p;
            }
            g.add_output("p", p);
            g
        };
        let r = check_equivalence(&build(false), &build(true)).unwrap();
        assert!(!r.holds());
    }

    #[test]
    fn exhaustive_blocks_enumerate_every_pattern_once() {
        for inputs in [0usize, 1, 3, 6, 7, 9] {
            let mut seen = vec![false; 1 << inputs];
            for block in 0..PatternBlock::block_count(inputs) {
                let b = PatternBlock::exhaustive(inputs, block);
                for lane in 0..b.lanes() {
                    let pattern = b.pattern(lane);
                    let code: usize = pattern
                        .iter()
                        .enumerate()
                        .map(|(i, &bit)| usize::from(bit) << i)
                        .sum();
                    assert_eq!(
                        code as u64,
                        block * 64 + lane as u64,
                        "lane encodes its pattern index"
                    );
                    assert!(!seen[code], "pattern {code} repeated");
                    seen[code] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "{inputs} inputs: sweep incomplete");
        }
    }

    #[test]
    fn pack_round_trips_patterns() {
        let patterns = vec![
            vec![true, false, true, true],
            vec![false, false, false, false],
            vec![true, true, true, true],
        ];
        let block = PatternBlock::pack(&patterns);
        assert_eq!(block.lanes(), 3);
        assert_eq!(block.inputs(), 4);
        assert_eq!(block.lane_mask(), 0b111);
        for (lane, p) in patterns.iter().enumerate() {
            assert_eq!(&block.pattern(lane), p);
        }
    }

    #[test]
    fn exhaustive_policy_proves_what_sampling_misses() {
        // Two 18-input functions differing on exactly one pattern
        // (the all-ones minterm): sampling's corner block catches it
        // (lane 1 is all-ones), and the exhaustive policy proves the
        // unbroken pair equal.
        let build = |broken: bool| {
            let mut g = Mig::new();
            let ins = g.add_inputs("x", 18);
            let conj = ins.iter().skip(1).fold(ins[0], |acc, &s| g.add_and(acc, s));
            let p = g.add_xor_n(&ins);
            let f = if broken { g.add_xor(p, conj) } else { p };
            g.add_output("f", f);
            g
        };
        let exhaustive = EquivalencePolicy::exhaustive(18);
        assert_eq!(
            check_equivalence_with_policy(&build(false), &build(false), &exhaustive).unwrap(),
            Equivalence::Equal
        );
        let r = check_equivalence_with_policy(&build(false), &build(true), &exhaustive).unwrap();
        match &r {
            Equivalence::NotEqual { pattern, .. } => {
                assert!(
                    pattern.iter().all(|&b| b),
                    "only the all-ones minterm flips"
                );
            }
            other => panic!("expected NotEqual, got {other:?}"),
        }
        // The stratified sampler finds it too (corner lane 1 = all-ones).
        let sampled = EquivalencePolicy::sampled(4, 1);
        assert!(
            !check_equivalence_with_policy(&build(false), &build(true), &sampled)
                .unwrap()
                .holds()
        );
    }

    #[test]
    fn sharded_verdicts_are_bit_identical_across_sweep_configs() {
        // An exhaustive and a sampled width, each with a function that
        // diverges on one pattern (the all-ones minterm) and one that
        // diverges on every pattern, swept under every (block width,
        // shard count) combination: the verdict — counterexample
        // included — must be byte-for-byte the one-word, one-shard
        // sweep's.
        let build = |inputs: usize, broken: Option<bool>| {
            let mut g = Mig::new();
            let ins = g.add_inputs("x", inputs);
            let conj = ins.iter().skip(1).fold(ins[0], |acc, &s| g.add_and(acc, s));
            let p = g.add_xor_n(&ins);
            let f = match broken {
                None => p,
                Some(false) => g.add_xor(p, conj),
                Some(true) => !p,
            };
            g.add_output("f", f);
            g
        };
        for (inputs, policy) in [
            (10, EquivalencePolicy::exhaustive(10)),
            (30, EquivalencePolicy::sampled(16, 3)),
        ] {
            let good = build(inputs, None);
            for everywhere in [false, true] {
                let bad = build(inputs, Some(everywhere));
                let pair = |block_words, shards| {
                    sweep(
                        || Simulator::new(&good),
                        || Simulator::new(&bad),
                        &policy,
                        block_words,
                        shards,
                    )
                    .unwrap()
                };
                let reference = pair(1, 1);
                assert!(!reference.holds());
                for shards in [1usize, 2, 8] {
                    for block_words in [1usize, 3, 8] {
                        assert_eq!(
                            pair(block_words, shards),
                            reference,
                            "{inputs} inputs, {shards} shards, {block_words} words"
                        );
                    }
                }
            }
            // And the equivalent pair stays equivalent under sharding.
            let twin = good.clone();
            let clean = sweep(
                || Simulator::new(&good),
                || Simulator::new(&twin),
                &policy,
                DEFAULT_BLOCK_WORDS,
                4,
            )
            .unwrap();
            assert!(clean.holds());
        }
    }

    #[test]
    fn policy_pattern_accounting() {
        let p = EquivalencePolicy::default();
        assert!(p.is_exhaustive_for(16));
        assert!(!p.is_exhaustive_for(17));
        assert_eq!(p.patterns_for(10), 1024);
        assert_eq!(p.patterns_for(40), 256 * 64);
        assert_eq!(EquivalencePolicy::sampled(8, 1).patterns_for(4), 8 * 64);
    }
}
