//! Cycle-accurate simulation of three-phase wave pipelining (Fig 4).
//!
//! Every component is a non-volatile cell that *stores* its value; the
//! regeneration clock has three phases and a cell at level `ℓ` re-evaluates
//! whenever the phase `ℓ mod 3` fires. A new input wave is injected every
//! 3 phase steps, so `⌈d/3⌉` waves travel through a depth-`d` netlist
//! simultaneously.
//!
//! On a **balanced** netlist (every edge spans one level) each cell reads
//! fan-ins that were written exactly one phase earlier and remain stable
//! for the next two phases — waves propagate coherently and the output
//! stream equals the combinational function of the input stream. On an
//! unbalanced netlist a cell reads data from the *wrong wave*; the
//! simulator reproduces that corruption faithfully, which is how the
//! tests demonstrate the necessity of buffer insertion.
//!
//! Simulation is **bit-parallel and block-wide**: the core run path
//! ([`WaveSimulator::run_wide`]) packs `64 * width` independent wave
//! *streams* into `width` adjacent `u64` words per cell, so one
//! phase-step update advances them all at once over flattened,
//! pre-typed per-phase op lists. The scalar [`WaveSimulator::run`] is a
//! single-lane wrapper over its `width == 1` case, which is what
//! guarantees the paths can never disagree.

use mig::WordFunction;

use crate::component::{Component, ComponentKind};
use crate::netlist::Netlist;

/// What a firing cell computes during a phase step. Unlike the
/// combinational [`crate::EvalArena`], BUF/FOG cells stay explicit:
/// in wave pipelining a buffer *is* state — it carries a wave for one
/// phase — so nothing can be elided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WaveOpKind {
    /// Inject word `a` of the current wave (an input position).
    Input,
    /// Constant 0 (re-asserted, though it never changes).
    Const0,
    /// Constant 1.
    Const1,
    /// Majority of cells `a`, `b`, `c`.
    Maj,
    /// Complement of cell `a`.
    Inv,
    /// Copy of cell `a` (BUF and FOG cells).
    Copy,
}

/// One flattened phase-step update: `target` is the cell's component
/// index in the state vector, operands are component indices (except
/// [`WaveOpKind::Input`], whose `a` is an input position).
#[derive(Clone, Copy, Debug)]
struct WaveOp {
    target: u32,
    a: u32,
    b: u32,
    c: u32,
    kind: WaveOpKind,
}

/// Result of a scalar wave-pipelined simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaveRun {
    /// One output vector per injected input wave, in injection order.
    pub outputs: Vec<Vec<bool>>,
    /// Netlist depth used for output sampling.
    pub depth: u32,
    /// Total phase steps simulated.
    pub phase_steps: usize,
}

/// Result of an N-word-block wave-pipelined simulation run
/// ([`WaveSimulator::run_wide`]): `width` 64-lane words per cell, so
/// one run carries `64 * width` independent streams.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaveWideRun {
    /// Per injected wave, `width` words per primary output in the
    /// [`crate::EvalArena::eval_wide_into`] layout: word `j` of output
    /// `o` is `outputs[w][o * width + j]`; bit `k` of word `j` belongs
    /// to stream `64 * j + k`.
    pub outputs: Vec<Vec<u64>>,
    /// Words per cell (the block width).
    pub width: usize,
    /// Netlist depth used for output sampling.
    pub depth: u32,
    /// Total phase steps simulated.
    pub phase_steps: usize,
}

/// Three-phase wave-pipelined simulator.
///
/// # Examples
///
/// ```
/// use wavepipe::{insert_buffers, Netlist, WaveSimulator};
///
/// let mut n = Netlist::new("maj");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let c = n.add_input("c");
/// let g = n.add_maj([a, b, c]);
/// n.add_output("f", g);
/// insert_buffers(&mut n);
///
/// let waves = vec![
///     vec![true, true, false],
///     vec![false, true, false],
///     vec![true, false, true],
/// ];
/// let run = WaveSimulator::new(&n).run(&waves);
/// assert_eq!(run.outputs[0], vec![true]);
/// assert_eq!(run.outputs[1], vec![false]);
/// assert_eq!(run.outputs[2], vec![true]);
/// ```
#[derive(Debug)]
pub struct WaveSimulator<'n> {
    netlist: &'n Netlist,
    levels: Vec<u32>,
    /// Flattened updates grouped by firing phase (`level % 3`): each
    /// phase step touches only the third of the netlist that actually
    /// re-evaluates, and does so through typed ops with pre-resolved
    /// operand indices instead of re-matching `Component` payloads on
    /// every step of every run.
    phase_ops: [Vec<WaveOp>; 3],
}

impl<'n> WaveSimulator<'n> {
    /// Creates a simulator for `netlist` (levels and the per-phase
    /// flattened update lists are computed once).
    pub fn new(netlist: &'n Netlist) -> WaveSimulator<'n> {
        let levels = netlist.levels();
        let mut phase_ops: [Vec<WaveOp>; 3] = Default::default();
        for id in netlist.ids() {
            let target = id.index() as u32;
            let op = match netlist.component(id) {
                Component::Input { position } => WaveOp {
                    target,
                    a: *position,
                    b: 0,
                    c: 0,
                    kind: WaveOpKind::Input,
                },
                Component::Const { value } => WaveOp {
                    target,
                    a: 0,
                    b: 0,
                    c: 0,
                    kind: if *value {
                        WaveOpKind::Const1
                    } else {
                        WaveOpKind::Const0
                    },
                },
                Component::Maj { fanins } => WaveOp {
                    target,
                    a: fanins[0].index() as u32,
                    b: fanins[1].index() as u32,
                    c: fanins[2].index() as u32,
                    kind: WaveOpKind::Maj,
                },
                Component::Inv { fanin } => WaveOp {
                    target,
                    a: fanin.index() as u32,
                    b: 0,
                    c: 0,
                    kind: WaveOpKind::Inv,
                },
                Component::Buf { fanin } | Component::Fog { fanin } => WaveOp {
                    target,
                    a: fanin.index() as u32,
                    b: 0,
                    c: 0,
                    kind: WaveOpKind::Copy,
                },
            };
            phase_ops[(levels[id.index()] % 3) as usize].push(op);
        }
        WaveSimulator {
            netlist,
            levels,
            phase_ops,
        }
    }

    /// Streams `waves` through the netlist, injecting one input vector
    /// every 3 phase steps, and samples one output vector per wave.
    ///
    /// All cells start at logic 0 (non-volatile cells power up with
    /// whatever they last stored; 0 is the conventional reset). The
    /// returned outputs are aligned with the injected waves: entry `w`
    /// is sampled `depth` phase steps after wave `w` was injected.
    ///
    /// A single-lane wrapper over [`WaveSimulator::run_wide`] at
    /// `width == 1`.
    ///
    /// # Panics
    ///
    /// Panics if any wave's width differs from the netlist input count,
    /// or if the netlist's non-constant outputs sit at different levels
    /// (wave sampling is only meaningful for aligned outputs — run
    /// buffer insertion first; [`crate::verify_balance`] diagnoses this).
    pub fn run(&self, waves: &[Vec<bool>]) -> WaveRun {
        let packed: Vec<Vec<u64>> = waves
            .iter()
            .map(|w| w.iter().map(|&b| if b { !0 } else { 0 }).collect())
            .collect();
        let run = self.run_wide(&packed, 1);
        WaveRun {
            outputs: run
                .outputs
                .into_iter()
                .map(|wave| wave.into_iter().map(|w| w & 1 != 0).collect())
                .collect(),
            depth: run.depth,
            phase_steps: run.phase_steps,
        }
    }

    /// Streams `64 * width` independent wave sequences at once: word
    /// `j` of input `i` in wave `w` is `waves[w][i * width + j]`, and
    /// each of its 64 lanes is one stream. One phase-step update
    /// advances every stream, walking the flattened per-phase op lists
    /// with `width` adjacent words per cell. At `width == 1`, bit `k`
    /// of `waves[w][i]` is input `i` in wave `w` of stream `k`, so
    /// checking a netlist's streaming behaviour over 64 random stimuli
    /// costs one scalar run's worth of work.
    ///
    /// # Panics
    ///
    /// As [`WaveSimulator::run`], plus `width == 0`.
    pub fn run_wide(&self, waves: &[Vec<u64>], width: usize) -> WaveWideRun {
        let n = self.netlist;
        assert!(width > 0, "a wide wave run needs at least one block");
        for w in waves {
            assert_eq!(
                w.len(),
                n.inputs().len() * width,
                "wave width must match input count times block width"
            );
        }
        let depth = self.common_output_level();

        // Simulate until the last wave has fully drained.
        let total_steps = 3 * waves.len().saturating_sub(1) + depth as usize + 1;
        let mut state = vec![0u64; n.len() * width];
        // Pre-load constant cells; they never change (all lanes share
        // the constant).
        for op in self.phase_ops.iter().flatten() {
            if op.kind == WaveOpKind::Const1 {
                state[op.target as usize * width..][..width].fill(!0);
            }
        }

        // One scratch buffer reused across all steps: same-phase cells
        // latch simultaneously, so each step computes every firing
        // cell's next value against the pre-step state and only then
        // commits — without cloning the full state vector per step.
        let scratch_len = self.phase_ops.iter().map(Vec::len).max().unwrap_or(0) * width;
        let mut scratch: Vec<u64> = Vec::with_capacity(scratch_len);
        let mut outputs: Vec<Vec<u64>> = Vec::with_capacity(waves.len());
        for t in 0..total_steps {
            let firing = &self.phase_ops[t % 3];
            scratch.clear();
            for op in firing {
                match op.kind {
                    WaveOpKind::Input => {
                        // Inputs fire at phase 0 (level 0): inject the
                        // next wave, or hold the last value when the
                        // stream is exhausted.
                        match waves.get(t / 3) {
                            Some(w) => {
                                scratch.extend_from_slice(&w[op.a as usize * width..][..width]);
                            }
                            None => {
                                let s = op.target as usize * width;
                                scratch.extend_from_slice(&state[s..s + width]);
                            }
                        }
                    }
                    WaveOpKind::Const0 => scratch.extend(std::iter::repeat_n(0, width)),
                    WaveOpKind::Const1 => scratch.extend(std::iter::repeat_n(!0u64, width)),
                    WaveOpKind::Maj => {
                        let (a0, b0, c0) = (
                            op.a as usize * width,
                            op.b as usize * width,
                            op.c as usize * width,
                        );
                        for j in 0..width {
                            let a = state[a0 + j];
                            let b = state[b0 + j];
                            let c = state[c0 + j];
                            scratch.push(a & b | a & c | b & c);
                        }
                    }
                    WaveOpKind::Inv => {
                        let a0 = op.a as usize * width;
                        for j in 0..width {
                            scratch.push(!state[a0 + j]);
                        }
                    }
                    WaveOpKind::Copy => {
                        let a0 = op.a as usize * width;
                        scratch.extend_from_slice(&state[a0..a0 + width]);
                    }
                }
            }
            for (op, chunk) in firing.iter().zip(scratch.chunks_exact(width)) {
                state[op.target as usize * width..][..width].copy_from_slice(chunk);
            }

            // Sample outputs: wave w reaches level `depth` at step
            // 3w + depth; sampling happens after that step's update.
            let d = depth as usize;
            if t >= d && (t - d).is_multiple_of(3) {
                let wave_index = (t - d) / 3;
                if wave_index < waves.len() {
                    debug_assert_eq!(outputs.len(), wave_index);
                    let mut sample = Vec::with_capacity(n.outputs().len() * width);
                    for p in n.outputs() {
                        let s = p.driver.index() * width;
                        sample.extend_from_slice(&state[s..s + width]);
                    }
                    outputs.push(sample);
                }
            }
        }

        WaveWideRun {
            outputs,
            width,
            depth,
            phase_steps: total_steps,
        }
    }

    /// Runs the wave simulation and compares each output wave against
    /// the combinational golden model; returns the indices of corrupted
    /// waves (empty = coherent streaming).
    ///
    /// A single-lane wrapper over
    /// [`WaveSimulator::check_against_golden_words`]: a broadcast-packed
    /// wave carries identical bits in all 64 lanes through both the
    /// streaming and the golden path, so the scalar verdict is the word
    /// verdict.
    pub fn check_against_golden(&self, waves: &[Vec<bool>]) -> Vec<usize> {
        let packed: Vec<Vec<u64>> = waves
            .iter()
            .map(|w| w.iter().map(|&b| if b { !0 } else { 0 }).collect())
            .collect();
        self.check_against_golden_words(&packed)
    }

    /// Word-level [`WaveSimulator::check_against_golden`]: streams 64
    /// independent stimuli at once and compares every wave of every
    /// lane against the bit-parallel combinational golden model
    /// (evaluated through one prepared
    /// [`crate::verify::NetlistFunction`] for the whole stream).
    /// Returns the indices of waves on which *any* lane diverged.
    pub fn check_against_golden_words(&self, waves: &[Vec<u64>]) -> Vec<usize> {
        let run = self.run_wide(waves, 1);
        let mut golden =
            crate::verify::NetlistFunction::new(self.netlist).expect("levels() proved acyclicity");
        waves
            .iter()
            .enumerate()
            .filter(|(i, w)| run.outputs[*i] != golden.eval_wide(w, 1))
            .map(|(i, _)| i)
            .collect()
    }

    fn common_output_level(&self) -> u32 {
        let n = self.netlist;
        let mut level = None;
        for p in n.outputs() {
            if n.component(p.driver).kind() == ComponentKind::Const {
                continue;
            }
            let l = self.levels[p.driver.index()];
            match level {
                None => level = Some(l),
                Some(prev) => assert_eq!(
                    prev, l,
                    "outputs at different levels; balance the netlist before wave simulation"
                ),
            }
        }
        level.unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer_insertion::insert_buffers;
    use crate::from_mig::netlist_from_mig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_waves(inputs: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| (0..inputs).map(|_| rng.gen()).collect())
            .collect()
    }

    /// Full adder, mapped and balanced.
    fn balanced_adder() -> Netlist {
        let mut g = mig::Mig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("cin");
        let (s, cy) = g.add_full_adder(a, b, c);
        g.add_output("s", s);
        g.add_output("cy", cy);
        let mut n = netlist_from_mig(&g);
        insert_buffers(&mut n);
        n
    }

    #[test]
    fn balanced_netlist_streams_coherently() {
        let n = balanced_adder();
        let sim = WaveSimulator::new(&n);
        let waves = random_waves(3, 20, 7);
        let corrupted = sim.check_against_golden(&waves);
        assert!(corrupted.is_empty(), "corrupted waves: {corrupted:?}");
    }

    #[test]
    fn single_wave_works() {
        let n = balanced_adder();
        let sim = WaveSimulator::new(&n);
        let waves = vec![vec![true, true, true]];
        let run = sim.run(&waves);
        assert_eq!(run.outputs.len(), 1);
        assert_eq!(run.outputs[0], n.eval(&waves[0]));
    }

    #[test]
    fn empty_stream_is_fine() {
        let n = balanced_adder();
        let run = WaveSimulator::new(&n).run(&[]);
        assert!(run.outputs.is_empty());
    }

    #[test]
    fn unbalanced_netlist_corrupts_waves() {
        // Non-volatile cells hold a value for a full 3-phase window, so
        // small skews are absorbed; once a path-length spread reaches 3
        // levels, a consumer reads the *next* wave through its short
        // path. Here g4 (level 4) reads input `a` directly (gap 4): at
        // the moment g4 computes wave w, `a` already stores wave w+1.
        let mut n = Netlist::new("skew");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_maj([a, b, c]);
        let g2 = n.add_maj([g1, b, c]);
        let g3 = n.add_maj([g2, b, c]);
        let g4 = n.add_maj([g3, a, a]); // = `a`, read through a gap-4 edge
        n.add_output("f", g4);

        let sim = WaveSimulator::new(&n);
        // `a` alternates every wave, so a one-wave-late read always
        // differs from the golden value.
        let waves: Vec<Vec<bool>> = (0..16)
            .map(|i| vec![i % 2 == 0, i % 2 == 1, i % 4 < 2])
            .collect();
        let corrupted = sim.check_against_golden(&waves);
        assert!(
            !corrupted.is_empty(),
            "an unbalanced netlist must corrupt some wave"
        );

        // After balancing, the same stream is clean.
        let mut balanced = n.clone();
        insert_buffers(&mut balanced);
        let clean = WaveSimulator::new(&balanced).check_against_golden(&waves);
        assert!(clean.is_empty());
    }

    #[test]
    fn small_skew_is_absorbed_by_the_phase_window() {
        // A spread of 1 level does not corrupt under three-phase
        // clocking (the stored value survives the window) — this is why
        // the paper's constraint is "approximately the same delay"; the
        // balancing still matters for spreads ≥ 3 and for output
        // alignment.
        let mut n = Netlist::new("mild");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_maj([a, b, c]);
        let g2 = n.add_maj([g1, a, b]); // gap-2 edge from `a`
        n.add_output("f", g2);
        let waves: Vec<Vec<bool>> = (0..12)
            .map(|i| vec![i % 2 == 0, i % 3 == 1, i % 4 < 2])
            .collect();
        let corrupted = WaveSimulator::new(&n).check_against_golden(&waves);
        assert!(corrupted.is_empty());
    }

    #[test]
    fn waves_in_flight_match_depth_over_three() {
        // A deep buffered chain: depth 9 → 3 waves in flight.
        let mut n = Netlist::new("deep");
        let a = n.add_input("a");
        let mut cur = a;
        for _ in 0..9 {
            cur = n.add_buf(cur);
        }
        n.add_output("f", cur);
        let sim = WaveSimulator::new(&n);
        let waves = random_waves(1, 10, 3);
        let run = sim.run(&waves);
        assert_eq!(run.depth, 9);
        assert_eq!(run.outputs.len(), 10);
        for (w, out) in waves.iter().zip(&run.outputs) {
            assert_eq!(out, &vec![w[0]], "buffer chain is the identity");
        }
    }

    #[test]
    fn word_run_lanes_agree_with_scalar_runs() {
        let n = balanced_adder();
        let sim = WaveSimulator::new(&n);
        // 64 independent random streams of 6 waves each, packed.
        let mut rng = StdRng::seed_from_u64(21);
        let word_waves: Vec<Vec<u64>> = (0..6)
            .map(|_| (0..3).map(|_| rng.gen()).collect())
            .collect();
        let word_run = sim.run_wide(&word_waves, 1);
        for lane in [0usize, 1, 17, 63] {
            let scalar_waves: Vec<Vec<bool>> = word_waves
                .iter()
                .map(|w| w.iter().map(|word| word >> lane & 1 != 0).collect())
                .collect();
            let scalar_run = sim.run(&scalar_waves);
            assert_eq!(scalar_run.depth, word_run.depth);
            for (w, out) in scalar_run.outputs.iter().enumerate() {
                let unpacked: Vec<bool> = word_run.outputs[w]
                    .iter()
                    .map(|word| word >> lane & 1 != 0)
                    .collect();
                assert_eq!(out, &unpacked, "lane {lane}, wave {w}");
            }
        }
        assert!(sim.check_against_golden_words(&word_waves).is_empty());
    }

    #[test]
    fn wide_run_blocks_agree_with_word_runs() {
        let n = balanced_adder();
        let sim = WaveSimulator::new(&n);
        let mut rng = StdRng::seed_from_u64(33);
        for width in [2usize, 3, 8] {
            // 6 waves of `width` packed blocks over 3 inputs.
            let wide_waves: Vec<Vec<u64>> = (0..6)
                .map(|_| (0..3 * width).map(|_| rng.gen()).collect())
                .collect();
            let wide = sim.run_wide(&wide_waves, width);
            assert_eq!(wide.width, width);
            for j in 0..width {
                let word_waves: Vec<Vec<u64>> = wide_waves
                    .iter()
                    .map(|w| (0..3).map(|i| w[i * width + j]).collect())
                    .collect();
                let word = sim.run_wide(&word_waves, 1);
                assert_eq!(word.depth, wide.depth);
                for (w, out) in word.outputs.iter().enumerate() {
                    let sliced: Vec<u64> = (0..out.len())
                        .map(|o| wide.outputs[w][o * width + j])
                        .collect();
                    assert_eq!(out, &sliced, "width {width}, block {j}, wave {w}");
                }
            }
        }
    }

    #[test]
    fn mapped_random_mig_streams_after_full_flow() {
        let g = mig::random_mig(mig::RandomMigConfig {
            inputs: 10,
            outputs: 5,
            gates: 200,
            depth: 10,
            seed: 5,
        });
        let mut n = netlist_from_mig(&g);
        crate::fanout_restriction::restrict_fanout(&mut n, 3);
        insert_buffers(&mut n);
        let waves = random_waves(10, 30, 11);
        let corrupted = WaveSimulator::new(&n).check_against_golden(&waves);
        assert!(corrupted.is_empty(), "corrupted: {corrupted:?}");
    }

    #[test]
    #[should_panic(expected = "balance the netlist")]
    fn misaligned_outputs_panic() {
        let mut n = Netlist::new("mis");
        let a = n.add_input("a");
        let buf = n.add_buf(a);
        n.add_output("x", a);
        n.add_output("y", buf);
        let _ = WaveSimulator::new(&n).run(&[vec![true]]);
    }
}
