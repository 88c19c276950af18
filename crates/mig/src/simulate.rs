//! Combinational simulation of MIGs.
//!
//! The [`Simulator`] evaluates a graph on concrete input assignments:
//! one pattern at a time ([`Simulator::eval`]), 64 patterns in parallel
//! using bit-sliced words ([`Simulator::eval_words`]), or `width`
//! 64-lane blocks per traversal ([`Simulator::eval_wide`]).
//!
//! Evaluation does not walk the [`Node`] arena directly: `new` flattens
//! the graph once into a [`SimPlan`] — typed flat op lists with the
//! fan-in complement bits hoisted into per-gate masks — and every call
//! replays that plan against a reused scratch buffer. The plan is
//! behind an [`Arc`] so parallel sweeps can stamp out per-worker
//! simulators ([`Simulator::with_plan`]) without re-flattening the
//! graph.
//!
//! The wide path is the performance core: with `width` = 8 every
//! random fan-in read consumes exactly one 64-byte cache line (8
//! adjacent `u64` lanes of the same node), so sweeps stop wasting
//! memory bandwidth on 7/8 of every line the narrow path touches.

use std::cell::RefCell;
use std::sync::Arc;

use crate::graph::Mig;
use crate::node::Node;

/// One flattened majority gate: `target = ⟨a b c⟩` over *node-index*
/// operands, with fan-in complement bits packed into `neg` (bit `i`
/// complements fan-in `i`).
#[derive(Clone, Copy, Debug)]
struct Gate {
    target: u32,
    a: u32,
    b: u32,
    c: u32,
    neg: u8,
}

/// A [`Mig`] flattened for evaluation: typed flat op lists in arena
/// (= topological) order, built once and replayed per block.
///
/// Obtain one from [`Simulator::plan`] (or build it directly with
/// [`SimPlan::build`]) and share it across threads with
/// [`Simulator::with_plan`]; the plan is immutable and `Sync`.
#[derive(Debug)]
pub struct SimPlan {
    node_count: usize,
    inputs: usize,
    /// `(node index, input position)` for every primary input node.
    input_nodes: Vec<(u32, u32)>,
    /// Majority gates in arena order (fan-ins always point backwards).
    gates: Vec<Gate>,
    /// `(node index, complement)` per primary output.
    outputs: Vec<(u32, bool)>,
}

impl SimPlan {
    /// Flattens `graph` into evaluation order.
    pub fn build(graph: &Mig) -> SimPlan {
        let mut input_nodes = Vec::with_capacity(graph.input_count());
        let mut gates = Vec::with_capacity(graph.gate_count());
        for id in graph.node_ids() {
            match graph.node(id) {
                Node::Constant => {}
                Node::Input(pos) => input_nodes.push((id.index() as u32, *pos)),
                Node::Majority(f) => gates.push(Gate {
                    target: id.index() as u32,
                    a: f[0].node().index() as u32,
                    b: f[1].node().index() as u32,
                    c: f[2].node().index() as u32,
                    neg: u8::from(f[0].is_complement())
                        | u8::from(f[1].is_complement()) << 1
                        | u8::from(f[2].is_complement()) << 2,
                }),
            }
        }
        let outputs = graph
            .outputs()
            .iter()
            .map(|o| (o.signal.node().index() as u32, o.signal.is_complement()))
            .collect();
        SimPlan {
            node_count: graph.node_count(),
            inputs: graph.input_count(),
            input_nodes,
            gates,
            outputs,
        }
    }

    /// Number of primary outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Replays the plan on `width` 64-lane blocks: `inputs[i * width +
    /// j]` is word `j` of input `i`, `out[o * width + j]` word `j` of
    /// output `o`. `values` is scratch (resized and overwritten), `out`
    /// is cleared and filled.
    fn eval_wide_into(
        &self,
        inputs: &[u64],
        width: usize,
        values: &mut Vec<u64>,
        out: &mut Vec<u64>,
    ) {
        assert_eq!(
            inputs.len(),
            self.inputs * width,
            "input pattern width must match the graph's input count"
        );
        values.clear();
        values.resize(self.node_count * width, 0);
        out.clear();
        out.resize(self.outputs.len() * width, 0);
        match width {
            1 => self.kernel::<1>(inputs, values, out),
            2 => self.kernel::<2>(inputs, values, out),
            4 => self.kernel::<4>(inputs, values, out),
            8 => self.kernel::<8>(inputs, values, out),
            _ => self.kernel_any(inputs, width, values, out),
        }
    }

    /// The width-monomorphized evaluation kernel: `W` is a compile-time
    /// constant so the per-gate lane loops fully unroll.
    fn kernel<const W: usize>(&self, inputs: &[u64], values: &mut [u64], out: &mut [u64]) {
        for &(node, pos) in &self.input_nodes {
            let t = node as usize * W;
            let s = pos as usize * W;
            values[t..t + W].copy_from_slice(&inputs[s..s + W]);
        }
        for g in &self.gates {
            let ma = if g.neg & 1 != 0 { !0u64 } else { 0 };
            let mb = if g.neg & 2 != 0 { !0u64 } else { 0 };
            let mc = if g.neg & 4 != 0 { !0u64 } else { 0 };
            let (a0, b0, c0) = (g.a as usize * W, g.b as usize * W, g.c as usize * W);
            let t0 = g.target as usize * W;
            for j in 0..W {
                let a = values[a0 + j] ^ ma;
                let b = values[b0 + j] ^ mb;
                let c = values[c0 + j] ^ mc;
                values[t0 + j] = a & b | a & c | b & c;
            }
        }
        for (o, &(node, complement)) in self.outputs.iter().enumerate() {
            let s = node as usize * W;
            let m = if complement { !0u64 } else { 0 };
            for j in 0..W {
                out[o * W + j] = values[s + j] ^ m;
            }
        }
    }

    /// Runtime-width fallback for widths without a monomorphized kernel.
    fn kernel_any(&self, inputs: &[u64], w: usize, values: &mut [u64], out: &mut [u64]) {
        for &(node, pos) in &self.input_nodes {
            let t = node as usize * w;
            let s = pos as usize * w;
            values[t..t + w].copy_from_slice(&inputs[s..s + w]);
        }
        for g in &self.gates {
            let ma = if g.neg & 1 != 0 { !0u64 } else { 0 };
            let mb = if g.neg & 2 != 0 { !0u64 } else { 0 };
            let mc = if g.neg & 4 != 0 { !0u64 } else { 0 };
            let (a0, b0, c0) = (g.a as usize * w, g.b as usize * w, g.c as usize * w);
            let t0 = g.target as usize * w;
            for j in 0..w {
                let a = values[a0 + j] ^ ma;
                let b = values[b0 + j] ^ mb;
                let c = values[c0 + j] ^ mc;
                values[t0 + j] = a & b | a & c | b & c;
            }
        }
        for (o, &(node, complement)) in self.outputs.iter().enumerate() {
            let s = node as usize * w;
            let m = if complement { !0u64 } else { 0 };
            for j in 0..w {
                out[o * w + j] = values[s + j] ^ m;
            }
        }
    }
}

/// Evaluates a [`Mig`] on input patterns.
///
/// # Examples
///
/// ```
/// use mig::{Mig, Simulator};
///
/// let mut g = Mig::new();
/// let a = g.add_input("a");
/// let b = g.add_input("b");
/// let f = g.add_and(a, b);
/// g.add_output("f", f);
///
/// let sim = Simulator::new(&g);
/// assert_eq!(sim.eval(&[true, true]), vec![true]);
/// assert_eq!(sim.eval(&[true, false]), vec![false]);
/// ```
#[derive(Debug)]
pub struct Simulator<'g> {
    graph: &'g Mig,
    plan: Arc<SimPlan>,
    scratch: RefCell<Vec<u64>>,
}

impl<'g> Simulator<'g> {
    /// Creates a simulator for `graph` (the graph is flattened into a
    /// [`SimPlan`] once).
    pub fn new(graph: &'g Mig) -> Simulator<'g> {
        Simulator::with_plan(graph, Arc::new(SimPlan::build(graph)))
    }

    /// Creates a simulator around an already-built plan — how parallel
    /// sweeps stamp out per-worker simulators without re-flattening the
    /// graph.
    ///
    /// # Panics
    ///
    /// Panics if `plan` does not match `graph`'s node count (a plan is
    /// only valid for the graph it was built from).
    pub fn with_plan(graph: &'g Mig, plan: Arc<SimPlan>) -> Simulator<'g> {
        assert_eq!(
            plan.node_count,
            graph.node_count(),
            "the plan must be built from the simulated graph"
        );
        Simulator {
            graph,
            plan,
            scratch: RefCell::new(Vec::new()),
        }
    }

    /// The graph being simulated.
    pub fn graph(&self) -> &'g Mig {
        self.graph
    }

    /// The flattened evaluation plan (share it across workers via
    /// [`Simulator::with_plan`]).
    pub fn plan(&self) -> Arc<SimPlan> {
        self.plan.clone()
    }

    /// Evaluates one input pattern; returns one bool per primary output.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the graph's input count.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        let words: Vec<u64> = inputs.iter().map(|&b| if b { !0 } else { 0 }).collect();
        self.eval_words(&words)
            .into_iter()
            .map(|w| w & 1 != 0)
            .collect()
    }

    /// Evaluates 64 patterns at once: bit `k` of `inputs[i]` is the value
    /// of input `i` in pattern `k`. Returns one word per primary output.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the graph's input count.
    pub fn eval_words(&self, inputs: &[u64]) -> Vec<u64> {
        self.eval_wide(inputs, 1)
    }

    /// Evaluates `width` 64-lane blocks in one traversal:
    /// `inputs[i * width + j]` is word `j` of input `i`; the result
    /// holds word `j` of output `o` at `[o * width + j]`.
    ///
    /// The node-value scratch is reused across calls, so a sweep costs
    /// one allocation per *result*, not per call.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != input_count() * width`.
    pub fn eval_wide(&self, inputs: &[u64], width: usize) -> Vec<u64> {
        let mut out = Vec::new();
        let mut values = self.scratch.borrow_mut();
        self.plan
            .eval_wide_into(inputs, width, &mut values, &mut out);
        out
    }
}

/// A [`Simulator`] *is* a bit-parallel word function — the MIG side of
/// every differential check in the workspace (see
/// [`crate::check_word_functions`]).
impl crate::equivalence::WordFunction for Simulator<'_> {
    fn input_count(&self) -> usize {
        self.graph.input_count()
    }

    fn output_count(&self) -> usize {
        self.graph.output_count()
    }

    fn eval_wide(&mut self, inputs: &[u64], width: usize) -> Vec<u64> {
        Simulator::eval_wide(self, inputs, width)
    }

    fn output_name(&self, position: usize) -> String {
        self.graph.outputs()[position].name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_semantics() {
        let mut g = Mig::new();
        let ins = g.add_inputs("x", 3);
        let m = g.add_maj(ins[0], ins[1], ins[2]);
        g.add_output("m", m);
        let sim = Simulator::new(&g);
        for p in 0..8u32 {
            let bits: Vec<bool> = (0..3).map(|i| p >> i & 1 != 0).collect();
            let expect = p.count_ones() >= 2;
            assert_eq!(sim.eval(&bits)[0], expect, "pattern {p:03b}");
        }
    }

    #[test]
    fn complemented_edges_and_outputs() {
        let mut g = Mig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let f = g.add_and(!a, b);
        g.add_output("f", !f);
        let sim = Simulator::new(&g);
        // !( !a & b )
        assert_eq!(sim.eval(&[false, true]), vec![false]);
        assert_eq!(sim.eval(&[true, true]), vec![true]);
        assert_eq!(sim.eval(&[false, false]), vec![true]);
    }

    #[test]
    fn word_eval_matches_scalar_eval() {
        let mut g = Mig::new();
        let ins = g.add_inputs("x", 4);
        let m1 = g.add_maj(ins[0], !ins[1], ins[2]);
        let m2 = g.add_maj(m1, ins[3], !ins[0]);
        let x = g.add_xor(m1, m2);
        g.add_output("f", x);
        let sim = Simulator::new(&g);

        // All 16 patterns packed into one word evaluation.
        let words: Vec<u64> = (0..4)
            .map(|i| {
                let mut w = 0u64;
                for p in 0..16u64 {
                    if p >> i & 1 != 0 {
                        w |= 1 << p;
                    }
                }
                w
            })
            .collect();
        let word_out = sim.eval_words(&words)[0];
        for p in 0..16u64 {
            let bits: Vec<bool> = (0..4).map(|i| p >> i & 1 != 0).collect();
            assert_eq!(sim.eval(&bits)[0], word_out >> p & 1 != 0, "pattern {p}");
        }
    }

    #[test]
    fn wide_eval_is_independent_word_evals() {
        let g = crate::random_mig(crate::RandomMigConfig {
            inputs: 9,
            outputs: 4,
            gates: 150,
            depth: 8,
            seed: 42,
        });
        let sim = Simulator::new(&g);
        // 5 blocks of deterministic pseudo-random words (including the
        // runtime-width fallback path: 5 has no monomorphized kernel).
        for width in [2usize, 3, 4, 5, 8] {
            let wide: Vec<u64> = (0..9 * width)
                .map(|k| (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5)
                .collect();
            let wide_out = sim.eval_wide(&wide, width);
            for j in 0..width {
                let block: Vec<u64> = (0..9).map(|i| wide[i * width + j]).collect();
                let narrow = sim.eval_words(&block);
                for (o, &w) in narrow.iter().enumerate() {
                    assert_eq!(
                        w,
                        wide_out[o * width + j],
                        "width {width}, block {j}, output {o}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_plan_simulators_agree() {
        let g = crate::random_mig(crate::RandomMigConfig {
            inputs: 6,
            outputs: 3,
            gates: 60,
            depth: 6,
            seed: 7,
        });
        let sim = Simulator::new(&g);
        let worker = Simulator::with_plan(&g, sim.plan());
        let words: Vec<u64> = (0..6)
            .map(|i| 0xABCD_EF01_2345_6789u64.rotate_left(i))
            .collect();
        assert_eq!(sim.eval_words(&words), worker.eval_words(&words));
    }

    #[test]
    fn constant_outputs() {
        let mut g = Mig::new();
        let _ = g.add_input("a");
        g.add_output("zero", crate::Signal::ZERO);
        g.add_output("one", crate::Signal::ONE);
        let sim = Simulator::new(&g);
        assert_eq!(sim.eval(&[true]), vec![false, true]);
    }
}
