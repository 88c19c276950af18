//! Bit-parallel differential verification: one engine for every "did
//! the flow preserve the function?" question in the workspace.
//!
//! [`NetlistFunction`] adapts a [`Netlist`] to the word-level
//! [`mig::WordFunction`] contract (64 patterns per `u64`; the
//! topological order and the value scratch are computed once and reused
//! across blocks), and [`differential::check`] compares a transformed
//! netlist against its source [`mig::Mig`] under an
//! [`EquivalencePolicy`]:
//!
//! * **exhaustive** for small input counts — all `2^n` patterns swept
//!   in 64-wide [`PatternBlock`]s, a proof, practical up to ~20 inputs;
//! * **seeded stratified sampling** beyond — a deterministic corner
//!   block (all-zero / all-ones / one-hot) plus rounds of
//!   biased-density random words.
//!
//! The metamorphic test suite, [`mig::check_equivalence`] and the
//! pipeline's opt-in per-pass equivalence gate
//! ([`crate::FlowPipelineBuilder::gate_equivalence`] /
//! [`crate::FlowSpec::with_equivalence_gating`]) all run on this
//! engine, so a counterexample from any of them means the same thing: a
//! concrete input pattern, the first diverging output, and — when the
//! gate raised it — the pass that introduced the divergence.

use std::fmt;
use std::sync::Arc;

use mig::WordFunction;

use crate::arena::EvalArena;
use crate::netlist::{Netlist, NetlistError};

pub use mig::{EquivalencePolicy, PatternBlock};

/// A [`Netlist`] as a bit-parallel [`WordFunction`]: the netlist is
/// flattened once into a shared [`EvalArena`] and the per-slot value
/// buffer is reused across [`WordFunction::eval_wide`] calls, so an
/// exhaustive sweep costs one flattening total instead of one
/// traversal-order allocation per 64-pattern block. [`NetlistFunction::with_arena`] shares one arena
/// across many functions — that is how [`differential::check`]'s
/// parallel workers each get a private scratch over the same flattened
/// structure.
///
/// # Examples
///
/// ```
/// use mig::{PatternBlock, WordFunction};
/// use wavepipe::{Netlist, NetlistFunction};
///
/// let mut n = Netlist::new("xor-ish");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let na = n.add_inv(a);
/// let k0 = n.add_const(false);
/// let g = n.add_maj([na, b, k0]); // !a & b
/// n.add_output("f", g);
///
/// let mut f = NetlistFunction::new(&n).expect("acyclic");
/// let block = PatternBlock::exhaustive(2, 0);
/// let out = f.eval_wide(block.words(), 1);
/// assert_eq!(out[0] & block.lane_mask(), 0b0100); // only lane 2: a=0,b=1
/// ```
#[derive(Debug)]
pub struct NetlistFunction<'n> {
    netlist: &'n Netlist,
    arena: Arc<EvalArena>,
    values: Vec<u64>,
}

impl<'n> NetlistFunction<'n> {
    /// Prepares `netlist` for repeated word-level evaluation.
    ///
    /// # Errors
    ///
    /// [`NetlistError::CombinationalCycle`] when the netlist has no
    /// topological order.
    pub fn new(netlist: &'n Netlist) -> Result<NetlistFunction<'n>, NetlistError> {
        Ok(NetlistFunction::with_arena(
            netlist,
            Arc::new(EvalArena::try_new(netlist)?),
        ))
    }

    /// Wraps an already-flattened arena — cheap (no traversal), so
    /// per-thread workers can each take one over a shared flattening
    /// (see [`crate::StructuralCaches::eval_arena`]).
    ///
    /// # Panics
    ///
    /// Panics if `arena` was not built from a netlist of the same
    /// component count.
    pub fn with_arena(netlist: &'n Netlist, arena: Arc<EvalArena>) -> NetlistFunction<'n> {
        assert_eq!(
            arena.component_count(),
            netlist.len(),
            "arena must be built from this netlist"
        );
        NetlistFunction {
            netlist,
            arena,
            values: Vec::new(),
        }
    }
}

impl WordFunction for NetlistFunction<'_> {
    fn input_count(&self) -> usize {
        self.netlist.inputs().len()
    }

    fn output_count(&self) -> usize {
        self.netlist.outputs().len()
    }

    /// One arena walk over `width` adjacent blocks (the
    /// [`EvalArena::eval_wide_into`] layout), reusing the prepared arena
    /// and scratch.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `inputs.len()` is not `input_count() *
    /// width`.
    fn eval_wide(&mut self, inputs: &[u64], width: usize) -> Vec<u64> {
        let mut out = Vec::new();
        self.arena
            .eval_wide_into(inputs, width, &mut self.values, &mut out);
        out
    }

    fn output_name(&self, position: usize) -> String {
        self.netlist.outputs()[position].name.clone()
    }
}

pub mod differential {
    //! Netlist-vs-source-MIG differential checking with structured
    //! counterexamples — the verification entry point the metamorphic
    //! suite, the throughput bench and the pipeline's equivalence gate
    //! share.

    use super::*;
    use mig::{Equivalence, Mig, SimPlan, Simulator};

    /// Why two functions could not even be compared.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum DifferentialError {
        /// The interfaces (input/output counts) differ.
        Interface(mig::CheckError),
        /// The netlist is structurally broken (combinational cycle).
        Netlist(NetlistError),
    }

    impl fmt::Display for DifferentialError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                DifferentialError::Interface(e) => write!(f, "{e}"),
                DifferentialError::Netlist(e) => write!(f, "{e}"),
            }
        }
    }

    impl std::error::Error for DifferentialError {
        fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
            match self {
                DifferentialError::Interface(e) => Some(e),
                DifferentialError::Netlist(e) => Some(e),
            }
        }
    }

    /// A concrete input pattern on which the netlist and its source MIG
    /// disagree — everything needed to reproduce and localize the
    /// divergence.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Counterexample {
        /// The distinguishing input assignment (declaration order).
        pub pattern: Vec<bool>,
        /// Position of the first diverging output.
        pub output: usize,
        /// Name of that output (from the source MIG).
        pub output_name: String,
        /// What the source MIG computes on the pattern.
        pub expected: bool,
        /// What the netlist computes on the pattern.
        pub actual: bool,
        /// Provenance: the pipeline pass after which the divergence was
        /// first observed, when the per-pass equivalence gate raised it
        /// (matches the pass name in the run's
        /// [`PassStats`](crate::PassStats) trace).
        pub pass: Option<String>,
    }

    impl fmt::Display for Counterexample {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let bits: String = self
                .pattern
                .iter()
                .map(|&b| if b { '1' } else { '0' })
                .collect();
            write!(
                f,
                "output `{}` diverges on pattern {bits} (source computes {}, netlist {})",
                self.output_name, self.expected, self.actual
            )?;
            if let Some(pass) = &self.pass {
                write!(f, " after pass `{pass}`")?;
            }
            Ok(())
        }
    }

    /// Outcome of a differential check.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Verdict {
        /// No divergence found.
        Equivalent {
            /// Number of input patterns that were compared.
            patterns: u64,
            /// `true` when every possible pattern was compared (a
            /// proof), `false` for a sampled check.
            exhaustive: bool,
        },
        /// The functions differ; here is where.
        Diverged(Counterexample),
    }

    impl Verdict {
        /// `true` unless a counterexample was found.
        pub fn holds(&self) -> bool {
            !matches!(self, Verdict::Diverged(_))
        }
    }

    /// Checks that `netlist` still computes the same function as the
    /// source `graph` it was mapped from, under `policy` (exhaustive up
    /// to the policy's input ceiling, seeded stratified sampling
    /// beyond). Outputs are matched by position.
    ///
    /// # Errors
    ///
    /// [`DifferentialError::Interface`] when the input/output counts
    /// differ, [`DifferentialError::Netlist`] when the netlist has a
    /// combinational cycle.
    ///
    /// # Examples
    ///
    /// ```
    /// use mig::EquivalencePolicy;
    /// use wavepipe::differential::{self, Verdict};
    /// use wavepipe::{insert_buffers, netlist_from_mig, restrict_fanout};
    ///
    /// let mut g = mig::Mig::new();
    /// let a = g.add_input("a");
    /// let b = g.add_input("b");
    /// let cin = g.add_input("cin");
    /// let (sum, cout) = g.add_full_adder(a, b, cin);
    /// g.add_output("sum", sum);
    /// g.add_output("cout", cout);
    ///
    /// // The full enablement flow must preserve the function — proven
    /// // here over all 2^3 patterns.
    /// let mut n = netlist_from_mig(&g);
    /// restrict_fanout(&mut n, 3);
    /// insert_buffers(&mut n);
    /// let verdict = differential::check(&n, &g, &EquivalencePolicy::default()).unwrap();
    /// assert_eq!(
    ///     verdict,
    ///     Verdict::Equivalent { patterns: 8, exhaustive: true }
    /// );
    ///
    /// // A corrupted netlist yields a structured counterexample.
    /// let sum_driver = n.outputs()[0].driver;
    /// let broken = n.add_inv(sum_driver);
    /// n.set_output_driver(0, broken);
    /// match differential::check(&n, &g, &EquivalencePolicy::default()).unwrap() {
    ///     Verdict::Diverged(cex) => {
    ///         assert_eq!(cex.output_name, "sum");
    ///         assert_ne!(cex.expected, cex.actual);
    ///     }
    ///     other => panic!("expected divergence, got {other:?}"),
    /// }
    /// ```
    pub fn check(
        netlist: &Netlist,
        graph: &Mig,
        policy: &EquivalencePolicy,
    ) -> Result<Verdict, DifferentialError> {
        let arena = Arc::new(EvalArena::try_new(netlist).map_err(DifferentialError::Netlist)?);
        check_prepared(netlist, arena, graph, policy)
    }

    /// [`check`] over an already-flattened arena (e.g. the one
    /// cached in [`crate::StructuralCaches`]), so repeated gates on the
    /// same netlist snapshot skip re-flattening.
    ///
    /// # Errors
    ///
    /// [`DifferentialError::Interface`] when the input/output counts
    /// differ.
    ///
    /// # Panics
    ///
    /// Panics if `arena` was not built from `netlist` (component-count
    /// mismatch).
    pub fn check_prepared(
        netlist: &Netlist,
        arena: Arc<EvalArena>,
        graph: &Mig,
        policy: &EquivalencePolicy,
    ) -> Result<Verdict, DifferentialError> {
        let plan = Arc::new(SimPlan::build(graph));
        let outcome = mig::check_word_functions(
            || NetlistFunction::with_arena(netlist, arena.clone()),
            || Simulator::with_plan(graph, plan.clone()),
            policy,
        )
        .map_err(DifferentialError::Interface)?;
        Ok(match outcome {
            Equivalence::Equal => Verdict::Equivalent {
                patterns: policy.patterns_for(graph.input_count()),
                exhaustive: true,
            },
            Equivalence::ProbablyEqual { rounds } => Verdict::Equivalent {
                patterns: rounds as u64 * PatternBlock::LANES as u64,
                exhaustive: false,
            },
            Equivalence::NotEqual { pattern, .. } => {
                let actual = netlist.eval(&pattern);
                let expected = Simulator::new(graph).eval(&pattern);
                let output = actual
                    .iter()
                    .zip(&expected)
                    .position(|(a, e)| a != e)
                    .expect("the engine's counterexample pattern diverges");
                Verdict::Diverged(Counterexample {
                    output_name: graph.outputs()[output].name.clone(),
                    pattern,
                    output,
                    expected: expected[output],
                    actual: actual[output],
                    pass: None,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::differential::{self, Verdict};
    use super::*;
    use crate::from_mig::netlist_from_mig;

    fn adder() -> mig::Mig {
        let mut g = mig::Mig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let cin = g.add_input("cin");
        let (s, c) = g.add_full_adder(a, b, cin);
        g.add_output("s", s);
        g.add_output("c", c);
        g
    }

    #[test]
    fn mapped_netlist_is_exhaustively_equivalent_to_its_source() {
        let g = adder();
        let mut n = netlist_from_mig(&g);
        crate::fanout_restriction::restrict_fanout(&mut n, 3);
        crate::buffer_insertion::insert_buffers(&mut n);
        let v = differential::check(&n, &g, &EquivalencePolicy::default()).unwrap();
        assert_eq!(
            v,
            Verdict::Equivalent {
                patterns: 8,
                exhaustive: true
            }
        );
        assert!(v.holds());
    }

    #[test]
    fn sampled_policy_reports_pattern_budget() {
        let g = adder();
        let n = netlist_from_mig(&g);
        let v = differential::check(&n, &g, &EquivalencePolicy::sampled(5, 7)).unwrap();
        assert_eq!(
            v,
            Verdict::Equivalent {
                patterns: 5 * 64,
                exhaustive: false
            }
        );
    }

    #[test]
    fn divergence_yields_a_localized_counterexample() {
        let g = adder();
        let mut n = netlist_from_mig(&g);
        // Corrupt the carry output only.
        let carry = n.outputs()[1].driver;
        let broken = n.add_inv(carry);
        n.set_output_driver(1, broken);
        match differential::check(&n, &g, &EquivalencePolicy::default()).unwrap() {
            Verdict::Diverged(cex) => {
                assert_eq!(cex.output, 1);
                assert_eq!(cex.output_name, "c");
                assert_ne!(cex.expected, cex.actual);
                assert_eq!(cex.pass, None);
                // The counterexample is replayable.
                assert_eq!(n.eval(&cex.pattern)[1], cex.actual);
                assert!(cex.to_string().contains("`c`"), "{cex}");
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn interface_and_structure_errors_are_reported() {
        let g = adder();
        let mut small = Netlist::new("small");
        let a = small.add_input("a");
        small.add_output("f", a);
        assert!(matches!(
            differential::check(&small, &g, &EquivalencePolicy::default()),
            Err(differential::DifferentialError::Interface(_))
        ));

        let mut cyc = Netlist::new("cyc");
        let a = cyc.add_input("a");
        cyc.add_input("b");
        cyc.add_input("c");
        let b1 = cyc.add_buf(a);
        let b2 = cyc.add_buf(b1);
        cyc.component_mut(b1).fanins_mut()[0] = b2;
        cyc.add_output("s", b2);
        cyc.add_output("c", b2);
        assert!(matches!(
            differential::check(&cyc, &g, &EquivalencePolicy::default()),
            Err(differential::DifferentialError::Netlist(_))
        ));
    }

    #[test]
    fn netlist_function_reuses_its_scratch_across_blocks() {
        let g = adder();
        let n = netlist_from_mig(&g);
        let mut f = NetlistFunction::new(&n).unwrap();
        assert_eq!(f.input_count(), 3);
        assert_eq!(f.output_count(), 2);
        assert_eq!(f.output_name(0), "s");
        let block = PatternBlock::exhaustive(3, 0);
        let first = f.eval_wide(block.words(), 1);
        let second = f.eval_wide(block.words(), 1);
        assert_eq!(first, second, "scratch reuse must not leak state");
        assert_eq!(first, n.eval_words(block.words()));
    }
}
