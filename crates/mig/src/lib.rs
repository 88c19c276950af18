//! # mig — Majority-Inverter Graphs
//!
//! A self-contained implementation of the Majority-Inverter Graph (MIG)
//! logic representation of Amarù et al. (DAC'14, TCAD'16): a homogeneous
//! network of 3-input majority nodes with regular/complemented edges.
//! MIGs are the input representation of the DATE'17 wave-pipelining flow
//! implemented in the companion [`wavepipe`] crate.
//!
//! ## Quick tour
//!
//! ```
//! use mig::{check_equivalence, optimize_depth, Mig};
//!
//! # fn main() -> Result<(), mig::CheckError> {
//! // Build a 1-bit full adder — carry is a native majority gate.
//! let mut g = Mig::with_name("fa");
//! let a = g.add_input("a");
//! let b = g.add_input("b");
//! let cin = g.add_input("cin");
//! let (sum, cout) = g.add_full_adder(a, b, cin);
//! g.add_output("sum", sum);
//! g.add_output("cout", cout);
//!
//! assert_eq!(g.gate_count(), 3);
//!
//! // Optimize (a no-op here) and verify equivalence.
//! let (opt, _) = optimize_depth(&g, 4);
//! assert!(check_equivalence(&g, &opt)?.holds());
//! # Ok(())
//! # }
//! ```
//!
//! ## Modules
//!
//! * [`Mig`] / [`Signal`] / [`Node`] — the graph itself, with
//!   constant-folding, axiom-normalizing, structurally-hashing gate
//!   construction and derived operators (AND/OR/XOR/MUX/adders).
//! * [`Simulator`] / [`TruthTable`] / [`check_equivalence`] —
//!   bit-parallel simulation, exhaustive tables and equivalence checks.
//! * [`analysis`] — path/base-distance analysis (the paper's §III
//!   definitions) and fan-out histograms.
//! * [`cone`] — per-output cone content hashing and
//!   cone extraction (the incremental engine's dirty-region unit).
//! * [`rewrite`] — Ω-axiom rewriting: [`optimize_depth`],
//!   [`optimize_size`].
//! * [`io`] — `.mig` text format, DOT and Verilog export.
//! * [`random_mig`] — seeded random graphs with size/depth targets.
//!
//! [`wavepipe`]: https://docs.rs/wavepipe

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
mod builder;
pub mod cone;
mod equivalence;
pub mod fnv;
mod graph;
pub mod io;
mod node;
mod random;
pub mod rewrite;
mod signal;
mod simulate;
mod truth_table;

pub use analysis::{
    BaseDistance, ConeAnalysis, FanoutHistogram, GraphStats, PathAnalysis, Support,
};
pub use cone::{extract_cone, Cone, ConePartition};
pub use equivalence::{
    check_equivalence, check_equivalence_with_policy, check_word_functions, CheckError,
    Equivalence, EquivalencePolicy, PatternBlock, WordFunction, DEFAULT_EXHAUSTIVE_INPUTS,
    DEFAULT_RANDOM_ROUNDS, DEFAULT_SEED,
};
pub use graph::{Mig, Output};
pub use io::{parse_mig, to_dot, to_verilog, write_mig, ParseMigError};
pub use node::Node;
pub use random::{random_mig, RandomMigConfig};
pub use rewrite::{optimize_depth, optimize_size, DepthOptOutcome};
pub use signal::{NodeId, Signal};
pub use simulate::{SimPlan, Simulator};
pub use truth_table::TruthTable;
