//! # wavepipe — wave pipelining for majority-based beyond-CMOS logic
//!
//! Implementation of the synthesis flow of *Zografos et al., "Wave
//! Pipelining for Majority-based Beyond-CMOS Technologies", DATE 2017*:
//! given a depth-optimized [`mig::Mig`], produce a netlist that a
//! non-volatile, clocked, majority-based technology (Spin Wave Devices,
//! QCA, NanoMagnetic Logic) can stream *waves* of data through — one new
//! operation every three clock phases instead of one per full circuit
//! latency.
//!
//! ## The pass pipeline
//!
//! The flow is organized as a **pass pipeline**: each stage is a
//! [`Pass`] over a shared [`FlowContext`]. A pipeline is named as data
//! by a [`PipelineSpec`] — one [`PassSpec`] per built-in pass — and
//! compiled and validated by [`PipelineSpec::build`]:
//!
//! 1. **map** ([`netlist_from_mig`] / [`netlist_from_mig_min_inv`]) —
//!    maps the MIG onto physical components, materializing inverters
//!    (priced cells in these technologies) and constant cells.
//! 2. **fanout_restriction** ([`restrict_fanout`], §IV) — bounds every
//!    fan-out to `k ∈ 2..=5` with chains of fan-out gates, ordered so
//!    deep consumers absorb the FOG latency ("delayed nodes").
//! 3. **insert_buffers** ([`insert_buffers`], Algorithm 1, §III) —
//!    equalizes every input→output path with shared buffer chains, then
//!    pads all outputs to a common depth. Every [`BufferStrategy`] runs
//!    the one kernel [`balance`] on a (delay weights, arrival schedule)
//!    pair, so swapping in [`BufferStrategy::Retimed`] (fewer buffers,
//!    same depth) or [`BufferStrategy::Weighted`] (per-technology
//!    delays) is a one-line pipeline edit.
//! 4. **verify** ([`verify_balance`], the unit case of the one verifier
//!    [`check_balance`]) — checks the invariants mechanically;
//!    [`WaveSimulator`] demonstrates coherent streaming dynamically
//!    (bit-parallel: 64 independent streams per run).
//!
//! Functional correctness is checked by the bit-parallel
//! **differential-verification subsystem** ([`verify`] /
//! [`differential::check`]): a transformed netlist is compared against
//! its source MIG under an [`EquivalencePolicy`] — exhaustively (all
//! `2^n` patterns, 64 per netlist traversal via
//! [`Netlist::eval_words`]) for small input counts, seeded stratified
//! sampling beyond — and any pipeline can opt into per-pass
//! equivalence gating ([`FlowPipelineBuilder::gate_equivalence`],
//! [`FlowSpec::with_equivalence_gating`]) so every sweep self-verifies
//! with counterexamples that name the offending pass.
//!
//! Compilation rejects ill-ordered pipelines (mapping must come first,
//! fan-out restriction before buffer insertion, verification last) and
//! out-of-range pass parameters with a [`PipelineError`], and every run
//! records a per-pass [`PassStats`] trace: wall time, component-count
//! delta, depth change. `PipelineSpec::default()` is the paper's flow
//! above. [`FlowPipeline::builder`] takes the same [`PassSpec`]s
//! ([`FlowPipelineBuilder::then`]) plus custom [`Pass`]es and the lint
//! gate.
//!
//! ## The cost-model layer
//!
//! Technology pricing is a pipeline layer, not a post-processing step:
//! a [`CostModel`] (see [`cost`]) prices every [`ComponentKind`], and a
//! run priced against one ([`FlowPipeline::run_with_model`], or per
//! cell through the grid driver) records priced area / energy /
//! cycle-time deltas in every [`PassStats`] and unlocks cost-aware pass
//! variants: [`PassSpec::RestrictFanoutCostAware`] picks the FOG limit
//! by the model's prices, and [`BufferStrategy::CostAware`] balances
//! with the phase-occupancy slack the model implies. Without a model
//! everything runs cost-blind and bit-identical to the paper's
//! reference flow.
//!
//! [`Engine::run_pipeline_grid`] is the one grid driver: it evaluates
//! the full circuit × technology grid — every `(graph, cost model)`
//! cell one task on the work-pulling parallel scheduler, each cell
//! cached by content hash. Sweeping the other axis (pipeline
//! configuration × circuit, Fig 8's ladder) is one grid call per
//! [`PipelineSpec`].
//!
//! ```
//! use mig::Mig;
//! use wavepipe::{BufferStrategy, PipelineSpec};
//!
//! # fn main() -> Result<(), wavepipe::PassError> {
//! let mut g = Mig::new();
//! let a = g.add_input("a");
//! let b = g.add_input("b");
//! let cin = g.add_input("cin");
//! let (sum, cout) = g.add_full_adder(a, b, cin);
//! g.add_output("sum", sum);
//! g.add_output("cout", cout);
//!
//! // The paper's flow, spelled out (equal to `PipelineSpec::default()`):
//! let spec = PipelineSpec::map(false)
//!     .restrict_fanout(3)
//!     .insert_buffers(BufferStrategy::Asap)
//!     .verify(Some(3));
//! assert_eq!(spec, PipelineSpec::default());
//! let pipeline = spec.build().expect("well-ordered pipeline");
//! let run = pipeline.run(&g)?;
//! assert!(run.result.report.is_some());
//! assert_eq!(run.trace.len(), 4); // one instrumented record per pass
//! # Ok(())
//! # }
//! ```
//!
//! The statistics types ([`KindCounts`], [`PassStats`], the per-pass
//! stats structs) and the spec types always derive the vendored serde
//! traits; there is no cargo feature to turn on.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arena;
mod balance;
mod buffer_insertion;
mod component;
pub mod cost;
pub mod engine;
mod error;
mod fanout_restriction;
mod fnv;
mod from_mig;
pub mod incremental;
pub mod io;
pub mod lint;
mod netlist;
mod optimize;
pub mod persist;
mod pipeline;
mod retiming;
pub mod spec;
pub mod stats;
pub mod verify;
mod wavesim;
mod weighted;

pub use mig::{EquivalencePolicy, PatternBlock, WordFunction};

pub use arena::EvalArena;
pub use balance::{check_balance, verify_balance, BalanceError, BalanceReport};
pub use buffer_insertion::{balance, insert_buffers, BufferInsertion};
pub use component::{CompId, Component, ComponentKind};
pub use cost::{CostModel, CostTable, PricedCost, PricedDelta};
pub use engine::{CircuitResolver, Engine, EngineCell, EngineRun, EngineStats, DEFAULT_CACHE_DIR};
pub use error::FlowError;
pub use fanout_restriction::{restrict_fanout, restrict_fanout_prepared, FanoutRestriction};
pub use from_mig::{netlist_from_mig, netlist_from_mig_min_inv};
pub use incremental::{EngineEdit, IncrementalError, IncrementalOutcome, IncrementalSession};
pub use lint::{
    lint_mig, lint_netlist, lint_spec, Diagnostic, LintContext, LintDriver, LintFailure,
    LintReport, LintRule,
};
pub use netlist::{FanoutEdges, KindCounts, Netlist, NetlistError, Port, StructuralCaches};
pub use pipeline::{
    BufferStrategy, FlowContext, FlowPipeline, FlowPipelineBuilder, FlowResult, Pass, PassError,
    PassKind, PassStats, PipelineError, PipelineRun,
};
pub use retiming::{schedule_levels, LevelSchedule};
pub use spec::{CacheSpec, CircuitSpec, FlowSpec, PassSpec, PipelineSpec, SpecError, SynthSpec};
pub use verify::{differential, NetlistFunction};
pub use wavesim::{WaveRun, WaveSimulator, WaveWideRun};
pub use weighted::{weighted_arrivals, DelayWeights, WeightedInsertion};
