//! Composable pass-pipeline architecture for the enablement flow.
//!
//! The paper's flow (map MIG → restrict fan-out → insert buffers →
//! verify balance) used to be a hardcoded 4-call sequence; this module
//! turns each stage into a [`Pass`] over a shared [`FlowContext`], so a
//! flow configuration is *data*: an ordered list of [`PassSpec`]s,
//! compiled into passes by [`FlowPipelineBuilder`]. New scenarios
//! (retimed or weighted insertion, FOG-k sweeps, verification-only
//! runs) become one-line pipeline edits instead of hand-rolled drivers.
//! Insertion strategies differ only in the (delay weights, arrival
//! schedule) pair `FlowContext::schedule` resolves for the one
//! balancing kernel, [`crate::balance`].
//!
//! Every pass execution is instrumented: the pipeline records wall
//! time, component-count delta and depth change per pass in a
//! [`PassStats`] trace, which the bench harness surfaces per benchmark.
//!
//! The builder enforces the paper's structural constraints
//! (§IV: fan-out restriction must precede buffer insertion; mapping
//! must come first; verification last) and each pass's parameter range
//! at [`FlowPipelineBuilder::build`] time, returning a [`PipelineError`]
//! instead of producing a pipeline that would compute garbage or
//! panic.
//!
//! A pipeline runs one graph at a time ([`FlowPipeline::run`]); sweeps
//! over many graphs and technologies go through the one grid driver,
//! [`crate::Engine::run_pipeline_grid`], which schedules every cell on
//! the work-pulling parallel scheduler and caches results. A pipeline
//! is named as data by a [`crate::PipelineSpec`] (its `Default` is the
//! paper's flow); the builder is for custom passes and the lint gate.

use std::fmt;
use std::time::Instant;

use mig::Mig;

use std::sync::Arc;

use crate::balance::{BalanceError, BalanceReport};
use crate::buffer_insertion::BufferInsertion;
use crate::component::CompId;
use crate::cost::{CostTable, PricedDelta};
use crate::fanout_restriction::FanoutRestriction;
use crate::netlist::{FanoutEdges, KindCounts, Netlist, StructuralCaches};
use crate::spec::PassSpec;
use crate::weighted::{DelayWeights, WeightedInsertion};

/// Why a pass (and therefore a pipeline run) failed.
///
/// The opt-in gates fail with typed errors that name the pass after
/// which they tripped: [`PassError::Equivalence`] (with a replayable
/// counterexample), [`PassError::EquivalenceCheck`] and
/// [`PassError::Lint`]. Only [`PassError::Custom`] is free-form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PassError {
    /// Path balancing or its verification failed.
    Balance(BalanceError),
    /// A pass left the netlist structurally broken (e.g. a custom pass
    /// wired a combinational cycle) — caught at the pass boundary.
    Netlist(crate::netlist::NetlistError),
    /// The opt-in per-pass equivalence gate
    /// ([`FlowPipelineBuilder::gate_equivalence`]) caught a pass
    /// breaking functional equivalence with the source MIG; the
    /// counterexample names the offending pass. A rewrite pass's
    /// counterexample compares the rewritten MIG with the source MIG.
    Equivalence(Box<crate::verify::differential::Counterexample>),
    /// The equivalence gate could not compare the state after `pass`
    /// with the source MIG at all (mismatched interfaces, or a netlist
    /// with a combinational cycle).
    EquivalenceCheck {
        /// The pass after which the check was attempted.
        pass: String,
        /// Why the checker could not compare.
        error: crate::verify::differential::DifferentialError,
    },
    /// The opt-in per-pass lint gate
    /// ([`FlowPipelineBuilder::gate_lints`]) found error-severity
    /// diagnostics; the failure names the offending pass and carries
    /// the full diagnostic set.
    Lint(Box<crate::lint::LintFailure>),
    /// A free-form failure: a custom pass's own error, a cost-aware
    /// pass run without a cost model, or a mapping pass that never
    /// installed a netlist.
    Custom(String),
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassError::Balance(e) => write!(f, "{e}"),
            PassError::Netlist(e) => write!(f, "{e}"),
            PassError::Equivalence(cex) => write!(f, "equivalence gate: {cex}"),
            PassError::EquivalenceCheck { pass, error } => {
                write!(f, "equivalence gate after `{pass}`: {error}")
            }
            PassError::Lint(failure) => write!(f, "{failure}"),
            PassError::Custom(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for PassError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PassError::Balance(e) => Some(e),
            PassError::Netlist(e) => Some(e),
            PassError::EquivalenceCheck { error, .. } => Some(error),
            PassError::Equivalence(_) | PassError::Lint(_) | PassError::Custom(_) => None,
        }
    }
}

impl From<BalanceError> for PassError {
    fn from(e: BalanceError) -> PassError {
        PassError::Balance(e)
    }
}

impl From<crate::netlist::NetlistError> for PassError {
    fn from(e: crate::netlist::NetlistError) -> PassError {
        PassError::Netlist(e)
    }
}

/// Coarse category of a pass, used by the builder's ordering checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PassKind {
    /// Rewrites the working MIG before mapping (logic optimization;
    /// must precede the mapping pass).
    Rewrite,
    /// Maps the input MIG onto the physical netlist (must run first
    /// among the netlist passes).
    Map,
    /// Splits fan-out with FOG chains (must precede buffer insertion).
    FanoutRestriction,
    /// Inserts path-balancing buffers.
    BufferInsertion,
    /// Checks invariants without transforming (must come after all
    /// transforms).
    Verify,
    /// Anything else: analyses, dumps, custom transforms.
    Other,
}

/// The shared state a pipeline threads through its passes.
///
/// Passes read and mutate the working [`Netlist`] and deposit their
/// typed statistics in the dedicated slots; the pipeline itself fills
/// the instrumentation trace.
#[derive(Debug)]
pub struct FlowContext<'g> {
    graph: &'g Mig,
    working: Option<Mig>,
    netlist: Netlist,
    original: Option<Netlist>,
    cost: Option<CostTable>,
    caches: StructuralCaches,
    /// Fan-out restriction statistics (set by the fan-out pass).
    pub fanout: Option<FanoutRestriction>,
    /// Unit-delay buffer insertion statistics.
    pub buffers: Option<BufferInsertion>,
    /// Weighted insertion statistics.
    pub weighted: Option<WeightedInsertion>,
    /// Balance verification report (set by the verify pass).
    pub report: Option<BalanceReport>,
}

impl<'g> FlowContext<'g> {
    fn new(graph: &'g Mig, cost: Option<CostTable>) -> FlowContext<'g> {
        FlowContext {
            graph,
            working: None,
            netlist: Netlist::new("unmapped"),
            original: None,
            cost,
            caches: StructuralCaches::default(),
            fanout: None,
            buffers: None,
            weighted: None,
            report: None,
        }
    }

    /// The input MIG, as handed to the run — the reference every
    /// equivalence gate checks against, untouched by rewrite passes.
    pub fn graph(&self) -> &'g Mig {
        self.graph
    }

    /// The MIG the mapping pass consumes: the latest rewritten graph if
    /// any [`PassKind::Rewrite`] pass ran, otherwise the input MIG.
    pub fn working_graph(&self) -> &Mig {
        self.working.as_ref().unwrap_or(self.graph)
    }

    /// Installs an optimized MIG as the working graph (rewrite passes
    /// call this). The source graph stays available via
    /// [`FlowContext::graph`] so gates keep checking end-to-end.
    pub fn set_rewritten(&mut self, graph: Mig) {
        self.working = Some(graph);
    }

    /// The working netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Mutable access to the working netlist (transform passes).
    ///
    /// Invalidates the [`StructuralCaches`] — any structural view
    /// obtained earlier keeps describing the pre-mutation netlist, and
    /// the next reader rebuilds the view from scratch.
    ///
    /// The built-in transforms then hand forward the ASAP levels of the
    /// structure they built, so the pass boundary does not redo a DFS:
    ///
    /// * fan-out restriction (`restrict_fanout`, fixed `k`) computes
    ///   them along the previous topological order with each driver's
    ///   FOG chain spliced in right after it, one scan;
    /// * buffer insertion under ASAP unit-delay arrivals keeps every
    ///   original component's arrival and puts every appended buffer one
    ///   level above its fan-in;
    /// * cost-aware fan-out restriction hands forward the levels it
    ///   priced its chosen candidate with.
    ///
    /// Levels are cached only after one linear scan of the mutated
    /// netlist checks them — every component at 1 + its highest
    /// non-constant fan-in, which also proves the netlist acyclic — and
    /// are dropped otherwise. A custom pass gets no hand-forward: after
    /// it, the boundary recomputes every view, and a cycle it wired
    /// still fails the run with [`PassError::Netlist`].
    pub fn netlist_mut(&mut self) -> &mut Netlist {
        self.caches.invalidate();
        &mut self.netlist
    }

    /// Offers the ASAP levels of the just-mutated working netlist to
    /// the caches, which keep them only if they check out (see
    /// [`FlowContext::netlist_mut`]).
    pub(crate) fn hand_forward_levels(&mut self, levels: Vec<u32>) {
        self.caches.hand_forward_levels(&self.netlist, levels);
    }

    /// The technology cost model this run prices against, if one was
    /// given ([`FlowPipeline::run_with_model`] or the grid driver).
    /// Cost-aware passes consult it; cost-blind passes ignore it.
    pub fn cost_model(&self) -> Option<&CostTable> {
        self.cost.as_ref()
    }

    /// Cached topological order of the working netlist.
    pub fn topo_order(&mut self) -> Arc<Vec<CompId>> {
        self.caches.topo_order(&self.netlist)
    }

    /// Cached ASAP levels of the working netlist.
    pub fn levels(&mut self) -> Arc<Vec<u32>> {
        self.caches.levels(&self.netlist)
    }

    /// Cached flat fan-out edges of the working netlist.
    pub fn fanout_edges(&mut self) -> Arc<FanoutEdges> {
        self.caches.fanout_edges(&self.netlist)
    }

    /// Cached fan-out counts of the working netlist.
    pub fn fanout_counts(&mut self) -> Arc<Vec<u32>> {
        self.caches.fanout_counts(&self.netlist)
    }

    /// Resolves a buffer-insertion strategy to the (delay weights,
    /// arrival schedule) pair it balances the working netlist against —
    /// the one place strategies differ:
    ///
    /// * [`BufferStrategy::Asap`] → unit weights, cached ASAP levels;
    /// * [`BufferStrategy::Retimed`] → unit weights,
    ///   [`crate::schedule_levels`]' retimed levels;
    /// * [`BufferStrategy::Weighted`] → its weights, arrivals under them;
    /// * [`BufferStrategy::CostAware`] →
    ///   [`DelayWeights::for_cost_model`] of the run's cost model,
    ///   arrivals under them.
    ///
    /// # Errors
    ///
    /// [`PassError::Custom`] for [`BufferStrategy::CostAware`] on a run
    /// without a cost model.
    pub(crate) fn schedule(
        &mut self,
        strategy: BufferStrategy,
    ) -> Result<(DelayWeights, Arc<Vec<u32>>), PassError> {
        let weights = match strategy {
            BufferStrategy::Asap | BufferStrategy::Retimed => DelayWeights::UNIT,
            BufferStrategy::Weighted(weights) => weights,
            BufferStrategy::CostAware => {
                DelayWeights::for_cost_model(self.cost.as_ref().ok_or_else(|| {
                    PassError::Custom(
                        "cost-aware balancing needs a cost model \
                         (FlowPipeline::run_with_model or Engine::run_pipeline_grid)"
                            .to_owned(),
                    )
                })?)
            }
        };
        let arrival = if strategy.arrives_asap(&weights) {
            self.levels()
        } else if strategy == BufferStrategy::Retimed {
            Arc::new(crate::retiming::schedule_levels(&self.netlist, &mut self.caches).retimed)
        } else {
            let order = self.topo_order();
            Arc::new(self.netlist.levels_from_order(&order, &weights))
        };
        Ok((weights, arrival))
    }

    /// Cached depth of the working netlist.
    pub fn depth(&mut self) -> u32 {
        self.caches.depth(&self.netlist)
    }

    /// Fallible [`FlowContext::depth`] — the variant the pipeline's
    /// pass-boundary instrumentation uses, so a custom pass that wires
    /// a combinational cycle fails its run instead of panicking.
    ///
    /// # Errors
    ///
    /// [`crate::NetlistError::CombinationalCycle`].
    pub fn try_depth(&mut self) -> Result<u32, crate::netlist::NetlistError> {
        self.caches.try_depth(&self.netlist)
    }

    /// Installs the freshly mapped netlist and snapshots it as the
    /// pre-transformation original (mapping passes call this).
    pub fn set_mapped(&mut self, netlist: Netlist) {
        self.caches.invalidate();
        self.original = Some(netlist.clone());
        self.netlist = netlist;
    }

    /// The mapped netlist before any transformation, if mapping ran.
    pub fn original(&self) -> Option<&Netlist> {
        self.original.as_ref()
    }
}

/// One transformation or analysis over the [`FlowContext`].
pub trait Pass: Sync + Send {
    /// Short stable identifier (shows up in traces and JSON).
    fn name(&self) -> String;

    /// Category used by the builder's ordering validation.
    fn kind(&self) -> PassKind {
        PassKind::Other
    }

    /// Executes the pass.
    ///
    /// # Errors
    ///
    /// Returns a [`PassError`] when the pass's invariants cannot be
    /// established (verification failures, indivisible weighted gaps).
    fn run(&self, ctx: &mut FlowContext<'_>) -> Result<(), PassError>;
}

/// Per-pass instrumentation record.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct PassStats {
    /// Pass name.
    pub pass: String,
    /// Wall-clock execution time in microseconds.
    pub micros: u64,
    /// Component counts before the pass ran.
    pub counts_before: KindCounts,
    /// Component counts after the pass ran.
    pub counts_after: KindCounts,
    /// Components the pass added, per kind (saturating — the flow's
    /// passes only add components).
    pub added: KindCounts,
    /// Netlist depth before the pass.
    pub depth_before: u32,
    /// Netlist depth after the pass.
    pub depth_after: u32,
    /// Priced area / energy / cycle-time state around the pass, present
    /// when the run carries a cost model.
    pub priced: Option<PricedDelta>,
}

impl fmt::Display for PassStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<24} {:>8.1} ms  depth {:>3} → {:<3}",
            self.pass,
            self.micros as f64 / 1000.0,
            self.depth_before,
            self.depth_after,
        )?;
        let a = &self.added;
        if a.priced_total() > 0 {
            write!(
                f,
                "  +{} (MAJ {}, INV {}, BUF {}, FOG {})",
                a.priced_total(),
                a.maj,
                a.inv,
                a.buf,
                a.fog
            )?;
        }
        if let Some(priced) = &self.priced {
            write!(f, "  [{priced}]")?;
        }
        Ok(())
    }
}

/// Everything the flow produced, for one MIG.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// The mapped netlist before any transformation (INV materialized).
    pub original: Netlist,
    /// The transformed netlist.
    pub pipelined: Netlist,
    /// Fan-out restriction statistics (if the pass ran).
    pub fanout: Option<FanoutRestriction>,
    /// Buffer insertion statistics (if the pass ran).
    pub buffers: Option<BufferInsertion>,
    /// Balance verification of the result (present when buffer insertion
    /// ran; the invariants cannot hold without it in general).
    pub report: Option<BalanceReport>,
}

impl FlowResult {
    /// Component counts of the original mapped netlist.
    pub fn original_counts(&self) -> KindCounts {
        self.original.counts()
    }

    /// Component counts of the transformed netlist.
    pub fn pipelined_counts(&self) -> KindCounts {
        self.pipelined.counts()
    }

    /// Size ratio pipelined / original (the normalized netlist size of
    /// Fig 8).
    pub fn size_ratio(&self) -> f64 {
        self.pipelined_counts().priced_total() as f64
            / self.original_counts().priced_total().max(1) as f64
    }
}

/// Everything one pipeline execution produced.
#[derive(Clone, Debug)]
pub struct PipelineRun {
    /// The unit-delay flow result: both netlists and the per-pass
    /// statistics.
    pub result: FlowResult,
    /// Weighted-insertion statistics, when a weighted pass ran
    /// ([`FlowResult`] has no slot for them).
    pub weighted: Option<WeightedInsertion>,
    /// Per-pass instrumentation, in execution order.
    pub trace: Vec<PassStats>,
}

impl PipelineRun {
    /// Renders the instrumentation trace as an aligned text block.
    pub fn trace_table(&self) -> String {
        let mut out = String::new();
        for stats in &self.trace {
            out.push_str(&stats.to_string());
            out.push('\n');
        }
        out
    }
}

/// Why a pipeline could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipelineError {
    /// The pipeline has no passes.
    Empty,
    /// The first pass is not a mapping pass (nothing would populate the
    /// netlist).
    MapNotFirst,
    /// More than one mapping pass was registered.
    DuplicateMap,
    /// A MIG rewrite pass was placed after the mapping pass — rewrites
    /// transform the working MIG, which mapping has already consumed.
    RewriteAfterMap,
    /// A fan-out restriction pass was placed after buffer insertion —
    /// §IV requires splitting fan-out *before* balancing, because FOG
    /// chains change path lengths.
    FanoutAfterBuffers,
    /// A transform pass was placed after a verification pass.
    TransformAfterVerify,
    /// The equivalence gate's policy has zero sampling rounds: any
    /// circuit above the exhaustive ceiling would "pass" the gate after
    /// comparing zero patterns.
    GateZeroRounds,
    /// The equivalence gate's exhaustive ceiling is beyond what a block
    /// sweep can realistically cover per pass boundary (cost doubles
    /// per input; see [`crate::spec::MAX_EXHAUSTIVE_GATE_INPUTS`]).
    GateCeilingTooHigh(u32),
    /// A fan-out restriction or bound check names a limit outside the
    /// feasible §IV range `2..=5`.
    FanoutLimitOutOfRange(u32),
    /// A weighted pass names delay weights with a zero buffer weight or
    /// a weight above [`crate::spec::MAX_DELAY_WEIGHT`].
    DelayWeightsOutOfRange(DelayWeights),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Empty => write!(f, "pipeline has no passes"),
            PipelineError::MapNotFirst => {
                write!(f, "the first pass must map the MIG onto a netlist")
            }
            PipelineError::DuplicateMap => write!(f, "only one mapping pass is allowed"),
            PipelineError::RewriteAfterMap => write!(
                f,
                "MIG rewrite passes must run before mapping (the netlist passes cannot \
                 observe a rewritten graph)"
            ),
            PipelineError::FanoutAfterBuffers => write!(
                f,
                "fan-out restriction must run before buffer insertion (§IV)"
            ),
            PipelineError::TransformAfterVerify => {
                write!(f, "transform passes cannot follow verification")
            }
            PipelineError::GateZeroRounds => write!(
                f,
                "equivalence gate has zero sampling rounds: circuits above the exhaustive \
                 ceiling would pass after comparing zero patterns"
            ),
            PipelineError::GateCeilingTooHigh(inputs) => write!(
                f,
                "equivalence gate's exhaustive ceiling of {inputs} inputs is beyond the \
                 practical limit of {} (cost doubles per input)",
                crate::spec::MAX_EXHAUSTIVE_GATE_INPUTS
            ),
            PipelineError::FanoutLimitOutOfRange(limit) => write!(
                f,
                "fan-out limit {limit} is outside the feasible range 2..=5 (§IV)"
            ),
            PipelineError::DelayWeightsOutOfRange(w) => write!(
                f,
                "delay weights (inv {}, maj {}, buf {}, fog {}) are out of range: buf must be \
                 at least 1 and every weight at most {}",
                w.inv,
                w.maj,
                w.buf,
                w.fog,
                crate::spec::MAX_DELAY_WEIGHT
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

/// An ordered, validated sequence of passes.
pub struct FlowPipeline {
    passes: Vec<Box<dyn Pass>>,
    equivalence: Option<mig::EquivalencePolicy>,
    lints: bool,
}

impl fmt::Debug for FlowPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowPipeline")
            .field(
                "passes",
                &self.passes.iter().map(|p| p.name()).collect::<Vec<_>>(),
            )
            .field("equivalence", &self.equivalence)
            .field("lints", &self.lints)
            .finish()
    }
}

impl FlowPipeline {
    /// Starts an empty pipeline builder.
    pub fn builder() -> FlowPipelineBuilder {
        FlowPipelineBuilder::default()
    }

    /// Names of the registered passes, in order.
    pub fn pass_names(&self) -> Vec<String> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs the pipeline cost-blind on one graph, collecting per-pass
    /// instrumentation.
    ///
    /// # Errors
    ///
    /// Propagates the first [`PassError`], or a [`PassError::Custom`]
    /// if the mapping pass never installed a netlist (a custom pass
    /// with `kind() == PassKind::Map` must call
    /// [`FlowContext::set_mapped`]).
    pub fn run(&self, graph: &Mig) -> Result<PipelineRun, PassError> {
        self.run_with_model(graph, None)
    }

    /// [`FlowPipeline::run`] priced against `model` — the per-cell entry
    /// point of [`crate::Engine::run_pipeline_grid`] and of
    /// [`crate::IncrementalSession`]. Every trace entry records priced
    /// deltas, and cost-aware passes consult the model. `None` runs
    /// cost-blind (no priced trace entries).
    ///
    /// # Errors
    ///
    /// As [`FlowPipeline::run`].
    pub fn run_with_model(
        &self,
        graph: &Mig,
        model: Option<&CostTable>,
    ) -> Result<PipelineRun, PassError> {
        let mut ctx = FlowContext::new(graph, model.cloned());
        let mut trace = Vec::with_capacity(self.passes.len());
        for pass in &self.passes {
            // Rewrite passes run before mapping, so their effect lives
            // in the working MIG, not the (still empty) netlist:
            // instrument them with projected MIG quantities instead.
            let is_rewrite = pass.kind() == PassKind::Rewrite;
            let measure_mig = |ctx: &FlowContext<'_>| {
                let g = ctx.working_graph();
                (
                    crate::optimize::mig_projected_counts(g),
                    g.output_count(),
                    g.depth(),
                )
            };
            let (counts_before, outputs_before, depth_before) = if is_rewrite {
                measure_mig(&ctx)
            } else {
                (
                    ctx.netlist.counts(),
                    ctx.netlist.outputs().len(),
                    ctx.try_depth()?,
                )
            };
            let started = Instant::now();
            pass.run(&mut ctx)?;
            let micros = started.elapsed().as_micros() as u64;
            debug_assert!(
                ctx.netlist.validate().is_ok(),
                "pass `{}` left the netlist ill-formed: {}",
                pass.name(),
                ctx.netlist.validate().unwrap_err()
            );
            // Fallible on purpose: a custom pass that wired a cycle is
            // caught here and fails the run instead of panicking deep
            // inside a level computation.
            let (counts_after, outputs_after, depth_after) = if is_rewrite {
                measure_mig(&ctx)
            } else {
                (
                    ctx.netlist.counts(),
                    ctx.netlist.outputs().len(),
                    ctx.try_depth()?,
                )
            };
            let priced = ctx.cost.as_ref().map(|table| PricedDelta {
                model: table.name().to_owned(),
                before: table.price(&counts_before, outputs_before, depth_before),
                after: table.price(&counts_after, outputs_after, depth_after),
            });
            trace.push(PassStats {
                pass: pass.name(),
                micros,
                counts_before,
                counts_after,
                added: counts_after.added_since(&counts_before),
                depth_before,
                depth_after,
                priced,
            });

            // Pre-map gate counterparts for rewrite passes: the working
            // netlist does not exist yet, so the static gate lints the
            // optimized MIG and the equivalence gate checks it against
            // the source graph directly at the MIG level.
            if is_rewrite {
                if self.lints {
                    use crate::lint::{LintContext, LintDriver, LintFailure, Severity};
                    // MIG004 is the only error-severity MIG rule
                    // (topological arena storage); warnings never trip
                    // the gate.
                    let lctx = LintContext::new().with_graph(ctx.working_graph());
                    let diagnostics: Vec<_> = LintDriver::with_codes(&["MIG004"])
                        .run(&lctx)
                        .into_iter()
                        .filter(|d| d.severity == Severity::Error)
                        .collect();
                    if !diagnostics.is_empty() {
                        return Err(PassError::Lint(Box::new(LintFailure {
                            pass: pass.name(),
                            diagnostics,
                        })));
                    }
                }
                if let Some(policy) = &self.equivalence {
                    let rewritten = ctx.working_graph();
                    match mig::check_equivalence_with_policy(rewritten, ctx.graph, policy) {
                        Ok(mig::Equivalence::NotEqual { pattern, .. }) => {
                            let cex =
                                mig_counterexample(ctx.graph, rewritten, pattern, pass.name());
                            return Err(PassError::Equivalence(Box::new(cex)));
                        }
                        Ok(_) => {}
                        Err(error) => {
                            return Err(PassError::EquivalenceCheck {
                                pass: pass.name(),
                                error: crate::differential::DifferentialError::Interface(error),
                            })
                        }
                    }
                }
            }

            // Opt-in static gate: re-lint the working netlist at every
            // pass boundary, with the rule set growing as the flow
            // makes guarantees (structural rules always; the fan-out
            // rule once restriction enforced a limit; the balance
            // rules once buffer insertion equalized paths). Runs
            // outside the pass's timed window, like the equivalence
            // gate below, and costs only a level/fan-out recomputation
            // — no simulation.
            if self.lints && ctx.original.is_some() {
                use crate::lint::{LintContext, LintDriver, LintFailure, Severity};
                // Only error-severity rules: warnings never trip the
                // gate, so running them here would be wasted work.
                let mut codes = vec!["WP004", "WP005"];
                if ctx.fanout.is_some() {
                    codes.push("WP003");
                }
                if ctx.buffers.is_some() {
                    codes.extend(["WP001", "WP002"]);
                }
                let lctx = LintContext::new()
                    .with_netlist(&ctx.netlist)
                    .with_fanout_limit(ctx.fanout.as_ref().map(|f| f.limit));
                let diagnostics: Vec<_> = LintDriver::with_codes(&codes)
                    .run(&lctx)
                    .into_iter()
                    .filter(|d| d.severity == Severity::Error)
                    .collect();
                if !diagnostics.is_empty() {
                    return Err(PassError::Lint(Box::new(LintFailure {
                        pass: pass.name(),
                        diagnostics,
                    })));
                }
            }

            // Opt-in self-verification: after every pass boundary past
            // mapping, the working netlist must still compute the
            // source MIG's function. Runs outside the pass's timed
            // window — the gate is instrumentation, not a pass.
            if let Some(policy) = &self.equivalence {
                if ctx.original.is_some() {
                    use crate::verify::differential::{self, Verdict};
                    // Share the cached flattening: the gate reuses the
                    // same arena any later structural consumer of this
                    // snapshot will read.
                    let checked = ctx
                        .caches
                        .try_eval_arena(&ctx.netlist)
                        .map_err(differential::DifferentialError::Netlist)
                        .and_then(|arena| {
                            differential::check_prepared(&ctx.netlist, arena, ctx.graph, policy)
                        });
                    match checked {
                        Ok(Verdict::Equivalent { .. }) => {}
                        Ok(Verdict::Diverged(mut cex)) => {
                            cex.pass = Some(pass.name());
                            return Err(PassError::Equivalence(Box::new(cex)));
                        }
                        Err(error) => {
                            return Err(PassError::EquivalenceCheck {
                                pass: pass.name(),
                                error,
                            })
                        }
                    }
                }
            }
        }

        // The builder only checks the *kind tag*; a custom mapping pass
        // could still forget to install a netlist. Surface that as an
        // error rather than panicking.
        let original = ctx.original.take().ok_or_else(|| {
            PassError::Custom(
                "mapping pass never installed a netlist (call FlowContext::set_mapped)".to_owned(),
            )
        })?;
        Ok(PipelineRun {
            result: FlowResult {
                original,
                pipelined: ctx.netlist,
                fanout: ctx.fanout,
                buffers: ctx.buffers,
                report: ctx.report,
            },
            weighted: ctx.weighted,
            trace,
        })
    }
}

/// The rewrite gate's counterexample: both MIGs evaluated on `pattern`,
/// reported at the first output where they disagree.
fn mig_counterexample(
    source: &Mig,
    rewritten: &Mig,
    pattern: Vec<bool>,
    pass: String,
) -> crate::differential::Counterexample {
    let expected = mig::Simulator::new(source).eval(&pattern);
    let actual = mig::Simulator::new(rewritten).eval(&pattern);
    let output = (0..expected.len())
        .find(|&i| expected[i] != actual[i])
        .unwrap_or(0);
    crate::differential::Counterexample {
        pattern,
        output,
        output_name: source.outputs()[output].name.clone(),
        expected: expected[output],
        actual: actual[output],
        pass: Some(pass),
    }
}

/// Buffer-insertion strategy selector of [`PassSpec::InsertBuffers`].
///
/// Serialized as `"asap"`, `"retimed"`, `"cost_aware"` or
/// `{"weighted": {…}}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum BufferStrategy {
    /// Algorithm 1 against ASAP levels (the paper's reference).
    Asap,
    /// Algorithm 1 against hill-climbed retimed levels (fewer buffers,
    /// identical depth).
    Retimed,
    /// Weighted-delay balancing with per-kind delays (§III's
    /// technology-tailored mode).
    Weighted(DelayWeights),
    /// Phase-weight-aware balancing: delay weights derived from the
    /// run's cost model ([`CostTable::phase_occupancy`]); degenerates
    /// to [`BufferStrategy::Asap`] when every component fits in one
    /// phase (SWD, NML). Requires a cost model on the run.
    CostAware,
}

impl BufferStrategy {
    /// Whether a run of this strategy under `weights` (its resolved
    /// `FlowContext::schedule` weights) reports in the unit-delay
    /// slots (`buffers`, `report`) rather than `weighted`: every unit
    /// run except an explicitly weighted one.
    pub(crate) fn is_unit_delay(self, weights: &DelayWeights) -> bool {
        *weights == DelayWeights::UNIT && !matches!(self, BufferStrategy::Weighted(_))
    }

    /// Whether `FlowContext::schedule` balances this strategy under
    /// `weights` (its resolved weights) against the ASAP levels: every
    /// unit run except a retimed one.
    pub(crate) fn arrives_asap(self, weights: &DelayWeights) -> bool {
        *weights == DelayWeights::UNIT && self != BufferStrategy::Retimed
    }
}

/// Incremental pipeline assembly with ordering validation at
/// [`FlowPipelineBuilder::build`].
///
/// A built-in pass is named only by its [`PassSpec`]: [`then`] compiles
/// it (range checks included) and [`pass`] is for custom [`Pass`]
/// implementations. Most callers never touch the builder and name a
/// whole pipeline with a [`crate::PipelineSpec`] instead; the builder is
/// for custom passes and for the lint gate.
///
/// [`then`]: FlowPipelineBuilder::then
/// [`pass`]: FlowPipelineBuilder::pass
///
/// # Examples
///
/// ```
/// use wavepipe::{BufferStrategy, FlowPipeline, PassSpec, PipelineError};
///
/// // The paper's §V configuration, as an explicit pipeline:
/// let pipeline = FlowPipeline::builder()
///     .map(false)
///     .then(PassSpec::RestrictFanout { limit: 3 })
///     .then(PassSpec::InsertBuffers(BufferStrategy::Asap))
///     .then(PassSpec::Verify { fanout_limit: Some(3) })
///     .gate_lints()
///     .build()
///     .unwrap();
/// assert_eq!(pipeline.pass_names().len(), 4);
///
/// // Ill-ordered pipelines fail to build:
/// let err = FlowPipeline::builder()
///     .map(false)
///     .then(PassSpec::InsertBuffers(BufferStrategy::Asap))
///     .then(PassSpec::RestrictFanout { limit: 3 })
///     .build()
///     .unwrap_err();
/// assert_eq!(err, PipelineError::FanoutAfterBuffers);
///
/// // … and so do out-of-range parameters:
/// let err = FlowPipeline::builder()
///     .map(false)
///     .then(PassSpec::RestrictFanout { limit: 1 })
///     .build()
///     .unwrap_err();
/// assert_eq!(err, PipelineError::FanoutLimitOutOfRange(1));
/// ```
///
/// The built-in pass types are not public, so a pass with an
/// unchecked parameter cannot be built by hand:
///
/// ```compile_fail
/// let _ = wavepipe::FanoutRestrictionPass { limit: 1 };
/// ```
#[derive(Default)]
pub struct FlowPipelineBuilder {
    passes: Vec<Box<dyn Pass>>,
    equivalence: Option<mig::EquivalencePolicy>,
    lints: bool,
    /// The first rejected parameter, reported by `build`.
    invalid: Option<PipelineError>,
}

impl fmt::Debug for FlowPipelineBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowPipelineBuilder")
            .field(
                "passes",
                &self.passes.iter().map(|p| p.name()).collect::<Vec<_>>(),
            )
            .field("equivalence", &self.equivalence)
            .field("lints", &self.lints)
            .field("invalid", &self.invalid)
            .finish()
    }
}

impl FlowPipelineBuilder {
    /// Turns on per-pass equivalence gating: after every pass past
    /// mapping, the working netlist is differentially checked against
    /// the source MIG under `policy`
    /// ([`crate::differential::check`]). A pass that breaks the
    /// function fails its run with
    /// [`PassError::Equivalence`], whose counterexample records the
    /// offending pass — so any sweep can self-verify instead of
    /// trusting the transforms' structural proofs.
    ///
    /// A policy with zero sampling rounds, or an exhaustive ceiling
    /// above [`crate::spec::MAX_EXHAUSTIVE_GATE_INPUTS`], fails
    /// [`FlowPipelineBuilder::build`].
    pub fn gate_equivalence(mut self, policy: mig::EquivalencePolicy) -> FlowPipelineBuilder {
        // Zero rounds would let any circuit above the exhaustive ceiling
        // pass after comparing zero patterns; a huge ceiling makes every
        // pass boundary intractable.
        if policy.rounds == 0 {
            self.invalid.get_or_insert(PipelineError::GateZeroRounds);
        } else if policy.exhaustive_inputs > crate::spec::MAX_EXHAUSTIVE_GATE_INPUTS {
            self.invalid
                .get_or_insert(PipelineError::GateCeilingTooHigh(policy.exhaustive_inputs));
        }
        self.equivalence = Some(policy);
        self
    }

    /// Turns on per-pass lint gating: after every pass past mapping,
    /// the working netlist is re-linted with the error-severity
    /// structural rules appropriate to the pipeline's progress (cycles
    /// and well-formedness always; the `WP003` fan-out rule once a
    /// restriction pass enforced a limit; the `WP001`/`WP002` balance
    /// rules once buffer insertion equalized paths — see
    /// [`crate::lint`]). A pass that breaks a statically-provable
    /// legality condition fails its run with [`PassError::Lint`] naming
    /// it — a zero-simulation counterpart to
    /// [`FlowPipelineBuilder::gate_equivalence`].
    pub fn gate_lints(mut self) -> FlowPipelineBuilder {
        self.lints = true;
        self
    }

    /// Adds the MIG→netlist mapping pass; `minimize_inverters` selects
    /// the polarity-local-search mapping.
    pub fn map(self, minimize_inverters: bool) -> FlowPipelineBuilder {
        self.pass(Box::new(crate::from_mig::MapPass { minimize_inverters }))
    }

    /// Adds the built-in pass `spec` names. A parameter out of range (a
    /// fan-out limit outside `2..=5`, delay weights with `buf == 0` or
    /// above [`crate::spec::MAX_DELAY_WEIGHT`]) fails
    /// [`FlowPipelineBuilder::build`].
    pub fn then(mut self, spec: PassSpec) -> FlowPipelineBuilder {
        match compile(spec) {
            Ok(pass) => self.passes.push(pass),
            Err(error) => {
                self.invalid.get_or_insert(error);
            }
        }
        self
    }

    /// Registers a custom pass.
    pub fn pass(mut self, pass: Box<dyn Pass>) -> FlowPipelineBuilder {
        self.passes.push(pass);
        self
    }

    /// Validates parameters and ordering and produces the pipeline.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] when a pass parameter or the
    /// equivalence gate was rejected (the first rejection is reported),
    /// or when the pass sequence violates the structural constraints
    /// (map first, fan-out restriction before buffer insertion, no
    /// transforms after verification).
    pub fn build(self) -> Result<FlowPipeline, PipelineError> {
        if let Some(error) = self.invalid {
            return Err(error);
        }
        let kinds: Vec<PassKind> = self.passes.iter().map(|p| p.kind()).collect();
        validate_order(&kinds)?;
        Ok(FlowPipeline {
            passes: self.passes,
            equivalence: self.equivalence,
            lints: self.lints,
        })
    }
}

/// The compile step: the one place a [`PassSpec`] becomes its pass, and
/// the one place its parameters are range-checked.
fn compile(spec: PassSpec) -> Result<Box<dyn Pass>, PipelineError> {
    use crate::balance::{FanoutBoundPass, VerifyBalancePass};
    use crate::optimize::{OptimizeCostAwarePass, OptimizeDepthPass, OptimizeSizePass};
    let limit = |limit: u32| {
        crate::spec::fanout_limit_in_range(limit)
            .then_some(limit)
            .ok_or(PipelineError::FanoutLimitOutOfRange(limit))
    };
    let weights = |weights: DelayWeights| {
        crate::spec::delay_weights_in_range(&weights)
            .then_some(weights)
            .ok_or(PipelineError::DelayWeightsOutOfRange(weights))
    };
    let verify = |strategy, fanout_limit| VerifyBalancePass {
        strategy,
        fanout_limit,
    };
    Ok(match spec {
        PassSpec::OptimizeDepth { max_rounds } => Box::new(OptimizeDepthPass { max_rounds }),
        PassSpec::OptimizeSize { max_rounds } => Box::new(OptimizeSizePass { max_rounds }),
        PassSpec::OptimizeCostAware { max_rounds } => {
            Box::new(OptimizeCostAwarePass { max_rounds })
        }
        PassSpec::RestrictFanout { limit: k } => {
            Box::new(crate::fanout_restriction::FanoutRestrictionPass { limit: limit(k)? })
        }
        PassSpec::RestrictFanoutCostAware => {
            Box::new(crate::fanout_restriction::CostAwareFanoutPass::default())
        }
        PassSpec::InsertBuffers(BufferStrategy::Weighted(w)) => Box::new(
            crate::buffer_insertion::InsertBuffersPass(BufferStrategy::Weighted(weights(w)?)),
        ),
        PassSpec::InsertBuffers(strategy) => {
            Box::new(crate::buffer_insertion::InsertBuffersPass(strategy))
        }
        PassSpec::Verify { fanout_limit } => Box::new(verify(
            BufferStrategy::Asap,
            fanout_limit.map(limit).transpose()?,
        )),
        PassSpec::VerifyWeighted(w) => {
            Box::new(verify(BufferStrategy::Weighted(weights(w)?), None))
        }
        PassSpec::VerifyCostAware { fanout_limit } => Box::new(verify(
            BufferStrategy::CostAware,
            fanout_limit.map(limit).transpose()?,
        )),
        PassSpec::CheckFanoutBound { limit: k } => Box::new(FanoutBoundPass { limit: limit(k)? }),
    })
}

/// The ordering rules, factored out so tests can drive them directly.
pub(crate) fn validate_order(kinds: &[PassKind]) -> Result<(), PipelineError> {
    if kinds.is_empty() {
        return Err(PipelineError::Empty);
    }
    // MIG rewrites form an optional prefix; the first netlist pass must
    // be the map, and no rewrite may follow it.
    let map_at = kinds
        .iter()
        .take_while(|k| **k == PassKind::Rewrite)
        .count();
    if kinds.get(map_at) != Some(&PassKind::Map) {
        return Err(PipelineError::MapNotFirst);
    }
    if kinds[map_at + 1..].contains(&PassKind::Map) {
        return Err(PipelineError::DuplicateMap);
    }
    if kinds[map_at + 1..].contains(&PassKind::Rewrite) {
        return Err(PipelineError::RewriteAfterMap);
    }
    let first_buffer = kinds.iter().position(|k| *k == PassKind::BufferInsertion);
    let last_fanout = kinds
        .iter()
        .rposition(|k| *k == PassKind::FanoutRestriction);
    if let (Some(buffer), Some(fanout)) = (first_buffer, last_fanout) {
        if fanout > buffer {
            return Err(PipelineError::FanoutAfterBuffers);
        }
    }
    if let Some(first_verify) = kinds.iter().position(|k| *k == PassKind::Verify) {
        let transform_after = kinds[first_verify..].iter().any(|k| {
            matches!(
                k,
                PassKind::Map | PassKind::FanoutRestriction | PassKind::BufferInsertion
            )
        });
        if transform_after {
            return Err(PipelineError::TransformAfterVerify);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PipelineSpec;
    use crate::wavesim::WaveSimulator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_mig(seed: u64) -> Mig {
        mig::random_mig(mig::RandomMigConfig {
            inputs: 8,
            outputs: 4,
            gates: 120,
            depth: 8,
            seed,
        })
    }

    /// The paper's flow: FO3 + BUF + verify.
    fn paper_flow() -> FlowPipeline {
        PipelineSpec::default().build().unwrap()
    }

    /// The larger random MIGs the end-to-end flow checks run on.
    fn flow_mig(seed: u64) -> Mig {
        mig::random_mig(mig::RandomMigConfig {
            inputs: 12,
            outputs: 6,
            gates: 250,
            depth: 10,
            seed,
        })
    }

    fn run_spec(spec: PipelineSpec, g: &Mig) -> FlowResult {
        spec.build().unwrap().run(g).unwrap().result
    }

    #[test]
    fn default_flow_produces_wave_ready_netlist() {
        let r = run_spec(PipelineSpec::default(), &flow_mig(1));
        assert!(r.report.is_some());
        assert!(r.pipelined.max_fanout() <= 3);
        assert!(r.size_ratio() > 1.0);
        assert!(r.fanout.unwrap().fogs_inserted > 0);
        assert!(r.buffers.unwrap().total() > 0);
    }

    #[test]
    fn flow_preserves_function_end_to_end() {
        let r = run_spec(PipelineSpec::default(), &flow_mig(2));
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..64 {
            let bits: Vec<bool> = (0..12).map(|_| rng.gen()).collect();
            assert_eq!(r.original.eval(&bits), r.pipelined.eval(&bits));
        }
    }

    #[test]
    fn flow_result_streams_waves() {
        let r = run_spec(PipelineSpec::default(), &flow_mig(4));
        let mut rng = StdRng::seed_from_u64(5);
        let waves: Vec<Vec<bool>> = (0..25)
            .map(|_| (0..12).map(|_| rng.gen()).collect())
            .collect();
        let corrupted = WaveSimulator::new(&r.pipelined).check_against_golden(&waves);
        assert!(corrupted.is_empty());
    }

    /// Fig 8's BUF-only configuration: balancing without restriction.
    fn buf_only() -> PipelineSpec {
        PipelineSpec::map(false)
            .insert_buffers(BufferStrategy::Asap)
            .verify(None)
    }

    /// Fig 8's FOx-only configuration: restriction without balancing.
    fn fo_only(limit: u32) -> PipelineSpec {
        PipelineSpec::map(false)
            .restrict_fanout(limit)
            .check_fanout_bound(limit)
    }

    #[test]
    fn buf_only_configuration() {
        let r = run_spec(buf_only(), &flow_mig(6));
        assert!(r.fanout.is_none());
        assert!(r.report.is_some());
    }

    #[test]
    fn fo_only_configuration() {
        let r = run_spec(fo_only(4), &flow_mig(7));
        assert!(r.report.is_none());
        assert!(r.pipelined.max_fanout() <= 4);
        assert!(r.buffers.is_none());
    }

    #[test]
    fn combined_flow_needs_more_buffers_than_buf_alone() {
        // Fig 8 observation (a): FOx+BUF inserts more buffers than BUF,
        // because fan-out chains delay consumers and widen gaps.
        let mut more = 0usize;
        for seed in 10..16 {
            let g = flow_mig(seed);
            let alone = run_spec(buf_only(), &g);
            let combined = run_spec(PipelineSpec::default(), &g);
            if combined.buffers.unwrap().total() >= alone.buffers.unwrap().total() {
                more += 1;
            }
        }
        assert!(
            more >= 5,
            "combined flow should dominate on most seeds ({more}/6)"
        );
    }

    #[test]
    fn fog_count_is_independent_of_buffer_insertion() {
        // Fig 8 observation (b).
        for seed in 20..24 {
            let g = flow_mig(seed);
            let fo = run_spec(fo_only(3), &g);
            let combined = run_spec(PipelineSpec::default(), &g);
            assert_eq!(fo.pipelined_counts().fog, combined.pipelined_counts().fog);
        }
    }

    #[test]
    fn trace_records_every_pass_in_order() {
        let g = sample_mig(2);
        let run = paper_flow().run(&g).unwrap();
        let names: Vec<String> = run.trace.iter().map(|s| s.pass.clone()).collect();
        assert_eq!(
            names,
            vec![
                "map",
                "fanout_restriction(3)",
                "insert_buffers(asap)",
                "verify(fo≤3)"
            ]
        );
        // The mapping pass creates the netlist from nothing.
        assert_eq!(run.trace[0].counts_before, KindCounts::default());
        // Fan-out restriction only adds FOGs; insertion only buffers.
        assert_eq!(run.trace[1].added.buf, 0);
        assert!(run.trace[1].added.fog > 0);
        assert!(run.trace[2].added.buf > 0);
        assert_eq!(run.trace[2].added.fog, 0);
        // Verification transforms nothing.
        assert_eq!(run.trace[3].added, KindCounts::default());
        assert!(run.trace_table().contains("insert_buffers(asap)"));
    }

    #[test]
    fn balancing_pass_names_are_stable() {
        // Pass names are persisted in cached traces.
        let names = |strategy, verify: PassSpec| {
            let mut spec = PipelineSpec::map(false).insert_buffers(strategy);
            spec.passes.push(verify);
            spec.build().unwrap().pass_names()[1..].to_vec()
        };
        let qca = DelayWeights::QCA;
        assert_eq!(
            names(
                BufferStrategy::Asap,
                PassSpec::Verify { fanout_limit: None }
            ),
            ["insert_buffers(asap)", "verify"]
        );
        assert_eq!(
            names(
                BufferStrategy::Retimed,
                PassSpec::Verify {
                    fanout_limit: Some(4)
                }
            ),
            ["insert_buffers(retimed)", "verify(fo≤4)"]
        );
        assert_eq!(
            names(BufferStrategy::Weighted(qca), PassSpec::VerifyWeighted(qca)),
            ["insert_buffers(weighted)", "verify(weighted)"]
        );
        assert_eq!(
            names(
                BufferStrategy::CostAware,
                PassSpec::VerifyCostAware {
                    fanout_limit: Some(3)
                }
            ),
            ["insert_buffers(cost-aware)", "verify(cost-aware)"]
        );
    }

    #[test]
    fn builder_rejects_ill_ordered_pipelines() {
        assert_eq!(
            FlowPipeline::builder().build().unwrap_err(),
            PipelineError::Empty
        );
        assert_eq!(
            FlowPipeline::builder()
                .then(PassSpec::RestrictFanout { limit: 3 })
                .build()
                .unwrap_err(),
            PipelineError::MapNotFirst
        );
        assert_eq!(
            FlowPipeline::builder()
                .map(false)
                .map(true)
                .build()
                .unwrap_err(),
            PipelineError::DuplicateMap
        );
        assert_eq!(
            FlowPipeline::builder()
                .map(false)
                .then(PassSpec::InsertBuffers(BufferStrategy::Asap))
                .then(PassSpec::RestrictFanout { limit: 3 })
                .build()
                .unwrap_err(),
            PipelineError::FanoutAfterBuffers
        );
        assert_eq!(
            FlowPipeline::builder()
                .map(false)
                .then(PassSpec::Verify { fanout_limit: None })
                .then(PassSpec::InsertBuffers(BufferStrategy::Asap))
                .build()
                .unwrap_err(),
            PipelineError::TransformAfterVerify
        );
        // Unusable equivalence gates are rejected at build time too.
        assert_eq!(
            FlowPipeline::builder()
                .map(false)
                .gate_equivalence(mig::EquivalencePolicy::sampled(0, 1))
                .build()
                .unwrap_err(),
            PipelineError::GateZeroRounds
        );
        assert_eq!(
            FlowPipeline::builder()
                .map(false)
                .gate_equivalence(mig::EquivalencePolicy::exhaustive(40))
                .build()
                .unwrap_err(),
            PipelineError::GateCeilingTooHigh(40)
        );
    }

    #[test]
    fn builder_rejects_out_of_range_parameters() {
        // Only `build()` is called: running such a pipeline would panic
        // (limit 1) or ask balancing for unbounded buffer chains.
        let rejects = |pass: PassSpec| FlowPipeline::builder().map(false).then(pass).build();
        for limit in [0, 1, 6, u32::MAX] {
            let err = PipelineError::FanoutLimitOutOfRange(limit);
            let restrict = rejects(PassSpec::RestrictFanout { limit });
            let bound = rejects(PassSpec::CheckFanoutBound { limit });
            let fanout_limit = Some(limit);
            let verify = rejects(PassSpec::Verify { fanout_limit });
            let cost_aware = rejects(PassSpec::VerifyCostAware { fanout_limit });
            assert_eq!(restrict.unwrap_err(), err);
            assert_eq!(bound.unwrap_err(), err);
            assert_eq!(verify.unwrap_err(), err);
            assert_eq!(cost_aware.unwrap_err(), err);
        }
        let zero_buf = DelayWeights {
            buf: 0,
            ..DelayWeights::UNIT
        };
        let huge = DelayWeights {
            maj: u32::MAX,
            ..DelayWeights::UNIT
        };
        let over = DelayWeights {
            fog: crate::spec::MAX_DELAY_WEIGHT + 1,
            ..DelayWeights::UNIT
        };
        for w in [zero_buf, huge, over] {
            let err = PipelineError::DelayWeightsOutOfRange(w);
            let insert = rejects(PassSpec::InsertBuffers(BufferStrategy::Weighted(w)));
            let verify = rejects(PassSpec::VerifyWeighted(w));
            assert_eq!(insert.unwrap_err(), err);
            assert_eq!(verify.unwrap_err(), err);
        }
        // The bounds themselves are accepted.
        let at_max = DelayWeights {
            inv: crate::spec::MAX_DELAY_WEIGHT,
            ..DelayWeights::UNIT
        };
        assert!(PipelineSpec::map(false)
            .restrict_fanout(2)
            .insert_buffers(BufferStrategy::Weighted(at_max))
            .verify_weighted(at_max)
            .build()
            .is_ok());
        assert!(rejects(PassSpec::CheckFanoutBound { limit: 5 }).is_ok());
    }

    #[test]
    fn retimed_strategy_is_a_one_line_edit() {
        let g = sample_mig(3);
        let asap = paper_flow().run(&g).unwrap();
        let retimed = PipelineSpec::map(false)
            .restrict_fanout(3)
            .insert_buffers(BufferStrategy::Retimed)
            .verify(Some(3))
            .build()
            .unwrap()
            .run(&g)
            .unwrap();
        assert!(retimed.result.buffers.unwrap().total() <= asap.result.buffers.unwrap().total());
        assert_eq!(
            retimed.result.pipelined.depth(),
            asap.result.pipelined.depth()
        );
    }

    #[test]
    fn weighted_strategy_populates_weighted_stats() {
        let g = sample_mig(4);
        let run = PipelineSpec::map(false)
            .restrict_fanout(3)
            .insert_buffers(BufferStrategy::Weighted(DelayWeights::QCA))
            .verify_weighted(DelayWeights::QCA)
            .build()
            .unwrap()
            .run(&g)
            .unwrap();
        assert!(run.weighted.unwrap().buffers > 0);
        assert!(run.result.buffers.is_none());
    }

    #[test]
    fn map_kind_pass_that_never_maps_is_an_error_not_a_panic() {
        struct ForgetfulMapPass;
        impl Pass for ForgetfulMapPass {
            fn name(&self) -> String {
                "forgetful_map".to_owned()
            }
            fn kind(&self) -> PassKind {
                PassKind::Map
            }
            fn run(&self, _ctx: &mut FlowContext<'_>) -> Result<(), PassError> {
                Ok(()) // claims to map but never calls set_mapped
            }
        }
        let g = sample_mig(6);
        let err = FlowPipeline::builder()
            .pass(Box::new(ForgetfulMapPass))
            .build()
            .expect("kind tag satisfies the builder")
            .run(&g)
            .unwrap_err();
        assert!(matches!(err, PassError::Custom(_)), "{err}");
    }

    /// Flat unit-cost model: every priced kind costs 1 on every axis.
    struct FlatModel;

    impl crate::cost::CostModel for FlatModel {
        fn cost_name(&self) -> &str {
            "FLAT"
        }
        fn area_of(&self, kind: crate::ComponentKind) -> f64 {
            if kind.is_priced() {
                1.0
            } else {
                0.0
            }
        }
        fn delay_of(&self, kind: crate::ComponentKind) -> f64 {
            self.area_of(kind)
        }
        fn energy_of(&self, kind: crate::ComponentKind) -> f64 {
            self.area_of(kind)
        }
        fn phase_delay(&self) -> f64 {
            1.0
        }
        fn output_sense_energy(&self) -> f64 {
            0.0
        }
    }

    #[test]
    fn cost_model_prices_every_pass() {
        let g = sample_mig(7);
        let flat = CostTable::from_model(&FlatModel);
        let run = paper_flow().run_with_model(&g, Some(&flat)).unwrap();
        for stats in &run.trace {
            let priced = stats.priced.as_ref().expect("cost model configured");
            assert_eq!(priced.model, "FLAT");
            assert!(priced.after.area >= priced.before.area, "flow only adds");
        }
        // Under the flat model, area == priced component count, and the
        // final cycle time is the final depth (phase = 1 ns).
        let last = run.trace.last().unwrap().priced.as_ref().unwrap();
        assert_eq!(
            last.after.area,
            run.result.pipelined.counts().priced_total() as f64
        );
        assert_eq!(last.after.latency, f64::from(run.result.pipelined.depth()));
        // Verification transforms nothing, so it prices to a zero delta.
        assert_eq!(run.trace[3].priced.as_ref().unwrap().area_delta(), 0.0);
        // Without a model the same pipeline records no priced entries.
        let blind = paper_flow().run(&g).unwrap();
        assert!(blind.trace.iter().all(|s| s.priced.is_none()));
    }

    #[test]
    fn grid_covers_every_cell_circuit_major_and_matches_single_runs() {
        let graphs: Vec<Mig> = (30..33).map(sample_mig).collect();
        let refs: Vec<&Mig> = graphs.iter().collect();
        let table = crate::cost::CostTable::from_model(&FlatModel);
        let models = vec![table.clone(), table];
        let spec = PipelineSpec::default();
        let engine = crate::engine::Engine::new().with_cache_capacity(0);
        let cells = engine.run_pipeline_grid(&spec, &refs, &models).unwrap();
        assert_eq!(cells.len(), graphs.len() * models.len());
        let pipeline = paper_flow();
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.circuit, i / models.len());
            assert_eq!(cell.technology, Some(i % models.len()));
            let run = cell.outcome.as_ref().expect("grid cell verifies");
            let single = pipeline.run(&graphs[cell.circuit]).unwrap();
            assert_eq!(
                run.result.pipelined_counts(),
                single.result.pipelined_counts()
            );
            assert!(run.trace.iter().all(|s| s.priced.is_some()));
        }
        let blind = engine.run_pipeline_grid(&spec, &refs, &[]).unwrap();
        assert_eq!(
            blind.len(),
            graphs.len(),
            "no models: one cost-blind cell per graph"
        );
    }

    #[test]
    fn cost_aware_passes_require_a_model() {
        let g = sample_mig(8);
        let err = PipelineSpec::map(false)
            .restrict_fanout_cost_aware()
            .insert_buffers(BufferStrategy::Asap)
            .verify(None)
            .build()
            .unwrap()
            .run(&g)
            .unwrap_err();
        assert!(matches!(err, PassError::Custom(_)), "{err}");
        let err = PipelineSpec::map(false)
            .restrict_fanout(3)
            .insert_buffers(BufferStrategy::CostAware)
            .build()
            .unwrap()
            .run(&g)
            .unwrap_err();
        assert!(matches!(err, PassError::Custom(_)), "{err}");
    }

    #[test]
    fn cost_aware_fanout_rejects_infeasible_candidates_without_panicking() {
        // A candidate below the physical minimum must fail the cell,
        // not panic — a panic inside a grid worker aborts the sweep.
        let g = sample_mig(8);
        let err = FlowPipeline::builder()
            .map(false)
            .pass(Box::new(crate::fanout_restriction::CostAwareFanoutPass {
                candidates: vec![1, 3],
            }))
            .build()
            .unwrap()
            .run_with_model(&g, Some(&CostTable::from_model(&FlatModel)))
            .unwrap_err();
        assert!(
            matches!(&err, PassError::Custom(m) if m.contains("below the physical minimum")),
            "{err}"
        );
    }

    #[test]
    fn cost_aware_flow_verifies_under_a_unit_model() {
        // Unit phase occupancy → the cost-aware strategy IS Algorithm 1;
        // the cost-aware verifier records a plain balance report.
        let g = sample_mig(9);
        let run = PipelineSpec::map(false)
            .restrict_fanout_cost_aware()
            .insert_buffers(BufferStrategy::CostAware)
            .verify_cost_aware(None)
            .build()
            .unwrap()
            .run_with_model(&g, Some(&CostTable::from_model(&FlatModel)))
            .unwrap();
        let fanout = run.result.fanout.expect("restriction ran");
        assert!((2..=5).contains(&fanout.limit));
        assert!(run.result.pipelined.max_fanout() <= fanout.limit);
        assert!(run.result.buffers.is_some(), "unit weights → plain stats");
        assert!(run.result.report.is_some());
    }

    #[test]
    fn custom_pass_wiring_a_cycle_is_an_error_not_a_panic() {
        // A cycle breaks every downstream analysis; the pass boundary
        // must surface it as a PassError so a grid sweep survives.
        struct CyclePass;
        impl Pass for CyclePass {
            fn name(&self) -> String {
                "cycle".to_owned()
            }
            fn run(&self, ctx: &mut FlowContext<'_>) -> Result<(), PassError> {
                let netlist = ctx.netlist_mut();
                let a = netlist.inputs()[0];
                let b1 = netlist.add_buf(a);
                let b2 = netlist.add_buf(b1);
                netlist.component_mut(b1).fanins_mut()[0] = b2;
                Ok(())
            }
        }
        let g = sample_mig(11);
        let err = FlowPipeline::builder()
            .map(false)
            .pass(Box::new(CyclePass))
            .build()
            .unwrap()
            .run(&g)
            .unwrap_err();
        assert!(
            matches!(
                err,
                PassError::Netlist(crate::netlist::NetlistError::CombinationalCycle(_))
            ),
            "{err}"
        );
    }

    #[test]
    fn built_in_transforms_hand_their_levels_forward() {
        // Wraps a compiled built-in pass and reads what it left in the
        // caches right as it returns: the levels it hands forward must
        // be there, and exact; a pass that hands none leaves none.
        struct Handed {
            inner: Box<dyn Pass>,
            levels: bool,
        }
        impl Pass for Handed {
            fn name(&self) -> String {
                self.inner.name()
            }
            fn kind(&self) -> PassKind {
                self.inner.kind()
            }
            fn run(&self, ctx: &mut FlowContext<'_>) -> Result<(), PassError> {
                self.inner.run(ctx)?;
                let name = self.name();
                let levels = ctx.caches.cached_levels();
                assert_eq!(levels.is_some(), self.levels, "{name}: levels");
                if let Some(levels) = levels {
                    assert_eq!(levels, ctx.netlist.levels(), "{name}");
                }
                Ok(())
            }
        }
        let handed = |spec, levels| -> Box<dyn Pass> {
            Box::new(Handed {
                inner: compile(spec).unwrap(),
                levels,
            })
        };
        let model = CostTable::from_model(&FlatModel);
        for seed in 0..8 {
            let g = flow_mig(seed);
            for restrict in [
                PassSpec::RestrictFanout { limit: 3 },
                PassSpec::RestrictFanoutCostAware,
            ] {
                for (strategy, levels) in [
                    (BufferStrategy::Asap, true),
                    (BufferStrategy::Retimed, false),
                    (BufferStrategy::Weighted(DelayWeights::QCA), false),
                ] {
                    FlowPipeline::builder()
                        .map(false)
                        .pass(handed(restrict.clone(), true))
                        .pass(handed(PassSpec::InsertBuffers(strategy), levels))
                        .build()
                        .unwrap()
                        .run_with_model(&g, Some(&model))
                        .unwrap();
                }
            }
        }
    }

    #[test]
    fn equivalence_gate_passes_a_correct_flow_and_names_a_broken_pass() {
        // A pass that silently inverts an output: without the gate the
        // run "succeeds"; with it, the run fails naming the pass and
        // carrying a replayable counterexample.
        struct FlipOutputPass;
        impl Pass for FlipOutputPass {
            fn name(&self) -> String {
                "flip_output".to_owned()
            }
            fn run(&self, ctx: &mut FlowContext<'_>) -> Result<(), PassError> {
                let netlist = ctx.netlist_mut();
                let driver = netlist.outputs()[0].driver;
                let inv = netlist.add_inv(driver);
                netlist.set_output_driver(0, inv);
                Ok(())
            }
        }

        let g = sample_mig(12);
        let policy = mig::EquivalencePolicy::default();

        // The paper's flow self-verifies cleanly under the gate.
        let run = PipelineSpec::default()
            .gate_equivalence(policy)
            .build()
            .unwrap()
            .run(&g)
            .unwrap();
        assert!(run.result.report.is_some());

        // Ungated, the corruption goes unnoticed.
        let silent = FlowPipeline::builder()
            .map(false)
            .pass(Box::new(FlipOutputPass))
            .build()
            .unwrap()
            .run(&g);
        assert!(silent.is_ok(), "without the gate nothing catches this");

        // Gated, the counterexample names the pass.
        let err = FlowPipeline::builder()
            .map(false)
            .pass(Box::new(FlipOutputPass))
            .gate_equivalence(policy)
            .build()
            .unwrap()
            .run(&g)
            .unwrap_err();
        match err {
            PassError::Equivalence(cex) => {
                assert_eq!(cex.pass.as_deref(), Some("flip_output"));
                assert_eq!(cex.output, 0);
                assert_ne!(cex.expected, cex.actual);
                assert_eq!(cex.pattern.len(), 8, "one bit per primary input");
            }
            other => panic!("expected an equivalence failure, got {other}"),
        }
    }

    #[test]
    fn rewrite_gate_returns_a_typed_counterexample_naming_the_pass() {
        // A rewrite pass that complements output 1 of the working MIG.
        struct ComplementOutputPass;
        impl Pass for ComplementOutputPass {
            fn name(&self) -> String {
                "complement_output".to_owned()
            }
            fn kind(&self) -> PassKind {
                PassKind::Rewrite
            }
            fn run(&self, ctx: &mut FlowContext<'_>) -> Result<(), PassError> {
                let mut g = ctx.working_graph().clone();
                let flipped = !g.outputs()[1].signal;
                g.set_output_signal(1, flipped);
                ctx.set_rewritten(g);
                Ok(())
            }
        }
        // A rewrite pass the checker cannot compare: it drops an output.
        struct DropOutputPass;
        impl Pass for DropOutputPass {
            fn name(&self) -> String {
                "drop_output".to_owned()
            }
            fn kind(&self) -> PassKind {
                PassKind::Rewrite
            }
            fn run(&self, ctx: &mut FlowContext<'_>) -> Result<(), PassError> {
                let mut g = ctx.working_graph().clone();
                g.remove_output(0);
                ctx.set_rewritten(g);
                Ok(())
            }
        }

        let g = sample_mig(13);
        let gated = |pass: Box<dyn Pass>| {
            FlowPipeline::builder()
                .pass(pass)
                .map(false)
                .gate_equivalence(mig::EquivalencePolicy::default())
                .build()
                .unwrap()
                .run(&g)
                .unwrap_err()
        };
        match gated(Box::new(ComplementOutputPass)) {
            PassError::Equivalence(cex) => {
                assert_eq!(cex.pass.as_deref(), Some("complement_output"));
                assert_eq!(cex.output, 1);
                assert_eq!(cex.output_name, g.outputs()[1].name);
                assert_eq!(cex.pattern.len(), g.input_count());
                let source = mig::Simulator::new(&g).eval(&cex.pattern);
                assert_eq!(cex.expected, source[1]);
                assert_eq!(cex.actual, !source[1]);
            }
            other => panic!("expected an equivalence failure, got {other}"),
        }
        match gated(Box::new(DropOutputPass)) {
            PassError::EquivalenceCheck { pass, error } => {
                assert_eq!(pass, "drop_output");
                assert!(
                    matches!(error, crate::differential::DifferentialError::Interface(_)),
                    "{error}"
                );
            }
            other => panic!("expected a checker failure, got {other}"),
        }
    }

    #[test]
    fn custom_passes_slot_in() {
        struct SweepPass;
        impl Pass for SweepPass {
            fn name(&self) -> String {
                "sweep".to_owned()
            }
            fn run(&self, ctx: &mut FlowContext<'_>) -> Result<(), PassError> {
                let swept = ctx.netlist().sweep();
                *ctx.netlist_mut() = swept;
                Ok(())
            }
        }
        let g = sample_mig(5);
        let run = FlowPipeline::builder()
            .map(false)
            .pass(Box::new(SweepPass))
            .then(PassSpec::RestrictFanout { limit: 3 })
            .then(PassSpec::InsertBuffers(BufferStrategy::Asap))
            .then(PassSpec::Verify {
                fanout_limit: Some(3),
            })
            .build()
            .unwrap()
            .run(&g)
            .unwrap();
        assert_eq!(run.trace[1].pass, "sweep");
        assert!(run.result.report.is_some());
    }
}
