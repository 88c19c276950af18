//! Incremental (ECO) execution: per-output-cone caching, dirty-region
//! re-execution and whole-result splicing.
//!
//! An [`IncrementalSession`] (created by [`Engine::incremental`]) holds
//! an editable [`Mig`] plus its pipeline configuration on top of a
//! shared [`Engine`]. Every [`IncrementalSession::run`]:
//!
//! 1. decomposes the graph into per-output content-hashed cones
//!    ([`mig::cone`]);
//! 2. looks each **unique** cone hash up in the engine's tiered cache
//!    (in-memory LRU, then the persistent disk tier) under a
//!    cone-scoped key — only cones with no cached run are extracted
//!    ([`mig::extract_cone`]) and re-executed through the pipeline, in
//!    parallel;
//! 3. **splices** the per-cone runs back into one whole-circuit
//!    [`PipelineRun`]: region netlists are instantiated per output,
//!    output drivers are padded with buffers to the common depth, and
//!    the instrumentation trace is re-aggregated (wall-clock fields are
//!    zeroed, so a spliced run is a *deterministic* function of its
//!    region runs — warm and cold incremental runs are bit-identical);
//! 4. optionally gates the splice with the differential-verification
//!    engine ([`differential::check`]) against the current graph, and
//!    caches the merged result under a whole-graph `spliced` key so an
//!    unchanged graph re-runs in one lookup.
//!
//! So a one-output ECO edit on a large circuit re-runs one cone, not
//! the whole flow — the [engine](crate::engine) counts it in
//! [`crate::EngineStats::cones_recomputed`] against
//! [`crate::EngineStats::cones_reused`].
//!
//! ## What a spliced run is (and is not)
//!
//! Each output's logic is instantiated *per cone*, so logic shared
//! between outputs in the source graph is **duplicated** in the spliced
//! netlist, and primary inputs feeding many cones can exceed the
//! fan-out limit the per-cone runs enforce internally. A spliced run is
//! therefore functionally equivalent to the monolithic flow (gate it
//! with [`IncrementalSession::with_verification`] to prove that every
//! run) and balanced to a common depth, but not structurally identical
//! to the whole-circuit run — it is the ECO trade: locality of
//! recomputation for sharing.
//!
//! Weighted and cost-aware pipeline variants
//! ([`BufferStrategy::Weighted`], [`BufferStrategy::CostAware`],
//! cost-aware fan-out restriction and verification) are rejected with
//! [`IncrementalError::Unsupported`]: their balance targets are global
//! properties that unit-depth splicing cannot preserve.
//!
//! ```
//! use wavepipe::{BufferStrategy, Engine, EngineEdit, PipelineSpec};
//!
//! # fn main() -> Result<(), wavepipe::IncrementalError> {
//! let mut g = mig::Mig::with_name("demo");
//! let a = g.add_input("a");
//! let b = g.add_input("b");
//! let c = g.add_input("c");
//! let (sum, cout) = g.add_full_adder(a, b, c);
//! g.add_output("sum", sum);
//! g.add_output("cout", cout);
//!
//! let engine = Engine::new();
//! let pipeline = PipelineSpec::map(false)
//!     .restrict_fanout(3)
//!     .insert_buffers(BufferStrategy::Asap)
//!     .verify(Some(3));
//! let mut session = engine.incremental(g, pipeline);
//!
//! let cold = session.run()?;
//! assert_eq!(cold.cones, 2);
//!
//! // Rewire one output: only its cone is re-executed.
//! session.apply(EngineEdit::RewireOutput {
//!     position: 0,
//!     signal: !sum,
//! })?;
//! let warm = session.run()?;
//! assert_eq!(warm.cones_recomputed, 1);
//! assert_eq!(warm.cones_reused, 1);
//! # Ok(())
//! # }
//! ```

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use mig::cone::ConePartition;
use mig::{EquivalencePolicy, Mig, Signal};
use rayon::prelude::*;

use crate::component::{CompId, ComponentKind};
use crate::cost::CostTable;
use crate::engine::{CacheKey, Engine, Scope, COST_BLIND};
use crate::netlist::{KindCounts, Netlist};
use crate::pipeline::{
    BufferStrategy, FlowResult, PassError, PassStats, PipelineError, PipelineRun,
};
use crate::spec::{PassSpec, PipelineSpec};
use crate::verify::differential;
use crate::{BalanceReport, BufferInsertion, FanoutRestriction, PricedDelta};

/// The synthetic trace record appended by the splice stage.
pub const SPLICE_PASS: &str = "cone_splice";

/// One ECO edit against an [`IncrementalSession`]'s graph or
/// configuration.
#[derive(Clone, Debug)]
pub enum EngineEdit {
    /// Adds a majority gate over three existing signals; when `output`
    /// is set, the gate also becomes a new primary output under that
    /// name. Without an output binding the gate is *dead* until a later
    /// [`EngineEdit::RewireOutput`] points at it — and dead logic never
    /// dirties a cone.
    AddGate {
        /// First fan-in signal.
        a: Signal,
        /// Second fan-in signal.
        b: Signal,
        /// Third fan-in signal.
        c: Signal,
        /// Optional output name to bind the new gate to.
        output: Option<String>,
    },
    /// Redirects an existing primary output to another signal.
    RewireOutput {
        /// Output position in declaration order.
        position: usize,
        /// The new driving signal.
        signal: Signal,
    },
    /// Removes a primary output (later outputs shift down one
    /// position).
    RemoveOutput {
        /// Output position in declaration order.
        position: usize,
    },
    /// Swaps the technology cost model the session prices against
    /// (`None` returns to cost-blind execution). Cached runs priced
    /// under other models are keyed separately and stay valid.
    SwapTechnology {
        /// The new cost model, if any.
        model: Option<CostTable>,
    },
    /// Toggles one pass of the session's pipeline spec on or off (by
    /// index into [`PipelineSpec::passes`]). Toggling twice restores
    /// the original configuration — and its cache key.
    TogglePass {
        /// Pass index in the session's pipeline spec.
        index: usize,
    },
}

/// Why an incremental run (or edit) failed.
#[derive(Debug)]
pub enum IncrementalError {
    /// The effective pipeline spec does not compile (an ill-ordered
    /// pass list or an out-of-range parameter).
    Pipeline(PipelineError),
    /// The session's configuration cannot run incrementally (weighted /
    /// cost-aware balancing, or a graph with no outputs).
    Unsupported(String),
    /// An edit referenced a node, output or pass that does not exist.
    InvalidEdit(String),
    /// One cone's pipeline run failed.
    ConeFailed {
        /// Output position of the failing cone.
        output: usize,
        /// Output name of the failing cone.
        name: String,
        /// The underlying pass failure.
        error: PassError,
    },
    /// The differential gate could not compare the spliced result.
    Differential(differential::DifferentialError),
    /// The differential gate found the spliced result functionally
    /// diverging from the session graph.
    Diverged(differential::Counterexample),
}

impl fmt::Display for IncrementalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IncrementalError::Pipeline(e) => write!(f, "{e}"),
            IncrementalError::Unsupported(what) => {
                write!(f, "unsupported incremental configuration: {what}")
            }
            IncrementalError::InvalidEdit(what) => write!(f, "invalid edit: {what}"),
            IncrementalError::ConeFailed {
                output,
                name,
                error,
            } => write!(f, "cone {output} (`{name}`) failed: {error}"),
            IncrementalError::Differential(e) => {
                write!(f, "differential gate failed to run: {e}")
            }
            IncrementalError::Diverged(cex) => {
                write!(f, "spliced result diverged from the graph: {cex}")
            }
        }
    }
}

impl std::error::Error for IncrementalError {}

impl From<PipelineError> for IncrementalError {
    fn from(e: PipelineError) -> IncrementalError {
        IncrementalError::Pipeline(e)
    }
}

/// Everything one [`IncrementalSession::run`] produced.
#[derive(Clone, Debug)]
pub struct IncrementalOutcome {
    /// The spliced whole-circuit run (shared with the engine cache).
    pub run: Arc<PipelineRun>,
    /// Output cones in the graph (= primary outputs).
    pub cones: usize,
    /// Distinct cone content hashes among them (shared hashes execute
    /// once and splice per output).
    pub unique_cones: usize,
    /// Unique cones answered from the cache.
    pub cones_reused: u64,
    /// Unique cones that were (re-)executed.
    pub cones_recomputed: u64,
    /// `true` when the whole merged result was answered from the
    /// `spliced`-scope cache without touching any cone.
    pub spliced_reused: bool,
    /// The differential gate's verdict, when the session verifies.
    pub verdict: Option<differential::Verdict>,
    /// Wall-clock microseconds the splice stage took (kept out of the
    /// run's trace, which is deterministically zeroed).
    pub splice_micros: u64,
}

impl IncrementalOutcome {
    /// Fraction of unique cones that had to be re-executed, in `0..=1`
    /// (0 for a graph with no cones).
    pub fn dirty_fraction(&self) -> f64 {
        if self.unique_cones == 0 {
            0.0
        } else {
            self.cones_recomputed as f64 / self.unique_cones as f64
        }
    }
}

/// A region's cached fan-out summary: internal (non-input) max plus
/// per-input-position fan-out counts, keyed by (cone, pipeline,
/// technology) hash.
type FanoutSummaries = HashMap<(u64, u64, u64), Arc<(u32, Vec<u32>)>>;

/// An editable graph + pipeline configuration bound to an [`Engine`].
/// See the [module docs](self).
#[derive(Debug)]
pub struct IncrementalSession<'e> {
    engine: &'e Engine,
    graph: Mig,
    pipeline: PipelineSpec,
    disabled: BTreeSet<usize>,
    model: Option<CostTable>,
    verify: Option<EquivalencePolicy>,
    last_partition: Option<ConePartition>,
    /// Per-region fan-out summaries — clean regions keep their summary
    /// across edits, so the merged report's max fan-out composes
    /// without scanning the merged arena.
    fanout_cache: FanoutSummaries,
}

impl Engine {
    /// Opens an incremental session on `graph` with `pipeline`; the
    /// session shares this engine's cache tiers and telemetry.
    pub fn incremental(&self, graph: Mig, pipeline: PipelineSpec) -> IncrementalSession<'_> {
        IncrementalSession {
            engine: self,
            graph,
            pipeline,
            disabled: BTreeSet::new(),
            model: None,
            verify: None,
            last_partition: None,
            fanout_cache: HashMap::new(),
        }
    }
}

impl IncrementalSession<'_> {
    /// Prices every run against `model` (equivalent to applying
    /// [`EngineEdit::SwapTechnology`]).
    pub fn with_model(mut self, model: CostTable) -> Self {
        self.model = Some(model);
        self
    }

    /// Gates every [`IncrementalSession::run`] with a differential
    /// equivalence check of the spliced netlist against the current
    /// graph; a diverging splice fails the run with the counterexample.
    pub fn with_verification(mut self, policy: EquivalencePolicy) -> Self {
        self.verify = Some(policy);
        self
    }

    /// The session's current graph.
    pub fn graph(&self) -> &Mig {
        &self.graph
    }

    /// Applies one ECO edit. [`EngineEdit::AddGate`] returns the new
    /// gate's signal (for a follow-up rewire); every other edit returns
    /// `None`.
    ///
    /// # Errors
    ///
    /// [`IncrementalError::InvalidEdit`] when the edit references a
    /// node, output position or pass index that does not exist; the
    /// session is left unchanged.
    pub fn apply(&mut self, edit: EngineEdit) -> Result<Option<Signal>, IncrementalError> {
        match edit {
            EngineEdit::AddGate { a, b, c, output } => {
                for (label, signal) in [("a", a), ("b", b), ("c", c)] {
                    self.check_signal(label, signal)?;
                }
                let gate = self.graph.add_maj(a, b, c);
                if let Some(name) = output {
                    self.graph.add_output(name, gate);
                }
                Ok(Some(gate))
            }
            EngineEdit::RewireOutput { position, signal } => {
                self.check_output(position)?;
                self.check_signal("signal", signal)?;
                self.graph.set_output_signal(position, signal);
                Ok(None)
            }
            EngineEdit::RemoveOutput { position } => {
                self.check_output(position)?;
                self.graph.remove_output(position);
                Ok(None)
            }
            EngineEdit::SwapTechnology { model } => {
                self.model = model;
                Ok(None)
            }
            EngineEdit::TogglePass { index } => {
                if index >= self.pipeline.passes.len() {
                    return Err(IncrementalError::InvalidEdit(format!(
                        "pass index {index} out of range (pipeline has {} passes)",
                        self.pipeline.passes.len()
                    )));
                }
                if !self.disabled.remove(&index) {
                    self.disabled.insert(index);
                }
                Ok(None)
            }
        }
    }

    fn check_signal(&self, label: &str, signal: Signal) -> Result<(), IncrementalError> {
        if signal.node().index() >= self.graph.node_count() {
            return Err(IncrementalError::InvalidEdit(format!(
                "signal `{label}` references node {} but the graph has {} nodes",
                signal.node().index(),
                self.graph.node_count()
            )));
        }
        Ok(())
    }

    fn check_output(&self, position: usize) -> Result<(), IncrementalError> {
        if position >= self.graph.output_count() {
            return Err(IncrementalError::InvalidEdit(format!(
                "output position {position} out of range (graph has {} outputs)",
                self.graph.output_count()
            )));
        }
        Ok(())
    }

    /// The pipeline spec with the currently toggled-off passes removed.
    fn effective_pipeline(&self) -> PipelineSpec {
        let mut spec = self.pipeline.clone();
        if !self.disabled.is_empty() {
            spec.passes = spec
                .passes
                .into_iter()
                .enumerate()
                .filter(|(i, _)| !self.disabled.contains(i))
                .map(|(_, pass)| pass)
                .collect();
        }
        spec
    }

    fn screen_supported(&self, spec: &PipelineSpec) -> Result<(), IncrementalError> {
        if self.graph.output_count() == 0 {
            return Err(IncrementalError::Unsupported(
                "the graph has no outputs, so there are no cones to run".to_owned(),
            ));
        }
        for pass in &spec.passes {
            let offender = match pass {
                PassSpec::RestrictFanoutCostAware => "cost-aware fan-out restriction",
                PassSpec::InsertBuffers(BufferStrategy::Weighted(_)) => "weighted buffer insertion",
                PassSpec::InsertBuffers(BufferStrategy::CostAware) => "cost-aware buffer insertion",
                PassSpec::VerifyWeighted(_) => "weighted balance verification",
                PassSpec::VerifyCostAware { .. } => "cost-aware balance verification",
                _ => continue,
            };
            return Err(IncrementalError::Unsupported(format!(
                "{offender} balances against global targets that per-cone splicing \
                 cannot preserve"
            )));
        }
        Ok(())
    }

    /// Executes the current graph/configuration incrementally: cached
    /// cones splice, dirty cones re-run. See the [module docs](self)
    /// for the exact semantics and the determinism contract.
    ///
    /// # Errors
    ///
    /// [`IncrementalError::Unsupported`] for configurations incremental
    /// execution cannot honor, [`IncrementalError::Pipeline`] for
    /// pipelines that do not compile, [`IncrementalError::ConeFailed`]
    /// when a cone's run fails, and
    /// [`IncrementalError::Diverged`] /
    /// [`IncrementalError::Differential`] from the optional equivalence
    /// gate.
    pub fn run(&mut self) -> Result<IncrementalOutcome, IncrementalError> {
        let spec = self.effective_pipeline();
        self.screen_supported(&spec)?;
        let flow = spec.build()?;
        let pipe_hash = spec.content_hash();
        let tech = self
            .model
            .as_ref()
            .map_or(COST_BLIND, CostTable::content_hash);
        let caching = self.engine.caching_enabled();

        // Cone decomposition. Session edits only ever append arena
        // nodes or retarget outputs, so a previous partition can be
        // refreshed instead of re-analyzed: node hashes extend and
        // clean cones keep their identity without a traversal.
        let partition = match self.last_partition.take() {
            Some(earlier) => earlier.refresh(&self.graph),
            None => ConePartition::analyze(&self.graph),
        };
        let partition = &*self.last_partition.insert(partition);

        // Unique cones, in first-seen output order (deterministic).
        let mut order: Vec<u64> = Vec::new();
        let mut first_output: HashMap<u64, usize> = HashMap::new();
        for cone in partition.cones() {
            first_output.entry(cone.hash).or_insert_with(|| {
                order.push(cone.hash);
                cone.output
            });
        }

        // Whole-graph fast path: an unchanged (graph, pipeline, model)
        // triple is one lookup, no extraction, no splice.
        let whole_key = CacheKey {
            scope: Scope::Spliced,
            circuit: self.graph.content_hash(),
            pipeline: pipe_hash,
            technology: tech,
        };
        if caching {
            if let Some(run) = self.engine.lookup(&whole_key) {
                self.engine.count_cones(order.len() as u64, 0);
                return Ok(IncrementalOutcome {
                    run,
                    cones: partition.len(),
                    unique_cones: order.len(),
                    cones_reused: order.len() as u64,
                    cones_recomputed: 0,
                    spliced_reused: true,
                    verdict: None,
                    splice_micros: 0,
                });
            }
        }

        // Execute the unique cones in parallel; cached cones splice.
        // Each result is (cone hash, run, answered-from-cache).
        type ConeResult = Result<(u64, Arc<PipelineRun>, bool), IncrementalError>;
        let results: Vec<ConeResult> = order
            .par_iter()
            .map(|&hash| {
                let key = CacheKey {
                    scope: Scope::Cone,
                    circuit: hash,
                    pipeline: pipe_hash,
                    technology: tech,
                };
                if caching {
                    if let Some(run) = self.engine.lookup(&key) {
                        return Ok((hash, run, true));
                    }
                }
                let position = first_output[&hash];
                let cone_graph = mig::extract_cone(&self.graph, position);
                match flow.run_with_model(&cone_graph, self.model.as_ref()) {
                    Ok(run) => {
                        if caching {
                            self.engine.count_computed(run.trace.len() as u64);
                        } else {
                            self.engine.count_passes(run.trace.len() as u64);
                        }
                        let run = Arc::new(run);
                        if caching {
                            self.engine.store(key, &run);
                        }
                        Ok((hash, run, false))
                    }
                    Err(error) => Err(IncrementalError::ConeFailed {
                        output: position,
                        name: partition.cones()[position].name.clone(),
                        error,
                    }),
                }
            })
            .collect();

        let mut by_hash: HashMap<u64, Arc<PipelineRun>> = HashMap::new();
        let (mut reused, mut recomputed) = (0u64, 0u64);
        for result in results {
            let (hash, run, was_cached) = result?;
            if was_cached {
                reused += 1;
            } else {
                recomputed += 1;
            }
            by_hash.insert(hash, run);
        }
        self.engine.count_cones(reused, recomputed);

        // Splice the per-cone runs into one whole-circuit run.
        let splice_start = Instant::now();
        let regions: Vec<&PipelineRun> = partition
            .cones()
            .iter()
            .map(|cone| by_hash[&cone.hash].as_ref())
            .collect();

        // Merged max fan-out from per-region summaries (only needed
        // when the runs carry balance reports): region-internal fan-out
        // carries over verbatim and only shared inputs concentrate, so
        // the fold is exact and clean regions reuse their cached
        // summary instead of rescanning.
        let mut max_fanout = 0u32;
        if regions.iter().all(|r| r.result.report.is_some()) {
            let mut input_totals: HashMap<&str, u32> = HashMap::new();
            for cone in partition.cones() {
                let run = &by_hash[&cone.hash];
                let summary = self
                    .fanout_cache
                    .entry((cone.hash, pipe_hash, tech))
                    .or_insert_with(|| Arc::new(run.result.pipelined.fanout_summary()))
                    .clone();
                max_fanout = max_fanout.max(summary.0);
                for (p, &count) in summary.1.iter().enumerate() {
                    *input_totals
                        .entry(run.result.pipelined.input_name(p))
                        .or_insert(0) += count;
                }
            }
            max_fanout = max_fanout.max(input_totals.values().copied().max().unwrap_or(0));
            if self.fanout_cache.len() > 4 * partition.len() + 64 {
                let live: std::collections::HashSet<_> = partition
                    .cones()
                    .iter()
                    .map(|c| (c.hash, pipe_hash, tech))
                    .collect();
                self.fanout_cache.retain(|k, _| live.contains(k));
            }
        }

        let merged = splice_runs(&self.graph, &regions, self.model.as_ref(), max_fanout);
        let splice_micros = splice_start.elapsed().as_micros() as u64;

        let verdict = match &self.verify {
            Some(policy) => {
                match differential::check(&merged.result.pipelined, &self.graph, policy) {
                    Ok(differential::Verdict::Diverged(cex)) => {
                        return Err(IncrementalError::Diverged(cex))
                    }
                    Ok(verdict) => Some(verdict),
                    Err(e) => return Err(IncrementalError::Differential(e)),
                }
            }
            None => None,
        };

        let run = Arc::new(merged);
        if caching {
            self.engine.store(whole_key, &run);
        }
        Ok(IncrementalOutcome {
            run,
            cones: partition.len(),
            unique_cones: order.len(),
            cones_reused: reused,
            cones_recomputed: recomputed,
            spliced_reused: false,
            verdict,
            splice_micros,
        })
    }
}

fn add_counts(into: &mut KindCounts, counts: &KindCounts) {
    into.inputs += counts.inputs;
    into.consts += counts.consts;
    into.maj += counts.maj;
    into.inv += counts.inv;
    into.buf += counts.buf;
    into.fog += counts.fog;
}

/// Instantiates each region netlist (one per output, in output order)
/// into a single netlist over the graph's full input interface,
/// optionally padding every non-constant output driver to the common
/// depth. Returns the merged netlist and the number of padding buffers
/// added.
///
/// Region fan-ins may point forward (the flow's transform passes append
/// rewired components), so gates are assigned their merged indices
/// before any of them is added.
fn splice_netlists(
    graph: &Mig,
    parts: &[&Netlist],
    pad: Option<(&[u32], u32)>,
) -> (Netlist, usize) {
    let mut out = Netlist::new(graph.name());
    out.reserve(parts.iter().map(|p| p.len()).sum());
    let mut input_ids: HashMap<&str, CompId> = HashMap::new();
    for position in 0..graph.input_count() {
        let name = graph.input_name(position);
        input_ids.insert(name, out.add_input(name));
    }

    let mut padding = 0usize;
    let mut imap: Vec<CompId> = Vec::new();
    for (position, part) in parts.iter().enumerate() {
        imap.clear();
        imap.extend((0..part.inputs().len()).map(|p| input_ids[part.input_name(p)]));
        let mut driver = out.splice_region(part, &imap);
        if let Some((depths, common)) = pad {
            // Constants are excluded from balancing (available at every
            // level), so constant-driven outputs take no padding.
            if out.component(driver).kind() != ComponentKind::Const {
                for _ in depths[position]..common {
                    driver = out.add_buf(driver);
                    padding += 1;
                }
            }
        }
        out.add_output(graph.outputs()[position].name.clone(), driver);
    }
    (out, padding)
}

/// Merges per-cone pipeline runs into one whole-circuit [`PipelineRun`]
/// (see the [module docs](self) for the splice semantics). All
/// wall-clock fields in the merged trace are zero: the merged run is a
/// deterministic function of its region runs, so warm and cold
/// incremental runs serialize bit-identically.
fn splice_runs(
    graph: &Mig,
    regions: &[&PipelineRun],
    model: Option<&CostTable>,
    max_fanout: u32,
) -> PipelineRun {
    let outputs = regions.len();

    // Padding target: every region balanced its own cone to
    // `buffers.depth`; the splice pads each output driver to the
    // deepest region. Without buffer insertion there is no balance to
    // extend, so no padding (and no synthesized report).
    let depths: Option<Vec<u32>> = regions
        .iter()
        .map(|r| r.result.buffers.as_ref().map(|b| b.depth))
        .collect();
    let common_depth = depths
        .as_ref()
        .map(|d| d.iter().copied().max().unwrap_or(0));

    let (original, _) = splice_netlists(
        graph,
        &regions
            .iter()
            .map(|r| &r.result.original)
            .collect::<Vec<_>>(),
        None,
    );
    let (pipelined, pad_buffers) = splice_netlists(
        graph,
        &regions
            .iter()
            .map(|r| &r.result.pipelined)
            .collect::<Vec<_>>(),
        depths
            .as_ref()
            .zip(common_depth)
            .map(|(d, common)| (d.as_slice(), common)),
    );

    // Re-aggregate the instrumentation trace pass-by-pass: counts sum
    // over region instances, depths take the max, priced state is
    // re-priced from the aggregates (latency is a max, not a sum), and
    // wall-clock micros are zeroed for determinism.
    let passes = regions.first().map_or(0, |r| r.trace.len());
    let mut trace: Vec<PassStats> = (0..passes)
        .map(|i| {
            let mut counts_before = KindCounts::default();
            let mut counts_after = KindCounts::default();
            let mut added = KindCounts::default();
            let (mut depth_before, mut depth_after) = (0u32, 0u32);
            for region in regions {
                let stats = &region.trace[i];
                add_counts(&mut counts_before, &stats.counts_before);
                add_counts(&mut counts_after, &stats.counts_after);
                add_counts(&mut added, &stats.added);
                depth_before = depth_before.max(stats.depth_before);
                depth_after = depth_after.max(stats.depth_after);
            }
            PassStats {
                pass: regions[0].trace[i].pass.clone(),
                micros: 0,
                priced: model.map(|table| PricedDelta {
                    model: table.name().to_owned(),
                    before: table.price(&counts_before, outputs, depth_before),
                    after: table.price(&counts_after, outputs, depth_after),
                }),
                counts_before,
                counts_after,
                added,
                depth_before,
                depth_after,
            }
        })
        .collect();

    // The splice itself gets a synthetic trace record: region sums in,
    // merged netlist out (shared inputs/constants deduplicate, padding
    // buffers add).
    let mut region_counts = KindCounts::default();
    for region in regions {
        add_counts(&mut region_counts, &region.result.pipelined.counts());
    }
    let merged_counts = pipelined.counts();
    let region_depth = regions
        .iter()
        .flat_map(|r| r.trace.last().map(|s| s.depth_after))
        .max()
        .unwrap_or(0);
    let splice_depth = common_depth.unwrap_or(region_depth);
    trace.push(PassStats {
        pass: SPLICE_PASS.to_owned(),
        micros: 0,
        added: merged_counts.added_since(&region_counts),
        priced: model.map(|table| PricedDelta {
            model: table.name().to_owned(),
            before: table.price(&region_counts, outputs, region_depth),
            after: table.price(&merged_counts, outputs, splice_depth),
        }),
        counts_before: region_counts,
        counts_after: merged_counts,
        depth_before: region_depth,
        depth_after: splice_depth,
    });

    let fanout: Option<FanoutRestriction> = regions
        .iter()
        .map(|r| r.result.fanout.as_ref())
        .collect::<Option<Vec<_>>>()
        .map(|all| FanoutRestriction {
            limit: all[0].limit,
            fogs_inserted: all.iter().map(|s| s.fogs_inserted).sum(),
            components_split: all.iter().map(|s| s.components_split).sum(),
            delayed_consumers: all.iter().map(|s| s.delayed_consumers).sum(),
            depth_before: all.iter().map(|s| s.depth_before).max().unwrap_or(0),
            depth_after: all.iter().map(|s| s.depth_after).max().unwrap_or(0),
        });
    let buffers: Option<BufferInsertion> = regions
        .iter()
        .map(|r| r.result.buffers.as_ref())
        .collect::<Option<Vec<_>>>()
        .map(|all| BufferInsertion {
            balancing_buffers: all.iter().map(|s| s.balancing_buffers).sum(),
            padding_buffers: all.iter().map(|s| s.padding_buffers).sum::<usize>() + pad_buffers,
            depth: common_depth.unwrap_or(0),
        });
    // A report needs the common balanced depth, which only exists when
    // buffer insertion ran; max fan-out is measured on the merged
    // netlist (shared inputs concentrate fan-out the regions never saw).
    let report: Option<BalanceReport> = match (
        common_depth,
        regions.iter().all(|r| r.result.report.is_some()),
    ) {
        (Some(depth), true) => {
            debug_assert_eq!(
                max_fanout,
                pipelined.max_fanout(),
                "composed max fan-out must match a merged-arena scan"
            );
            Some(BalanceReport {
                depth,
                waves_in_flight: depth.div_ceil(3),
                max_fanout,
            })
        }
        _ => None,
    };

    PipelineRun {
        result: FlowResult {
            original,
            pipelined,
            fanout,
            buffers,
            report,
        },
        weighted: None,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_balance;

    fn flat_table() -> CostTable {
        struct Flat;
        impl crate::cost::CostModel for Flat {
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
        CostTable::from_model(&Flat)
    }

    fn pipeline() -> PipelineSpec {
        PipelineSpec::map(false)
            .restrict_fanout(3)
            .insert_buffers(BufferStrategy::Asap)
            .verify(Some(3))
    }

    /// Four inputs, three structurally distinct output cones.
    fn three_cone_graph() -> Mig {
        let mut g = Mig::with_name("eco");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let d = g.add_input("d");
        let m1 = g.add_maj(a, b, c);
        let m2 = g.add_maj(b, c, d);
        let m3 = g.add_maj(a, !c, d);
        let top = g.add_maj(m1, m2, !m3);
        g.add_output("o1", m1);
        g.add_output("o2", m2);
        g.add_output("o3", top);
        g
    }

    fn sample(seed: u64) -> Mig {
        mig::random_mig(mig::RandomMigConfig {
            inputs: 8,
            outputs: 6,
            gates: 150,
            depth: 9,
            seed,
        })
    }

    #[test]
    fn spliced_run_is_equivalent_balanced_and_verified() {
        let engine = Engine::new();
        let mut session = engine
            .incremental(sample(3), pipeline())
            .with_verification(EquivalencePolicy::default());
        let outcome = session.run().unwrap();
        assert_eq!(outcome.cones, 6);
        assert!(matches!(
            outcome.verdict,
            Some(differential::Verdict::Equivalent { .. })
        ));
        // The splice preserves the balance invariant (fan-out bounds do
        // not survive input sharing, so no limit here) and its
        // synthesized report matches a mechanical re-verification.
        let run = &outcome.run;
        let measured = verify_balance(&run.result.pipelined, None).unwrap();
        let synthesized = run.result.report.as_ref().unwrap();
        assert_eq!(synthesized, &measured);
        // The trace covers every pass plus the splice record, all
        // wall-clock-free.
        let names: Vec<&str> = run.trace.iter().map(|s| s.pass.as_str()).collect();
        assert_eq!(names.last(), Some(&SPLICE_PASS));
        assert_eq!(run.trace.len(), 5);
        assert!(run.trace.iter().all(|s| s.micros == 0));
    }

    #[test]
    fn warm_rerun_is_one_spliced_lookup_and_bit_identical() {
        let engine = Engine::new();
        let mut session = engine.incremental(sample(4), pipeline());
        let cold = session.run().unwrap();
        assert_eq!(cold.cones_reused, 0);
        assert!(!cold.spliced_reused);

        let before = engine.stats();
        let warm = session.run().unwrap();
        let delta = engine.stats().since(&before);
        assert!(warm.spliced_reused);
        assert_eq!(delta.passes_executed, 0);
        assert_eq!(warm.cones_recomputed, 0);
        assert_eq!(
            crate::persist::run_to_json(&cold.run),
            crate::persist::run_to_json(&warm.run),
            "warm splice is bit-identical to the cold run"
        );
    }

    #[test]
    fn rewiring_one_output_recomputes_only_its_cone() {
        let engine = Engine::new();
        let mut session = engine.incremental(three_cone_graph(), pipeline());
        let cold = session.run().unwrap();
        assert_eq!((cold.cones, cold.unique_cones), (3, 3));
        assert_eq!(cold.cones_recomputed, 3);

        // Add a dead gate and point output 0 at it.
        let gate = session
            .apply(EngineEdit::AddGate {
                a: Signal::new(mig::NodeId::from_index(1), false),
                b: Signal::new(mig::NodeId::from_index(2), true),
                c: Signal::new(mig::NodeId::from_index(4), false),
                output: None,
            })
            .unwrap()
            .unwrap();
        session
            .apply(EngineEdit::RewireOutput {
                position: 0,
                signal: gate,
            })
            .unwrap();
        let warm = session.run().unwrap();
        assert_eq!(warm.cones_recomputed, 1, "only the rewired cone re-ran");
        assert_eq!(warm.cones_reused, 2);
        assert!(!warm.spliced_reused);

        // The incremental result is bit-identical to a cold engine
        // running the same edited graph from scratch.
        let fresh = Engine::new();
        let reference = fresh
            .incremental(session.graph().clone(), pipeline())
            .run()
            .unwrap();
        assert_eq!(
            crate::persist::run_to_json(&warm.run),
            crate::persist::run_to_json(&reference.run)
        );
    }

    #[test]
    fn dead_logic_and_removed_outputs_keep_cones_clean() {
        let engine = Engine::new();
        let mut session = engine.incremental(three_cone_graph(), pipeline());
        session.run().unwrap();

        // A dead gate changes the graph hash (no spliced reuse) but
        // dirties no cone.
        session
            .apply(EngineEdit::AddGate {
                a: Signal::new(mig::NodeId::from_index(1), false),
                b: Signal::new(mig::NodeId::from_index(2), true),
                c: Signal::new(mig::NodeId::from_index(3), false),
                output: None,
            })
            .unwrap();
        let after_dead = session.run().unwrap();
        assert!(!after_dead.spliced_reused);
        assert_eq!(after_dead.cones_recomputed, 0);

        // Dropping an output re-splices the surviving cones from cache.
        session
            .apply(EngineEdit::RemoveOutput { position: 1 })
            .unwrap();
        let after_remove = session.run().unwrap();
        assert_eq!(after_remove.cones, 2);
        assert_eq!(after_remove.cones_recomputed, 0);
        assert_eq!(
            after_remove.run.result.pipelined.outputs().len(),
            2,
            "merged netlist tracks the edited interface"
        );
    }

    #[test]
    fn toggling_a_pass_and_swapping_technology_rekey_the_cache() {
        let engine = Engine::new();
        let mut session = engine.incremental(three_cone_graph(), pipeline());
        let cold = session.run().unwrap();
        assert_eq!(cold.run.trace.len(), 5);

        // Toggle the verify pass (index 2) off: different pipeline key,
        // shorter trace.
        session.apply(EngineEdit::TogglePass { index: 2 }).unwrap();
        let unverified = session.run().unwrap();
        assert_eq!(unverified.cones_recomputed, 3, "new pipeline key");
        assert_eq!(unverified.run.trace.len(), 4);
        assert!(unverified.run.result.report.is_none());

        // Toggle it back on: the original spliced result replays.
        session.apply(EngineEdit::TogglePass { index: 2 }).unwrap();
        let back = session.run().unwrap();
        assert!(back.spliced_reused);

        // A technology swap re-prices every cone under a new key.
        let table = flat_table();
        session
            .apply(EngineEdit::SwapTechnology {
                model: Some(table.clone()),
            })
            .unwrap();
        let priced = session.run().unwrap();
        assert_eq!(priced.cones_recomputed, 3);
        assert!(priced.run.trace.iter().all(|s| s.priced.is_some()));
        let delta = priced.run.trace.last().unwrap().priced.as_ref().unwrap();
        assert_eq!(delta.model, table.name());
    }

    #[test]
    fn unsupported_configurations_and_invalid_edits_are_rejected() {
        let engine = Engine::new();
        let weighted = PipelineSpec::map(false)
            .restrict_fanout(3)
            .insert_buffers(BufferStrategy::CostAware);
        let err = engine
            .incremental(three_cone_graph(), weighted)
            .with_model(flat_table())
            .run()
            .unwrap_err();
        assert!(matches!(err, IncrementalError::Unsupported(_)));

        let no_outputs = Mig::with_name("empty");
        let err = engine
            .incremental(no_outputs, pipeline())
            .run()
            .unwrap_err();
        assert!(matches!(err, IncrementalError::Unsupported(_)));

        let mut session = engine.incremental(three_cone_graph(), pipeline());
        for bad in [
            EngineEdit::RewireOutput {
                position: 99,
                signal: Signal::ZERO,
            },
            EngineEdit::RemoveOutput { position: 99 },
            EngineEdit::TogglePass { index: 99 },
            EngineEdit::AddGate {
                a: Signal::new(mig::NodeId::from_index(999), false),
                b: Signal::ZERO,
                c: Signal::ZERO,
                output: None,
            },
        ] {
            assert!(matches!(
                session.apply(bad),
                Err(IncrementalError::InvalidEdit(_))
            ));
        }
        // Rejected edits leave the session runnable.
        session.run().unwrap();
    }

    #[test]
    fn incremental_runs_share_the_disk_tier_across_engines() {
        let dir = std::env::temp_dir().join(format!("wavepipe-incr-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = three_cone_graph();

        let first = Engine::new().with_disk_cache(&dir);
        let cold = first.incremental(g.clone(), pipeline()).run().unwrap();
        assert_eq!(cold.cones_recomputed, 3);

        // A fresh engine on the same root splices everything from disk
        // — the whole-graph entry answers before any cone is touched.
        let second = Engine::new().with_disk_cache(&dir);
        let warm = second.incremental(g, pipeline()).run().unwrap();
        assert!(warm.spliced_reused);
        assert_eq!(second.stats().passes_executed, 0);
        assert_eq!(second.stats().disk_hits, 1);
        assert_eq!(
            crate::persist::run_to_json(&cold.run),
            crate::persist::run_to_json(&warm.run)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
