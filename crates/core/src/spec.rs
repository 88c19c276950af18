//! Declarative, serializable experiment descriptions.
//!
//! A [`FlowSpec`] is the engine-facade entry point of the whole flow:
//! it *names* — as plain data that round-trips through JSON — the
//! pipeline to run ([`PipelineSpec`]: pass list, [`BufferStrategy`],
//! cost-aware toggles), the technologies to price under (as
//! [`CostTable`]s), and the circuits to run on ([`CircuitSpec`]: a
//! `benchsuite` registry name resolved by the engine's resolver, an
//! inline netlist in the `mig` text format, or a seeded synthetic
//! generator request — a [`SynthSpec`]). [`crate::Engine::run`]
//! validates a spec, compiles it into a [`FlowPipeline`] and sweeps the
//! circuit × technology grid with content-hash keyed caching.
//!
//! Because a spec is data, an experiment is a checked-in JSON file
//! instead of a hand-assembled builder chain:
//!
//! ```
//! use wavepipe::{FlowConfig, FlowSpec, PipelineSpec};
//!
//! let spec = FlowSpec::new("fo3-buf")
//!     .with_pipeline(PipelineSpec::for_config(FlowConfig::default()))
//!     .circuit("SASC")
//!     .circuit("HAMMING");
//! let json = spec.to_json();
//! let back = FlowSpec::from_json(&json).expect("round-trips");
//! assert_eq!(spec, back);
//! assert_eq!(spec.content_hash(), back.content_hash());
//! ```

use std::fmt;

use mig::EquivalencePolicy;
use serde::{object, DeError, Deserialize, Serialize, Value};

use crate::cost::CostTable;
use crate::flow::FlowConfig;
use crate::fnv::Fnv;
use crate::pipeline::{BufferStrategy, FlowPipeline, PipelineError};
use crate::weighted::DelayWeights;

/// Why a [`FlowSpec`] was rejected before (or while) resolving.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// The spec selects no circuits — the grid would be empty.
    EmptyCircuits,
    /// Two circuit entries share a name; results are keyed by name, so
    /// the duplicate would be unaddressable.
    DuplicateCircuit(String),
    /// A named circuit is not in the engine's registry.
    UnknownCircuit(String),
    /// The spec names registry circuits but the engine has no resolver.
    NoResolver(String),
    /// An inline circuit failed to parse as `mig` text.
    InlineCircuit {
        /// The circuit entry's name.
        name: String,
        /// The parse failure.
        error: String,
    },
    /// A synthetic circuit request is malformed (bad family or
    /// parameter identifier) — caught before the resolver ever sees it.
    Synthetic {
        /// The canonical `synth:*` name of the offending entry.
        name: String,
        /// What is wrong with it.
        reason: String,
    },
    /// A fan-out restriction limit is outside the paper's §IV range.
    FanoutLimitOutOfRange(u32),
    /// A weighted pass's delay weights are unusable: a zero buffer
    /// weight cannot fill any gap, and a weight above
    /// [`MAX_DELAY_WEIGHT`] overflows arrival times or makes balancing
    /// insert millions of buffers.
    DelayWeightsOutOfRange(DelayWeights),
    /// The pipeline uses a cost-aware pass but the spec targets no
    /// technology, so there is no cost model to consult.
    CostAwareWithoutTechnology,
    /// The equivalence gate's exhaustive ceiling is beyond what a block
    /// sweep can realistically cover (cost doubles per input).
    EquivalenceCeilingTooHigh(u32),
    /// The equivalence gate has zero sampling rounds: any circuit above
    /// the exhaustive ceiling would "pass" after comparing zero
    /// patterns — a self-verifying sweep that verifies nothing.
    EquivalenceGateZeroRounds,
    /// The JSON text could not be parsed into a spec.
    Json(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::EmptyCircuits => write!(f, "spec selects no circuits"),
            SpecError::DuplicateCircuit(name) => {
                write!(f, "circuit `{name}` is selected more than once")
            }
            SpecError::UnknownCircuit(name) => {
                write!(f, "circuit `{name}` is not in the engine's registry")
            }
            SpecError::NoResolver(name) => write!(
                f,
                "circuit `{name}` is a registry name but the engine has no resolver"
            ),
            SpecError::InlineCircuit { name, error } => {
                write!(f, "inline circuit `{name}` does not parse: {error}")
            }
            SpecError::Synthetic { name, reason } => {
                write!(f, "synthetic circuit `{name}` is malformed: {reason}")
            }
            SpecError::FanoutLimitOutOfRange(limit) => write!(
                f,
                "fan-out limit {limit} is outside the feasible range 2..=5 (§IV)"
            ),
            SpecError::DelayWeightsOutOfRange(w) => write!(
                f,
                "delay weights (inv {}, maj {}, buf {}, fog {}) are out of range: buf must be \
                 at least 1 and every weight at most {MAX_DELAY_WEIGHT}",
                w.inv, w.maj, w.buf, w.fog
            ),
            SpecError::CostAwareWithoutTechnology => write!(
                f,
                "pipeline uses a cost-aware pass but the spec targets no technology"
            ),
            SpecError::EquivalenceCeilingTooHigh(inputs) => write!(
                f,
                "equivalence gate's exhaustive ceiling of {inputs} inputs is beyond the \
                 practical limit of {MAX_EXHAUSTIVE_GATE_INPUTS} (cost doubles per input)"
            ),
            SpecError::EquivalenceGateZeroRounds => write!(
                f,
                "equivalence gate has zero sampling rounds: circuits above the exhaustive \
                 ceiling would pass after comparing zero patterns"
            ),
            SpecError::Json(e) => write!(f, "spec JSON does not parse: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// One declaratively-named pass of a [`PipelineSpec`] — the data form
/// of the [`crate::FlowPipelineBuilder`] methods (the mapping pass is
/// implicit: it slots in right after any leading MIG rewrite passes,
/// which is also why the spec layer cannot express the builder's
/// `MapNotFirst` / `DuplicateMap` mistakes — though a rewrite listed
/// *after* a netlist pass still fails compilation with
/// [`PipelineError::RewriteAfterMap`]).
///
/// Serialized as `{"pass": "restrict_fanout", "limit": 3}`: the snake
/// case pass name, then the variant's fields.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "pass", rename_all = "snake_case")]
pub enum PassSpec {
    /// Depth-oriented MIG rewrite (Ω.A/Ω.D, `mig::optimize_depth`);
    /// must precede every netlist pass.
    OptimizeDepth {
        /// Bound on full-graph rewrite rounds.
        max_rounds: usize,
    },
    /// Size-oriented MIG rewrite (Ω.D collapse, `mig::optimize_size`);
    /// must precede every netlist pass.
    OptimizeSize {
        /// Bound on full-graph collapse rounds.
        max_rounds: usize,
    },
    /// Cost-aware MIG rewrite: runs both objectives, keeps the one
    /// minimizing projected priced area × cycle-time under the run's
    /// cost model.
    OptimizeCostAware {
        /// Bound on rewrite rounds per objective.
        max_rounds: usize,
    },
    /// Fan-out restriction with the §IV limit `k ∈ 2..=5`.
    RestrictFanout {
        /// The fan-out limit.
        limit: u32,
    },
    /// Cost-aware fan-out restriction: picks `k` by projected priced
    /// area under the run's cost model.
    RestrictFanoutCostAware,
    /// Buffer insertion with the chosen strategy.
    #[serde(field = "strategy")]
    InsertBuffers(BufferStrategy),
    /// Unit-delay balance verification (plus the fan-out bound when
    /// given).
    Verify {
        /// Fan-out bound to enforce alongside balance, if any.
        fanout_limit: Option<u32>,
    },
    /// Weighted-delay balance verification.
    #[serde(field = "weights")]
    VerifyWeighted(DelayWeights),
    /// Cost-aware balance verification against the run's cost model.
    VerifyCostAware {
        /// Fan-out bound to enforce alongside balance, if any.
        fanout_limit: Option<u32>,
    },
    /// Fan-out bound check without balance verification.
    CheckFanoutBound {
        /// The fan-out limit.
        limit: u32,
    },
}

impl PassSpec {
    /// `true` for passes that consult the run's cost model.
    fn is_cost_aware(&self) -> bool {
        matches!(
            self,
            PassSpec::RestrictFanoutCostAware
                | PassSpec::InsertBuffers(BufferStrategy::CostAware)
                | PassSpec::VerifyCostAware { .. }
                | PassSpec::OptimizeCostAware { .. }
        )
    }

    /// `true` for MIG rewrite passes, which run before mapping.
    fn is_rewrite(&self) -> bool {
        matches!(
            self,
            PassSpec::OptimizeDepth { .. }
                | PassSpec::OptimizeSize { .. }
                | PassSpec::OptimizeCostAware { .. }
        )
    }
}

/// The declarative pipeline of a [`FlowSpec`]: the implicit mapping
/// pass (flavored by `minimize_inverters`) followed by a pass list.
///
/// Compiles into an ordering-validated [`FlowPipeline`] via
/// [`PipelineSpec::build`]; two specs that compile to the same passes
/// share a [`PipelineSpec::content_hash`], which is the pipeline axis
/// of the engine's cache key.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PipelineSpec {
    /// Map with inversion-count minimization instead of the reference
    /// mapping.
    pub minimize_inverters: bool,
    /// The passes after mapping, in execution order.
    pub passes: Vec<PassSpec>,
    /// Opt-in per-pass equivalence gating: when set, every pass
    /// boundary differentially re-checks the working netlist against
    /// the source MIG under this policy (see
    /// [`crate::differential::check`]); a pass that breaks the function
    /// fails the run with a counterexample naming it. Omitted from the
    /// JSON when off, so ungated specs keep their content hashes.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub equivalence_gate: Option<EquivalencePolicy>,
}

/// Largest per-kind delay weight, in clock phases, that
/// [`PipelineSpec::validate`] accepts. Table I's largest weight is QCA's
/// inverter at 7; the bound keeps weighted arrivals, and the buffers
/// balancing inserts, within a small multiple of the unit-delay flow's.
pub const MAX_DELAY_WEIGHT: u32 = 16;

/// Largest exhaustive ceiling [`FlowSpec::validate`] accepts for the
/// equivalence gate — 2^24 patterns per pass boundary is already ~256k
/// block evaluations.
pub const MAX_EXHAUSTIVE_GATE_INPUTS: u32 = 24;

impl Default for PipelineSpec {
    /// The paper's default flow: FO3 + BUF + verify.
    fn default() -> PipelineSpec {
        PipelineSpec::for_config(FlowConfig::default())
    }
}

impl PipelineSpec {
    /// Starts an empty pipeline (just the mapping pass).
    pub fn map(minimize_inverters: bool) -> PipelineSpec {
        PipelineSpec {
            minimize_inverters,
            passes: Vec::new(),
            equivalence_gate: None,
        }
    }

    /// The declarative form of the default pipeline for a
    /// [`FlowConfig`] — the exact pass sequence the legacy `run_flow`
    /// hardcoded.
    pub fn for_config(config: FlowConfig) -> PipelineSpec {
        let mut spec = PipelineSpec::map(config.minimize_inverters);
        if let Some(limit) = config.fanout_limit {
            spec = spec.restrict_fanout(limit);
        }
        if config.insert_buffers {
            spec = spec
                .insert_buffers(BufferStrategy::Asap)
                .verify(config.fanout_limit);
        } else if let Some(limit) = config.fanout_limit {
            spec = spec.check_fanout_bound(limit);
        }
        spec
    }

    /// Appends a depth-oriented MIG rewrite pass. Rewrite passes must
    /// lead the pass list — [`PipelineSpec::build`] slots the mapping
    /// pass in after the leading rewrites, so a rewrite listed after
    /// any netlist pass fails compilation with
    /// [`PipelineError::RewriteAfterMap`].
    pub fn optimize_depth(mut self, max_rounds: usize) -> PipelineSpec {
        self.passes.push(PassSpec::OptimizeDepth { max_rounds });
        self
    }

    /// Appends a size-oriented MIG rewrite pass (same ordering rule as
    /// [`PipelineSpec::optimize_depth`]).
    pub fn optimize_size(mut self, max_rounds: usize) -> PipelineSpec {
        self.passes.push(PassSpec::OptimizeSize { max_rounds });
        self
    }

    /// Appends a cost-aware MIG rewrite pass (same ordering rule as
    /// [`PipelineSpec::optimize_depth`]; requires a cost model on the
    /// run).
    pub fn optimize_cost_aware(mut self, max_rounds: usize) -> PipelineSpec {
        self.passes.push(PassSpec::OptimizeCostAware { max_rounds });
        self
    }

    /// Appends a fan-out restriction pass.
    pub fn restrict_fanout(mut self, limit: u32) -> PipelineSpec {
        self.passes.push(PassSpec::RestrictFanout { limit });
        self
    }

    /// Appends a cost-aware fan-out restriction pass.
    pub fn restrict_fanout_cost_aware(mut self) -> PipelineSpec {
        self.passes.push(PassSpec::RestrictFanoutCostAware);
        self
    }

    /// Appends a buffer-insertion pass.
    pub fn insert_buffers(mut self, strategy: BufferStrategy) -> PipelineSpec {
        self.passes.push(PassSpec::InsertBuffers(strategy));
        self
    }

    /// Appends unit-delay balance verification.
    pub fn verify(mut self, fanout_limit: Option<u32>) -> PipelineSpec {
        self.passes.push(PassSpec::Verify { fanout_limit });
        self
    }

    /// Appends weighted-delay balance verification.
    pub fn verify_weighted(mut self, weights: DelayWeights) -> PipelineSpec {
        self.passes.push(PassSpec::VerifyWeighted(weights));
        self
    }

    /// Appends cost-aware balance verification.
    pub fn verify_cost_aware(mut self, fanout_limit: Option<u32>) -> PipelineSpec {
        self.passes.push(PassSpec::VerifyCostAware { fanout_limit });
        self
    }

    /// Appends a fan-out bound check.
    pub fn check_fanout_bound(mut self, limit: u32) -> PipelineSpec {
        self.passes.push(PassSpec::CheckFanoutBound { limit });
        self
    }

    /// Turns on per-pass equivalence gating under `policy` (see the
    /// [`PipelineSpec::equivalence_gate`] field).
    pub fn gate_equivalence(mut self, policy: EquivalencePolicy) -> PipelineSpec {
        self.equivalence_gate = Some(policy);
        self
    }

    /// `true` if any pass consults the run's cost model.
    pub fn uses_cost_aware_passes(&self) -> bool {
        self.passes.iter().any(PassSpec::is_cost_aware)
    }

    /// Spec-level validation: restriction limits must be in the
    /// feasible §IV range, and a weighted pass needs a buffer weight of
    /// at least 1 and every weight at most [`MAX_DELAY_WEIGHT`] (the
    /// builder cannot know either — it never sees what the numbers
    /// mean).
    ///
    /// # Errors
    ///
    /// [`SpecError::FanoutLimitOutOfRange`],
    /// [`SpecError::DelayWeightsOutOfRange`] or an equivalence-gate
    /// error.
    pub fn validate(&self) -> Result<(), SpecError> {
        for pass in &self.passes {
            match pass {
                PassSpec::RestrictFanout { limit } | PassSpec::CheckFanoutBound { limit }
                    if !(2..=5).contains(limit) =>
                {
                    return Err(SpecError::FanoutLimitOutOfRange(*limit));
                }
                PassSpec::InsertBuffers(BufferStrategy::Weighted(w))
                | PassSpec::VerifyWeighted(w)
                    if w.buf == 0
                        || [w.inv, w.maj, w.buf, w.fog]
                            .iter()
                            .any(|&x| x > MAX_DELAY_WEIGHT) =>
                {
                    return Err(SpecError::DelayWeightsOutOfRange(*w));
                }
                _ => {}
            }
        }
        if let Some(gate) = &self.equivalence_gate {
            if gate.exhaustive_inputs > MAX_EXHAUSTIVE_GATE_INPUTS {
                return Err(SpecError::EquivalenceCeilingTooHigh(gate.exhaustive_inputs));
            }
            // A gate must keep a sampling budget: the gate cannot know
            // circuit sizes at validation time, and with zero rounds any
            // circuit above the exhaustive ceiling would vacuously pass
            // after comparing zero patterns.
            if gate.rounds == 0 {
                return Err(SpecError::EquivalenceGateZeroRounds);
            }
        }
        Ok(())
    }

    /// Compiles the spec into an ordering-validated [`FlowPipeline`].
    ///
    /// # Errors
    ///
    /// The builder's [`PipelineError`] when the pass list is
    /// ill-ordered (e.g. fan-out restriction after buffer insertion).
    pub fn build(&self) -> Result<FlowPipeline, PipelineError> {
        let mut builder = FlowPipeline::builder();
        if let Some(policy) = self.equivalence_gate {
            builder = builder.gate_equivalence(policy);
        }
        // The mapping pass goes right after the leading rewrite prefix;
        // a rewrite listed later stays where the spec put it, so the
        // builder rejects the ordering (`RewriteAfterMap`) instead of
        // this method silently repairing it.
        let map_at = self.passes.iter().take_while(|p| p.is_rewrite()).count();
        for (i, pass) in self.passes.iter().enumerate() {
            if i == map_at {
                builder = builder.map(self.minimize_inverters);
            }
            builder = match pass {
                PassSpec::OptimizeDepth { max_rounds } => builder.optimize_depth(*max_rounds),
                PassSpec::OptimizeSize { max_rounds } => builder.optimize_size(*max_rounds),
                PassSpec::OptimizeCostAware { max_rounds } => {
                    builder.optimize_cost_aware(*max_rounds)
                }
                PassSpec::RestrictFanout { limit } => builder.restrict_fanout(*limit),
                PassSpec::RestrictFanoutCostAware => builder.restrict_fanout_cost_aware(),
                PassSpec::InsertBuffers(strategy) => builder.insert_buffers(*strategy),
                PassSpec::Verify { fanout_limit } => builder.verify(*fanout_limit),
                PassSpec::VerifyWeighted(weights) => builder.verify_weighted(*weights),
                PassSpec::VerifyCostAware { fanout_limit } => {
                    builder.verify_cost_aware(*fanout_limit)
                }
                PassSpec::CheckFanoutBound { limit } => builder.check_fanout_bound(*limit),
            };
        }
        if map_at == self.passes.len() {
            builder = builder.map(self.minimize_inverters);
        }
        builder.build()
    }

    /// Stable content hash — the pipeline axis of the engine cache key.
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.write(b"pipeline");
        hash_value(&self.to_value(), &mut h);
        h.finish()
    }
}

/// A parameterized request for a *generated* circuit: a family name, a
/// seed and a (canonically sorted) list of `key = value` parameters.
///
/// A synthetic spec is pure data — the generator itself lives with the
/// circuit registry (the `benchsuite` crate's `synth` module, for the
/// stock resolver). The engine resolves the spec by formatting its
/// [`canonical name`](SynthSpec::name) (`synth:family:seed:k=v,…`) and
/// handing that to its circuit resolver, exactly like a
/// [`CircuitSpec::Named`] entry; the generated graph then participates
/// in the engine's content-hash cache key like any other circuit, so
/// the determinism contract (same `(family, seed, params)` → bit-identical
/// netlist → identical cache key) holds across runs and processes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SynthSpec {
    /// Generator family name (lowercase `[a-z0-9_]`).
    pub family: String,
    /// RNG seed — the determinism axis.
    pub seed: u64,
    /// `key = value` parameters, kept sorted by key (canonical order).
    pub params: Vec<(String, u64)>,
}

/// `true` for identifiers the `synth:` name grammar can round-trip
/// (lowercase alphanumerics and underscores).
fn is_synth_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

impl SynthSpec {
    /// Starts a parameterless request for `family` with `seed`.
    pub fn new(family: impl Into<String>, seed: u64) -> SynthSpec {
        SynthSpec {
            family: family.into(),
            seed,
            params: Vec::new(),
        }
    }

    /// Sets one parameter, keeping the list sorted (re-setting a key
    /// replaces its value, so the canonical form stays canonical).
    pub fn param(mut self, key: impl Into<String>, value: u64) -> SynthSpec {
        let key = key.into();
        match self.params.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => self.params[i].1 = value,
            Err(i) => self.params.insert(i, (key, value)),
        }
        self
    }

    /// The canonical registry name: `synth:family:seed` with a trailing
    /// `:k=v,k=v` segment when parameters are set. This string is what
    /// the engine's resolver receives, and what `benchsuite::build_mig`
    /// parses back.
    pub fn name(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("synth:{}:{}", self.family, self.seed);
        for (i, (key, value)) in self.params.iter().enumerate() {
            out.push(if i == 0 { ':' } else { ',' });
            let _ = write!(out, "{key}={value}");
        }
        out
    }

    /// Structural validation: family and parameter keys must be
    /// round-trippable identifiers, keys unique and in canonical order.
    ///
    /// # Errors
    ///
    /// [`SpecError::Synthetic`].
    pub fn validate(&self) -> Result<(), SpecError> {
        let reject = |reason: String| {
            Err(SpecError::Synthetic {
                name: self.name(),
                reason,
            })
        };
        if !is_synth_ident(&self.family) {
            return reject(format!(
                "family `{}` is not a lowercase identifier",
                self.family
            ));
        }
        for (i, (key, _)) in self.params.iter().enumerate() {
            if !is_synth_ident(key) {
                return reject(format!(
                    "parameter key `{key}` is not a lowercase identifier"
                ));
            }
            if let Some((prev, _)) = i.checked_sub(1).map(|p| &self.params[p]) {
                if *prev >= *key {
                    return reject(format!(
                        "parameter keys must be unique and sorted (`{prev}` before `{key}`)"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// One circuit selection of a [`FlowSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CircuitSpec {
    /// A name the engine's resolver looks up (the `benchsuite`
    /// registry, for the stock resolver).
    Named(String),
    /// An inline netlist in the `mig` text format
    /// ([`mig::write_mig`] / [`mig::parse_mig`]).
    Inline {
        /// Display name of the circuit.
        name: String,
        /// The `mig` text of the graph.
        mig: String,
    },
    /// A seeded synthetic circuit, generated on resolve (see
    /// [`SynthSpec`]).
    Synthetic(SynthSpec),
}

impl CircuitSpec {
    /// Captures an existing graph as an inline circuit.
    pub fn inline(name: impl Into<String>, graph: &mig::Mig) -> CircuitSpec {
        CircuitSpec::Inline {
            name: name.into(),
            mig: mig::write_mig(graph),
        }
    }

    /// The circuit's display name (the canonical `synth:*` name for
    /// synthetic entries).
    pub fn name(&self) -> String {
        match self {
            CircuitSpec::Named(name) | CircuitSpec::Inline { name, .. } => name.clone(),
            CircuitSpec::Synthetic(synth) => synth.name(),
        }
    }
}

/// Engine cache configuration a spec can carry — how a declarative
/// experiment opts into a bounded LRU or the persistent disk tier
/// without code. `None` fields keep the engine defaults; the
/// `WAVEPIPE_CACHE_CAPACITY` / `WAVEPIPE_CACHE_DIR` environment knobs
/// override both (see [`crate::Engine::for_spec`]).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheSpec {
    /// In-memory LRU entry bound; `Some(0)` disables caching.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub capacity: Option<usize>,
    /// Disk-cache root; the literal `default` means the engine's
    /// `results/cache/` default root.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub dir: Option<String>,
}

/// A complete, serializable experiment description: pipeline ×
/// technologies × circuits. See the [module docs](self) for the
/// round-trip guarantee and [`crate::Engine::run`] for execution.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Experiment name (shows up in results and traces).
    pub name: String,
    /// The pipeline to run.
    pub pipeline: PipelineSpec,
    /// The technologies to price under; empty runs cost-blind (one
    /// unpriced cell per circuit).
    pub technologies: Vec<CostTable>,
    /// The circuits to run on.
    pub circuits: Vec<CircuitSpec>,
    /// Cache configuration for [`crate::Engine::for_spec`]; `None`
    /// keeps the engine defaults (and keeps the spec's JSON and content
    /// hash exactly as they were before this field existed).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cache: Option<CacheSpec>,
}

impl FlowSpec {
    /// Starts a spec with the paper's default pipeline, no technologies
    /// and no circuits.
    pub fn new(name: impl Into<String>) -> FlowSpec {
        FlowSpec {
            name: name.into(),
            pipeline: PipelineSpec::default(),
            technologies: Vec::new(),
            circuits: Vec::new(),
            cache: None,
        }
    }

    /// Sets the cache configuration (see [`CacheSpec`]).
    pub fn with_cache(mut self, cache: CacheSpec) -> FlowSpec {
        self.cache = Some(cache);
        self
    }

    /// Replaces the pipeline.
    pub fn with_pipeline(mut self, pipeline: PipelineSpec) -> FlowSpec {
        self.pipeline = pipeline;
        self
    }

    /// Adds a target technology.
    pub fn technology(mut self, table: CostTable) -> FlowSpec {
        self.technologies.push(table);
        self
    }

    /// Adds a registry-named circuit.
    pub fn circuit(mut self, name: impl Into<String>) -> FlowSpec {
        self.circuits.push(CircuitSpec::Named(name.into()));
        self
    }

    /// Adds an inline circuit captured from an existing graph.
    pub fn inline_circuit(mut self, name: impl Into<String>, graph: &mig::Mig) -> FlowSpec {
        self.circuits.push(CircuitSpec::inline(name, graph));
        self
    }

    /// Adds a seeded synthetic circuit (resolved by the engine's
    /// registry under its canonical `synth:*` name).
    pub fn synthetic_circuit(mut self, synth: SynthSpec) -> FlowSpec {
        self.circuits.push(CircuitSpec::Synthetic(synth));
        self
    }

    /// Turns on per-pass equivalence gating for this spec's pipeline:
    /// every cell of the sweep differentially re-checks its netlist
    /// against the source MIG after each pass, so the whole experiment
    /// self-verifies (see [`PipelineSpec::gate_equivalence`]).
    pub fn with_equivalence_gating(mut self, policy: EquivalencePolicy) -> FlowSpec {
        self.pipeline.equivalence_gate = Some(policy);
        self
    }

    /// Structural validation, before any circuit is resolved or any
    /// pass runs. The engine calls this first on every run.
    ///
    /// # Errors
    ///
    /// [`SpecError::EmptyCircuits`], [`SpecError::DuplicateCircuit`],
    /// [`SpecError::Synthetic`], [`SpecError::FanoutLimitOutOfRange`]
    /// or [`SpecError::CostAwareWithoutTechnology`].
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.circuits.is_empty() {
            return Err(SpecError::EmptyCircuits);
        }
        let mut seen = std::collections::HashSet::with_capacity(self.circuits.len());
        for circuit in &self.circuits {
            if let CircuitSpec::Synthetic(synth) = circuit {
                synth.validate()?;
            }
            let name = circuit.name();
            if !seen.insert(name.clone()) {
                return Err(SpecError::DuplicateCircuit(name));
            }
        }
        self.pipeline.validate()?;
        if self.pipeline.uses_cost_aware_passes() && self.technologies.is_empty() {
            return Err(SpecError::CostAwareWithoutTechnology);
        }
        Ok(())
    }

    /// Serializes the spec to human-indented JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec values always serialize")
    }

    /// Parses a spec back from JSON text.
    ///
    /// # Errors
    ///
    /// [`SpecError::Json`] on malformed JSON or a shape mismatch.
    pub fn from_json(text: &str) -> Result<FlowSpec, SpecError> {
        serde_json::from_str(text).map_err(|e| SpecError::Json(e.to_string()))
    }

    /// Stable content hash of the whole spec (pipeline, technologies
    /// and circuit selection).
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.write(b"flowspec");
        hash_value(&self.to_value(), &mut h);
        h.finish()
    }
}

/// Feeds a serialized value tree into a hasher, with discriminant tags
/// so differently-shaped values never collide structurally.
fn hash_value(value: &Value, h: &mut Fnv) {
    match value {
        Value::Null => h.write(b"n"),
        Value::Bool(b) => {
            h.write(b"b");
            h.write(&[u8::from(*b)]);
        }
        Value::UInt(u) => {
            h.write(b"u");
            h.write_u64(*u);
        }
        Value::Int(i) => {
            h.write(b"i");
            h.write_u64(*i as u64);
        }
        Value::Float(f) => {
            h.write(b"f");
            h.write_f64(*f);
        }
        Value::Str(s) => {
            h.write(b"s");
            h.write_u64(s.len() as u64);
            h.write(s.as_bytes());
        }
        Value::Array(items) => {
            h.write(b"a");
            h.write_u64(items.len() as u64);
            for item in items {
                hash_value(item, h);
            }
        }
        Value::Object(entries) => {
            h.write(b"o");
            h.write_u64(entries.len() as u64);
            for (key, item) in entries {
                h.write_u64(key.len() as u64);
                h.write(key.as_bytes());
                hash_value(item, h);
            }
        }
    }
}

// Hand-written: decoding sorts the parameters into canonical order and
// rejects duplicate keys of untrusted input.
impl Serialize for SynthSpec {
    fn to_value(&self) -> Value {
        object(vec![
            ("family", self.family.to_value()),
            ("seed", self.seed.to_value()),
            (
                "params",
                Value::Object(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_value()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl Deserialize for SynthSpec {
    fn from_value(value: &Value) -> Result<SynthSpec, DeError> {
        let entries = value
            .as_object()
            .ok_or_else(|| DeError::expected("object for SynthSpec"))?;
        let mut params: Vec<(String, u64)> = Vec::new();
        for (key, item) in serde::field(entries, "params")?
            .as_object()
            .ok_or_else(|| DeError::expected("object for synth params"))?
        {
            params.push((key.clone(), Deserialize::from_value(item)?));
        }
        // Canonicalize here so a hand-edited JSON spec and its
        // round-tripped form compare (and hash) equal; duplicate keys
        // are a shape error, not a silent last-one-wins.
        params.sort_by(|(a, _), (b, _)| a.cmp(b));
        if params.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(DeError("duplicate synth parameter key".to_owned()));
        }
        Ok(SynthSpec {
            family: Deserialize::from_value(serde::field(entries, "family")?)?,
            seed: Deserialize::from_value(serde::field(entries, "seed")?)?,
            params,
        })
    }
}

// Hand-written: the three kinds are told apart by shape (a bare name,
// an inline `{"name", "mig"}` object or a `{"synth": …}` object).
impl Serialize for CircuitSpec {
    fn to_value(&self) -> Value {
        match self {
            CircuitSpec::Named(name) => name.to_value(),
            CircuitSpec::Inline { name, mig } => {
                object(vec![("name", name.to_value()), ("mig", mig.to_value())])
            }
            CircuitSpec::Synthetic(synth) => object(vec![("synth", synth.to_value())]),
        }
    }
}

impl Deserialize for CircuitSpec {
    fn from_value(value: &Value) -> Result<CircuitSpec, DeError> {
        match value {
            Value::Str(name) => Ok(CircuitSpec::Named(name.clone())),
            Value::Object(entries) => {
                if let Ok(synth) = serde::field(entries, "synth") {
                    return Ok(CircuitSpec::Synthetic(Deserialize::from_value(synth)?));
                }
                Ok(CircuitSpec::Inline {
                    name: Deserialize::from_value(serde::field(entries, "name")?)?,
                    mig: Deserialize::from_value(serde::field(entries, "mig")?)?,
                })
            }
            _ => Err(DeError::expected(
                "circuit name, inline object or synth object",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_spec() -> FlowSpec {
        let mut g = mig::Mig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let cin = g.add_input("cin");
        let (s, c) = g.add_full_adder(a, b, cin);
        g.add_output("s", s);
        g.add_output("c", c);
        FlowSpec::new("everything")
            .with_pipeline(
                PipelineSpec::map(true)
                    .restrict_fanout(3)
                    .insert_buffers(BufferStrategy::Weighted(DelayWeights::QCA))
                    .verify_weighted(DelayWeights::QCA),
            )
            .technology(crate::cost::CostTable::from_model(&Flat))
            .circuit("SASC")
            .inline_circuit("adder", &g)
    }

    /// Flat unit-cost model for spec tests.
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
            0.25
        }
    }

    #[test]
    fn every_pass_shape_round_trips_through_json() {
        let spec = FlowSpec::new("all-passes")
            .with_pipeline(
                PipelineSpec::map(false)
                    .optimize_depth(16)
                    .optimize_size(8)
                    .optimize_cost_aware(4)
                    .restrict_fanout(4)
                    .restrict_fanout_cost_aware()
                    .insert_buffers(BufferStrategy::Retimed)
                    .insert_buffers(BufferStrategy::CostAware)
                    .verify(Some(4))
                    .verify_cost_aware(None)
                    .check_fanout_bound(4),
            )
            .technology(crate::cost::CostTable::from_model(&Flat))
            .circuit("X");
        let back = FlowSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back);
        assert_eq!(spec.content_hash(), back.content_hash());
    }

    #[test]
    fn cache_spec_round_trips_and_absence_preserves_the_content_hash() {
        let plain = full_spec();
        // A spec without a cache block serializes without the key …
        assert!(!plain.to_json().contains("\"cache\""));
        let cached = plain.clone().with_cache(CacheSpec {
            capacity: Some(64),
            dir: Some("default".to_owned()),
        });
        // … so pre-existing specs keep their identity …
        assert_eq!(
            plain.content_hash(),
            FlowSpec::from_json(&plain.to_json())
                .unwrap()
                .content_hash()
        );
        assert_ne!(plain.content_hash(), cached.content_hash());
        // … and a configured block round-trips field-for-field.
        let back = FlowSpec::from_json(&cached.to_json()).unwrap();
        assert_eq!(cached, back);
        assert_eq!(
            back.cache,
            Some(CacheSpec {
                capacity: Some(64),
                dir: Some("default".to_owned()),
            })
        );
        // Partial blocks keep unset fields unset.
        let partial = plain.with_cache(CacheSpec {
            capacity: None,
            dir: Some("/tmp/x".to_owned()),
        });
        let back = FlowSpec::from_json(&partial.to_json()).unwrap();
        assert_eq!(back.cache.as_ref().unwrap().capacity, None);
    }

    #[test]
    fn full_spec_round_trips_including_inline_circuits_and_tables() {
        let spec = full_spec();
        let back = FlowSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back);
        assert_eq!(spec.content_hash(), back.content_hash());
    }

    #[test]
    fn content_hash_tracks_every_axis() {
        let spec = full_spec();
        let mut other = spec.clone();
        other.pipeline = other.pipeline.check_fanout_bound(3);
        assert_ne!(spec.content_hash(), other.content_hash());
        assert_ne!(spec.pipeline.content_hash(), other.pipeline.content_hash());

        let mut other = spec.clone();
        other.technologies.clear();
        assert_ne!(spec.content_hash(), other.content_hash());

        let mut other = spec.clone();
        other.circuits.pop();
        assert_ne!(spec.content_hash(), other.content_hash());
    }

    #[test]
    fn validation_rejects_structural_mistakes() {
        assert_eq!(
            FlowSpec::new("empty").validate(),
            Err(SpecError::EmptyCircuits)
        );
        assert_eq!(
            FlowSpec::new("dup").circuit("A").circuit("A").validate(),
            Err(SpecError::DuplicateCircuit("A".to_owned()))
        );
        assert_eq!(
            FlowSpec::new("k")
                .with_pipeline(PipelineSpec::map(false).restrict_fanout(1))
                .circuit("A")
                .validate(),
            Err(SpecError::FanoutLimitOutOfRange(1))
        );
        assert_eq!(
            FlowSpec::new("blind")
                .with_pipeline(PipelineSpec::map(false).restrict_fanout_cost_aware())
                .circuit("A")
                .validate(),
            Err(SpecError::CostAwareWithoutTechnology)
        );
        assert_eq!(full_spec().validate(), Ok(()));
    }

    #[test]
    fn delay_weights_are_bounded() {
        let weighted = |w: DelayWeights| {
            [
                PipelineSpec::map(false).insert_buffers(BufferStrategy::Weighted(w)),
                PipelineSpec::map(false).verify_weighted(w),
            ]
        };
        let huge = DelayWeights {
            inv: u32::MAX,
            maj: u32::MAX,
            ..DelayWeights::UNIT
        };
        let no_buf = DelayWeights {
            buf: 0,
            ..DelayWeights::QCA
        };
        let just_over = DelayWeights {
            fog: MAX_DELAY_WEIGHT + 1,
            ..DelayWeights::UNIT
        };
        for w in [huge, no_buf, just_over] {
            for pipeline in weighted(w) {
                assert_eq!(
                    pipeline.validate(),
                    Err(SpecError::DelayWeightsOutOfRange(w))
                );
            }
        }
        let at_max = DelayWeights {
            inv: MAX_DELAY_WEIGHT,
            ..DelayWeights::UNIT
        };
        for w in [DelayWeights::QCA, DelayWeights::NML, at_max] {
            for pipeline in weighted(w) {
                assert_eq!(pipeline.validate(), Ok(()));
            }
        }
    }

    #[test]
    fn equivalence_gate_round_trips_and_is_validated() {
        let policy = EquivalencePolicy {
            exhaustive_inputs: 12,
            rounds: 16,
            seed: 99,
        };
        let gated = FlowSpec::new("gated")
            .with_equivalence_gating(policy)
            .circuit("A");
        assert_eq!(gated.validate(), Ok(()));
        let back = FlowSpec::from_json(&gated.to_json()).unwrap();
        assert_eq!(gated, back);
        assert_eq!(back.pipeline.equivalence_gate, Some(policy));
        assert_eq!(gated.content_hash(), back.content_hash());

        // Gating is part of the pipeline's cache identity…
        let ungated = FlowSpec::new("gated").circuit("A");
        assert_ne!(
            gated.pipeline.content_hash(),
            ungated.pipeline.content_hash()
        );
        // …but an ungated spec serializes without the field, so specs
        // written before the gate existed still parse.
        assert!(!ungated.to_json().contains("equivalence_gate"));
        assert_eq!(FlowSpec::from_json(&ungated.to_json()).unwrap(), ungated);

        // An absurd exhaustive ceiling is rejected before anything runs.
        let absurd = FlowSpec::new("absurd")
            .with_equivalence_gating(EquivalencePolicy::exhaustive(40))
            .circuit("A");
        assert_eq!(
            absurd.validate(),
            Err(SpecError::EquivalenceCeilingTooHigh(40))
        );

        // So is a gate with no sampling budget — above the exhaustive
        // ceiling it would "verify" zero patterns.
        let vacuous = FlowSpec::new("vacuous")
            .with_equivalence_gating(EquivalencePolicy::sampled(0, 1))
            .circuit("A");
        assert_eq!(
            vacuous.validate(),
            Err(SpecError::EquivalenceGateZeroRounds)
        );
    }

    #[test]
    fn synth_specs_have_canonical_names_and_round_trip() {
        let synth = SynthSpec::new("dag", 7)
            .param("nodes", 500)
            .param("depth", 12)
            .param("nodes", 600); // re-set replaces, stays sorted
        assert_eq!(synth.name(), "synth:dag:7:depth=12,nodes=600");
        assert_eq!(SynthSpec::new("adder", 3).name(), "synth:adder:3");

        let spec = FlowSpec::new("synthetic")
            .synthetic_circuit(synth.clone())
            .synthetic_circuit(SynthSpec::new("parity", 1).param("width", 32));
        assert_eq!(spec.validate(), Ok(()));
        let back = FlowSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back);
        assert_eq!(spec.to_json(), back.to_json(), "bit-identical round trip");
        assert_eq!(spec.content_hash(), back.content_hash());

        // Different seeds / params are different cache identities.
        let other = FlowSpec::new("synthetic")
            .synthetic_circuit(synth.clone().param("depth", 13))
            .synthetic_circuit(SynthSpec::new("parity", 2).param("width", 32));
        assert_ne!(spec.content_hash(), other.content_hash());
    }

    #[test]
    fn malformed_synth_specs_are_rejected() {
        let bad_family = FlowSpec::new("s").synthetic_circuit(SynthSpec::new("DAG!", 1));
        assert!(matches!(
            bad_family.validate(),
            Err(SpecError::Synthetic { .. })
        ));
        let bad_key =
            FlowSpec::new("s").synthetic_circuit(SynthSpec::new("dag", 1).param("Nodes", 10));
        assert!(matches!(
            bad_key.validate(),
            Err(SpecError::Synthetic { .. })
        ));
        // Hand-assembled unsorted params are caught too.
        let mut synth = SynthSpec::new("dag", 1);
        synth.params = vec![("b".to_owned(), 1), ("a".to_owned(), 2)];
        assert!(matches!(synth.validate(), Err(SpecError::Synthetic { .. })));
        // Duplicate params in JSON are a parse error, not last-one-wins.
        assert!(FlowSpec::from_json(
            r#"{"name":"x","pipeline":{"minimize_inverters":false,"passes":[]},
                "technologies":[],
                "circuits":[{"synth":{"family":"dag","seed":1,
                             "params":{"n":1,"n":2}}}]}"#
        )
        .is_err());
    }

    #[test]
    fn bad_json_is_an_error_not_a_panic() {
        assert!(matches!(FlowSpec::from_json("{"), Err(SpecError::Json(_))));
        assert!(matches!(
            FlowSpec::from_json(r#"{"name":"x"}"#),
            Err(SpecError::Json(_))
        ));
        assert!(FlowSpec::from_json(
            r#"{"name":"x","pipeline":{"minimize_inverters":false,
                "passes":[{"pass":"frobnicate"}]},"technologies":[],"circuits":["A"]}"#
        )
        .is_err());
    }

    #[test]
    fn for_config_matches_the_builder_wiring() {
        let spec = PipelineSpec::for_config(FlowConfig::default());
        let pipeline = spec.build().unwrap();
        assert_eq!(
            pipeline.pass_names(),
            FlowPipeline::for_config(FlowConfig::default()).pass_names()
        );

        let fo_only = PipelineSpec::for_config(FlowConfig {
            fanout_limit: Some(4),
            insert_buffers: false,
            minimize_inverters: false,
        });
        assert_eq!(fo_only.passes.len(), 2, "restrict + bound check");
    }

    #[test]
    fn ill_ordered_specs_fail_at_build_with_the_builder_error() {
        let spec = PipelineSpec::map(false)
            .insert_buffers(BufferStrategy::Asap)
            .restrict_fanout(3);
        assert_eq!(spec.build().unwrap_err(), PipelineError::FanoutAfterBuffers);

        // A rewrite listed after a netlist pass is the builder's error
        // too — build() never reorders the spec to repair it.
        let spec = PipelineSpec::map(false)
            .restrict_fanout(3)
            .optimize_depth(4);
        assert_eq!(spec.build().unwrap_err(), PipelineError::RewriteAfterMap);
    }

    #[test]
    fn rewrite_passes_compile_before_the_implicit_map() {
        let spec = PipelineSpec::map(false)
            .optimize_depth(16)
            .optimize_size(8)
            .restrict_fanout(3)
            .insert_buffers(BufferStrategy::Asap)
            .verify(Some(3));
        let pipeline = spec.build().unwrap();
        assert_eq!(
            pipeline.pass_names(),
            vec![
                "optimize_depth",
                "optimize_size",
                "map",
                "fanout_restriction(3)",
                "insert_buffers(asap)",
                "verify(fo≤3)",
            ]
        );

        // A rewrite-only spec still gets its implicit mapping pass.
        let pipeline = PipelineSpec::map(false).optimize_size(4).build().unwrap();
        assert_eq!(pipeline.pass_names(), vec!["optimize_size", "map"]);
    }

    #[test]
    fn rewrite_passes_are_cache_identity_axes() {
        let plain = PipelineSpec::map(false).restrict_fanout(3);
        let rewritten = PipelineSpec::map(false)
            .optimize_depth(16)
            .restrict_fanout(3);
        assert_ne!(plain.content_hash(), rewritten.content_hash());

        // The round bound is part of the identity too.
        let fewer_rounds = PipelineSpec::map(false)
            .optimize_depth(8)
            .restrict_fanout(3);
        assert_ne!(rewritten.content_hash(), fewer_rounds.content_hash());

        // And so is the objective.
        let by_size = PipelineSpec::map(false)
            .optimize_size(16)
            .restrict_fanout(3);
        assert_ne!(rewritten.content_hash(), by_size.content_hash());
    }

    #[test]
    fn cost_aware_rewrite_requires_a_technology() {
        let blind = FlowSpec::new("blind")
            .with_pipeline(PipelineSpec::map(false).optimize_cost_aware(8))
            .circuit("A");
        assert_eq!(blind.validate(), Err(SpecError::CostAwareWithoutTechnology));
        let priced = FlowSpec::new("priced")
            .with_pipeline(PipelineSpec::map(false).optimize_cost_aware(8))
            .technology(crate::cost::CostTable::from_model(&Flat))
            .circuit("A");
        assert_eq!(priced.validate(), Ok(()));
    }
}
