//! The long-lived engine facade: validated spec execution with a
//! content-hash keyed result cache.
//!
//! An [`Engine`] is the one stable entry point the ROADMAP's
//! production-scale system needs: it validates a declarative
//! [`FlowSpec`] into an ordering-checked [`FlowPipeline`], resolves its
//! circuit selection (registry names via a pluggable resolver, inline
//! netlists via the `mig` text parser), and sweeps the circuit ×
//! technology grid on the work-pulling parallel scheduler — the
//! crate's one grid driver — and every cell first consults a cache
//! keyed by `(circuit content hash, pipeline content hash,
//! technology content hash)`. Repeated and *overlapping* sweeps only
//! recompute changed cells: re-running the same spec is pure cache
//! hits, editing one technology re-prices only that column, adding a
//! circuit computes only its row.
//!
//! The cells that miss execute once per circuit when the pipeline is
//! cost-blind: the technology then only prices the trace, so one pass
//! loop serves every missed technology of a circuit, and those cells
//! share one [`crate::FlowResult`]. A cost-aware pipeline executes
//! every missed cell under its own model. Either way each cell's bytes
//! are those of a direct [`FlowPipeline::run_with_model`] under its
//! technology (the golden tests pin this).
//!
//! Cached cells come back as [`Arc`]-shared [`PipelineRun`]s, so a warm
//! re-run returns bit-identical results while executing **zero
//! passes** — asserted via the engine's
//! [`EngineStats::passes_executed`] counter, which counts the passes
//! of every pipeline execution, however many cells it served.
//!
//! Results stream: [`Engine::run_streaming`] invokes a callback from
//! the worker threads as each cell completes, and the collected
//! [`EngineRun`] iterates cells circuit-major.
//!
//! ```
//! use wavepipe::{Engine, FlowSpec};
//!
//! # fn main() -> Result<(), wavepipe::FlowError> {
//! let mut g = mig::Mig::new();
//! let a = g.add_input("a");
//! let b = g.add_input("b");
//! let cin = g.add_input("cin");
//! let (sum, cout) = g.add_full_adder(a, b, cin);
//! g.add_output("sum", sum);
//! g.add_output("cout", cout);
//!
//! let engine = Engine::new();
//! let spec = FlowSpec::new("adder-demo").inline_circuit("adder", &g);
//! let cold = engine.run(&spec)?;
//! assert_eq!(cold.cells.len(), 1);
//! assert!(cold.stats.passes_executed > 0);
//!
//! // Second identical run: full cache hit, zero pass executions.
//! let warm = engine.run(&spec)?;
//! assert_eq!(warm.stats.passes_executed, 0);
//! assert_eq!(warm.stats.cache_hits, 1);
//! # Ok(())
//! # }
//! ```

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mig::Mig;
use rayon::prelude::*;

use crate::cost::CostTable;
use crate::error::FlowError;
use crate::persist::DiskCache;
use crate::pipeline::{FlowPipeline, PassError, PipelineRun};
use crate::spec::{CircuitSpec, FlowSpec, PipelineSpec, SpecError};

/// Looks a named circuit up; `None` means "not in the registry".
pub type CircuitResolver = dyn Fn(&str) -> Option<Mig> + Send + Sync;

/// The default disk-cache root, relative to the working directory —
/// what [`Engine::for_spec`] and the `WAVEPIPE_CACHE_DIR` environment
/// knob resolve against when given a bare `default`.
pub const DEFAULT_CACHE_DIR: &str = "results/cache";

/// Granularity of one cache entry. Whole grid cells, per-output-cone
/// runs and spliced incremental results share the cache (and the disk
/// tier) but can never collide: the scope is part of the key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Scope {
    /// A whole-circuit grid cell (the PR-3 granularity).
    Cell,
    /// One extracted output cone run through the pipeline.
    Cone,
    /// A merged incremental result for a whole edited graph.
    Spliced,
}

impl Scope {
    pub(crate) fn tag(self) -> &'static str {
        match self {
            Scope::Cell => "cell",
            Scope::Cone => "cone",
            Scope::Spliced => "spliced",
        }
    }
}

/// One entry's cache identity. `technology` is the model's content
/// hash, or a fixed sentinel for cost-blind cells (a model could only
/// collide with it by hashing to the exact sentinel — an FNV output
/// like any other).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    pub(crate) scope: Scope,
    pub(crate) circuit: u64,
    pub(crate) pipeline: u64,
    pub(crate) technology: u64,
}

impl CacheKey {
    fn triple(&self) -> (u64, u64, u64) {
        (self.circuit, self.pipeline, self.technology)
    }
}

pub(crate) const COST_BLIND: u64 = 0;

/// `default` → [`DEFAULT_CACHE_DIR`]; anything else is taken verbatim.
fn resolve_cache_dir(dir: &str) -> PathBuf {
    if dir == "default" {
        PathBuf::from(DEFAULT_CACHE_DIR)
    } else {
        PathBuf::from(dir)
    }
}

/// Cumulative (or per-run delta) engine counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EngineStats {
    /// Entries answered from the in-memory cache.
    pub cache_hits: u64,
    /// Entries that had to execute (every cache tier cold, or changed).
    pub cache_misses: u64,
    /// Passes actually executed: each pipeline execution counts its
    /// passes once, however many cells it served (under a cost-blind
    /// pipeline one execution serves every missed technology of a
    /// circuit), so this counts executions, not cells. The counter the
    /// warm-cache golden test pins to zero.
    pub passes_executed: u64,
    /// Output cones spliced from cached runs by the incremental engine.
    pub cones_reused: u64,
    /// Output cones the incremental engine had to re-run (dirty, or
    /// first sight).
    pub cones_recomputed: u64,
    /// Entries answered from the disk tier (memory missed).
    pub disk_hits: u64,
    /// Disk-tier lookups that missed (absent, corrupt or stale entry).
    pub disk_misses: u64,
    /// In-memory entries evicted by the LRU capacity bound.
    pub evictions: u64,
}

impl EngineStats {
    /// Counter-wise difference against an earlier snapshot — how
    /// callers turn two [`Engine::stats`] readings into a per-stage
    /// delta (the `perfbench` ledger and the `scaling` sweep read them
    /// this way).
    ///
    /// Each counter is an independent atomic, so a snapshot taken while
    /// other threads are mid-run is not a single consistent cut: one
    /// counter may already include an operation whose sibling counter
    /// does not. The subtraction saturates so such an interleaving can
    /// never underflow; callers that need *exact* per-run counters on a
    /// shared engine should use [`EngineRun::stats`], which is tallied
    /// locally by the run itself rather than diffed from the globals.
    pub fn since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            passes_executed: self.passes_executed.saturating_sub(earlier.passes_executed),
            cones_reused: self.cones_reused.saturating_sub(earlier.cones_reused),
            cones_recomputed: self
                .cones_recomputed
                .saturating_sub(earlier.cones_recomputed),
            disk_hits: self.disk_hits.saturating_sub(earlier.disk_hits),
            disk_misses: self.disk_misses.saturating_sub(earlier.disk_misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }
}

/// Per-run counter tally. The engine's cumulative counters are shared
/// by every concurrent caller (the serve daemon runs many clients on
/// one engine), so a before/after diff of [`Engine::stats`] would fold
/// other clients' work into this run's delta. Each run therefore
/// carries its own tally, bumped in lockstep with the globals, and
/// [`EngineRun::stats`] reads it — exact even under full concurrency.
#[derive(Default)]
pub(crate) struct RunTally {
    hits: AtomicU64,
    misses: AtomicU64,
    passes: AtomicU64,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    evictions: AtomicU64,
}

impl RunTally {
    fn snapshot(&self) -> EngineStats {
        EngineStats {
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            passes_executed: self.passes.load(Ordering::Relaxed),
            cones_reused: 0,
            cones_recomputed: 0,
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// One finished grid cell of an engine run.
#[derive(Clone, Debug)]
pub struct EngineCell {
    /// Index into the run's circuit list.
    pub circuit: usize,
    /// Index into the run's technology list, or `None` for a cost-blind
    /// cell (spec with no technologies).
    pub technology: Option<usize>,
    /// Whether the cell was answered from the cache.
    pub cached: bool,
    /// The cell's pipeline run (shared with the cache), or the first
    /// pass failure. Failures are never cached — a failing cell re-runs
    /// on the next sweep.
    pub outcome: Result<Arc<PipelineRun>, PassError>,
}

impl EngineCell {
    /// The successful run, if the cell verified.
    pub fn run(&self) -> Option<&PipelineRun> {
        self.outcome.as_ref().ok().map(Arc::as_ref)
    }
}

/// Everything one [`Engine::run`] produced.
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// The spec's experiment name.
    pub spec_name: String,
    /// Resolved circuit names, in spec order.
    pub circuits: Vec<String>,
    /// Technology names, in spec order.
    pub technologies: Vec<String>,
    /// All grid cells, circuit-major (`circuit * technologies.len() +
    /// technology`; one cell per circuit when cost-blind).
    pub cells: Vec<EngineCell>,
    /// Cache and execution counters for this run alone.
    pub stats: EngineStats,
}

impl EngineRun {
    /// Iterates the cells circuit-major.
    pub fn iter(&self) -> impl Iterator<Item = &EngineCell> {
        self.cells.iter()
    }

    /// The cell of `(circuit, technology)`, if both indices exist.
    pub fn cell(&self, circuit: usize, technology: usize) -> Option<&EngineCell> {
        let width = self.technologies.len().max(1);
        if circuit >= self.circuits.len() || technology >= width {
            return None;
        }
        self.cells.get(circuit * width + technology)
    }
}

impl<'a> IntoIterator for &'a EngineRun {
    type Item = &'a EngineCell;
    type IntoIter = std::slice::Iter<'a, EngineCell>;
    fn into_iter(self) -> Self::IntoIter {
        self.cells.iter()
    }
}

/// Recency-ordered cache with optional capacity. `order` runs from
/// least- to most-recently-used: hits move their key to the back, so a
/// bounded cache evicts the LRU entry from the front.
#[derive(Default)]
struct Cache {
    cells: HashMap<CacheKey, Arc<PipelineRun>>,
    order: VecDeque<CacheKey>,
}

impl Cache {
    /// Looks a key up and, on a hit, marks it most-recently-used.
    /// `track_recency` is false for the unbounded cache, where nothing
    /// is ever evicted and the O(len) recency scan would buy nothing.
    fn get_touch(&mut self, key: &CacheKey, track_recency: bool) -> Option<Arc<PipelineRun>> {
        let run = self.cells.get(key)?.clone();
        if track_recency && self.order.back() != Some(key) {
            if let Some(at) = self.order.iter().position(|k| k == key) {
                self.order.remove(at);
                self.order.push_back(*key);
            }
        }
        Some(run)
    }
}

/// The engine facade. See the [module docs](self) for semantics; the
/// bench harness keeps one engine alive across every experiment of a
/// reproduction run so overlapping sweeps share work.
pub struct Engine {
    resolver: Option<Box<CircuitResolver>>,
    cache: Mutex<Cache>,
    /// `Some(0)` disables caching entirely (no hashing, no lookups, no
    /// disk tier): every cell executes.
    capacity: Option<usize>,
    /// Persistent tier under the in-memory LRU, when configured.
    disk: Option<DiskCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    passes_executed: AtomicU64,
    cones_reused: AtomicU64,
    cones_recomputed: AtomicU64,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("resolver", &self.resolver.is_some())
            .field("cached_cells", &self.lock_cache().cells.len())
            .field("capacity", &self.capacity)
            .field("disk", &self.disk.as_ref().map(DiskCache::root))
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

impl Engine {
    /// A fresh engine: unbounded cache, no circuit resolver (specs may
    /// only use inline circuits until one is installed).
    pub fn new() -> Engine {
        Engine {
            resolver: None,
            cache: Mutex::new(Cache::default()),
            capacity: None,
            disk: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            passes_executed: AtomicU64::new(0),
            cones_reused: AtomicU64::new(0),
            cones_recomputed: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// An engine configured from the environment: unbounded in-memory
    /// cache and no disk tier unless `WAVEPIPE_CACHE_CAPACITY` (LRU
    /// entry bound; `0` disables caching) or `WAVEPIPE_CACHE_DIR`
    /// (disk-cache root; `default` means [`DEFAULT_CACHE_DIR`], empty
    /// disables the disk tier) say otherwise. Unparsable values warn on
    /// stderr and are ignored.
    pub fn from_env() -> Engine {
        Engine::new().apply_env()
    }

    /// An engine configured from a spec's [`crate::CacheSpec`] (when
    /// present), then overridden by the environment knobs exactly as in
    /// [`Engine::from_env`] — env wins over spec, spec wins over the
    /// defaults.
    pub fn for_spec(spec: &FlowSpec) -> Engine {
        let mut engine = Engine::new();
        if let Some(cache) = &spec.cache {
            if let Some(capacity) = cache.capacity {
                engine.capacity = Some(capacity);
            }
            if let Some(dir) = &cache.dir {
                engine.disk = Some(DiskCache::new(resolve_cache_dir(dir)));
            }
        }
        engine.apply_env()
    }

    fn apply_env(mut self) -> Engine {
        if let Ok(value) = std::env::var("WAVEPIPE_CACHE_CAPACITY") {
            match value.trim().parse::<usize>() {
                Ok(cells) => self.capacity = Some(cells),
                Err(_) => {
                    eprintln!("warning: ignoring unparsable WAVEPIPE_CACHE_CAPACITY `{value}`")
                }
            }
        }
        if let Ok(value) = std::env::var("WAVEPIPE_CACHE_DIR") {
            self.disk = if value.is_empty() {
                None
            } else {
                Some(DiskCache::new(resolve_cache_dir(&value)))
            };
        }
        self
    }

    /// Installs the registry lookup for [`CircuitSpec::Named`] entries
    /// (e.g. `benchsuite::build_mig`).
    pub fn with_resolver(
        mut self,
        resolver: impl Fn(&str) -> Option<Mig> + Send + Sync + 'static,
    ) -> Engine {
        self.resolver = Some(Box::new(resolver));
        self
    }

    /// Bounds the cache to `cells` entries (least-recently-used
    /// evicted first; a hit counts as a use); `0` disables caching.
    pub fn with_cache_capacity(mut self, cells: usize) -> Engine {
        self.capacity = Some(cells);
        self
    }

    /// Layers a persistent disk cache under the in-memory LRU, rooted
    /// at `root` (created on first store). Memory misses consult the
    /// disk tier and promote hits back into memory; computed entries
    /// are written through. Corrupt, stale or unreadable entries warn
    /// on stderr and recompute — they never fail a run.
    pub fn with_disk_cache(mut self, root: impl Into<PathBuf>) -> Engine {
        self.disk = Some(DiskCache::new(root.into()));
        self
    }

    /// The disk-cache root, when a disk tier is configured.
    pub fn disk_cache_root(&self) -> Option<&std::path::Path> {
        self.disk.as_ref().map(DiskCache::root)
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            passes_executed: self.passes_executed.load(Ordering::Relaxed),
            cones_reused: self.cones_reused.load(Ordering::Relaxed),
            cones_recomputed: self.cones_recomputed.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Locks the cache, recovering from poison. A panic on another
    /// thread while the mutex was held (a panicking sink or a torn
    /// allocation mid-insert) must not brick a shared daemon engine:
    /// the interrupted mutation may have left `cells` and `order`
    /// inconsistent, so recovery drops the whole cache — a warm start
    /// costs recomputes, never a crash — and clears the poison flag so
    /// later locks stop paying the reset.
    fn lock_cache(&self) -> std::sync::MutexGuard<'_, Cache> {
        match self.cache.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                let dropped = guard.cells.len();
                guard.cells.clear();
                guard.order.clear();
                self.cache.clear_poison();
                eprintln!(
                    "warning: engine cache poisoned by a panicking request; \
                     dropped {dropped} cached cells and recovered"
                );
                guard
            }
        }
    }

    /// Number of cells currently cached.
    pub fn cached_cells(&self) -> usize {
        self.lock_cache().cells.len()
    }

    /// Drops every cached cell (counters are kept).
    pub fn clear_cache(&self) {
        let mut cache = self.lock_cache();
        cache.cells.clear();
        cache.order.clear();
    }

    /// Validates and executes a spec, collecting all cells. Equivalent
    /// to [`Engine::run_streaming`] with a no-op sink; see there for
    /// the error contract.
    ///
    /// # Errors
    ///
    /// As [`Engine::run_streaming`].
    ///
    /// # Examples
    ///
    /// ```
    /// use wavepipe::{Engine, FlowError, FlowSpec, SpecError};
    ///
    /// let mut g = mig::Mig::new();
    /// let a = g.add_input("a");
    /// let b = g.add_input("b");
    /// let m = g.add_maj(a, b, !a);
    /// g.add_output("m", m);
    ///
    /// let engine = Engine::new();
    /// let run = engine
    ///     .run(&FlowSpec::new("tiny").inline_circuit("inv", &g))
    ///     .expect("verifies");
    /// assert_eq!(run.cells.len(), 1);
    /// assert!(run.cells[0].run().unwrap().result.report.is_some());
    ///
    /// // Malformed experiments are errors, never panics — here a named
    /// // circuit without a registry resolver:
    /// let err = engine.run(&FlowSpec::new("named").circuit("SASC"));
    /// assert!(matches!(
    ///     err,
    ///     Err(FlowError::Spec(SpecError::NoResolver(_)))
    /// ));
    /// ```
    pub fn run(&self, spec: &FlowSpec) -> Result<EngineRun, FlowError> {
        self.run_streaming(spec, |_| {})
    }

    /// Validates and executes a spec, invoking `sink` from the worker
    /// threads as each cell completes (completion order, not grid
    /// order), then returns the collected [`EngineRun`] with the cells
    /// in circuit-major order.
    ///
    /// # Errors
    ///
    /// [`FlowError::Spec`] when the spec fails validation or a circuit
    /// cannot be resolved; [`FlowError::Pipeline`] when the pass list
    /// is ill-ordered or a pass parameter is out of range (checked
    /// before the lint); [`FlowError::Lint`] when the pre-run spec
    /// lint ([`crate::lint_spec`]) finds error-severity diagnostics
    /// (e.g. a technology table that cannot time a wave).
    /// Per-cell pass failures do **not** fail the run — they come back
    /// in each [`EngineCell::outcome`], so one failing circuit cannot
    /// poison a sweep.
    pub fn run_streaming(
        &self,
        spec: &FlowSpec,
        sink: impl Fn(&EngineCell) + Sync,
    ) -> Result<EngineRun, FlowError> {
        spec.validate()?;
        let pipeline = spec.pipeline.build()?;
        // Pre-run static analysis: a spec that validates structurally
        // can still be semantically hopeless (a zero phase delay prices
        // every wave at nothing). Reject on error-severity findings
        // before building a single circuit.
        let mut diagnostics = crate::lint::lint_spec(spec);
        diagnostics.retain(|d| d.severity == crate::lint::Severity::Error);
        if !diagnostics.is_empty() {
            return Err(FlowError::Lint(diagnostics));
        }
        // Resolve (and for registry names, generate) the circuits in
        // parallel — suite builds are the expensive part of a cold
        // full-suite spec; the first failure wins, like a serial pass.
        let mut circuits: Vec<(String, Mig)> = Vec::with_capacity(spec.circuits.len());
        let resolved: Vec<Result<Mig, SpecError>> =
            spec.circuits.par_iter().map(|c| self.resolve(c)).collect();
        for (circuit, graph) in spec.circuits.iter().zip(resolved) {
            circuits.push((circuit.name(), graph?));
        }
        let graphs: Vec<&Mig> = circuits.iter().map(|(_, g)| g).collect();

        let tally = RunTally::default();
        let cells = self.grid_cells(
            &spec.pipeline,
            &pipeline,
            &graphs,
            &spec.technologies,
            Some(&tally),
            &sink,
        );
        Ok(EngineRun {
            spec_name: spec.name.clone(),
            circuits: circuits.into_iter().map(|(name, _)| name).collect(),
            technologies: spec
                .technologies
                .iter()
                .map(|t| t.name().to_owned())
                .collect(),
            cells,
            stats: tally.snapshot(),
        })
    }

    /// Runs one pipeline spec over explicit graphs × models with
    /// caching — the harness's entry point when it already holds built
    /// circuits (so a spec run and a graph run of the same work share
    /// cache cells). An empty `models` slice runs one cost-blind cell
    /// per graph.
    ///
    /// # Errors
    ///
    /// [`FlowError::Pipeline`] when the pipeline spec does not compile,
    /// [`FlowError::Spec`] when it uses a cost-aware pass but `models`
    /// is empty; per-cell failures come back in the cells.
    pub fn run_pipeline_grid(
        &self,
        pipeline: &PipelineSpec,
        graphs: &[&Mig],
        models: &[CostTable],
    ) -> Result<Vec<EngineCell>, FlowError> {
        let built = pipeline.build()?;
        // Same contract as FlowSpec::validate: a cost-aware pass with
        // nothing to price against is rejected upfront, not after the
        // mapping pass has already run in every cell.
        if pipeline.uses_cost_aware_passes() && models.is_empty() {
            return Err(SpecError::CostAwareWithoutTechnology.into());
        }
        Ok(self.grid_cells(pipeline, &built, graphs, models, None, &|_| {}))
    }

    /// Grid execution of `spec`, already built into `pipeline`; with
    /// caching disabled every cell misses.
    ///
    /// Every cell first looks itself up on its own, and hits stream to
    /// `sink` at once. The cells that missed then execute in groups.
    /// Under a cost-blind pipeline the technology only prices the
    /// trace, so one execution per circuit serves all of its missed
    /// cells, which share the resulting [`crate::FlowResult`]; under a
    /// cost-aware one every missed cell executes on its own.
    fn grid_cells(
        &self,
        spec: &PipelineSpec,
        pipeline: &FlowPipeline,
        graphs: &[&Mig],
        models: &[CostTable],
        tally: Option<&RunTally>,
        sink: &(dyn Fn(&EngineCell) + Sync),
    ) -> Vec<EngineCell> {
        let caching = self.caching_enabled();
        let cost_aware = spec.uses_cost_aware_passes();
        let pipe_hash = spec.content_hash();
        // One content hash per circuit, computed once per sweep — a
        // direct arena walk, no intermediate serialization.
        let circuit_hashes: Vec<u64> = if caching {
            graphs.par_iter().map(|g| g.content_hash()).collect()
        } else {
            vec![0; graphs.len()]
        };
        let tech_hashes: Vec<u64> = models.iter().map(CostTable::content_hash).collect();

        let coords: Vec<(usize, Option<usize>)> = if models.is_empty() {
            (0..graphs.len()).map(|c| (c, None)).collect()
        } else {
            (0..graphs.len())
                .flat_map(|c| (0..models.len()).map(move |m| (c, Some(m))))
                .collect()
        };
        let keys: Vec<Option<CacheKey>> = coords
            .iter()
            .map(|&(circuit, technology)| {
                caching.then(|| CacheKey {
                    scope: Scope::Cell,
                    circuit: circuit_hashes[circuit],
                    pipeline: pipe_hash,
                    technology: technology.map_or(COST_BLIND, |m| tech_hashes[m]),
                })
            })
            .collect();
        let cell = |i: usize, cached: bool, outcome| {
            let (circuit, technology) = coords[i];
            let cell = EngineCell {
                circuit,
                technology,
                cached,
                outcome,
            };
            sink(&cell);
            cell
        };

        let indices: Vec<usize> = (0..coords.len()).collect();
        let mut cells: Vec<Option<EngineCell>> = indices
            .par_iter()
            .map(|&i| {
                let run = keys[i].and_then(|key| self.lookup_tallied(&key, tally))?;
                Some(cell(i, true, Ok(run)))
            })
            .collect();

        // Coordinates run circuit-major, so one circuit's misses are
        // adjacent.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for i in (0..coords.len()).filter(|&i| cells[i].is_none()) {
            match groups.last_mut() {
                Some(group) if !cost_aware && coords[group[0]].0 == coords[i].0 => group.push(i),
                _ => groups.push(vec![i]),
            }
        }
        let computed: Vec<Vec<(usize, EngineCell)>> = groups
            .par_iter()
            .map(|group| {
                let tables: Vec<&CostTable> = group
                    .iter()
                    .filter_map(|&i| coords[i].1.map(|m| &models[m]))
                    .collect();
                // A cost-aware group is one cell, executed under its
                // own model; a cost-blind one executes unpriced.
                let model = if cost_aware {
                    tables.first().copied()
                } else {
                    None
                };
                let outcomes: Vec<Result<Arc<PipelineRun>, PassError>> =
                    match pipeline.run_priced(graphs[coords[group[0]].0], model, &tables) {
                        Ok(runs) => {
                            let passes = runs[0].trace.len() as u64;
                            self.passes_executed.fetch_add(passes, Ordering::Relaxed);
                            if let Some(tally) = tally {
                                tally.passes.fetch_add(passes, Ordering::Relaxed);
                            }
                            runs.into_iter().map(|run| Ok(Arc::new(run))).collect()
                        }
                        Err(e) => group.iter().map(|_| Err(e.clone())).collect(),
                    };
                group
                    .iter()
                    .zip(outcomes)
                    .map(|(&i, outcome)| {
                        if caching {
                            self.misses.fetch_add(1, Ordering::Relaxed);
                            if let Some(tally) = tally {
                                tally.misses.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        if let (Ok(run), Some(key)) = (&outcome, keys[i]) {
                            self.store_tallied(key, run, tally);
                        }
                        (i, cell(i, false, outcome))
                    })
                    .collect()
            })
            .collect();
        for (i, done) in computed.into_iter().flatten() {
            cells[i] = Some(done);
        }
        cells
            .into_iter()
            .map(|cell| cell.expect("every cell is looked up or executed"))
            .collect()
    }

    /// Whether this engine caches at all (`with_cache_capacity(0)`
    /// turns everything off, disk tier included).
    pub(crate) fn caching_enabled(&self) -> bool {
        self.capacity != Some(0)
    }

    /// Tiered lookup: in-memory LRU first (counted as a cache hit),
    /// then the disk tier (counted as a disk hit and promoted back into
    /// memory). `None` means both tiers missed — only the disk-tier
    /// counter moves here; the caller decides whether the miss leads to
    /// a computation (and then counts `cache_misses`).
    pub(crate) fn lookup(&self, key: &CacheKey) -> Option<Arc<PipelineRun>> {
        self.lookup_tallied(key, None)
    }

    /// [`Engine::lookup`] with an optional per-run tally bumped in
    /// lockstep with the cumulative counters.
    pub(crate) fn lookup_tallied(
        &self,
        key: &CacheKey,
        tally: Option<&RunTally>,
    ) -> Option<Arc<PipelineRun>> {
        let hit = {
            let mut cache = self.lock_cache();
            cache.get_touch(key, self.capacity.is_some())
        };
        if let Some(run) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if let Some(tally) = tally {
                tally.hits.fetch_add(1, Ordering::Relaxed);
            }
            return Some(run);
        }
        let disk = self.disk.as_ref()?;
        match disk.load(key.scope.tag(), key.triple()) {
            Some(run) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                if let Some(tally) = tally {
                    tally.disk_hits.fetch_add(1, Ordering::Relaxed);
                }
                let run = Arc::new(run);
                self.insert(*key, run.clone(), tally);
                Some(run)
            }
            None => {
                self.disk_misses.fetch_add(1, Ordering::Relaxed);
                if let Some(tally) = tally {
                    tally.disk_misses.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
        }
    }

    /// Stores a computed run in both tiers (write-through).
    pub(crate) fn store(&self, key: CacheKey, run: &Arc<PipelineRun>) {
        self.store_tallied(key, run, None);
    }

    /// [`Engine::store`] with an optional per-run tally (evictions the
    /// insert triggers are attributed to the inserting run).
    pub(crate) fn store_tallied(
        &self,
        key: CacheKey,
        run: &Arc<PipelineRun>,
        tally: Option<&RunTally>,
    ) {
        self.insert(key, run.clone(), tally);
        if let Some(disk) = &self.disk {
            disk.store(key.scope.tag(), key.triple(), run);
        }
    }

    /// Bumps the incremental engine's cone telemetry.
    pub(crate) fn count_cones(&self, reused: u64, recomputed: u64) {
        self.cones_reused.fetch_add(reused, Ordering::Relaxed);
        self.cones_recomputed
            .fetch_add(recomputed, Ordering::Relaxed);
    }

    /// Counts a computation both tiers missed (and its executed passes).
    pub(crate) fn count_computed(&self, passes: u64) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.count_passes(passes);
    }

    /// Counts executed passes without a cache miss — what an uncached
    /// engine's computations record.
    pub(crate) fn count_passes(&self, passes: u64) {
        self.passes_executed.fetch_add(passes, Ordering::Relaxed);
    }

    fn insert(&self, key: CacheKey, run: Arc<PipelineRun>, tally: Option<&RunTally>) {
        let mut cache = self.lock_cache();
        if let Some(capacity) = self.capacity {
            while cache.cells.len() >= capacity {
                match cache.order.pop_front() {
                    Some(oldest) => {
                        cache.cells.remove(&oldest);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                        if let Some(tally) = tally {
                            tally.evictions.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    None => return, // capacity 0: never insert
                }
            }
        }
        if cache.cells.insert(key, run).is_none() {
            cache.order.push_back(key);
        }
    }

    fn resolve(&self, circuit: &CircuitSpec) -> Result<Mig, SpecError> {
        match circuit {
            CircuitSpec::Named(name) => self.resolve_name(name),
            // Synthetic requests resolve through the same registry
            // lookup under their canonical `synth:family:seed:k=v` name
            // (`benchsuite::build_mig` parses it back and generates);
            // the generated graph is then content-hashed like any other
            // circuit, so the cache key tracks (family, seed, params)
            // exactly as far as the generator is deterministic.
            CircuitSpec::Synthetic(synth) => self.resolve_name(&synth.name()),
            CircuitSpec::Inline { name, mig } => {
                mig::parse_mig(mig).map_err(|e| SpecError::InlineCircuit {
                    name: name.clone(),
                    error: e.to_string(),
                })
            }
        }
    }

    fn resolve_name(&self, name: &str) -> Result<Mig, SpecError> {
        let resolver = self
            .resolver
            .as_ref()
            .ok_or_else(|| SpecError::NoResolver(name.to_owned()))?;
        resolver(name).ok_or_else(|| SpecError::UnknownCircuit(name.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PipelineSpec;
    use crate::BufferStrategy;

    fn sample_mig(seed: u64) -> Mig {
        mig::random_mig(mig::RandomMigConfig {
            inputs: 8,
            outputs: 4,
            gates: 120,
            depth: 8,
            seed,
        })
    }

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

    fn resolver(name: &str) -> Option<Mig> {
        match name {
            "S1" => Some(sample_mig(1)),
            "S2" => Some(sample_mig(2)),
            _ => None,
        }
    }

    #[test]
    fn spec_run_covers_the_grid_and_matches_direct_runs() {
        let engine = Engine::new().with_resolver(resolver);
        let spec = FlowSpec::new("grid")
            .technology(flat_table())
            .circuit("S1")
            .circuit("S2");
        let run = engine.run(&spec).unwrap();
        assert_eq!(run.circuits, ["S1", "S2"]);
        assert_eq!(run.technologies, ["FLAT"]);
        assert_eq!(run.cells.len(), 2);
        let direct = PipelineSpec::default()
            .build()
            .unwrap()
            .run_with_model(&sample_mig(1), Some(&flat_table()))
            .unwrap();
        let cell = run.cell(0, 0).unwrap();
        assert_eq!(
            cell.run().unwrap().result.pipelined.counts(),
            direct.result.pipelined.counts()
        );
    }

    #[test]
    fn warm_cache_rerun_executes_zero_passes_and_is_bit_identical() {
        let engine = Engine::new().with_resolver(resolver);
        let spec = FlowSpec::new("warm")
            .technology(flat_table())
            .circuit("S1")
            .circuit("S2");
        let cold = engine.run(&spec).unwrap();
        assert_eq!(cold.stats.cache_misses, 2);
        assert!(cold.stats.passes_executed > 0);

        let warm = engine.run(&spec).unwrap();
        assert_eq!(warm.stats.passes_executed, 0, "zero pass executions");
        assert_eq!(warm.stats.cache_hits, 2);
        assert_eq!(warm.stats.cache_misses, 0);
        for (a, b) in cold.iter().zip(warm.iter()) {
            assert!(b.cached);
            let (a, b) = (a.run().unwrap(), b.run().unwrap());
            // Bit-identical including instrumentation (same Arc'd run).
            assert_eq!(a.trace, b.trace);
            assert_eq!(a.result.report, b.result.report);
        }
    }

    #[test]
    fn overlapping_sweep_only_recomputes_new_cells() {
        let engine = Engine::new().with_resolver(resolver);
        let small = FlowSpec::new("small")
            .technology(flat_table())
            .circuit("S1");
        engine.run(&small).unwrap();

        // Adding a circuit re-uses S1's cell, computes only S2's.
        let grown = FlowSpec::new("grown")
            .technology(flat_table())
            .circuit("S1")
            .circuit("S2");
        let run = engine.run(&grown).unwrap();
        assert_eq!(run.stats.cache_hits, 1);
        assert_eq!(run.stats.cache_misses, 1);

        // A different pipeline shares nothing.
        let other = grown.with_pipeline(
            PipelineSpec::map(false)
                .restrict_fanout(4)
                .insert_buffers(BufferStrategy::Asap)
                .verify(Some(4)),
        );
        let run = engine.run(&other).unwrap();
        assert_eq!(run.stats.cache_hits, 0);
        assert_eq!(run.stats.cache_misses, 2);
    }

    #[test]
    fn streaming_sink_sees_every_cell_exactly_once() {
        let engine = Engine::new().with_resolver(resolver);
        let spec = FlowSpec::new("stream")
            .technology(flat_table())
            .circuit("S1")
            .circuit("S2");
        let seen = Mutex::new(Vec::new());
        let run = engine
            .run_streaming(&spec, |cell| {
                seen.lock().unwrap().push((cell.circuit, cell.technology));
            })
            .unwrap();
        let mut seen = seen.into_inner().unwrap();
        seen.sort();
        assert_eq!(seen, vec![(0, Some(0)), (1, Some(0))]);
        assert_eq!(run.cells.len(), 2);
    }

    #[test]
    fn synthetic_circuits_resolve_through_the_registry_name() {
        // The resolver sees the canonical `synth:*` string; two runs of
        // the same request are one cache cell, different seeds are not.
        fn synth_resolver(name: &str) -> Option<Mig> {
            let seed: u64 = name.strip_prefix("synth:dag:")?.parse().ok()?;
            let mut g = sample_mig(seed);
            g.set_name(name);
            Some(g)
        }
        let engine = Engine::new().with_resolver(synth_resolver);
        let spec = FlowSpec::new("synth")
            .synthetic_circuit(crate::SynthSpec::new("dag", 1))
            .synthetic_circuit(crate::SynthSpec::new("dag", 2));
        let cold = engine.run(&spec).unwrap();
        assert_eq!(cold.circuits, ["synth:dag:1", "synth:dag:2"]);
        assert_eq!(cold.stats.cache_misses, 2, "distinct seeds, distinct keys");
        let warm = engine.run(&spec).unwrap();
        assert_eq!(warm.stats.cache_hits, 2);
        assert_eq!(warm.stats.passes_executed, 0);

        // Unknown families surface as UnknownCircuit under the name.
        let err = engine
            .run(&FlowSpec::new("u").synthetic_circuit(crate::SynthSpec::new("nope", 1)))
            .unwrap_err();
        assert!(matches!(
            err,
            FlowError::Spec(SpecError::UnknownCircuit(name)) if name == "synth:nope:1"
        ));
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let engine = Engine::new().with_resolver(resolver).with_cache_capacity(1);
        let s1 = FlowSpec::new("one").circuit("S1");
        let s2 = FlowSpec::new("two").circuit("S2");
        engine.run(&s1).unwrap();
        engine.run(&s2).unwrap(); // evicts S1 (capacity 1)
        let back = engine.run(&s1).unwrap();
        assert_eq!(back.stats.cache_hits, 0, "S1 was evicted");
        assert_eq!(back.stats.cache_misses, 1);
        assert!(back.stats.passes_executed > 0, "re-executes after eviction");
    }

    #[test]
    fn unresolvable_and_unparsable_circuits_are_spec_errors() {
        let engine = Engine::new().with_resolver(resolver);
        let unknown = FlowSpec::new("u").circuit("NOPE");
        assert!(matches!(
            engine.run(&unknown).unwrap_err(),
            FlowError::Spec(SpecError::UnknownCircuit(_))
        ));

        let no_resolver = Engine::new();
        let named = FlowSpec::new("n").circuit("S1");
        assert!(matches!(
            no_resolver.run(&named).unwrap_err(),
            FlowError::Spec(SpecError::NoResolver(_))
        ));

        let garbage = FlowSpec {
            circuits: vec![CircuitSpec::Inline {
                name: "bad".to_owned(),
                mig: "not a mig".to_owned(),
            }],
            ..FlowSpec::new("g")
        };
        assert!(matches!(
            engine.run(&garbage).unwrap_err(),
            FlowError::Spec(SpecError::InlineCircuit { .. })
        ));
    }

    #[test]
    fn ill_ordered_spec_pipelines_surface_the_pipeline_error() {
        let engine = Engine::new().with_resolver(resolver);
        let spec = FlowSpec::new("ill")
            .with_pipeline(
                PipelineSpec::map(false)
                    .insert_buffers(BufferStrategy::Asap)
                    .restrict_fanout(3),
            )
            .circuit("S1");
        assert!(matches!(
            engine.run(&spec).unwrap_err(),
            FlowError::Pipeline(crate::PipelineError::FanoutAfterBuffers)
        ));
    }

    #[test]
    fn cost_aware_pipeline_without_models_is_rejected_upfront() {
        // Same contract as FlowSpec::validate — no cell executes first.
        let engine = Engine::new().with_resolver(resolver);
        let pipeline = PipelineSpec::map(false)
            .restrict_fanout(3)
            .insert_buffers(BufferStrategy::CostAware);
        let g = sample_mig(1);
        let err = engine.run_pipeline_grid(&pipeline, &[&g], &[]).unwrap_err();
        assert!(matches!(
            err,
            FlowError::Spec(SpecError::CostAwareWithoutTechnology)
        ));
        assert_eq!(engine.stats().passes_executed, 0);
        // With a model it runs.
        assert!(engine
            .run_pipeline_grid(&pipeline, &[&g], &[flat_table()])
            .is_ok());
    }

    #[test]
    fn cost_blind_spec_runs_one_cell_per_circuit() {
        let engine = Engine::new().with_resolver(resolver);
        let run = engine
            .run(&FlowSpec::new("blind").circuit("S1").circuit("S2"))
            .unwrap();
        assert_eq!(run.cells.len(), 2);
        for cell in &run {
            assert_eq!(cell.technology, None);
            assert!(cell.run().unwrap().trace.iter().all(|s| s.priced.is_none()));
        }
    }

    #[test]
    fn capacity_bounds_the_cache() {
        let engine = Engine::new().with_resolver(resolver).with_cache_capacity(1);
        let spec = FlowSpec::new("cap")
            .technology(flat_table())
            .circuit("S1")
            .circuit("S2");
        engine.run(&spec).unwrap();
        assert_eq!(engine.cached_cells(), 1);

        let uncached = Engine::new().with_cache_capacity(0).with_resolver(resolver);
        uncached.run(&spec).unwrap();
        assert_eq!(uncached.cached_cells(), 0);
        assert_eq!(uncached.stats().cache_hits, 0);
        assert!(uncached.stats().passes_executed > 0);
    }

    #[test]
    fn disk_tier_survives_a_fresh_engine_with_zero_passes() {
        let dir = std::env::temp_dir().join(format!("wavepipe-engine-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = FlowSpec::new("disk")
            .technology(flat_table())
            .circuit("S1")
            .circuit("S2");

        let first = Engine::new().with_resolver(resolver).with_disk_cache(&dir);
        let cold = first.run(&spec).unwrap();
        assert_eq!(cold.stats.cache_misses, 2);
        assert_eq!(cold.stats.disk_misses, 2, "cold run consulted the disk");
        assert!(cold.stats.passes_executed > 0);

        // A fresh engine (fresh memory cache) with the same disk root:
        // zero passes, everything from disk, results bit-identical.
        let second = Engine::new().with_resolver(resolver).with_disk_cache(&dir);
        let warm = second.run(&spec).unwrap();
        assert_eq!(warm.stats.passes_executed, 0, "all cells from disk");
        assert_eq!(warm.stats.disk_hits, 2);
        assert_eq!(warm.stats.cache_misses, 0);
        for (a, b) in cold.iter().zip(warm.iter()) {
            assert!(b.cached);
            let (a, b) = (a.run().unwrap(), b.run().unwrap());
            assert_eq!(a.trace, b.trace, "disk round trip is bit-identical");
            assert_eq!(a.result.report, b.result.report);
        }

        // Promoted into memory: a third run on the same engine is pure
        // memory hits.
        let hot = second.run(&spec).unwrap();
        assert_eq!(hot.stats.cache_hits, 2);
        assert_eq!(hot.stats.disk_hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_recompute_instead_of_failing() {
        let dir =
            std::env::temp_dir().join(format!("wavepipe-engine-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = FlowSpec::new("corrupt").circuit("S1");
        Engine::new()
            .with_resolver(resolver)
            .with_disk_cache(&dir)
            .run(&spec)
            .unwrap();
        // Truncate every entry on disk.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            std::fs::write(&path, "{\"magic\":\"wavepipe-cache\"").unwrap();
        }
        let fresh = Engine::new().with_resolver(resolver).with_disk_cache(&dir);
        let run = fresh.run(&spec).unwrap();
        assert_eq!(run.stats.disk_hits, 0);
        assert_eq!(run.stats.disk_misses, 1);
        assert_eq!(run.stats.cache_misses, 1, "recomputed, not crashed");
        assert!(run.stats.passes_executed > 0);
        // … and the recompute repaired the entry.
        let repaired = Engine::new().with_resolver(resolver).with_disk_cache(&dir);
        assert_eq!(repaired.run(&spec).unwrap().stats.disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_evictions_are_counted() {
        let engine = Engine::new().with_resolver(resolver).with_cache_capacity(1);
        engine.run(&FlowSpec::new("one").circuit("S1")).unwrap();
        assert_eq!(engine.stats().evictions, 0);
        engine.run(&FlowSpec::new("two").circuit("S2")).unwrap();
        assert_eq!(engine.stats().evictions, 1, "S1's cell was evicted");
    }

    #[test]
    fn poisoned_cache_recovers_with_a_cleared_cache_fallback() {
        let engine = std::sync::Arc::new(Engine::new().with_resolver(resolver));
        let spec = FlowSpec::new("poison").circuit("S1");
        engine.run(&spec).unwrap();
        assert_eq!(engine.cached_cells(), 1);

        // Poison the cache mutex: panic on another thread while holding
        // the lock (the shape of a panicking request that dies inside a
        // cache mutation).
        let held = engine.clone();
        let _ = std::thread::spawn(move || {
            let _guard = held.cache.lock().unwrap();
            panic!("request dies while holding the cache lock");
        })
        .join();
        assert!(engine.cache.is_poisoned(), "the panic actually poisoned");

        // The engine still serves: recovery drops the (possibly torn)
        // cache and the run recomputes instead of panicking.
        let run = engine.run(&spec).unwrap();
        assert_eq!(run.stats.cache_hits, 0, "torn cache was dropped");
        assert_eq!(run.stats.cache_misses, 1);
        assert!(!engine.cache.is_poisoned(), "poison flag cleared");

        // ... and caching works again afterwards.
        let warm = engine.run(&spec).unwrap();
        assert_eq!(warm.stats.cache_hits, 1);
    }

    #[test]
    fn concurrent_runs_report_exact_per_run_stats() {
        // Two runs race on one engine; each run's stats must describe
        // that run alone (global-delta snapshots would mix them).
        let engine = std::sync::Arc::new(Engine::new().with_resolver(resolver));
        let threads: Vec<_> = [1u64, 2]
            .into_iter()
            .map(|seed| {
                let engine = engine.clone();
                std::thread::spawn(move || {
                    let name = if seed == 1 { "S1" } else { "S2" };
                    let spec = FlowSpec::new(format!("c{seed}")).circuit(name);
                    engine.run(&spec).unwrap().stats
                })
            })
            .collect();
        let stats: Vec<EngineStats> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        for s in &stats {
            assert_eq!(s.cache_hits + s.cache_misses, 1, "one cell per run");
        }
        let total = engine.stats();
        assert_eq!(
            total.cache_hits + total.cache_misses,
            stats.iter().map(|s| s.cache_hits + s.cache_misses).sum(),
            "per-run tallies partition the cumulative counters"
        );
        assert_eq!(
            total.passes_executed,
            stats.iter().map(|s| s.passes_executed).sum()
        );
    }

    #[test]
    fn clear_cache_forces_recomputation() {
        let engine = Engine::new().with_resolver(resolver);
        let spec = FlowSpec::new("clear").circuit("S1");
        engine.run(&spec).unwrap();
        engine.clear_cache();
        let run = engine.run(&spec).unwrap();
        assert_eq!(run.stats.cache_hits, 0);
        assert_eq!(run.stats.cache_misses, 1);
    }
}
