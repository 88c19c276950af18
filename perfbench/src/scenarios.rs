//! The engine-side scenarios: cold, warm, disk and store runs of the
//! workload's whole spec, and the seeded ECO script.

use std::path::Path;
use std::time::{Duration, Instant};

use mig::{Node, NodeId, Signal};
use rayon::prelude::*;
use wavepipe::{persist, Engine, EngineEdit, EngineRun, FlowSpec, IncrementalSession, PipelineRun};

use crate::stats::{ms, Timings};
use crate::trace::Tracer;
use crate::workload::{Rng, Workload};
use crate::Ledger;

/// Edits in the seeded ECO script. At 40 edits the p50 moved ±17%
/// between runs; p90 needs ten samples beyond it, and at 200 edits it
/// still moved with the script.
pub const ECO_EDITS: usize = 1200;
/// Edits per ECO sample. A single edit takes about 5 ms, short enough
/// that the host's stolen-CPU bursts decided which edits made the p90.
/// Means of five still let two bursty runs in ten read a p90 2-3x their
/// p50; a sample of ten back-to-back edits (about 45 ms) takes its share
/// of a burst instead. 1200 edits give 120 samples, twelve beyond p90.
pub const ECO_BATCH: usize = 10;

/// Cache entries the ECO engine keeps beyond one per output cone.
const ECO_STALE_ENTRIES: usize = 16;

pub fn engine() -> Engine {
    Engine::new().with_resolver(benchsuite::build_mig)
}

/// 64-bit FNV-1a of a run's canonical JSON: byte identity without
/// keeping tens of megabytes of text around.
pub fn digest(run: &PipelineRun) -> u64 {
    persist::run_to_json(run)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

/// [`digest`] with the per-pass wall-clock fields zeroed: two separate
/// executions of the same cell agree on everything else byte for byte.
pub fn content_digest(run: &PipelineRun) -> u64 {
    let mut run = run.clone();
    for pass in &mut run.trace {
        pass.micros = 0;
    }
    digest(&run)
}

pub fn components(run: &PipelineRun) -> u64 {
    let c = run.result.pipelined.counts();
    (c.inputs + c.consts + c.maj + c.inv + c.buf + c.fog) as u64
}

/// What the first cold run produced; every later result is compared
/// against it.
pub struct Reference {
    /// Timing-free digests of the cells ([`content_digest`]).
    pub content: Vec<u64>,
    /// Components per cell, circuit-major (the daemon's cell events
    /// are checked against these).
    pub components: Vec<u64>,
    pub out_components: u64,
    pub out_depth: u64,
    pub cells: usize,
    pub technologies: usize,
}

impl Reference {
    pub fn of(run: &EngineRun) -> Result<Reference, String> {
        let runs: Vec<&PipelineRun> = run
            .cells
            .iter()
            .map(|c| {
                c.run()
                    .ok_or_else(|| format!("cell {}/{:?} failed", c.circuit, c.technology))
            })
            .collect::<Result<_, _>>()?;
        let depth = runs
            .iter()
            .map(|r| {
                r.result
                    .report
                    .as_ref()
                    .map_or(0, |rep| u64::from(rep.depth))
            })
            .max()
            .unwrap_or(0);
        let comps: Vec<u64> = runs.iter().map(|r| components(r)).collect();
        Ok(Reference {
            content: digests(run, content_digest),
            out_components: comps.iter().sum(),
            components: comps,
            out_depth: depth,
            cells: run.cells.len(),
            technologies: run.technologies.len().max(1),
        })
    }
}

pub fn digests(run: &EngineRun, digest: fn(&PipelineRun) -> u64) -> Vec<u64> {
    run.cells
        .par_iter()
        .map(|c| c.run().map_or(0, digest))
        .collect()
}

fn timed_run(engine: &Engine, spec: &FlowSpec) -> (Result<EngineRun, String>, Duration) {
    let started = Instant::now();
    let run = engine.run(spec);
    (run.map_err(|e| e.to_string()), started.elapsed())
}

/// One cold run on a fresh memory-only engine, unrecorded: it warms the
/// process up, and its result is what every later run is compared with.
pub fn reference(w: &Workload, ledger: &mut Ledger) -> Option<(Reference, Engine)> {
    let engine = engine();
    let checked = engine
        .run(&w.spec)
        .map_err(|e| e.to_string())
        .and_then(|run| Reference::of(&run));
    match checked {
        Ok(reference) => {
            ledger.check(true, String::new);
            Some((reference, engine))
        }
        Err(e) => {
            ledger.check(false, || format!("reference cold run: {e}"));
            None
        }
    }
}

/// Whole-spec runs on fresh memory-only engines until `budget` is used
/// (at least `min` of them).
pub fn cold(w: &Workload, t: &mut Timings, budget: Duration, min: usize, ledger: &mut Ledger) {
    let started = Instant::now();
    let mut n = 0;
    while n < min || started.elapsed() < budget {
        let (run, took) = timed_run(&engine(), &w.spec);
        t.samples.push(ms(took));
        let ok = run.as_ref().is_ok_and(|r| {
            r.stats.passes_executed > 0 && r.cells.iter().all(|c| c.run().is_some())
        });
        ledger.check(ok, || format!("cold run: {:?}", run.as_ref().err()));
        n += 1;
    }
}

/// The same spec again on the reference engine, every cell a memory
/// hit; `check` also compares the result with the reference.
pub fn warm(
    w: &Workload,
    engine: &Engine,
    reference: &Reference,
    t: &mut Timings,
    budget: Duration,
    check: bool,
    ledger: &mut Ledger,
) {
    let started = Instant::now();
    let mut last = None;
    if t.samples.is_empty() {
        // Three probes: the fastest one sizes the batch.
        last = t.size_batch(3, || engine.run(&w.spec)).and_then(Result::ok);
    }
    let mut batches = 0;
    while batches == 0 || started.elapsed() < budget {
        batches += 1;
        for run in t.time(|| engine.run(&w.spec)) {
            let ok = run.as_ref().is_ok_and(|r| {
                r.stats.passes_executed == 0 && r.stats.cache_hits == reference.cells as u64
            });
            ledger.check(ok, || "warm run was not all memory hits".to_owned());
            last = run.ok();
        }
    }
    if check {
        let same = last.is_some_and(|r| digests(&r, content_digest) == reference.content);
        ledger.check(same, || {
            "warm result differs from the cold result".to_owned()
        });
    }
}

/// Fills `dir` with a write-through cold run (used by set-up) and
/// returns that run: the disk tier must give it back byte for byte.
pub fn fill_disk(w: &Workload, dir: &Path) -> Result<EngineRun, String> {
    let _ = std::fs::remove_dir_all(dir);
    let run = engine()
        .with_disk_cache(dir)
        .run(&w.spec)
        .map_err(|e| e.to_string())?;
    if run.stats.passes_executed == 0 {
        return Err("disk fill executed no passes".to_owned());
    }
    Ok(run)
}

/// One fresh engine over the disk tier filled in set-up: the read
/// path. `filled` are the exact digests of the run that filled it;
/// `check` compares the result with them byte for byte.
pub fn disk(
    w: &Workload,
    dir: &Path,
    filled: &[u64],
    t: &mut Timings,
    check: bool,
    ledger: &mut Ledger,
) {
    let (run, took) = timed_run(&engine().with_disk_cache(dir), &w.spec);
    t.samples.push(ms(took));
    let ok = run.as_ref().is_ok_and(|r| {
        r.stats.passes_executed == 0
            && r.stats.disk_hits == filled.len() as u64
            && (!check || digests(r, digest) == filled)
    });
    ledger.check(ok, || {
        "disk run was not zero-pass and byte-identical to the stored run".to_owned()
    });
}

/// One cold run with write-through into an empty disk tier: the write
/// path. `check` compares the result with the reference.
pub fn store(
    w: &Workload,
    dir: &Path,
    reference: &Reference,
    t: &mut Timings,
    check: bool,
    ledger: &mut Ledger,
) {
    let _ = std::fs::remove_dir_all(dir);
    let (run, took) = timed_run(&engine().with_disk_cache(dir), &w.spec);
    t.samples.push(ms(took));
    let ok = run.as_ref().is_ok_and(|r| {
        r.stats.passes_executed > 0 && (!check || digests(r, content_digest) == reference.content)
    });
    ledger.check(ok, || "store run differs from the cold result".to_owned());
    let _ = std::fs::remove_dir_all(dir);
}

/// A seeded gate signal: a majority node among the first `nodes` of
/// the graph, picked uniformly, complemented on odd draws.
fn pick_gate(graph: &mig::Mig, nodes: usize, rng: &mut Rng, taken: &[NodeId]) -> Signal {
    loop {
        let id = NodeId::from_index(rng.below(nodes));
        if matches!(graph.node(id), Node::Majority(_)) && !taken.contains(&id) {
            return Signal::new(id, rng.next_u64() & 1 == 1);
        }
    }
}

fn open_session<'e>(engine: &'e Engine, w: &Workload, graph: mig::Mig) -> IncrementalSession<'e> {
    let session = engine.incremental(graph, w.eco_pipeline.clone());
    match &w.eco_model {
        Some(model) => session.with_model(model.clone()),
        None => session,
    }
}

/// The ECO session's engine. Bounded: an unbounded engine keeps every
/// edit's whole-graph spliced result (tens of MB each on a 10⁵-gate
/// graph). The bound leaves room for every live cone, so clean cones
/// are never evicted.
pub fn eco_engine(w: &Workload) -> Engine {
    Engine::new().with_cache_capacity(w.eco_graph.output_count() + ECO_STALE_ENTRIES)
}

/// The seeded ECO script, run a slice at a time: each edit adds one
/// majority gate over three existing gates and rewires one output to
/// it, then re-runs. Each re-run must recompute exactly one cone, and
/// the final state must be byte-identical to a cold recompute of the
/// edited graph.
pub struct Eco<'e> {
    session: IncrementalSession<'e>,
    rng: Rng,
    outputs: usize,
    nodes: usize,
    last: Option<std::sync::Arc<PipelineRun>>,
    pub edit_ms: Vec<f64>,
    pub apply_ms: Vec<f64>,
    pub run_ms: Vec<f64>,
    pub cones_recomputed: u64,
    pub cones_reused: u64,
}

impl<'e> Eco<'e> {
    /// Opens the session and runs it once, cold.
    pub fn start(engine: &'e Engine, w: &Workload, seed: u64, ledger: &mut Ledger) -> Eco<'e> {
        let mut session = open_session(engine, w, w.eco_graph.clone());
        let first = session.run();
        ledger.check(first.is_ok(), || {
            format!("ECO baseline run: {:?}", first.err())
        });
        Eco {
            session,
            rng: Rng::new(seed ^ 0xEC0),
            outputs: w.eco_graph.output_count(),
            nodes: w.eco_graph.node_count(),
            last: None,
            edit_ms: Vec::new(),
            apply_ms: Vec::new(),
            run_ms: Vec::new(),
            cones_recomputed: 0,
            cones_reused: 0,
        }
    }

    /// The next `n` edits of the script.
    pub fn edits(&mut self, n: usize, tracer: &Tracer, ledger: &mut Ledger) {
        for _ in 0..n {
            let op = self.edit_ms.len() as u64;
            let session = &mut self.session;
            // Fan-ins come from the unedited graph, so every edit of the
            // script draws from the same distribution of cone sizes.
            let nodes = self.nodes;
            let a = pick_gate(session.graph(), nodes, &mut self.rng, &[]);
            let b = pick_gate(session.graph(), nodes, &mut self.rng, &[a.node()]);
            let c = pick_gate(session.graph(), nodes, &mut self.rng, &[a.node(), b.node()]);
            let position = self.rng.below(self.outputs);
            let started = Instant::now();
            let applied = tracer.span("incremental.apply", op, 0, |_| {
                let gate = session.apply(EngineEdit::AddGate {
                    a,
                    b,
                    c,
                    output: None,
                });
                let Ok(Some(signal)) = gate else {
                    return false;
                };
                session
                    .apply(EngineEdit::RewireOutput { position, signal })
                    .is_ok()
            });
            let applied_at = Instant::now();
            let outcome = tracer.span("incremental.run", op, 0, |_| session.run());
            let done = Instant::now();
            self.apply_ms.push(ms(applied_at - started));
            self.run_ms.push(ms(done - applied_at));
            self.edit_ms.push(ms(done - started));
            let ok = applied
                && outcome
                    .as_ref()
                    .is_ok_and(|o| o.cones_recomputed == 1 && !o.spliced_reused);
            ledger.check(ok, || {
                format!("ECO edit {op} did not recompute exactly one cone")
            });
            if let Ok(o) = outcome {
                self.cones_recomputed += o.cones_recomputed;
                self.cones_reused += o.cones_reused;
                self.last = Some(o.run);
            }
        }
    }

    /// Per-edit time, averaged over consecutive batches of
    /// [`ECO_BATCH`] edits.
    pub fn batch_ms(&self) -> Vec<f64> {
        self.edit_ms
            .chunks(ECO_BATCH)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect()
    }

    /// Compares the final state with a cold recompute of the edited
    /// graph on a fresh engine.
    pub fn finish(&self, w: &Workload, ledger: &mut Ledger) {
        let engine = Engine::new();
        let mut cold = open_session(&engine, w, self.session.graph().clone());
        let same = match (cold.run(), &self.last) {
            (Ok(cold), Some(last)) => persist::run_to_json(&cold.run) == persist::run_to_json(last),
            _ => false,
        };
        ledger.check(same, || {
            "final ECO state differs from a cold recompute".to_owned()
        });
    }
}
