//! Suite-level experiment drivers: one function per paper table/figure,
//! shared by the regenerator binaries and the integration tests.
//!
//! Since the engine-facade redesign every driver expresses its flow
//! configuration as a declarative [`wavepipe::PipelineSpec`] and runs
//! it through a shared, long-lived [`Engine`] ([`engine`] wires the
//! `benchsuite` registry in as the circuit resolver). The engine sweeps
//! each circuit × technology grid on the work-pulling parallel
//! scheduler and keeps a content-hash keyed result cache, so the
//! experiments of one reproduction run *share work*: Fig 8's BUF-only
//! column is Fig 5's sweep re-served from cache, the retiming
//! ablation's ASAP arm is the inverter ablation's reference arm, and a
//! re-run of any driver on the same engine recomputes nothing
//! ([`Engine::stats`] exposes the hit/miss/pass counters `repro_all`
//! prints at the head of `flow_trace.txt`).
//!
//! The multi-technology experiments (Fig 9, Table II) still come back
//! as Table II comparisons plus per-(circuit, technology, pass)
//! **priced** instrumentation traces (wall time, component delta, depth
//! change, area/energy/cycle-time deltas under that technology's
//! [`tech::CostModel`]).

use std::sync::Arc;

use benchsuite::BenchmarkSpec;
use mig::Mig;
use rayon::prelude::*;
use tech::{BenchmarkRow, CostTable, Technology};
use wavepipe::{BufferStrategy, Engine, PassStats, PipelineRun, PipelineSpec};

use crate::fit::{fit_power_law, PowerLaw};

/// The engine every harness driver shares: the `benchsuite` registry as
/// circuit resolver, unbounded result cache. Keep one alive across
/// experiments — overlapping sweeps then only recompute changed cells.
pub fn engine() -> Engine {
    Engine::new().with_resolver(benchsuite::build_mig)
}

/// Builds the whole suite (or the named subset) once, generating the
/// circuits in parallel.
pub fn build_suite(subset: Option<&[&str]>) -> Vec<(&'static BenchmarkSpec, Mig)> {
    let specs: Vec<&'static BenchmarkSpec> = benchsuite::SUITE
        .iter()
        .filter(|s| subset.is_none_or(|names| names.contains(&s.name)))
        .collect();
    specs.par_iter().map(|spec| (*spec, spec.build())).collect()
}

/// A smaller deterministic subset for quick runs and perf benches
/// (spans 3 families, a few hundred to a few thousand gates).
pub const QUICK_SUBSET: [&str; 8] = [
    "SASC", "ADD32R", "MUL16", "HAMMING", "CRC8x64", "ALU16", "CMP32", "DES_AREA",
];

/// Runs one declarative pipeline spec over every circuit of `suite`
/// (cost-blind, cached), panicking with the benchmark name if any run
/// fails (suite circuits are known to verify).
fn run_spec_over(
    engine: &Engine,
    pipeline: &PipelineSpec,
    suite: &[(&'static BenchmarkSpec, Mig)],
) -> Vec<Arc<PipelineRun>> {
    let graphs: Vec<&Mig> = suite.iter().map(|(_, g)| g).collect();
    engine
        .run_pipeline_grid(pipeline, &graphs, &[])
        .unwrap_or_else(|e| panic!("harness pipeline spec rejected: {e}"))
        .into_iter()
        .zip(suite)
        .map(|(cell, (spec, _))| {
            cell.outcome
                .unwrap_or_else(|e| panic!("{}: flow failed: {e}", spec.name))
        })
        .collect()
}

/// The priced per-pass instrumentation of one (circuit, technology)
/// grid cell.
#[derive(Clone, Debug, serde::Serialize)]
pub struct PricedTrace {
    /// Benchmark name.
    pub circuit: String,
    /// Technology the cell ran under.
    pub technology: String,
    /// Per-pass instrumentation, priced under that technology.
    pub trace: Vec<PassStats>,
}

/// Everything one circuit × technology grid sweep produced.
#[derive(Clone, Debug)]
pub struct GridEvaluation {
    /// The technologies of the sweep, in [`Technology::all`] order.
    pub technologies: Vec<Technology>,
    /// Per-circuit comparisons, one per technology (Fig 9 / Table II
    /// source data), in suite order.
    pub evaluated: Vec<(String, Vec<tech::Comparison>)>,
    /// Per-(circuit, technology) priced traces, circuit-major.
    pub traces: Vec<PricedTrace>,
}

/// Runs the paper's default flow (FO3 + BUF) over the full circuit ×
/// technology grid in one cached engine sweep: every (circuit,
/// technology) cell is one task on the work-pulling scheduler, carries
/// that technology's cost model through the pipeline, and comes back as
/// a Table II comparison plus a priced per-pass trace. Panics with the
/// cell coordinates if any run fails (suite circuits are known to
/// verify).
///
/// Note the deliberate tradeoff: the default pipeline is cost-blind, so
/// each circuit's three cells recompute the same transformation on a
/// cold cache and only the pricing differs — in exchange for per-cell
/// cost threading, which is what lets cost-aware pipelines legitimately
/// produce *different* netlists per technology through the same driver.
/// On a warm engine the whole sweep is pure cache hits.
pub fn evaluate_suite_grid(
    engine: &Engine,
    suite: &[(&'static BenchmarkSpec, Mig)],
) -> GridEvaluation {
    let technologies = Technology::all();
    let tables: Vec<CostTable> = technologies.iter().map(Technology::cost_table).collect();
    let pipeline = PipelineSpec::default();
    let graphs: Vec<&Mig> = suite.iter().map(|(_, g)| g).collect();
    let cells = engine
        .run_pipeline_grid(&pipeline, &graphs, &tables)
        .unwrap_or_else(|e| panic!("grid pipeline spec rejected: {e}"));

    let mut evaluated: Vec<(String, Vec<tech::Comparison>)> = suite
        .iter()
        .map(|(spec, _)| (spec.name.to_owned(), Vec::with_capacity(technologies.len())))
        .collect();
    let mut traces = Vec::with_capacity(cells.len());
    for cell in cells {
        let spec = suite[cell.circuit].0;
        let ti = cell.technology.expect("priced grid cells carry a model");
        let technology = &technologies[ti];
        let run = cell
            .outcome
            .unwrap_or_else(|e| panic!("{} @ {}: flow failed: {e}", spec.name, technology.name));
        evaluated[cell.circuit]
            .1
            .push(tech::compare_with_table(&run.result, &tables[ti]));
        traces.push(PricedTrace {
            circuit: spec.name.to_owned(),
            technology: technology.name.clone(),
            trace: run.trace.clone(),
        });
    }
    GridEvaluation {
        technologies,
        evaluated,
        traces,
    }
}

/// One Fig 5 sample: buffers inserted by BUF alone vs original size.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Fig5Point {
    /// Benchmark name.
    pub name: String,
    /// Original mapped-netlist size (priced components).
    pub size: usize,
    /// Buffers inserted by buffer insertion alone.
    pub buffers: usize,
}

/// Runs buffer insertion alone over the given circuits (Fig 5) — the
/// BUF-only spec through the cached engine.
pub fn fig5_points(engine: &Engine, suite: &[(&'static BenchmarkSpec, Mig)]) -> Vec<Fig5Point> {
    let pipeline = PipelineSpec::map(false).insert_buffers(BufferStrategy::Asap);
    run_spec_over(engine, &pipeline, suite)
        .into_iter()
        .zip(suite)
        .map(|(run, (spec, _))| Fig5Point {
            name: spec.name.to_owned(),
            size: run.result.original_counts().priced_total(),
            buffers: run.result.buffers.expect("insertion pass ran").total(),
        })
        .collect()
}

/// Fits the Fig 5 power law to the sample points.
pub fn fig5_fit(points: &[Fig5Point]) -> PowerLaw {
    let samples: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| p.buffers > 0)
        .map(|p| (p.size as f64, p.buffers as f64))
        .collect();
    fit_power_law(&samples)
}

/// One Fig 7 row: critical-path increase per fan-out restriction.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Fig7Row {
    /// Benchmark name.
    pub name: String,
    /// Original critical-path length (mapped netlist).
    pub original_depth: u32,
    /// Relative depth increase for k = 2, 3, 4, 5 (e.g. 1.4 = +140 %).
    pub increase: [f64; 4],
}

/// Runs fan-out restriction alone for k ∈ {2,3,4,5} (Fig 7): four
/// FOk-only specs, each over the whole suite through the engine.
pub fn fig7_rows(engine: &Engine, suite: &[(&'static BenchmarkSpec, Mig)]) -> Vec<Fig7Row> {
    // Keep only the small Copy stats per run — the netlists of one
    // sweep are dropped (or cached) before the next sweep starts.
    let sweeps: Vec<Vec<wavepipe::FanoutRestriction>> = (2..=5u32)
        .map(|k| {
            let pipeline = PipelineSpec::map(false).restrict_fanout(k);
            run_spec_over(engine, &pipeline, suite)
                .into_iter()
                .map(|run| run.result.fanout.expect("restriction pass ran"))
                .collect()
        })
        .collect();
    suite
        .iter()
        .enumerate()
        .map(|(i, (spec, _))| Fig7Row {
            name: spec.name.to_owned(),
            original_depth: sweeps[0][i].depth_before,
            increase: std::array::from_fn(|k_index| sweeps[k_index][i].depth_increase()),
        })
        .collect()
}

/// Fig 8 aggregate: normalized component counts averaged over the suite.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Fig8Data {
    /// Normalized size after buffer insertion alone (paper: 3.81).
    pub buf_only: f64,
    /// Normalized size after FOk alone, k = 2..5 (paper: 2.48, 1.61,
    /// 1.35, 1.25).
    pub fo_only: [f64; 4],
    /// FOG share of the FOk-alone size (paper: .55, .26, .17, .13).
    pub fog_share: [f64; 4],
    /// Normalized size after FOk + BUF (paper: 9.74, 6.21, 5.30, 4.91).
    pub combined: [f64; 4],
    /// FOG share after FOk + BUF — equal to `fog_share` (paper
    /// observation (b): FOG count is independent of buffer insertion).
    pub combined_fog_share: [f64; 4],
}

/// Per-circuit Fig 8 sample.
struct Fig8Sample {
    buf_ratio: f64,
    fo_ratio: [f64; 4],
    fog_share: [f64; 4],
    combined_ratio: [f64; 4],
    combined_fog: [f64; 4],
}

/// Runs BUF and FOk+BUF over the suite and averages normalized sizes
/// (Fig 8). The five flow configurations are five declarative specs
/// swept through the engine; the BUF-only spec is the same cells Fig 5
/// runs, so on a shared engine one of the two is free. The FOk-*only*
/// numbers are not re-run — they are read off the combined run's
/// per-pass trace, whose `counts_after` for the restriction pass is
/// exactly the FOk-only netlist.
pub fn fig8_data(engine: &Engine, suite: &[(&'static BenchmarkSpec, Mig)]) -> Fig8Data {
    let buf_only = PipelineSpec::map(false).insert_buffers(BufferStrategy::Asap);
    let per_k: Vec<PipelineSpec> = (2..=5u32)
        .map(|k| {
            PipelineSpec::map(false)
                .restrict_fanout(k)
                .insert_buffers(BufferStrategy::Asap)
        })
        .collect();
    let runs: Vec<Vec<Arc<PipelineRun>>> = std::iter::once(&buf_only)
        .chain(per_k.iter())
        .map(|pipeline| run_spec_over(engine, pipeline, suite))
        .collect();

    let samples: Vec<Fig8Sample> = suite
        .iter()
        .enumerate()
        .map(|(ci, _)| {
            let buf = &runs[0][ci];
            let orig = buf.result.original_counts().priced_total() as f64;
            let mut sample = Fig8Sample {
                buf_ratio: buf.result.pipelined_counts().priced_total() as f64 / orig,
                fo_ratio: [0.0; 4],
                fog_share: [0.0; 4],
                combined_ratio: [0.0; 4],
                combined_fog: [0.0; 4],
            };
            for i in 0..per_k.len() {
                let full = &runs[1 + i][ci];
                // The netlist right after the restriction pass *is* the
                // FOk-only result; its counts are in the trace.
                let c = full
                    .trace
                    .iter()
                    .find(|p| p.pass.starts_with("fanout_restriction"))
                    .expect("combined pipeline restricts fan-out")
                    .counts_after;
                sample.fo_ratio[i] = c.priced_total() as f64 / orig;
                sample.fog_share[i] = c.fog as f64 / orig;

                let c = full.result.pipelined_counts();
                sample.combined_ratio[i] = c.priced_total() as f64 / orig;
                sample.combined_fog[i] = c.fog as f64 / orig;
            }
            sample
        })
        .collect();

    let avg = |pick: &dyn Fn(&Fig8Sample) -> f64| {
        tech::mean(&samples.iter().map(pick).collect::<Vec<_>>())
    };
    Fig8Data {
        buf_only: avg(&|s| s.buf_ratio),
        fo_only: std::array::from_fn(|i| avg(&|s| s.fo_ratio[i])),
        fog_share: std::array::from_fn(|i| avg(&|s| s.fog_share[i])),
        combined: std::array::from_fn(|i| avg(&|s| s.combined_ratio[i])),
        combined_fog_share: std::array::from_fn(|i| avg(&|s| s.combined_fog[i])),
    }
}

/// Fig 9 aggregate: T/A and T/P gains per technology, averaged over the
/// suite (both arithmetic mean, as the paper reports, and geometric
/// mean, the fairer average for ratios).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Fig9Data {
    /// Technology name.
    pub technology: String,
    /// Arithmetic-mean T/A gain (paper: 5× SWD, 8× QCA, 3× NML).
    pub ta_mean: f64,
    /// Arithmetic-mean T/P gain (paper: 23× SWD, 13× QCA, 5× NML).
    pub tp_mean: f64,
    /// Geometric-mean T/A gain.
    pub ta_geomean: f64,
    /// Geometric-mean T/P gain.
    pub tp_geomean: f64,
}

/// Runs the full flow (FO3 + BUF, the paper's §V configuration) over
/// the circuit × technology grid and returns the per-circuit
/// comparisons (Fig 9 + Table II source data). Thin wrapper over
/// [`evaluate_suite_grid`] for callers that don't need the priced
/// traces.
pub fn evaluate_suite(
    engine: &Engine,
    suite: &[(&'static BenchmarkSpec, Mig)],
) -> Vec<(String, Vec<tech::Comparison>)> {
    evaluate_suite_grid(engine, suite).evaluated
}

/// Aggregates [`evaluate_suite`] output into Fig 9 bars.
pub fn fig9_data(evaluated: &[(String, Vec<tech::Comparison>)]) -> Vec<Fig9Data> {
    let technologies = Technology::all();
    technologies
        .iter()
        .enumerate()
        .map(|(ti, t)| {
            let ta: Vec<f64> = evaluated.iter().map(|(_, c)| c[ti].ta_gain()).collect();
            let tp: Vec<f64> = evaluated.iter().map(|(_, c)| c[ti].tp_gain()).collect();
            Fig9Data {
                technology: t.name.clone(),
                ta_mean: tech::mean(&ta),
                tp_mean: tech::mean(&tp),
                ta_geomean: tech::geometric_mean(&ta),
                tp_geomean: tech::geometric_mean(&tp),
            }
        })
        .collect()
}

/// Table II rows for every technology, read off an already-computed
/// grid sweep. The grid must cover the paper's seven selected
/// benchmarks — `repro_all` hands in the full-suite grid, the `table2`
/// binary a grid over just the selection.
///
/// # Panics
///
/// Panics if a Table II benchmark is missing from the grid.
pub fn table2_from_grid(grid: &GridEvaluation) -> Vec<(String, Vec<BenchmarkRow>)> {
    rows_from_grid(grid, &benchsuite::TABLE2_SELECTION)
}

/// [`table2_from_grid`] for an arbitrary benchmark selection: one row
/// table per technology, rows in `selection` order.
///
/// # Panics
///
/// Panics if a selected benchmark is missing from the grid.
pub fn rows_from_grid(
    grid: &GridEvaluation,
    selection: &[&str],
) -> Vec<(String, Vec<BenchmarkRow>)> {
    grid.technologies
        .iter()
        .enumerate()
        .map(|(ti, technology)| {
            let rows = selection
                .iter()
                .map(|name| {
                    let (_, comparisons) = grid
                        .evaluated
                        .iter()
                        .find(|(n, _)| n == name)
                        .unwrap_or_else(|| panic!("benchmark {name} not in the grid"));
                    BenchmarkRow {
                        benchmark: (*name).to_owned(),
                        comparison: comparisons[ti].clone(),
                    }
                })
                .collect();
            (technology.name.clone(), rows)
        })
        .collect()
}

/// Ablation: ASAP vs retimed buffer insertion over the suite.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct RetimingAblation {
    /// Benchmark name.
    pub name: String,
    /// Buffers inserted against ASAP levels (the paper's Algorithm 1).
    pub asap_buffers: usize,
    /// Buffers inserted against hill-climbed levels.
    pub retimed_buffers: usize,
}

impl RetimingAblation {
    /// Fraction of buffers saved by retiming.
    pub fn saving(&self) -> f64 {
        if self.asap_buffers == 0 {
            0.0
        } else {
            1.0 - self.retimed_buffers as f64 / self.asap_buffers as f64
        }
    }
}

/// Runs the retiming ablation: the same FO3 spec with the two insertion
/// strategies swapped — a one-line spec edit. The ASAP arm is the
/// paper's default pipeline, so on a shared engine it is served from
/// the cache of whichever driver ran it first.
pub fn retiming_ablation(
    engine: &Engine,
    suite: &[(&'static BenchmarkSpec, Mig)],
) -> Vec<RetimingAblation> {
    let strategy_spec = |strategy| {
        PipelineSpec::map(false)
            .restrict_fanout(3)
            .insert_buffers(strategy)
            .verify(Some(3))
    };
    // Reduce each suite run to its buffer totals immediately so two
    // suites' worth of netlists are never alive at once (beyond what
    // the engine cache retains).
    let buffer_totals = |strategy| -> Vec<usize> {
        run_spec_over(engine, &strategy_spec(strategy), suite)
            .into_iter()
            .map(|run| run.result.buffers.expect("insertion ran").total())
            .collect()
    };
    let asap = buffer_totals(BufferStrategy::Asap);
    let retimed = buffer_totals(BufferStrategy::Retimed);
    suite
        .iter()
        .zip(asap.into_iter().zip(retimed))
        .map(
            |((spec, _), (asap_buffers, retimed_buffers))| RetimingAblation {
                name: spec.name.to_owned(),
                asap_buffers,
                retimed_buffers,
            },
        )
        .collect()
}

/// Ablation: reference mapping vs inversion-minimized mapping, priced
/// on QCA (where the inverter is 10×/7×/10× a cell).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct InverterAblation {
    /// Benchmark name.
    pub name: String,
    /// Inverters under the reference mapping.
    pub plain_inv: usize,
    /// Inverters under the polarity local search.
    pub min_inv: usize,
    /// QCA wave-pipelined area under the reference mapping (µm²).
    pub plain_qca_area: f64,
    /// QCA wave-pipelined area under the minimized mapping (µm²).
    pub min_qca_area: f64,
}

impl InverterAblation {
    /// Fraction of inverters removed.
    pub fn inv_saving(&self) -> f64 {
        if self.plain_inv == 0 {
            0.0
        } else {
            1.0 - self.min_inv as f64 / self.plain_inv as f64
        }
    }
}

/// Runs the inversion-minimization ablation over the given circuits:
/// the default flow with the mapping pass swapped (a `minimize_inverters`
/// toggle on the spec).
pub fn inverter_ablation(
    engine: &Engine,
    suite: &[(&'static BenchmarkSpec, Mig)],
) -> Vec<InverterAblation> {
    let qca = Technology::qca();
    let plain = PipelineSpec::default();
    let min = PipelineSpec {
        minimize_inverters: true,
        ..PipelineSpec::default()
    };
    let plain_runs = run_spec_over(engine, &plain, suite);
    let min_runs = run_spec_over(engine, &min, suite);
    suite
        .iter()
        .zip(plain_runs.into_iter().zip(min_runs))
        .map(|((spec, _), (plain, min))| InverterAblation {
            name: spec.name.to_owned(),
            plain_inv: plain.result.original.counts().inv,
            min_inv: min.result.original.counts().inv,
            plain_qca_area: tech::evaluate(
                &plain.result.pipelined,
                &qca,
                tech::OperatingMode::WavePipelined,
            )
            .area
            .value(),
            min_qca_area: tech::evaluate(
                &min.result.pipelined,
                &qca,
                tech::OperatingMode::WavePipelined,
            )
            .area
            .value(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tech::compare;

    fn quick_suite() -> Vec<(&'static BenchmarkSpec, Mig)> {
        build_suite(Some(&QUICK_SUBSET))
    }

    #[test]
    fn fig5_buffers_grow_with_size() {
        let engine = engine();
        let suite = quick_suite();
        let points = fig5_points(&engine, &suite);
        assert_eq!(points.len(), QUICK_SUBSET.len());
        let fit = fig5_fit(&points);
        assert!(fit.exponent > 0.0, "buffers must grow with size");
    }

    #[test]
    fn fig7_k2_dominates_k5() {
        let engine = engine();
        let suite = quick_suite();
        for row in fig7_rows(&engine, &suite) {
            assert!(
                row.increase[0] >= row.increase[3],
                "{}: k=2 increase {} < k=5 increase {}",
                row.name,
                row.increase[0],
                row.increase[3]
            );
        }
    }

    #[test]
    fn fig8_orderings_match_the_paper() {
        let engine = engine();
        let suite = quick_suite();
        let d = fig8_data(&engine, &suite);
        assert!(d.buf_only > 1.0);
        // FO ratios fall as the limit loosens.
        assert!(d.fo_only[0] > d.fo_only[1]);
        assert!(d.fo_only[1] > d.fo_only[2]);
        assert!(d.fo_only[2] > d.fo_only[3]);
        // Combined dominates both individual passes.
        for i in 0..4 {
            assert!(d.combined[i] > d.buf_only.max(d.fo_only[i]));
            // Observation (b): FOG count independent of BUF.
            assert!((d.fog_share[i] - d.combined_fog_share[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn fig9_gains_exceed_one_on_deep_suites() {
        let engine = engine();
        let suite = build_suite(Some(&["MUL16", "HAMMING", "CRC8x64"]));
        let evaluated = evaluate_suite(&engine, &suite);
        for f in fig9_data(&evaluated) {
            assert!(f.ta_mean > 1.0, "{}: T/A {}", f.technology, f.ta_mean);
            assert!(f.tp_mean > 1.0, "{}: T/P {}", f.technology, f.tp_mean);
        }
    }

    #[test]
    fn inverter_ablation_never_loses() {
        let engine = engine();
        let suite = quick_suite();
        for row in inverter_ablation(&engine, &suite) {
            assert!(
                row.min_inv <= row.plain_inv,
                "{}: min-inv {} > plain {}",
                row.name,
                row.min_inv,
                row.plain_inv
            );
        }
    }

    #[test]
    fn retiming_never_loses() {
        let engine = engine();
        let suite = quick_suite();
        for row in retiming_ablation(&engine, &suite) {
            assert!(
                row.retimed_buffers <= row.asap_buffers,
                "{}: retimed {} > asap {}",
                row.name,
                row.retimed_buffers,
                row.asap_buffers
            );
            assert!(row.saving() >= 0.0);
        }
    }

    #[test]
    fn drivers_share_the_engine_cache() {
        // Fig 8's BUF-only column is exactly Fig 5's sweep, and the
        // retiming ablation's ASAP arm is the inverter ablation's
        // reference arm — on one engine the overlap is free.
        let engine = engine();
        let suite = build_suite(Some(&["SASC", "ALU16"]));
        fig5_points(&engine, &suite);
        let after_fig5 = engine.stats();
        fig8_data(&engine, &suite);
        let after_fig8 = engine.stats();
        assert!(
            after_fig8.cache_hits >= after_fig5.cache_hits + suite.len() as u64,
            "fig8 must re-serve fig5's BUF-only cells: {after_fig8:?}"
        );

        inverter_ablation(&engine, &suite);
        let before = engine.stats();
        retiming_ablation(&engine, &suite);
        let after = engine.stats();
        assert!(
            after.cache_hits >= before.cache_hits + suite.len() as u64,
            "retiming's ASAP arm must be cached: {before:?} -> {after:?}"
        );

        // And a verbatim re-run of a whole driver executes nothing.
        let before = engine.stats();
        fig5_points(&engine, &suite);
        let after = engine.stats();
        assert_eq!(after.passes_executed, before.passes_executed);
        assert_eq!(after.cache_misses, before.cache_misses);
    }

    #[test]
    fn grid_traces_cover_every_cell_of_every_benchmark() {
        let engine = engine();
        let suite = build_suite(Some(&["SASC", "HAMMING"]));
        let grid = evaluate_suite_grid(&engine, &suite);
        // One priced trace per (circuit, technology) cell.
        assert_eq!(grid.traces.len(), 2 * grid.technologies.len());
        for t in &grid.traces {
            let name = format!("{} @ {}", t.circuit, t.technology);
            assert_eq!(t.trace.len(), 4, "{name}: map + FO + BUF + verify");
            assert!(t.trace.iter().any(|p| p.added.fog > 0), "{name}");
            assert!(t.trace.iter().any(|p| p.added.buf > 0), "{name}");
            for pass in &t.trace {
                let priced = pass.priced.as_ref().expect("grid runs are priced");
                assert_eq!(priced.model, t.technology, "{name}");
                assert!(priced.area_delta() >= 0.0, "{name}: flow only adds");
            }
        }
    }

    #[test]
    fn benchmark_rows_read_off_the_grid() {
        let engine = engine();
        let selection = ["HAMMING", "SASC"];
        let suite = build_suite(Some(&["SASC", "HAMMING"]));
        let grid = evaluate_suite_grid(&engine, &suite);
        let tables = rows_from_grid(&grid, &selection);
        assert_eq!(tables.len(), 3);
        for (technology, rows) in &tables {
            // Rows come back in selection order, not suite order.
            assert_eq!(rows.len(), 2);
            for (row, name) in rows.iter().zip(selection) {
                assert_eq!(row.benchmark, name, "{technology}");
                assert_eq!(row.comparison.technology, *technology);
            }
        }
    }

    #[test]
    fn parallel_suite_evaluation_matches_serial_flow() {
        // The cached grid driver must be a pure parallelization:
        // identical results to one-at-a-time runs of the same spec.
        let engine = engine();
        let suite = build_suite(Some(&["SASC", "ALU16"]));
        let evaluated = evaluate_suite(&engine, &suite);
        let pipeline = PipelineSpec::default().build().unwrap();
        for ((spec, g), (name, comparisons)) in suite.iter().zip(&evaluated) {
            assert_eq!(spec.name, name);
            let serial = pipeline.run(g).unwrap().result;
            let technologies = Technology::all();
            for (t, c) in technologies.iter().zip(comparisons) {
                assert_eq!(compare(&serial, t), *c);
            }
        }
    }
}
