//! Acceptance tests for the engine-facade redesign: `FlowSpec` JSON
//! round-trips, spec validation rejects malformed experiments, and
//! `Engine`-driven runs are bit-identical to direct pipeline runs, cost
//! blind and priced — with a warm-cache re-run performing
//! **zero pass executions** (pinned via the engine's `PassStats`-derived
//! counters) while returning identical results.

use tech::Technology;
use wave_pipelining::prelude::*;
use wavepipe::{BufferStrategy, CostTable, PipelineError, SpecError};
use wavepipe_bench::harness::{build_suite, QUICK_SUBSET};

fn suite_engine() -> Engine {
    Engine::new().with_resolver(benchsuite::build_mig)
}

fn tables() -> Vec<CostTable> {
    Technology::all()
        .iter()
        .map(Technology::cost_table)
        .collect()
}

fn quick_spec(name: &str) -> FlowSpec {
    let mut spec = FlowSpec::new(name);
    for bench in QUICK_SUBSET {
        spec = spec.circuit(bench);
    }
    for table in tables() {
        spec = spec.technology(table);
    }
    spec
}

#[test]
fn spec_with_real_technologies_round_trips_through_json() {
    let spec = quick_spec("round-trip");
    let back = FlowSpec::from_json(&spec.to_json()).expect("round-trips");
    assert_eq!(spec, back);
    assert_eq!(spec.content_hash(), back.content_hash());
    // The Table I constants survive exactly (shortest-round-trip float
    // formatting), so the cache identity is preserved across the trip.
    for (a, b) in spec.technologies.iter().zip(&back.technologies) {
        assert_eq!(a.content_hash(), b.content_hash());
    }
}

#[test]
fn checked_in_example_spec_parses_and_validates() {
    let text =
        std::fs::read_to_string("examples/engine_spec.json").expect("checked-in spec exists");
    let spec = FlowSpec::from_json(&text).expect("parses");
    spec.validate().expect("validates");
    assert_eq!(spec.technologies.len(), 3);
    // And its technologies are literally the Table I models.
    for (table, technology) in spec.technologies.iter().zip(Technology::all()) {
        assert_eq!(table.content_hash(), technology.content_hash());
    }
}

#[test]
fn spec_validation_rejects_bad_experiments() {
    let engine = suite_engine();
    assert_eq!(
        FlowSpec::new("empty").validate(),
        Err(SpecError::EmptyCircuits)
    );
    assert!(matches!(
        engine.run(&FlowSpec::new("dup").circuit("SASC").circuit("SASC")),
        Err(FlowError::Spec(SpecError::DuplicateCircuit(_)))
    ));
    assert!(matches!(
        engine.run(&FlowSpec::new("unknown").circuit("NOT_A_BENCHMARK")),
        Err(FlowError::Spec(SpecError::UnknownCircuit(_)))
    ));
    let err = engine
        .run(
            &FlowSpec::new("k6")
                .with_pipeline(PipelineSpec::map(false).restrict_fanout(6))
                .circuit("SASC"),
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            FlowError::Pipeline(PipelineError::FanoutLimitOutOfRange(6))
        ),
        "{err:?}"
    );
    assert!(
        err.to_string()
            .ends_with("fan-out limit 6 is outside the feasible range 2..=5 (§IV)"),
        "{err}"
    );
    // A verify pass's fan-out bound is range-checked too, before any
    // pass runs.
    let err = engine
        .run(
            &FlowSpec::new("verify-k1")
                .with_pipeline(
                    PipelineSpec::map(false)
                        .restrict_fanout(3)
                        .insert_buffers(BufferStrategy::Asap)
                        .verify(Some(1)),
                )
                .circuit("SASC"),
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            FlowError::Pipeline(PipelineError::FanoutLimitOutOfRange(1))
        ),
        "{err:?}"
    );
    assert_eq!(engine.stats().passes_executed, 0);
    assert!(matches!(
        engine.run(
            &FlowSpec::new("ill")
                .with_pipeline(
                    PipelineSpec::map(false)
                        .insert_buffers(BufferStrategy::Asap)
                        .restrict_fanout(3)
                )
                .circuit("SASC")
        ),
        Err(FlowError::Pipeline(PipelineError::FanoutAfterBuffers))
    ));
}

/// A spec whose single pass is `pass`, as JSON text.
fn one_pass_spec_json(pass: &str) -> String {
    format!(
        r#"{{"name":"w","pipeline":{{"minimize_inverters":false,"passes":[{pass}]}},
            "technologies":[],"circuits":["SASC"]}}"#
    )
}

#[test]
fn out_of_range_delay_weights_are_rejected_before_anything_runs() {
    // Weights that wrap the arrival sums, and a 20000-phase inverter
    // that would have balancing insert millions of buffers on SASC.
    let engine = suite_engine();
    for weights in [
        r#"{"inv":4294967295,"maj":4294967295,"buf":1,"fog":1}"#,
        r#"{"inv":20000,"maj":1,"buf":1,"fog":1}"#,
    ] {
        for pass in [
            format!(r#"{{"pass":"insert_buffers","strategy":{{"weighted":{weights}}}}}"#),
            format!(r#"{{"pass":"verify_weighted","weights":{weights}}}"#),
        ] {
            let spec = FlowSpec::from_json(&one_pass_spec_json(&pass)).expect("parses");
            assert!(
                matches!(
                    spec.pipeline.build(),
                    Err(PipelineError::DelayWeightsOutOfRange(_))
                ),
                "{pass}"
            );
            assert!(matches!(
                engine.run(&spec),
                Err(FlowError::Pipeline(PipelineError::DelayWeightsOutOfRange(
                    _
                )))
            ));
        }
    }
}

#[test]
fn cost_blind_engine_runs_are_bit_identical_to_direct_runs_on_the_suite() {
    // A direct run of the spec's pipeline and the spec-driven engine
    // must agree exactly, circuit by circuit.
    let engine = suite_engine();
    let suite = build_suite(Some(&QUICK_SUBSET));
    let spec = {
        let mut spec = FlowSpec::new("golden");
        for (bench, _) in &suite {
            spec = spec.circuit(bench.name); // suite order
        }
        spec // cost-blind, like the direct runs
    };
    let pipeline = spec.pipeline.build().expect("well-ordered");
    let run = engine.run(&spec).expect("suite verifies");
    assert_eq!(run.circuits.len(), suite.len());
    for cell in &run {
        let (bench, g) = &suite[cell.circuit];
        assert_eq!(bench.name, run.circuits[cell.circuit]);
        let engine_result = &cell.outcome.as_ref().expect("verifies").result;
        let direct = pipeline.run(g).expect("direct run verifies").result;
        assert_eq!(
            engine_result.original.counts(),
            direct.original.counts(),
            "{}",
            bench.name
        );
        assert_eq!(
            engine_result.pipelined.counts(),
            direct.pipelined.counts(),
            "{}",
            bench.name
        );
        assert_eq!(
            engine_result.pipelined.depth(),
            direct.pipelined.depth(),
            "{}",
            bench.name
        );
        assert_eq!(engine_result.report, direct.report, "{}", bench.name);
        assert_eq!(engine_result.fanout, direct.fanout, "{}", bench.name);
        assert_eq!(engine_result.buffers, direct.buffers, "{}", bench.name);
    }
}

#[test]
fn engine_grid_is_bit_identical_to_direct_runs_on_the_suite() {
    // A cached spec-driven sweep must price every cell exactly as the
    // pipeline run directly on that cell's graph and model does.
    let engine = suite_engine();
    let suite = build_suite(Some(&QUICK_SUBSET));
    let models = tables();
    let pipeline = PipelineSpec::default().build().expect("well-ordered");
    let spec = {
        let mut spec = FlowSpec::new("grid-golden");
        for (bench, _) in &suite {
            spec = spec.circuit(bench.name); // suite order
        }
        for table in models.clone() {
            spec = spec.technology(table);
        }
        spec
    };
    let run = engine.run(&spec).expect("suite verifies");

    assert_eq!(run.cells.len(), suite.len() * models.len());
    for (i, cell) in run.cells.iter().enumerate() {
        assert_eq!(cell.circuit, i / models.len(), "circuit-major");
        let model = &models[cell.technology.expect("every cell is priced")];
        let direct = pipeline
            .run_with_model(&suite[cell.circuit].1, Some(model))
            .expect("direct run verifies");
        let gridded = cell.outcome.as_ref().expect("engine verifies");
        let label = format!("{} @ {}", run.circuits[cell.circuit], model.name());
        assert_eq!(
            direct.result.pipelined.counts(),
            gridded.result.pipelined.counts(),
            "{label}"
        );
        assert_eq!(direct.result.report, gridded.result.report, "{label}");
        // Priced trace states are bit-identical floats.
        for (a, b) in direct.trace.iter().zip(&gridded.trace) {
            assert_eq!(a.priced, b.priced, "{label}: {}", a.pass);
        }
    }
}

#[test]
fn warm_cache_grid_rerun_executes_zero_passes_and_matches_exactly() {
    // The acceptance criterion: a warm-cache re-run of the same grid
    // performs zero pass executions (PassStats-derived counter) while
    // returning identical results.
    let engine = suite_engine();
    let spec = quick_spec("warm-grid");
    let cold = engine.run(&spec).expect("suite verifies");
    assert_eq!(
        cold.stats.cache_misses as usize,
        cold.cells.len(),
        "cold run computes every cell"
    );
    assert!(cold.stats.passes_executed > 0);

    let warm = engine.run(&spec).expect("suite verifies");
    assert_eq!(warm.stats.passes_executed, 0, "zero pass executions");
    assert_eq!(warm.stats.cache_hits as usize, warm.cells.len());
    assert_eq!(warm.stats.cache_misses, 0);
    for (a, b) in cold.iter().zip(&warm) {
        assert!(b.cached);
        let (a, b) = (
            a.outcome.as_ref().expect("verifies"),
            b.outcome.as_ref().expect("verifies"),
        );
        // Identical results down to the instrumentation (shared cells).
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.result.report, b.result.report);
        assert_eq!(a.result.pipelined.counts(), b.result.pipelined.counts());
    }

    // Editing one technology invalidates exactly one grid column.
    let mut edited = spec.clone();
    let mut qca = Technology::qca();
    qca.cell_area.0 *= 2.0;
    edited.technologies[1] = qca.cost_table();
    let partial = engine.run(&edited).expect("suite verifies");
    assert_eq!(
        partial.stats.cache_misses as usize,
        QUICK_SUBSET.len(),
        "only the edited technology's column recomputes"
    );
    assert_eq!(
        partial.stats.cache_hits as usize,
        QUICK_SUBSET.len() * 2,
        "the untouched columns are served from cache"
    );
}

#[test]
fn streaming_delivers_every_cell_of_a_suite_sweep() {
    let engine = suite_engine();
    let spec = quick_spec("streamed");
    let seen = std::sync::Mutex::new(0usize);
    let run = engine
        .run_streaming(&spec, |cell| {
            assert!(cell.outcome.is_ok());
            *seen.lock().unwrap() += 1;
        })
        .expect("suite verifies");
    assert_eq!(*seen.lock().unwrap(), run.cells.len());
    assert_eq!(run.cells.len(), QUICK_SUBSET.len() * 3);
}
