//! Golden tests for the pass pipeline: the default [`PipelineSpec`]
//! must be *result-equivalent* to the paper's flow as four direct
//! calls, the parallel batch driver must be a pure parallelization, and
//! the pipeline builder must enforce pass ordering.

use proptest::prelude::*;
use wave_pipelining::prelude::*;
use wavepipe::{
    insert_buffers, verify_balance, BufferStrategy, FlowPipeline, PassSpec, PipelineError,
};
use wavepipe_bench::harness::{build_suite, QUICK_SUBSET};

/// The paper's flow as four direct calls, the golden reference:
/// map → restrict fan-out (3) → insert buffers → verify.
fn four_call_flow(g: &mig::Mig) -> (Netlist, Netlist, wavepipe::BalanceReport) {
    let original = netlist_from_mig(g);
    let mut pipelined = original.clone();
    restrict_fanout(&mut pipelined, 3);
    insert_buffers(&mut pipelined);
    let report = verify_balance(&pipelined, Some(3)).expect("four-call flow verifies");
    (original, pipelined, report)
}

#[test]
fn default_pipeline_is_result_equivalent_to_legacy_flow_on_quick_suite() {
    let suite = build_suite(Some(&QUICK_SUBSET));
    let pipeline = PipelineSpec::default().build().expect("well-ordered");
    for (spec, g) in &suite {
        let (golden_original, golden_pipelined, golden_report) = four_call_flow(g);
        let run = pipeline.run(g).expect("pipeline verifies");

        // Identical KindCounts…
        assert_eq!(
            run.result.original.counts(),
            golden_original.counts(),
            "{}: original counts diverged",
            spec.name
        );
        assert_eq!(
            run.result.pipelined.counts(),
            golden_pipelined.counts(),
            "{}: pipelined counts diverged",
            spec.name
        );
        // …identical depth…
        assert_eq!(
            run.result.pipelined.depth(),
            golden_pipelined.depth(),
            "{}: depth diverged",
            spec.name
        );
        // …and an identical BalanceReport.
        assert_eq!(
            run.result.report,
            Some(golden_report),
            "{}: balance report diverged",
            spec.name
        );
    }
}

#[test]
fn batch_driver_matches_sequential_wrapper_on_quick_suite() {
    let suite = build_suite(Some(&QUICK_SUBSET));
    let graphs: Vec<&mig::Mig> = suite.iter().map(|(_, g)| g).collect();
    // The batch driver is the engine's cost-blind grid: one cell per
    // graph on the work-pulling scheduler, every cell executed.
    let pipeline = PipelineSpec::default();
    let batch = wavepipe::Engine::new()
        .with_cache_capacity(0)
        .run_pipeline_grid(&pipeline, &graphs, &[])
        .expect("the default spec validates");
    assert_eq!(batch.len(), suite.len());
    let pipeline = pipeline.build().expect("well-ordered");
    for ((spec, g), cell) in suite.iter().zip(batch) {
        let parallel = &cell.outcome.expect("batch flow verifies").result;
        let serial = pipeline.run(g).expect("serial flow verifies").result;
        assert_eq!(
            parallel.pipelined.counts(),
            serial.pipelined.counts(),
            "{}",
            spec.name
        );
        assert_eq!(parallel.pipelined.depth(), serial.pipelined.depth());
        assert_eq!(parallel.report, serial.report);
    }
}

#[test]
fn traces_account_for_every_inserted_component() {
    let suite = build_suite(Some(&["SASC", "CMP32"]));
    let pipeline = PipelineSpec::default().build().expect("well-ordered");
    for (spec, g) in &suite {
        let run = pipeline.run(g).expect("pipeline verifies");
        let total_added: usize = run.trace.iter().map(|p| p.added.priced_total()).sum();
        assert_eq!(
            total_added,
            run.result.pipelined.counts().priced_total(),
            "{}: trace deltas must sum to the final size (mapping included)",
            spec.name
        );
        let last = run.trace.last().expect("non-empty trace");
        assert_eq!(last.depth_after, run.result.pipelined.depth());
    }
}

/// Mirror of the builder's pass-kind categories, for the order
/// property test.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Step {
    Map,
    Fanout,
    Buffers,
    Verify,
}

fn apply(builder: wavepipe::FlowPipelineBuilder, step: Step) -> wavepipe::FlowPipelineBuilder {
    match step {
        Step::Map => builder.map(false),
        Step::Fanout => builder.then(PassSpec::RestrictFanout { limit: 3 }),
        Step::Buffers => builder.then(PassSpec::InsertBuffers(BufferStrategy::Asap)),
        Step::Verify => builder.then(PassSpec::Verify {
            fanout_limit: Some(3),
        }),
    }
}

/// Independent re-statement of the ordering rules the builder promises.
fn is_valid_order(steps: &[Step]) -> bool {
    if steps.first() != Some(&Step::Map) {
        return false;
    }
    if steps[1..].contains(&Step::Map) {
        return false;
    }
    let first_buffer = steps.iter().position(|s| *s == Step::Buffers);
    let last_fanout = steps.iter().rposition(|s| *s == Step::Fanout);
    if let (Some(buffer), Some(fanout)) = (first_buffer, last_fanout) {
        if fanout > buffer {
            return false;
        }
    }
    if let Some(first_verify) = steps.iter().position(|s| *s == Step::Verify) {
        if steps[first_verify..]
            .iter()
            .any(|s| matches!(s, Step::Map | Step::Fanout | Step::Buffers))
        {
            return false;
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// For *any* random pass sequence, the builder accepts it exactly
    /// when the ordering rules hold — in particular, fan-out
    /// restriction placed after buffer insertion is always rejected.
    #[test]
    fn builder_accepts_exactly_the_well_ordered_pipelines(
        raw in prop::collection::vec(0usize..4, 1),
        tail in prop::collection::vec(0usize..4, 4),
        len in 1usize..=5,
    ) {
        let steps: Vec<Step> = raw
            .iter()
            .chain(&tail)
            .take(len)
            .map(|&i| [Step::Map, Step::Fanout, Step::Buffers, Step::Verify][i])
            .collect();
        let mut builder = FlowPipeline::builder();
        for &step in &steps {
            builder = apply(builder, step);
        }
        match builder.build() {
            Ok(_) => prop_assert!(
                is_valid_order(&steps),
                "builder accepted ill-ordered {steps:?}"
            ),
            Err(e) => {
                prop_assert!(
                    !is_valid_order(&steps),
                    "builder rejected well-ordered {steps:?}: {e}"
                );
                // The §IV rule specifically maps to its own error.
                if let Some(first_buffer) = steps.iter().position(|s| *s == Step::Buffers) {
                    let fanout_after = steps
                        .iter()
                        .rposition(|s| *s == Step::Fanout)
                        .is_some_and(|i| i > first_buffer);
                    if steps.first() == Some(&Step::Map)
                        && !steps[1..].contains(&Step::Map)
                        && fanout_after
                        && steps.iter().all(|s| *s != Step::Verify)
                    {
                        prop_assert_eq!(e, PipelineError::FanoutAfterBuffers);
                    }
                }
            }
        }
    }

    /// A well-ordered pipeline with buffers + verification always runs
    /// to a verified result on random MIGs.
    #[test]
    fn well_ordered_pipelines_run_and_verify(seed in 0u64..200) {
        let g = mig::random_mig(mig::RandomMigConfig {
            inputs: 6,
            outputs: 3,
            gates: 80,
            depth: 6,
            seed,
        });
        let run = PipelineSpec::default()
            .build()
            .expect("well-ordered")
            .run(&g)
            .expect("verifies");
        prop_assert!(run.result.report.is_some());
        prop_assert!(run.result.pipelined.max_fanout() <= 3);
    }
}
