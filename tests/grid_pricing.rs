//! Golden tests for the cost-model layer: an engine grid sweep must price
//! exactly what post-hoc `compare()` of a cost-blind run reports, and the
//! per-pass priced deltas must be invariant under every pass reordering
//! the pipeline builder permits.

use std::sync::Arc;

use proptest::prelude::*;
use tech::{compare, evaluate, OperatingMode, Technology};
use wavepipe::{
    BufferStrategy, CostTable, FlowContext, FlowPipeline, FlowResult, Pass, PassError, PassSpec,
    PipelineSpec, PricedCost,
};
use wavepipe_bench::harness::{build_suite, engine, evaluate_suite_grid, QUICK_SUBSET};

/// A cost-blind run of the paper's flow, the post-hoc pricing input.
fn blind_flow(g: &mig::Mig) -> Arc<FlowResult> {
    let pipeline = PipelineSpec::default().build().expect("well-ordered");
    pipeline.run(g).expect("cost-blind flow verifies").result
}

#[test]
fn grid_comparisons_match_post_hoc_compare_on_quick_suite() {
    // The acceptance golden: one parallel circuit × technology sweep
    // reproduces the Table II / Fig 9 comparison numbers the post-hoc
    // per-technology loop produced, exactly.
    let suite = build_suite(Some(&QUICK_SUBSET));
    let grid = evaluate_suite_grid(&engine(), &suite);
    let technologies = Technology::all();
    assert_eq!(grid.evaluated.len(), suite.len());
    for ((spec, g), (name, comparisons)) in suite.iter().zip(&grid.evaluated) {
        assert_eq!(spec.name, name);
        let blind = blind_flow(g);
        for (technology, gridded) in technologies.iter().zip(comparisons) {
            assert_eq!(
                compare(&blind, technology),
                *gridded,
                "{} @ {}: grid diverged from post-hoc compare()",
                spec.name,
                technology.name
            );
        }
    }
}

#[test]
fn grid_priced_traces_match_post_hoc_evaluation_exactly() {
    let suite = build_suite(Some(&["SASC", "ADD32R", "CMP32"]));
    let grid = evaluate_suite_grid(&engine(), &suite);
    let technologies = Technology::all();
    for t in &grid.traces {
        let g = &suite
            .iter()
            .find(|(spec, _)| spec.name == t.circuit)
            .expect("trace names a suite circuit")
            .1;
        let technology = technologies
            .iter()
            .find(|tech| tech.name == t.technology)
            .expect("trace names a known technology");
        let blind = blind_flow(g);
        let label = format!("{} @ {}", t.circuit, t.technology);

        // After the map pass the working netlist IS the original
        // mapping, so its priced state must equal the post-hoc original
        // evaluation bit-for-bit.
        let map = t.trace.first().unwrap().priced.as_ref().unwrap();
        let original = evaluate(&blind.original, technology, OperatingMode::Combinational);
        assert_eq!(map.after.area, original.area.value(), "{label}");
        assert_eq!(map.after.energy, original.energy.value(), "{label}");
        assert_eq!(map.after.latency, original.latency.value(), "{label}");

        // The final pass prices the wave-pipelined netlist.
        let last = t.trace.last().unwrap().priced.as_ref().unwrap();
        let pipelined = evaluate(&blind.pipelined, technology, OperatingMode::WavePipelined);
        assert_eq!(last.after.area, pipelined.area.value(), "{label}");
        assert_eq!(last.after.energy, pipelined.energy.value(), "{label}");
        assert_eq!(last.after.latency, pipelined.latency.value(), "{label}");

        // The per-pass deltas telescope to the final price (up to float
        // re-association of the subtraction chain).
        let area_sum: f64 = t
            .trace
            .iter()
            .map(|p| p.priced.as_ref().unwrap().area_delta())
            .sum();
        let tolerance = 1e-9 * pipelined.area.value().max(1.0);
        assert!(
            (area_sum - pipelined.area.value()).abs() <= tolerance,
            "{label}: pass deltas sum to {area_sum}, netlist prices to {}",
            pipelined.area.value()
        );
    }
}

/// A transform-free analysis pass, insertable anywhere the builder
/// allows `PassKind::Other`.
struct NoopPass;

impl Pass for NoopPass {
    fn name(&self) -> String {
        "noop".to_owned()
    }
    fn run(&self, _ctx: &mut FlowContext<'_>) -> Result<(), PassError> {
        Ok(())
    }
}

/// The default flow's transform steps, for reordering variants.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Step {
    Map,
    Fanout,
    Buffers,
    Verify,
    Noop,
}

fn build_and_run(steps: &[Step], technology: &Technology, g: &mig::Mig) -> Vec<PricedCost> {
    let mut builder = FlowPipeline::builder();
    for step in steps {
        builder = match step {
            Step::Map => builder.map(false),
            Step::Fanout => builder.then(PassSpec::RestrictFanout { limit: 3 }),
            Step::Buffers => builder.then(PassSpec::InsertBuffers(BufferStrategy::Asap)),
            Step::Verify => builder.then(PassSpec::Verify {
                fanout_limit: Some(3),
            }),
            Step::Noop => builder.pass(Box::new(NoopPass)),
        };
    }
    builder
        .build()
        .expect("builder-permitted ordering")
        .run_with_model(g, Some(&CostTable::from_model(technology)))
        .expect("flow verifies")
        .trace
        .iter()
        .map(|p| p.priced.as_ref().expect("cost model configured").after)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pricing is a function of the netlist alone: any builder-permitted
    /// reordering of the default flow — analysis passes interleaved at
    /// arbitrary legal positions, the (idempotent) restriction pass
    /// duplicated — prices the final netlist identically on every
    /// technology.
    #[test]
    fn pricing_invariant_under_builder_permitted_reorderings(
        seed in 0u64..32,
        noop_positions in prop::collection::vec(1usize..5, 3),
        noop_count in 0usize..=3,
        duplicate_fanout in any::<bool>(),
    ) {
        let g = mig::random_mig(mig::RandomMigConfig {
            inputs: 6,
            outputs: 3,
            gates: 60,
            depth: 6,
            seed,
        });
        let canonical = [Step::Map, Step::Fanout, Step::Buffers, Step::Verify];

        let mut steps: Vec<Step> = canonical.to_vec();
        if duplicate_fanout {
            steps.insert(2, Step::Fanout); // FO3 twice: second finds nothing
        }
        for &p in noop_positions.iter().take(noop_count) {
            steps.insert(p.min(steps.len()), Step::Noop);
        }

        for technology in Technology::all() {
            let base = build_and_run(&canonical, &technology, &g);
            let variant = build_and_run(&steps, &technology, &g);
            // The final priced state is identical, bit for bit.
            prop_assert_eq!(
                base.last().unwrap(),
                variant.last().unwrap(),
                "{}: {:?} diverged from the canonical flow",
                technology.name,
                steps
            );
        }
    }
}
