//! MIG rewrite passes: logic optimization in front of the mapping
//! stage.
//!
//! The paper assumes its input netlists are "already optimized" MIGs
//! (§III); these passes produce such inputs inside the flow itself by
//! wrapping the Ω-axiom optimizers of [`mig::rewrite`] as first-class
//! [`Pass`]es. They run before the mapping pass (the builder enforces
//! the ordering), transform the *working* graph
//! ([`FlowContext::working_graph`]) and leave the source graph
//! untouched, so the pipeline's equivalence gates keep checking
//! end-to-end against the original function.
//!
//! Because no netlist exists yet at a rewrite boundary, the pipeline
//! instruments these passes with *projected* netlist quantities
//! ([`mig_projected_counts`]): majority gates map one-to-one, and every
//! distinct complemented node materializes one shared inverter — the
//! exact shapes [`crate::netlist_from_mig`] later produces.

use crate::netlist::KindCounts;
use crate::pipeline::{FlowContext, Pass, PassError, PassKind};
use mig::Mig;

/// Projects the netlist component counts mapping `graph` would produce:
/// inputs and majority gates one-to-one, plus one inverter per distinct
/// non-constant node referenced in complemented form anywhere (gate
/// fan-in or primary output) — [`crate::netlist_from_mig`] materializes
/// exactly one shared INV per such node. Buffers and fan-out gates are
/// zero (later passes insert them).
pub(crate) fn mig_projected_counts(graph: &Mig) -> KindCounts {
    let mut complemented = vec![false; graph.node_count()];
    for id in graph.node_ids() {
        for s in graph.node(id).fanins() {
            if s.is_complement() {
                complemented[s.node().index()] = true;
            }
        }
    }
    for o in graph.outputs() {
        if o.signal.is_complement() {
            complemented[o.signal.node().index()] = true;
        }
    }
    complemented[mig::NodeId::CONST.index()] = false;
    KindCounts {
        inputs: graph.input_count(),
        maj: graph.gate_count(),
        inv: complemented.iter().filter(|&&c| c).count(),
        ..KindCounts::default()
    }
}

/// Depth-oriented MIG rewrite pass (`mig::optimize_depth`): Ω.A
/// associativity plus Ω.D distributivity, iterated until a round stops
/// improving or `max_rounds` is reached. The result is functionally
/// equivalent and never deeper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct OptimizeDepthPass {
    /// Bound on full-graph rewrite rounds.
    pub(crate) max_rounds: usize,
}

impl Pass for OptimizeDepthPass {
    fn name(&self) -> String {
        "optimize_depth".to_owned()
    }

    fn kind(&self) -> PassKind {
        PassKind::Rewrite
    }

    fn run(&self, ctx: &mut FlowContext<'_>) -> Result<(), PassError> {
        let (optimized, _) = mig::optimize_depth(ctx.working_graph(), self.max_rounds);
        ctx.set_rewritten(optimized);
        Ok(())
    }
}

/// Size-oriented MIG rewrite pass (`mig::optimize_size`): collapses the
/// left-to-right Ω.D distributivity pattern wherever both source gates
/// die with the rewrite. The result is functionally equivalent and
/// never larger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct OptimizeSizePass {
    /// Bound on full-graph collapse rounds.
    pub(crate) max_rounds: usize,
}

impl Pass for OptimizeSizePass {
    fn name(&self) -> String {
        "optimize_size".to_owned()
    }

    fn kind(&self) -> PassKind {
        PassKind::Rewrite
    }

    fn run(&self, ctx: &mut FlowContext<'_>) -> Result<(), PassError> {
        let optimized = mig::optimize_size(ctx.working_graph(), self.max_rounds);
        ctx.set_rewritten(optimized);
        Ok(())
    }
}

/// Cost-aware objective selection: runs *both* optimizers and keeps the
/// candidate minimizing projected priced area × cycle-time under the
/// run's cost model (ties prefer the depth objective — wave pipelining
/// monetizes depth directly as cycle time). Requires a cost model on
/// the run; fails with [`PassError::Custom`] otherwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct OptimizeCostAwarePass {
    /// Bound on rewrite rounds for each objective.
    pub(crate) max_rounds: usize,
}

impl Pass for OptimizeCostAwarePass {
    fn name(&self) -> String {
        "optimize_cost_aware".to_owned()
    }

    fn kind(&self) -> PassKind {
        PassKind::Rewrite
    }

    fn run(&self, ctx: &mut FlowContext<'_>) -> Result<(), PassError> {
        let Some(table) = ctx.cost_model().cloned() else {
            return Err(PassError::Custom(
                "optimize_cost_aware requires a cost model on the run \
                 (FlowPipeline::run_with_model or a grid sweep)"
                    .to_owned(),
            ));
        };
        let source = ctx.working_graph();
        let (by_depth, _) = mig::optimize_depth(source, self.max_rounds);
        let by_size = mig::optimize_size(source, self.max_rounds);
        let score = |g: &Mig| {
            let priced = table.price(&mig_projected_counts(g), g.output_count(), g.depth());
            priced.area * priced.latency
        };
        let chosen = if score(&by_size) < score(&by_depth) {
            by_size
        } else {
            by_depth
        };
        ctx.set_rewritten(chosen);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufferStrategy, CostTable, FlowPipeline, PassSpec, PipelineError, PipelineSpec};

    /// Unit-cost model: area/delay/energy 1 for every priced kind.
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

    fn skewed_chain(n: usize) -> Mig {
        let mut g = Mig::new();
        let x = g.add_inputs("x", n);
        let mut f = x[n - 1];
        for i in (0..n - 1).rev() {
            f = g.add_and(x[i], f);
        }
        g.add_output("f", f);
        g
    }

    fn shared_context() -> Mig {
        let mut g = Mig::new();
        let x = g.add_inputs("x", 5);
        let a = g.add_maj(x[0], x[1], x[2]);
        let b = g.add_maj(x[0], x[1], x[3]);
        let f = g.add_maj(a, b, x[4]);
        g.add_output("f", f);
        g
    }

    #[test]
    fn projected_counts_match_the_mapped_netlist() {
        let mut g = Mig::new();
        let x = g.add_inputs("x", 4);
        let a = g.add_maj(x[0], !x[1], x[2]);
        let f = g.add_maj(a, x[3], !x[0]);
        g.add_output("f", !f);
        let projected = mig_projected_counts(&g);
        let counts = crate::netlist_from_mig(&g).counts();
        assert_eq!(projected.inputs, counts.inputs);
        assert_eq!(projected.maj, counts.maj);
        assert_eq!(projected.inv, counts.inv);
        assert_eq!(projected.buf, 0);
        assert_eq!(projected.fog, 0);
    }

    #[test]
    fn depth_pass_maps_the_optimized_graph() {
        let g = skewed_chain(16);
        let pipeline = PipelineSpec::map(false)
            .optimize_depth(16)
            .restrict_fanout(3)
            .insert_buffers(BufferStrategy::Asap)
            .verify(Some(3))
            .build()
            .unwrap();
        let run = pipeline.run(&g).unwrap();
        // The rewrite trace entry measures the MIG, pre- vs post-rewrite.
        let stats = &run.trace[0];
        assert_eq!(stats.pass, "optimize_depth");
        assert_eq!(stats.depth_before, 15);
        assert!(stats.depth_after <= 6, "got depth {}", stats.depth_after);
        // The mapped netlist reflects the rewritten (shallow) graph.
        assert!(run.result.original.counts().maj >= 15);
        let (expected, _) = mig::optimize_depth(&g, 16);
        assert_eq!(run.result.original.counts().maj, expected.gate_count());
    }

    #[test]
    fn size_pass_shrinks_the_mapped_netlist() {
        let g = shared_context();
        let pipeline = PipelineSpec::map(false)
            .optimize_size(4)
            .restrict_fanout(3)
            .insert_buffers(BufferStrategy::Asap)
            .verify(Some(3))
            .build()
            .unwrap();
        let run = pipeline.run(&g).unwrap();
        let stats = &run.trace[0];
        assert_eq!(stats.pass, "optimize_size");
        assert_eq!(stats.counts_before.maj, 3);
        assert_eq!(stats.counts_after.maj, 2);
        assert_eq!(run.result.original.counts().maj, 2);
    }

    #[test]
    fn rewrite_trace_is_priced_under_a_cost_model() {
        let g = skewed_chain(16);
        let pipeline = PipelineSpec::map(false)
            .optimize_depth(16)
            .restrict_fanout(3)
            .insert_buffers(BufferStrategy::Asap)
            .verify(Some(3))
            .build()
            .unwrap();
        let flat = CostTable::from_model(&FlatModel);
        let run = pipeline.run_with_model(&g, Some(&flat)).unwrap();
        let priced = run.trace[0].priced.as_ref().expect("priced rewrite entry");
        assert!(
            priced.after.latency < priced.before.latency,
            "depth rewrite must shorten projected cycle time: {priced}"
        );
    }

    #[test]
    fn cost_aware_pass_requires_a_model() {
        let g = skewed_chain(8);
        let pipeline = PipelineSpec::map(false)
            .optimize_cost_aware(8)
            .build()
            .unwrap();
        let err = pipeline.run(&g).unwrap_err();
        assert!(
            err.to_string().contains("requires a cost model"),
            "got: {err}"
        );
    }

    #[test]
    fn cost_aware_pass_picks_an_objective() {
        let g = skewed_chain(16);
        let pipeline = PipelineSpec::map(false)
            .optimize_cost_aware(16)
            .build()
            .unwrap();
        let flat = CostTable::from_model(&FlatModel);
        let run = pipeline.run_with_model(&g, Some(&flat)).unwrap();
        let stats = &run.trace[0];
        assert_eq!(stats.pass, "optimize_cost_aware");
        // On a skewed chain the depth objective wins: the size objective
        // cannot shrink a chain, so area is flat across the two
        // candidates while latency collapses under the depth rewrite.
        let (by_depth, _) = mig::optimize_depth(&g, 16);
        assert_eq!(stats.depth_after, by_depth.depth());
    }

    #[test]
    fn rewrites_after_map_are_rejected() {
        let err = FlowPipeline::builder()
            .map(false)
            .then(PassSpec::OptimizeDepth { max_rounds: 4 })
            .build()
            .unwrap_err();
        assert_eq!(err, PipelineError::RewriteAfterMap);
    }

    #[test]
    fn rewrite_only_pipelines_are_rejected() {
        let err = FlowPipeline::builder()
            .then(PassSpec::OptimizeDepth { max_rounds: 4 })
            .then(PassSpec::OptimizeSize { max_rounds: 4 })
            .build()
            .unwrap_err();
        assert_eq!(err, PipelineError::MapNotFirst);
    }

    #[test]
    fn rewrites_pass_the_equivalence_gate() {
        let g = skewed_chain(12);
        let pipeline = FlowPipeline::builder()
            .then(PassSpec::OptimizeDepth { max_rounds: 8 })
            .then(PassSpec::OptimizeSize { max_rounds: 8 })
            .map(false)
            .then(PassSpec::RestrictFanout { limit: 3 })
            .then(PassSpec::InsertBuffers(BufferStrategy::Asap))
            .then(PassSpec::Verify {
                fanout_limit: Some(3),
            })
            .gate_equivalence(mig::EquivalencePolicy::default())
            .gate_lints()
            .build()
            .unwrap();
        let run = pipeline.run(&g).expect("gated rewritten flow succeeds");
        assert_eq!(run.trace.len(), 6);
    }
}
