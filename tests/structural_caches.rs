//! Staleness coverage for [`wavepipe::StructuralCaches`] and the
//! `*_prepared` pass variants: a pass that primes the cached
//! topological order / levels / fan-out views and *then* mutates the
//! netlist must leave the following passes reading fresh views — the
//! `FlowContext::netlist_mut` invalidation contract the prepared
//! variants rely on.

use wavepipe::{
    differential, BufferStrategy, EquivalencePolicy, FlowContext, FlowPipeline, Netlist, Pass,
    PassError, PassSpec, StructuralCaches,
};

fn sample_mig(seed: u64) -> mig::Mig {
    mig::random_mig(mig::RandomMigConfig {
        inputs: 6,
        outputs: 3,
        gates: 60,
        depth: 6,
        seed,
    })
}

/// Primes every cached structural view, then widens the netlist (a new
/// high-fan-out cone off input 0), then asserts — still inside the same
/// pass — that the re-read views describe the mutated netlist.
struct PrimeThenMutatePass;

impl Pass for PrimeThenMutatePass {
    fn name(&self) -> String {
        "prime_then_mutate".to_owned()
    }

    fn run(&self, ctx: &mut FlowContext<'_>) -> Result<(), PassError> {
        // Prime all four cached views.
        let stale_topo = ctx.topo_order();
        let stale_levels = ctx.levels();
        let stale_edges = ctx.fanout_edges();
        let stale_counts = ctx.fanout_counts();
        let len_before = ctx.netlist().len();
        assert_eq!(stale_topo.len(), len_before);

        // Mutate: hang a 7-consumer cone off input 0 and rebind output
        // 0 so the cone is live. `netlist_mut` must invalidate.
        {
            let netlist = ctx.netlist_mut();
            let a = netlist.inputs()[0];
            let b = netlist.inputs()[1];
            let k0 = netlist.add_const(false);
            let mut last = a;
            for _ in 0..7 {
                last = netlist.add_maj([a, b, k0]);
            }
            netlist.set_output_driver(0, last);
        }
        let len_after = ctx.netlist().len();
        assert!(len_after > len_before, "the mutation grew the netlist");

        // The snapshots taken before the mutation still describe the
        // old structure (by design: a pass may keep reading them while
        // mutating)…
        assert_eq!(stale_topo.len(), len_before);
        assert_eq!(stale_levels.len(), len_before);
        assert_eq!(stale_edges.len(), len_before);
        assert_eq!(stale_counts.len(), len_before);

        // …but re-reading through the context yields fresh views of the
        // mutated netlist, bit-identical to from-scratch computation.
        let fresh_topo = ctx.topo_order();
        let fresh_levels = ctx.levels();
        let fresh_edges = ctx.fanout_edges();
        let fresh_counts = ctx.fanout_counts();
        assert_eq!(fresh_topo.len(), len_after);
        assert_eq!(*fresh_levels, ctx.netlist().levels());
        assert_eq!(*fresh_edges, ctx.netlist().fanout_edges());
        assert_eq!(*fresh_counts, ctx.netlist().fanout_counts());
        assert_eq!(ctx.depth(), ctx.netlist().depth());
        // Input 0 now drives the 7 new gates on top of its old uses.
        let a = ctx.netlist().inputs()[0];
        assert!(fresh_counts[a.index()] >= stale_counts[a.index()] + 7);
        Ok(())
    }
}

/// The downstream `*_prepared` passes (fan-out restriction and buffer
/// insertion both read the context's cached views) must see the
/// mutation: the final netlist bounds the *new* wide fan-out, balances,
/// and still computes the mutated function — pinned by an exhaustive
/// word-level comparison against a reference netlist that replays the
/// same mutation. (No equivalence gate here on purpose: the mutating
/// pass intentionally changes the function relative to the source MIG,
/// so a gate would rightly fail this flow.)
#[test]
fn prepared_pass_variants_see_fresh_views_after_mutation() {
    let g = sample_mig(3);
    let run = FlowPipeline::builder()
        .map(false)
        .pass(Box::new(PrimeThenMutatePass))
        .then(PassSpec::RestrictFanout { limit: 3 })
        .then(PassSpec::InsertBuffers(BufferStrategy::Asap))
        .then(PassSpec::Verify {
            fanout_limit: Some(3),
        })
        .build()
        .unwrap()
        .run(&g)
        .expect("flow verifies on the mutated netlist");

    let pipelined = &run.result.pipelined;
    assert!(
        pipelined.max_fanout() <= 3,
        "restriction bounded the post-mutation fan-out (max {})",
        pipelined.max_fanout()
    );
    let report = run.result.report.expect("verify ran");
    assert_eq!(report.depth, pipelined.depth());

    // The flow's later passes preserved the *mutated* function (output
    // 0 is now the AND cone, not the original MIG's output 0): replay
    // the mutation on a plain mapped netlist and compare exhaustively.
    let mut reference = wavepipe::netlist_from_mig(&g);
    {
        let a = reference.inputs()[0];
        let b = reference.inputs()[1];
        let k0 = reference.add_const(false);
        let mut last = a;
        for _ in 0..7 {
            last = reference.add_maj([a, b, k0]);
        }
        reference.set_output_driver(0, last);
    }
    for block in 0..wavepipe::PatternBlock::block_count(6) {
        let patterns = wavepipe::PatternBlock::exhaustive(6, block);
        assert_eq!(
            pipelined.eval_words(patterns.words()),
            reference.eval_words(patterns.words()),
            "block {block}"
        );
    }
}

/// Direct staleness check on a standalone [`StructuralCaches`]: the
/// same cache object primes, invalidates, and re-primes fresh — and the
/// gated pipeline (which re-checks equivalence after every pass via the
/// differential engine) accepts a flow whose intermediate pass both
/// reads and mutates.
#[test]
fn standalone_caches_invalidate_and_gated_flow_stays_sound() {
    let mut n = Netlist::new("w");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let c = n.add_input("c");
    let g1 = n.add_maj([a, b, c]);
    n.add_output("f", g1);

    let mut caches = StructuralCaches::default();
    let topo_before = caches.topo_order(&n);
    assert_eq!(topo_before.len(), n.len());

    let g2 = n.add_maj([g1, a, b]);
    n.set_output_driver(0, g2);
    caches.invalidate();
    assert_eq!(caches.topo_order(&n).len(), n.len());
    assert_eq!(caches.depth(&n), 2);
    assert_eq!(*caches.fanout_counts(&n), n.fanout_counts());

    // A gated flow over a sweep-style custom pass: the equivalence gate
    // (which itself runs on cached-view-free fresh state) passes at
    // every boundary.
    struct SweepPass;
    impl Pass for SweepPass {
        fn name(&self) -> String {
            "sweep".to_owned()
        }
        fn run(&self, ctx: &mut FlowContext<'_>) -> Result<(), PassError> {
            let _ = ctx.levels(); // prime
            let swept = ctx.netlist().sweep();
            *ctx.netlist_mut() = swept; // invalidate
            Ok(())
        }
    }
    let g = sample_mig(9);
    let run = FlowPipeline::builder()
        .map(false)
        .pass(Box::new(SweepPass))
        .then(PassSpec::RestrictFanout { limit: 3 })
        .then(PassSpec::InsertBuffers(BufferStrategy::Asap))
        .then(PassSpec::Verify {
            fanout_limit: Some(3),
        })
        .gate_equivalence(EquivalencePolicy::default())
        .build()
        .unwrap()
        .run(&g)
        .expect("gated flow verifies");
    let verdict =
        differential::check(&run.result.pipelined, &g, &EquivalencePolicy::default()).unwrap();
    assert!(verdict.holds());
}
