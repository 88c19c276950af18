//! Handed-forward structural views: fan-out restriction and buffer
//! insertion hand the levels of what they built forward, so the pass
//! boundary reads them instead of redoing a DFS. Whatever a built-in
//! chain leaves cached must be what a from-scratch computation gives:
//! after every pass the context's levels equal `Netlist::levels()`, its
//! order is topological, and the trace's depths match a fresh
//! recompute.

use std::sync::{Arc, Mutex};

use wavepipe::{
    BufferStrategy, CostTable, DelayWeights, EquivalencePolicy, FlowContext, FlowPipeline, Netlist,
    Pass, PassError, PassSpec,
};

/// A built-in chain: the rewrites that lead it, the passes after the
/// mapping pass, and whether the equivalence gate is on.
struct Chain {
    name: &'static str,
    rewrites: Vec<PassSpec>,
    passes: Vec<PassSpec>,
    gated: bool,
}

/// An ungated chain of fan-out restriction `restrict`, then buffer
/// insertion under `strategy`, then `verify`.
fn chain(
    name: &'static str,
    restrict: PassSpec,
    strategy: BufferStrategy,
    verify: PassSpec,
) -> Chain {
    Chain {
        name,
        rewrites: Vec::new(),
        passes: vec![restrict, PassSpec::InsertBuffers(strategy), verify],
        gated: false,
    }
}

const FO3: PassSpec = PassSpec::RestrictFanout { limit: 3 };
const VERIFY_FO3: PassSpec = PassSpec::Verify {
    fanout_limit: Some(3),
};

/// Fresh depth after each built-in pass, in pass order.
type Depths = Arc<Mutex<Vec<u32>>>;

/// Runs after a built-in pass: checks the context's views against a
/// from-scratch computation and records the fresh depth.
struct Inspect(Depths);

impl Pass for Inspect {
    fn name(&self) -> String {
        "inspect".to_owned()
    }

    fn run(&self, ctx: &mut FlowContext<'_>) -> Result<(), PassError> {
        let fresh = ctx.netlist().levels();
        assert_eq!(*ctx.levels(), fresh, "cached levels are the ASAP levels");
        let order = ctx.topo_order();
        assert!(
            is_topological(ctx.netlist(), &order),
            "cached order is topological"
        );
        let depth = ctx.netlist().depth_from_levels(&fresh);
        assert_eq!(ctx.depth(), depth);
        self.0.lock().unwrap().push(depth);
        Ok(())
    }
}

/// An independent topological-order check: every component exactly
/// once, every fan-in placed first.
fn is_topological(n: &Netlist, order: &[wavepipe::CompId]) -> bool {
    let mut position = vec![usize::MAX; n.len()];
    for (at, id) in order.iter().enumerate() {
        if position[id.index()] != usize::MAX {
            return false;
        }
        position[id.index()] = at;
    }
    order.len() == n.len()
        && n.ids().all(|id| {
            n.component(id)
                .fanins()
                .iter()
                .all(|f| position[f.index()] < position[id.index()])
        })
}

/// Runs `chain` on `g` with an inspector after the map and after every
/// built-in pass, then checks the trace's depths against the fresh ones.
fn check_chain(chain: &Chain, g: &mig::Mig, model: &CostTable) {
    let depths = Depths::default();
    let mut builder = FlowPipeline::builder();
    for rewrite in &chain.rewrites {
        builder = builder.then(rewrite.clone());
    }
    builder = builder.map(false).pass(Box::new(Inspect(depths.clone())));
    for pass in &chain.passes {
        builder = builder
            .then(pass.clone())
            .pass(Box::new(Inspect(depths.clone())));
    }
    if chain.gated {
        builder = builder.gate_equivalence(EquivalencePolicy::default());
    }
    let run = builder
        .build()
        .expect("well-ordered chain")
        .run_with_model(g, Some(model))
        .unwrap_or_else(|e| panic!("{} on {}: {e}", chain.name, g.name()));

    let depths = depths.lock().unwrap();
    let built_in: Vec<_> = run
        .trace
        .iter()
        .skip(chain.rewrites.len())
        .filter(|s| s.pass != "inspect")
        .collect();
    assert_eq!(built_in.len(), depths.len());
    for (k, stats) in built_in.iter().enumerate().skip(1) {
        assert_eq!(
            (stats.depth_before, stats.depth_after),
            (depths[k - 1], depths[k]),
            "{} on {}: `{}` trace depths",
            chain.name,
            g.name(),
            stats.pass
        );
    }
    assert_eq!(run.result.pipelined.depth(), *depths.last().unwrap());
}

fn random_migs() -> impl Iterator<Item = mig::Mig> {
    (0..6u64).map(|seed| {
        mig::random_mig(mig::RandomMigConfig {
            inputs: 8 + seed as usize,
            outputs: 4,
            gates: 150 + 40 * seed as usize,
            depth: 8,
            seed: 0x5EED + seed,
        })
    })
}

fn check_everywhere(chain: &Chain) {
    let tables = [
        tech::Technology::swd().cost_table(),
        tech::Technology::qca().cost_table(),
    ];
    for g in random_migs() {
        for table in &tables {
            check_chain(chain, &g, table);
        }
    }
    // The Table II circuits; the gated rewrite chain only on the
    // smallest ones, where its per-pass simulation stays cheap.
    for name in benchsuite::TABLE2_SELECTION {
        if chain.gated && !matches!(name, "SASC" | "HAMMING") {
            continue;
        }
        let g = benchsuite::build_mig(name).expect("Table II circuit");
        check_chain(chain, &g, &tables[1]);
    }
}

#[test]
fn default_fo3_asap_chain_hands_forward_exact_views() {
    check_everywhere(&chain("fo3+asap", FO3, BufferStrategy::Asap, VERIFY_FO3));
}

#[test]
fn retimed_chain_hands_forward_exact_views() {
    check_everywhere(&chain("retimed", FO3, BufferStrategy::Retimed, VERIFY_FO3));
}

#[test]
fn weighted_chain_hands_forward_exact_views() {
    let qca = DelayWeights::QCA;
    let verify = PassSpec::VerifyWeighted(qca);
    check_everywhere(&chain(
        "weighted",
        FO3,
        BufferStrategy::Weighted(qca),
        verify,
    ));
}

#[test]
fn cost_aware_chain_hands_forward_exact_views() {
    let verify = PassSpec::VerifyCostAware {
        fanout_limit: Some(3),
    };
    check_everywhere(&chain("cost-aware", FO3, BufferStrategy::CostAware, verify));
}

#[test]
fn cost_aware_restriction_chain_hands_forward_exact_views() {
    check_everywhere(&chain(
        "restrict_fanout_cost_aware",
        PassSpec::RestrictFanoutCostAware,
        BufferStrategy::Asap,
        PassSpec::Verify { fanout_limit: None },
    ));
}

#[test]
fn churn_rewrite_chain_hands_forward_exact_views() {
    check_everywhere(&Chain {
        name: "churn rewrite",
        rewrites: vec![
            PassSpec::OptimizeDepth { max_rounds: 4 },
            PassSpec::OptimizeSize { max_rounds: 4 },
        ],
        gated: true,
        ..chain("", FO3, BufferStrategy::Asap, VERIFY_FO3)
    });
}
