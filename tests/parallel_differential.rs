//! The differential sweep shards its blocks over the machine's cores,
//! yet its verdict must not depend on the machine: the same pattern
//! budget on clean pairs, and the same canonical counterexample (first
//! divergence in block-then-output-then-lane order) on broken ones.
//! These tests pin [`wavepipe::differential::check`] against
//! independent oracles, so running them on one core (`taskset -c 0`)
//! and on many checks both sharding shapes against the same answer.

use wavepipe::differential::{self, Counterexample, Verdict};
use wavepipe::{insert_buffers, netlist_from_mig, restrict_fanout, EquivalencePolicy, Netlist};

/// A mid-sized circuit whose input count selects the policy's
/// exhaustive arm (all `2^n` patterns).
fn small_pair() -> (mig::Mig, Netlist) {
    let name = "synth:dag:77:depth=6,inputs=10,nodes=160,outputs=6";
    let graph = benchsuite::build_mig(name).expect("synth name resolves");
    let mut netlist = netlist_from_mig(&graph);
    restrict_fanout(&mut netlist, 3);
    insert_buffers(&mut netlist);
    (graph, netlist)
}

/// A wide circuit that forces the stratified-sampling arm.
fn sampled_pair() -> (mig::Mig, Netlist) {
    let name = "synth:dag:78:depth=7,inputs=30,nodes=240,outputs=8";
    let graph = benchsuite::build_mig(name).expect("synth name resolves");
    let mut netlist = netlist_from_mig(&graph);
    restrict_fanout(&mut netlist, 3);
    insert_buffers(&mut netlist);
    (graph, netlist)
}

/// Flip one output through an inverter — a single-output corruption
/// with a well-defined first divergence.
fn corrupt(netlist: &mut Netlist, output: usize) {
    let driver = netlist.outputs()[output].driver;
    let broken = netlist.add_inv(driver);
    netlist.set_output_driver(output, broken);
}

/// The exhaustive verdict computed one pattern at a time with the
/// scalar evaluators, scanning in the canonical order: 64-pattern block
/// ascending, then output, then lane.
fn scalar_oracle(netlist: &Netlist, graph: &mig::Mig) -> Verdict {
    let inputs = graph.input_count();
    let total = 1u64 << inputs;
    let simulator = mig::Simulator::new(graph);
    for base in (0..total).step_by(64) {
        let patterns: Vec<Vec<bool>> = (base..total.min(base + 64))
            .map(|p| (0..inputs).map(|i| p >> i & 1 != 0).collect())
            .collect();
        let actual: Vec<Vec<bool>> = patterns.iter().map(|p| netlist.eval(p)).collect();
        let expected: Vec<Vec<bool>> = patterns.iter().map(|p| simulator.eval(p)).collect();
        for output in 0..graph.output_count() {
            for lane in 0..patterns.len() {
                if actual[lane][output] != expected[lane][output] {
                    return Verdict::Diverged(Counterexample {
                        pattern: patterns[lane].clone(),
                        output,
                        output_name: graph.outputs()[output].name.clone(),
                        expected: expected[lane][output],
                        actual: actual[lane][output],
                        pass: None,
                    });
                }
            }
        }
    }
    Verdict::Equivalent {
        patterns: total,
        exhaustive: true,
    }
}

#[test]
fn exhaustive_verdicts_match_the_scalar_oracle() {
    let (graph, clean) = small_pair();
    let policy = EquivalencePolicy::default();
    let verdict = differential::check(&clean, &graph, &policy).expect("interfaces match");
    assert_eq!(
        verdict,
        Verdict::Equivalent {
            patterns: 1024,
            exhaustive: true
        }
    );
    assert_eq!(verdict, scalar_oracle(&clean, &graph));

    for output in [0, 3] {
        let (_, mut broken) = small_pair();
        corrupt(&mut broken, output);
        let verdict = differential::check(&broken, &graph, &policy).expect("interfaces match");
        let Verdict::Diverged(cex) = &verdict else {
            panic!("corrupting output {output} must diverge");
        };
        assert_eq!(
            cex.output, output,
            "corruption localizes to the flipped output"
        );
        assert_eq!(verdict, scalar_oracle(&broken, &graph), "output {output}");
    }
}

#[test]
fn sampled_verdicts_keep_the_budget_and_replay() {
    let (graph, clean) = sampled_pair();
    // 30 inputs: always the sampled arm under the default ceiling.
    let policy = EquivalencePolicy::sampled(17, 0xFEED);
    assert_eq!(
        differential::check(&clean, &graph, &policy).expect("interfaces match"),
        Verdict::Equivalent {
            patterns: 17 * 64,
            exhaustive: false
        }
    );

    let (_, mut broken) = sampled_pair();
    corrupt(&mut broken, 5);
    let verdict = differential::check(&broken, &graph, &policy).expect("interfaces match");
    let Verdict::Diverged(cex) = &verdict else {
        panic!("corrupted netlist must diverge under sampling");
    };
    assert_eq!(cex.output, 5);
    // The counterexample replays on both sides.
    assert_eq!(broken.eval(&cex.pattern)[cex.output], cex.actual);
    assert_eq!(
        mig::Simulator::new(&graph).eval(&cex.pattern)[cex.output],
        cex.expected
    );
    assert_ne!(cex.expected, cex.actual);
}
