//! Property test: [`wavepipe::Netlist::eval_words`] is *exactly* 64
//! independent scalar `eval` calls, on randomly-parameterized `synth:*`
//! netlists — raw-mapped and after the full enablement flow — and the
//! [`mig::PatternBlock`] packer round-trips arbitrary pattern sets.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wavepipe::{
    insert_buffers, netlist_from_mig, restrict_fanout, Netlist, NetlistFunction, PatternBlock,
    WordFunction,
};

/// A deterministic random `synth:*` circuit drawn from all five
/// generator families.
fn synth_netlist(seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let family = ["dag", "adder", "parity", "majtree", "compose"][(seed % 5) as usize];
    let name = match family {
        "dag" => format!(
            "synth:dag:{seed}:depth={},inputs={},nodes={},outputs={}",
            3 + seed % 6,
            3 + seed % 10,
            30 + seed % 120,
            1 + seed % 4
        ),
        "adder" => format!("synth:adder:{seed}:width={}", 1 + seed % 8),
        "parity" => format!("synth:parity:{seed}:width={}", 4 + seed % 16),
        "majtree" => format!("synth:majtree:{seed}:width={}", 3 + seed % 16),
        _ => format!(
            "synth:compose:{seed}:blocks={},width={}",
            1 + seed % 3,
            3 + seed % 5
        ),
    };
    let graph = benchsuite::build_mig(&name).expect("synth name resolves");
    let mut netlist = netlist_from_mig(&graph);
    // Half the cases go through the full flow, so word evaluation is
    // exercised on FOG/BUF-bearing netlists too.
    if rng.gen() {
        restrict_fanout(&mut netlist, 2 + (seed % 4) as u32);
        insert_buffers(&mut netlist);
    }
    netlist
}

fn random_patterns(inputs: usize, count: usize, rng: &mut StdRng) -> Vec<Vec<bool>> {
    (0..count)
        .map(|_| (0..inputs).map(|_| rng.gen()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `eval_words` on one packed block ≡ 64 independent `eval` calls.
    #[test]
    fn eval_words_is_64_scalar_evals(seed in 0u64..1_000_000) {
        let netlist = synth_netlist(seed);
        let inputs = netlist.inputs().len();
        let mut rng = StdRng::seed_from_u64(!seed);
        let patterns = random_patterns(inputs, 64, &mut rng);
        let block = PatternBlock::pack(&patterns);
        prop_assert_eq!(block.lanes(), 64);

        let words = netlist.eval_words(block.words());
        for (lane, pattern) in patterns.iter().enumerate() {
            let scalar = netlist.eval(pattern);
            for (o, &bit) in scalar.iter().enumerate() {
                prop_assert_eq!(
                    bit,
                    words[o] >> lane & 1 != 0,
                    "lane {}, output {}", lane, o
                );
            }
        }
    }

    /// The prepared evaluator ([`NetlistFunction`]) agrees with the
    /// one-shot path across repeated blocks — scratch reuse leaks no
    /// state between blocks.
    #[test]
    fn prepared_evaluator_matches_one_shot_eval_words(seed in 0u64..1_000_000) {
        let netlist = synth_netlist(seed);
        let inputs = netlist.inputs().len();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB17);
        let mut function = NetlistFunction::new(&netlist).expect("flow netlists are acyclic");
        for round in 0..3 {
            let words: Vec<u64> = (0..inputs).map(|_| rng.gen()).collect();
            prop_assert_eq!(
                function.eval_wide(&words, 1),
                netlist.eval_words(&words),
                "round {}", round
            );
        }
    }

    /// Wide evaluation is exactly `width` independent 64-lane blocks,
    /// which (with `eval_words_is_64_scalar_evals`) closes the chain
    /// N-word ≡ N × 64-lane ≡ scalar: every divergence any sweep could
    /// observe is independent of the block width it ran at.
    #[test]
    fn eval_wide_is_width_independent_word_evals(
        seed in 0u64..1_000_000,
        width in 1usize..=9,
    ) {
        let netlist = synth_netlist(seed);
        let inputs = netlist.inputs().len();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51DE);
        let pattern: Vec<u64> = (0..inputs * width).map(|_| rng.gen()).collect();

        let wide = netlist.eval_wide(&pattern, width);
        let mut function = NetlistFunction::new(&netlist).expect("flow netlists are acyclic");
        prop_assert_eq!(
            &function.eval_wide(&pattern, width),
            &wide,
            "prepared and one-shot wide paths must agree"
        );
        for j in 0..width {
            let block: Vec<u64> = (0..inputs).map(|i| pattern[i * width + j]).collect();
            let narrow = netlist.eval_words(&block);
            for (o, &word) in narrow.iter().enumerate() {
                prop_assert_eq!(
                    word,
                    wide[o * width + j],
                    "width {}, block {}, output {}", width, j, o
                );
            }
        }
    }

    /// Packing is the inverse of unpacking for partial blocks too.
    #[test]
    fn pattern_block_round_trips(seed in 0u64..1_000_000, lanes in 1usize..=64, width in 1usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let patterns = random_patterns(width, lanes, &mut rng);
        let block = PatternBlock::pack(&patterns);
        prop_assert_eq!(block.lanes(), lanes);
        prop_assert_eq!(block.inputs(), width);
        prop_assert_eq!(block.lane_mask().count_ones() as usize, lanes);
        for (lane, pattern) in patterns.iter().enumerate() {
            prop_assert_eq!(&block.pattern(lane), pattern);
        }
    }
}
