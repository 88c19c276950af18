//! Black-box coverage for [`WaveSimulator::check_against_golden`] (and
//! its word-level sibling), previously only exercised inside the
//! `wavesim` module: exact mismatch indices on a known-faulty wave
//! stream, scalar/word agreement, and the clean-after-balancing
//! contract.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wavepipe::{insert_buffers, netlist_from_mig, Netlist, WaveSimulator};

/// The canonical unbalanced netlist: `g4` reads input `a` through a
/// gap-4 edge, so at the moment `g4` computes wave `w`, `a` already
/// stores wave `w + 1` — a one-wave-late read.
fn skewed_netlist() -> Netlist {
    let mut n = Netlist::new("skew");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let c = n.add_input("c");
    let g1 = n.add_maj([a, b, c]);
    let g2 = n.add_maj([g1, b, c]);
    let g3 = n.add_maj([g2, b, c]);
    let g4 = n.add_maj([g3, a, a]); // = `a`, read through a gap-4 edge
    n.add_output("f", g4);
    n
}

/// Waves whose `a` bit alternates every wave, so a one-wave-late read
/// of `a` always differs from the golden value.
fn alternating_waves(count: usize) -> Vec<Vec<bool>> {
    (0..count)
        .map(|i| vec![i % 2 == 0, i % 2 == 1, i % 4 < 2])
        .collect()
}

#[test]
fn golden_mismatch_indices_are_exact_on_a_known_faulty_stream() {
    let n = skewed_netlist();
    let sim = WaveSimulator::new(&n);
    let waves = alternating_waves(16);
    let corrupted = sim.check_against_golden(&waves);

    // The reported indices must be exactly the waves whose streamed
    // output differs from the combinational golden model — recomputed
    // here from first principles via the run itself.
    let run = sim.run(&waves);
    let expected: Vec<usize> = waves
        .iter()
        .enumerate()
        .filter(|(i, w)| run.outputs[*i] != n.eval(w))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(corrupted, expected);
    assert!(!corrupted.is_empty(), "the gap-4 edge must corrupt waves");

    // `f` computes `a` one wave late; since `a` alternates, every wave
    // with a successor is corrupted. Only the tail of the stream (where
    // inputs hold their last value) can escape.
    for w in 0..waves.len() - 1 {
        assert!(corrupted.contains(&w), "wave {w} reads a(w+1) != a(w)");
    }

    // After balancing, the same stream is clean.
    let mut balanced = skewed_netlist();
    insert_buffers(&mut balanced);
    assert!(WaveSimulator::new(&balanced)
        .check_against_golden(&waves)
        .is_empty());
}

#[test]
fn word_level_and_scalar_golden_checks_agree() {
    let n = skewed_netlist();
    let sim = WaveSimulator::new(&n);
    let waves = alternating_waves(12);

    // Broadcast the scalar stream into all 64 lanes: the word-level
    // check must flag exactly the same wave indices.
    let packed: Vec<Vec<u64>> = waves
        .iter()
        .map(|w| w.iter().map(|&b| if b { !0u64 } else { 0 }).collect())
        .collect();
    assert_eq!(
        sim.check_against_golden_words(&packed),
        sim.check_against_golden(&waves)
    );
}

#[test]
fn balanced_flow_netlist_streams_64_random_lanes_clean() {
    // A mapped + balanced MIG passes the word-level golden check on 64
    // independent random stimulus streams at once.
    let g = mig::random_mig(mig::RandomMigConfig {
        inputs: 8,
        outputs: 4,
        gates: 150,
        depth: 9,
        seed: 23,
    });
    let mut n = netlist_from_mig(&g);
    wavepipe::restrict_fanout(&mut n, 3);
    insert_buffers(&mut n);

    let mut rng = StdRng::seed_from_u64(77);
    let waves: Vec<Vec<u64>> = (0..10)
        .map(|_| (0..8).map(|_| rng.gen()).collect())
        .collect();
    let sim = WaveSimulator::new(&n);
    assert!(sim.check_against_golden_words(&waves).is_empty());

    // And per-wave word outputs equal the bit-parallel golden model.
    let run = sim.run_wide(&waves, 1);
    for (w, wave) in waves.iter().enumerate() {
        assert_eq!(run.outputs[w], n.eval_words(wave));
    }
}
