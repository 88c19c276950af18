//! End-to-end integration tests: MIG construction → optimization →
//! mapping → fan-out restriction → buffer insertion → verification →
//! wave streaming, across the benchmark suite.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wave_pipelining::prelude::*;
use wavepipe::{BufferStrategy, FlowResult, WaveSimulator};

/// Benchmarks small enough to run the full pipeline + simulation in a
/// debug-build test.
const SMALL: [&str; 10] = [
    "SASC", "ADD32R", "ADD32KS", "MUL8", "HAMMING", "CRC8x64", "ALU16", "CMP32", "DEC6", "MEDS32x8",
];

/// Runs `spec` on `g`: the flow result of a verified run.
fn run(spec: &PipelineSpec, g: &Mig) -> Arc<FlowResult> {
    let pipeline = spec.build().expect("well-ordered spec");
    pipeline.run(g).expect("flow verifies").result
}

fn random_patterns(inputs: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..inputs).map(|_| rng.gen()).collect())
        .collect()
}

#[test]
fn flow_preserves_function_on_small_suite() {
    for name in SMALL {
        let g = find_benchmark(name).expect("suite benchmark").build();
        let result = run(&PipelineSpec::default(), &g);
        let sim = mig::Simulator::new(&g);
        for pattern in random_patterns(g.input_count(), 24, 0xE2E) {
            assert_eq!(
                sim.eval(&pattern),
                result.pipelined.eval(&pattern),
                "{name}: pipelined netlist diverged from the MIG"
            );
        }
    }
}

#[test]
fn flow_satisfies_all_invariants_on_small_suite() {
    for name in SMALL {
        let g = find_benchmark(name).expect("suite benchmark").build();
        let result = run(&PipelineSpec::default(), &g);
        let report =
            verify_balance(&result.pipelined, Some(3)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.depth, result.pipelined.depth());
        assert!(result.pipelined.max_fanout() <= 3, "{name}");
        // Sizes are monotone: the flow only adds components.
        assert!(
            result.pipelined.counts().priced_total() >= result.original.counts().priced_total(),
            "{name}"
        );
        assert_eq!(
            result.pipelined.counts().maj,
            result.original.counts().maj,
            "{name}: the flow must not touch logic gates"
        );
        assert_eq!(
            result.pipelined.counts().inv,
            result.original.counts().inv,
            "{name}: the flow must not touch inverters"
        );
    }
}

#[test]
fn wave_streaming_is_coherent_on_small_suite() {
    for name in ["SASC", "MUL8", "ALU16", "DEC6", "MEDS32x8"] {
        let g = find_benchmark(name).expect("suite benchmark").build();
        let result = run(&PipelineSpec::default(), &g);
        let waves = random_patterns(g.input_count(), 20, 0x3A3E);
        let corrupted = WaveSimulator::new(&result.pipelined).check_against_golden(&waves);
        assert!(
            corrupted.is_empty(),
            "{name}: corrupted waves {corrupted:?}"
        );
    }
}

#[test]
fn optimization_then_flow_keeps_equivalence() {
    let g = find_benchmark("MUL8").expect("suite benchmark").build();
    let (opt, outcome) = mig::optimize_depth(&g, 8);
    assert!(outcome.after <= outcome.before);
    assert!(check_equivalence(&g, &opt).expect("same interface").holds());

    let result = run(&PipelineSpec::default(), &opt);
    let sim = mig::Simulator::new(&g);
    for pattern in random_patterns(g.input_count(), 32, 77) {
        assert_eq!(sim.eval(&pattern), result.pipelined.eval(&pattern));
    }
}

#[test]
fn every_fanout_limit_works_end_to_end() {
    let g = find_benchmark("SASC").expect("suite benchmark").build();
    for limit in 2..=5u32 {
        let spec = PipelineSpec::map(false)
            .restrict_fanout(limit)
            .insert_buffers(BufferStrategy::Asap)
            .verify(Some(limit));
        let result = run(&spec, &g);
        assert!(result.pipelined.max_fanout() <= limit);
        let waves = random_patterns(g.input_count(), 8, limit as u64);
        let corrupted = WaveSimulator::new(&result.pipelined).check_against_golden(&waves);
        assert!(corrupted.is_empty(), "limit {limit}");
    }
}

#[test]
fn weighted_balancing_composes_with_fanout_restriction() {
    use wavepipe::{balance, check_balance, weighted_arrivals, DelayWeights};
    let g = find_benchmark("HAMMING").expect("suite benchmark").build();
    let mut n = netlist_from_mig(&g);
    restrict_fanout(&mut n, 3);
    let golden = netlist_from_mig(&g);
    let qca = DelayWeights::QCA;
    let (arrival, fanout) = (weighted_arrivals(&n, &qca), n.fanout_edges());
    balance(&mut n, &qca, &arrival, &fanout).expect("QCA weights always divide");
    let arrival = weighted_arrivals(&n, &qca);
    check_balance(&n, &qca, &arrival, &n.fanout_counts(), Some(3))
        .expect("weighted invariants and the fan-out bound hold");
    for pattern in random_patterns(g.input_count(), 16, 5) {
        assert_eq!(golden.eval(&pattern), n.eval(&pattern));
    }
}

#[test]
fn netlist_io_roundtrips_after_the_flow() {
    let g = find_benchmark("SASC").expect("suite benchmark").build();
    let result = run(&PipelineSpec::default(), &g);
    let text = wavepipe::io::write_netlist(&result.pipelined);
    let parsed = wavepipe::io::parse_netlist(&text).expect("own output parses");
    assert_eq!(parsed.counts(), result.pipelined.counts());
    assert!(verify_balance(&parsed, Some(3)).is_ok());
    for pattern in random_patterns(g.input_count(), 8, 9) {
        assert_eq!(parsed.eval(&pattern), result.pipelined.eval(&pattern));
    }
}

#[test]
fn retimed_flow_is_equivalent_and_cheaper_or_equal() {
    const UNIT: wavepipe::DelayWeights = wavepipe::DelayWeights::UNIT;
    for name in ["SASC", "HAMMING", "ALU16"] {
        let g = find_benchmark(name).expect("suite benchmark").build();
        let mut base = netlist_from_mig(&g);
        restrict_fanout(&mut base, 3);

        let mut asap = base.clone();
        let asap_stats = insert_buffers(&mut asap);
        let levels = wavepipe::schedule_levels(&base, &mut Default::default()).retimed;
        let fanout = base.fanout_edges();
        let mut retimed = base;
        let retimed_stats = wavepipe::balance(&mut retimed, &UNIT, &levels, &fanout)
            .expect("retimed levels are feasible");
        assert!(
            retimed_stats.total() <= asap_stats.total(),
            "{name}: retimed {} > asap {}",
            retimed_stats.total(),
            asap_stats.total()
        );
        assert!(verify_balance(&retimed, Some(3)).is_ok(), "{name}");
        for pattern in random_patterns(g.input_count(), 8, 11) {
            assert_eq!(asap.eval(&pattern), retimed.eval(&pattern), "{name}");
        }
    }
}
