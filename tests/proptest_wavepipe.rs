//! Property-based tests on the wave-pipelining transforms: for *any*
//! mapped random MIG, fan-out restriction bounds fan-out, buffer
//! insertion balances, both preserve function, and the balanced result
//! streams waves coherently.

use proptest::prelude::*;
use wave_pipelining::prelude::*;
use wavepipe::{
    balance, check_balance, weighted_arrivals, BufferStrategy, DelayWeights, FlowResult,
    WaveSimulator,
};

fn mig_config() -> impl Strategy<Value = mig::RandomMigConfig> {
    (3usize..10, 1usize..5, 2u32..9, 0u64..500).prop_flat_map(|(inputs, outputs, depth, seed)| {
        (depth as usize + 5..120).prop_map(move |gates| mig::RandomMigConfig {
            inputs,
            outputs,
            gates,
            depth,
            seed,
        })
    })
}

fn patterns(inputs: usize, seed: u64) -> Vec<Vec<bool>> {
    (0..12u64)
        .map(|k| {
            (0..inputs)
                .map(|i| (seed ^ k.wrapping_mul(0x9E37)).rotate_left(i as u32 * 3) & 1 != 0)
                .collect()
        })
        .collect()
}

/// The nested per-driver fan-out lists the flat table replaced, built
/// the way they were: one list per component, filled in component-index
/// then slot order.
fn nested_fanout(n: &Netlist) -> Vec<Vec<(wavepipe::CompId, u32)>> {
    let mut edges = vec![Vec::new(); n.len()];
    for id in n.ids() {
        for (slot, f) in n.component(id).fanins().iter().enumerate() {
            edges[f.index()].push((id, slot as u32));
        }
    }
    edges
}

/// Runs `spec` on `g`: the flow result of a verified run.
fn run(spec: &PipelineSpec, g: &mig::Mig) -> FlowResult {
    let pipeline = spec.build().expect("well-ordered spec");
    pipeline.run(g).expect("flow verifies on any input").result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn buffer_insertion_balances_any_netlist(config in mig_config()) {
        let g = mig::random_mig(config);
        let mut n = netlist_from_mig(&g);
        let golden = n.clone();
        let stats = insert_buffers(&mut n);
        let report = verify_balance(&n, None).expect("balanced after insertion");
        prop_assert_eq!(report.depth, stats.depth);
        for p in patterns(config.inputs, config.seed) {
            prop_assert_eq!(golden.eval(&p), n.eval(&p));
        }
    }

    #[test]
    fn flat_fanout_matches_nested_lists(config in mig_config(), limit in 2u32..6) {
        // Mapped, FOG-heavy restricted and BUF-heavy pipelined netlists
        // (the last two full of forward edges): every driver yields the
        // same (consumer, slot) sequence, in the same order.
        let g = mig::random_mig(config);
        let mapped = netlist_from_mig(&g);
        let mut restricted = mapped.clone();
        restrict_fanout(&mut restricted, limit);
        let spec = PipelineSpec::map(false)
            .restrict_fanout(limit)
            .insert_buffers(BufferStrategy::Asap)
            .verify(Some(limit));
        let pipelined = run(&spec, &g).pipelined;
        for n in [&mapped, &restricted, &pipelined] {
            let (flat, nested) = (n.fanout_edges(), nested_fanout(n));
            prop_assert_eq!(flat.len(), nested.len());
            for (driver, uses) in nested.iter().enumerate() {
                prop_assert_eq!(&flat[driver], uses.as_slice());
            }
        }
    }

    #[test]
    fn fanout_restriction_bounds_any_netlist(
        config in mig_config(),
        limit in 2u32..6,
    ) {
        let g = mig::random_mig(config);
        let mut n = netlist_from_mig(&g);
        let golden = n.clone();
        let stats = restrict_fanout(&mut n, limit);
        prop_assert!(n.max_fanout() <= limit);
        prop_assert!(stats.depth_after >= stats.depth_before);
        for p in patterns(config.inputs, config.seed ^ 1) {
            prop_assert_eq!(golden.eval(&p), n.eval(&p));
        }
    }

    #[test]
    fn full_flow_always_verifies(config in mig_config(), limit in 2u32..6) {
        let g = mig::random_mig(config);
        let spec = PipelineSpec::map(false)
            .restrict_fanout(limit)
            .insert_buffers(BufferStrategy::Asap)
            .verify(Some(limit));
        let result = run(&spec, &g);
        prop_assert!(result.pipelined.max_fanout() <= limit);
        prop_assert!(result.report.is_some());
    }

    #[test]
    fn balanced_netlists_stream_coherently(config in mig_config()) {
        let g = mig::random_mig(config);
        let result = run(&PipelineSpec::default(), &g);
        let waves = patterns(config.inputs, config.seed ^ 2);
        let corrupted = WaveSimulator::new(&result.pipelined).check_against_golden(&waves);
        prop_assert!(corrupted.is_empty(), "corrupted: {:?}", corrupted);
    }

    #[test]
    fn buffer_count_is_exactly_the_gap_sum(config in mig_config()) {
        // Shared chains make the total equal Σ_u max(0, maxreq(u) − ℓ(u));
        // the retiming cost model computes that sum independently.
        let g = mig::random_mig(config);
        let n = netlist_from_mig(&g);
        let schedule = wavepipe::schedule_levels(&n, &mut Default::default());
        let mut inserted = n.clone();
        let stats = insert_buffers(&mut inserted);
        prop_assert_eq!(
            wavepipe::LevelSchedule::buffer_cost(&n, &schedule.asap),
            stats.total() as u64
        );
    }

    #[test]
    fn retiming_never_increases_buffers(config in mig_config()) {
        let g = mig::random_mig(config);
        let n = netlist_from_mig(&g);
        let mut asap = n.clone();
        let a = insert_buffers(&mut asap);
        let levels = wavepipe::schedule_levels(&n, &mut Default::default()).retimed;
        let fanout = n.fanout_edges();
        let mut retimed = n;
        let r = balance(&mut retimed, &DelayWeights::UNIT, &levels, &fanout)
            .expect("retimed levels are feasible");
        prop_assert!(r.total() <= a.total());
        prop_assert!(verify_balance(&retimed, None).is_ok());
    }

    #[test]
    fn weighted_unit_equals_plain(config in mig_config()) {
        let g = mig::random_mig(config);
        let n = netlist_from_mig(&g);
        let mut plain = n.clone();
        let p = insert_buffers(&mut plain);
        let arrival = weighted_arrivals(&n, &DelayWeights::UNIT);
        prop_assert_eq!(&arrival, &n.levels());
        let fanout = n.fanout_edges();
        let mut weighted = n;
        let w = balance(&mut weighted, &DelayWeights::UNIT, &arrival, &fanout)
            .expect("unit weights always divide");
        prop_assert_eq!(w, p);
        prop_assert_eq!(
            wavepipe::io::write_netlist(&weighted),
            wavepipe::io::write_netlist(&plain)
        );
    }

    #[test]
    fn failed_balancing_leaves_any_netlist_untouched(config in mig_config(), bump in 0usize..64) {
        // NML weights (BUF 2) leave odd gaps around inverters, and a
        // schedule with one gate pulled a level early is infeasible:
        // either way a sweep that fails after growing chains for earlier
        // drivers must undo them.
        let g = mig::random_mig(config);
        let n = netlist_from_mig(&g);
        let before = wavepipe::io::write_netlist(&n);
        let nml = DelayWeights::NML;
        let mut early = n.levels();
        let gates: Vec<usize> = (0..n.len()).filter(|&i| early[i] > 1).collect();
        if let Some(&gate) = gates.get(bump % gates.len().max(1)) {
            early[gate] -= 1;
        }
        let fanout = n.fanout_edges();
        for (weights, arrival) in [(nml, weighted_arrivals(&n, &nml)), (DelayWeights::UNIT, early)] {
            let mut trial = n.clone();
            if balance(&mut trial, &weights, &arrival, &fanout).is_err() {
                prop_assert_eq!(wavepipe::io::write_netlist(&trial), before.clone());
                prop_assert_eq!(trial.counts(), n.counts());
            }
        }
    }

    #[test]
    fn weighted_qca_balances_any_netlist(config in mig_config()) {
        let g = mig::random_mig(config);
        let mut n = netlist_from_mig(&g);
        let golden = n.clone();
        let qca = DelayWeights::QCA;
        let (arrival, fanout) = (weighted_arrivals(&n, &qca), n.fanout_edges());
        balance(&mut n, &qca, &arrival, &fanout).expect("buf weight 1 always divides");
        let arrival = weighted_arrivals(&n, &qca);
        check_balance(&n, &qca, &arrival, &n.fanout_counts(), None).expect("weighted invariants");
        for p in patterns(config.inputs, config.seed ^ 3) {
            prop_assert_eq!(golden.eval(&p), n.eval(&p));
        }
    }

    #[test]
    fn netlist_text_roundtrip(config in mig_config()) {
        let g = mig::random_mig(config);
        let mut n = netlist_from_mig(&g);
        restrict_fanout(&mut n, 3);
        insert_buffers(&mut n);
        let parsed = wavepipe::io::parse_netlist(&wavepipe::io::write_netlist(&n))
            .expect("own output parses");
        prop_assert_eq!(parsed.counts(), n.counts());
        for p in patterns(config.inputs, config.seed ^ 4) {
            prop_assert_eq!(parsed.eval(&p), n.eval(&p));
        }
    }
}
