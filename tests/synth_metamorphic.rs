//! Metamorphic differential verification over the synthetic-circuit
//! generator: hundreds of generated circuits stream through the engine
//! and every one is checked **differentially** against its source MIG
//! on the shared bit-parallel engine (`wavepipe::differential`):
//! exhaustively (all `2^n` patterns) for small input counts, seeded
//! stratified sampling beyond — plus word-level wave streaming on a
//! subsample (64 independent streams per run) and the structural
//! invariants each pass promises (fan-out bound, balanced depth),
//! across several pipeline configurations.
//!
//! The circuit population is derived deterministically from an index,
//! so a failure report like `synth:dag:137:depth=6,nodes=166` is a
//! complete reproduction recipe: `benchsuite::build_mig` on that name
//! rebuilds the exact netlist (see README, "Synthetic workloads &
//! testing guide").
//!
//! `SYNTH_METAMORPHIC_CASES` shrinks/grows the population (CI's smoke
//! jobs scale it; the default 256 — raised from 200 now that each case
//! checks thousands of patterns at 64 per netlist traversal — fits the
//! normal `cargo test` budget).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wave_pipelining::prelude::*;
use wavepipe::differential::{self, Verdict};
use wavepipe::{
    BufferStrategy, EquivalencePolicy, FlowConfig, FlowSpec, PipelineSpec, SynthSpec, WaveSimulator,
};

/// Number of generated circuits (override with
/// `SYNTH_METAMORPHIC_CASES=n`).
fn case_count() -> usize {
    std::env::var("SYNTH_METAMORPHIC_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// The per-case differential budget: exhaustive proof up to 2^14
/// patterns, 6 stratified 64-pattern rounds beyond — each case checks
/// at least 384 patterns where the pre-bit-parallel harness sampled 6.
fn case_policy(seed: u64) -> EquivalencePolicy {
    EquivalencePolicy {
        exhaustive_inputs: 14,
        rounds: 6,
        seed,
    }
}

/// Deterministic case `i` → a small synthetic circuit request spanning
/// all five generator families and a spread of parameter shapes.
fn synth_case(i: usize) -> SynthSpec {
    let seed = i as u64;
    match i % 5 {
        0 => {
            let spec = SynthSpec::new("dag", seed)
                .param("nodes", 40 + (seed * 7) % 180)
                .param("depth", 3 + seed % 7)
                .param("inputs", 4 + seed % 9)
                .param("outputs", 1 + seed % 5);
            if i.is_multiple_of(2) {
                spec.param("fanout", 3 + seed % 4)
            } else {
                spec
            }
        }
        1 => SynthSpec::new("adder", seed)
            .param("width", 1 + seed % 10)
            .param("chains", 1 + seed % 3),
        2 => SynthSpec::new("parity", seed)
            .param("width", 4 + seed % 20)
            .param("layers", 1 + seed % 3),
        3 => SynthSpec::new("majtree", seed)
            .param("width", 3 + seed % 22)
            .param("trees", 1 + seed % 4),
        _ => SynthSpec::new("compose", seed)
            .param("blocks", 1 + seed % 3)
            .param("mode", seed % 3)
            .param("width", 3 + seed % 6)
            .param("nodes", 20 + seed % 40),
    }
}

fn random_word_waves(inputs: usize, count: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..inputs).map(|_| rng.gen()).collect())
        .collect()
}

/// The core metamorphic sweep: every generated circuit through the
/// default flow (FO3 + BUF + verify), differentially checked against
/// its source MIG (exhaustively for ≤ 14 inputs), with per-pass
/// invariants and cache-key uniqueness across seeds.
#[test]
fn default_flow_preserves_function_on_generated_population() {
    let n = case_count();
    let engine = Engine::new().with_resolver(benchsuite::build_mig);
    let mut spec = FlowSpec::new("metamorphic");
    for i in 0..n {
        spec = spec.synthetic_circuit(synth_case(i));
    }
    let cold = engine.run(&spec).expect("population verifies");

    // Cache-key uniqueness: n distinct (family, seed, params) triples
    // must be n distinct cells — any collision would show as a hit.
    assert_eq!(cold.stats.cache_misses, n as u64);
    assert_eq!(cold.stats.cache_hits, 0);

    let mut proven_exhaustively = 0usize;
    for (ci, cell) in cold.iter().enumerate() {
        let name = &cold.circuits[ci];
        let run = cell
            .run()
            .unwrap_or_else(|| panic!("{name}: flow failed: {:?}", cell.outcome));
        let source = benchsuite::build_mig(name)
            .unwrap_or_else(|| panic!("{name}: registry must rebuild the circuit"));

        // Differential equivalence on the shared bit-parallel engine:
        // an exhaustive proof for ≤ 14 inputs, stratified sampling
        // beyond; a divergence comes back as a replayable pattern.
        let verdict = differential::check(
            &run.result.pipelined,
            &source,
            &case_policy(0xD1FF ^ ci as u64),
        )
        .unwrap_or_else(|e| panic!("{name}: differential check impossible: {e}"));
        match &verdict {
            Verdict::Equivalent {
                patterns,
                exhaustive,
            } => {
                if *exhaustive {
                    assert_eq!(*patterns, 1u64 << source.input_count(), "{name}");
                    proven_exhaustively += 1;
                } else {
                    assert!(*patterns >= 384, "{name}: budget too small ({patterns})");
                }
            }
            Verdict::Diverged(cex) => {
                panic!("{name}: pipelined netlist diverged from the generator output: {cex}")
            }
        }

        // Pass invariants: fan-out bound, balance, monotone size.
        assert!(
            run.result.pipelined.max_fanout() <= 3,
            "{name}: fan-out {} exceeds the FO3 bound",
            run.result.pipelined.max_fanout()
        );
        let report = run.result.report.as_ref().expect("verify pass ran");
        assert_eq!(
            report.depth,
            run.result.pipelined.depth(),
            "{name}: balance report disagrees with the netlist depth"
        );
        for pass in &run.trace {
            assert!(
                pass.depth_after >= pass.depth_before || pass.pass.starts_with("map"),
                "{name}: pass {} reduced depth",
                pass.pass
            );
            assert!(
                pass.counts_after.priced_total() >= pass.counts_before.priced_total(),
                "{name}: pass {} removed components",
                pass.pass
            );
        }
    }
    assert!(
        proven_exhaustively * 2 >= n,
        "most generated cases are small enough for exhaustive proofs \
         ({proven_exhaustively}/{n})"
    );

    // Determinism: a verbatim re-run is pure cache hits (identical
    // content-hash keys for identical (family, seed, params)).
    let warm = engine.run(&spec).expect("population verifies");
    assert_eq!(warm.stats.cache_hits, n as u64);
    assert_eq!(warm.stats.passes_executed, 0);
}

/// Every pipeline configuration must preserve the generated function —
/// the metamorphic relation is "same circuit, any flow ⇒ same I/O
/// behaviour" — and enforce its own fan-out bound. One configuration
/// additionally runs with the per-pass equivalence gate enabled, so the
/// engine-level self-verification toggle is exercised on the whole
/// subsample.
#[test]
fn alternative_pipelines_preserve_function_on_subsample() {
    let n = case_count();
    let engine = Engine::new().with_resolver(benchsuite::build_mig);
    let configs: [(&str, PipelineSpec, Option<u32>); 4] = [
        (
            "fo2-retimed",
            PipelineSpec::map(false)
                .restrict_fanout(2)
                .insert_buffers(BufferStrategy::Retimed)
                .verify(Some(2))
                // Self-verifying sweep: every pass boundary re-checks
                // equivalence with the source MIG.
                .gate_equivalence(EquivalencePolicy {
                    exhaustive_inputs: 10,
                    rounds: 2,
                    seed: 0x6A7E,
                }),
            Some(2),
        ),
        (
            "fo4-asap",
            PipelineSpec::map(false)
                .restrict_fanout(4)
                .insert_buffers(BufferStrategy::Asap)
                .verify(Some(4)),
            Some(4),
        ),
        (
            "buf-only",
            PipelineSpec::map(false)
                .insert_buffers(BufferStrategy::Asap)
                .verify(None),
            None,
        ),
        (
            "min-inverters",
            PipelineSpec::for_config(FlowConfig {
                minimize_inverters: true,
                ..FlowConfig::default()
            }),
            Some(3),
        ),
    ];

    for (label, pipeline, bound) in configs {
        let mut spec = FlowSpec::new(label).with_pipeline(pipeline);
        for i in (0..n).step_by(7) {
            spec = spec.synthetic_circuit(synth_case(i));
        }
        let swept = engine.run(&spec).expect("subsample verifies");
        for (ci, cell) in swept.iter().enumerate() {
            let name = &swept.circuits[ci];
            let run = cell
                .run()
                .unwrap_or_else(|| panic!("{label}/{name}: {:?}", cell.outcome));
            let source = benchsuite::build_mig(name).expect("registry rebuilds");
            let verdict =
                differential::check(&run.result.pipelined, &source, &case_policy(ci as u64))
                    .unwrap_or_else(|e| panic!("{label}/{name}: {e}"));
            assert!(
                verdict.holds(),
                "{label}/{name}: function not preserved: {verdict:?}"
            );
            if let Some(limit) = bound {
                assert!(
                    run.result.pipelined.max_fanout() <= limit,
                    "{label}/{name}: fan-out bound violated"
                );
            }
        }
    }
}

/// Exhaustive differential equivalence for every ≤ 16-input circuit of
/// the reconstructed benchmark suite (a superset of the bench harness's
/// quick subset), across all four pipeline configurations: all `2^n`
/// patterns, proven, per config.
#[test]
fn small_suite_circuits_are_exhaustively_equivalent_across_all_configs() {
    let engine = Engine::new().with_resolver(benchsuite::build_mig);
    let small: Vec<(&str, Mig)> = benchsuite::SUITE
        .iter()
        .map(|s| (s.name, s.build()))
        .filter(|(_, g)| g.input_count() <= 16)
        .collect();
    assert!(
        small.len() >= 3,
        "the suite should keep a few exhaustively-checkable circuits"
    );

    let configs: [(&str, PipelineSpec); 4] = [
        ("fo3-asap", PipelineSpec::default()),
        (
            "fo2-retimed",
            PipelineSpec::map(false)
                .restrict_fanout(2)
                .insert_buffers(BufferStrategy::Retimed)
                .verify(Some(2)),
        ),
        (
            "buf-only",
            PipelineSpec::map(false)
                .insert_buffers(BufferStrategy::Asap)
                .verify(None),
        ),
        (
            "min-inverters",
            PipelineSpec::for_config(FlowConfig {
                minimize_inverters: true,
                ..FlowConfig::default()
            }),
        ),
    ];
    let policy = EquivalencePolicy::exhaustive(16);

    for (label, pipeline) in configs {
        for (name, graph) in &small {
            let run = engine
                .run_graph(graph, &pipeline, None)
                .unwrap_or_else(|e| panic!("{label}/{name}: flow failed: {e}"));
            match differential::check(&run.result.pipelined, graph, &policy).unwrap() {
                Verdict::Equivalent {
                    exhaustive: true,
                    patterns,
                } => {
                    assert_eq!(patterns, 1u64 << graph.input_count(), "{label}/{name}");
                }
                other => panic!("{label}/{name}: expected an exhaustive proof, got {other:?}"),
            }
        }
    }
}

/// Word-level wave streaming on a subsample: 64 independent random
/// stimulus streams per circuit (one bit-parallel run), every wave of
/// every lane compared against the source MIG's bit-parallel
/// combinational function.
#[test]
fn wave_streaming_matches_the_source_mig_on_subsample() {
    let n = case_count();
    let engine = Engine::new().with_resolver(benchsuite::build_mig);
    let mut spec = FlowSpec::new("waves");
    for i in (0..n).step_by(11) {
        spec = spec.synthetic_circuit(synth_case(i));
    }
    let swept = engine.run(&spec).expect("subsample verifies");
    for (ci, cell) in swept.iter().enumerate() {
        let name = &swept.circuits[ci];
        let run = cell.run().expect("cell verified");
        let source = benchsuite::build_mig(name).expect("registry rebuilds");
        // 8 waves × 64 lanes = 512 streamed operations per circuit.
        let waves = random_word_waves(source.input_count(), 8, 0x3A3E ^ ci as u64);

        let streamed = WaveSimulator::new(&run.result.pipelined).run_words(&waves);
        let sim = mig::Simulator::new(&source);
        for (w, wave) in waves.iter().enumerate() {
            assert_eq!(
                streamed.outputs[w],
                sim.eval_words(wave),
                "{name}: wave {w} diverged from the source function"
            );
        }
    }
}

/// The rewrite-prefixed flow on a subsample plus the two families the
/// rewrites exist for (maximally-skewed `chain`, shared-context
/// `shared`). Kept separate from the main sweep because the rewrite
/// passes *intentionally* violate its monotone trace invariants
/// (`depth_after >= depth_before`, non-decreasing component counts) —
/// here the invariants point the other way:
///
/// * **equivalence** — the pipelined netlist still matches the *raw*
///   source MIG differentially (and the per-pass equivalence gate
///   re-checks every pass boundary, the rewrites included);
/// * **depth monotone** — `optimize_depth` never increases projected
///   depth, and strictly reduces it on skewed chains;
/// * **size monotone** — `optimize_size` never increases projected
///   gate count, and strictly reduces it on shared-context groups;
/// * **warm-cache determinism** — a verbatim re-run is pure cache hits,
///   i.e. the rewrite passes hash into the cache key like every other
///   pass.
#[test]
fn rewrite_prefixed_flow_preserves_function_and_improves_qor() {
    let n = case_count();
    let engine = Engine::new().with_resolver(benchsuite::build_mig);
    let pipeline = PipelineSpec::map(false)
        .optimize_depth(16)
        .optimize_size(16)
        .restrict_fanout(3)
        .insert_buffers(BufferStrategy::Asap)
        .verify(Some(3))
        .gate_equivalence(EquivalencePolicy {
            exhaustive_inputs: 10,
            rounds: 2,
            seed: 0x0E57,
        });

    let mut spec = FlowSpec::new("rewrite-metamorphic").with_pipeline(pipeline);
    for i in (0..n).step_by(7) {
        spec = spec.synthetic_circuit(synth_case(i));
    }
    let general = spec.circuits.len();
    for seed in 0..4u64 {
        spec = spec
            .synthetic_circuit(SynthSpec::new("chain", seed).param("length", 24 + seed * 8))
            .synthetic_circuit(
                SynthSpec::new("shared", seed)
                    .param("groups", 4 + seed * 3)
                    .param("width", 8 + seed),
            );
    }
    let total = spec.circuits.len();

    let cold = engine.run(&spec).expect("rewrite-prefixed sweep verifies");
    for (ci, cell) in cold.iter().enumerate() {
        let name = &cold.circuits[ci];
        let run = cell
            .run()
            .unwrap_or_else(|| panic!("{name}: flow failed: {:?}", cell.outcome));
        let source = benchsuite::build_mig(name).expect("registry rebuilds");

        let verdict = differential::check(
            &run.result.pipelined,
            &source,
            &case_policy(0x5E17 ^ ci as u64),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            verdict.holds(),
            "{name}: rewrites broke the function: {verdict:?}"
        );

        let stat = |pass: &str| {
            run.trace
                .iter()
                .find(|p| p.pass == pass)
                .unwrap_or_else(|| panic!("{name}: `{pass}` missing from the trace"))
        };
        let by_depth = stat("optimize_depth");
        assert!(
            by_depth.depth_after <= by_depth.depth_before,
            "{name}: optimize_depth deepened the graph ({} from {})",
            by_depth.depth_after,
            by_depth.depth_before
        );
        let by_size = stat("optimize_size");
        assert!(
            by_size.counts_after.maj <= by_size.counts_before.maj,
            "{name}: optimize_size grew the graph ({} from {})",
            by_size.counts_after.maj,
            by_size.counts_before.maj
        );
        // The QoR contract on the demonstrator families is strict.
        if name.starts_with("synth:chain:") {
            assert!(
                by_depth.depth_after < by_depth.depth_before,
                "{name}: a maximally-skewed chain must rebalance"
            );
        }
        if name.starts_with("synth:shared:") {
            assert!(
                by_size.counts_after.maj < by_size.counts_before.maj,
                "{name}: shared-context groups must collapse"
            );
        }
    }
    assert!(total > general, "the strict-family cases were swept");

    // Warm determinism: identical spec (rewrite rounds included) must
    // be a pure cache replay.
    let warm = engine.run(&spec).expect("warm re-run verifies");
    assert_eq!(warm.stats.cache_hits, total as u64);
    assert_eq!(warm.stats.passes_executed, 0);
}

/// The rewrite kernels' QoR contract at the presets the README quotes:
/// under `optimize_depth` + `optimize_size` (64 rounds each) ahead of
/// the paper's default flow, with the per-pass equivalence gate on,
/// every maximally-skewed chain at least halves in depth (source MIG
/// depth over the depth after the last rewrite), every shared-context
/// group loses majority gates, and a warm re-run executes no pass.
#[test]
fn rewrite_presets_meet_the_qor_contract() {
    const CHAINS: [&str; 3] = [
        "synth:chain:1:length=64",
        "synth:chain:2:chains=2,length=128",
        "synth:chain:3:length=256",
    ];
    const SHARED: [&str; 2] = [
        "synth:shared:4:groups=24,width=16",
        "synth:shared:5:groups=64,width=24",
    ];
    let engine = Engine::new().with_resolver(benchsuite::build_mig);
    let raw = PipelineSpec::for_config(FlowConfig::default());
    let mut pipeline = PipelineSpec::map(raw.minimize_inverters)
        .optimize_depth(64)
        .optimize_size(64)
        .gate_equivalence(EquivalencePolicy::default());
    pipeline.passes.extend(raw.passes);
    let mut spec = FlowSpec::new("qor-contract").with_pipeline(pipeline);
    for name in CHAINS.iter().chain(&SHARED) {
        spec = spec.circuit(*name);
    }

    let cold = engine.run(&spec).expect("rewrite pipeline is well-formed");
    assert_eq!(cold.circuits.len(), CHAINS.len() + SHARED.len());
    for (ci, cell) in cold.iter().enumerate() {
        let name = &cold.circuits[ci];
        let run = cell
            .run()
            .unwrap_or_else(|| panic!("{name}: flow failed: {:?}", cell.outcome));
        let source = benchsuite::build_mig(name).expect("registry rebuilds");
        let last = run
            .trace
            .iter()
            .rfind(|p| p.pass.starts_with("optimize_"))
            .unwrap_or_else(|| panic!("{name}: the rewrite prefix is traced"));
        if CHAINS.contains(&name.as_str()) {
            let gain = source.depth() as f64 / last.depth_after.max(1) as f64;
            assert!(
                gain >= 2.0,
                "{name}: skewed chains must at least halve in depth (got {gain:.2}x)"
            );
        } else {
            assert!(
                last.counts_after.maj < source.gate_count(),
                "{name}: shared-context groups must lose gates ({} from {})",
                last.counts_after.maj,
                source.gate_count()
            );
        }
    }

    let warm = engine.run(&spec).expect("warm re-run verifies");
    assert_eq!(
        warm.stats.passes_executed, 0,
        "warm re-run executes no pass"
    );
}

/// The generator contract behind the cache: identical requests are
/// bit-identical netlists, and the canonical name embedded in the spec
/// is a complete reproduction recipe.
#[test]
fn generated_circuits_are_bit_identical_across_builds() {
    for i in (0..case_count()).step_by(13) {
        let synth = synth_case(i);
        let name = synth.name();
        let a = benchsuite::build_mig(&name).expect("synth name resolves");
        let b = benchsuite::build_mig(&name).expect("synth name resolves");
        assert_eq!(
            mig::write_mig(&a),
            mig::write_mig(&b),
            "{name}: generator must be deterministic"
        );
        assert_eq!(a.name(), name, "{name}: graph carries its canonical name");
    }
}
