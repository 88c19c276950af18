//! Golden, metamorphic and property tests of the static lint engine.
//!
//! Three layers of evidence that the `wavecheck` rules are trustworthy:
//!
//! * **golden** — hand-built known-bad netlists/graphs/specs produce
//!   exactly the expected rule codes;
//! * **agreement** — every quick-suite circuit that passes dynamic
//!   differential equivalence gating also lints clean (zero
//!   error-severity diagnostics), so the static legality rules and the
//!   simulation-based verifier never disagree on good flows;
//! * **metamorphic** — injecting a single timing gap (one extra buffer
//!   on one fan-in edge) into a legal pipelined netlist preserves
//!   *function* (differential equivalence still holds) but breaks
//!   *wave legality*, and the path-balance rule flags it without any
//!   simulation — exactly the class of bug sampling can never catch.

use proptest::prelude::*;
use serde::Value;
use wavepipe::differential::{self};
use wavepipe::lint::{LintContext, LintDriver, Severity};
use wavepipe::{
    lint_mig, lint_netlist, lint_spec, BufferStrategy, ComponentKind, CostModel, CostTable, Engine,
    EquivalencePolicy, FlowError, FlowPipeline, FlowSpec, Netlist, Pass, PassError, PipelineSpec,
};
use wavepipe_bench::harness::QUICK_SUBSET;

/// The §IV fan-out bound every test flow uses (the paper's default).
const LIMIT: u32 = 3;

fn codes(diagnostics: &[wavepipe::Diagnostic]) -> Vec<&str> {
    let mut codes: Vec<&str> = diagnostics.iter().map(|d| d.code.as_str()).collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

fn error_codes(diagnostics: &[wavepipe::Diagnostic]) -> Vec<&str> {
    let mut codes: Vec<&str> = diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.code.as_str())
        .collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

#[test]
fn wp001_flags_an_unbalanced_path() {
    let mut n = Netlist::new("unbalanced");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let c = n.add_input("c");
    let i1 = n.add_inv(a); // level 1
    let i2 = n.add_inv(i1); // level 2
    let m = n.add_maj([i2, b, c]); // level 3: b and c edges span 3
    n.add_output("o", m);
    let diagnostics = lint_netlist(&n, None);
    assert!(
        error_codes(&diagnostics).contains(&"WP001"),
        "{diagnostics:?}"
    );
}

#[test]
fn wp002_flags_misaligned_outputs() {
    let mut n = Netlist::new("misaligned");
    let a = n.add_input("a");
    let i = n.add_inv(a); // level 1
    n.add_output("deep", i);
    n.add_output("shallow", a); // level 0
    let diagnostics = lint_netlist(&n, None);
    assert!(
        error_codes(&diagnostics).contains(&"WP002"),
        "{diagnostics:?}"
    );
}

#[test]
fn wp003_flags_a_fanout_over_the_limit() {
    let mut n = Netlist::new("hot");
    let a = n.add_input("a");
    for k in 0..4 {
        let i = n.add_inv(a);
        n.add_output(format!("o{k}"), i);
    }
    let with_limit = lint_netlist(&n, Some(3));
    assert!(
        error_codes(&with_limit).contains(&"WP003"),
        "{with_limit:?}"
    );
    // Without a configured limit the rule has nothing to check against.
    let without = lint_netlist(&n, None);
    assert!(!codes(&without).contains(&"WP003"), "{without:?}");
}

#[test]
fn wp004_flags_a_combinational_cycle() {
    let mut n = Netlist::new("cyclic");
    let a = n.add_input("a");
    let b1 = n.add_buf(a);
    let b2 = n.add_buf(b1);
    n.component_mut(b1).fanins_mut()[0] = b2;
    n.add_output("o", b2);
    let diagnostics = lint_netlist(&n, Some(LIMIT));
    assert!(
        error_codes(&diagnostics).contains(&"WP004"),
        "{diagnostics:?}"
    );
}

#[test]
fn wp005_flags_out_of_range_references_without_panicking() {
    let mut n = Netlist::new("malformed");
    let a = n.add_input("a");
    let b = n.add_buf(a);
    n.add_output("o", b);
    n.component_mut(b).fanins_mut()[0] = wavepipe::CompId::from_index(999);
    // The full driver must survive the malformed arena (the traversal
    // helpers bail out) and still report the structural finding.
    let diagnostics = lint_netlist(&n, Some(LIMIT));
    assert!(
        error_codes(&diagnostics).contains(&"WP005"),
        "{diagnostics:?}"
    );
}

#[test]
fn wp006_and_wp007_flag_dead_and_redundant_cells() {
    let mut n = Netlist::new("hygiene");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let c = n.add_input("c");
    let i1 = n.add_inv(a);
    let i2 = n.add_inv(i1); // INV-of-INV: WP007
    n.add_output("o", i2);
    // Balanced (all fan-ins level 0) but driving nothing: WP006 only.
    let _dead = n.add_maj([a, b, c]);
    let diagnostics = lint_netlist(&n, None);
    let found = codes(&diagnostics);
    assert!(found.contains(&"WP006"), "{diagnostics:?}");
    assert!(found.contains(&"WP007"), "{diagnostics:?}");
    // Hygiene findings are warnings — they never fail a gated flow.
    assert!(error_codes(&diagnostics).is_empty(), "{diagnostics:?}");
}

#[test]
fn mig003_flags_dead_gates() {
    let mut g = mig::Mig::new();
    let a = g.add_input("a");
    let b = g.add_input("b");
    let c = g.add_input("c");
    let used = g.add_maj(a, b, c);
    let _dead = g.add_maj(a, b, !c);
    g.add_output("o", used);
    let diagnostics = lint_mig(&g);
    assert!(codes(&diagnostics).contains(&"MIG003"), "{diagnostics:?}");
}

#[test]
fn rewritten_graphs_lint_clean_of_every_mig_rule() {
    // `wavecheck --optimize` lints the rewritten MIG instead of the
    // source graph, attesting the flow's actual mapping input. That
    // only attests anything if the rewrites preserve hygiene: the
    // collapse driver re-normalizes every gate through `add_maj` (so
    // zero `MIG001` axiom-reducible gates and zero `MIG002` strash
    // duplicates survive `optimize_size`) and both drivers end in
    // `cleanup()` (so collapsed structure leaves no `MIG003` dead gates
    // and `MIG004` topological order holds).
    for name in [
        "synth:chain:21:length=48",
        "synth:shared:22:groups=12,width=12",
        "synth:dag:23:nodes=200",
        "SASC",
    ] {
        let g = benchsuite::build_mig(name).expect("registry circuit");
        let (by_depth, _) = mig::optimize_depth(&g, 16);
        let optimized = mig::optimize_size(&by_depth, 16);
        let diagnostics = lint_mig(&optimized);
        assert!(
            diagnostics.is_empty(),
            "{name}: rewritten graph is not hygienic: {:?}",
            codes(&diagnostics)
        );
    }
}

#[test]
fn spec001_flags_transforms_without_verification() {
    let spec = FlowSpec::new("no-verify")
        .with_pipeline(PipelineSpec::map(false).restrict_fanout(LIMIT))
        .circuit("SASC");
    let diagnostics = lint_spec(&spec);
    assert!(codes(&diagnostics).contains(&"SPEC001"), "{diagnostics:?}");

    let mismatch = FlowSpec::new("mismatch")
        .with_pipeline(
            PipelineSpec::map(false)
                .restrict_fanout(2)
                .insert_buffers(BufferStrategy::Asap)
                .verify(Some(4)),
        )
        .circuit("SASC");
    let diagnostics = lint_spec(&mismatch);
    assert!(codes(&diagnostics).contains(&"SPEC001"), "{diagnostics:?}");
}

#[test]
fn spec003_flags_duplicate_circuits() {
    let spec = FlowSpec::new("dupes").circuit("SASC").circuit("SASC");
    let diagnostics = lint_spec(&spec);
    assert!(codes(&diagnostics).contains(&"SPEC003"), "{diagnostics:?}");
}

/// A technology whose phase delay cannot time a wave — the spec-lint
/// error case the engine must reject before running anything.
struct BrokenTech;

impl CostModel for BrokenTech {
    fn cost_name(&self) -> &str {
        "BROKEN"
    }
    fn area_of(&self, _: ComponentKind) -> f64 {
        1.0
    }
    fn delay_of(&self, _: ComponentKind) -> f64 {
        1.0
    }
    fn energy_of(&self, _: ComponentKind) -> f64 {
        1.0
    }
    fn phase_delay(&self) -> f64 {
        0.0
    }
    fn output_sense_energy(&self) -> f64 {
        0.0
    }
}

#[test]
fn engine_rejects_a_spec_with_an_untimeable_technology() {
    let spec = FlowSpec::new("broken-tech")
        .technology(CostTable::from_model(&BrokenTech))
        .circuit("SASC");
    let err = Engine::new()
        .with_resolver(benchsuite::build_mig)
        .run(&spec)
        .unwrap_err();
    match err {
        FlowError::Lint(diagnostics) => {
            assert!(codes(&diagnostics).contains(&"SPEC002"), "{diagnostics:?}");
            assert!(diagnostics.iter().all(|d| d.severity == Severity::Error));
        }
        other => panic!("expected FlowError::Lint, got {other}"),
    }
}

/// Static/dynamic agreement: every quick-suite circuit that passes
/// per-pass differential equivalence gating also lints with zero
/// error-severity diagnostics.
#[test]
fn quick_suite_agreement_with_the_differential_engine() {
    let pipeline = FlowPipeline::builder()
        .map(false)
        .restrict_fanout(LIMIT)
        .insert_buffers(BufferStrategy::Asap)
        .verify(Some(LIMIT))
        .gate_equivalence(EquivalencePolicy::default())
        .gate_lints()
        .build()
        .expect("well-ordered pipeline");
    for name in QUICK_SUBSET {
        let g = benchsuite::build_mig(name).expect("registry circuit");
        let run = pipeline
            .run(&g)
            .unwrap_or_else(|e| panic!("{name}: gated flow failed: {e}"));
        let diagnostics = lint_netlist(&run.result.pipelined, Some(LIMIT));
        assert!(
            error_codes(&diagnostics).is_empty(),
            "{name}: equivalence-verified flow output must lint clean, got {:?}",
            error_codes(&diagnostics)
        );
    }
}

/// Metamorphic gap injection: one extra buffer on one fan-in edge of a
/// legal pipelined netlist preserves function but breaks wave timing.
/// Differential equivalence (the dynamic check) still holds; only the
/// static path-balance rule catches the illegality.
#[test]
fn gap_injection_is_caught_statically_not_dynamically() {
    let g = benchsuite::build_mig("SASC").expect("registry circuit");
    let run = FlowPipeline::builder()
        .map(false)
        .restrict_fanout(LIMIT)
        .insert_buffers(BufferStrategy::Asap)
        .verify(Some(LIMIT))
        .build()
        .expect("well-ordered pipeline")
        .run(&g)
        .expect("SASC flows");
    let mut mutated = run.result.pipelined.clone();

    // Find a component with a non-constant fan-in and stretch that one
    // edge by a buffer: the path through it now arrives one phase late.
    let target = mutated
        .ids()
        .find(|&id| {
            let c = mutated.component(id);
            c.kind() == ComponentKind::Maj
                && c.fanins()
                    .iter()
                    .any(|&f| mutated.component(f).kind() != ComponentKind::Const)
        })
        .expect("a MAJ gate with a non-const fan-in exists");
    let slot = mutated
        .component(target)
        .fanins()
        .iter()
        .position(|&f| mutated.component(f).kind() != ComponentKind::Const)
        .expect("checked above");
    let fanin = mutated.component(target).fanins()[slot];
    let gap = mutated.add_buf(fanin);
    mutated.component_mut(target).fanins_mut()[slot] = gap;

    // Dynamic view: still functionally equivalent to the source MIG.
    let verdict = differential::check(&mutated, &g, &EquivalencePolicy::default())
        .expect("interfaces still match");
    assert!(verdict.holds(), "a buffer never changes logic function");

    // Static view: the path-balance rule flags the gap, zero simulation.
    let diagnostics = lint_netlist(&mutated, Some(LIMIT));
    assert!(
        error_codes(&diagnostics).contains(&"WP001"),
        "gap injection must trip WP001, got {:?}",
        codes(&diagnostics)
    );
}

/// A custom pass that stretches one fan-in edge by a buffer after
/// balancing — functionally harmless, wave-illegal.
struct GapPass;

impl Pass for GapPass {
    fn name(&self) -> String {
        "inject_gap".to_owned()
    }

    fn run(&self, ctx: &mut wavepipe::FlowContext<'_>) -> Result<(), PassError> {
        let netlist = ctx.netlist_mut();
        let (target, slot) = netlist
            .ids()
            .find_map(|id| {
                let c = netlist.component(id);
                if c.kind() != ComponentKind::Maj {
                    return None;
                }
                c.fanins()
                    .iter()
                    .position(|&f| netlist.component(f).kind() != ComponentKind::Const)
                    .map(|slot| (id, slot))
            })
            .expect("a MAJ gate with a non-const fan-in exists after mapping");
        let fanin = netlist.component(target).fanins()[slot];
        let gap = netlist.add_buf(fanin);
        netlist.component_mut(target).fanins_mut()[slot] = gap;
        Ok(())
    }
}

#[test]
fn lint_gate_names_the_pass_that_broke_legality() {
    let g = benchsuite::build_mig("SASC").expect("registry circuit");
    let err = FlowPipeline::builder()
        .map(false)
        .restrict_fanout(LIMIT)
        .insert_buffers(BufferStrategy::Asap)
        .pass(Box::new(GapPass))
        .gate_lints()
        .build()
        .expect("well-ordered pipeline")
        .run(&g)
        .unwrap_err();
    match err {
        PassError::Lint(failure) => {
            assert_eq!(failure.pass, "inject_gap");
            assert!(
                failure.diagnostics.iter().any(|d| d.code == "WP001"),
                "{failure}"
            );
        }
        other => panic!("expected PassError::Lint, got {other}"),
    }
}

#[test]
fn lint_report_round_trips_subject_diagnostics() {
    let mut n = Netlist::new("hot");
    let a = n.add_input("a");
    for k in 0..4 {
        let i = n.add_inv(a);
        n.add_output(format!("o{k}"), i);
    }
    let report = wavepipe::LintReport::new(
        Some(3),
        vec![wavepipe::lint::SubjectReport {
            subject: "hot".to_owned(),
            diagnostics: lint_netlist(&n, Some(3)),
        }],
    );
    assert!(!report.is_clean());
    assert!(report.totals.errors >= 1);
    let rendered = serde_json::to_string_pretty(&report).expect("serializes");
    assert!(rendered.contains("\"WP003\""), "{rendered}");
}

/// PassStats must keep flowing when the lint gate is enabled and clean.
#[test]
fn clean_flow_with_lint_gate_keeps_its_trace() {
    let g = benchsuite::build_mig("SASC").expect("registry circuit");
    let run = FlowPipeline::builder()
        .map(false)
        .restrict_fanout(LIMIT)
        .insert_buffers(BufferStrategy::Asap)
        .verify(Some(LIMIT))
        .gate_lints()
        .build()
        .expect("well-ordered pipeline")
        .run(&g)
        .expect("clean flow passes the gate");
    let names: Vec<&str> = run.trace.iter().map(|s| s.pass.as_str()).collect();
    assert_eq!(names.len(), 4, "{names:?}");
}

/// Sorted top-level keys of a JSON object value.
fn keys(value: &Value) -> Vec<String> {
    let mut keys: Vec<String> = value
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    keys.sort();
    keys
}

/// The `wavecheck --json --out` artifact (regenerated by CI's
/// lint-smoke job) must parse with the pinned report shape and carry
/// zero error-severity findings.
#[test]
fn generated_lint_report_parses_clean() {
    let path = "results/LINT.json";
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("{path} not generated in this checkout; skipping");
        return;
    };
    let value: Value = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(
        keys(&value),
        ["fanout_limit", "schema_version", "subjects", "totals"],
        "{path} drifted from the schema"
    );
    let totals = serde::field(value.as_object().unwrap(), "totals").unwrap();
    assert_eq!(
        serde::field(totals.as_object().unwrap(), "errors")
            .unwrap()
            .as_f64(),
        Some(0.0),
        "{path}: the checked-in flows must lint clean"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Every synthetic family, any seed: the default flow's output
    /// carries zero error-severity diagnostics.
    #[test]
    fn synthetic_flows_lint_clean(family in 0..benchsuite::synth::FAMILIES.len(), seed in 0u64..200) {
        let name = format!("synth:{}:{}", benchsuite::synth::FAMILIES[family], seed);
        let g = benchsuite::build_mig(&name).expect("synth grammar");
        let run = FlowPipeline::builder()
            .map(false)
            .restrict_fanout(LIMIT)
            .insert_buffers(BufferStrategy::Asap)
            .verify(Some(LIMIT))
            .gate_lints()
            .build()
            .expect("well-ordered pipeline")
            .run(&g)
            .unwrap_or_else(|e| panic!("{name}: flow failed: {e}"));
        let diagnostics = lint_netlist(&run.result.pipelined, Some(LIMIT));
        prop_assert!(
            error_codes(&diagnostics).is_empty(),
            "{}: {:?}",
            name,
            error_codes(&diagnostics)
        );
        // MIG hygiene on the generated source graph never errors either.
        let ctx = LintContext::new().with_graph(&g);
        let graph_diagnostics = LintDriver::all().run(&ctx);
        prop_assert!(
            graph_diagnostics.iter().all(|d| d.severity != Severity::Error),
            "{}: {:?}",
            name,
            codes(&graph_diagnostics)
        );
    }
}
