//! Golden JSON texts of every serialized spec, lint and wire shape.
//!
//! Each line of `golden/serde.txt` pins one value: a label, the type's
//! content hash where it has one (`-` otherwise) and the value's compact
//! JSON text — for requests and events, the exact wire line. Spec hashes
//! are the engine's cache keys and wire lines are the daemon protocol,
//! so a codec change that moves a single byte fails here. Every text of
//! a decodable type must decode back to an equal value, and an unknown
//! tag of every enum must be rejected by an error naming the type and
//! the tag.

use std::fmt::Debug;

use serde::{Deserialize, Serialize};
use tech::Technology;
use wavepipe::lint::{Category, Diagnostic, LintFailure, LintReport, Severity, SubjectReport};
use wavepipe::{
    BufferStrategy, CacheSpec, CircuitSpec, DelayWeights, EngineStats, EquivalencePolicy, FlowSpec,
    PassSpec, PipelineSpec, SynthSpec,
};
use wavepipe_serve::{Control, Event, Request, ServeConfig, ServeMetrics};

const GOLDEN: &str = include_str!("golden/serde.txt");

/// The rendered golden text, one `label hash json` line per value.
#[derive(Default)]
struct Pins(String);

impl Pins {
    fn line(&mut self, label: &str, hash: Option<u64>, json: &str) {
        let hash = hash.map_or("-".to_owned(), |h| format!("{h:016x}"));
        self.0.push_str(&format!("{label} {hash} {json}\n"));
    }

    /// Pins a serialize-only value.
    fn value(&mut self, label: &str, hash: Option<u64>, value: &impl Serialize) {
        let json = serde_json::to_string(value).expect("value renders");
        self.line(label, hash, &json);
    }

    /// Pins a value and checks its text decodes back to an equal value.
    fn round_trip<T>(&mut self, label: &str, hash: Option<u64>, value: &T)
    where
        T: Serialize + Deserialize + PartialEq + Debug,
    {
        let json = serde_json::to_string(value).expect("value renders");
        let back: T = serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("{label} does not decode its own text {json}: {e}"));
        assert_eq!(&back, value, "{label} round trip");
        self.line(label, hash, &json);
    }

    /// Pins a wire line and checks it parses back to the same line.
    fn wire(&mut self, label: &str, line: String, reparse: impl Fn(&str) -> String) {
        assert_eq!(reparse(&line), line, "{label} wire round trip");
        self.line(label, None, &line);
    }
}

fn tiny_graph() -> mig::Mig {
    let mut g = mig::Mig::new();
    let a = g.add_input("a");
    let b = g.add_input("b");
    let c = g.add_input("c");
    let m = g.add_maj(a, b, !c);
    g.add_output("m", m);
    g
}

fn pass_specs() -> Vec<(&'static str, PassSpec)> {
    let mut passes = vec![
        ("optimize_depth", PassSpec::OptimizeDepth { max_rounds: 16 }),
        ("optimize_size", PassSpec::OptimizeSize { max_rounds: 8 }),
        (
            "optimize_cost_aware",
            PassSpec::OptimizeCostAware { max_rounds: 4 },
        ),
        ("restrict_fanout", PassSpec::RestrictFanout { limit: 3 }),
        (
            "restrict_fanout_cost_aware",
            PassSpec::RestrictFanoutCostAware,
        ),
    ];
    for (label, strategy) in strategies() {
        let label = match label {
            "asap" => "insert_buffers(asap)",
            "retimed" => "insert_buffers(retimed)",
            "weighted" => "insert_buffers(weighted)",
            _ => "insert_buffers(cost_aware)",
        };
        passes.push((label, PassSpec::InsertBuffers(strategy)));
    }
    passes.extend([
        (
            "verify(some)",
            PassSpec::Verify {
                fanout_limit: Some(4),
            },
        ),
        ("verify(none)", PassSpec::Verify { fanout_limit: None }),
        (
            "verify_weighted",
            PassSpec::VerifyWeighted(DelayWeights::NML),
        ),
        (
            "verify_cost_aware(some)",
            PassSpec::VerifyCostAware {
                fanout_limit: Some(5),
            },
        ),
        (
            "verify_cost_aware(none)",
            PassSpec::VerifyCostAware { fanout_limit: None },
        ),
        (
            "check_fanout_bound",
            PassSpec::CheckFanoutBound { limit: 2 },
        ),
    ]);
    passes
}

fn strategies() -> [(&'static str, BufferStrategy); 4] {
    [
        ("asap", BufferStrategy::Asap),
        ("retimed", BufferStrategy::Retimed),
        ("weighted", BufferStrategy::Weighted(DelayWeights::QCA)),
        ("cost_aware", BufferStrategy::CostAware),
    ]
}

fn sample_spec(name: &str) -> FlowSpec {
    FlowSpec::new(name).circuit("SASC")
}

fn engine_stats() -> EngineStats {
    EngineStats {
        cache_hits: 1,
        cache_misses: 2,
        passes_executed: 3,
        cones_reused: 4,
        cones_recomputed: 5,
        disk_hits: 6,
        disk_misses: 7,
        evictions: 8,
    }
}

fn diagnostic(provenance: Option<&str>) -> Diagnostic {
    Diagnostic {
        code: "WP001".to_owned(),
        severity: Severity::Error,
        category: Category::Netlist,
        message: "path imbalance".to_owned(),
        subject: "fa".to_owned(),
        provenance: provenance.map(str::to_owned),
    }
}

fn events() -> Vec<(&'static str, Event)> {
    vec![
        (
            "event/cell(ok)",
            Event::Cell {
                id: 1,
                circuit: 2,
                technology: Some(1),
                cached: true,
                ok: true,
                depth: Some(24),
                waves_in_flight: Some(8),
                max_fanout: Some(3),
                components: Some(512),
                passes: 4,
                error: None,
            },
        ),
        (
            "event/cell(failed)",
            Event::Cell {
                id: 1,
                circuit: 0,
                technology: None,
                cached: false,
                ok: false,
                depth: None,
                waves_in_flight: None,
                max_fanout: None,
                components: None,
                passes: 0,
                error: Some("pass `verify` failed".to_owned()),
            },
        ),
        (
            "event/done",
            Event::Done {
                id: 2,
                cells: 3,
                failed: 1,
                coalesced: true,
                circuits: vec!["SASC".to_owned(), "HAMMING".to_owned()],
                technologies: vec!["QCA".to_owned()],
                stats: engine_stats(),
            },
        ),
        (
            "event/error",
            Event::Error {
                id: 9,
                message: "unknown circuit `NOPE`".to_owned(),
            },
        ),
        ("event/pong", Event::Pong { id: 4 }),
        (
            "event/stats",
            Event::Stats {
                id: 5,
                config: ServeConfig {
                    workers: 3,
                    queue_depth: 256,
                    client_queue: 1024,
                    shed_slow_clients: true,
                },
                metrics: ServeMetrics {
                    requests: 11,
                    completed: 12,
                    failed: 13,
                    rejected: 14,
                    coalesced: 15,
                    executed: 16,
                    cells_streamed: 17,
                    cells_shed: 18,
                    clients: 19,
                    engine: engine_stats(),
                },
            },
        ),
        ("event/shutting_down", Event::ShuttingDown { id: 6 }),
    ]
}

fn render() -> String {
    let mut pins = Pins::default();

    for (label, strategy) in strategies() {
        pins.round_trip(&format!("strategy/{label}"), None, &strategy);
    }
    for (label, pass) in pass_specs() {
        pins.round_trip(&format!("pass/{label}"), None, &pass);
    }

    let gate = EquivalencePolicy {
        exhaustive_inputs: 12,
        rounds: 16,
        seed: 99,
    };
    for minimize_inverters in [false, true] {
        for gated in [false, true] {
            let mut pipeline = PipelineSpec::map(minimize_inverters)
                .restrict_fanout(3)
                .insert_buffers(BufferStrategy::Asap)
                .verify(Some(3));
            if gated {
                pipeline = pipeline.gate_equivalence(gate);
            }
            let label = format!("pipeline/min_inv={minimize_inverters}/gate={gated}");
            pins.round_trip(&label, Some(pipeline.content_hash()), &pipeline);
        }
    }

    let specs = [
        ("flow/named", sample_spec("named")),
        (
            "flow/inline",
            FlowSpec::new("inline").inline_circuit("tiny", &tiny_graph()),
        ),
        (
            "flow/synthetic",
            FlowSpec::new("synthetic").synthetic_circuit(
                SynthSpec::new("dag", 7)
                    .param("nodes", 500)
                    .param("depth", 12),
            ),
        ),
        (
            "flow/technologies",
            sample_spec("priced")
                .with_pipeline(PipelineSpec::map(false).restrict_fanout_cost_aware())
                .technology(Technology::qca().cost_table()),
        ),
        (
            "flow/cache(capacity)",
            sample_spec("cached").with_cache(CacheSpec {
                capacity: Some(64),
                dir: None,
            }),
        ),
        (
            "flow/cache(dir)",
            sample_spec("cached").with_cache(CacheSpec {
                capacity: None,
                dir: Some("default".to_owned()),
            }),
        ),
        (
            "flow/cache(both)",
            sample_spec("cached").with_cache(CacheSpec {
                capacity: Some(0),
                dir: Some("/var/cache/wavepipe".to_owned()),
            }),
        ),
    ];
    for (label, spec) in &specs {
        pins.round_trip(label, Some(spec.content_hash()), spec);
    }

    for table in Technology::all().iter().map(Technology::cost_table) {
        let label = format!("cost_table/{}", table.name());
        pins.round_trip(&label, Some(table.content_hash()), &table);
    }

    let request_round_trip = |line: &str| Request::parse(line).expect("request parses").to_line();
    pins.wire(
        "request/run",
        Request::Run {
            id: 7,
            spec: specs[1].1.clone(),
        }
        .to_line(),
        request_round_trip,
    );
    for control in [Control::Ping, Control::Stats, Control::Shutdown] {
        let label = format!("request/control({control:?})");
        pins.wire(
            &label,
            Request::Control { id: 3, control }.to_line(),
            request_round_trip,
        );
    }
    for (label, event) in events() {
        pins.wire(label, event.to_line(), |line| {
            Event::parse(line).expect("event parses").to_line()
        });
    }

    pins.round_trip("diagnostic/provenance", None, &diagnostic(Some("c7")));
    pins.round_trip("diagnostic/bare", None, &diagnostic(None));
    let warning = Diagnostic {
        severity: Severity::Warning,
        category: Category::Graph,
        code: "MIG003".to_owned(),
        ..diagnostic(Some("n4"))
    };
    pins.round_trip("diagnostic/warning", None, &warning);
    let failure = LintFailure {
        pass: "insert_buffers(asap)".to_owned(),
        diagnostics: vec![diagnostic(Some("c7")), diagnostic(None)],
    };
    pins.value("lint_failure", None, &failure);
    let subjects = || {
        vec![SubjectReport {
            subject: "SASC".to_owned(),
            diagnostics: vec![diagnostic(Some("c7")), warning.clone()],
        }]
    };
    pins.value(
        "lint_report/fanout_limit",
        None,
        &LintReport::new(Some(3), subjects()),
    );
    pins.value("lint_report/bare", None, &LintReport::new(None, subjects()));

    pins.0
}

#[test]
fn every_serialized_shape_matches_its_golden_text() {
    let text = render();
    if text == GOLDEN {
        return;
    }
    let mut report = String::new();
    for (got, want) in text.lines().zip(GOLDEN.lines()).filter(|(g, w)| g != w) {
        report.push_str(&format!("golden {want}\n   now {got}\n"));
    }
    panic!("golden mismatch:\n{report}\nrendered:\n{text}");
}

fn from_json<T: Deserialize>(json: &str) -> Result<T, String> {
    serde_json::from_str(json).map_err(|e| e.to_string())
}

#[test]
fn unknown_tags_are_rejected() {
    let rejected = [
        (
            "BufferStrategy",
            from_json::<BufferStrategy>(r#""bogus""#).err(),
        ),
        (
            "BufferStrategy",
            from_json::<BufferStrategy>(r#"{"bogus":{}}"#).err(),
        ),
        (
            "PassSpec",
            from_json::<PassSpec>(r#"{"pass":"bogus"}"#).err(),
        ),
        ("Severity", from_json::<Severity>(r#""bogus""#).err()),
        ("Category", from_json::<Category>(r#""bogus""#).err()),
        (
            "Control",
            Request::parse(r#"{"id":1,"control":"bogus"}"#)
                .err()
                .map(|e| e.0),
        ),
        (
            "Event",
            Event::parse(r#"{"id":1,"event":"bogus"}"#)
                .err()
                .map(|e| e.0),
        ),
    ];
    for (ty, error) in rejected {
        let error = error.unwrap_or_else(|| panic!("an unknown {ty} tag was accepted"));
        assert!(
            error.contains(ty) && error.contains("`bogus`"),
            "{ty}: the error names neither the type nor the tag: {error}"
        );
    }
    // Circuits are told apart by shape, not by tag; a number is none.
    assert!(from_json::<CircuitSpec>("5").is_err());
}
