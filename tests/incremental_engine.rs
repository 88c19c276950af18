//! Integration tests on the incremental (ECO) engine: random edit
//! scripts must leave the session bit-identical to a cold engine
//! recomputing the edited graph, `ConePartition::refresh` must agree
//! with a from-scratch re-analysis after any append-only mutation, the
//! composed merged-netlist fan-out must match a full arena scan (the
//! release-mode twin of the splice's `debug_assert`), and a damaged
//! disk store — truncated, version-bumped or checksum-corrupted — must
//! fall back to recomputation and then repair itself.

use std::fs;

use mig::cone::ConePartition;
use mig::{Mig, NodeId, Signal};
use proptest::prelude::*;
use wavepipe::{persist, BufferStrategy, Engine, EngineEdit, EquivalencePolicy, PipelineSpec};

fn pipeline() -> PipelineSpec {
    PipelineSpec::map(false)
        .restrict_fanout(3)
        .insert_buffers(BufferStrategy::Asap)
        .verify(Some(3))
}

fn sample(seed: u64) -> Mig {
    mig::random_mig(mig::RandomMigConfig {
        inputs: 6,
        outputs: 5,
        gates: 80,
        depth: 7,
        seed,
    })
}

/// splitmix64, for deterministic node picking inside a proptest case.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic signal over an existing non-constant node.
fn pick_signal(graph: &Mig, state: &mut u64) -> Signal {
    let index = 1 + (splitmix(state) as usize % (graph.node_count() - 1));
    Signal::new(NodeId::from_index(index), splitmix(state) & 1 == 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any script of gate grafts, output rewires, dead logic and
    /// output removals leaves the incrementally-spliced result
    /// bit-identical to a cold engine recomputing the edited graph.
    /// Every intermediate run carries the differential gate, so a
    /// functionally-diverging splice fails the unwrap immediately.
    #[test]
    fn random_edit_scripts_match_a_cold_recompute(
        seed in 0u64..200,
        ops in proptest::collection::vec((0u8..4, any::<u64>()), 4),
        len in 1usize..5,
    ) {
        let engine = Engine::new();
        let mut session = engine
            .incremental(sample(seed), pipeline())
            .with_verification(EquivalencePolicy::default());
        let mut last = session.run().unwrap();
        for &(op, op_seed) in &ops[..len.min(ops.len())] {
            let mut state = op_seed;
            let outputs = session.graph().output_count();
            match op {
                // Graft a gate and point an existing output at it.
                0 | 1 => {
                    let (a, b, c) = {
                        let g = session.graph();
                        (
                            pick_signal(g, &mut state),
                            pick_signal(g, &mut state),
                            pick_signal(g, &mut state),
                        )
                    };
                    let gate = session
                        .apply(EngineEdit::AddGate { a, b, c, output: None })
                        .unwrap()
                        .unwrap();
                    session
                        .apply(EngineEdit::RewireOutput {
                            position: splitmix(&mut state) as usize % outputs,
                            signal: gate,
                        })
                        .unwrap();
                }
                // Dead logic: a gate nothing observes.
                2 => {
                    let (a, b, c) = {
                        let g = session.graph();
                        (
                            pick_signal(g, &mut state),
                            pick_signal(g, &mut state),
                            pick_signal(g, &mut state),
                        )
                    };
                    session
                        .apply(EngineEdit::AddGate { a, b, c, output: None })
                        .unwrap();
                }
                // Drop an output (keeping the session non-empty).
                _ => {
                    if outputs > 2 {
                        session
                            .apply(EngineEdit::RemoveOutput {
                                position: splitmix(&mut state) as usize % outputs,
                            })
                            .unwrap();
                    }
                }
            }
            last = session.run().unwrap();
        }
        let reference = Engine::new()
            .incremental(session.graph().clone(), pipeline())
            .run()
            .unwrap();
        prop_assert_eq!(
            persist::run_to_json(&last.run),
            persist::run_to_json(&reference.run),
            "incremental splice diverged from a cold recompute"
        );
    }

    /// After any append-only mutation (grafted gates, rewired outputs,
    /// new outputs), refreshing a stale partition yields exactly what a
    /// from-scratch analysis of the mutated graph yields.
    #[test]
    fn refresh_matches_a_full_reanalysis(seed in 0u64..500, extra in 1usize..6) {
        let mut g = sample(seed);
        let stale = ConePartition::analyze(&g);
        let mut state = seed ^ 0xECC0;
        for k in 0..extra {
            let a = pick_signal(&g, &mut state);
            let b = pick_signal(&g, &mut state);
            let c = pick_signal(&g, &mut state);
            let gate = g.add_maj(a, b, c);
            if k % 2 == 0 {
                let position = splitmix(&mut state) as usize % g.output_count();
                g.set_output_signal(position, gate);
            } else {
                g.add_output(format!("eco{k}"), gate);
            }
        }
        let refreshed = stale.refresh(&g);
        let full = ConePartition::analyze(&g);
        prop_assert_eq!(refreshed.cones().len(), full.cones().len());
        for (r, f) in refreshed.cones().iter().zip(full.cones()) {
            prop_assert_eq!(r.hash, f.hash, "cone {} hash", f.output);
            prop_assert_eq!(r.gates, f.gates, "cone {} gate count", f.output);
            prop_assert_eq!(r.root, f.root);
            prop_assert_eq!(r.output, f.output);
        }
    }
}

/// The merged report's max fan-out is *composed* from cached per-region
/// summaries, never measured on the merged arena — this pins the
/// composition to a full scan in release builds too (the splice itself
/// only `debug_assert`s it), both on a cold run and across an edit
/// where clean-cone summaries come from the session cache. The edit
/// re-runs exactly one cone, and the engine's counters say so too.
#[test]
fn composed_max_fanout_matches_a_merged_scan() {
    let engine = Engine::new();
    let mut session = engine.incremental(sample(7), PipelineSpec::default());
    let cold = session.run().unwrap();
    let report = cold
        .run
        .result
        .report
        .as_ref()
        .expect("default flow balances");
    assert_eq!(report.max_fanout, cold.run.result.pipelined.max_fanout());

    let mut state = 0xFA11;
    let (a, b, c) = {
        let g = session.graph();
        (
            pick_signal(g, &mut state),
            pick_signal(g, &mut state),
            pick_signal(g, &mut state),
        )
    };
    let gate = session
        .apply(EngineEdit::AddGate {
            a,
            b,
            c,
            output: None,
        })
        .unwrap()
        .unwrap();
    session
        .apply(EngineEdit::RewireOutput {
            position: 0,
            signal: gate,
        })
        .unwrap();
    let before = engine.stats();
    let edited = session.run().unwrap();
    assert!(edited.cones_reused > 0, "edit must reuse clean cones");
    assert_eq!(
        edited.cones_recomputed, 1,
        "a one-gate rewire re-runs one cone"
    );
    assert_eq!(
        engine.stats().since(&before).cones_recomputed,
        1,
        "engine telemetry agrees with the outcome"
    );
    let report = edited
        .run
        .result
        .report
        .as_ref()
        .expect("edited flow balances");
    assert_eq!(report.max_fanout, edited.run.result.pipelined.max_fanout());
}

/// Every way an on-disk entry can rot — truncation mid-entry, a format
/// version from a different build, a checksum that no longer matches
/// the payload — must read as a clean miss: the engine recomputes,
/// produces a bit-identical result, and write-through repairs the
/// store so the *next* process is served from disk again.
#[test]
fn damaged_disk_stores_fall_back_and_self_repair() {
    // Byte offsets of the entry header's fields (see `persist`'s module
    // docs): the version follows the 14-byte magic, the checksum sits
    // after the scope and the key triple.
    const VERSION: std::ops::Range<usize> = 14..22;
    const CHECKSUM: usize = 54;
    type Corruptor = fn(&[u8]) -> Vec<u8>;
    let modes: [(&str, Corruptor); 3] = [
        ("truncated", |b| b[..b.len() / 2].to_vec()),
        ("version-bumped", |b| {
            let mut b = b.to_vec();
            b[VERSION].copy_from_slice(&999u64.to_le_bytes());
            b
        }),
        ("checksum-corrupted", |b| {
            let mut b = b.to_vec();
            b[CHECKSUM] ^= 0x09;
            b
        }),
    ];
    for (mode, corrupt) in modes {
        let dir = std::env::temp_dir().join(format!("wavepipe-eco-{mode}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let writer = Engine::new().with_disk_cache(&dir);
        let cold = writer.incremental(sample(9), pipeline()).run().unwrap();

        let mut damaged = 0;
        for entry in fs::read_dir(&dir).expect("store populated") {
            let path = entry.unwrap().path();
            let bytes = fs::read(&path).unwrap();
            assert_eq!(
                &bytes[VERSION],
                persist::CACHE_VERSION.to_le_bytes(),
                "{mode}: the header layout this test edits"
            );
            let rotten = corrupt(&bytes);
            assert_ne!(bytes, rotten, "{mode}: corruption must change the entry");
            fs::write(&path, rotten).unwrap();
            damaged += 1;
        }
        assert!(damaged > 0, "{mode}: the cold run wrote disk entries");

        let fallback = Engine::new().with_disk_cache(&dir);
        let recomputed = fallback.incremental(sample(9), pipeline()).run().unwrap();
        assert_eq!(
            fallback.stats().disk_hits,
            0,
            "{mode}: nothing rotten served"
        );
        assert!(
            fallback.stats().passes_executed > 0,
            "{mode}: the fallback run recomputed"
        );
        assert_eq!(
            persist::run_to_json(&cold.run),
            persist::run_to_json(&recomputed.run),
            "{mode}: fallback result must be bit-identical"
        );

        let repaired = Engine::new().with_disk_cache(&dir);
        let served = repaired.incremental(sample(9), pipeline()).run().unwrap();
        assert!(
            served.spliced_reused,
            "{mode}: write-through repaired the store"
        );
        assert_eq!(repaired.stats().passes_executed, 0, "{mode}");
        assert!(repaired.stats().disk_hits >= 1, "{mode}");
        let _ = fs::remove_dir_all(&dir);
    }
}
