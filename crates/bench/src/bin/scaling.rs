//! Scaling sweep over the synthetic `dag` family: runs the node-count
//! axis from 10² to 10⁷ through the paper's default flow (FO3 + BUF +
//! verify) on a cached engine and prints the node-count vs throughput
//! and cache-hit table. It is the one tool that reaches 10⁶–10⁷ nodes;
//! the `perfbench` ledger measures the paper's workloads.
//!
//! ```text
//! cargo run --release -p wavepipe-bench --bin scaling [-- --max-nodes N]
//! ```
//!
//! Every point is one `synth:dag:<seed>:depth=…,nodes=…` circuit built
//! through the registry (the same canonical names a
//! `CircuitSpec::Synthetic` spec resolves to), run **cold** (cache
//! miss: generator + every pass executes) and then **warm** (pure
//! cache hit: zero passes) on the same engine — the warm column is the
//! cache-hit curve the engine's result cache buys at each scale.
//! `--max-nodes` truncates the sweep. The run asserts that every warm
//! re-run is a pure cache hit and that the flow stays near-linear in
//! circuit size.

use std::time::Instant;

use wavepipe::{FlowSpec, SynthSpec};
use wavepipe_bench::harness::engine;

/// One measured sweep point: what the linearity floor compares.
struct Point {
    target_nodes: usize,
    pipelined_size: usize,
    cold_wall_ms: f64,
}

/// The sweep axis: Fig 5's 10²..10⁵ node-count span, log-spaced, with
/// depth growing like mapped-netlist depth does — extended to 10⁶ and
/// 10⁷ now that the flat-arena evaluation core sustains that scale.
const SWEEP: [(usize, u64); 9] = [
    (100, 8),
    (300, 10),
    (1_000, 12),
    (3_000, 14),
    (10_000, 16),
    (30_000, 20),
    (100_000, 24),
    (1_000_000, 28),
    (10_000_000, 32),
];

fn main() {
    let mut max_nodes = usize::MAX;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-nodes" => {
                max_nodes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-nodes takes an integer");
            }
            other => panic!("unknown argument `{other}` (try --max-nodes N)"),
        }
    }

    let engine = engine();

    let mut points = Vec::new();
    println!(
        "{:<44} {:>9} {:>9} {:>10} {:>10} {:>12}",
        "circuit", "gates", "size'", "cold ms", "warm ms", "map nodes/s"
    );
    for (i, (nodes, depth)) in SWEEP.iter().enumerate() {
        if *nodes > max_nodes {
            continue;
        }
        // The generator caps ports at 4096 — pass the cap explicitly so
        // the canonical name states what is actually generated.
        let synth = SynthSpec::new("dag", 0x5CA1_E000 + i as u64)
            .param("nodes", *nodes as u64)
            .param("depth", *depth)
            .param("inputs", (32 + nodes / 50).min(4_096) as u64)
            .param("outputs", (16 + nodes / 100).min(4_096) as u64);
        let name = synth.name();
        let spec = FlowSpec::new("scaling").synthetic_circuit(synth);

        let started = Instant::now();
        let cold_run = engine.run(&spec).expect("scaling spec verifies");
        let cold_wall_ms = started.elapsed().as_secs_f64() * 1000.0;

        let before = engine.stats();
        let started = Instant::now();
        let warm_run = engine.run(&spec).expect("scaling spec verifies");
        let warm_wall_ms = started.elapsed().as_secs_f64() * 1000.0;
        let warm = engine.stats().since(&before);
        assert_eq!(
            warm.passes_executed, 0,
            "{name}: warm re-run must be a pure cache hit"
        );
        drop(warm_run);

        let run = cold_run.cells[0].run().expect("cell verified");
        // One MAJ cell per MIG gate in the mapped netlist, so the gate
        // count comes off the run instead of generating the graph a
        // second time just to measure it.
        let gates = run.result.original_counts().maj;
        // Map throughput: components out of the first pass per second.
        let map_nodes_per_sec = run.trace.first().map_or(0.0, |p| {
            if p.micros == 0 {
                0.0
            } else {
                p.counts_after.priced_total() as f64 * 1e6 / p.micros as f64
            }
        });
        let pipelined_size = run.result.pipelined_counts().priced_total();
        println!(
            "{:<44} {:>9} {:>9} {:>10.1} {:>10.3} {:>12.0}",
            name, gates, pipelined_size, cold_wall_ms, warm_wall_ms, map_nodes_per_sec
        );
        points.push(Point {
            target_nodes: *nodes,
            pipelined_size,
            cold_wall_ms,
        });
    }
    assert!(!points.is_empty(), "--max-nodes filtered out every point");

    // No-regression floor: the flow must stay near-linear in circuit
    // size all the way up the sweep. Per-component cold cost at the
    // largest point may not exceed 10x the 10^4-node reference —
    // cache-pressure growth is expected, complexity blowups are not.
    if let Some(reference) = points.iter().find(|p| p.target_nodes >= 10_000) {
        let last = points.last().expect("non-empty");
        if last.target_nodes > reference.target_nodes {
            let ref_per = reference.cold_wall_ms / reference.pipelined_size as f64;
            let last_per = last.cold_wall_ms / last.pipelined_size as f64;
            assert!(
                last_per <= ref_per * 10.0,
                "per-component cold cost regressed: {:.4} ms/kc at {} nodes vs {:.4} ms/kc at {}",
                last_per * 1000.0,
                last.target_nodes,
                ref_per * 1000.0,
                reference.target_nodes
            );
        }
    }

    let totals = engine.stats();
    println!(
        "\n{} points, engine: {} hits / {} misses",
        points.len(),
        totals.cache_hits,
        totals.cache_misses
    );
}
