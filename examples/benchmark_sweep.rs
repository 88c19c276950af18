//! Sweep a slice of the benchmark suite — plus the synthetic-generator
//! presets — through the flow and print a compact scoreboard: sizes,
//! depths, buffer/FOG overheads and the SWD gains — the bird's-eye
//! view behind Figs 5, 8 and 9.
//!
//! ```text
//! cargo run --release --example benchmark_sweep [N]
//! ```
//!
//! `N` limits how many suite benchmarks to run (default 12, smallest
//! first by original size; the full 37 take a few minutes in debug
//! builds). The `synth:*` preset names ride along regardless of `N` —
//! any `synth:family:seed:k=v` name works here, same as in a spec.

use wave_pipelining::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let limit: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(12);

    // Build everything cheap-ish first, sort by size, keep N, then
    // append the synthetic presets (resolved by the same registry).
    let mut built: Vec<_> = SUITE
        .iter()
        .filter(|s| !matches!(s.name, "RAND50K" | "MUL64" | "DIFFEQ1"))
        .map(|s| (s.name, s.build()))
        .collect();
    built.sort_by_key(|(_, g)| g.gate_count());
    built.truncate(limit);
    for name in benchsuite::synth::PRESETS {
        let g = benchsuite::build_mig(name).expect("presets resolve");
        built.push((name, g));
    }

    let swd = Technology::swd();
    println!(
        "{:<34} {:>8} {:>6} {:>8} {:>6} {:>7} {:>7} {:>9} {:>9}",
        "benchmark", "size", "depth", "size'", "depth'", "+BUF", "+FOG", "SWD T/A", "SWD T/P"
    );
    // One declarative pipeline spec, swept over the whole batch by the
    // engine on the work-pulling scheduler (cost-blind: one cell per
    // circuit; pricing happens post-hoc against SWD below).
    let engine = Engine::new();
    let pipeline = PipelineSpec::default();
    let graphs: Vec<&Mig> = built.iter().map(|(_, g)| g).collect();
    let cells = engine.run_pipeline_grid(&pipeline, &graphs, &[])?;
    for ((name, _), cell) in built.iter().zip(cells) {
        let run = cell.outcome?;
        let result = &run.result;
        let (o, p) = (result.original.counts(), result.pipelined.counts());
        let row = compare(result, &swd);
        println!(
            "{:<34} {:>8} {:>6} {:>8} {:>6} {:>7} {:>7} {:>8.2}x {:>8.2}x",
            name,
            o.priced_total(),
            result.original.depth(),
            p.priced_total(),
            result.pipelined.depth(),
            p.buf,
            p.fog,
            row.ta_gain(),
            row.tp_gain()
        );
    }
    println!(
        "\n(size' and depth' are after fan-out restriction to 3 and buffer\n\
         insertion; gains are wave-pipelined vs original on Spin Wave Devices)"
    );
    Ok(())
}
