//! The engine-facade API: run a checked-in, declarative `FlowSpec`
//! (JSON) through a long-lived `Engine` and watch the content-hash
//! keyed cache at work — a warm re-run executes zero passes, and
//! growing the experiment only computes the new cells.
//!
//! ```text
//! cargo run --release --example engine_spec [SPEC.json]
//! ```
//!
//! Without an argument the checked-in `examples/engine_spec.json` is
//! used. `--write-spec` regenerates that file from code (this is how it
//! was produced).

use wave_pipelining::prelude::*;

const CHECKED_IN: &str = include_str!("engine_spec.json");

/// The canonical spec behind `examples/engine_spec.json`: the paper's
/// default flow over three suite circuits, priced under all three
/// Table I technologies.
fn canonical_spec() -> FlowSpec {
    let mut spec = FlowSpec::new("engine-spec-demo")
        .with_pipeline(PipelineSpec::default())
        .circuit("SASC")
        .circuit("ADD32R")
        .circuit("CMP32");
    for technology in Technology::all() {
        spec = spec.technology(technology.cost_table());
    }
    spec
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arg = std::env::args().nth(1);
    if arg.as_deref() == Some("--write-spec") {
        std::fs::write(
            "examples/engine_spec.json",
            canonical_spec().to_json() + "\n",
        )?;
        println!("wrote examples/engine_spec.json");
        return Ok(());
    }

    // 1. A flow experiment is *data*: pipeline + technologies +
    //    circuits, round-tripping through JSON.
    let text = match &arg {
        Some(path) => std::fs::read_to_string(path)?,
        None => CHECKED_IN.to_owned(),
    };
    let spec = FlowSpec::from_json(&text)?;
    println!(
        "spec `{}`: {} circuits × {} technologies, {} passes after map (hash {:#018x})",
        spec.name,
        spec.circuits.len(),
        spec.technologies.len(),
        spec.pipeline.passes.len() + 1,
        spec.content_hash(),
    );

    // 2. The engine validates the spec, resolves circuit names through
    //    the benchsuite registry, and sweeps the grid in parallel.
    let engine = Engine::new().with_resolver(benchsuite::build_mig);
    let run = engine.run(&spec)?;
    println!("\ncold run ({} cells):", run.cells.len());
    for cell in &run {
        let pipeline_run = cell.outcome.as_ref().expect("suite circuits verify");
        let price = pipeline_run
            .trace
            .last()
            .and_then(|p| p.priced.as_ref())
            .expect("grid cells are priced");
        println!(
            "  {:<8} @ {:<4} area {:>10.2} µm², energy {:>12.2} fJ{}",
            run.circuits[cell.circuit],
            cell.technology.map_or("—", |t| &run.technologies[t]),
            price.after.area,
            price.after.energy,
            if cell.cached { "  (cached)" } else { "" },
        );
    }
    println!(
        "  engine: {} misses, {} passes executed",
        run.stats.cache_misses, run.stats.passes_executed
    );

    // 3. Re-running the identical spec is pure cache: bit-identical
    //    results, zero passes executed.
    let warm = engine.run(&spec)?;
    println!(
        "\nwarm run: {} hits, {} misses, {} passes executed",
        warm.stats.cache_hits, warm.stats.cache_misses, warm.stats.passes_executed
    );
    assert_eq!(warm.stats.passes_executed, 0, "warm grid re-runs nothing");

    // 4. Growing the experiment only computes the new cells: one more
    //    circuit costs one row, not a full sweep.
    let grown = spec.clone().circuit("ALU16");
    let run = engine.run(&grown)?;
    println!(
        "grown run (+ALU16): {} hits, {} misses — only the new row computed",
        run.stats.cache_hits, run.stats.cache_misses
    );
    assert_eq!(run.stats.cache_misses as usize, grown.technologies.len());

    // 5. Malformed input is an error, never a panic.
    let err = FlowSpec::from_json("{\"not\": \"a spec\"}").unwrap_err();
    println!("\nmalformed JSON rejected: {err}");
    let err = engine
        .run(&FlowSpec::new("missing").circuit("NOT_A_BENCHMARK"))
        .unwrap_err();
    println!("unknown circuit rejected: {err}");

    Ok(())
}
