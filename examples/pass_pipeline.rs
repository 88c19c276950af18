//! The pass-pipeline API: name flow configurations as `PipelineSpec`
//! chains, inspect per-pass instrumentation, and evaluate a batch of
//! circuits in parallel on the engine's grid driver.
//!
//! ```text
//! cargo run --release --example pass_pipeline
//! ```

use wave_pipelining::prelude::*;
use wavepipe::{BufferStrategy, DelayWeights};

fn main() {
    let g = find_benchmark("HAMMING").expect("suite benchmark").build();

    // 1. The paper's default flow (FO3 + BUF), as an explicit pipeline.
    //    Every run records wall time, component delta and depth change
    //    per pass.
    let default_flow = PipelineSpec::map(false)
        .restrict_fanout(3)
        .insert_buffers(BufferStrategy::Asap)
        .verify(Some(3))
        .build()
        .expect("well-ordered pipeline");
    let run = default_flow.run(&g).expect("flow verifies");
    println!("default flow on HAMMING:");
    print!("{}", run.trace_table());
    println!(
        "  → size ratio {:.2}×, {} waves in flight\n",
        run.result.size_ratio(),
        run.result.report.expect("verified").waves_in_flight
    );

    // 2. New scenarios are one-line pipeline edits. Retimed insertion:
    //    same depth, fewer buffers.
    let retimed = PipelineSpec::map(false)
        .restrict_fanout(3)
        .insert_buffers(BufferStrategy::Retimed) // ← the one line
        .verify(Some(3))
        .build()
        .expect("well-ordered")
        .run(&g)
        .expect("flow verifies");
    println!(
        "retimed insertion saves {} of {} buffers",
        run.result.buffers.expect("ran").total() - retimed.result.buffers.expect("ran").total(),
        run.result.buffers.expect("ran").total(),
    );

    // 3. Weighted (QCA-tailored) balancing — swap strategy and verifier.
    // Inverter-minimized mapping: INV is QCA's priciest cell.
    let weighted = PipelineSpec::map(true)
        .restrict_fanout(3)
        .insert_buffers(BufferStrategy::Weighted(DelayWeights::QCA))
        .verify_weighted(DelayWeights::QCA)
        .build()
        .expect("well-ordered")
        .run(&g)
        .expect("flow verifies");
    println!(
        "QCA-weighted balancing: {} buffers, weighted depth {}",
        weighted.weighted.expect("ran").buffers,
        weighted.weighted.expect("ran").weighted_depth,
    );

    // 4. Ill-ordered pipelines never build: §IV requires fan-out
    //    restriction before buffer insertion.
    let err = PipelineSpec::map(false)
        .insert_buffers(BufferStrategy::Asap)
        .restrict_fanout(3)
        .build()
        .unwrap_err();
    println!("ill-ordered pipeline rejected: {err}");

    // 5. FOG-k sweep over a batch of circuits, in parallel: one
    //    declarative pipeline per k, each run over all four circuits as
    //    one grid call on the engine (no models → one cost-blind cell
    //    per circuit, scheduled across all cores).
    let graphs: Vec<mig::Mig> = ["SASC", "ADD32R", "ALU16", "CMP32"]
        .iter()
        .map(|name| find_benchmark(name).expect("suite benchmark").build())
        .collect();
    let refs: Vec<&mig::Mig> = graphs.iter().collect();
    let engine = Engine::new().with_resolver(benchsuite::build_mig);
    println!("\nFOG-k sweep (4 circuits in parallel):");
    for k in 2..=5u32 {
        let pipeline = PipelineSpec::map(false)
            .restrict_fanout(k)
            .insert_buffers(BufferStrategy::Asap)
            .verify(Some(k));
        let ratios: Vec<f64> = engine
            .run_pipeline_grid(&pipeline, &refs, &[])
            .expect("pipeline spec validates")
            .into_iter()
            .map(|cell| cell.outcome.expect("flow verifies").result.size_ratio())
            .collect();
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        println!("  k={k}: mean size ratio {mean:.2}×");
    }

    // 6. The cost-model layer: run against a technology and every pass
    //    is priced (area / energy / cycle-time deltas in the trace).
    let priced = default_flow
        .run_with_model(&g, Some(&Technology::qca().cost_table()))
        .expect("flow verifies");
    println!("\npriced trace (QCA) on HAMMING:");
    print!("{}", priced.trace_table());

    // 7. The circuit × technology grid, through the same engine: the
    //    experiment is a declarative FlowSpec (pipeline + technologies
    //    + circuit names), every (circuit, technology) cell is one task
    //    on the work-pulling scheduler, and the engine's content-hash
    //    keyed cache makes repeated or overlapping sweeps incremental
    //    (see examples/engine_spec.rs for the cache at work).
    let mut spec = FlowSpec::new("pass-pipeline-grid");
    for name in ["SASC", "ADD32R", "ALU16", "CMP32"] {
        spec = spec.circuit(name);
    }
    for technology in Technology::all() {
        spec = spec.technology(technology.cost_table());
    }
    let grid = engine.run(&spec).expect("spec validates");
    println!("\ncircuit × technology grid ({} cells):", grid.cells.len());
    for cell in &grid {
        let run = cell.outcome.as_ref().expect("grid cell verifies");
        let final_price = run
            .trace
            .last()
            .and_then(|p| p.priced.as_ref())
            .expect("grid runs are priced");
        println!(
            "  {:<8} @ {:<4} area {:>12.2} µm², energy {:>12.2} fJ",
            grid.circuits[cell.circuit],
            cell.technology.map_or("—", |t| &grid.technologies[t]),
            final_price.after.area,
            final_price.after.energy,
        );
    }
}
