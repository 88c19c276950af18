//! One execution per circuit: under a cost-blind pipeline the engine
//! runs each circuit's missed cells once and prices that run under
//! every missed technology. These tests pin what that may and may not
//! change: the passes executed drop to one pipeline per circuit, the
//! cells of one circuit share one result, and every cell's bytes stay
//! those of a direct `run_with_model` under its own technology.

use std::sync::{Arc, Mutex};

use tech::Technology;
use wavepipe::{persist, BufferStrategy, CostTable, Engine, FlowSpec, PipelineRun, PipelineSpec};

fn circuits() -> Vec<mig::Mig> {
    (1..=3)
        .map(|seed| {
            mig::random_mig(mig::RandomMigConfig {
                inputs: 8,
                outputs: 4,
                gates: 150,
                depth: 9,
                seed,
            })
        })
        .collect()
}

fn tables(technologies: &[Technology]) -> Vec<CostTable> {
    technologies.iter().map(Technology::cost_table).collect()
}

fn spec(pipeline: &PipelineSpec, graphs: &[mig::Mig], tables: &[CostTable]) -> FlowSpec {
    let mut spec = FlowSpec::new("sharing").with_pipeline(pipeline.clone());
    for (i, g) in graphs.iter().enumerate() {
        spec = spec.inline_circuit(format!("c{i}"), g);
    }
    for table in tables {
        spec = spec.technology(table.clone());
    }
    spec
}

fn passes(pipeline: &PipelineSpec) -> u64 {
    pipeline.build().expect("well-ordered").pass_names().len() as u64
}

/// The disk body of a run with its wall-clock pass times zeroed.
fn bytes(run: &PipelineRun) -> Vec<u8> {
    let mut run = run.clone();
    for stats in &mut run.trace {
        stats.micros = 0;
    }
    persist::run_to_bytes(&run)
}

fn cost_aware() -> PipelineSpec {
    PipelineSpec::map(false)
        .restrict_fanout(3)
        .insert_buffers(BufferStrategy::CostAware)
        .verify_cost_aware(Some(3))
}

#[test]
fn a_cost_blind_grid_executes_each_circuit_once_and_shares_its_result() {
    let pipeline = PipelineSpec::default();
    let graphs = circuits();
    let tables = tables(&Technology::all());
    let run = Engine::new()
        .run(&spec(&pipeline, &graphs, &tables))
        .expect("runs");
    assert_eq!(run.cells.len(), graphs.len() * tables.len());
    assert_eq!(run.stats.cache_misses, run.cells.len() as u64);
    assert_eq!(
        run.stats.passes_executed,
        graphs.len() as u64 * passes(&pipeline),
        "one execution per circuit"
    );

    let built = pipeline.build().expect("well-ordered");
    for (c, g) in graphs.iter().enumerate() {
        let first = run
            .cell(c, 0)
            .and_then(|cell| cell.run())
            .expect("verifies");
        for (t, table) in tables.iter().enumerate() {
            let cell = run
                .cell(c, t)
                .and_then(|cell| cell.run())
                .expect("verifies");
            assert!(
                Arc::ptr_eq(&first.result, &cell.result),
                "one result per circuit"
            );
            let direct = built.run_with_model(g, Some(table)).expect("verifies");
            assert_eq!(bytes(cell), bytes(&direct), "cell {c}/{t} bytes");
        }
        if c > 0 {
            let other = run
                .cell(0, 0)
                .and_then(|cell| cell.run())
                .expect("verifies");
            assert!(!Arc::ptr_eq(&first.result, &other.result));
        }
    }
}

#[test]
fn a_cost_aware_grid_still_executes_once_per_cell() {
    let pipeline = cost_aware();
    let graphs = circuits();
    let tables = tables(&Technology::all());
    let run = Engine::new()
        .run(&spec(&pipeline, &graphs, &tables))
        .expect("runs");
    assert_eq!(
        run.stats.passes_executed,
        run.cells.len() as u64 * passes(&pipeline)
    );
    let built = pipeline.build().expect("well-ordered");
    for (c, g) in graphs.iter().enumerate() {
        let first = run
            .cell(c, 0)
            .and_then(|cell| cell.run())
            .expect("verifies");
        for (t, table) in tables.iter().enumerate() {
            let cell = run
                .cell(c, t)
                .and_then(|cell| cell.run())
                .expect("verifies");
            if t > 0 {
                assert!(!Arc::ptr_eq(&first.result, &cell.result));
            }
            let direct = built.run_with_model(g, Some(table)).expect("verifies");
            assert_eq!(bytes(cell), bytes(&direct), "cell {c}/{t} bytes");
        }
    }
}

#[test]
fn an_added_technology_executes_once_per_circuit_for_the_new_column() {
    let pipeline = PipelineSpec::default();
    let graphs = circuits();
    let all = tables(&Technology::all());
    let engine = Engine::new();
    engine
        .run(&spec(&pipeline, &graphs, &all[..2]))
        .expect("runs");
    let grown = engine.run(&spec(&pipeline, &graphs, &all)).expect("runs");
    assert_eq!(grown.stats.cache_hits, graphs.len() as u64 * 2);
    assert_eq!(grown.stats.cache_misses, graphs.len() as u64);
    assert_eq!(
        grown.stats.passes_executed,
        graphs.len() as u64 * passes(&pipeline)
    );
    for c in 0..graphs.len() {
        assert!(grown.cell(c, 0).unwrap().cached);
        assert!(!grown.cell(c, 2).unwrap().cached);
    }
}

#[test]
fn a_circuit_with_two_of_three_cells_cached_executes_once() {
    let pipeline = PipelineSpec::default();
    let graphs = &circuits()[..1];
    let all = tables(&Technology::all());
    let engine = Engine::new();
    engine
        .run(&spec(&pipeline, graphs, &[all[0].clone(), all[2].clone()]))
        .expect("runs");
    let run = engine.run(&spec(&pipeline, graphs, &all)).expect("runs");
    assert_eq!(run.stats.cache_hits, 2);
    assert_eq!(run.stats.cache_misses, 1);
    assert_eq!(run.stats.passes_executed, passes(&pipeline));
    let direct = pipeline
        .build()
        .expect("well-ordered")
        .run_with_model(&graphs[0], Some(&all[1]))
        .expect("verifies");
    assert_eq!(
        bytes(run.cell(0, 1).unwrap().run().unwrap()),
        bytes(&direct)
    );
}

#[test]
fn the_sink_sees_every_cell_exactly_once_with_hits_and_shared_misses() {
    let pipeline = PipelineSpec::default();
    let graphs = circuits();
    let all = tables(&Technology::all());
    let engine = Engine::new();
    // Warm one column, so the next run mixes hits and grouped misses.
    engine
        .run(&spec(&pipeline, &graphs, &all[1..2]))
        .expect("runs");
    let seen = Mutex::new(Vec::new());
    let run = engine
        .run_streaming(&spec(&pipeline, &graphs, &all), |cell| {
            seen.lock()
                .unwrap()
                .push((cell.circuit, cell.technology, cell.cached));
        })
        .expect("runs");
    let mut seen = seen.into_inner().unwrap();
    seen.sort();
    let expected: Vec<_> = (0..graphs.len())
        .flat_map(|c| (0..all.len()).map(move |t| (c, Some(t), t == 1)))
        .collect();
    assert_eq!(seen, expected);
    assert_eq!(run.cells.len(), expected.len());
}

#[test]
fn a_disk_write_through_reloads_byte_identical_on_a_fresh_engine() {
    let dir = std::env::temp_dir().join(format!("wavepipe-grid-sharing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pipeline = PipelineSpec::default();
    let spec = spec(&pipeline, &circuits(), &tables(&Technology::all()));

    let cold = Engine::new()
        .with_disk_cache(&dir)
        .run(&spec)
        .expect("runs");
    let warm = Engine::new()
        .with_disk_cache(&dir)
        .run(&spec)
        .expect("runs");
    assert_eq!(warm.stats.passes_executed, 0);
    assert_eq!(warm.stats.disk_hits, cold.cells.len() as u64);
    for (a, b) in cold.iter().zip(warm.iter()) {
        let (a, b) = (a.run().unwrap(), b.run().unwrap());
        assert_eq!(
            persist::run_to_bytes(a),
            persist::run_to_bytes(b),
            "disk round trip is byte-identical, pass times included"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
