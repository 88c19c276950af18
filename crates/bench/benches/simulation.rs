//! Criterion benches for simulation machinery: bit-parallel MIG
//! simulation and three-phase wave streaming. No perfbench metric times
//! either yet.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wavepipe::{PipelineSpec, WaveSimulator};

fn bench_wave_streaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("wave_streaming");
    group.sample_size(10);
    let pipeline = PipelineSpec::default().build().expect("well-ordered");
    for name in ["SASC", "MUL8", "ALU16"] {
        let g = benchsuite::find(name).expect("known benchmark").build();
        let flow = pipeline.run(&g).expect("flow verifies").result;
        let mut rng = StdRng::seed_from_u64(99);
        let waves: Vec<Vec<bool>> = (0..50)
            .map(|_| (0..g.input_count()).map(|_| rng.gen()).collect())
            .collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &(flow, waves),
            |b, (flow, waves)| {
                let sim = WaveSimulator::new(&flow.pipelined);
                b.iter(|| sim.run(waves))
            },
        );
    }
    group.finish();
}

fn bench_mig_word_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("mig_word_simulation");
    for name in ["MUL16", "HAMMING", "CRC8x64"] {
        let g = benchsuite::find(name).expect("known benchmark").build();
        let mut rng = StdRng::seed_from_u64(7);
        let inputs: Vec<u64> = (0..g.input_count()).map(|_| rng.gen()).collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &(g, inputs),
            |b, (g, inputs)| {
                let sim = mig::Simulator::new(g);
                b.iter(|| sim.eval_words(inputs))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_wave_streaming, bench_mig_word_simulation);
criterion_main!(benches);
