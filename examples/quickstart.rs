//! Quickstart: build a small MIG, enable wave pipelining, stream data
//! waves through it and evaluate the throughput gains on all three
//! beyond-CMOS technologies.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use wave_pipelining::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build a 4-bit ripple-carry adder as a Majority-Inverter Graph.
    //    The full-adder carry is a single majority gate — this is why
    //    SWD/QCA/NML want MIG synthesis.
    let mut g = Mig::with_name("adder4");
    let a = g.add_inputs("a", 4);
    let b = g.add_inputs("b", 4);
    let mut carry = Signal::ZERO;
    for i in 0..4 {
        let (s, c) = g.add_full_adder(a[i], b[i], carry);
        g.add_output(format!("s{i}"), s);
        carry = c;
    }
    g.add_output("cout", carry);
    println!("MIG: {g}");

    // 2. Run the paper's flow, `PipelineSpec::default()`: fan-out
    //    restriction to 3, then buffer insertion (Algorithm 1), then
    //    verification of the result.
    let result = PipelineSpec::default().build()?.run(&g)?.result;
    let report = result.report.expect("flow verifies its output");
    println!("original netlist:   {}", result.original);
    println!("wave-pipelined:     {}", result.pipelined);
    println!(
        "waves in flight:    {} (depth {} / 3 phases)",
        report.waves_in_flight, report.depth
    );

    // 3. Stream additions through the pipeline: one new operation every
    //    three clock phases, regardless of circuit depth.
    let additions: [(u8, u8); 5] = [(3, 4), (9, 9), (15, 1), (0, 0), (7, 8)];
    let waves: Vec<Vec<bool>> = additions
        .iter()
        .map(|&(x, y)| {
            (0..4)
                .map(|i| x >> i & 1 != 0)
                .chain((0..4).map(|i| y >> i & 1 != 0))
                .collect()
        })
        .collect();
    let run = WaveSimulator::new(&result.pipelined).run(&waves);
    for (&(x, y), out) in additions.iter().zip(&run.outputs) {
        let sum: u32 = out.iter().enumerate().map(|(i, &b)| (b as u32) << i).sum();
        println!("wave: {x:>2} + {y:>2} = {sum}");
        assert_eq!(sum, x as u32 + y as u32);
    }

    // 4. Evaluate the trade-off on the three technologies of the paper.
    println!(
        "\n{:<5} {:>12} {:>12} {:>9} {:>9}",
        "tech", "T orig", "T wave", "T/A gain", "T/P gain"
    );
    for technology in Technology::all() {
        let row = compare(&result, &technology);
        println!(
            "{:<5} {:>12} {:>12} {:>8.2}x {:>8.2}x",
            row.technology,
            format!("{:.2}", row.original.throughput),
            format!("{:.2}", row.pipelined.throughput),
            row.ta_gain(),
            row.tp_gain()
        );
    }
    Ok(())
}
