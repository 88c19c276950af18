//! Technology comparison: run one benchmark from the suite through the
//! flow and print the full Table II-style row for SWD, QCA and NML,
//! plus the intermediate statistics of both algorithms.
//!
//! ```text
//! cargo run --release --example technology_comparison [BENCHMARK]
//! ```
//!
//! `BENCHMARK` defaults to `HAMMING`; any name from
//! `benchsuite::SUITE` works (try `MUL32`, `DES_AREA`, `CRC8x64`, …).

use wave_pipelining::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "HAMMING".to_owned());
    let spec = find_benchmark(&name).ok_or_else(|| {
        format!(
            "unknown benchmark `{name}`; known: {:?}",
            SUITE.iter().map(|s| s.name).collect::<Vec<_>>()
        )
    })?;
    let g = spec.build();
    println!("benchmark: {} — {}", spec.name, spec.description);
    println!("MIG: {g}\n");

    let result = PipelineSpec::default().build()?.run(&g)?.result;
    if let Some(fo) = result.fanout {
        println!(
            "fan-out restriction (k=3): {} FOGs inserted, {} components split, \
             {} consumers delayed, critical path {} → {} (+{:.0}%)",
            fo.fogs_inserted,
            fo.components_split,
            fo.delayed_consumers,
            fo.depth_before,
            fo.depth_after,
            fo.depth_increase() * 100.0
        );
    }
    if let Some(buf) = result.buffers {
        println!(
            "buffer insertion: {} balancing + {} padding buffers, final depth {}",
            buf.balancing_buffers, buf.padding_buffers, buf.depth
        );
    }
    println!(
        "netlist size: {} → {} ({:.2}x)\n",
        result.original.counts().priced_total(),
        result.pipelined.counts().priced_total(),
        result.size_ratio()
    );

    println!(
        "{:<5} {:>6} {:>12} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "tech", "mode", "area", "power", "latency", "throughput", "T/A gain", "T/P gain"
    );
    for technology in Technology::all() {
        let row = compare(&result, &technology);
        for (mode, e) in [("orig", &row.original), ("wave", &row.pipelined)] {
            println!(
                "{:<5} {:>6} {:>12} {:>12} {:>12} {:>12} {:>9} {:>9}",
                technology.name,
                mode,
                format!("{:.2}", e.area),
                format!("{:.3}", e.power),
                format!("{:.3}", e.latency),
                format!("{:.1}", e.throughput),
                if mode == "wave" {
                    format!("{:.2}x", row.ta_gain())
                } else {
                    "—".into()
                },
                if mode == "wave" {
                    format!("{:.2}x", row.tp_gain())
                } else {
                    "—".into()
                },
            );
        }
    }
    Ok(())
}
