//! Defining a custom beyond-CMOS technology model and sweeping a design
//! decision: how does the QCA inverter cost change the picture?
//!
//! The paper's Table I prices a QCA inverter at 10× area / 7× delay /
//! 10× energy of a cell — by far the most expensive component. This
//! example clones the QCA model, sweeps the inverter cost down to 1×,
//! and shows how the wave-pipelined T/P gain responds (the cheap-buffer
//! vs expensive-inverter ratio is what drives QCA's power artifact).
//!
//! ```text
//! cargo run --release --example custom_technology
//! ```

use wave_pipelining::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = find_benchmark("HAMMING").expect("suite benchmark").build();
    let result = PipelineSpec::default().build()?.run(&g)?.result;

    println!("benchmark: {g}");
    println!(
        "mapped: {} MAJ, {} INV (original); +{} BUF, +{} FOG after the flow\n",
        result.original.counts().maj,
        result.original.counts().inv,
        result.pipelined.counts().buf,
        result.pipelined.counts().fog
    );

    println!(
        "{:<22} {:>10} {:>10} {:>9} {:>9}",
        "technology", "P orig", "P wave", "T/A gain", "T/P gain"
    );
    for inv_factor in [10.0, 7.0, 4.0, 1.0] {
        let mut custom = Technology::qca();
        custom.name = format!("QCA(inv×{inv_factor})");
        custom.inv.area = inv_factor;
        custom.inv.energy = inv_factor;
        // Delay stays at Table I's 7 — the phase weight models it.

        let row = compare(&result, &custom);
        println!(
            "{:<22} {:>10} {:>10} {:>8.2}x {:>8.2}x",
            custom.name,
            format!("{:.3}", row.original.power),
            format!("{:.3}", row.pipelined.power),
            row.ta_gain(),
            row.tp_gain()
        );
    }

    // A from-scratch hypothetical: a fast, uniform-cost magnonic node.
    let hypothetical = Technology {
        name: "HYPO".to_owned(),
        cell_area: tech::Area(0.001),
        cell_delay: tech::Delay(0.1),
        cell_energy: tech::Energy(1e-3),
        inv: tech::RelativeCost::uniform(1.0),
        maj: tech::RelativeCost::uniform(2.0),
        buf: tech::RelativeCost::uniform(1.0),
        fog: tech::RelativeCost::uniform(2.0),
        phase_weight: 2.0,
        output_sense_energy: tech::Energy(0.0),
    };
    let row = compare(&result, &hypothetical);
    println!(
        "{:<22} {:>10} {:>10} {:>8.2}x {:>8.2}x   (user-defined)",
        hypothetical.name,
        format!("{:.3}", row.original.power),
        format!("{:.3}", row.pipelined.power),
        row.ta_gain(),
        row.tp_gain()
    );
    Ok(())
}
