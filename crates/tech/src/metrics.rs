//! The paper's evaluation metrics (§V, Table II, Fig 9).
//!
//! * **Area** — Σ relative area × cell area over MAJ/INV/BUF/FOG.
//! * **Energy** — Σ relative energy × cell energy, plus the
//!   per-output sense energy where the technology has one (SWD).
//! * **Latency** — depth × phase delay.
//! * **Throughput** — non-pipelined: one operation per latency;
//!   wave-pipelined: one wave every *three phases* (Fig 4), independent
//!   of depth.
//! * **Power** — per-operation energy over latency (the paper's
//!   convention; this is what makes the SWD/QCA wave-pipelined power
//!   *decrease* — an artifact the paper explicitly discusses).
//! * **T/A, T/P gains** — wave-pipelined ratio over original ratio,
//!   the two bar charts of Fig 9.

use wavepipe::{CostTable, FlowResult, Netlist};

use crate::technology::Technology;
use crate::units::{Area, Delay, Energy, Power, Throughput};

/// How the netlist is operated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum OperatingMode {
    /// One operation at a time; the next starts after the previous
    /// drains (the paper's "Original" columns).
    Combinational,
    /// Wave-pipelined under the three-phase clock: a new wave every
    /// three phases, `⌈d/3⌉` waves in flight (the paper's "WP" columns).
    WavePipelined,
}

/// All Table II metrics for one netlist in one mode on one technology.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Evaluation {
    /// Netlist size (priced components).
    pub size: usize,
    /// Pipeline depth in levels.
    pub depth: u32,
    /// Total area.
    pub area: Area,
    /// Per-operation energy.
    pub energy: Energy,
    /// End-to-end latency of one operation.
    pub latency: Delay,
    /// Power = energy / latency.
    pub power: Power,
    /// Operation throughput.
    pub throughput: Throughput,
}

impl Evaluation {
    /// Throughput per unit area (MOPS/µm²).
    pub fn throughput_per_area(&self) -> f64 {
        self.throughput.value() / self.area.value()
    }

    /// Throughput per unit power (MOPS/µW).
    pub fn throughput_per_power(&self) -> f64 {
        self.throughput.value() / self.power.value()
    }
}

/// Evaluates `netlist` on `technology` in the given mode.
///
/// # Examples
///
/// ```
/// use tech::{evaluate, OperatingMode, Technology};
/// use wavepipe::Netlist;
///
/// let mut n = Netlist::new("maj");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let c = n.add_input("c");
/// let g = n.add_maj([a, b, c]);
/// n.add_output("f", g);
///
/// let e = evaluate(&n, &Technology::nml(), OperatingMode::Combinational);
/// assert_eq!(e.size, 1);
/// assert_eq!(e.latency.value(), 20.0); // depth 1 × 20 ns phase
/// ```
pub fn evaluate(netlist: &Netlist, technology: &Technology, mode: OperatingMode) -> Evaluation {
    evaluate_with_table(netlist, &technology.cost_table(), mode)
}

/// [`evaluate`] against a precomputed [`CostTable`] — the same pricing
/// the pass pipeline records in its per-pass traces, so grid-driver
/// results and post-hoc evaluations are bit-identical (the golden
/// property `tests/grid_pricing.rs` pins). Callers evaluating many
/// netlists on one technology should precompute the table once.
pub fn evaluate_with_table(
    netlist: &Netlist,
    table: &CostTable,
    mode: OperatingMode,
) -> Evaluation {
    let counts = netlist.counts();
    let depth = netlist.depth();
    let priced = table.price(&counts, netlist.outputs().len(), depth);
    let area = Area(priced.area);
    let energy = Energy(priced.energy);
    let latency = Delay(priced.latency);
    let phase = Delay(wavepipe::CostModel::phase_delay(table));
    let throughput = match mode {
        OperatingMode::Combinational => latency.to_throughput(),
        OperatingMode::WavePipelined => (phase * 3.0).to_throughput(),
    };
    // Depth-0 netlists (constant outputs only) have no meaningful
    // latency; report zero power rather than dividing by zero.
    let power = if latency.value() > 0.0 {
        energy.over(latency)
    } else {
        Power::ZERO
    };

    Evaluation {
        size: counts.priced_total(),
        depth,
        area,
        energy,
        latency,
        power,
        throughput,
    }
}

/// Original-vs-wave-pipelined comparison for one benchmark on one
/// technology — one row of Table II.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Comparison {
    /// Technology name.
    pub technology: String,
    /// The original (unbalanced) netlist, operated combinationally.
    pub original: Evaluation,
    /// The wave-pipelined netlist, streaming.
    pub pipelined: Evaluation,
}

impl Comparison {
    /// Normalized throughput-per-area gain (the left chart of Fig 9).
    pub fn ta_gain(&self) -> f64 {
        self.pipelined.throughput_per_area() / self.original.throughput_per_area()
    }

    /// Normalized throughput-per-power gain (the right chart of Fig 9).
    pub fn tp_gain(&self) -> f64 {
        self.pipelined.throughput_per_power() / self.original.throughput_per_power()
    }

    /// Waves simultaneously in flight in the pipelined design
    /// (`N = ⌈d/3⌉`, paper §V).
    pub fn waves_in_flight(&self) -> u32 {
        self.pipelined.depth.div_ceil(3)
    }
}

/// Evaluates a completed flow result on one technology.
pub fn compare(result: &FlowResult, technology: &Technology) -> Comparison {
    compare_with_table(result, &technology.cost_table())
}

/// [`compare`] against a precomputed [`CostTable`] — use this when
/// comparing many flow results on the same technology (the grid harness
/// computes each technology's table once for the whole sweep).
pub fn compare_with_table(result: &FlowResult, table: &CostTable) -> Comparison {
    Comparison {
        technology: table.name().to_owned(),
        original: evaluate_with_table(&result.original, table, OperatingMode::Combinational),
        pipelined: evaluate_with_table(&result.pipelined, table, OperatingMode::WavePipelined),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavepipe::{FlowResult, PipelineSpec};

    /// The paper's flow (FO3 + BUF + verify) on `g`.
    fn paper_flow(g: &mig::Mig) -> FlowResult {
        let pipeline = PipelineSpec::default().build().unwrap();
        pipeline.run(g).unwrap().result
    }

    fn flow_sample(seed: u64) -> FlowResult {
        let g = mig::random_mig(mig::RandomMigConfig {
            inputs: 12,
            outputs: 6,
            gates: 300,
            depth: 12,
            seed,
        });
        paper_flow(&g)
    }

    #[test]
    fn wave_pipelined_throughput_is_depth_independent() {
        let t = Technology::swd();
        let r = flow_sample(1);
        let e = evaluate(&r.pipelined, &t, OperatingMode::WavePipelined);
        // 1 / (3 × 0.42 ns) = 793.65 MOPS — the constant WP column of
        // Table II for SWD.
        assert!((e.throughput.value() - 793.65).abs() < 0.01);
    }

    #[test]
    fn combinational_throughput_scales_with_depth() {
        let t = Technology::swd();
        let r = flow_sample(2);
        let e = evaluate(&r.original, &t, OperatingMode::Combinational);
        let expect = 1000.0 / (0.42 * e.depth as f64);
        assert!((e.throughput.value() - expect).abs() < 1e-9);
    }

    #[test]
    fn qca_and_nml_wp_throughputs_match_table_two() {
        let r = flow_sample(3);
        let qca = evaluate(
            &r.pipelined,
            &Technology::qca(),
            OperatingMode::WavePipelined,
        );
        assert!((qca.throughput.value() - 83333.33).abs() < 0.01);
        let nml = evaluate(
            &r.pipelined,
            &Technology::nml(),
            OperatingMode::WavePipelined,
        );
        assert!((nml.throughput.value() - 16.67).abs() < 0.01);
    }

    #[test]
    fn swd_energy_is_output_dominated_so_wp_power_drops() {
        // The SWD sense-amplifier assumption makes per-op energy nearly
        // invariant under buffering, so power ∝ 1/latency decreases —
        // the paper's §V artifact.
        let t = Technology::swd();
        let r = flow_sample(4);
        let c = compare(&r, &t);
        assert!(
            c.pipelined.power.value() < c.original.power.value(),
            "WP power {} should drop below original {}",
            c.pipelined.power,
            c.original.power
        );
        let energy_ratio = c.pipelined.energy.value() / c.original.energy.value();
        assert!(
            energy_ratio < 1.05,
            "energy nearly invariant, got ×{energy_ratio}"
        );
    }

    #[test]
    fn nml_power_increases_with_wave_pipelining() {
        // NML prices every cell the same, so energy scales with the
        // 3–5× size increase and dominates the latency growth.
        let t = Technology::nml();
        let r = flow_sample(5);
        let c = compare(&r, &t);
        assert!(
            c.pipelined.power.value() > c.original.power.value(),
            "NML WP power should increase"
        );
    }

    #[test]
    fn gains_match_the_analytic_form() {
        // T/A gain = (d_orig / 3) × (A_orig / A_wp); same for T/P with
        // power. Check the identity holds exactly.
        let t = Technology::qca();
        let r = flow_sample(6);
        let c = compare(&r, &t);
        let analytic =
            (c.original.depth as f64 / 3.0) * (c.original.area.value() / c.pipelined.area.value());
        assert!((c.ta_gain() - analytic).abs() < 1e-9);
        assert!(
            c.ta_gain() > 1.0,
            "QCA T/A gain should exceed 1 on depth-12 logic"
        );
    }

    #[test]
    fn deeper_circuits_gain_more() {
        // Fig 9 / Table II trend: gains grow with original depth.
        let t = Technology::swd();
        let shallow = {
            let g = mig::random_mig(mig::RandomMigConfig {
                inputs: 12,
                outputs: 6,
                gates: 120,
                depth: 6,
                seed: 7,
            });
            compare(&paper_flow(&g), &t)
        };
        let deep = {
            let g = mig::random_mig(mig::RandomMigConfig {
                inputs: 12,
                outputs: 6,
                gates: 600,
                depth: 30,
                seed: 8,
            });
            compare(&paper_flow(&g), &t)
        };
        assert!(deep.tp_gain() > shallow.tp_gain());
    }

    #[test]
    fn waves_in_flight() {
        let r = flow_sample(9);
        let c = compare(&r, &Technology::nml());
        assert_eq!(c.waves_in_flight(), c.pipelined.depth.div_ceil(3));
        assert!(c.waves_in_flight() >= 1);
    }
}
