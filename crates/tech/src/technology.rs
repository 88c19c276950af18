//! Technology description: per-cell constants and per-component relative
//! costs, mirroring Table I of the paper.
//!
//! [`Technology`] is the canonical implementation of the flow's
//! [`CostModel`] trait — [`Technology::cost_table`] precomputes it into
//! the flat [`wavepipe::CostTable`] the pass pipeline threads through
//! its context and `Engine::run_pipeline_grid` fans out over.

use wavepipe::{ComponentKind, CostModel, CostTable};

use crate::units::{Area, Delay, Energy};

/// Relative cost multipliers for one component kind (a row slice of
/// Table I: e.g. for QCA an INV costs 10× the cell area, 7× the cell
/// delay, 10× the cell energy).
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RelativeCost {
    /// Area multiplier over the base cell area.
    pub area: f64,
    /// Delay multiplier over the base cell delay.
    pub delay: f64,
    /// Energy multiplier over the base cell energy.
    pub energy: f64,
}

impl RelativeCost {
    /// Uniform multiplier across all three axes.
    pub const fn uniform(factor: f64) -> RelativeCost {
        RelativeCost {
            area: factor,
            delay: factor,
            energy: factor,
        }
    }
}

/// A beyond-CMOS technology model.
///
/// Cell constants and relative INV/MAJ/BUF/FOG costs come straight from
/// Table I; two extra knobs encode modelling assumptions the paper uses
/// but does not tabulate (see DESIGN.md substitutions):
///
/// * [`Technology::phase_weight`] — the duration of one clock phase in
///   units of the cell delay. Reverse-engineering Table II gives 1 for
///   SWD, 2 for NML (both equal their MAJ relative delay) and 10/3 for
///   QCA (the mean of its INV/MAJ/BUF delays).
/// * [`Technology::output_sense_energy`] — per-primary-output readout
///   energy (the power-dominant sense amplifier of the SWD reference
///   \[22\]); zero for technologies without one.
///
/// # Examples
///
/// ```
/// use tech::Technology;
///
/// let swd = Technology::swd();
/// assert_eq!(swd.name, "SWD");
/// assert_eq!(swd.cell_delay.value(), 0.42);
/// ```
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Technology {
    /// Short display name ("SWD", "QCA", "NML").
    pub name: String,
    /// Base cell area.
    pub cell_area: Area,
    /// Base cell delay.
    pub cell_delay: Delay,
    /// Base cell energy.
    pub cell_energy: Energy,
    /// Relative cost of an inverter.
    pub inv: RelativeCost,
    /// Relative cost of a majority gate.
    pub maj: RelativeCost,
    /// Relative cost of a buffer.
    pub buf: RelativeCost,
    /// Relative cost of a fan-out gate.
    pub fog: RelativeCost,
    /// Clock-phase duration in cell delays.
    pub phase_weight: f64,
    /// Per-primary-output readout energy.
    pub output_sense_energy: Energy,
}

impl Technology {
    /// Relative cost of `kind`.
    ///
    /// # Panics
    ///
    /// Panics for non-priced kinds (inputs, constants) — callers filter
    /// with [`ComponentKind::is_priced`] first.
    pub fn cost(&self, kind: ComponentKind) -> RelativeCost {
        match kind {
            ComponentKind::Inv => self.inv,
            ComponentKind::Maj => self.maj,
            ComponentKind::Buf => self.buf,
            ComponentKind::Fog => self.fog,
            other => panic!("{other} components carry no Table I cost"),
        }
    }

    /// Duration of one clock phase.
    pub fn phase_delay(&self) -> Delay {
        self.cell_delay * self.phase_weight
    }

    /// Spin Wave Devices (Table I, top; phase weight = MAJ relative
    /// delay; sense-amplifier energy dominates readout, per \[22\]).
    pub fn swd() -> Technology {
        Technology {
            name: "SWD".to_owned(),
            cell_area: Area(0.002304),
            cell_delay: Delay(0.42),
            cell_energy: Energy(1.44e-8),
            inv: RelativeCost {
                area: 2.0,
                delay: 1.0,
                energy: 1.0,
            },
            maj: RelativeCost {
                area: 5.0,
                delay: 1.0,
                energy: 3.0,
            },
            buf: RelativeCost {
                area: 2.0,
                delay: 1.0,
                energy: 1.0,
            },
            fog: RelativeCost {
                area: 5.0,
                delay: 1.0,
                energy: 3.0,
            },
            phase_weight: 1.0,
            output_sense_energy: Energy(2.0),
        }
    }

    /// Quantum-dot Cellular Automata (Table I, middle; phase weight
    /// 10/3 calibrated to the paper's reported throughputs — the mean of
    /// the INV/MAJ/BUF relative delays; no sense amplifier, but note the
    /// very expensive inverter).
    pub fn qca() -> Technology {
        Technology {
            name: "QCA".to_owned(),
            cell_area: Area(0.0004),
            cell_delay: Delay(0.0012),
            cell_energy: Energy(9.80e-7),
            inv: RelativeCost {
                area: 10.0,
                delay: 7.0,
                energy: 10.0,
            },
            maj: RelativeCost {
                area: 3.0,
                delay: 2.0,
                energy: 3.0,
            },
            buf: RelativeCost::uniform(1.0),
            fog: RelativeCost {
                area: 3.0,
                delay: 2.0,
                energy: 3.0,
            },
            phase_weight: 10.0 / 3.0,
            output_sense_energy: Energy::ZERO,
        }
    }

    /// NanoMagnetic Logic (Table I, bottom; phase weight = MAJ relative
    /// delay; every component costs roughly the same, which is why NML
    /// power grows with wave pipelining where SWD/QCA power shrinks).
    pub fn nml() -> Technology {
        Technology {
            name: "NML".to_owned(),
            cell_area: Area(0.0098),
            cell_delay: Delay(10.0),
            cell_energy: Energy(5.00e-4),
            inv: RelativeCost::uniform(1.0),
            maj: RelativeCost::uniform(2.0),
            buf: RelativeCost::uniform(2.0),
            fog: RelativeCost::uniform(2.0),
            phase_weight: 2.0,
            output_sense_energy: Energy::ZERO,
        }
    }

    /// All three technologies of the paper, in its presentation order.
    pub fn all() -> Vec<Technology> {
        vec![Technology::swd(), Technology::qca(), Technology::nml()]
    }

    /// Precomputes this technology into the flat [`CostTable`] the pass
    /// pipeline and grid driver consume.
    pub fn cost_table(&self) -> CostTable {
        CostTable::from_model(self)
    }

    /// Stable content-hash identity of this technology — the same hash
    /// its [`CostTable`] carries, so a technology edited in any Table I
    /// constant (or renamed) invalidates exactly the engine-cache cells
    /// priced under it and nothing else. Two `Technology` values with
    /// the same absolute pricing share an identity even if their
    /// relative-cost factorizations differ, because the flow only ever
    /// sees the absolute table.
    pub fn content_hash(&self) -> u64 {
        self.cost_table().content_hash()
    }
}

/// The canonical [`CostModel`]: absolute pricing is the Table I base
/// cell constant times the component's relative multiplier.
impl CostModel for Technology {
    fn cost_name(&self) -> &str {
        &self.name
    }

    fn area_of(&self, kind: ComponentKind) -> f64 {
        if kind.is_priced() {
            self.cell_area.value() * self.cost(kind).area
        } else {
            0.0
        }
    }

    fn delay_of(&self, kind: ComponentKind) -> f64 {
        if kind.is_priced() {
            self.cell_delay.value() * self.cost(kind).delay
        } else {
            0.0
        }
    }

    fn energy_of(&self, kind: ComponentKind) -> f64 {
        if kind.is_priced() {
            self.cell_energy.value() * self.cost(kind).energy
        } else {
            0.0
        }
    }

    fn phase_delay(&self) -> f64 {
        self.cell_delay.value() * self.phase_weight
    }

    fn output_sense_energy(&self) -> f64 {
        self.output_sense_energy.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_constants() {
        let swd = Technology::swd();
        assert_eq!(swd.cell_area.value(), 0.002304);
        assert_eq!(swd.maj.area, 5.0);
        assert_eq!(swd.maj.energy, 3.0);

        let qca = Technology::qca();
        assert_eq!(qca.inv.delay, 7.0);
        assert_eq!(qca.inv.area, 10.0);
        assert_eq!(qca.buf.energy, 1.0);

        let nml = Technology::nml();
        assert_eq!(nml.cell_delay.value(), 10.0);
        assert_eq!(nml.maj, RelativeCost::uniform(2.0));
    }

    #[test]
    fn phase_delays_match_table_two_reverse_engineering() {
        // SWD: 0.42 ns; NML: 20 ns; QCA: 4 ps (see DESIGN.md).
        assert!((Technology::swd().phase_delay().value() - 0.42).abs() < 1e-12);
        assert!((Technology::nml().phase_delay().value() - 20.0).abs() < 1e-12);
        assert!((Technology::qca().phase_delay().value() - 0.004).abs() < 1e-12);
    }

    #[test]
    fn cost_lookup() {
        let qca = Technology::qca();
        assert_eq!(qca.cost(ComponentKind::Inv).area, 10.0);
        assert_eq!(qca.cost(ComponentKind::Buf).delay, 1.0);
    }

    #[test]
    #[should_panic(expected = "no Table I cost")]
    fn cost_of_input_panics() {
        Technology::swd().cost(ComponentKind::Input);
    }

    #[test]
    fn all_returns_three() {
        let names: Vec<String> = Technology::all().into_iter().map(|t| t.name).collect();
        assert_eq!(names, ["SWD", "QCA", "NML"]);
    }

    #[test]
    fn cost_model_prices_cell_times_relative() {
        let qca = Technology::qca();
        let table = qca.cost_table();
        assert_eq!(table.name(), "QCA");
        // INV: 10× area, 7× delay, 10× energy over the QCA cell.
        assert_eq!(table.area_of(ComponentKind::Inv), 0.0004 * 10.0);
        assert_eq!(table.delay_of(ComponentKind::Inv), 0.0012 * 7.0);
        assert_eq!(table.energy_of(ComponentKind::Inv), 9.80e-7 * 10.0);
        assert_eq!(table.area_of(ComponentKind::Input), 0.0);
        assert!((CostModel::phase_delay(&table) - 0.004).abs() < 1e-12);

        let swd = Technology::swd().cost_table();
        assert_eq!(swd.output_sense_energy(), 2.0);
    }

    #[test]
    fn content_hash_is_stable_and_tracks_every_constant() {
        let a = Technology::qca();
        assert_eq!(a.content_hash(), Technology::qca().content_hash());
        assert_eq!(a.content_hash(), a.cost_table().content_hash());

        let names: std::collections::HashSet<u64> = Technology::all()
            .iter()
            .map(Technology::content_hash)
            .collect();
        assert_eq!(names.len(), 3, "three distinct identities");

        let mut edited = Technology::qca();
        edited.inv.delay = 8.0;
        assert_ne!(a.content_hash(), edited.content_hash());
        let mut renamed = Technology::qca();
        renamed.name = "QCA2".to_owned();
        assert_ne!(a.content_hash(), renamed.content_hash());
    }

    #[test]
    fn qca_inverter_occupies_three_phases() {
        // 7 cell delays against a 10/3-cell phase → 3 phases; everything
        // else (and every SWD/NML component) fits in one.
        let qca = Technology::qca().cost_table();
        assert_eq!(qca.phase_occupancy(ComponentKind::Inv), 3);
        assert_eq!(qca.phase_occupancy(ComponentKind::Maj), 1);
        for t in [Technology::swd(), Technology::nml()] {
            let table = t.cost_table();
            for kind in [
                ComponentKind::Inv,
                ComponentKind::Maj,
                ComponentKind::Buf,
                ComponentKind::Fog,
            ] {
                assert_eq!(table.phase_occupancy(kind), 1, "{} {kind}", t.name);
            }
        }
    }
}
