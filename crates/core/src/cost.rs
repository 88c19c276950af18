//! Technology cost models as a first-class layer of the flow.
//!
//! The paper's whole argument is comparative: the *same* MIG-mapped,
//! fan-out-restricted, buffer-inserted netlist is priced under several
//! beyond-CMOS technologies (Table I/II, Fig 9). This module makes that
//! pricing available *inside* the flow instead of bolting it on after
//! the fact: a [`CostModel`] prices each [`ComponentKind`], a
//! [`CostTable`] precomputes the model into flat per-kind arrays for
//! hot-path lookups, and the pass pipeline threads an optional table
//! through its [`FlowContext`](crate::FlowContext) so every pass's
//! [`PassStats`](crate::PassStats) can record priced area / energy /
//! cycle-time deltas and cost-aware pass variants can consult the
//! technology they are compiling for.
//!
//! The trait lives in this crate (rather than next to the `tech`
//! crate's `Technology`, its canonical implementation) because the
//! pass pipeline must be able to consume a model without depending on
//! any particular technology library; `tech` re-exports it.
//!
//! # Table I provenance
//!
//! The canonical models price components straight out of the paper's
//! Table I: a base cell area (µm²) / delay (ns) / energy (fJ) per
//! technology, times a relative multiplier per component kind (e.g. a
//! QCA inverter is 10× the cell area, 7× the delay, 10× the energy —
//! by far its most expensive component; an SWD majority gate is 5×/1×/3×).
//! Two knobs encode modelling assumptions the paper uses but does not
//! tabulate:
//!
//! * **phase delay** — the duration of one clock phase.
//!   Reverse-engineering Table II gives 1 cell delay for SWD and 2 for
//!   NML (both equal their MAJ relative delay) and 10/3 for QCA (the
//!   mean of its INV/MAJ/BUF relative delays).
//! * **output sense energy** — per-primary-output readout energy: the
//!   power-dominant sense amplifier of the SWD reference \[22\]; zero
//!   for technologies without one. This is what makes SWD per-operation
//!   energy nearly invariant under buffering, so its wave-pipelined
//!   power *drops* — an artifact §V of the paper discusses explicitly.

use std::fmt;

use crate::component::ComponentKind;
use crate::netlist::KindCounts;

/// Array slot of a priced kind inside a [`CostTable`], or `None` for
/// kinds that carry no Table I cost (inputs, constants).
fn slot(kind: ComponentKind) -> Option<usize> {
    match kind {
        ComponentKind::Maj => Some(0),
        ComponentKind::Inv => Some(1),
        ComponentKind::Buf => Some(2),
        ComponentKind::Fog => Some(3),
        ComponentKind::Input | ComponentKind::Const => None,
    }
}

/// A technology cost model: absolute pricing per component kind plus
/// the two clocking/readout knobs (see the [module docs](self) for the
/// Table I provenance of the canonical models).
///
/// All quantities use the paper's units — µm², ns, fJ — as plain `f64`
/// so the flow stays independent of any unit-newtype library. Kinds
/// that carry no cost (inputs, constants) price as `0.0` on every axis.
///
/// `tech::Technology` is the canonical implementation; [`CostTable`] is
/// the precomputed form every hot path should use.
pub trait CostModel: Sync + Send {
    /// Short display name of the model ("SWD", "QCA", "NML", …).
    fn cost_name(&self) -> &str;

    /// Absolute area of one component of `kind`, in µm².
    fn area_of(&self, kind: ComponentKind) -> f64;

    /// Absolute propagation delay of one component of `kind`, in ns.
    fn delay_of(&self, kind: ComponentKind) -> f64;

    /// Absolute per-operation energy of one component of `kind`, in fJ.
    fn energy_of(&self, kind: ComponentKind) -> f64;

    /// Duration of one clock phase, in ns (each pipeline level advances
    /// one phase; a wave interval is three phases, Fig 4).
    fn phase_delay(&self) -> f64;

    /// Per-primary-output readout energy, in fJ (the SWD sense
    /// amplifier; zero for technologies without one).
    fn output_sense_energy(&self) -> f64;

    /// Precomputes this model into a flat lookup table.
    fn table(&self) -> CostTable
    where
        Self: Sized,
    {
        CostTable::from_model(self)
    }
}

/// A [`CostModel`] precomputed into flat per-kind arrays — the form the
/// pipeline threads through its context and the engine grid fans out over.
///
/// Cheap to clone (one `String` plus a few `f64`s) and `Send + Sync`,
/// so one table can be shared across the parallel batch/grid drivers.
///
/// A table is the technology component of a [`crate::FlowSpec`], so it
/// round-trips through JSON, and [`CostTable::content_hash`] gives the
/// stable technology identity the [`crate::Engine`] cache keys on.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CostTable {
    name: String,
    area: [f64; 4],
    delay: [f64; 4],
    energy: [f64; 4],
    phase_delay: f64,
    output_sense_energy: f64,
}

impl CostTable {
    /// Precomputes `model` into a table (one trait call per kind/axis).
    pub fn from_model(model: &(impl CostModel + ?Sized)) -> CostTable {
        const PRICED: [ComponentKind; 4] = [
            ComponentKind::Maj,
            ComponentKind::Inv,
            ComponentKind::Buf,
            ComponentKind::Fog,
        ];
        CostTable {
            name: model.cost_name().to_owned(),
            area: PRICED.map(|k| model.area_of(k)),
            delay: PRICED.map(|k| model.delay_of(k)),
            energy: PRICED.map(|k| model.energy_of(k)),
            phase_delay: model.phase_delay(),
            output_sense_energy: model.output_sense_energy(),
        }
    }

    /// The model's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Prices a netlist summarized by its component counts, output
    /// count and depth — the totals a pipeline records around every
    /// pass without re-walking the netlist.
    ///
    /// Summation order is fixed (MAJ, INV, BUF, FOG, then sense
    /// energy), so pricing the same counts always yields bit-identical
    /// floats — the property the grid-vs-post-hoc golden tests pin.
    pub fn price(&self, counts: &KindCounts, outputs: usize, depth: u32) -> PricedCost {
        let per_kind = [counts.maj, counts.inv, counts.buf, counts.fog];
        let mut area = 0.0;
        let mut energy = 0.0;
        for (i, &count) in per_kind.iter().enumerate() {
            area += self.area[i] * count as f64;
            energy += self.energy[i] * count as f64;
        }
        energy += self.output_sense_energy * outputs as f64;
        PricedCost {
            area,
            energy,
            latency: self.phase_delay * f64::from(depth),
        }
    }

    /// Integer clock-phase occupancy per kind: how many phases a
    /// component of `kind` needs before its output is valid,
    /// `max(1, ⌈delay / phase⌉)` for priced kinds — unpriced kinds
    /// (inputs, constants) occupy no phase and return 0.
    ///
    /// This is the cost-aware balancing weight: under the paper's
    /// Table I the slow QCA inverter (7 cell delays against a 10/3-cell
    /// phase) occupies 3 phases while everything else fits in one;
    /// SWD and NML come out all-unit.
    pub fn phase_occupancy(&self, kind: ComponentKind) -> u32 {
        let Some(i) = slot(kind) else { return 0 };
        if self.phase_delay <= 0.0 || self.delay[i] <= 0.0 {
            return 1;
        }
        // Tolerate float noise so a delay of exactly N phases counts N.
        ((self.delay[i] / self.phase_delay) - 1e-9).ceil().max(1.0) as u32
    }

    /// Stable content hash of this table — the technology axis of the
    /// [`crate::Engine`] cache key. Two tables hash equal iff their
    /// names and every pricing constant (by f64 bit pattern) agree, so
    /// editing any Table I number invalidates exactly the cells priced
    /// under it.
    pub fn content_hash(&self) -> u64 {
        let mut h = crate::fnv::Fnv::new();
        h.write(self.name.as_bytes());
        for axis in [&self.area, &self.delay, &self.energy] {
            for &v in axis.iter() {
                h.write_f64(v);
            }
        }
        h.write_f64(self.phase_delay);
        h.write_f64(self.output_sense_energy);
        h.finish()
    }
}

impl CostModel for CostTable {
    fn cost_name(&self) -> &str {
        &self.name
    }

    fn area_of(&self, kind: ComponentKind) -> f64 {
        slot(kind).map_or(0.0, |i| self.area[i])
    }

    fn delay_of(&self, kind: ComponentKind) -> f64 {
        slot(kind).map_or(0.0, |i| self.delay[i])
    }

    fn energy_of(&self, kind: ComponentKind) -> f64 {
        slot(kind).map_or(0.0, |i| self.energy[i])
    }

    fn phase_delay(&self) -> f64 {
        self.phase_delay
    }

    fn output_sense_energy(&self) -> f64 {
        self.output_sense_energy
    }
}

impl fmt::Display for CostTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cost model `{}` (phase {} ns)",
            self.name, self.phase_delay
        )
    }
}

/// One priced netlist summary: total area, per-operation energy and
/// the cycle-time contribution (depth × phase delay).
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize)]
pub struct PricedCost {
    /// Total component area, µm².
    pub area: f64,
    /// Per-operation energy including output readout, fJ.
    pub energy: f64,
    /// End-to-end cycle time of one wave (depth × phase delay), ns.
    pub latency: f64,
}

/// Priced netlist state around one pass: what the pass's transformation
/// cost under the active [`CostTable`].
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct PricedDelta {
    /// Name of the cost model the deltas are priced under.
    pub model: String,
    /// Priced state before the pass ran.
    pub before: PricedCost,
    /// Priced state after the pass ran.
    pub after: PricedCost,
}

impl PricedDelta {
    /// Area the pass added (µm²; negative for sweeps).
    pub fn area_delta(&self) -> f64 {
        self.after.area - self.before.area
    }

    /// Per-operation energy the pass added (fJ).
    pub fn energy_delta(&self) -> f64 {
        self.after.energy - self.before.energy
    }

    /// Cycle time the pass added (ns).
    pub fn latency_delta(&self) -> f64 {
        self.after.latency - self.before.latency
    }
}

impl fmt::Display for PricedDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: Δarea {:+.3} µm², Δenergy {:+.3} fJ, Δcycle {:+.3} ns",
            self.model,
            self.area_delta(),
            self.energy_delta(),
            self.latency_delta()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy model: every priced kind costs its slot index + 1.
    struct Toy;

    impl CostModel for Toy {
        fn cost_name(&self) -> &str {
            "TOY"
        }
        fn area_of(&self, kind: ComponentKind) -> f64 {
            slot(kind).map_or(0.0, |i| (i + 1) as f64)
        }
        fn delay_of(&self, kind: ComponentKind) -> f64 {
            self.area_of(kind)
        }
        fn energy_of(&self, kind: ComponentKind) -> f64 {
            self.area_of(kind) * 10.0
        }
        fn phase_delay(&self) -> f64 {
            2.0
        }
        fn output_sense_energy(&self) -> f64 {
            100.0
        }
    }

    #[test]
    fn table_precomputes_the_model() {
        let t = Toy.table();
        assert_eq!(t.name(), "TOY");
        assert_eq!(t.area_of(ComponentKind::Maj), 1.0);
        assert_eq!(t.area_of(ComponentKind::Fog), 4.0);
        assert_eq!(t.energy_of(ComponentKind::Inv), 20.0);
        assert_eq!(t.area_of(ComponentKind::Input), 0.0);
        assert_eq!(CostModel::phase_delay(&t), 2.0);
    }

    #[test]
    fn price_sums_counts_outputs_and_depth() {
        let t = Toy.table();
        let counts = KindCounts {
            maj: 2,
            inv: 1,
            buf: 3,
            fog: 0,
            ..KindCounts::default()
        };
        let p = t.price(&counts, 2, 5);
        assert_eq!(p.area, 2.0 * 1.0 + 1.0 * 2.0 + 3.0 * 3.0);
        assert_eq!(p.energy, (2.0 * 1.0 + 1.0 * 2.0 + 3.0 * 3.0) * 10.0 + 200.0);
        assert_eq!(p.latency, 10.0);
    }

    #[test]
    fn phase_occupancy_rounds_up_slow_components() {
        let t = Toy.table(); // delays 1..4, phase 2
        assert_eq!(t.phase_occupancy(ComponentKind::Maj), 1); // 0.5 phases
        assert_eq!(t.phase_occupancy(ComponentKind::Inv), 1); // exactly 1
        assert_eq!(t.phase_occupancy(ComponentKind::Buf), 2); // 1.5 phases
        assert_eq!(t.phase_occupancy(ComponentKind::Fog), 2); // exactly 2
        assert_eq!(t.phase_occupancy(ComponentKind::Const), 0);
    }

    #[test]
    fn deltas_subtract_before_from_after() {
        let t = Toy.table();
        let before = t.price(&KindCounts::default(), 0, 0);
        let after = t.price(
            &KindCounts {
                maj: 1,
                ..KindCounts::default()
            },
            1,
            1,
        );
        let d = PricedDelta {
            model: "TOY".to_owned(),
            before,
            after,
        };
        assert_eq!(d.area_delta(), 1.0);
        assert_eq!(d.energy_delta(), 110.0);
        assert_eq!(d.latency_delta(), 2.0);
        assert!(d.to_string().contains("TOY"));
    }
}
