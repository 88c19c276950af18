//! Weighted delays — §III's technology-tailored mode. Each component
//! kind takes an integer delay in clock phases; [`crate::balance`] then
//! equalizes weighted path delays with [`DelayWeights::buf`]-weight
//! buffers. With QCA's INV 7, an inverter's sibling paths need seven
//! phases of buffering, which is why the paper reports unit weights.

use crate::component::ComponentKind;
use crate::netlist::Netlist;

/// Integer delay weights per component kind, in clock phases. Part of a
/// [`crate::FlowSpec`]'s pipeline, so they serialize unconditionally.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DelayWeights {
    /// Inverter delay.
    pub inv: u32,
    /// Majority-gate delay.
    pub maj: u32,
    /// Buffer delay (the balancing granularity).
    pub buf: u32,
    /// Fan-out gate delay.
    pub fog: u32,
}

impl DelayWeights {
    /// Unit weights — the paper's generic mode.
    pub const UNIT: DelayWeights = DelayWeights {
        inv: 1,
        maj: 1,
        buf: 1,
        fog: 1,
    };

    /// The QCA relative delays of Table I.
    pub const QCA: DelayWeights = DelayWeights {
        inv: 7,
        maj: 2,
        buf: 1,
        fog: 2,
    };

    /// The NML relative delays of Table I.
    pub const NML: DelayWeights = DelayWeights {
        inv: 1,
        maj: 2,
        buf: 2,
        fog: 2,
    };

    /// The SWD relative delays of Table I (all unit).
    pub const SWD: DelayWeights = DelayWeights::UNIT;

    /// Weights from a cost model: each kind weighs the clock phases it
    /// occupies ([`crate::cost::CostTable::phase_occupancy`]) — under
    /// Table I unit for SWD and NML, `{INV 3, MAJ 1, BUF 1, FOG 1}` for
    /// QCA. The cost-aware strategy balances with these.
    pub fn for_cost_model(table: &crate::cost::CostTable) -> DelayWeights {
        DelayWeights {
            inv: table.phase_occupancy(ComponentKind::Inv),
            maj: table.phase_occupancy(ComponentKind::Maj),
            buf: table.phase_occupancy(ComponentKind::Buf),
            fog: table.phase_occupancy(ComponentKind::Fog),
        }
    }

    /// Weight of one component kind (inputs and constants are 0).
    #[inline]
    pub fn of(&self, kind: ComponentKind) -> u32 {
        match kind {
            ComponentKind::Inv => self.inv,
            ComponentKind::Maj => self.maj,
            ComponentKind::Buf => self.buf,
            ComponentKind::Fog => self.fog,
            ComponentKind::Input | ComponentKind::Const => 0,
        }
    }
}

impl Default for DelayWeights {
    fn default() -> DelayWeights {
        DelayWeights::UNIT
    }
}

/// Statistics of a weighted balancing run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WeightedInsertion {
    /// Buffers inserted.
    pub buffers: usize,
    /// Common weighted arrival of all outputs after balancing.
    pub weighted_depth: u32,
}

/// Arrival times under `weights` ([`Netlist::levels_from_order`]).
pub fn weighted_arrivals(netlist: &Netlist, weights: &DelayWeights) -> Vec<u32> {
    netlist.levels_from_order(&netlist.topo_order(), weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{check_balance, BalanceError};
    use crate::buffer_insertion::balance;
    use crate::from_mig::netlist_from_mig;

    /// The weighted strategy: the kernel on arrivals under `weights`.
    fn insert_buffers_weighted(
        n: &mut Netlist,
        weights: &DelayWeights,
    ) -> Result<WeightedInsertion, BalanceError> {
        let (arrival, fanout) = (weighted_arrivals(n, weights), n.fanout_edges());
        let stats = balance(n, weights, &arrival, &fanout)?;
        Ok(WeightedInsertion {
            buffers: stats.total(),
            weighted_depth: stats.depth,
        })
    }

    /// Weighted verification: the verifier on arrivals under `weights`;
    /// returns the common output arrival.
    fn verify_weighted_balance(n: &Netlist, weights: &DelayWeights) -> Result<u32, BalanceError> {
        let arrival = weighted_arrivals(n, weights);
        check_balance(n, weights, &arrival, &n.fanout_counts(), None).map(|r| r.depth)
    }

    fn mapped_sample(seed: u64) -> Netlist {
        let g = mig::random_mig(mig::RandomMigConfig {
            inputs: 10,
            outputs: 5,
            gates: 150,
            depth: 9,
            seed,
        });
        netlist_from_mig(&g)
    }

    #[test]
    fn unit_weights_match_the_plain_algorithm() {
        let base = mapped_sample(60);
        let mut weighted = base.clone();
        let w = insert_buffers_weighted(&mut weighted, &DelayWeights::UNIT).unwrap();
        let mut plain = base.clone();
        let p = crate::buffer_insertion::insert_buffers(&mut plain);
        assert_eq!(w.buffers, p.total());
        assert_eq!(w.weighted_depth, p.depth);
        assert_eq!(weighted_arrivals(&base, &DelayWeights::UNIT), base.levels());
        assert_eq!(
            crate::io::write_netlist(&weighted),
            crate::io::write_netlist(&plain)
        );
    }

    #[test]
    fn qca_weights_balance_and_preserve_function() {
        let base = mapped_sample(61);
        let mut n = base.clone();
        let stats = insert_buffers_weighted(&mut n, &DelayWeights::QCA).unwrap();
        assert!(stats.buffers > 0);
        let depth = verify_weighted_balance(&n, &DelayWeights::QCA).unwrap();
        assert_eq!(depth, stats.weighted_depth);
        for p in 0..64u32 {
            let bits: Vec<bool> = (0..10)
                .map(|i| p.wrapping_mul(0x9E3779B9) >> i & 1 != 0)
                .collect();
            assert_eq!(base.eval(&bits), n.eval(&bits));
        }
    }

    #[test]
    fn qca_inverters_cost_extra_buffers() {
        // A gate reading one inverted and one plain copy of the same
        // signal: under QCA weights the plain path must absorb the
        // inverter's 7-phase delay minus the gate gap.
        let mut n = Netlist::new("invgap");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let inv = n.add_inv(a);
        let g = n.add_maj([inv, b, a]);
        n.add_output("f", g);

        let mut unit = n.clone();
        let u = insert_buffers_weighted(&mut unit, &DelayWeights::UNIT).unwrap();
        let mut qca = n.clone();
        let q = insert_buffers_weighted(&mut qca, &DelayWeights::QCA).unwrap();
        assert!(
            q.buffers > u.buffers,
            "QCA {} vs unit {}",
            q.buffers,
            u.buffers
        );
        assert!(verify_weighted_balance(&qca, &DelayWeights::QCA).is_ok());
    }

    #[test]
    fn nml_even_weights_divide_cleanly_on_mapped_migs() {
        // NML: INV 1, MAJ/BUF/FOG 2 — gaps can be odd around inverters.
        // On a netlist with an INV the algorithm must either balance or
        // report the indivisible gap; on an INV-free netlist (all gaps
        // even) it must succeed.
        let mut n = Netlist::new("even");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_maj([a, b, c]);
        let g2 = n.add_maj([g1, a, b]);
        n.add_output("f", g2);
        let stats = insert_buffers_weighted(&mut n, &DelayWeights::NML).unwrap();
        assert_eq!(stats.weighted_depth, 4);
        assert!(verify_weighted_balance(&n, &DelayWeights::NML).is_ok());
    }

    #[test]
    fn indivisible_gap_is_reported_and_netlist_untouched() {
        // NML weights: INV weight 1 creates an odd gap that weight-2
        // buffers cannot tile.
        let mut n = Netlist::new("odd");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let inv = n.add_inv(a);
        let g = n.add_maj([inv, b, a]);
        n.add_output("f", g);
        let before = crate::io::write_netlist(&n);
        match insert_buffers_weighted(&mut n, &DelayWeights::NML) {
            Err(BalanceError::IndivisibleGap {
                gap, buf_weight, ..
            }) => {
                assert_eq!(gap % buf_weight, gap % 2);
                assert_eq!(buf_weight, 2);
            }
            other => panic!("expected IndivisibleGap, got {other:?}"),
        }
        assert_eq!(
            crate::io::write_netlist(&n),
            before,
            "failed balancing must not mutate"
        );
    }

    #[test]
    fn zero_buffer_weight_is_rejected() {
        let mut n = mapped_sample(62);
        let bad = DelayWeights {
            buf: 0,
            ..DelayWeights::UNIT
        };
        assert_eq!(
            insert_buffers_weighted(&mut n, &bad),
            Err(BalanceError::ZeroBufferWeight)
        );
    }

    #[test]
    fn weighted_depth_reflects_slow_inverters() {
        let mut n = Netlist::new("slow");
        let a = n.add_input("a");
        let inv = n.add_inv(a);
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g = n.add_maj([inv, b, c]);
        n.add_output("f", g);
        let arr = weighted_arrivals(&n, &DelayWeights::QCA);
        assert_eq!(arr[inv.index()], 7);
        assert_eq!(arr[g.index()], 9);
    }
}
