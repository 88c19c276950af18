//! Slack-aware level retiming — an ablation beyond the paper. Any
//! *feasible* level assignment (every edge spans ≥ 1 level, depth
//! unchanged) balances correctly, at a buffer cost of
//! [`LevelSchedule::buffer_cost`]. [`schedule_levels`] hill-climbs it:
//! in reverse topological order each component moves a level later
//! while that strictly helps, e.g. a shallow component sliding up under
//! a chain its driver already grows.

use crate::component::{CompId, ComponentKind};
use crate::netlist::{Netlist, StructuralCaches};

/// ASAP and ALAP levels plus the retimed assignment.
#[derive(Clone, Debug)]
pub struct LevelSchedule {
    /// As-soon-as-possible levels (= [`Netlist::levels`]).
    pub asap: Vec<u32>,
    /// As-late-as-possible levels w.r.t. the ASAP output depth.
    pub alap: Vec<u32>,
    /// The retimed assignment chosen by the hill-climb.
    pub retimed: Vec<u32>,
}

impl LevelSchedule {
    /// Total slack (Σ alap − asap) — how much freedom the retimer had.
    pub fn total_slack(&self) -> u64 {
        self.asap
            .iter()
            .zip(&self.alap)
            .map(|(&a, &l)| u64::from(l - a))
            .sum()
    }
}

/// Computes ASAP/ALAP levels and the retimed assignment for `netlist`,
/// reading its structural views from `caches` (which must describe
/// `netlist`; a fresh [`StructuralCaches::default`] always does).
///
/// The retimed assignment is always feasible (inputs stay at level 0,
/// every edge spans ≥ 1 level, the depth is unchanged) and never costs
/// more buffers than ASAP.
pub fn schedule_levels(netlist: &Netlist, caches: &mut StructuralCaches) -> LevelSchedule {
    let asap = caches.levels(netlist).to_vec();
    let order = caches.topo_order(netlist);
    let n = netlist.len();
    let fanout = caches.fanout_edges(netlist);

    let is_const = |id: CompId| netlist.component(id).kind() == ComponentKind::Const;
    let is_movable = |id: CompId| {
        !matches!(
            netlist.component(id).kind(),
            ComponentKind::Const | ComponentKind::Input
        )
    };

    let depth = netlist.depth_from_levels(&asap);
    let mut output_driver = vec![false; n];
    for p in netlist.outputs() {
        if !is_const(p.driver) {
            output_driver[p.driver.index()] = true;
        }
    }

    // ALAP by pulling back from `depth` through consumers.
    let mut alap = vec![depth; n];
    for &id in order.iter().rev() {
        for &f in netlist.component(id).fanins() {
            if !is_const(f) {
                alap[f.index()] = alap[f.index()].min(alap[id.index()].saturating_sub(1));
            }
        }
    }
    for i in 0..n {
        let id = CompId::from_index(i);
        // Pinned components get no slack; movable ones never below ASAP.
        if !is_movable(id) || alap[i] < asap[i] {
            alap[i] = asap[i];
        }
    }

    // Hill-climb in reverse topological order (consumers final first).
    let mut retimed = asap.clone();
    for &id in order.iter().rev() {
        if !is_movable(id) {
            continue;
        }
        // Feasibility bound: one below the shallowest consumer; output
        // drivers may not pass the common output depth.
        let ub = fanout[id.index()]
            .iter()
            .map(|&(c, _)| retimed[c.index()] - 1)
            .chain(output_driver[id.index()].then_some(depth))
            .min();
        let Some(ub) = ub else {
            continue; // dangling component: leave at ASAP
        };

        while retimed[id.index()] < ub {
            let next = retimed[id.index()] + 1;
            // Moving up saves one buffer on our own chain (ub ≤ maxreq
            // guarantees the chain is non-empty) and costs one on every
            // fan-in whose chain we were already the deepest consumer
            // of; move only on strict improvement.
            let extends = netlist.component(id).fanins().iter().any(|&f| {
                if is_const(f) {
                    return false;
                }
                let covered = fanout[f.index()]
                    .iter()
                    .filter(|&&(c, _)| c != id)
                    .map(|&(c, _)| retimed[c.index()] - 1)
                    .chain(output_driver[f.index()].then_some(depth))
                    .fold(retimed[f.index()], u32::max);
                next - 1 > covered
            });
            if extends {
                break;
            }
            retimed[id.index()] = next;
        }
    }

    LevelSchedule {
        asap,
        alap,
        retimed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::verify_balance;
    use crate::buffer_insertion::{balance, insert_buffers, BufferInsertion};
    use crate::from_mig::netlist_from_mig;
    use crate::weighted::DelayWeights;

    fn schedule(n: &Netlist) -> LevelSchedule {
        schedule_levels(n, &mut StructuralCaches::default())
    }

    /// The retimed strategy: the unit-weight kernel on retimed levels.
    fn insert_buffers_retimed(n: &mut Netlist) -> BufferInsertion {
        let levels = schedule(n).retimed;
        let fanout = n.fanout_edges();
        balance(n, &DelayWeights::UNIT, &levels, &fanout).expect("retimed levels are feasible")
    }

    #[test]
    fn retimed_levels_are_feasible() {
        let g = mig::random_mig(mig::RandomMigConfig {
            inputs: 10,
            outputs: 5,
            gates: 150,
            depth: 9,
            seed: 31,
        });
        let n = netlist_from_mig(&g);
        let s = schedule(&n);
        for id in n.ids() {
            assert!(s.alap[id.index()] >= s.asap[id.index()]);
            assert!(s.retimed[id.index()] >= s.asap[id.index()]);
            assert!(s.retimed[id.index()] <= s.alap[id.index()]);
            for &f in n.component(id).fanins() {
                if n.component(f).kind() == ComponentKind::Const {
                    continue;
                }
                assert!(
                    s.retimed[id.index()] > s.retimed[f.index()],
                    "retimed levels must keep edges causal"
                );
            }
        }
    }

    #[test]
    fn retimed_cost_never_exceeds_asap_cost() {
        for seed in 40..48 {
            let g = mig::random_mig(mig::RandomMigConfig {
                inputs: 12,
                outputs: 6,
                gates: 250,
                depth: 11,
                seed,
            });
            let n = netlist_from_mig(&g);
            let s = schedule(&n);
            let asap_cost = LevelSchedule::buffer_cost(&n, &s.asap);
            let retimed_cost = LevelSchedule::buffer_cost(&n, &s.retimed);
            assert!(
                retimed_cost <= asap_cost,
                "seed {seed}: retimed {retimed_cost} > asap {asap_cost}"
            );
        }
    }

    #[test]
    fn predicted_cost_matches_actual_insertion() {
        for seed in 50..54 {
            let g = mig::random_mig(mig::RandomMigConfig {
                inputs: 10,
                outputs: 4,
                gates: 180,
                depth: 10,
                seed,
            });
            let n = netlist_from_mig(&g);
            let s = schedule(&n);

            let mut asap_net = n.clone();
            let stats = insert_buffers(&mut asap_net);
            assert_eq!(
                LevelSchedule::buffer_cost(&n, &s.asap),
                stats.total() as u64,
                "cost model must match Algorithm 1 exactly (seed {seed})"
            );

            let mut retimed_net = n.clone();
            let rstats = insert_buffers_retimed(&mut retimed_net);
            assert_eq!(
                LevelSchedule::buffer_cost(&n, &s.retimed),
                rstats.total() as u64
            );
        }
    }

    #[test]
    fn retimed_insertion_is_balanced_and_equivalent() {
        let g = mig::random_mig(mig::RandomMigConfig {
            inputs: 10,
            outputs: 5,
            gates: 200,
            depth: 10,
            seed: 32,
        });
        let base = netlist_from_mig(&g);

        let mut asap_net = base.clone();
        insert_buffers(&mut asap_net);
        let mut retimed_net = base.clone();
        insert_buffers_retimed(&mut retimed_net);

        let ra = verify_balance(&asap_net, None).unwrap();
        let rr = verify_balance(&retimed_net, None).unwrap();
        assert_eq!(ra.depth, rr.depth, "retiming must not change depth");

        for p in 0..64u32 {
            let bits: Vec<bool> = (0..10)
                .map(|i| p.wrapping_mul(2654435761) >> i & 1 != 0)
                .collect();
            assert_eq!(asap_net.eval(&bits), retimed_net.eval(&bits));
        }
    }

    #[test]
    fn shallow_component_slides_under_an_existing_chain() {
        // `a` feeds a deep gate (so its chain reaches level 3 anyway)
        // and an inverter whose only consumer is deep. ASAP pins the
        // inverter at level 1 and pays 3 buffers behind it; the
        // hill-climb slides the inverter up under `a`'s existing chain.
        let mut n = Netlist::new("slide");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let b1 = n.add_buf(b);
        let b2 = n.add_buf(b1);
        let b3 = n.add_buf(b2);
        let b4 = n.add_buf(b3); // level 4 spine
        let inv = n.add_inv(a); // level 1, only consumer is g (level 5)
        let g = n.add_maj([b4, inv, a]); // `a` also needed at level 4
        n.add_output("f", g);
        let _ = c;

        let s = schedule(&n);
        assert_eq!(s.retimed[inv.index()], 4, "inverter slides to level 4");

        let mut asap_net = n.clone();
        let asap_stats = insert_buffers(&mut asap_net);
        let mut retimed_net = n.clone();
        let retimed_stats = insert_buffers_retimed(&mut retimed_net);
        assert!(verify_balance(&retimed_net, None).is_ok());
        assert!(
            retimed_stats.total() < asap_stats.total(),
            "retimed {} should beat asap {}",
            retimed_stats.total(),
            asap_stats.total()
        );
        for p in 0..8u32 {
            let bits: Vec<bool> = (0..3).map(|i| p >> i & 1 != 0).collect();
            assert_eq!(asap_net.eval(&bits), retimed_net.eval(&bits));
        }
    }

    #[test]
    fn total_slack_is_zero_on_rigid_chains() {
        let mut n = Netlist::new("rigid");
        let a = n.add_input("a");
        let b1 = n.add_buf(a);
        let b2 = n.add_buf(b1);
        n.add_output("f", b2);
        let s = schedule(&n);
        assert_eq!(s.total_slack(), 0);
    }
}
