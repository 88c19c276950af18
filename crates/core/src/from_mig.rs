//! Mapping a Majority-Inverter Graph onto a physical component netlist.
//!
//! The MIG keeps inversion free on edges; the technologies price an
//! inverter as a real cell that occupies a pipeline level (Table I — for
//! QCA it is the most expensive cell of all). Mapping therefore
//! *materializes* inverters: one shared INV component per complemented
//! node, reused by every consumer of that polarity. Constant fan-ins map
//! to fixed-polarization constant cells, which carry no wave and need no
//! inverter (the complement of a constant is the other constant).

use mig::{Mig, Node, Signal};

use crate::component::CompId;
use crate::netlist::Netlist;

/// Maps `graph` onto a [`Netlist`] of physical components.
///
/// Every majority node becomes a MAJ component; complemented
/// non-constant edges go through one shared INV per source node;
/// complemented outputs get their own shared INV as well.
///
/// # Examples
///
/// ```
/// use mig::Mig;
/// use wavepipe::netlist_from_mig;
///
/// let mut g = Mig::new();
/// let a = g.add_input("a");
/// let b = g.add_input("b");
/// let f = g.add_and(a, !b); // complement materializes one INV
/// g.add_output("f", f);
///
/// let n = netlist_from_mig(&g);
/// assert_eq!(n.counts().maj, 1);
/// assert_eq!(n.counts().inv, 1);
/// ```
pub fn netlist_from_mig(graph: &Mig) -> Netlist {
    let mut n = Netlist::new(graph.name().to_owned());
    // plain[i] = component for node i, inverted[i] = its INV (lazily).
    let mut plain: Vec<Option<CompId>> = vec![None; graph.node_count()];
    let mut inverted: Vec<Option<CompId>> = vec![None; graph.node_count()];

    for (pos, &id) in graph.inputs().iter().enumerate() {
        plain[id.index()] = Some(n.add_input(graph.input_name(pos).to_owned()));
    }

    // Resolves a MIG signal to a component, materializing inverters and
    // constant cells on demand.
    fn resolve(
        n: &mut Netlist,
        plain: &mut [Option<CompId>],
        inverted: &mut [Option<CompId>],
        s: Signal,
    ) -> CompId {
        if s.is_const() {
            return n.add_const(s.is_complement());
        }
        let idx = s.node().index();
        let base = plain[idx].expect("fan-ins are mapped before consumers");
        if !s.is_complement() {
            return base;
        }
        if let Some(inv) = inverted[idx] {
            return inv;
        }
        let inv = n.add_inv(base);
        inverted[idx] = Some(inv);
        inv
    }

    for id in graph.node_ids() {
        if let Node::Majority(fanins) = graph.node(id) {
            let mut comps = [CompId::from_index(0); 3];
            for (i, &s) in fanins.iter().enumerate() {
                comps[i] = resolve(&mut n, &mut plain, &mut inverted, s);
            }
            plain[id.index()] = Some(n.add_maj(comps));
        }
    }

    for o in graph.outputs() {
        let driver = resolve(&mut n, &mut plain, &mut inverted, o.signal);
        n.add_output(o.name.clone(), driver);
    }
    n
}

/// Maps `graph` with inversion-count minimization (the technique of the
/// paper's reference \[20\], Testa et al., NANOARCH'16, applied at
/// mapping time).
///
/// For every majority node whose *complemented* polarity is consumed
/// more often than its plain polarity, the **dual** gate is
/// materialized instead (majority is self-dual: `¬⟨x y z⟩ =
/// ⟨x̄ ȳ z̄⟩`), so the popular polarity comes out of the gate directly
/// and the rare polarity pays the inverter. On QCA — where an inverter
/// costs 10× a cell's area and energy and 7× its delay — this is a real
/// area/energy lever; the `ablation_inverters` harness quantifies it.
///
/// Polarities are chosen by local search on the **exact** inverter
/// count: a node's flip is toggled only when the global count strictly
/// drops (its own INV saved/created, plus the INVs its fan-ins must
/// gain or lose because a flipped gate demands the opposite polarity of
/// every fan-in), iterated to a fixpoint. The result therefore never
/// has more inverters than [`netlist_from_mig`].
pub fn netlist_from_mig_min_inv(graph: &Mig) -> Netlist {
    let n_nodes = graph.node_count();
    // demand[u][p]: how many uses currently require polarity p of u
    // (p = 1 means the complemented value), given the current flips.
    let mut demand = vec![[0u32; 2]; n_nodes];
    // flipped[v]: the base component of v computes ¬v. Inputs never flip.
    let mut flipped = vec![false; n_nodes];

    let tally = |demand: &mut Vec<[u32; 2]>, s: Signal, delta: i32| {
        if s.is_const() {
            return;
        }
        let slot = &mut demand[s.node().index()][s.is_complement() as usize];
        *slot = (*slot as i32 + delta) as u32;
    };
    for id in graph.node_ids() {
        for &s in graph.node(id).fanins() {
            tally(&mut demand, s, 1);
        }
    }
    for o in graph.outputs() {
        tally(&mut demand, o.signal, 1);
    }

    // INV(u) is needed iff some use demands the polarity the base does
    // not provide.
    let inv_needed =
        |demand: &Vec<[u32; 2]>, flipped: &Vec<bool>, u: usize| demand[u][!flipped[u] as usize] > 0;

    // Local search: toggle a gate when the exact global delta < 0.
    let order: Vec<_> = graph.gate_ids().collect();
    for _pass in 0..8 {
        let mut improved = false;
        for &id in order.iter().rev() {
            let v = id.index();
            let f = flipped[v];
            // Own inverter: demands on v are unchanged by v's own flip,
            // but which polarity is free changes.
            let own_before = inv_needed(&demand, &flipped, v) as i32;
            let own_after = (demand[v][f as usize] > 0) as i32;
            // Fan-in inverters: a flipped v demands the opposite
            // polarity of every fan-in.
            let fanins = match graph.node(id) {
                Node::Majority(fanins) => *fanins,
                _ => unreachable!("gate_ids yields gates"),
            };
            let mut delta = own_after - own_before;
            // Simulate the demand changes on a scratch copy of the
            // affected counters (a fan-in node can occur once only:
            // strashed gates have distinct fan-ins, but resolve via map
            // to stay robust).
            let mut scratch: Vec<(usize, [u32; 2])> = Vec::with_capacity(3);
            for &s in &fanins {
                if s.is_const() {
                    continue;
                }
                let u = s.node().index();
                let pos = match scratch.iter().position(|(idx, _)| *idx == u) {
                    Some(p) => p,
                    None => {
                        scratch.push((u, demand[u]));
                        scratch.len() - 1
                    }
                };
                let entry = &mut scratch[pos].1;
                let effective = s.is_complement() ^ f; // polarity demanded now
                let before = (entry[!flipped[u] as usize] > 0) as i32;
                entry[effective as usize] -= 1;
                entry[!effective as usize] += 1;
                let after = (entry[!flipped[u] as usize] > 0) as i32;
                delta += after - before;
            }
            if delta < 0 {
                flipped[v] = !f;
                for (u, counts) in scratch {
                    demand[u] = counts;
                }
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }

    let mut n = Netlist::new(graph.name().to_owned());
    let mut base: Vec<Option<CompId>> = vec![None; graph.node_count()];
    let mut inverted: Vec<Option<CompId>> = vec![None; graph.node_count()];
    for (pos, &id) in graph.inputs().iter().enumerate() {
        base[id.index()] = Some(n.add_input(graph.input_name(pos).to_owned()));
    }

    // Resolve a signal `s` to a component computing node(s) ^ compl(s),
    // given that node(s)'s base component computes node(s) ^ flipped.
    let resolve = |n: &mut Netlist,
                   base: &[Option<CompId>],
                   inverted: &mut [Option<CompId>],
                   flipped: &[bool],
                   s: Signal|
     -> CompId {
        if s.is_const() {
            return n.add_const(s.is_complement());
        }
        let idx = s.node().index();
        let b = base[idx].expect("fan-ins mapped before consumers");
        if s.is_complement() == flipped[idx] {
            b
        } else if let Some(inv) = inverted[idx] {
            inv
        } else {
            let inv = n.add_inv(b);
            inverted[idx] = Some(inv);
            inv
        }
    };

    for id in graph.node_ids() {
        if let Node::Majority(fanins) = graph.node(id) {
            let flip = flipped[id.index()];
            let mut comps = [CompId::from_index(0); 3];
            for (i, &s) in fanins.iter().enumerate() {
                // Dual construction: a flipped gate majority-votes the
                // complements of its fan-ins.
                let want = s.complement_if(flip);
                comps[i] = resolve(&mut n, &base, &mut inverted, &flipped, want);
            }
            base[id.index()] = Some(n.add_maj(comps));
        }
    }

    for o in graph.outputs() {
        let driver = resolve(&mut n, &base, &mut inverted, &flipped, o.signal);
        n.add_output(o.name.clone(), driver);
    }
    n
}

/// Pipeline pass mapping the working MIG onto the working netlist
/// ([`netlist_from_mig`] / [`netlist_from_mig_min_inv`]). When rewrite
/// passes ran first, the optimized graph is what gets mapped.
///
/// Must be the first netlist pass of every [`crate::FlowPipeline`]
/// (only MIG rewrite passes may precede it); the builder enforces this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct MapPass {
    /// Use the polarity local search that minimizes materialized
    /// inverters.
    pub(crate) minimize_inverters: bool,
}

impl crate::pipeline::Pass for MapPass {
    fn name(&self) -> String {
        if self.minimize_inverters {
            "map(min_inv)".to_owned()
        } else {
            "map".to_owned()
        }
    }

    fn kind(&self) -> crate::pipeline::PassKind {
        crate::pipeline::PassKind::Map
    }

    fn run(
        &self,
        ctx: &mut crate::pipeline::FlowContext<'_>,
    ) -> Result<(), crate::pipeline::PassError> {
        let mapped = if self.minimize_inverters {
            netlist_from_mig_min_inv(ctx.working_graph())
        } else {
            netlist_from_mig(ctx.working_graph())
        };
        ctx.set_mapped(mapped);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mig::Simulator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The mapped netlist must compute the same function as the MIG.
    fn assert_functionally_equal(graph: &Mig, netlist: &Netlist, patterns: usize, seed: u64) {
        let sim = Simulator::new(graph);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..patterns {
            let bits: Vec<bool> = (0..graph.input_count()).map(|_| rng.gen()).collect();
            assert_eq!(sim.eval(&bits), netlist.eval(&bits));
        }
    }

    #[test]
    fn inverters_are_shared_per_node() {
        let mut g = Mig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let d = g.add_input("d");
        // !a used by two gates: only one INV should be created. (Each
        // gate has exactly one complemented fan-in, so the MIG's
        // self-duality normalization leaves the polarities alone.)
        let m1 = g.add_maj(!a, b, c);
        let m2 = g.add_maj(!a, b, d);
        g.add_output("f", m1);
        g.add_output("g", m2);
        let n = netlist_from_mig(&g);
        assert_eq!(n.counts().inv, 1, "single shared INV for !a");
        assert_functionally_equal(&g, &n, 16, 1);
    }

    #[test]
    fn complemented_output_gets_inverter() {
        let mut g = Mig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let m = g.add_maj(a, b, c);
        g.add_output("f", !m);
        let n = netlist_from_mig(&g);
        assert_eq!(n.counts().inv, 1);
        assert_functionally_equal(&g, &n, 8, 2);
    }

    #[test]
    fn constant_fanins_map_to_const_cells() {
        let mut g = Mig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let and = g.add_and(a, b); // ⟨a b 0⟩
        let or = g.add_or(a, b); // ⟨a b 1⟩
        g.add_output("f", and);
        g.add_output("g", or);
        let n = netlist_from_mig(&g);
        assert_eq!(n.counts().consts, 2);
        assert_eq!(n.counts().inv, 0, "constant complement needs no INV");
        assert_functionally_equal(&g, &n, 4, 3);
    }

    #[test]
    fn sizes_match_structure() {
        let mut g = Mig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let (s, cy) = g.add_full_adder(a, b, c);
        g.add_output("s", s);
        g.add_output("cy", cy);
        let n = netlist_from_mig(&g);
        assert_eq!(n.counts().maj, g.gate_count());
        assert_functionally_equal(&g, &n, 8, 4);
    }

    #[test]
    fn inverter_adds_a_level() {
        let mut g = Mig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let m1 = g.add_maj(a, b, c);
        let m2 = g.add_maj(!m1, a, b);
        g.add_output("f", m2);
        assert_eq!(g.depth(), 2, "MIG depth ignores edge inverters");
        let n = netlist_from_mig(&g);
        assert_eq!(n.depth(), 3, "mapped depth includes the INV level");
    }

    #[test]
    fn random_graphs_map_correctly() {
        for seed in 0..4 {
            let g = mig::random_mig(mig::RandomMigConfig {
                inputs: 12,
                outputs: 6,
                gates: 300,
                depth: 12,
                seed,
            });
            let n = netlist_from_mig(&g);
            assert_functionally_equal(&g, &n, 32, seed);
            assert!(n.depth() >= g.depth());
        }
    }

    #[test]
    fn min_inv_mapping_is_functionally_identical() {
        for seed in 10..14 {
            let g = mig::random_mig(mig::RandomMigConfig {
                inputs: 12,
                outputs: 6,
                gates: 250,
                depth: 11,
                seed,
            });
            let n = netlist_from_mig_min_inv(&g);
            assert_functionally_equal(&g, &n, 32, seed);
            assert_eq!(n.counts().maj, g.gate_count());
        }
    }

    #[test]
    fn min_inv_mapping_flips_popular_complements() {
        // m's complemented form is consumed three times, its plain form
        // never: the dual gate should be materialized (zero INVs for m;
        // the dual's own fan-ins are plain inputs, so ¬a/¬b/¬c each cost
        // one INV only where actually demanded by the dual).
        let mut g = Mig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let d = g.add_input("d");
        let e = g.add_input("e");
        let m = g.add_maj(a, b, c);
        let u1 = g.add_maj(!m, d, e);
        let u2 = g.add_maj(!m, d, !e);
        g.add_output("f", u1);
        g.add_output("g", u2);
        g.add_output("h", !m);

        let plain = netlist_from_mig(&g);
        let opt = netlist_from_mig_min_inv(&g);
        assert!(
            opt.counts().inv <= plain.counts().inv,
            "min-inv {} vs plain {}",
            opt.counts().inv,
            plain.counts().inv
        );
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..16 {
            let bits: Vec<bool> = (0..5).map(|_| rng.gen()).collect();
            assert_eq!(plain.eval(&bits), opt.eval(&bits));
        }
    }

    #[test]
    fn min_inv_mapping_reduces_inverters_on_random_graphs() {
        // Not guaranteed per graph (greedy), but must win in aggregate.
        let mut plain_total = 0usize;
        let mut opt_total = 0usize;
        for seed in 20..30 {
            let g = mig::random_mig(mig::RandomMigConfig {
                inputs: 12,
                outputs: 8,
                gates: 300,
                depth: 10,
                seed,
            });
            plain_total += netlist_from_mig(&g).counts().inv;
            opt_total += netlist_from_mig_min_inv(&g).counts().inv;
        }
        assert!(
            opt_total < plain_total,
            "min-inv {opt_total} vs plain {plain_total} inverters in aggregate"
        );
    }
}
