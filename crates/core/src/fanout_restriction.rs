//! Fan-out restriction — §IV of the paper.
//!
//! SWD, QCA and NML have no intrinsic gain, so a component may only
//! drive a small number of consumers (2–5; a fan-out of 3 is physically
//! a reversed majority node). Components whose fan-out exceeds the limit
//! `k` get a *chain of fan-out gates* (FOGs): the driver keeps `k − 1`
//! direct consumers plus the chain head; every FOG serves up to `k − 1`
//! consumers and forwards the wave to the next FOG.
//!
//! Consumers are assigned to the chain **in ascending order of their
//! original level** (the paper's greedy): shallow consumers tap close to
//! the driver, deep consumers absorb the FOG latency as free path
//! balancing — this is what Fig 6b calls *delayed nodes* and why the
//! algorithm "does not leave residual paths that jump through graph
//! levels". Primary-output uses are assigned last (they are padded to a
//! common depth by buffer insertion anyway).
//!
//! The pass increases the critical path (Fig 7: on average +140 %, 57 %,
//! 36 %, 26 % for k = 2, 3, 4, 5) because delayed consumers push their
//! transitive fan-out down; run it **before** buffer insertion, as the
//! paper prescribes.

use crate::component::{CompId, ComponentKind};
use crate::netlist::{FanoutEdges, Netlist};
use crate::weighted::DelayWeights;

/// Statistics returned by [`restrict_fanout`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FanoutRestriction {
    /// The fan-out limit that was enforced (the *chosen* `k` when the
    /// cost-aware pass selected it).
    pub limit: u32,
    /// Fan-out gates inserted.
    pub fogs_inserted: usize,
    /// Components whose fan-out had to be split.
    pub components_split: usize,
    /// Consumers whose arrival level increased (the paper's "delayed
    /// nodes" of Fig 6b).
    pub delayed_consumers: usize,
    /// Critical-path length before the pass.
    pub depth_before: u32,
    /// Critical-path length after the pass.
    pub depth_after: u32,
}

impl FanoutRestriction {
    /// Relative critical-path increase, e.g. `0.4` for +40 %.
    pub fn depth_increase(&self) -> f64 {
        if self.depth_before == 0 {
            0.0
        } else {
            (self.depth_after as f64 - self.depth_before as f64) / self.depth_before as f64
        }
    }
}

/// Limits every component's fan-out to `limit` by inserting FOG chains,
/// in place.
///
/// Constant cells are exempt: a constant is a fixed-polarization cell
/// that is physically replicated next to each consumer, not a driven
/// net.
///
/// # Panics
///
/// Panics if `limit < 2` (a fan-out gate must at least serve one
/// consumer and the chain).
///
/// # Examples
///
/// ```
/// use wavepipe::{restrict_fanout, Netlist};
///
/// let mut n = Netlist::new("wide");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let c = n.add_input("c");
/// // `a` drives 5 gates.
/// for _ in 0..5 {
///     let g = n.add_maj([a, b, c]);
///     // (identical fan-ins; a real netlist would vary them)
///     let _ = g;
/// }
/// # let ids: Vec<_> = n.ids().collect();
/// let stats = restrict_fanout(&mut n, 3);
/// assert!(stats.fogs_inserted > 0);
/// assert!(n.max_fanout() <= 3);
/// ```
pub fn restrict_fanout(netlist: &mut Netlist, limit: u32) -> FanoutRestriction {
    restrict_with_levels(netlist, limit).0
}

/// [`restrict_fanout`], also returning the restricted netlist's ASAP
/// levels (see [`restricted_levels`]).
fn restrict_with_levels(netlist: &mut Netlist, limit: u32) -> (FanoutRestriction, Vec<u32>) {
    let order = netlist.topo_order();
    let original_levels = netlist.levels_from_order(&order, &DelayWeights::UNIT);
    let fanout = netlist.fanout_edges();
    let depth_before = netlist.depth_from_levels(&original_levels);
    let original_len = netlist.len();
    let mut stats =
        restrict_fanout_prepared(netlist, limit, &original_levels, &fanout, depth_before);
    let levels = restricted_levels(netlist, &order, original_len);
    stats.depth_after = netlist.depth_from_levels(&levels);
    (stats, levels)
}

/// ASAP levels of a netlist that [`restrict_fanout_prepared`] grew from
/// its first `original_len` components, whose topological order was
/// `order`. That order with each FOG chain spliced in after its driver
/// orders the restricted netlist too, so the levels cost one scan
/// instead of a fresh DFS.
fn restricted_levels(netlist: &Netlist, order: &[CompId], original_len: usize) -> Vec<u32> {
    match splice_chains(netlist, order, original_len) {
        Some(order) => netlist.levels_from_order(&order, &DelayWeights::UNIT),
        None => netlist.levels(),
    }
}

/// Extends `order`, a topological order of the first `original_len`
/// components, over the single-fan-in chains appended since: each chain
/// goes right after the original component it hangs off, in arena
/// order. `None` unless every appended component reads an original or
/// an earlier appended one, and the chains were appended in root order
/// — the shape [`restrict_fanout_prepared`] leaves.
fn splice_chains(netlist: &Netlist, order: &[CompId], original_len: usize) -> Option<Vec<CompId>> {
    let appended = original_len..netlist.len();
    let mut roots: Vec<u32> = Vec::with_capacity(appended.len());
    for (k, idx) in appended.enumerate() {
        let f = netlist
            .component(CompId::from_index(idx))
            .fanins()
            .first()?
            .index();
        let root = match f.checked_sub(original_len) {
            None => f as u32,
            Some(j) if j < k => roots[j],
            Some(_) => return None,
        };
        if roots.last().is_some_and(|&last| last > root) {
            return None;
        }
        roots.push(root);
    }
    // Chains are contiguous and in root order, so `start[r]..start[r
    // + 1]` is root r's run of appended components.
    let mut start = vec![0u32; original_len + 1];
    for &r in &roots {
        start[r as usize + 1] += 1;
    }
    for i in 0..original_len {
        start[i + 1] += start[i];
    }
    let mut spliced = Vec::with_capacity(netlist.len());
    for &id in order {
        spliced.push(id);
        let run = start.get(id.index()..id.index() + 2)?;
        spliced.extend((run[0]..run[1]).map(|k| CompId::from_index(original_len + k as usize)));
    }
    Some(spliced)
}

/// [`restrict_fanout`] against already-computed structural views (the
/// pre-mutation ASAP levels and [`FanoutEdges`] table, plus the depth
/// they imply), so pipeline passes holding a fresh
/// [`StructuralCaches`](crate::netlist::StructuralCaches) snapshot
/// don't recompute them from scratch. Consumers of one driver sharing
/// an original level keep the table's consumer-index order on the FOG
/// chain.
///
/// The returned statistics leave `depth_after` at zero — the netlist
/// has just been mutated, so the caller decides where the fresh depth
/// comes from (the pipeline pass hands the levels along the spliced
/// topological order forward and reads the depth back through the
/// cache, which also primes it for the instrumentation layer).
///
/// # Panics
///
/// Panics if `limit < 2`, or if `levels` / `fanout` do not cover every
/// component.
pub fn restrict_fanout_prepared(
    netlist: &mut Netlist,
    limit: u32,
    original_levels: &[u32],
    fanout: &FanoutEdges,
    depth_before: u32,
) -> FanoutRestriction {
    assert!(limit >= 2, "fan-out limit must be at least 2");
    let original_len = netlist.len();
    assert!(
        original_levels.len() >= original_len && fanout.len() >= original_len,
        "structural views must cover every component"
    );

    // Snapshot primary-output uses.
    let mut output_uses: Vec<Vec<usize>> = vec![Vec::new(); original_len];
    for (pos, p) in netlist.outputs().iter().enumerate() {
        output_uses[p.driver.index()].push(pos);
    }

    let mut stats = FanoutRestriction {
        limit,
        depth_before,
        ..FanoutRestriction::default()
    };

    for idx in 0..original_len {
        let comp = CompId::from_index(idx);
        if netlist.component(comp).kind() == ComponentKind::Const {
            continue;
        }

        enum Use {
            Gate { consumer: CompId, slot: u32 },
            Output { position: usize },
        }
        // Sort key: original consumer level (outputs last — they have no
        // downstream logic to delay).
        let mut uses: Vec<(u32, Use)> = fanout[idx]
            .iter()
            .map(|&(consumer, slot)| {
                (
                    original_levels[consumer.index()],
                    Use::Gate { consumer, slot },
                )
            })
            .collect();
        for &position in &output_uses[idx] {
            uses.push((u32::MAX, Use::Output { position }));
        }
        if uses.len() <= limit as usize {
            continue;
        }
        stats.components_split += 1;
        uses.sort_by_key(|&(level, _)| level);

        // Chain assignment: the current driver serves consumers while it
        // has spare capacity, reserving one slot for the chain extension
        // whenever consumers remain.
        let mut driver = comp;
        let mut driver_extra_levels = 0u32; // FOG depth below `comp`
        let mut capacity = limit;
        let total = uses.len();
        for (served, (orig_level, u)) in uses.into_iter().enumerate() {
            let remaining = total - served;
            if capacity == 1 && remaining > 1 {
                driver = netlist.add_fog(driver);
                driver_extra_levels += 1;
                capacity = limit;
                stats.fogs_inserted += 1;
            }
            match u {
                Use::Gate { consumer, slot } => {
                    netlist.component_mut(consumer).fanins_mut()[slot as usize] = driver;
                    // Delayed iff the FOG tap arrives later than the
                    // consumer's critical fan-in did originally.
                    if driver_extra_levels > 0
                        && original_levels[idx] + driver_extra_levels + 1 > orig_level
                    {
                        stats.delayed_consumers += 1;
                    }
                }
                Use::Output { position } => {
                    netlist.set_output_driver(position, driver);
                }
            }
            capacity -= 1;
        }
    }

    stats
}

/// Pipeline pass wrapping [`restrict_fanout`].
///
/// Records its [`FanoutRestriction`] statistics and the enforced limit
/// in the [`crate::pipeline::FlowContext`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FanoutRestrictionPass {
    /// The §IV fan-out limit (2–5).
    pub(crate) limit: u32,
}

impl crate::pipeline::Pass for FanoutRestrictionPass {
    fn name(&self) -> String {
        format!("fanout_restriction({})", self.limit)
    }

    fn kind(&self) -> crate::pipeline::PassKind {
        crate::pipeline::PassKind::FanoutRestriction
    }

    fn run(
        &self,
        ctx: &mut crate::pipeline::FlowContext<'_>,
    ) -> Result<(), crate::pipeline::PassError> {
        let levels = ctx.levels();
        let order = ctx.topo_order();
        let fanout = ctx.fanout_edges();
        let depth_before = ctx.depth();
        let original_len = ctx.netlist().len();
        let mut stats = restrict_fanout_prepared(
            ctx.netlist_mut(),
            self.limit,
            &levels,
            &fanout,
            depth_before,
        );
        let levels = restricted_levels(ctx.netlist(), &order, original_len);
        ctx.hand_forward_levels(levels);
        stats.depth_after = ctx.depth();
        ctx.fanout = Some(stats);
        Ok(())
    }
}

/// Cost-aware fan-out restriction: picks the limit `k` from a candidate
/// set by the run's technology cost model instead of taking it as a
/// constant.
///
/// For each candidate `k` the pass restricts a scratch copy of the
/// netlist, projects the buffers Algorithm 1 will add on top
/// ([`crate::LevelSchedule::buffer_cost`] is exact for ASAP levels) and
/// prices the projected netlist with the model's FOG/BUF area costs;
/// the cheapest candidate wins (first candidate on ties) and its
/// restriction is committed. Under the paper's Table I this selects the
/// largest physically-allowed `k` — FOG chains and the buffers they
/// force always cost more than they save — so the pass's value is in
/// *constrained* candidate sets (a technology that only offers `k ∈
/// {2, 3}`) and in custom cost models; the paper's reference flow keeps
/// the fixed FO3 pass.
///
/// Fails with [`PassError::Custom`](crate::pipeline::PassError::Custom)
/// when the run carries no cost model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct CostAwareFanoutPass {
    /// Candidate limits to price, tried in order (each must be ≥ 2).
    pub(crate) candidates: Vec<u32>,
}

impl Default for CostAwareFanoutPass {
    /// The paper's physically-plausible range, `k ∈ 2..=5`.
    fn default() -> CostAwareFanoutPass {
        CostAwareFanoutPass {
            candidates: vec![2, 3, 4, 5],
        }
    }
}

impl crate::pipeline::Pass for CostAwareFanoutPass {
    fn name(&self) -> String {
        "fanout_restriction(cost-aware)".to_owned()
    }

    fn kind(&self) -> crate::pipeline::PassKind {
        crate::pipeline::PassKind::FanoutRestriction
    }

    fn run(
        &self,
        ctx: &mut crate::pipeline::FlowContext<'_>,
    ) -> Result<(), crate::pipeline::PassError> {
        let table = ctx.cost_model().cloned().ok_or_else(|| {
            crate::pipeline::PassError::Custom(
                "cost-aware fan-out restriction needs a cost model \
                 (FlowPipeline::run_with_model or the grid driver)"
                    .to_owned(),
            )
        })?;
        if self.candidates.is_empty() {
            return Err(crate::pipeline::PassError::Custom(
                "cost-aware fan-out restriction needs at least one candidate limit".to_owned(),
            ));
        }
        // Surface an infeasible candidate as this cell's error instead
        // of letting restrict_fanout's assert panic — a panic inside a
        // grid worker would abort the whole sweep.
        if let Some(&bad) = self.candidates.iter().find(|&&k| k < 2) {
            return Err(crate::pipeline::PassError::Custom(format!(
                "cost-aware fan-out restriction: candidate limit {bad} is below the \
                 physical minimum of 2"
            )));
        }

        let mut best: Option<(f64, Netlist, FanoutRestriction, Vec<u32>)> = None;
        for &k in &self.candidates {
            let mut trial = ctx.netlist().clone();
            let (stats, levels) = restrict_with_levels(&mut trial, k);
            let projected_buffers = crate::retiming::LevelSchedule::buffer_cost(&trial, &levels);
            let mut counts = trial.counts();
            counts.buf += projected_buffers as usize;
            let priced = table.price(&counts, trial.outputs().len(), stats.depth_after);
            if best.as_ref().is_none_or(|(cost, ..)| priced.area < *cost) {
                best = Some((priced.area, trial, stats, levels));
            }
        }

        let (_, netlist, stats, levels) = best.expect("at least one candidate was priced");
        *ctx.netlist_mut() = netlist;
        ctx.hand_forward_levels(levels);
        ctx.fanout = Some(stats);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::from_mig::netlist_from_mig;

    /// Builds a netlist where only input `a` fans out to `n` gates (all
    /// other inputs are used exactly once).
    fn wide_fanout(n_consumers: usize) -> Netlist {
        let mut n = Netlist::new("wide");
        let a = n.add_input("a");
        for i in 0..n_consumers {
            let x = n.add_input(format!("x{i}"));
            let y = n.add_input(format!("y{i}"));
            let g = n.add_maj([a, x, y]);
            n.add_output(format!("o{i}"), g);
        }
        n
    }

    fn eval_all(netlist: &Netlist, n: usize) -> Vec<Vec<bool>> {
        (0..1u32 << n)
            .map(|p| {
                let bits: Vec<bool> = (0..n).map(|i| p >> i & 1 != 0).collect();
                netlist.eval(&bits)
            })
            .collect()
    }

    #[test]
    fn fanout_is_bounded_after_restriction() {
        for limit in 2..=5u32 {
            let mut n = wide_fanout(9);
            assert!(n.max_fanout() > limit);
            let stats = restrict_fanout(&mut n, limit);
            assert!(
                n.max_fanout() <= limit,
                "limit {limit}: max fan-out {} after restriction",
                n.max_fanout()
            );
            assert!(stats.fogs_inserted > 0);
            assert_eq!(stats.components_split, 1);
        }
    }

    #[test]
    fn function_is_preserved() {
        let inputs = 1 + 2 * 5;
        let mut n = wide_fanout(5);
        let before = eval_all(&n, inputs);
        restrict_fanout(&mut n, 3);
        assert_eq!(eval_all(&n, inputs), before, "FOGs are transparent");
    }

    #[test]
    fn fog_count_matches_chain_arithmetic() {
        // driver capacity k, each FOG adds k−1 net new slots; for f
        // consumers: fogs = ceil((f − k) / (k − 1)) when f > k.
        for (f, k, expect) in [
            (9usize, 3u32, 3usize),
            (4, 2, 2),
            (10, 5, 2),
            (6, 5, 1),
            (5, 5, 0),
        ] {
            let mut n = wide_fanout(f);
            // Each gate consumer + its output: `a` has fan-out f, each gate
            // has fan-out 1 (its own output), so only `a` splits.
            let stats = restrict_fanout(&mut n, k);
            assert_eq!(
                stats.fogs_inserted, expect,
                "f={f}, k={k}: expected {expect} FOGs, got {}",
                stats.fogs_inserted
            );
        }
    }

    #[test]
    fn fogs_themselves_respect_the_limit() {
        let mut n = wide_fanout(20);
        restrict_fanout(&mut n, 2);
        assert!(n.max_fanout() <= 2);
        // With k = 2 every FOG serves one consumer + one chain link.
        let stats_counts = n.counts();
        assert!(stats_counts.fog >= 18);
    }

    #[test]
    fn shallow_consumers_tap_first() {
        // Consumers at levels 1 and 3: the level-1 consumers must stay
        // direct, the deep one takes the FOG tap.
        let mut n = Netlist::new("mixed");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_maj([a, b, c]);
        let g2 = n.add_maj([g1, b, c]);
        let g3 = n.add_maj([g2, a, b]); // `a` consumer at level 3
        let g4 = n.add_maj([a, b, g1]); // level 2
        let g5 = n.add_maj([a, c, g1]); // level 2
        n.add_output("f", g3);
        n.add_output("g", g4);
        n.add_output("h", g5);
        // `a` fan-out: g1(level1), g3(level3), g4, g5 (level2) = 4 > 3.
        let levels_before = n.levels();
        assert_eq!(levels_before[g1.index()], 1);
        restrict_fanout(&mut n, 3);
        // g1 (shallowest consumer of `a`) must still read `a` directly.
        assert_eq!(n.component(g1).fanins(), &[a, b, c]);
        assert!(n.max_fanout() <= 3);
    }

    #[test]
    fn depth_increase_grows_as_limit_shrinks() {
        let g = mig::random_mig(mig::RandomMigConfig {
            inputs: 16,
            outputs: 8,
            gates: 400,
            depth: 12,
            seed: 99,
        });
        let base = netlist_from_mig(&g);
        let mut increases = Vec::new();
        for limit in [2u32, 3, 4, 5] {
            let mut n = base.clone();
            let stats = restrict_fanout(&mut n, limit);
            assert!(n.max_fanout() <= limit);
            increases.push(stats.depth_increase());
        }
        assert!(
            increases[0] >= increases[1]
                && increases[1] >= increases[2]
                && increases[2] >= increases[3],
            "depth increase should be monotone in the restriction: {increases:?}"
        );
        assert!(
            increases[0] > 0.0,
            "k=2 must delay something on this netlist"
        );
    }

    #[test]
    fn restriction_is_idempotent() {
        let mut n = wide_fanout(9);
        let s1 = restrict_fanout(&mut n, 3);
        assert!(s1.fogs_inserted > 0);
        let s2 = restrict_fanout(&mut n, 3);
        assert_eq!(s2.fogs_inserted, 0, "second pass finds nothing to split");
        assert_eq!(s2.depth_before, s2.depth_after);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn limit_one_is_rejected() {
        let mut n = wide_fanout(3);
        restrict_fanout(&mut n, 1);
    }
}
