//! Buffer insertion — Algorithm 1 of the paper (§III) — as the one
//! path-balancing kernel, [`balance`], fed a (delay weights, arrival
//! schedule) pair per strategy by `FlowContext::schedule`. Under unit
//! weights every edge then spans exactly one level, the static condition
//! for coherent waves under the three-phase clock of Fig 4.
//!
//! Each driver's uses are sorted by the arrival they require
//! (`sortFanOut`) and tap one *shared* chain grown off the driver
//! (`lastBD` is its head), which makes the greedy buffer-minimal for a
//! fixed schedule and keeps any fan-out bound `k ≥ 2` the input meets.

use crate::balance::BalanceError;
use crate::component::{CompId, ComponentKind};
use crate::netlist::{FanoutEdges, Netlist};
use crate::pipeline::{BufferStrategy, FlowContext, Pass, PassError, PassKind};
use crate::retiming::LevelSchedule;
use crate::weighted::{DelayWeights, WeightedInsertion};

/// Statistics returned by [`balance`] and [`insert_buffers`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BufferInsertion {
    /// Buffers between internal components (Algorithm 1's first loop).
    pub balancing_buffers: usize,
    /// Buffers padding outputs to the latest one (its second loop).
    pub padding_buffers: usize,
    /// Common output arrival afterwards (the depth, under unit weights).
    pub depth: u32,
}

impl BufferInsertion {
    /// Total buffers inserted.
    pub fn total(&self) -> usize {
        self.balancing_buffers + self.padding_buffers
    }
}

/// [`balance`] under unit weights against the ASAP levels — the paper's
/// reference strategy.
///
/// # Examples
///
/// ```
/// use wavepipe::{insert_buffers, verify_balance, Netlist};
///
/// let mut n = Netlist::new("skewed");
/// let [a, b, c] = ["a", "b", "c"].map(|name| n.add_input(name));
/// let g1 = n.add_maj([a, b, c]);
/// let g2 = n.add_maj([g1, a, b]); // a, b arrive 1 level early
/// n.add_output("f", g2);
/// assert_eq!(insert_buffers(&mut n).balancing_buffers, 2);
/// assert!(verify_balance(&n, None).is_ok());
/// ```
pub fn insert_buffers(netlist: &mut Netlist) -> BufferInsertion {
    let (levels, fanout) = (netlist.levels(), netlist.fanout_edges());
    balance(netlist, &DelayWeights::UNIT, &levels, &fanout)
        .expect("ASAP levels are a feasible unit-weight schedule")
}

/// The balancing kernel: grows shared buffer chains, in steps of
/// `weights.buf`, so that each non-constant fan-in of `v` arrives at
/// `arrival(v) − weight(v)` and each non-constant output at the latest
/// output arrival (constants carry no wave). `fanout` is the
/// [`Netlist::fanout_edges`] snapshot of the netlist as passed in; its
/// per-driver consumer-index order breaks ties between uses that need
/// the same arrival.
///
/// # Errors
///
/// [`BalanceError::ZeroBufferWeight`], [`BalanceError::EdgeSpan`] for an
/// infeasible `arrival`, or [`BalanceError::IndivisibleGap`] (only when
/// `weights.buf > 1`); the failed sweep is undone.
///
/// # Panics
///
/// If `arrival` or `fanout` does not cover every component.
pub fn balance(
    netlist: &mut Netlist,
    weights: &DelayWeights,
    arrival: &[u32],
    fanout: &FanoutEdges,
) -> Result<BufferInsertion, BalanceError> {
    #[derive(Clone, Copy)]
    enum Use {
        Gate { consumer: CompId, slot: u32 },
        Output { position: usize },
    }

    if weights.buf == 0 {
        return Err(BalanceError::ZeroBufferWeight);
    }
    // Drivers: everything present before the sweep (Algorithm 1's Union).
    let original_len = netlist.len();
    assert!(
        arrival.len() >= original_len && fanout.len() >= original_len,
        "arrival schedule and fan-out snapshot must cover every component"
    );
    let target = netlist.depth_from_levels(arrival);
    let mut output_uses: Vec<Vec<usize>> = vec![Vec::new(); original_len];
    for (position, p) in netlist.outputs().iter().enumerate() {
        output_uses[p.driver.index()].push(position);
    }

    let mut stats = BufferInsertion {
        depth: target,
        ..BufferInsertion::default()
    };
    let mut uses: Vec<(u32, Use)> = Vec::new();
    for idx in 0..original_len {
        let comp = CompId::from_index(idx);
        if netlist.component(comp).kind() == ComponentKind::Const {
            continue;
        }
        let from_level = arrival[idx];
        uses.clear();
        for &(consumer, slot) in &fanout[idx] {
            let span = weights.of(netlist.component(consumer).kind());
            let to_level = arrival[consumer.index()];
            match to_level.checked_sub(span).filter(|&r| r >= from_level) {
                Some(required) => uses.push((required, Use::Gate { consumer, slot })),
                None => {
                    let err = BalanceError::EdgeSpan {
                        from: comp,
                        to: consumer,
                        from_level,
                        to_level,
                        span,
                    };
                    return Err(unwind(netlist, original_len, err));
                }
            }
        }
        uses.extend(
            output_uses[idx]
                .iter()
                .map(|&position| (target, Use::Output { position })),
        );
        // Every gap must be a whole number of buffers (always so at
        // weight 1, which skips the check).
        if weights.buf > 1 {
            let whole =
                |&(required, _): &(u32, Use)| (required - from_level).is_multiple_of(weights.buf);
            if let Some(&(required, u)) = uses.iter().find(|u| !whole(u)) {
                let err = BalanceError::IndivisibleGap {
                    from: comp,
                    to: match u {
                        Use::Gate { consumer, .. } => consumer,
                        Use::Output { .. } => comp,
                    },
                    gap: required - from_level,
                    buf_weight: weights.buf,
                };
                return Err(unwind(netlist, original_len, err));
            }
        }

        // Algorithm 1's sortFanOut: ascending required arrival, then one
        // shared chain whose head arrives at `last`.
        uses.sort_by_key(|&(required, _)| required);
        let mut chain_head = comp;
        let mut last = from_level;
        for &(required, u) in &uses {
            while last < required {
                chain_head = netlist.add_buf(chain_head);
                last += weights.buf;
                match u {
                    Use::Gate { .. } => stats.balancing_buffers += 1,
                    Use::Output { .. } => stats.padding_buffers += 1,
                }
            }
            match u {
                Use::Gate { consumer, slot } => {
                    netlist.component_mut(consumer).fanins_mut()[slot as usize] = chain_head;
                }
                Use::Output { position } => netlist.set_output_driver(position, chain_head),
            }
        }
    }
    Ok(stats)
}

/// Undoes a partial [`balance`] sweep: rewires every chain tap back to
/// the chain's root driver and drops the appended buffers.
fn unwind(netlist: &mut Netlist, original_len: usize, err: BalanceError) -> BalanceError {
    let root = |netlist: &Netlist, mut id: CompId| {
        while id.index() >= original_len {
            id = netlist.component(id).fanins()[0];
        }
        id
    };
    for idx in 0..original_len {
        let id = CompId::from_index(idx);
        for slot in 0..netlist.component(id).fanins().len() {
            let driver = root(netlist, netlist.component(id).fanins()[slot]);
            netlist.component_mut(id).fanins_mut()[slot] = driver;
        }
    }
    for position in 0..netlist.outputs().len() {
        let driver = root(netlist, netlist.outputs()[position].driver);
        netlist.set_output_driver(position, driver);
    }
    netlist.truncate_buffers(original_len);
    err
}

/// The ASAP levels of a netlist that [`balance`] grew from
/// `original_len` components against its ASAP levels `arrival`: each
/// original component keeps its level and each appended buffer sits
/// one level above its fan-in, an earlier component. The cache still
/// checks them before installing them.
fn balanced_levels(netlist: &Netlist, arrival: &[u32], original_len: usize) -> Option<Vec<u32>> {
    let mut levels = Vec::with_capacity(netlist.len());
    levels.extend_from_slice(arrival.get(..original_len)?);
    for idx in original_len..netlist.len() {
        let fanin = netlist
            .component(CompId::from_index(idx))
            .fanins()
            .first()?;
        levels.push(levels.get(fanin.index())? + 1);
    }
    Some(levels)
}

impl LevelSchedule {
    /// Exact buffer count [`balance`] inserts under unit weights and the
    /// feasible `levels`, without mutating: `Σ_u max(0, maxreq(u) −
    /// levels(u))`, `maxreq(u)` being the deepest level any use needs `u`
    /// at (`levels(consumer) − 1`, or the output depth).
    pub fn buffer_cost(netlist: &Netlist, levels: &[u32]) -> u64 {
        let mut maxreq: Vec<Option<u32>> = vec![None; netlist.len()];
        let mut require = |driver: CompId, level: u32| {
            let slot = &mut maxreq[driver.index()];
            *slot = Some(slot.map_or(level, |m| m.max(level)));
        };
        for id in netlist.ids() {
            for &f in netlist.component(id).fanins() {
                require(f, levels[id.index()] - 1);
            }
        }
        let depth = netlist.depth_from_levels(levels);
        for p in netlist.outputs() {
            require(p.driver, depth);
        }
        netlist
            .ids()
            .filter(|id| netlist.component(*id).kind() != ComponentKind::Const)
            .filter_map(|id| maxreq[id.index()].map(|m| m.saturating_sub(levels[id.index()])))
            .map(u64::from)
            .sum()
    }
}

/// Pipeline pass running [`balance`] under a [`BufferStrategy`],
/// reported as `insert_buffers(asap|retimed|weighted|cost-aware)`.
/// Unit-delay runs fill the context's `buffers` slot, weighted ones
/// `weighted`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct InsertBuffersPass(pub(crate) BufferStrategy);

impl Pass for InsertBuffersPass {
    fn name(&self) -> String {
        let label = match self.0 {
            BufferStrategy::Asap => "asap",
            BufferStrategy::Retimed => "retimed",
            BufferStrategy::Weighted(_) => "weighted",
            BufferStrategy::CostAware => "cost-aware",
        };
        format!("insert_buffers({label})")
    }

    fn kind(&self) -> PassKind {
        PassKind::BufferInsertion
    }

    fn run(&self, ctx: &mut FlowContext<'_>) -> Result<(), PassError> {
        let (weights, arrival) = ctx.schedule(self.0)?;
        let fanout = ctx.fanout_edges();
        let original_len = ctx.netlist().len();
        let stats = balance(ctx.netlist_mut(), &weights, &arrival, &fanout)?;
        if self.0.arrives_asap(&weights) {
            if let Some(levels) = balanced_levels(ctx.netlist(), &arrival, original_len) {
                ctx.hand_forward_levels(levels);
            }
        }
        if self.0.is_unit_delay(&weights) {
            ctx.buffers = Some(stats);
        } else {
            ctx.weighted = Some(WeightedInsertion {
                buffers: stats.total(),
                weighted_depth: stats.depth,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::verify_balance;
    use crate::from_mig::netlist_from_mig;

    fn eval_all(netlist: &Netlist, n: usize) -> Vec<Vec<bool>> {
        (0..1u32 << n)
            .map(|p| {
                let bits: Vec<bool> = (0..n).map(|i| p >> i & 1 != 0).collect();
                netlist.eval(&bits)
            })
            .collect()
    }

    #[test]
    fn already_balanced_netlist_needs_no_buffers() {
        let mut n = Netlist::new("bal");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g = n.add_maj([a, b, c]);
        n.add_output("f", g);
        let stats = insert_buffers(&mut n);
        assert_eq!(stats.total(), 0);
        assert_eq!(stats.depth, 1);
        assert!(verify_balance(&n, None).is_ok());
    }

    #[test]
    fn skewed_edge_gets_buffers() {
        let mut n = Netlist::new("skew");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_maj([a, b, c]);
        let g2 = n.add_maj([g1, a, b]);
        n.add_output("f", g2);
        let before = eval_all(&n, 3);
        let stats = insert_buffers(&mut n);
        // a and b each need 1 buffer to reach level 1 before g2.
        assert_eq!(stats.balancing_buffers, 2);
        assert_eq!(stats.padding_buffers, 0);
        assert!(verify_balance(&n, None).is_ok());
        assert_eq!(eval_all(&n, 3), before, "buffers are transparent");
    }

    #[test]
    fn chain_is_shared_across_consumers() {
        // One driver feeding consumers at levels 2, 3, 4 should build
        // one chain of 3 buffers with taps, not 1+2+3 = 6 buffers.
        let mut n = Netlist::new("share");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let l1 = n.add_maj([a, b, c]);
        let l2 = n.add_maj([l1, a, b]); // consumes a at level 2
        let l3 = n.add_maj([l2, a, c]); // consumes a at level 3
        n.add_output("f", l3);
        let before = eval_all(&n, 3);
        let stats = insert_buffers(&mut n);
        // `a` needs taps at levels 1 and 2 → 2 buffers (shared chain);
        // b: tap at level 1 (for l2): 1 buffer; c: tap at level 2 (for
        // l3): 2 buffers; plus l1→l2 and l2→l3 are tight already.
        assert_eq!(stats.balancing_buffers, 5);
        assert!(verify_balance(&n, None).is_ok());
        assert_eq!(eval_all(&n, 3), before);
    }

    #[test]
    fn outputs_are_padded_to_common_depth() {
        let mut n = Netlist::new("pad");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_maj([a, b, c]);
        let g2 = n.add_maj([g1, a, b]);
        n.add_output("deep", g2);
        n.add_output("shallow", g1);
        let before = eval_all(&n, 3);
        let stats = insert_buffers(&mut n);
        assert_eq!(stats.padding_buffers, 1, "shallow output padded by 1");
        assert!(verify_balance(&n, None).is_ok());
        assert_eq!(eval_all(&n, 3), before);
    }

    #[test]
    fn constant_outputs_are_ignored() {
        let mut n = Netlist::new("c");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let k1 = n.add_const(true);
        let g = n.add_maj([a, b, c]);
        n.add_output("f", g);
        n.add_output("k", k1);
        let stats = insert_buffers(&mut n);
        assert_eq!(stats.total(), 0);
        assert!(verify_balance(&n, None).is_ok());
    }

    #[test]
    fn respects_fanout_limit_of_prerestricted_netlist() {
        // Driver with fan-out 3 to different levels; after buffering the
        // max fan-out must not exceed 3.
        let mut n = Netlist::new("fo3");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_maj([a, b, c]);
        let g2 = n.add_maj([g1, b, c]);
        let g3 = n.add_maj([g2, a, b]); // `a` used at levels 1, 3 — fan-out 2… keep ≤ 3
        n.add_output("f", g3);
        let max_before = n.max_fanout();
        insert_buffers(&mut n);
        assert!(max_before <= 3);
        assert!(
            n.max_fanout() <= 3,
            "buffering must not blow the fan-out bound"
        );
        assert!(verify_balance(&n, Some(3)).is_ok());
    }

    #[test]
    fn mapped_mig_balances_and_preserves_function() {
        let mut g = mig::Mig::new();
        let x = g.add_inputs("x", 4);
        let (s0, c0) = g.add_full_adder(x[0], x[1], x[2]);
        let (s1, c1) = g.add_full_adder(s0, c0, x[3]);
        g.add_output("s", s1);
        g.add_output("c", c1);
        let mut n = netlist_from_mig(&g);
        let before = eval_all(&n, 4);
        let stats = insert_buffers(&mut n);
        assert!(stats.total() > 0);
        assert!(verify_balance(&n, None).is_ok());
        assert_eq!(eval_all(&n, 4), before);
    }

    #[test]
    fn infeasible_schedule_is_an_error_and_leaves_the_netlist_untouched() {
        // g2 reads g1; a schedule placing both at level 2 asks g1 to
        // arrive before g2 fires at its own level. The inputs' edges
        // (swept first) are feasible, so the sweep has already grown
        // chains when it hits the bad edge and must undo them.
        let mut n = Netlist::new("infeasible");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_maj([a, b, c]);
        let g2 = n.add_maj([g1, a, b]);
        n.add_output("f", g2);
        let before = crate::io::write_netlist(&n);
        let fanout = n.fanout_edges();
        let mut schedule = n.levels();
        schedule[g1.index()] = 2;
        schedule[g2.index()] = 2;
        let err = balance(&mut n, &DelayWeights::UNIT, &schedule, &fanout).unwrap_err();
        assert_eq!(
            err,
            BalanceError::EdgeSpan {
                from: g1,
                to: g2,
                from_level: 2,
                to_level: 2,
                span: 1,
            }
        );
        assert_eq!(
            err.to_string(),
            "edge c3 (level 2) → c4 (level 2) does not span exactly one level"
        );
        assert_eq!(crate::io::write_netlist(&n), before, "netlist untouched");
        assert_eq!(n.counts().buf, 0);
        assert_eq!(insert_buffers(&mut n).balancing_buffers, 2, "still usable");
    }

    #[test]
    fn buffer_count_matches_gap_sum_on_a_fanout_free_chain() {
        // Without fan-out sharing opportunities, the buffer count is the
        // sum of level gaps minus edges.
        let mut n = Netlist::new("gaps");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let d = n.add_input("d");
        let g1 = n.add_maj([a, b, c]); // level 1
        let g2 = n.add_maj([g1, g1, g1]); // degenerate but level 2
        let g3 = n.add_maj([g2, g2, d]); // d jumps 0 → 2: 2 buffers
        n.add_output("f", g3);
        let stats = insert_buffers(&mut n);
        assert_eq!(stats.balancing_buffers, 2);
    }
}
