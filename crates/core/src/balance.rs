//! Path balancing's one verifier and one error type. The paper omits
//! its proofs (§III, §IV); [`check_balance`] checks the postconditions
//! on every result instead: each non-constant fan-in of `v` arrives
//! exactly `weight(v)` before `v` (one level, under unit weights, so
//! neighbouring waves never interfere), all non-constant outputs arrive
//! together, and optionally no component drives more than `k` consumers.

use std::fmt;

use crate::component::{CompId, ComponentKind};
use crate::netlist::Netlist;
use crate::pipeline::{BufferStrategy, FlowContext, Pass, PassError, PassKind};
use crate::weighted::DelayWeights;

/// Why balancing or its verification failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BalanceError {
    /// A fan-in does not arrive exactly `span` before its consumer (for
    /// the balancing kernel: a schedule firing the consumer too early).
    EdgeSpan {
        /// Driving component.
        from: CompId,
        /// Consuming component.
        to: CompId,
        /// Arrival (level, under unit weights) of the driver.
        from_level: u32,
        /// Arrival of the consumer.
        to_level: u32,
        /// The consumer's delay weight: the span the edge must have.
        span: u32,
    },
    /// Two non-constant outputs arrive at different times.
    OutputMisaligned {
        /// Name of the first output.
        first: String,
        /// Arrival of the first output.
        first_level: u32,
        /// Name of the offending output.
        other: String,
        /// Arrival of the offending output.
        other_level: u32,
    },
    /// A component exceeds the fan-out bound.
    FanoutExceeded {
        /// The offending component.
        component: CompId,
        /// Its fan-out count.
        fanout: u32,
        /// The bound that was requested.
        limit: u32,
    },
    /// A delay gap is no whole number of buffers.
    IndivisibleGap {
        /// Driver of the offending edge.
        from: CompId,
        /// Consumer of the offending edge (the driver, for an output).
        to: CompId,
        /// The residual delay that cannot be filled.
        gap: u32,
        /// The buffer weight that failed to divide it.
        buf_weight: u32,
    },
    /// Buffer weight of zero was requested.
    ZeroBufferWeight,
}

impl fmt::Display for BalanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BalanceError::EdgeSpan {
                from,
                to,
                from_level,
                to_level,
                span,
            } => {
                let span = match span {
                    1 => "one level".to_owned(),
                    phases => format!("{phases} phases"),
                };
                write!(
                    f,
                    "edge {from} (level {from_level}) → {to} (level {to_level}) does not span exactly {span}"
                )
            }
            BalanceError::OutputMisaligned {
                first,
                first_level,
                other,
                other_level,
            } => write!(
                f,
                "output `{other}` at level {other_level} misaligned with `{first}` at level {first_level}"
            ),
            BalanceError::FanoutExceeded {
                component,
                fanout,
                limit,
            } => write!(f, "component {component} has fan-out {fanout} > limit {limit}"),
            BalanceError::IndivisibleGap {
                from,
                to,
                gap,
                buf_weight,
            } => write!(
                f,
                "edge {from} → {to}: delay gap {gap} is not a multiple of the buffer weight {buf_weight}"
            ),
            BalanceError::ZeroBufferWeight => write!(f, "buffer weight must be positive"),
        }
    }
}

impl std::error::Error for BalanceError {}

/// Summary of a netlist that passed verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BalanceReport {
    /// Common output arrival (= pipeline depth `d`, under unit weights).
    pub depth: u32,
    /// Waves in flight under three-phase clocking: `⌈d / 3⌉` (§III).
    pub waves_in_flight: u32,
    /// Largest observed fan-out.
    pub max_fanout: u32,
}

/// [`check_balance`] under unit weights against the netlist's ASAP
/// levels.
///
/// # Errors
///
/// The first [`BalanceError`] found.
///
/// # Examples
///
/// ```
/// use wavepipe::{insert_buffers, verify_balance, Netlist};
///
/// let mut n = Netlist::new("x");
/// let a = n.add_input("a");
/// let x = n.add_inv(a);
/// let g = n.add_maj([a, a, x]); // `a` skips a level
/// n.add_output("f", g);
/// assert!(verify_balance(&n, None).is_err(), "skewed before balancing");
/// insert_buffers(&mut n);
/// assert_eq!(verify_balance(&n, None).unwrap().depth, 2);
/// ```
pub fn verify_balance(
    netlist: &Netlist,
    fanout_limit: Option<u32>,
) -> Result<BalanceReport, BalanceError> {
    check_balance(
        netlist,
        &DelayWeights::UNIT,
        &netlist.levels(),
        &netlist.fanout_counts(),
        fanout_limit,
    )
}

/// The one balance verifier: checks each non-constant fan-in's
/// liveness point against `arrival` (the netlist's arrivals under
/// `weights`), output alignment and, when `fanout_limit` is given, the
/// §IV bound. The report's depth is the common output arrival.
///
/// # Errors
///
/// The first [`BalanceError`] found.
pub fn check_balance(
    netlist: &Netlist,
    weights: &DelayWeights,
    arrival: &[u32],
    fanout_counts: &[u32],
    fanout_limit: Option<u32>,
) -> Result<BalanceReport, BalanceError> {
    let is_const = |id: CompId| netlist.component(id).kind() == ComponentKind::Const;

    for id in netlist.ids() {
        let comp = netlist.component(id);
        let span = weights.of(comp.kind());
        for &f in comp.fanins() {
            if !is_const(f) && arrival[f.index()] + span != arrival[id.index()] {
                return Err(BalanceError::EdgeSpan {
                    from: f,
                    to: id,
                    from_level: arrival[f.index()],
                    to_level: arrival[id.index()],
                    span,
                });
            }
        }
    }

    let mut outputs = netlist.outputs().iter().filter(|p| !is_const(p.driver));
    let depth = outputs
        .next()
        .map(|first| (first, arrival[first.driver.index()]));
    if let Some((first, level)) = depth {
        if let Some(other) = outputs.find(|p| arrival[p.driver.index()] != level) {
            return Err(BalanceError::OutputMisaligned {
                first: first.name.clone(),
                first_level: level,
                other: other.name.clone(),
                other_level: arrival[other.driver.index()],
            });
        }
    }

    if let Some(limit) = fanout_limit {
        check_fanout_bound(netlist, fanout_counts, limit)?;
    }
    let depth = depth.map_or(0, |(_, level)| level);
    Ok(BalanceReport {
        depth,
        waves_in_flight: depth.div_ceil(3),
        max_fanout: fanout_counts.iter().copied().max().unwrap_or(0),
    })
}

/// Enforces the §IV fan-out bound against precomputed fan-out counts.
fn check_fanout_bound(
    netlist: &Netlist,
    fanout_counts: &[u32],
    limit: u32,
) -> Result<(), BalanceError> {
    match netlist.ids().find(|id| fanout_counts[id.index()] > limit) {
        Some(component) => Err(BalanceError::FanoutExceeded {
            component,
            fanout: fanout_counts[component.index()],
            limit,
        }),
        None => Ok(()),
    }
}

/// Pipeline pass running [`Netlist::validate`] and [`check_balance`]
/// under a [`BufferStrategy`]'s weights, reported as `verify`,
/// `verify(fo≤k)`, `verify(weighted)` or `verify(cost-aware)`.
/// Unit-delay runs record the [`BalanceReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct VerifyBalancePass {
    /// The strategy whose delay weights the netlist was balanced under.
    pub(crate) strategy: BufferStrategy,
    /// Additionally enforce the §IV fan-out bound when given.
    pub(crate) fanout_limit: Option<u32>,
}

impl Pass for VerifyBalancePass {
    fn name(&self) -> String {
        match (self.strategy, self.fanout_limit) {
            (BufferStrategy::Weighted(_), _) => "verify(weighted)".to_owned(),
            (BufferStrategy::CostAware, _) => "verify(cost-aware)".to_owned(),
            (_, Some(limit)) => format!("verify(fo≤{limit})"),
            (_, None) => "verify".to_owned(),
        }
    }

    fn kind(&self) -> PassKind {
        PassKind::Verify
    }

    fn run(&self, ctx: &mut FlowContext<'_>) -> Result<(), PassError> {
        ctx.netlist().validate().map_err(PassError::Custom)?;
        let (weights, arrival) = ctx.schedule(self.strategy)?;
        let counts = ctx.fanout_counts();
        let report = check_balance(
            ctx.netlist(),
            &weights,
            &arrival,
            &counts,
            self.fanout_limit,
        )?;
        if self.strategy.is_unit_delay(&weights) {
            ctx.report = Some(report);
        }
        Ok(())
    }
}

/// Pipeline pass checking only the fan-out bound (the FOx-only
/// configurations of Fig 8, which cannot balance).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FanoutBoundPass {
    /// The fan-out bound to enforce (`2..=5`).
    pub(crate) limit: u32,
}

impl Pass for FanoutBoundPass {
    fn name(&self) -> String {
        format!("check_fanout({})", self.limit)
    }

    fn kind(&self) -> PassKind {
        PassKind::Verify
    }

    fn run(&self, ctx: &mut FlowContext<'_>) -> Result<(), PassError> {
        ctx.netlist().validate().map_err(PassError::Custom)?;
        let counts = ctx.fanout_counts();
        check_fanout_bound(ctx.netlist(), &counts, self.limit)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_single_gate_passes() {
        let mut n = Netlist::new("ok");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g = n.add_maj([a, b, c]);
        n.add_output("f", g);
        let r = verify_balance(&n, Some(3)).unwrap();
        assert_eq!(r.depth, 1);
        assert_eq!(r.waves_in_flight, 1);
    }

    #[test]
    fn skewed_edge_is_reported() {
        let mut n = Netlist::new("skew");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_maj([a, b, c]);
        let g2 = n.add_maj([g1, a, b]);
        n.add_output("f", g2);
        match verify_balance(&n, None) {
            Err(BalanceError::EdgeSpan {
                to_level,
                from_level,
                ..
            }) => {
                assert_eq!(to_level, 2);
                assert_eq!(from_level, 0);
            }
            other => panic!("expected EdgeSpan, got {other:?}"),
        }
    }

    #[test]
    fn misaligned_outputs_are_reported() {
        let mut n = Netlist::new("mis");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_maj([a, b, c]);
        let buf = n.add_buf(g1);
        n.add_output("deep", buf);
        n.add_output("shallow", g1);
        // Edges are all unit-span; only output alignment fails.
        match verify_balance(&n, None) {
            Err(BalanceError::OutputMisaligned { other, .. }) => assert_eq!(other, "shallow"),
            other => panic!("expected OutputMisaligned, got {other:?}"),
        }
    }

    #[test]
    fn fanout_limit_is_enforced() {
        let mut n = Netlist::new("fo");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let d = n.add_input("d");
        let g1 = n.add_maj([a, b, c]);
        let g2 = n.add_maj([a, b, d]);
        let g3 = n.add_maj([a, c, d]);
        let g4 = n.add_maj([g1, g2, g3]);
        n.add_output("f", g4);
        // `a` drives three gates: fine at limit 3, fails at limit 2.
        assert!(verify_balance(&n, Some(3)).is_ok());
        match verify_balance(&n, Some(2)) {
            Err(BalanceError::FanoutExceeded { fanout, limit, .. }) => {
                assert_eq!(fanout, 3);
                assert_eq!(limit, 2);
            }
            other => panic!("expected FanoutExceeded, got {other:?}"),
        }
    }

    #[test]
    fn waves_in_flight_rounds_up() {
        let mut n = Netlist::new("w");
        let a = n.add_input("a");
        let b1 = n.add_buf(a);
        let b2 = n.add_buf(b1);
        let b3 = n.add_buf(b2);
        let b4 = n.add_buf(b3);
        n.add_output("f", b4);
        let r = verify_balance(&n, None).unwrap();
        assert_eq!(r.depth, 4);
        assert_eq!(r.waves_in_flight, 2);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = BalanceError::FanoutExceeded {
            component: CompId::from_index(7),
            fanout: 9,
            limit: 3,
        };
        assert_eq!(e.to_string(), "component c7 has fan-out 9 > limit 3");
    }
}
