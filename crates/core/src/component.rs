//! Physical components of a wave-pipeline netlist.
//!
//! Unlike the algebraic MIG (where inversion is an edge attribute and
//! constants are free), a mapped netlist prices every physical cell the
//! technologies provide: majority gates, inverters, buffers and fan-out
//! gates (Table I of the paper). Each component occupies one pipeline
//! level in the three-phase clocking scheme.

use std::fmt;

/// Index of a component inside a [`Netlist`](crate::Netlist).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CompId(pub(crate) u32);

impl CompId {
    /// Arena index of this component.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `CompId` from a raw arena index.
    #[inline]
    pub fn from_index(index: usize) -> CompId {
        debug_assert!(index <= u32::MAX as usize);
        CompId(index as u32)
    }
}

impl fmt::Debug for CompId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for CompId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The kind of a physical component, matching the cost columns of the
/// paper's Table I (INV, MAJ, BUF, FOG) plus the two non-priced kinds
/// (primary inputs and fixed-polarization constant cells).
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum ComponentKind {
    /// Primary input port.
    Input,
    /// Fixed-polarization constant cell (not a propagating wave source;
    /// available at every level, excluded from balancing and cost).
    Const,
    /// 3-input majority gate.
    Maj,
    /// Inverter.
    Inv,
    /// Wave-regenerating buffer (inserted by path balancing).
    Buf,
    /// Fan-out gate: one input replicated to up to `k` consumers
    /// (physically a reversed majority node for `k = 3`).
    Fog,
}

impl ComponentKind {
    /// Kinds that occupy a pipeline level and carry a cost in Table I.
    pub fn is_priced(self) -> bool {
        matches!(
            self,
            ComponentKind::Maj | ComponentKind::Inv | ComponentKind::Buf | ComponentKind::Fog
        )
    }
}

impl fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ComponentKind::Input => "input",
            ComponentKind::Const => "const",
            ComponentKind::Maj => "MAJ",
            ComponentKind::Inv => "INV",
            ComponentKind::Buf => "BUF",
            ComponentKind::Fog => "FOG",
        };
        f.write_str(s)
    }
}

/// One component: kind plus fan-in connections.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Component {
    /// Primary input; payload is the position in the netlist input list.
    Input {
        /// Index into the netlist's input list.
        position: u32,
    },
    /// Constant cell with a fixed logic value.
    Const {
        /// The constant value this cell provides.
        value: bool,
    },
    /// Majority gate over three fan-ins.
    Maj {
        /// The three fan-in components.
        fanins: [CompId; 3],
    },
    /// Inverter of one fan-in.
    Inv {
        /// The inverted component.
        fanin: CompId,
    },
    /// Buffer of one fan-in.
    Buf {
        /// The buffered component.
        fanin: CompId,
    },
    /// Fan-out gate replicating one fan-in.
    Fog {
        /// The replicated component.
        fanin: CompId,
    },
}

impl Component {
    /// The component's kind tag.
    pub fn kind(&self) -> ComponentKind {
        match self {
            Component::Input { .. } => ComponentKind::Input,
            Component::Const { .. } => ComponentKind::Const,
            Component::Maj { .. } => ComponentKind::Maj,
            Component::Inv { .. } => ComponentKind::Inv,
            Component::Buf { .. } => ComponentKind::Buf,
            Component::Fog { .. } => ComponentKind::Fog,
        }
    }

    /// Fan-in connections (empty for inputs and constants).
    pub fn fanins(&self) -> &[CompId] {
        match self {
            Component::Input { .. } | Component::Const { .. } => &[],
            Component::Maj { fanins } => fanins,
            Component::Inv { fanin } | Component::Buf { fanin } | Component::Fog { fanin } => {
                std::slice::from_ref(fanin)
            }
        }
    }

    /// Mutable fan-in connections.
    pub fn fanins_mut(&mut self) -> &mut [CompId] {
        match self {
            Component::Input { .. } | Component::Const { .. } => &mut [],
            Component::Maj { fanins } => fanins,
            Component::Inv { fanin } | Component::Buf { fanin } | Component::Fog { fanin } => {
                std::slice::from_mut(fanin)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_fanins() {
        let a = CompId::from_index(1);
        let b = CompId::from_index(2);
        let c = CompId::from_index(3);
        let maj = Component::Maj { fanins: [a, b, c] };
        assert_eq!(maj.kind(), ComponentKind::Maj);
        assert_eq!(maj.fanins(), &[a, b, c]);

        let inv = Component::Inv { fanin: a };
        assert_eq!(inv.kind(), ComponentKind::Inv);
        assert_eq!(inv.fanins(), &[a]);

        let input = Component::Input { position: 0 };
        assert!(input.fanins().is_empty());
        assert_eq!(input.kind(), ComponentKind::Input);
    }

    #[test]
    fn priced_kinds() {
        assert!(ComponentKind::Maj.is_priced());
        assert!(ComponentKind::Inv.is_priced());
        assert!(ComponentKind::Buf.is_priced());
        assert!(ComponentKind::Fog.is_priced());
        assert!(!ComponentKind::Input.is_priced());
        assert!(!ComponentKind::Const.is_priced());
    }

    #[test]
    fn fanin_mutation() {
        let a = CompId::from_index(1);
        let b = CompId::from_index(9);
        let mut buf = Component::Buf { fanin: a };
        buf.fanins_mut()[0] = b;
        assert_eq!(buf.fanins(), &[b]);
    }

    #[test]
    fn display_matches_table_one_names() {
        assert_eq!(ComponentKind::Maj.to_string(), "MAJ");
        assert_eq!(ComponentKind::Fog.to_string(), "FOG");
        assert_eq!(ComponentKind::Buf.to_string(), "BUF");
        assert_eq!(ComponentKind::Inv.to_string(), "INV");
    }
}
