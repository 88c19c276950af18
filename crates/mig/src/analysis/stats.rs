//! Summary statistics of a MIG: the numbers the paper reports per
//! benchmark (size, depth, I/O counts) plus fan-out distribution data
//! needed by the fan-out-restriction study (paper §IV).

use std::collections::BTreeMap;
use std::fmt;

use crate::graph::Mig;

/// Distribution of fan-out counts over all driving nodes (inputs and
/// gates; nodes with zero fan-out are included, dangling or not).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FanoutHistogram {
    buckets: BTreeMap<u32, usize>,
}

impl FanoutHistogram {
    /// Builds the histogram for `graph` (fan-out counts include primary
    /// output uses, since a physical branch is needed for those too).
    pub fn new(graph: &Mig) -> FanoutHistogram {
        let counts = graph.fanout_counts();
        let mut buckets = BTreeMap::new();
        for id in graph.node_ids() {
            if graph.node(id).is_constant() {
                continue; // constants are technology cells, not driven nets
            }
            *buckets.entry(counts[id.index()]).or_insert(0) += 1;
        }
        FanoutHistogram { buckets }
    }

    /// Number of nodes whose fan-out exceeds `limit`.
    pub fn over_limit(&self, limit: u32) -> usize {
        self.buckets
            .iter()
            .filter(|(&fo, _)| fo > limit)
            .map(|(_, &n)| n)
            .sum()
    }

    /// Largest fan-out in the graph (0 for an empty graph).
    pub fn max_fanout(&self) -> u32 {
        self.buckets.keys().next_back().copied().unwrap_or(0)
    }

    /// Iterates `(fanout, node_count)` pairs in increasing fan-out order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.buckets.iter().map(|(&fo, &n)| (fo, n))
    }
}

/// One-line summary of a graph, as used in benchmark tables.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct GraphStats {
    /// Model name.
    pub name: String,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Majority gates (the paper's "size").
    pub gates: usize,
    /// Logic depth in levels.
    pub depth: u32,
    /// Largest fan-out.
    pub max_fanout: u32,
}

impl GraphStats {
    /// Computes the summary for `graph`.
    pub fn of(graph: &Mig) -> GraphStats {
        GraphStats {
            name: graph.name().to_owned(),
            inputs: graph.input_count(),
            outputs: graph.output_count(),
            gates: graph.gate_count(),
            depth: graph.depth(),
            max_fanout: FanoutHistogram::new(graph).max_fanout(),
        }
    }
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: i/o {}/{}, size {}, depth {}, max fan-out {}",
            self.name, self.inputs, self.outputs, self.gates, self.depth, self.max_fanout
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Mig {
        let mut g = Mig::with_name("sample");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let m1 = g.add_maj(a, b, c);
        let m2 = g.add_maj(m1, a, !c);
        let m3 = g.add_maj(m1, b, c);
        g.add_output("f", m2);
        g.add_output("g", m3);
        g
    }

    #[test]
    fn histogram_counts_driving_uses() {
        let g = sample();
        let h = FanoutHistogram::new(&g);
        // m1 drives m2 and m3 → fan-out 2; a drives m1, m2 → 2;
        // b drives m1, m3 → 2; c drives m1, m2, m3 → 3;
        // m2, m3 drive one output each → 1.
        assert_eq!(h.max_fanout(), 3);
        assert_eq!(h.over_limit(2), 1);
        assert_eq!(h.over_limit(1), 4);
        assert_eq!(h.over_limit(3), 0);
        let total: usize = h.iter().map(|(_, n)| n).sum();
        assert_eq!(total, g.node_count() - 1); // constant excluded
    }

    #[test]
    fn stats_summary() {
        let s = GraphStats::of(&sample());
        assert_eq!(s.name, "sample");
        assert_eq!(s.inputs, 3);
        assert_eq!(s.outputs, 2);
        assert_eq!(s.gates, 3);
        assert_eq!(s.depth, 2);
        assert_eq!(s.max_fanout, 3);
        let line = s.to_string();
        assert!(line.contains("sample"));
        assert!(line.contains("depth 2"));
    }
}
