//! Per-output cone content identity — the subgraph granularity of the
//! incremental (ECO) engine in the companion `wavepipe` crate.
//!
//! A MIG decomposes naturally into **output cones**: the transitive
//! fan-in of each primary output. [`ConePartition::analyze`] assigns
//! every cone a stable content hash built from per-node merkle hashes
//! (a node's hash folds its kind, its input name, and its fan-ins'
//! hashes with complement bits), so structurally identical cones hash
//! equal *regardless of where they sit in the arena or what the rest of
//! the graph looks like*. An ECO edit therefore needs no explicit dirty
//! marking: unchanged cones keep their hash and hit caches keyed by it,
//! changed cones miss and recompute.
//!
//! [`extract_cone`] materializes one cone as a self-contained [`Mig`]
//! with canonical graph/output names: the extraction is a deterministic
//! replay in arena order, so two cones with equal hashes extract to
//! byte-identical graphs — the property that makes the extracted cone a
//! sound cache key for downstream pipeline results.
//!
//! ```
//! use mig::{ConePartition, Mig};
//!
//! let mut g = Mig::with_name("two-cones");
//! let a = g.add_input("a");
//! let b = g.add_input("b");
//! let c = g.add_input("c");
//! let and = g.add_and(a, b);
//! let or = g.add_or(b, c);
//! g.add_output("and", and);
//! g.add_output("or", or);
//!
//! let before = ConePartition::analyze(&g);
//! assert_eq!(before.len(), 2);
//!
//! // Rewiring one output dirties exactly that cone's hash.
//! let mut edited = g.clone();
//! edited.set_output_signal(0, !edited.outputs()[0].signal);
//! let after = ConePartition::analyze(&edited);
//! assert_ne!(before.cones()[0].hash, after.cones()[0].hash);
//! assert_eq!(before.cones()[1].hash, after.cones()[1].hash);
//! ```

use std::collections::HashMap;

use crate::fnv::Fnv64;
use crate::graph::Mig;
use crate::node::Node;
use crate::signal::{NodeId, Signal};

/// The canonical name given to every extracted cone graph and its
/// single output, so structurally equal cones extract byte-identically
/// and share downstream cache entries.
pub const CONE_NAME: &str = "cone";

/// One primary output's transitive fan-in, summarized by content.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cone {
    /// Output position in the source graph.
    pub output: usize,
    /// Output name in the source graph (cone hashes deliberately do
    /// *not* cover it, so renaming an output keeps its cone clean).
    pub name: String,
    /// Content hash of the cone: the per-node merkle hashes of every
    /// cone member folded in arena order, plus the root's polarity.
    /// Equal hashes ⇒ [`extract_cone`] yields byte-identical graphs.
    pub hash: u64,
    /// Majority gates in the cone (inputs/constants excluded).
    pub gates: usize,
    /// The signal driving the output — the cone's identity anchor for
    /// incremental re-analysis ([`ConePartition::refresh`]): in an
    /// append-only arena, an unchanged root signal pins an unchanged
    /// cone.
    pub root: Signal,
}

/// A graph's decomposition into per-output cones. See the
/// [module docs](self).
#[derive(Clone, Debug)]
pub struct ConePartition {
    cones: Vec<Cone>,
    node_hashes: Vec<u64>,
}

impl ConePartition {
    /// Analyzes `graph`: per-node merkle hashes, then one hash per
    /// output cone.
    pub fn analyze(graph: &Mig) -> ConePartition {
        ConePartition::build(graph, node_hashes(graph), &HashMap::new())
    }

    /// Re-analyzes `graph` reusing this partition's work: per-node
    /// hashes are extended (never recomputed — arena prefixes are
    /// immutable) and any cone whose root [`Signal`] matches one of this
    /// partition's keeps its hash and gate count without a traversal.
    /// For an ECO session this turns the per-run analysis from
    /// `O(Σ cone sizes)` into `O(new nodes + dirty cones)`.
    ///
    /// `graph` must be an **append-only extension** of the graph this
    /// partition analyzed: the arena prefix of the analyzed length is
    /// byte-identical and edits only appended nodes or retargeted
    /// outputs ([`Mig`]'s whole mutation surface). Analyzing an
    /// unrelated graph that happens to be longer is not detected and
    /// yields garbage cone identities.
    ///
    /// # Panics
    ///
    /// Panics if `graph` has fewer nodes than the analyzed graph (which
    /// is never an extension of it).
    pub fn refresh(&self, graph: &Mig) -> ConePartition {
        assert!(
            self.node_hashes.len() <= graph.node_count(),
            "refresh target has fewer nodes than the analyzed graph"
        );
        let mut node_hashes = self.node_hashes.clone();
        extend_node_hashes(graph, &mut node_hashes);
        let known: HashMap<Signal, (u64, usize)> = self
            .cones
            .iter()
            .map(|c| (c.root, (c.hash, c.gates)))
            .collect();
        ConePartition::build(graph, node_hashes, &known)
    }

    fn build(
        graph: &Mig,
        node_hashes: Vec<u64>,
        known: &HashMap<Signal, (u64, usize)>,
    ) -> ConePartition {
        // Per-output cones: marked DFS (output index as the mark epoch)
        // collecting members, then an arena-order fold. Fan-ins always
        // point backwards, so the root is the member with the highest
        // arena index and the fold determines the cone up to hash
        // collisions. Roots already summarized in `known` skip the
        // traversal entirely.
        let mut seen = vec![usize::MAX; graph.node_count()];
        let mut stack: Vec<NodeId> = Vec::new();
        let mut members: Vec<u32> = Vec::new();
        let cones = graph
            .outputs()
            .iter()
            .enumerate()
            .map(|(position, output)| {
                if let Some(&(hash, gates)) = known.get(&output.signal) {
                    return Cone {
                        output: position,
                        name: output.name.clone(),
                        hash,
                        gates,
                        root: output.signal,
                    };
                }
                members.clear();
                stack.push(output.signal.node());
                while let Some(id) = stack.pop() {
                    if seen[id.index()] == position {
                        continue;
                    }
                    seen[id.index()] = position;
                    members.push(id.index() as u32);
                    for s in graph.node(id).fanins() {
                        if seen[s.node().index()] != position {
                            stack.push(s.node());
                        }
                    }
                }
                members.sort_unstable();
                let mut h = Fnv64::new();
                h.write(b"cone");
                h.write(&[u8::from(output.signal.is_complement())]);
                let mut gates = 0;
                for &m in &members {
                    h.write_u64(node_hashes[m as usize]);
                    if matches!(
                        graph.node(NodeId::from_index(m as usize)),
                        Node::Majority(_)
                    ) {
                        gates += 1;
                    }
                }
                Cone {
                    output: position,
                    name: output.name.clone(),
                    hash: h.finish(),
                    gates,
                    root: output.signal,
                }
            })
            .collect();

        ConePartition { cones, node_hashes }
    }

    /// The cones, one per primary output, in output order.
    pub fn cones(&self) -> &[Cone] {
        &self.cones
    }

    /// Number of cones (= primary outputs of the analyzed graph).
    pub fn len(&self) -> usize {
        self.cones.len()
    }

    /// Whether the analyzed graph had no outputs.
    pub fn is_empty(&self) -> bool {
        self.cones.is_empty()
    }
}

/// Per-node merkle content hashes, indexed by `NodeId::index()`: a
/// constant hashes a fixed tag, an input hashes its name, and a gate
/// folds its fan-ins' hashes with their complement bits — so a node's
/// hash determines its whole transitive fan-in up to hash collisions,
/// independent of arena placement.
pub fn node_hashes(graph: &Mig) -> Vec<u64> {
    let mut hashes = Vec::new();
    extend_node_hashes(graph, &mut hashes);
    hashes
}

/// Appends merkle hashes for the arena nodes past `hashes.len()`. In an
/// append-only arena the existing prefix is immutable, so a refresh only
/// hashes the new suffix; fan-ins always point backwards, so every hash
/// a new node folds in is already present.
fn extend_node_hashes(graph: &Mig, hashes: &mut Vec<u64>) {
    let start = hashes.len();
    hashes.reserve(graph.node_count().saturating_sub(start));
    for id in graph.node_ids().skip(start) {
        let mut h = Fnv64::new();
        match graph.node(id) {
            Node::Constant => h.write(b"c"),
            Node::Input(position) => {
                let name = graph.input_name(*position as usize);
                h.write(b"i");
                h.write_u64(name.len() as u64);
                h.write(name.as_bytes());
            }
            Node::Majority(fanins) => {
                h.write(b"m");
                for s in fanins {
                    h.write_u64(hashes[s.node().index()]);
                    h.write(&[u8::from(s.is_complement())]);
                }
            }
        }
        hashes.push(h.finish());
    }
}

/// Extracts output `position`'s cone as a self-contained graph with the
/// canonical [`CONE_NAME`] graph and output names.
///
/// The extraction replays the cone's members in arena order through
/// [`Mig::add_maj`]: stored gates are already axiom-normalized and the
/// member renumbering is monotone (it preserves every signal ordering
/// the normalizer compares), so the replay re-derives each gate verbatim
/// and two cones with equal [`Cone::hash`] extract to byte-identical
/// graphs. Input names carry over — they are part of the cone's content
/// (and of its hash via the input nodes' merkle hashes).
///
/// # Panics
///
/// Panics if `position >= graph.output_count()`.
pub fn extract_cone(graph: &Mig, position: usize) -> Mig {
    let output = &graph.outputs()[position];
    let mut members: Vec<u32> = Vec::new();
    let mut seen = vec![false; graph.node_count()];
    let mut stack = vec![output.signal.node()];
    while let Some(id) = stack.pop() {
        if seen[id.index()] {
            continue;
        }
        seen[id.index()] = true;
        members.push(id.index() as u32);
        for s in graph.node(id).fanins() {
            if !seen[s.node().index()] {
                stack.push(s.node());
            }
        }
    }
    members.sort_unstable();

    let mut out = Mig::with_name(CONE_NAME);
    let mut map = vec![crate::signal::Signal::ZERO; graph.node_count()];
    for &m in &members {
        let id = NodeId::from_index(m as usize);
        map[m as usize] = match graph.node(id) {
            Node::Constant => crate::signal::Signal::ZERO,
            Node::Input(p) => out.add_input(graph.input_name(*p as usize)),
            Node::Majority(fanins) => {
                let f: Vec<crate::signal::Signal> = fanins
                    .iter()
                    .map(|s| map[s.node().index()].complement_if(s.is_complement()))
                    .collect();
                out.add_maj(f[0], f[1], f[2])
            }
        };
    }
    let root = map[output.signal.node().index()].complement_if(output.signal.is_complement());
    out.add_output(CONE_NAME, root);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{random_mig, RandomMigConfig};

    fn sample(seed: u64) -> Mig {
        random_mig(RandomMigConfig {
            inputs: 8,
            outputs: 6,
            gates: 150,
            depth: 10,
            seed,
        })
    }

    #[test]
    fn identical_graphs_partition_identically() {
        let g = sample(1);
        let a = ConePartition::analyze(&g);
        let b = ConePartition::analyze(&g.clone());
        assert_eq!(a.cones(), b.cones());
    }

    #[test]
    fn rewiring_one_output_dirties_only_that_cone() {
        let g = sample(2);
        let before = ConePartition::analyze(&g);
        let mut edited = g.clone();
        let flipped = !edited.outputs()[3].signal;
        edited.set_output_signal(3, flipped);
        let after = ConePartition::analyze(&edited);
        for (i, (a, b)) in before.cones().iter().zip(after.cones()).enumerate() {
            if i == 3 {
                assert_ne!(a.hash, b.hash, "edited cone must change");
            } else {
                assert_eq!(a.hash, b.hash, "cone {i} untouched");
            }
        }
    }

    #[test]
    fn dead_gates_do_not_affect_cone_hashes() {
        let mut g = sample(3);
        let before = ConePartition::analyze(&g);
        // A dead gate (no output references it) is invisible to cones.
        let a = g.inputs()[0].signal();
        let b = g.inputs()[1].signal();
        g.add_maj(a, b, !a);
        let after = ConePartition::analyze(&g);
        assert_eq!(before.cones(), after.cones());
    }

    #[test]
    fn cone_hash_is_placement_independent() {
        // The same function built twice with interleaved unrelated
        // logic: per-output cone hashes must agree pairwise.
        let mut g1 = Mig::with_name("g1");
        let a = g1.add_input("a");
        let b = g1.add_input("b");
        let c = g1.add_input("c");
        let and = g1.add_and(a, b);
        let or = g1.add_or(b, c);
        g1.add_output("f", and);
        g1.add_output("g", or);

        let mut g2 = Mig::with_name("totally-different-name");
        let a = g2.add_input("a");
        let b = g2.add_input("b");
        let c = g2.add_input("c");
        let noise = g2.add_xor(a, c); // extra shared logic first
        let or = g2.add_or(b, c);
        let and = g2.add_and(a, b);
        g2.add_output("g-renamed", or);
        g2.add_output("f-renamed", and);
        g2.add_output("noise", noise);

        let p1 = ConePartition::analyze(&g1);
        let p2 = ConePartition::analyze(&g2);
        assert_eq!(p1.cones()[0].hash, p2.cones()[1].hash, "AND cone");
        assert_eq!(p1.cones()[1].hash, p2.cones()[0].hash, "OR cone");
        assert_ne!(p2.cones()[2].hash, p2.cones()[0].hash);
    }

    #[test]
    fn equal_hashes_extract_byte_identical_cones() {
        let g = sample(4);
        let partition = ConePartition::analyze(&g);
        for (i, cone) in partition.cones().iter().enumerate() {
            let extracted = extract_cone(&g, i);
            assert_eq!(extracted.output_count(), 1);
            assert_eq!(extracted.name(), CONE_NAME);
            assert_eq!(extracted.gate_count(), cone.gates);
            // Re-analyzing the extraction reproduces the hash (the cone
            // hash ignores output names, so canonicalizing them is
            // invisible to it).
            let re = ConePartition::analyze(&extracted);
            assert_eq!(re.cones()[0].hash, cone.hash);
            // Extraction is idempotent byte-for-byte.
            let again = extract_cone(&extracted, 0);
            assert_eq!(
                crate::io::write_mig(&extracted),
                crate::io::write_mig(&again)
            );
        }
    }

    #[test]
    fn extracted_cone_preserves_the_output_function() {
        let g = sample(5);
        for i in 0..g.output_count() {
            let cone = extract_cone(&g, i);
            // Exhaustive check over the cone's (small) support.
            let support: Vec<usize> = (0..cone.input_count())
                .map(|p| {
                    (0..g.input_count())
                        .find(|&q| g.input_name(q) == cone.input_name(p))
                        .expect("cone inputs exist in the source graph")
                })
                .collect();
            let sim = crate::Simulator::new(&g);
            let cone_sim = crate::Simulator::new(&cone);
            for assignment in 0u32..(1 << cone.input_count().min(10)) {
                let full: Vec<bool> = (0..g.input_count())
                    .map(|q| {
                        support
                            .iter()
                            .position(|&s| s == q)
                            .is_some_and(|bit| assignment >> bit & 1 != 0)
                    })
                    .collect();
                let narrow: Vec<bool> = (0..cone.input_count())
                    .map(|bit| assignment >> bit & 1 != 0)
                    .collect();
                let want = sim.eval(&full)[i];
                let got = cone_sim.eval(&narrow)[0];
                assert_eq!(want, got, "output {i}, assignment {assignment:b}");
            }
        }
    }

    #[test]
    fn content_hash_and_remove_output_round_trip() {
        let mut g = sample(7);
        let h0 = g.content_hash();
        assert_eq!(h0, g.clone().content_hash(), "hash is stable");
        let removed = g.remove_output(2);
        assert_ne!(g.content_hash(), h0);
        assert_eq!(g.output_count(), 5);
        g.add_output(removed.name, removed.signal);
        // Same outputs, different order ⇒ different content hash.
        assert_ne!(g.content_hash(), h0);
    }
}
