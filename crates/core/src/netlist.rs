//! The mapped wave-pipeline netlist.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

use crate::arena::EvalArena;
use crate::component::{CompId, Component, ComponentKind};
use crate::weighted::DelayWeights;

thread_local! {
    /// Per-thread evaluation scratch behind [`Netlist::eval_words`] /
    /// [`Netlist::eval_wide`]: one rebuildable [`EvalArena`] plus a
    /// value buffer, so repeated one-shot evaluations on the same
    /// thread reach steady state without per-call allocation. Hot
    /// sweeps should still prepare their own arena (via
    /// [`StructuralCaches::eval_arena`] or [`EvalArena::try_new`]) and
    /// skip even the rebuild.
    static EVAL_SCRATCH: RefCell<(EvalArena, Vec<u64>)> =
        RefCell::new((EvalArena::default(), Vec::new()));
}

/// A structural failure surfaced by the fallible [`Netlist`] accessors
/// (the panicking variants document their panics and delegate here).
///
/// Folded into [`crate::FlowError`] via [`crate::PassError::Netlist`],
/// so user-driven [`crate::Engine`] runs surface malformed structures
/// as errors instead of panicking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetlistError {
    /// The netlist contains a combinational cycle through the given
    /// component — no topological order (and hence no level assignment,
    /// depth or evaluation) exists.
    CombinationalCycle(CompId),
    /// An evaluation pattern's width does not match the input count.
    WidthMismatch {
        /// Number of primary inputs the netlist declares.
        inputs: usize,
        /// Width of the pattern that was supplied.
        pattern: usize,
    },
    /// An output rebind addressed a position past the output list.
    NoSuchOutput {
        /// The requested output position.
        position: usize,
        /// Number of primary outputs the netlist declares.
        outputs: usize,
    },
    /// An output rebind pointed at a component id outside the arena.
    DanglingDriver {
        /// The dangling component id.
        driver: CompId,
        /// Number of components in the arena.
        len: usize,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::CombinationalCycle(id) => {
                write!(f, "combinational cycle through {id}")
            }
            NetlistError::WidthMismatch { inputs, pattern } => write!(
                f,
                "pattern width {pattern} does not match the {inputs} primary inputs"
            ),
            NetlistError::NoSuchOutput { position, outputs } => write!(
                f,
                "output position {position} is out of range (netlist has {outputs} outputs)"
            ),
            NetlistError::DanglingDriver { driver, len } => write!(
                f,
                "output driver {driver} is not a component of this netlist (len {len})"
            ),
        }
    }
}

impl std::error::Error for NetlistError {}

/// A primary output binding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Port {
    /// Output port name.
    pub name: String,
    /// Driving component.
    pub driver: CompId,
}

/// Per-kind component counts; the paper's "size" is
/// [`KindCounts::priced_total`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct KindCounts {
    /// Primary inputs.
    pub inputs: usize,
    /// Constant cells.
    pub consts: usize,
    /// Majority gates.
    pub maj: usize,
    /// Inverters.
    pub inv: usize,
    /// Buffers.
    pub buf: usize,
    /// Fan-out gates.
    pub fog: usize,
}

impl KindCounts {
    /// Total priced components (MAJ + INV + BUF + FOG) — the netlist
    /// "size" used throughout the paper's evaluation.
    pub fn priced_total(&self) -> usize {
        self.maj + self.inv + self.buf + self.fog
    }

    /// Per-kind counts added since `earlier`, saturating at zero — the
    /// pass-delta quantity the pipeline trace records (the flow's
    /// passes only ever add components).
    pub fn added_since(&self, earlier: &KindCounts) -> KindCounts {
        KindCounts {
            inputs: self.inputs.saturating_sub(earlier.inputs),
            consts: self.consts.saturating_sub(earlier.consts),
            maj: self.maj.saturating_sub(earlier.maj),
            inv: self.inv.saturating_sub(earlier.inv),
            buf: self.buf.saturating_sub(earlier.buf),
            fog: self.fog.saturating_sub(earlier.fog),
        }
    }
}

impl fmt::Display for KindCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MAJ {}, INV {}, BUF {}, FOG {} (size {})",
            self.maj,
            self.inv,
            self.buf,
            self.fog,
            self.priced_total()
        )
    }
}

/// A flat netlist of physical components (majority gates, inverters,
/// buffers, fan-out gates) — the representation the paper's two
/// algorithms transform.
///
/// Components are stored in an arena; unlike [`mig::Mig`], fan-ins may
/// point forward (transforms append components and retarget edges), so
/// analyses use explicit topological traversal.
///
/// # Examples
///
/// ```
/// use wavepipe::Netlist;
///
/// let mut n = Netlist::new("demo");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let k0 = n.add_const(false);
/// let g = n.add_maj([a, b, k0]); // AND gate
/// n.add_output("f", g);
///
/// assert_eq!(n.counts().maj, 1);
/// assert_eq!(n.depth(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    name: String,
    components: Vec<Component>,
    inputs: Vec<CompId>,
    input_names: Vec<String>,
    outputs: Vec<Port>,
    const_cells: [Option<CompId>; 2],
    counts: KindCounts,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            ..Netlist::default()
        }
    }

    /// The netlist name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the netlist.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Adds a primary input.
    pub fn add_input(&mut self, name: impl Into<String>) -> CompId {
        let id = self.push(Component::Input {
            position: self.inputs.len() as u32,
        });
        self.inputs.push(id);
        self.input_names.push(name.into());
        id
    }

    /// Returns the shared constant cell of the given value, creating it
    /// on first use.
    pub fn add_const(&mut self, value: bool) -> CompId {
        if let Some(id) = self.const_cells[value as usize] {
            return id;
        }
        let id = self.push(Component::Const { value });
        self.const_cells[value as usize] = Some(id);
        id
    }

    /// Adds a majority gate.
    pub fn add_maj(&mut self, fanins: [CompId; 3]) -> CompId {
        self.push(Component::Maj { fanins })
    }

    /// Adds an inverter.
    pub fn add_inv(&mut self, fanin: CompId) -> CompId {
        self.push(Component::Inv { fanin })
    }

    /// Adds a buffer.
    pub fn add_buf(&mut self, fanin: CompId) -> CompId {
        self.push(Component::Buf { fanin })
    }

    /// Adds a fan-out gate.
    pub fn add_fog(&mut self, fanin: CompId) -> CompId {
        self.push(Component::Fog { fanin })
    }

    fn push(&mut self, component: Component) -> CompId {
        let id = CompId::from_index(self.components.len());
        match component.kind() {
            ComponentKind::Input => self.counts.inputs += 1,
            ComponentKind::Const => self.counts.consts += 1,
            ComponentKind::Maj => self.counts.maj += 1,
            ComponentKind::Inv => self.counts.inv += 1,
            ComponentKind::Buf => self.counts.buf += 1,
            ComponentKind::Fog => self.counts.fog += 1,
        }
        self.components.push(component);
        id
    }

    /// Pre-allocates arena capacity for `additional` more components
    /// (bulk construction, e.g. splicing region netlists).
    pub fn reserve(&mut self, additional: usize) {
        self.components.reserve(additional);
    }

    /// Binds `driver` to a named primary output.
    pub fn add_output(&mut self, name: impl Into<String>, driver: CompId) {
        self.outputs.push(Port {
            name: name.into(),
            driver,
        });
    }

    /// Rebinds the driver of output `position` (used by the transforms
    /// when interposing buffers or fan-out gates).
    ///
    /// # Panics
    ///
    /// Panics if `position >= self.outputs().len()` or if `driver` is
    /// not a component of this netlist (a dangling `CompId` would
    /// silently corrupt every later analysis).
    pub fn set_output_driver(&mut self, position: usize, driver: CompId) {
        assert!(
            driver.index() < self.components.len(),
            "output driver {driver} is not a component of this netlist (len {})",
            self.components.len()
        );
        self.outputs[position].driver = driver;
    }

    /// Fallible [`Netlist::set_output_driver`]: rejects out-of-range
    /// positions and dangling drivers with a [`NetlistError`] instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// [`NetlistError::NoSuchOutput`] or [`NetlistError::DanglingDriver`].
    pub fn try_set_output_driver(
        &mut self,
        position: usize,
        driver: CompId,
    ) -> Result<(), NetlistError> {
        if driver.index() >= self.components.len() {
            return Err(NetlistError::DanglingDriver {
                driver,
                len: self.components.len(),
            });
        }
        let outputs = self.outputs.len();
        match self.outputs.get_mut(position) {
            Some(port) => {
                port.driver = driver;
                Ok(())
            }
            None => Err(NetlistError::NoSuchOutput { position, outputs }),
        }
    }

    /// The component at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not part of this netlist.
    pub fn component(&self, id: CompId) -> &Component {
        &self.components[id.index()]
    }

    /// Mutable access to the component at `id` — for fan-in rewiring
    /// only. The component's *kind* is part of the netlist's running
    /// [`Netlist::counts`]; replacing a component with one of a
    /// different kind would desynchronize them.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not part of this netlist.
    pub fn component_mut(&mut self, id: CompId) -> &mut Component {
        &mut self.components[id.index()]
    }

    /// Number of components (all kinds).
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// `true` if the netlist has no components.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Primary inputs, in declaration order.
    pub fn inputs(&self) -> &[CompId] {
        &self.inputs
    }

    /// Name of input `position`.
    pub fn input_name(&self, position: usize) -> &str {
        &self.input_names[position]
    }

    /// Primary outputs, in declaration order.
    pub fn outputs(&self) -> &[Port] {
        &self.outputs
    }

    /// Iterates over all component ids in arena order (NOT necessarily
    /// topological; see [`Netlist::topo_order`]).
    pub fn ids(&self) -> impl Iterator<Item = CompId> + '_ {
        (0..self.components.len()).map(CompId::from_index)
    }

    /// Per-kind component counts, maintained incrementally on every add
    /// (`O(1)` — every pass records counts in its trace, and the splice
    /// stage of the incremental engine aggregates them per region).
    pub fn counts(&self) -> KindCounts {
        self.counts
    }

    /// Components in topological order (fan-ins before consumers).
    ///
    /// # Panics
    ///
    /// Panics if the netlist contains a combinational cycle (transforms
    /// in this crate never create one; to analyze untrusted structures
    /// use [`Netlist::try_topo_order`]).
    pub fn topo_order(&self) -> Vec<CompId> {
        self.try_topo_order()
            .unwrap_or_else(|e| panic!("combinational cycle: {e}"))
    }

    /// Fallible [`Netlist::topo_order`]: a combinational cycle comes
    /// back as a [`NetlistError`] instead of a panic. The pass pipeline
    /// calls this at every pass boundary, so a custom pass that wires a
    /// cycle fails its run instead of aborting the process.
    ///
    /// # Errors
    ///
    /// [`NetlistError::CombinationalCycle`] naming a component on the
    /// cycle.
    pub fn try_topo_order(&self) -> Result<Vec<CompId>, NetlistError> {
        let n = self.components.len();
        let mut state = vec![0u8; n]; // 0 new, 1 on stack, 2 done
        let mut order = Vec::with_capacity(n);
        let mut stack: Vec<(CompId, usize)> = Vec::new();
        for root in 0..n {
            if state[root] != 0 {
                continue;
            }
            stack.push((CompId::from_index(root), 0));
            state[root] = 1;
            while let Some(&mut (id, ref mut next)) = stack.last_mut() {
                let fanins = self.components[id.index()].fanins();
                if *next < fanins.len() {
                    let f = fanins[*next];
                    *next += 1;
                    match state[f.index()] {
                        0 => {
                            state[f.index()] = 1;
                            stack.push((f, 0));
                        }
                        1 => return Err(NetlistError::CombinationalCycle(f)),
                        _ => {}
                    }
                } else {
                    state[id.index()] = 2;
                    order.push(id);
                    stack.pop();
                }
            }
        }
        Ok(order)
    }

    /// Per-component levels: inputs and constants are level 0; every
    /// other component is one more than its deepest **non-constant**
    /// fan-in (constant cells are fixed polarization available at every
    /// level, so they do not constrain wave timing).
    ///
    /// Indexed by `CompId::index()`.
    pub fn levels(&self) -> Vec<u32> {
        self.levels_from_order(&self.topo_order(), &DelayWeights::UNIT)
    }

    /// Levels against an already-computed topological order (see
    /// [`StructuralCaches`]) under per-kind delay `weights`: inputs and
    /// constants sit at 0, every other component `weight(kind)` after
    /// its latest **non-constant** fan-in. Under [`DelayWeights::UNIT`]
    /// these are [`Netlist::levels`]; under other weights, arrival
    /// times. This is the one arrival computation behind every
    /// balancing schedule.
    pub fn levels_from_order(&self, order: &[CompId], weights: &DelayWeights) -> Vec<u32> {
        // Unit weights get their own instance: the hot ASAP case then
        // adds a constant instead of looking each kind's weight up.
        if *weights == DelayWeights::UNIT {
            self.arrivals(order, |_| 1)
        } else {
            self.arrivals(order, |kind| weights.of(kind))
        }
    }

    // Inlined into both instances, so the unit one compiles to the
    // same tight loop a unit-only DP would.
    #[inline(always)]
    fn arrivals(&self, order: &[CompId], weight: impl Fn(ComponentKind) -> u32) -> Vec<u32> {
        let mut arrival = vec![0u32; self.components.len()];
        for &id in order {
            let comp = &self.components[id.index()];
            if comp.fanins().is_empty() {
                continue;
            }
            arrival[id.index()] = weight(comp.kind())
                + comp
                    .fanins()
                    .iter()
                    .filter(|f| !matches!(self.components[f.index()].kind(), ComponentKind::Const))
                    .map(|f| arrival[f.index()])
                    .max()
                    .unwrap_or(0);
        }
        arrival
    }

    /// Whether `levels` are exactly [`Netlist::levels`], by one arena
    /// scan: one level per component, and each equal to 1 + its highest
    /// non-constant fan-in's (1 when every fan-in is constant, 0 with no
    /// fan-ins). That puts every non-constant fan-in strictly lower, so
    /// it also proves the netlist acyclic (a constant has no fan-ins and
    /// so lies on no cycle) — the check a handed-forward level view
    /// must pass.
    pub(crate) fn levels_hold(&self, levels: &[u32]) -> bool {
        let level_of = |f: &CompId| match self.components.get(f.index()) {
            Some(Component::Const { .. }) => Some(0),
            Some(_) => levels.get(f.index()).copied(),
            None => None,
        };
        levels.len() == self.components.len()
            && self.components.iter().zip(levels).all(|(c, &level)| {
                let mut highest = Some(0u32);
                for f in c.fanins() {
                    highest = highest.zip(level_of(f)).map(|(h, l)| h.max(l));
                }
                let expected = if c.fanins().is_empty() {
                    Some(0)
                } else {
                    highest.map(|h| h + 1)
                };
                expected == Some(level)
            })
    }

    /// Netlist depth: maximum level over non-constant primary outputs.
    pub fn depth(&self) -> u32 {
        self.depth_from_levels(&self.levels())
    }

    /// [`Netlist::depth`] against an already-computed level assignment.
    pub fn depth_from_levels(&self, levels: &[u32]) -> u32 {
        self.outputs
            .iter()
            .filter(|p| self.components[p.driver.index()].kind() != ComponentKind::Const)
            .map(|p| levels[p.driver.index()])
            .max()
            .unwrap_or(0)
    }

    /// Fan-out edges: for every component, the `(consumer, fanin_slot)`
    /// pairs reading it, in consumer-index then slot order, as one flat
    /// [`FanoutEdges`] table. Primary-output uses are returned
    /// separately as `(output_position, driver)` via
    /// [`Netlist::outputs`]; they are *not* included here.
    pub fn fanout_edges(&self) -> FanoutEdges {
        FanoutEdges::new(&self.components)
    }

    /// Fan-out counts including primary-output uses (what the fan-out
    /// restriction bound applies to). Constant cells report 0: they are
    /// fixed cells replicated at will, not driven nets.
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.components.len()];
        for c in &self.components {
            for f in c.fanins() {
                counts[f.index()] += 1;
            }
        }
        for p in &self.outputs {
            counts[p.driver.index()] += 1;
        }
        for (i, c) in self.components.iter().enumerate() {
            if c.kind() == ComponentKind::Const {
                counts[i] = 0;
            }
        }
        counts
    }

    /// Largest fan-out of any non-constant component.
    pub fn max_fanout(&self) -> u32 {
        self.fanout_counts().into_iter().max().unwrap_or(0)
    }

    /// Fan-out summary for region splicing: the largest fan-out among
    /// non-input components, plus each primary input's fan-out (indexed
    /// by input position, port uses included). A merged netlist's
    /// [`Netlist::max_fanout`] is the max of the regions' internal
    /// maxima and the per-name sums of their input fan-outs — shared
    /// inputs concentrate fan-out, everything else is region-private —
    /// so the splice composes cached summaries instead of scanning the
    /// merged arena.
    pub(crate) fn fanout_summary(&self) -> (u32, Vec<u32>) {
        let counts = self.fanout_counts();
        let mut internal = 0u32;
        for (i, c) in self.components.iter().enumerate() {
            if c.kind() != ComponentKind::Input {
                internal = internal.max(counts[i]);
            }
        }
        let inputs = self.inputs.iter().map(|id| counts[id.index()]).collect();
        (internal, inputs)
    }

    /// Drops the buffers appended from index `len` on — the undo step of
    /// a failed balancing sweep, which appends nothing else.
    pub(crate) fn truncate_buffers(&mut self, len: usize) {
        debug_assert!(self.components[len..]
            .iter()
            .all(|c| c.kind() == ComponentKind::Buf));
        self.counts.buf -= self.components.len() - len;
        self.components.truncate(len);
    }

    /// Appends a region netlist onto this one for cone splicing: input
    /// components map through `imap` (region input position → merged
    /// component), constants deduplicate via [`Netlist::add_const`], and
    /// every other component is appended in arena order with its fan-ins
    /// remapped. Returns the merged id of the region's output driver.
    ///
    /// Regions without constant cells and with their inputs at the
    /// arena head (every netlist the flow builds from a graph) take a
    /// bulk-copy path: the gate block is one `extend_from_slice` and a
    /// fan-in fix-up over the copied span — no remap table.
    ///
    /// # Panics
    ///
    /// Panics if `imap` is shorter than the region's input list or the
    /// region has no outputs.
    pub(crate) fn splice_region(&mut self, part: &Netlist, imap: &[CompId]) -> CompId {
        let prefix = part.inputs.len();
        let bulk = part.const_cells == [None, None]
            && part
                .inputs
                .iter()
                .enumerate()
                .all(|(i, id)| id.index() == i);
        if bulk {
            let base = self.components.len();
            // Every fan-in either hits the input prefix (→ `imap`) or a
            // copied component, whose merged index is its region index
            // shifted by the prefix removal and the append offset.
            let translate = |f: CompId| {
                if f.index() < prefix {
                    imap[f.index()]
                } else {
                    CompId::from_index(f.index() - prefix + base)
                }
            };
            let driver = translate(part.outputs[0].driver);
            self.components
                .extend_from_slice(&part.components[prefix..]);
            for c in &mut self.components[base..] {
                for f in c.fanins_mut() {
                    *f = translate(*f);
                }
            }
            self.counts.maj += part.counts.maj;
            self.counts.inv += part.counts.inv;
            self.counts.buf += part.counts.buf;
            self.counts.fog += part.counts.fog;
            return driver;
        }

        // General path: resolve inputs and constants first (region
        // fan-ins may point forward), then assign every gate its merged
        // index before any is appended.
        let mut remap = vec![CompId::from_index(0); part.components.len()];
        for (i, c) in part.components.iter().enumerate() {
            match c {
                Component::Input { position } => remap[i] = imap[*position as usize],
                Component::Const { value } => remap[i] = self.add_const(*value),
                _ => {}
            }
        }
        let mut next = self.components.len();
        for (i, c) in part.components.iter().enumerate() {
            if !matches!(c, Component::Input { .. } | Component::Const { .. }) {
                remap[i] = CompId::from_index(next);
                next += 1;
            }
        }
        for (i, c) in part.components.iter().enumerate() {
            let added = match c {
                Component::Maj { fanins } => self.add_maj([
                    remap[fanins[0].index()],
                    remap[fanins[1].index()],
                    remap[fanins[2].index()],
                ]),
                Component::Inv { fanin } => self.add_inv(remap[fanin.index()]),
                Component::Buf { fanin } => self.add_buf(remap[fanin.index()]),
                Component::Fog { fanin } => self.add_fog(remap[fanin.index()]),
                Component::Input { .. } | Component::Const { .. } => continue,
            };
            debug_assert_eq!(added, remap[i]);
        }
        remap[part.outputs[0].driver.index()]
    }

    /// Returns a copy containing only components reachable from the
    /// primary outputs (inputs and their declaration order are always
    /// preserved; dangling gates, buffers and inverters are dropped).
    ///
    /// Component identity is not preserved — ids are remapped densely.
    pub fn sweep(&self) -> Netlist {
        let mut live = vec![false; self.components.len()];
        let mut stack: Vec<CompId> = self.outputs.iter().map(|p| p.driver).collect();
        while let Some(id) = stack.pop() {
            if live[id.index()] {
                continue;
            }
            live[id.index()] = true;
            for &f in self.components[id.index()].fanins() {
                if !live[f.index()] {
                    stack.push(f);
                }
            }
        }

        let mut out = Netlist::new(self.name.clone());
        let mut map: Vec<Option<CompId>> = vec![None; self.components.len()];
        // Inputs first, in declaration order, live or not (ports are part
        // of the interface).
        for (pos, &id) in self.inputs.iter().enumerate() {
            map[id.index()] = Some(out.add_input(self.input_names[pos].clone()));
        }
        for id in self.topo_order() {
            if !live[id.index()] || map[id.index()].is_some() {
                continue;
            }
            let m = |map: &[Option<CompId>], f: CompId| {
                map[f.index()].expect("fan-ins are mapped before consumers")
            };
            let new_id = match &self.components[id.index()] {
                Component::Input { .. } => unreachable!("inputs pre-mapped"),
                Component::Const { value } => out.add_const(*value),
                Component::Maj { fanins } => {
                    out.add_maj([m(&map, fanins[0]), m(&map, fanins[1]), m(&map, fanins[2])])
                }
                Component::Inv { fanin } => out.add_inv(m(&map, *fanin)),
                Component::Buf { fanin } => out.add_buf(m(&map, *fanin)),
                Component::Fog { fanin } => out.add_fog(m(&map, *fanin)),
            };
            map[id.index()] = Some(new_id);
        }
        for p in &self.outputs {
            out.add_output(
                p.name.clone(),
                map[p.driver.index()].expect("output drivers are live"),
            );
        }
        out
    }

    /// Checks the structural well-formedness invariants every analysis
    /// in this crate assumes: all fan-ins and output drivers reference
    /// existing components, the input list and `Component::Input`
    /// positions agree, and the shared constant-cell registry matches
    /// the arena.
    ///
    /// The transforms uphold these by construction; the pipeline's
    /// verify pass runs this check anyway (it is O(components)), and a
    /// `debug_assert!` after every pass catches a violating custom pass
    /// at the pass boundary in debug builds.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.components.len();
        if self.inputs.len() != self.input_names.len() {
            return Err(format!(
                "{} inputs but {} input names",
                self.inputs.len(),
                self.input_names.len()
            ));
        }
        for (i, c) in self.components.iter().enumerate() {
            for &f in c.fanins() {
                if f.index() >= n {
                    return Err(format!("component c{i} reads missing fan-in {f} (len {n})"));
                }
            }
            if let Component::Input { position } = c {
                if self
                    .inputs
                    .get(*position as usize)
                    .copied()
                    .map(CompId::index)
                    != Some(i)
                {
                    return Err(format!(
                        "component c{i} claims input position {position}, which maps elsewhere"
                    ));
                }
            }
        }
        for (pos, &id) in self.inputs.iter().enumerate() {
            match self.components.get(id.index()) {
                Some(Component::Input { position }) if *position as usize == pos => {}
                _ => {
                    return Err(format!(
                        "input list position {pos} points at {id}, which is not that input"
                    ))
                }
            }
        }
        for p in &self.outputs {
            if p.driver.index() >= n {
                return Err(format!(
                    "output `{}` driven by missing component {} (len {n})",
                    p.name, p.driver
                ));
            }
        }
        for (value, cell) in [(false, self.const_cells[0]), (true, self.const_cells[1])] {
            if let Some(id) = cell {
                match self.components.get(id.index()) {
                    Some(Component::Const { value: v }) if *v == value => {}
                    _ => {
                        return Err(format!(
                        "constant registry for {value} points at {id}, which is not that constant"
                    ))
                    }
                }
            }
        }
        Ok(())
    }

    /// Evaluates the netlist combinationally on one input pattern.
    ///
    /// This is the golden reference the wave simulator is checked
    /// against. It is a thin wrapper over the bit-parallel
    /// [`Netlist::eval_words`] (the pattern occupies one lane of a
    /// broadcast word), so scalar and word-level evaluation can never
    /// disagree.
    ///
    /// # Panics
    ///
    /// Panics if `pattern.len()` differs from the input count; use
    /// [`Netlist::try_eval`] for untrusted patterns.
    pub fn eval(&self, pattern: &[bool]) -> Vec<bool> {
        self.try_eval(pattern)
            .unwrap_or_else(|e| panic!("eval failed: {e}"))
    }

    /// Fallible [`Netlist::eval`]: width mismatches and combinational
    /// cycles come back as [`NetlistError`]s instead of panics.
    ///
    /// # Errors
    ///
    /// [`NetlistError::WidthMismatch`] or
    /// [`NetlistError::CombinationalCycle`].
    pub fn try_eval(&self, pattern: &[bool]) -> Result<Vec<bool>, NetlistError> {
        let words: Vec<u64> = pattern.iter().map(|&b| if b { !0 } else { 0 }).collect();
        Ok(self
            .try_eval_wide(&words, 1)?
            .into_iter()
            .map(|w| w & 1 != 0)
            .collect())
    }

    /// Evaluates 64 input patterns at once: bit `k` of `pattern[i]` is
    /// the value of input `i` in pattern `k` (the
    /// [`mig::PatternBlock`] packing). Returns one word per primary
    /// output.
    ///
    /// This is the netlist counterpart of
    /// [`mig::Simulator::eval_words`] and the engine behind
    /// [`crate::differential`] — equivalence sweeps cost one netlist
    /// traversal per 64 patterns instead of 64.
    ///
    /// # Panics
    ///
    /// Panics if `pattern.len()` differs from the input count or the
    /// netlist contains a combinational cycle; use
    /// [`Netlist::try_eval_wide`] with `width == 1` for untrusted
    /// structures.
    pub fn eval_words(&self, pattern: &[u64]) -> Vec<u64> {
        self.try_eval_wide(pattern, 1)
            .unwrap_or_else(|e| panic!("eval_words failed: {e}"))
    }

    /// Evaluates `width` 64-lane pattern blocks in one traversal:
    /// `pattern[i * width + j]` is word `j` of input `i`, and word `j`
    /// of output `o` lands at slot `o * width + j` of the result (the
    /// [`EvalArena::eval_wide_into`] layout). [`Netlist::eval_words`]
    /// is the `width == 1` case.
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch, `width == 0` or a combinational
    /// cycle; use [`Netlist::try_eval_wide`] for untrusted inputs.
    pub fn eval_wide(&self, pattern: &[u64], width: usize) -> Vec<u64> {
        self.try_eval_wide(pattern, width)
            .unwrap_or_else(|e| panic!("eval_wide failed: {e}"))
    }

    /// Fallible [`Netlist::eval_wide`].
    ///
    /// # Errors
    ///
    /// [`NetlistError::WidthMismatch`] (also for `width == 0`) or
    /// [`NetlistError::CombinationalCycle`].
    pub fn try_eval_wide(&self, pattern: &[u64], width: usize) -> Result<Vec<u64>, NetlistError> {
        if width == 0 || pattern.len() != self.inputs.len() * width {
            return Err(NetlistError::WidthMismatch {
                inputs: self.inputs.len() * width,
                pattern: pattern.len(),
            });
        }
        EVAL_SCRATCH.with(|scratch| {
            let (arena, values) = &mut *scratch.borrow_mut();
            arena.try_rebuild(self)?;
            let mut out = Vec::new();
            arena.eval_wide_into(pattern, width, values, &mut out);
            Ok(out)
        })
    }

    /// The word-level evaluation kernel against an already-computed
    /// topological order and a caller-owned scratch buffer (one word
    /// per component, overwritten) — what block sweeps use so neither
    /// the traversal order nor the value buffer is recomputed or
    /// reallocated per 64-pattern block (see
    /// [`crate::verify::NetlistFunction`]).
    ///
    /// # Panics
    ///
    /// Panics if `pattern` does not match the input count, or `order` /
    /// `values` do not cover every component.
    pub fn eval_words_prepared(
        &self,
        pattern: &[u64],
        order: &[CompId],
        values: &mut [u64],
    ) -> Vec<u64> {
        assert_eq!(
            pattern.len(),
            self.inputs.len(),
            "pattern width must match the input count"
        );
        assert!(
            order.len() >= self.components.len() && values.len() >= self.components.len(),
            "topological order and scratch must cover every component"
        );
        for &id in order {
            let v = match &self.components[id.index()] {
                Component::Input { position } => pattern[*position as usize],
                Component::Const { value } => {
                    if *value {
                        !0
                    } else {
                        0
                    }
                }
                Component::Maj { fanins } => {
                    let a = values[fanins[0].index()];
                    let b = values[fanins[1].index()];
                    let c = values[fanins[2].index()];
                    a & b | a & c | b & c
                }
                Component::Inv { fanin } => !values[fanin.index()],
                Component::Buf { fanin } | Component::Fog { fanin } => values[fanin.index()],
            };
            values[id.index()] = v;
        }
        self.outputs
            .iter()
            .map(|p| values[p.driver.index()])
            .collect()
    }
}

/// Lazily-computed, shared structural views of one netlist: topological
/// order, ASAP levels, fan-out edges and fan-out counts, plus the depth
/// derived from them.
///
/// The flow's passes and the pipeline's instrumentation all need these
/// views, and before this cache each consumer recomputed them from
/// scratch (`depth()` alone walks the whole netlist twice). A
/// [`FlowContext`](crate::FlowContext) carries one `StructuralCaches`
/// and invalidates it whenever the working netlist is borrowed mutably;
/// getters hand out cheap [`Arc`] clones so a pass can keep reading a
/// snapshot while it mutates the netlist (the snapshot then describes
/// the pre-mutation structure, which is exactly what the paper's two
/// algorithms want).
///
/// A built-in transform pass that already knows the levels of the
/// structure it just built hands them forward instead of leaving the
/// next reader to rebuild them with a DFS (see
/// [`FlowContext::netlist_mut`](crate::FlowContext::netlist_mut)).
/// Handed-forward levels are accepted only after one linear check
/// against the mutated netlist (each level 1 + the highest
/// non-constant fan-in level, 0 without fan-ins) and are dropped
/// otherwise, so the next reader falls back to the
/// from-scratch computation. Levels are the only view handed forward:
/// [`StructuralCaches::topo_order`] stays exactly
/// [`Netlist::topo_order`].
#[derive(Clone, Debug, Default)]
pub struct StructuralCaches {
    topo: Option<Arc<Vec<CompId>>>,
    levels: Option<Arc<Vec<u32>>>,
    fanout_edges: Option<Arc<FanoutEdges>>,
    fanout_counts: Option<Arc<Vec<u32>>>,
    depth: Option<u32>,
    eval_arena: Option<Arc<EvalArena>>,
}

/// Per-component fan-out edges in compressed sparse row form, as
/// produced by [`Netlist::fanout_edges`]: `edges[i]` is the slice of
/// `(consumer, fanin_slot)` pairs reading component `i`, in
/// consumer-index then slot order.
///
/// Two flat vectors replace one heap list per component: `offsets`
/// (one entry per component plus one) delimits each driver's run in
/// `pairs`. The table is built by counting each driver's readers,
/// prefix-summing the counts and filling the pairs in one arena scan.
///
/// # Examples
///
/// ```
/// use wavepipe::Netlist;
///
/// let mut n = Netlist::new("fo");
/// let a = n.add_input("a");
/// let inv = n.add_inv(a);
/// let g = n.add_maj([a, inv, a]);
/// n.add_output("f", g);
///
/// let edges = n.fanout_edges();
/// assert_eq!(edges.len(), n.len());
/// assert_eq!(edges[a.index()], [(inv, 0), (g, 0), (g, 2)]);
/// assert!(edges[g.index()].is_empty(), "output uses are not edges");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FanoutEdges {
    offsets: Vec<u32>,
    pairs: Vec<(CompId, u32)>,
}

impl FanoutEdges {
    fn new(components: &[Component]) -> FanoutEdges {
        let n = components.len();
        let mut offsets = vec![0u32; n + 1];
        for c in components {
            for f in c.fanins() {
                offsets[f.index() + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Fill with `offsets[f]` as f's write cursor; each cursor ends
        // at the start of the next driver's run, so one shift restores
        // the starts.
        let mut pairs = vec![(CompId(0), 0); offsets[n] as usize];
        for (id, c) in components.iter().enumerate() {
            for (slot, f) in c.fanins().iter().enumerate() {
                let at = &mut offsets[f.index()];
                pairs[*at as usize] = (CompId::from_index(id), slot as u32);
                *at += 1;
            }
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        FanoutEdges { offsets, pairs }
    }

    /// Number of components covered (drivers, not edges).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` if the table covers no component.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::ops::Index<usize> for FanoutEdges {
    type Output = [(CompId, u32)];

    /// The `(consumer, fanin_slot)` pairs reading component `driver`.
    fn index(&self, driver: usize) -> &[(CompId, u32)] {
        &self.pairs[self.offsets[driver] as usize..self.offsets[driver + 1] as usize]
    }
}

impl StructuralCaches {
    /// Drops every cached view (call after any netlist mutation).
    pub fn invalidate(&mut self) {
        *self = StructuralCaches::default();
    }

    /// Cached [`Netlist::topo_order`].
    pub fn topo_order(&mut self, netlist: &Netlist) -> Arc<Vec<CompId>> {
        self.try_topo_order(netlist)
            .unwrap_or_else(|e| panic!("combinational cycle: {e}"))
    }

    /// Cached [`Netlist::try_topo_order`] — the fallible variant the
    /// pipeline's pass-boundary instrumentation uses, so a custom pass
    /// that wires a cycle surfaces an error instead of a panic.
    ///
    /// # Errors
    ///
    /// [`NetlistError::CombinationalCycle`].
    pub fn try_topo_order(&mut self, netlist: &Netlist) -> Result<Arc<Vec<CompId>>, NetlistError> {
        if self.topo.is_none() {
            self.topo = Some(Arc::new(netlist.try_topo_order()?));
        }
        Ok(self.topo.as_ref().expect("just filled").clone())
    }

    /// Caches `levels` as `netlist`'s ASAP levels if one scan shows they
    /// are (see [`Netlist::levels_hold`]); otherwise drops them, and
    /// returns whether they were kept. Call on freshly invalidated
    /// caches, right after the mutation `levels` describe.
    pub(crate) fn hand_forward_levels(&mut self, netlist: &Netlist, levels: Vec<u32>) -> bool {
        let holds = netlist.levels_hold(&levels);
        if holds {
            self.levels = Some(Arc::new(levels));
        }
        holds
    }

    /// The levels currently cached, for tests that check what a pass
    /// left behind.
    #[cfg(test)]
    pub(crate) fn cached_levels(&self) -> Option<&[u32]> {
        self.levels.as_deref().map(Vec::as_slice)
    }

    /// Cached [`Netlist::levels`] (reuses the cached topological order).
    pub fn levels(&mut self, netlist: &Netlist) -> Arc<Vec<u32>> {
        self.try_levels(netlist)
            .unwrap_or_else(|e| panic!("combinational cycle: {e}"))
    }

    /// Cached fallible [`Netlist::levels`].
    ///
    /// # Errors
    ///
    /// [`NetlistError::CombinationalCycle`].
    pub fn try_levels(&mut self, netlist: &Netlist) -> Result<Arc<Vec<u32>>, NetlistError> {
        if self.levels.is_none() {
            let order = self.try_topo_order(netlist)?;
            self.levels = Some(Arc::new(
                netlist.levels_from_order(&order, &DelayWeights::UNIT),
            ));
        }
        Ok(self.levels.as_ref().expect("just filled").clone())
    }

    /// Cached [`Netlist::fanout_edges`].
    pub fn fanout_edges(&mut self, netlist: &Netlist) -> Arc<FanoutEdges> {
        self.fanout_edges
            .get_or_insert_with(|| Arc::new(netlist.fanout_edges()))
            .clone()
    }

    /// Cached [`Netlist::fanout_counts`].
    pub fn fanout_counts(&mut self, netlist: &Netlist) -> Arc<Vec<u32>> {
        self.fanout_counts
            .get_or_insert_with(|| Arc::new(netlist.fanout_counts()))
            .clone()
    }

    /// Cached [`EvalArena`] for `netlist` — one flattening shared by
    /// every evaluation consumer of this snapshot (word sweeps, the
    /// differential engine's parallel workers, instrumentation).
    pub fn eval_arena(&mut self, netlist: &Netlist) -> Arc<EvalArena> {
        self.try_eval_arena(netlist)
            .unwrap_or_else(|e| panic!("combinational cycle: {e}"))
    }

    /// Cached fallible [`EvalArena`] construction.
    ///
    /// # Errors
    ///
    /// [`NetlistError::CombinationalCycle`].
    pub fn try_eval_arena(&mut self, netlist: &Netlist) -> Result<Arc<EvalArena>, NetlistError> {
        if self.eval_arena.is_none() {
            self.eval_arena = Some(Arc::new(EvalArena::try_new(netlist)?));
        }
        Ok(self.eval_arena.as_ref().expect("just filled").clone())
    }

    /// Cached [`Netlist::depth`] (reuses the cached levels).
    pub fn depth(&mut self, netlist: &Netlist) -> u32 {
        self.try_depth(netlist)
            .unwrap_or_else(|e| panic!("combinational cycle: {e}"))
    }

    /// Cached fallible [`Netlist::depth`].
    ///
    /// # Errors
    ///
    /// [`NetlistError::CombinationalCycle`].
    pub fn try_depth(&mut self, netlist: &Netlist) -> Result<u32, NetlistError> {
        if self.depth.is_none() {
            let levels = self.try_levels(netlist)?;
            self.depth = Some(netlist.depth_from_levels(&levels));
        }
        Ok(self.depth.expect("just filled"))
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist `{}`: i/o {}/{}, {}, depth {}",
            self.name,
            self.inputs.len(),
            self.outputs.len(),
            self.counts(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and_netlist() -> Netlist {
        let mut n = Netlist::new("and");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let k0 = n.add_const(false);
        let g = n.add_maj([a, b, k0]);
        n.add_output("f", g);
        n
    }

    #[test]
    fn const_cells_are_shared() {
        let mut n = Netlist::new("c");
        let k0 = n.add_const(false);
        let k0b = n.add_const(false);
        let k1 = n.add_const(true);
        assert_eq!(k0, k0b);
        assert_ne!(k0, k1);
        assert_eq!(n.counts().consts, 2);
    }

    #[test]
    fn and_gate_eval() {
        let n = and_netlist();
        assert_eq!(n.eval(&[true, true]), vec![true]);
        assert_eq!(n.eval(&[true, false]), vec![false]);
        assert_eq!(n.eval(&[false, true]), vec![false]);
    }

    #[test]
    fn word_eval_matches_scalar_eval_exhaustively() {
        // AND gate plus an inverter chain: all 4 patterns in one block.
        let mut n = and_netlist();
        let g = n.outputs()[0].driver;
        let inv = n.add_inv(g);
        n.add_output("nf", inv);
        // words: input 0 = 0b1010, input 1 = 0b1100 (patterns 0..4).
        let out = n.eval_words(&[0b1010, 0b1100]);
        for p in 0..4u64 {
            let bits = vec![p & 1 != 0, p >> 1 & 1 != 0];
            let scalar = n.eval(&bits);
            assert_eq!(scalar[0], out[0] >> p & 1 != 0, "pattern {p}");
            assert_eq!(scalar[1], out[1] >> p & 1 != 0, "pattern {p}");
        }
        assert_eq!(
            n.try_eval_wide(&[0], 1),
            Err(NetlistError::WidthMismatch {
                inputs: 2,
                pattern: 1
            })
        );
    }

    #[test]
    fn const_fanin_does_not_add_depth() {
        let n = and_netlist();
        assert_eq!(n.depth(), 1);
        let levels = n.levels();
        let g = n.outputs()[0].driver;
        assert_eq!(levels[g.index()], 1);
    }

    #[test]
    fn inverter_and_buffer_chain_levels() {
        let mut n = Netlist::new("chain");
        let a = n.add_input("a");
        let inv = n.add_inv(a);
        let buf = n.add_buf(inv);
        let fog = n.add_fog(buf);
        n.add_output("f", fog);
        let levels = n.levels();
        assert_eq!(levels[inv.index()], 1);
        assert_eq!(levels[buf.index()], 2);
        assert_eq!(levels[fog.index()], 3);
        assert_eq!(n.depth(), 3);
        assert_eq!(n.eval(&[true]), vec![false]);
        assert_eq!(n.eval(&[false]), vec![true]);
    }

    #[test]
    fn topo_order_handles_forward_edges() {
        // Build a netlist, then retarget an edge to a later component,
        // as the transforms do.
        let mut n = Netlist::new("fwd");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let k0 = n.add_const(false);
        let g = n.add_maj([a, b, k0]);
        n.add_output("f", g);
        // Insert a buffer *after* g in the arena, feeding g's slot 0.
        let buf = n.add_buf(a);
        n.component_mut(g).fanins_mut()[0] = buf;
        let order = n.topo_order();
        let pos = |id: CompId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(buf) < pos(g));
        assert!(pos(a) < pos(buf));
        assert_eq!(n.depth(), 2);
        assert_eq!(n.eval(&[true, true]), vec![true]);
    }

    #[test]
    fn fanout_counts_include_outputs_and_ignore_consts() {
        let mut n = Netlist::new("fo");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let k0 = n.add_const(false);
        let g1 = n.add_maj([a, b, k0]);
        let g2 = n.add_maj([a, g1, k0]);
        n.add_output("f", g2);
        n.add_output("g", g1);
        let counts = n.fanout_counts();
        assert_eq!(counts[a.index()], 2);
        assert_eq!(counts[g1.index()], 2); // g2 + output
        assert_eq!(counts[g2.index()], 1);
        assert_eq!(counts[k0.index()], 0, "constants are not driven nets");
        assert_eq!(n.max_fanout(), 2);
    }

    #[test]
    fn counts_and_display() {
        let mut n = Netlist::new("k");
        let a = n.add_input("a");
        let inv = n.add_inv(a);
        let buf = n.add_buf(inv);
        n.add_output("o", buf);
        let c = n.counts();
        assert_eq!(c.inputs, 1);
        assert_eq!(c.inv, 1);
        assert_eq!(c.buf, 1);
        assert_eq!(c.priced_total(), 2);
        assert!(n.to_string().contains("depth 2"));
    }

    #[test]
    fn sweep_drops_dangling_logic() {
        let mut n = Netlist::new("dangle");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let k0 = n.add_const(false);
        let live = n.add_maj([a, b, k0]);
        let dead_inv = n.add_inv(a);
        let _dead_buf = n.add_buf(dead_inv);
        n.add_output("f", live);
        assert_eq!(n.counts().inv, 1);
        let swept = n.sweep();
        assert_eq!(swept.counts().inv, 0);
        assert_eq!(swept.counts().buf, 0);
        assert_eq!(swept.counts().maj, 1);
        assert_eq!(swept.inputs().len(), 2, "ports survive even if unused");
        assert_eq!(swept.eval(&[true, true]), n.eval(&[true, true]));
        assert_eq!(swept.eval(&[true, false]), n.eval(&[true, false]));
    }

    #[test]
    fn sweep_preserves_everything_when_all_live() {
        let mut n = Netlist::new("full");
        let a = n.add_input("a");
        let inv = n.add_inv(a);
        let buf = n.add_buf(inv);
        n.add_output("o", buf);
        let swept = n.sweep();
        assert_eq!(swept.counts(), n.counts());
        assert_eq!(swept.depth(), n.depth());
    }

    #[test]
    fn validate_accepts_well_formed_netlists() {
        let n = and_netlist();
        assert_eq!(n.validate(), Ok(()));
    }

    #[test]
    fn validate_reports_dangling_fanin() {
        let mut n = and_netlist();
        let g = n.outputs()[0].driver;
        n.component_mut(g).fanins_mut()[0] = CompId::from_index(999);
        let err = n.validate().unwrap_err();
        assert!(err.contains("missing fan-in"), "{err}");
    }

    #[test]
    #[should_panic(expected = "not a component")]
    fn set_output_driver_rejects_dangling_ids() {
        let mut n = and_netlist();
        n.set_output_driver(0, CompId::from_index(999));
    }

    #[test]
    fn structural_caches_match_fresh_computation_and_invalidate() {
        let mut n = and_netlist();
        let mut caches = StructuralCaches::default();
        assert_eq!(*caches.topo_order(&n), n.topo_order());
        assert_eq!(*caches.levels(&n), n.levels());
        assert_eq!(*caches.fanout_edges(&n), n.fanout_edges());
        assert_eq!(*caches.fanout_counts(&n), n.fanout_counts());
        assert_eq!(caches.depth(&n), n.depth());

        // Mutate, invalidate, and the views track the new structure.
        let g = n.outputs()[0].driver;
        let buf = n.add_buf(g);
        n.set_output_driver(0, buf);
        caches.invalidate();
        assert_eq!(caches.depth(&n), 2);
        assert_eq!(*caches.levels(&n), n.levels());
    }

    #[test]
    fn flat_fanout_edges_keep_consumer_then_slot_order() {
        let mut n = and_netlist();
        let a = n.inputs()[0];
        let g = n.outputs()[0].driver;
        let g2 = n.add_maj([g, a, a]);
        // A forward edge: an earlier component reads a later one.
        let buf = n.add_buf(a);
        n.component_mut(g).fanins_mut()[1] = buf;
        let edges = n.fanout_edges();
        assert_eq!(edges.len(), n.len());
        assert_eq!(edges[a.index()], [(g, 0), (g2, 1), (g2, 2), (buf, 0)]);
        assert_eq!(edges[buf.index()], [(g, 1)]);
        assert!(edges[g2.index()].is_empty());
        assert!(Netlist::new("empty").fanout_edges().is_empty());
    }

    #[test]
    fn handed_forward_views_are_checked_before_they_are_cached() {
        let mut n = and_netlist();
        let g = n.outputs()[0].driver;
        let buf = n.add_buf(g);
        n.set_output_driver(0, buf);
        let levels = n.levels();

        // Corrupted level vectors: one level off, a constant-only
        // shortcut, a wrong length. Each falls back, caches nothing,
        // and the next reader recomputes from scratch.
        let mut off = levels.clone();
        off[buf.index()] += 1;
        let mut zero = levels.clone();
        zero[g.index()] = 0;
        for bad in [off, zero, levels[..2].to_vec()] {
            let mut caches = StructuralCaches::default();
            assert!(!caches.hand_forward_levels(&n, bad));
            assert_eq!(caches.cached_levels(), None);
            assert_eq!(*caches.levels(&n), levels);
            assert_eq!(caches.depth(&n), 2);
        }
        let mut caches = StructuralCaches::default();
        assert!(caches.hand_forward_levels(&n, levels.clone()));
        assert_eq!(caches.cached_levels(), Some(&levels[..]));

        // No level vector passes on a cycle, which still surfaces.
        let mut cyc = Netlist::new("cyc");
        let a = cyc.add_input("a");
        let b1 = cyc.add_buf(a);
        let b2 = cyc.add_buf(b1);
        cyc.component_mut(b1).fanins_mut()[0] = b2;
        cyc.add_output("f", b2);
        let mut caches = StructuralCaches::default();
        for bad in [vec![0, 1, 2], vec![0, 2, 1], vec![0, 0, 0]] {
            assert!(!caches.hand_forward_levels(&cyc, bad));
        }
        assert!(matches!(
            caches.try_depth(&cyc),
            Err(NetlistError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn fallible_accessors_report_instead_of_panicking() {
        let mut n = and_netlist();
        assert_eq!(
            n.try_eval(&[true]),
            Err(NetlistError::WidthMismatch {
                inputs: 2,
                pattern: 1
            })
        );
        assert_eq!(n.try_eval(&[true, true]), Ok(vec![true]));
        assert_eq!(
            n.try_set_output_driver(0, CompId::from_index(999)),
            Err(NetlistError::DanglingDriver {
                driver: CompId::from_index(999),
                len: n.len()
            })
        );
        let g = n.outputs()[0].driver;
        assert_eq!(
            n.try_set_output_driver(5, g),
            Err(NetlistError::NoSuchOutput {
                position: 5,
                outputs: 1
            })
        );
        assert_eq!(n.try_set_output_driver(0, g), Ok(()));

        // A cycle surfaces through the whole fallible stack.
        let mut cyc = Netlist::new("cyc");
        let a = cyc.add_input("a");
        let b1 = cyc.add_buf(a);
        let b2 = cyc.add_buf(b1);
        cyc.component_mut(b1).fanins_mut()[0] = b2;
        cyc.add_output("f", b2);
        assert!(matches!(
            cyc.try_topo_order(),
            Err(NetlistError::CombinationalCycle(_))
        ));
        assert!(matches!(
            cyc.try_eval(&[true]),
            Err(NetlistError::CombinationalCycle(_))
        ));
        let mut caches = StructuralCaches::default();
        assert!(caches.try_depth(&cyc).is_err());
        assert!(caches.try_levels(&cyc).is_err());
        assert!(cyc
            .try_topo_order()
            .unwrap_err()
            .to_string()
            .contains("cycle"));
    }

    #[test]
    #[should_panic(expected = "combinational cycle")]
    fn cycle_detection() {
        let mut n = Netlist::new("cyc");
        let a = n.add_input("a");
        let buf1 = n.add_buf(a);
        let buf2 = n.add_buf(buf1);
        n.component_mut(buf1).fanins_mut()[0] = buf2;
        n.add_output("f", buf2);
        let _ = n.topo_order();
    }
}
