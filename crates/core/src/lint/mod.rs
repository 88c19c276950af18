//! # Static analysis: wave-pipelining legality and hygiene lints
//!
//! The dynamic checks of the flow (differential simulation, the verify
//! pass) *sample* behavior; this module proves or refutes the paper's
//! structural legality conditions without simulating anything. A
//! [`LintRule`] inspects one artifact layer through a [`LintContext`]
//! and emits machine-readable [`Diagnostic`]s with stable codes:
//!
//! | Code range | Category | Layer |
//! |---|---|---|
//! | `WP0xx` | [`Category::Netlist`] | mapped/pipelined netlist legality |
//! | `MIG0xx` | [`Category::Graph`] | source-MIG hygiene |
//! | `SPEC0xx` | [`Category::Spec`] | flow-spec / cost-table checks |
//!
//! Three integration points:
//!
//! * [`FlowPipelineBuilder::gate_lints`](crate::FlowPipelineBuilder::gate_lints)
//!   (the builder takes the same [`PassSpec`](crate::PassSpec)s as a
//!   [`PipelineSpec`](crate::PipelineSpec), via
//!   [`then`](crate::FlowPipelineBuilder::then))
//!   re-lints the working netlist after every pass and fails the run
//!   with [`PassError::Lint`](crate::PassError::Lint) on error-severity
//!   findings (rules are chosen by pipeline progress: structural rules
//!   always, the fan-out rule once restriction ran, the balance rules
//!   once buffer insertion ran).
//! * [`Engine::run_streaming`](crate::Engine::run_streaming) lints the
//!   [`FlowSpec`] before anything executes and rejects
//!   error-severity findings with
//!   [`FlowError::Lint`](crate::FlowError::Lint).
//! * The `wavecheck` binary (in `crates/bench`) lints any benchmark
//!   name, `synth:` grammar circuit, inline MIG text or spec file and
//!   emits human or `--json` reports.
//!
//! Entry points for library users: [`lint_netlist`], [`lint_mig`],
//! [`lint_spec`], or a hand-assembled [`LintDriver`].

use std::cell::RefCell;
use std::sync::Arc;

use mig::Mig;

use crate::cost::CostTable;
use crate::netlist::{Netlist, NetlistError, StructuralCaches};
use crate::spec::FlowSpec;
use crate::CompId;

pub mod diagnostics;
mod driver;
pub mod rules;

pub use diagnostics::{Category, Diagnostic, LintFailure, Severity};
pub use driver::{
    lint_mig, lint_netlist, lint_spec, LintDriver, LintReport, LintTotals, SubjectReport,
    LINT_SCHEMA_VERSION,
};

/// Everything a rule may inspect. Every field is optional: a rule whose
/// subject is absent returns no diagnostics, so one driver can run any
/// rule set over any artifact combination.
#[derive(Debug, Default)]
pub struct LintContext<'a> {
    netlist: Option<&'a Netlist>,
    graph: Option<&'a Mig>,
    spec: Option<&'a FlowSpec>,
    cost: Option<&'a CostTable>,
    fanout_limit: Option<u32>,
    caches: RefCell<StructuralCaches>,
}

impl<'a> LintContext<'a> {
    /// An empty context; chain `with_*` builders to populate it.
    pub fn new() -> LintContext<'a> {
        LintContext::default()
    }

    /// Lints `netlist` (enables the `WP0xx` rules).
    pub fn with_netlist(mut self, netlist: &'a Netlist) -> LintContext<'a> {
        self.netlist = Some(netlist);
        self.caches = RefCell::new(StructuralCaches::default());
        self
    }

    /// Lints `graph` (enables the `MIG0xx` rules).
    pub fn with_graph(mut self, graph: &'a Mig) -> LintContext<'a> {
        self.graph = Some(graph);
        self
    }

    /// Lints `spec` (enables the `SPEC0xx` rules).
    pub fn with_spec(mut self, spec: &'a FlowSpec) -> LintContext<'a> {
        self.spec = Some(spec);
        self
    }

    /// A cost table to check (in addition to any the spec carries).
    pub fn with_cost(mut self, cost: &'a CostTable) -> LintContext<'a> {
        self.cost = Some(cost);
        self
    }

    /// The configured §IV fan-out limit the netlist must respect
    /// (enables `WP003`).
    pub fn with_fanout_limit(mut self, limit: Option<u32>) -> LintContext<'a> {
        self.fanout_limit = limit;
        self
    }

    /// The netlist under lint, if any.
    pub fn netlist(&self) -> Option<&'a Netlist> {
        self.netlist
    }

    /// The MIG under lint, if any.
    pub fn graph(&self) -> Option<&'a Mig> {
        self.graph
    }

    /// The spec under lint, if any.
    pub fn spec(&self) -> Option<&'a FlowSpec> {
        self.spec
    }

    /// The standalone cost table under lint, if any.
    pub fn cost(&self) -> Option<&'a CostTable> {
        self.cost
    }

    /// The configured fan-out limit, if any.
    pub fn fanout_limit(&self) -> Option<u32> {
        self.fanout_limit
    }

    /// The name of whatever is being linted, for diagnostic subjects.
    pub fn subject(&self) -> String {
        if let Some(n) = self.netlist {
            n.name().to_owned()
        } else if let Some(g) = self.graph {
            g.name().to_owned()
        } else if let Some(s) = self.spec {
            s.name.clone()
        } else if let Some(c) = self.cost {
            c.name().to_owned()
        } else {
            String::new()
        }
    }

    /// Whether every fan-in and output-driver reference of the netlist
    /// is in bounds. The traversal helpers below index by component id,
    /// so on a malformed netlist (WP005's finding) they must bail out
    /// instead of panicking the linter.
    fn netlist_refs_in_bounds(&self, netlist: &Netlist) -> bool {
        let n = netlist.len();
        netlist
            .ids()
            .all(|id| netlist.component(id).fanins().iter().all(|f| f.index() < n))
            && netlist.outputs().iter().all(|p| p.driver.index() < n)
    }

    /// Cached topological order of the netlist under lint. `None` when
    /// no netlist is attached or the netlist holds out-of-bounds
    /// references (WP005 reports those); `Some(Err(_))` on a
    /// combinational cycle (which `WP004` reports — order-dependent
    /// rules skip then).
    pub fn try_topo_order(&self) -> Option<Result<Arc<Vec<CompId>>, NetlistError>> {
        let netlist = self.netlist?;
        if !self.netlist_refs_in_bounds(netlist) {
            return None;
        }
        Some(self.caches.borrow_mut().try_topo_order(netlist))
    }

    /// Cached ASAP levels of the netlist under lint (`None` when
    /// absent, malformed or cyclic).
    pub fn levels(&self) -> Option<Arc<Vec<u32>>> {
        let netlist = self.netlist?;
        if !self.netlist_refs_in_bounds(netlist) {
            return None;
        }
        self.caches.borrow_mut().try_levels(netlist).ok()
    }

    /// Cached fan-out counts of the netlist under lint (`None` when
    /// absent or malformed).
    pub fn fanout_counts(&self) -> Option<Arc<Vec<u32>>> {
        let netlist = self.netlist?;
        if !self.netlist_refs_in_bounds(netlist) {
            return None;
        }
        Some(self.caches.borrow_mut().fanout_counts(netlist))
    }
}

/// One static check with a stable code.
///
/// Implementations are stateless unit structs registered in
/// [`LintDriver::all`]; `check` inspects whatever slice of the
/// [`LintContext`] the rule cares about and returns zero or more
/// [`Diagnostic`]s (always zero when the rule's subject is absent from
/// the context).
///
/// ```
/// use wavepipe::lint::{Category, Diagnostic, LintContext, LintRule, Severity};
///
/// /// Flags netlists with no outputs at all.
/// #[derive(Debug)]
/// struct NoOutputs;
///
/// impl LintRule for NoOutputs {
///     fn id(&self) -> &'static str {
///         "WP900"
///     }
///     fn category(&self) -> Category {
///         Category::Netlist
///     }
///     fn severity(&self) -> Severity {
///         Severity::Warning
///     }
///     fn description(&self) -> &'static str {
///         "netlist drives no outputs"
///     }
///     fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
///         match ctx.netlist() {
///             Some(n) if n.outputs().is_empty() => {
///                 vec![self.diagnostic(ctx, "no outputs declared".to_owned(), None)]
///             }
///             _ => Vec::new(),
///         }
///     }
/// }
///
/// let netlist = wavepipe::Netlist::new("empty");
/// let ctx = LintContext::new().with_netlist(&netlist);
/// assert_eq!(NoOutputs.check(&ctx).len(), 1);
/// ```
pub trait LintRule: Send + Sync {
    /// Stable rule code (`WP001`, `MIG003`, `SPEC002`, …). Codes are
    /// part of the report schema; never renumber an existing rule.
    fn id(&self) -> &'static str;

    /// The artifact layer this rule inspects.
    fn category(&self) -> Category;

    /// Severity of every diagnostic this rule emits.
    fn severity(&self) -> Severity;

    /// One-line description for rule listings and docs.
    fn description(&self) -> &'static str;

    /// Runs the rule. Must return an empty vector when the context
    /// lacks the rule's subject.
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic>;

    /// Builds a diagnostic pre-filled with this rule's code, severity,
    /// category and the context's subject name.
    fn diagnostic(
        &self,
        ctx: &LintContext<'_>,
        message: String,
        provenance: Option<String>,
    ) -> Diagnostic {
        Diagnostic {
            code: self.id().to_owned(),
            severity: self.severity(),
            category: self.category(),
            message,
            subject: ctx.subject(),
            provenance,
        }
    }
}
