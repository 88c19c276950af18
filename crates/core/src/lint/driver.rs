//! The rule registry and the report types `wavecheck --json` emits.

use std::fmt;

use crate::lint::rules::{mig as mig_rules, netlist as netlist_rules, spec as spec_rules};
use crate::lint::{Diagnostic, LintContext, LintRule, Severity};

/// Schema version stamped into every [`LintReport`]; bump on any
/// field-shape change (the golden schema test pins the current shape).
pub const LINT_SCHEMA_VERSION: u32 = 1;

/// A configured set of rules to run over a [`LintContext`].
pub struct LintDriver {
    rules: Vec<Box<dyn LintRule>>,
}

impl fmt::Debug for LintDriver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LintDriver")
            .field("rules", &self.codes())
            .finish()
    }
}

impl Default for LintDriver {
    fn default() -> LintDriver {
        LintDriver::all()
    }
}

impl LintDriver {
    /// Every built-in rule, in code order.
    pub fn all() -> LintDriver {
        LintDriver {
            rules: vec![
                Box::new(netlist_rules::PathBalance),
                Box::new(netlist_rules::OutputAlignment),
                Box::new(netlist_rules::FanoutLimit),
                Box::new(netlist_rules::CombinationalCycle),
                Box::new(netlist_rules::MalformedStructure),
                Box::new(netlist_rules::UnreachableComponents),
                Box::new(netlist_rules::RedundantCells),
                Box::new(mig_rules::ReducibleGates),
                Box::new(mig_rules::StrashDuplicates),
                Box::new(mig_rules::DeadNodes),
                Box::new(mig_rules::LevelInconsistency),
                Box::new(spec_rules::PipelineSmells),
                Box::new(spec_rules::CostCompleteness),
                Box::new(spec_rules::DuplicateCircuits),
            ],
        }
    }

    /// The subset of built-in rules whose codes appear in `codes`
    /// (unknown codes are ignored).
    pub fn with_codes(codes: &[&str]) -> LintDriver {
        let mut all = LintDriver::all();
        all.rules.retain(|r| codes.contains(&r.id()));
        LintDriver { rules: all.rules }
    }

    /// The codes of the configured rules, in registry order.
    pub fn codes(&self) -> Vec<&'static str> {
        self.rules.iter().map(|r| r.id()).collect()
    }

    /// The configured rules.
    pub fn rules(&self) -> impl Iterator<Item = &dyn LintRule> {
        self.rules.iter().map(Box::as_ref)
    }

    /// Runs every configured rule over `ctx`, most severe findings
    /// first (stable within one severity: registry rule order).
    pub fn run(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let mut diagnostics: Vec<Diagnostic> =
            self.rules.iter().flat_map(|rule| rule.check(ctx)).collect();
        diagnostics.sort_by_key(|d| std::cmp::Reverse(d.severity));
        diagnostics
    }
}

/// Lints one netlist with every `WP0xx` rule. Pass the configured §IV
/// fan-out limit to enable `WP003`.
pub fn lint_netlist(netlist: &crate::Netlist, fanout_limit: Option<u32>) -> Vec<Diagnostic> {
    let ctx = LintContext::new()
        .with_netlist(netlist)
        .with_fanout_limit(fanout_limit);
    LintDriver::all().run(&ctx)
}

/// Lints one MIG with every `MIG0xx` rule.
pub fn lint_mig(graph: &mig::Mig) -> Vec<Diagnostic> {
    let ctx = LintContext::new().with_graph(graph);
    LintDriver::all().run(&ctx)
}

/// Lints one flow spec (pass list, circuits, technology tables) with
/// every `SPEC0xx` rule — the same check [`crate::Engine::run_streaming`]
/// performs before executing a spec.
pub fn lint_spec(spec: &crate::FlowSpec) -> Vec<Diagnostic> {
    let ctx = LintContext::new().with_spec(spec);
    LintDriver::all().run(&ctx)
}

/// Severity tallies of one report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct LintTotals {
    /// Error-severity diagnostics.
    pub errors: u64,
    /// Warning-severity diagnostics.
    pub warnings: u64,
    /// Info-severity diagnostics.
    pub infos: u64,
}

impl LintTotals {
    /// Tallies a diagnostic set.
    pub fn of(diagnostics: &[Diagnostic]) -> LintTotals {
        let mut totals = LintTotals::default();
        for d in diagnostics {
            match d.severity {
                Severity::Error => totals.errors += 1,
                Severity::Warning => totals.warnings += 1,
                Severity::Info => totals.infos += 1,
            }
        }
        totals
    }
}

/// One linted subject (a circuit, a spec file) inside a [`LintReport`].
#[derive(Clone, Debug, serde::Serialize)]
pub struct SubjectReport {
    /// What was linted (benchmark name, `synth:` name, file path).
    pub subject: String,
    /// Every diagnostic, most severe first.
    pub diagnostics: Vec<Diagnostic>,
}

/// The machine-readable report `wavecheck --json` emits.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct LintReport {
    /// Report schema version ([`LINT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The §IV fan-out limit the netlists were checked against, if any.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fanout_limit: Option<u32>,
    /// Per-subject findings, in lint order.
    pub subjects: Vec<SubjectReport>,
    /// Severity tallies over all subjects.
    pub totals: LintTotals,
}

impl LintReport {
    /// Assembles a report from per-subject diagnostic sets, computing
    /// the totals and stamping the current schema version.
    pub fn new(fanout_limit: Option<u32>, subjects: Vec<SubjectReport>) -> LintReport {
        let mut totals = LintTotals::default();
        for s in &subjects {
            let t = LintTotals::of(&s.diagnostics);
            totals.errors += t.errors;
            totals.warnings += t.warnings;
            totals.infos += t.infos;
        }
        LintReport {
            schema_version: LINT_SCHEMA_VERSION,
            fanout_limit,
            subjects,
            totals,
        }
    }

    /// Whether the report carries no error-severity diagnostics.
    pub fn is_clean(&self) -> bool {
        self.totals.errors == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::Category;

    #[test]
    fn registry_codes_are_unique_and_complete() {
        let driver = LintDriver::all();
        let codes = driver.codes();
        assert_eq!(codes.len(), 14);
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), codes.len(), "duplicate rule code");
        for rule in driver.rules() {
            let prefix = match rule.category() {
                Category::Netlist => "WP",
                Category::Graph => "MIG",
                Category::Spec => "SPEC",
            };
            assert!(
                rule.id().starts_with(prefix),
                "{} should start with {prefix}",
                rule.id()
            );
            assert!(!rule.description().is_empty());
        }
    }

    #[test]
    fn with_codes_filters() {
        let driver = LintDriver::with_codes(&["WP001", "MIG003", "NOPE"]);
        assert_eq!(driver.codes(), ["WP001", "MIG003"]);
    }

    #[test]
    fn empty_context_is_silent() {
        assert!(LintDriver::all().run(&LintContext::new()).is_empty());
    }
}
