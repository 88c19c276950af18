//! The diagnostic vocabulary of the lint subsystem: severities,
//! categories and the [`Diagnostic`] record every rule emits.
//!
//! Diagnostics are machine-readable: each carries a stable rule code
//! (`WP0xx` netlist legality, `MIG0xx` graph hygiene, `SPEC0xx`
//! spec/cost), and the whole record serializes to JSON through the
//! vendored serde derives, so `wavecheck --json` reports and golden
//! tests pin the exact shape.

use std::fmt;

use serde::{Deserialize, Serialize};

/// How bad a finding is.
///
/// Ordered: `Info < Warning < Error`, so severity thresholds can be
/// expressed with plain comparisons.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Severity {
    /// Informational observation; never fails anything.
    Info,
    /// A smell worth fixing; gates and CI treat it as non-fatal.
    Warning,
    /// A legality violation: the artifact cannot wave-pipeline (or the
    /// spec cannot produce meaningful results). Gates fail on these.
    Error,
}

impl Severity {
    /// Stable lowercase name used in reports and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which artifact layer a rule inspects.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Category {
    /// Mapped/pipelined netlist legality (`WP0xx`).
    Netlist,
    /// Source-MIG hygiene (`MIG0xx`).
    Graph,
    /// Flow-spec and cost-table checks (`SPEC0xx`).
    Spec,
}

impl Category {
    /// Stable lowercase name used in reports and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Netlist => "netlist",
            Category::Graph => "graph",
            Category::Spec => "spec",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding of one lint rule.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable rule code (`WP001`, `MIG003`, `SPEC002`, …).
    pub code: String,
    /// Severity of this finding.
    pub severity: Severity,
    /// Layer the rule inspects.
    pub category: Category,
    /// Human-readable description of the finding.
    pub message: String,
    /// What was linted: the netlist/graph/spec name.
    pub subject: String,
    /// Where inside the subject, when the rule can point at one place:
    /// a component id (`c42`), a MIG node (`n7`), an output port name,
    /// a pass position (`passes[2]`) or a technology name. Omitted from
    /// the JSON when absent.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub provenance: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.severity, self.code)?;
        if !self.subject.is_empty() {
            write!(f, " [{}", self.subject)?;
            if let Some(at) = &self.provenance {
                write!(f, " @ {at}")?;
            }
            write!(f, "]")?;
        } else if let Some(at) = &self.provenance {
            write!(f, " [@ {at}]")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The diagnostic set a lint gate tripped on, carried by
/// [`crate::PassError::Lint`] with the offending pass's name.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct LintFailure {
    /// The pass after which the gate fired.
    pub pass: String,
    /// The error-severity diagnostics that tripped the gate.
    pub diagnostics: Vec<Diagnostic>,
}

impl fmt::Display for LintFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let first = self
            .diagnostics
            .first()
            .map(|d| d.to_string())
            .unwrap_or_else(|| "no diagnostics recorded".to_owned());
        write!(
            f,
            "lint gate after pass `{}`: {} error diagnostic(s); first: {first}",
            self.pass,
            self.diagnostics.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            code: "WP001".to_owned(),
            severity: Severity::Error,
            category: Category::Netlist,
            message: "path imbalance".to_owned(),
            subject: "fa".to_owned(),
            provenance: Some("c7".to_owned()),
        }
    }

    #[test]
    fn severities_order() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn diagnostics_round_trip_json() {
        for d in [
            sample(),
            Diagnostic {
                provenance: None,
                severity: Severity::Warning,
                category: Category::Graph,
                ..sample()
            },
        ] {
            let json = serde_json::to_string(&d).expect("serialize");
            let back: Diagnostic =
                Deserialize::from_value(&serde_json::from_str(&json).expect("parse"))
                    .expect("deserialize");
            assert_eq!(back, d);
            // The optional field is omitted, not null.
            assert_eq!(json.contains("provenance"), d.provenance.is_some());
        }
    }

    #[test]
    fn display_is_compact() {
        let d = sample();
        assert_eq!(d.to_string(), "error WP001 [fa @ c7]: path imbalance");
    }

    /// Text reports spell names through `as_str`, JSON through the
    /// derived codec; every variant must come out the same both ways.
    #[test]
    fn as_str_matches_the_derived_codec() {
        fn same<T: Serialize>(value: T, name: &str) {
            assert_eq!(
                serde_json::to_string(&value).unwrap(),
                format!("\"{name}\"")
            );
        }
        for severity in [Severity::Info, Severity::Warning, Severity::Error] {
            same(severity, severity.as_str());
        }
        for category in [Category::Netlist, Category::Graph, Category::Spec] {
            same(category, category.as_str());
        }
    }
}
