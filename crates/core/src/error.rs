//! The unified error surface of the engine-facade API.
//!
//! Everything a [`crate::Engine`] run can reject or fail with folds
//! into one [`FlowError`] hierarchy: spec validation
//! ([`crate::SpecError`]), pipeline assembly
//! ([`crate::PipelineError`]) and pass execution
//! ([`crate::PassError`], which itself absorbs balancing and
//! structural [`crate::NetlistError`] failures). Every layer implements
//! `std::error::Error + Display` with `source()` chaining, so no user
//! input — malformed specs, unknown benchmarks, ill-ordered pass lists,
//! unverifiable netlists, even custom passes that wire combinational
//! cycles — can panic the library.

use std::fmt;

use crate::pipeline::{PassError, PipelineError};
use crate::spec::SpecError;

/// Any failure an [`crate::Engine`] run can produce, by layer.
#[derive(Clone, Debug, PartialEq)]
pub enum FlowError {
    /// The [`crate::FlowSpec`] was rejected before anything ran.
    Spec(SpecError),
    /// The pre-run spec lint ([`crate::lint_spec`]) found error-severity
    /// diagnostics — e.g. a cost table whose phase delay cannot time a
    /// wave. Carries only the error-severity findings.
    Lint(Vec<crate::lint::Diagnostic>),
    /// The spec's pass list violates the pipeline ordering rules.
    Pipeline(PipelineError),
    /// A pass failed while executing.
    Pass(PassError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Spec(e) => write!(f, "invalid flow spec: {e}"),
            FlowError::Lint(diagnostics) => {
                let first = diagnostics
                    .first()
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "no diagnostics recorded".to_owned());
                write!(
                    f,
                    "spec lint rejected the run: {} error diagnostic(s); first: {first}",
                    diagnostics.len()
                )
            }
            FlowError::Pipeline(e) => write!(f, "invalid pipeline: {e}"),
            FlowError::Pass(e) => write!(f, "flow run failed: {e}"),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Spec(e) => Some(e),
            FlowError::Lint(_) => None,
            FlowError::Pipeline(e) => Some(e),
            FlowError::Pass(e) => Some(e),
        }
    }
}

impl From<SpecError> for FlowError {
    fn from(e: SpecError) -> FlowError {
        FlowError::Spec(e)
    }
}

impl From<PipelineError> for FlowError {
    fn from(e: PipelineError) -> FlowError {
        FlowError::Pipeline(e)
    }
}

impl From<PassError> for FlowError {
    fn from(e: PassError) -> FlowError {
        FlowError::Pass(e)
    }
}

impl From<crate::balance::BalanceError> for FlowError {
    fn from(e: crate::balance::BalanceError) -> FlowError {
        FlowError::Pass(PassError::Balance(e))
    }
}

impl From<crate::netlist::NetlistError> for FlowError {
    fn from(e: crate::netlist::NetlistError) -> FlowError {
        FlowError::Pass(PassError::Netlist(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn displays_and_chains_sources() {
        let e = FlowError::from(PipelineError::Empty);
        assert!(e.to_string().contains("invalid pipeline"));
        assert!(e.source().is_some());

        let e = FlowError::from(crate::netlist::NetlistError::WidthMismatch {
            inputs: 3,
            pattern: 2,
        });
        assert!(matches!(&e, FlowError::Pass(PassError::Netlist(_))));
        assert!(e.source().unwrap().source().is_some(), "two-level chain");
    }
}
