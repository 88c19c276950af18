//! The end-to-end wave-pipelining enablement flow:
//! MIG → mapped netlist → fan-out restriction → buffer insertion →
//! verified wave-ready netlist.
//!
//! This is the composition the paper evaluates (§V): fan-out restriction
//! must run **before** buffer insertion because splitting fan-out
//! changes path lengths (Fig 8's observation (a): the combined flow
//! inserts more buffers than either pass alone).
//!
//! Since the pass-pipeline refactor, [`run_flow`] is a thin
//! compatibility wrapper: it assembles the default
//! [`crate::FlowPipeline`] for the given [`FlowConfig`] and converts
//! the instrumented [`crate::PipelineRun`] back into the legacy
//! [`FlowResult`] shape. Whole suites run through the engine's grid
//! driver, [`crate::Engine::run_pipeline_grid`] with
//! [`crate::PipelineSpec::for_config`].

use mig::Mig;

use crate::balance::{BalanceError, BalanceReport};
use crate::buffer_insertion::BufferInsertion;
use crate::fanout_restriction::FanoutRestriction;
use crate::netlist::{KindCounts, Netlist};
use crate::pipeline::{PassError, PipelineRun};

/// Configuration of the enablement flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowConfig {
    /// Fan-out restriction limit (2–5), or `None` to skip restriction
    /// (the paper's BUF-only configuration of Fig 8).
    pub fanout_limit: Option<u32>,
    /// Whether to run buffer insertion (disable for the FOx-only
    /// configurations of Fig 8).
    pub insert_buffers: bool,
    /// Map with inversion-count minimization
    /// ([`crate::netlist_from_mig_min_inv`]) instead of the reference
    /// mapping — an extension beyond the paper (its reference \[20\]),
    /// off by default.
    pub minimize_inverters: bool,
}

impl Default for FlowConfig {
    /// The paper's benchmarking configuration: fan-out restriction to 3,
    /// then buffer insertion (§V).
    fn default() -> FlowConfig {
        FlowConfig {
            fanout_limit: Some(3),
            insert_buffers: true,
            minimize_inverters: false,
        }
    }
}

/// Everything the flow produced, for one MIG.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// The mapped netlist before any transformation (INV materialized).
    pub original: Netlist,
    /// The transformed netlist.
    pub pipelined: Netlist,
    /// Fan-out restriction statistics (if the pass ran).
    pub fanout: Option<FanoutRestriction>,
    /// Buffer insertion statistics (if the pass ran).
    pub buffers: Option<BufferInsertion>,
    /// Balance verification of the result (present when buffer insertion
    /// ran; the invariants cannot hold without it in general).
    pub report: Option<BalanceReport>,
}

impl FlowResult {
    /// Component counts of the original mapped netlist.
    pub fn original_counts(&self) -> KindCounts {
        self.original.counts()
    }

    /// Component counts of the transformed netlist.
    pub fn pipelined_counts(&self) -> KindCounts {
        self.pipelined.counts()
    }

    /// Size ratio pipelined / original (the normalized netlist size of
    /// Fig 8).
    pub fn size_ratio(&self) -> f64 {
        self.pipelined_counts().priced_total() as f64
            / self.original_counts().priced_total().max(1) as f64
    }
}

/// Runs the configured flow on `graph`.
///
/// # Errors
///
/// Returns a [`BalanceError`] if the resulting netlist fails
/// verification — which would indicate a bug in the transforms, not bad
/// input; the error is surfaced rather than panicking so harnesses can
/// report it.
///
/// # Examples
///
/// ```
/// use mig::Mig;
/// use wavepipe::{run_flow, FlowConfig};
///
/// # fn main() -> Result<(), wavepipe::BalanceError> {
/// let mut g = Mig::new();
/// let a = g.add_input("a");
/// let b = g.add_input("b");
/// let cin = g.add_input("cin");
/// let (s, c) = g.add_full_adder(a, b, cin);
/// g.add_output("s", s);
/// g.add_output("c", c);
///
/// let result = run_flow(&g, FlowConfig::default())?;
/// assert!(result.size_ratio() >= 1.0);
/// assert_eq!(result.report.unwrap().depth, result.pipelined.depth());
/// # Ok(())
/// # }
/// ```
pub fn run_flow(graph: &Mig, config: FlowConfig) -> Result<FlowResult, BalanceError> {
    // Deprecated-style thin wrapper: one uncached engine cell. Kept
    // bit-identical to the pipeline path (the golden tests pin it);
    // prefer [`crate::Engine::run`] with a [`crate::FlowSpec`] to get
    // caching and the full error surface.
    let engine = crate::engine::Engine::uncached();
    let outcome = engine
        .run_graph(graph, &crate::spec::PipelineSpec::for_config(config), None)
        .map(|run| {
            drop(engine); // release the engine's interest so the Arc unwraps
            std::sync::Arc::try_unwrap(run).unwrap_or_else(|shared| (*shared).clone())
        })
        .map_err(|e| match e {
            crate::error::FlowError::Pass(e) => e,
            other => unreachable!("config specs always validate: {other}"),
        });
    into_legacy(outcome)
}

/// Converts a pipeline outcome back into the legacy `run_flow` shape.
fn into_legacy(outcome: Result<PipelineRun, PassError>) -> Result<FlowResult, BalanceError> {
    match outcome {
        Ok(run) => Ok(run.result),
        Err(PassError::Balance(e)) => Err(e),
        Err(other) => {
            unreachable!("config-assembled pipelines only produce balance errors: {other}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wavesim::WaveSimulator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_mig(seed: u64) -> Mig {
        mig::random_mig(mig::RandomMigConfig {
            inputs: 12,
            outputs: 6,
            gates: 250,
            depth: 10,
            seed,
        })
    }

    #[test]
    fn default_flow_produces_wave_ready_netlist() {
        let g = sample_mig(1);
        let r = run_flow(&g, FlowConfig::default()).unwrap();
        assert!(r.report.is_some());
        assert!(r.pipelined.max_fanout() <= 3);
        assert!(r.size_ratio() > 1.0);
        assert!(r.fanout.unwrap().fogs_inserted > 0);
        assert!(r.buffers.unwrap().total() > 0);
    }

    #[test]
    fn flow_preserves_function_end_to_end() {
        let g = sample_mig(2);
        let r = run_flow(&g, FlowConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..64 {
            let bits: Vec<bool> = (0..12).map(|_| rng.gen()).collect();
            assert_eq!(r.original.eval(&bits), r.pipelined.eval(&bits));
        }
    }

    #[test]
    fn flow_result_streams_waves() {
        let g = sample_mig(4);
        let r = run_flow(&g, FlowConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let waves: Vec<Vec<bool>> = (0..25)
            .map(|_| (0..12).map(|_| rng.gen()).collect())
            .collect();
        let corrupted = WaveSimulator::new(&r.pipelined).check_against_golden(&waves);
        assert!(corrupted.is_empty());
    }

    #[test]
    fn buf_only_configuration() {
        let g = sample_mig(6);
        let r = run_flow(
            &g,
            FlowConfig {
                fanout_limit: None,
                insert_buffers: true,
                ..FlowConfig::default()
            },
        )
        .unwrap();
        assert!(r.fanout.is_none());
        assert!(r.report.is_some());
    }

    #[test]
    fn fo_only_configuration() {
        let g = sample_mig(7);
        let r = run_flow(
            &g,
            FlowConfig {
                fanout_limit: Some(4),
                insert_buffers: false,
                ..FlowConfig::default()
            },
        )
        .unwrap();
        assert!(r.report.is_none());
        assert!(r.pipelined.max_fanout() <= 4);
        assert!(r.buffers.is_none());
    }

    #[test]
    fn combined_flow_needs_more_buffers_than_buf_alone() {
        // Fig 8 observation (a): FOx+BUF inserts more buffers than BUF,
        // because fan-out chains delay consumers and widen gaps.
        let mut more = 0usize;
        for seed in 10..16 {
            let g = sample_mig(seed);
            let buf_only = run_flow(
                &g,
                FlowConfig {
                    fanout_limit: None,
                    insert_buffers: true,
                    ..FlowConfig::default()
                },
            )
            .unwrap();
            let combined = run_flow(&g, FlowConfig::default()).unwrap();
            if combined.buffers.unwrap().total() >= buf_only.buffers.unwrap().total() {
                more += 1;
            }
        }
        assert!(
            more >= 5,
            "combined flow should dominate on most seeds ({more}/6)"
        );
    }

    #[test]
    fn fog_count_is_independent_of_buffer_insertion() {
        // Fig 8 observation (b).
        for seed in 20..24 {
            let g = sample_mig(seed);
            let fo_only = run_flow(
                &g,
                FlowConfig {
                    fanout_limit: Some(3),
                    insert_buffers: false,
                    ..FlowConfig::default()
                },
            )
            .unwrap();
            let combined = run_flow(&g, FlowConfig::default()).unwrap();
            assert_eq!(
                fo_only.pipelined_counts().fog,
                combined.pipelined_counts().fog
            );
        }
    }
}
