//! # tech — beyond-CMOS technology models and evaluation metrics
//!
//! The three technologies the DATE'17 wave-pipelining paper targets —
//! Spin Wave Devices, Quantum-dot Cellular Automata and NanoMagnetic
//! Logic — with the cell constants and relative component costs of its
//! Table I, plus the metrics engine that turns a
//! [`wavepipe::FlowResult`] (the `result` of a pipeline run) into the
//! area / power / throughput / T-A / T-P numbers of Table II and Fig 9.
//!
//! ```
//! use mig::Mig;
//! use tech::{compare, Technology};
//! use wavepipe::PipelineSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = Mig::new();
//! let a = g.add_input("a");
//! let b = g.add_input("b");
//! let cin = g.add_input("cin");
//! let (s, c) = g.add_full_adder(a, b, cin);
//! g.add_output("s", s);
//! g.add_output("c", c);
//!
//! // The paper's flow: fan-out restriction to 3, buffer insertion, verify.
//! let result = PipelineSpec::default().build()?.run(&g)?.result;
//! for technology in Technology::all() {
//!     let row = compare(&result, &technology);
//!     // Wave pipelining never loses on raw throughput (it ties only
//!     // when the original depth is already ≤ 3 levels, as here).
//!     assert!(row.pipelined.throughput.value() >= row.original.throughput.value());
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod metrics;
pub mod report;
mod technology;
pub mod units;

pub use metrics::{
    compare, compare_with_table, evaluate, evaluate_with_table, Comparison, Evaluation,
    OperatingMode,
};
pub use report::{geometric_mean, mean, BenchmarkRow};
pub use technology::{RelativeCost, Technology};
pub use units::{Area, Delay, Energy, Power, Throughput};
// The cost-model layer lives in `wavepipe` so the pass pipeline can
// consume it; `Technology` is its canonical implementation, so the
// types are re-exported here where users expect them.
pub use wavepipe::{CostModel, CostTable, PricedCost, PricedDelta};
