//! # wave-pipelining — umbrella crate
//!
//! Reproduction of *Zografos et al., "Wave Pipelining for
//! Majority-based Beyond-CMOS Technologies", DATE 2017*. This crate
//! re-exports the four library crates of the workspace so examples and
//! downstream users need a single dependency:
//!
//! * [`mig`] — Majority-Inverter Graph substrate (construction,
//!   optimization, simulation, I/O).
//! * [`wavepipe`] — the paper's contribution: buffer insertion
//!   (Algorithm 1), fan-out restriction (§IV), balance verification and
//!   the three-phase wave simulator — fronted by the [`wavepipe::Engine`]
//!   facade, which runs declarative [`wavepipe::FlowSpec`]s with a
//!   content-hash keyed result cache.
//! * [`tech`] — SWD/QCA/NML technology models (Table I) and the
//!   area/power/throughput metrics engine (Table II, Fig 9).
//! * [`benchsuite`] — the reconstructed 37-circuit benchmark suite.
//!
//! ## Quickstart
//!
//! ```
//! use wave_pipelining::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Build (or load) a MIG.
//! let mut g = Mig::new();
//! let a = g.add_input("a");
//! let b = g.add_input("b");
//! let cin = g.add_input("cin");
//! let (sum, cout) = g.add_full_adder(a, b, cin);
//! g.add_output("sum", sum);
//! g.add_output("cout", cout);
//!
//! // 2. Enable wave pipelining: the paper's flow (fan-out restriction
//! //    to 3, buffer insertion, verification) as a pipeline spec.
//! let result = PipelineSpec::default().build()?.run(&g)?.result;
//!
//! // 3. Evaluate on a beyond-CMOS technology.
//! let row = compare(&result, &Technology::swd());
//! assert!(row.pipelined.throughput.value() >= row.original.throughput.value());
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and the
//! `wavepipe-bench` crate for the table/figure regeneration harness.

#![warn(missing_docs)]

pub use benchsuite;
pub use mig;
pub use tech;
pub use wavepipe;

/// Convenient re-exports of the items almost every user needs.
pub mod prelude {
    pub use benchsuite::{find as find_benchmark, SUITE};
    pub use mig::{check_equivalence, optimize_depth, optimize_size, Mig, Signal};
    pub use tech::{compare, evaluate, CostModel, OperatingMode, Technology};
    pub use wavepipe::{
        insert_buffers, netlist_from_mig, restrict_fanout, verify_balance, Engine, FlowError,
        FlowSpec, Netlist, PipelineSpec, WaveSimulator,
    };
}
