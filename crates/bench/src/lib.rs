//! # wavepipe-bench — experiment harness
//!
//! Regenerates every table and figure of the DATE'17 wave-pipelining
//! paper from the reconstructed benchmark suite:
//!
//! | Paper artifact | Binary | Driver |
//! |---|---|---|
//! | Table I (technology constants) | `table1` | [`tech::Technology`] / [`tech::CostModel`] |
//! | Fig 5 (buffers vs size, power fit) | `fig5` | [`harness::fig5_points`] |
//! | Fig 7 (critical path vs fan-out limit) | `fig7` | [`harness::fig7_rows`] |
//! | Fig 8 (normalized component counts) | `fig8` | [`harness::fig8_data`] |
//! | Fig 9 (T/A and T/P gains) | `fig9` | [`harness::fig9_data`] |
//! | Table II (per-benchmark metrics) | `table2` | [`harness::table2_from_grid`] |
//! | Retiming ablation (beyond paper) | `ablation_retiming` | [`harness::retiming_ablation`] |
//! | Scaling sweep, 10²..10⁷ synthetic nodes (beyond paper) | `scaling` | [`wavepipe::Engine::run`] |
//! | Everything, to `results/` | `repro_all` | all of the above |
//!
//! Every driver expresses its flow configuration as a declarative
//! [`wavepipe::PipelineSpec`] and runs it through a **shared, cached
//! [`wavepipe::Engine`]** ([`harness::engine`]: `benchsuite` registry
//! resolver + content-hash keyed result cache). Grid sweeps run on the
//! work-pulling parallel scheduler, and overlapping experiments share
//! cells — Fig 8's BUF-only column is Fig 5's sweep re-served from
//! cache. `repro_all` additionally writes the per-(circuit, technology,
//! pass) **priced** traces (wall time, component delta, depth change,
//! area/energy/cycle-time deltas) to `results/flow_trace.{txt,json}`.
//! The `scaling` binary sweeps the synthetic `dag` family from 10² to
//! 10⁷ nodes and prints per-point cold/warm times and map throughput.
//!
//! Performance is tracked by one ledger, the `perfbench` package at the
//! repository root (`perfbench/README.md`); this crate writes no
//! benchmark records. The other binaries are `wavecheck` (static lint),
//! `persist_smoke` (the two-process disk-cache check) and
//! `wavepipe-serve` (the daemon). Criterion performance benches for
//! the two algorithms live under `benches/`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fit;
pub mod harness;

pub use fit::{fit_power_law, PowerLaw};
