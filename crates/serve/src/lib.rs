//! # wavepipe-serve — the engine as a long-lived service
//!
//! Everything below PR 8 treats the engine as a library: one process,
//! one experiment, exit. This crate turns the shared [`Engine`] facade
//! into a **concurrent multi-client daemon**: a plain
//! [`std::net::TcpListener`] front-end (no async runtime — vendored
//! deps only) speaking newline-delimited JSON [`FlowSpec`] requests,
//! with
//!
//! - a fixed worker pool over one bounded job queue,
//! - **request coalescing**: identical in-flight specs (by content
//!   hash) execute the pipeline once and share the result,
//! - **per-client backpressure**: each connection gets a bounded
//!   outbound queue; slow clients shed streaming cell events (or, in
//!   backpressure mode, block only their own lane) without stalling
//!   the pool,
//! - **graceful shutdown**: draining every queued and in-flight run to
//!   its terminal event before exit.
//!
//! The daemon binary, `wavepipe-serve`, lives in `wavepipe-bench`;
//! the `perfbench` ledger measures served-request latency and
//! throughput on an in-process [`Server`].
//!
//! ```text
//! client ──TCP──▶ reader ──▶ [job queue] ──▶ worker ──▶ engine
//!    ▲                                         │  (coalesced by
//!    └── writer ◀── [bounded event queue] ◀────┘   content hash)
//! ```
//!
//! [`Engine`]: wavepipe::Engine
//! [`FlowSpec`]: wavepipe::FlowSpec

pub mod client;
pub mod coalesce;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use coalesce::Coalescer;
pub use protocol::{cell_event, done_event, Control, Event, Request, ServeMetrics};
pub use server::{ServeConfig, Server};
