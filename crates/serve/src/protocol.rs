//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one or more response events per request, each
//! on its own line. Requests are either **runs** — a full declarative
//! [`FlowSpec`] — or **controls** (ping / stats / shutdown):
//!
//! ```json
//! {"id": 1, "spec": {"name": "sweep", "circuits": ["SASC"], ...}}
//! {"id": 2, "control": "stats"}
//! ```
//!
//! A run answers with one `cell` event per grid cell as it completes
//! (streamed from the engine's worker threads; completion order, not
//! grid order) and exactly one terminal `done` or `error` event:
//!
//! ```json
//! {"id":1,"event":"cell","circuit":0,"technology":null,"cached":false,
//!  "ok":true,"depth":24,"waves_in_flight":8,"max_fanout":3,
//!  "components":512,"passes":4}
//! {"id":1,"event":"done","cells":1,"failed":0,"coalesced":false,
//!  "circuits":["SASC"],"technologies":[],"stats":{...}}
//! ```
//!
//! Responses carry the request's `id`, so clients may pipeline many
//! requests on one connection and match events by id. Cell events are
//! *streaming* (a slow client may have them shed under backpressure —
//! see the server docs); terminal events are always delivered.

use serde::{DeError, Deserialize, Serialize, Value};
use wavepipe::{EngineCell, EngineRun, EngineStats, FlowSpec};

use crate::server::ServeConfig;

/// Bumped on any wire-shape change.
pub const PROTOCOL_VERSION: u64 = 1;

/// A control verb (a request line with `"control"` instead of `"spec"`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// Liveness probe; answered with a `pong` event.
    Ping,
    /// Server + engine counters; answered with a `stats` event.
    Stats,
    /// Ask the daemon to drain and exit; answered with a
    /// `shutting_down` event before the drain starts.
    Shutdown,
}

impl Control {
    fn tag(self) -> &'static str {
        match self {
            Control::Ping => "ping",
            Control::Stats => "stats",
            Control::Shutdown => "shutdown",
        }
    }

    fn parse(tag: &str) -> Result<Control, DeError> {
        match tag {
            "ping" => Ok(Control::Ping),
            "stats" => Ok(Control::Stats),
            "shutdown" => Ok(Control::Shutdown),
            other => Err(DeError(format!("unknown control verb `{other}`"))),
        }
    }
}

/// One request line.
#[derive(Debug)]
pub enum Request {
    /// Execute a spec on the shared engine.
    Run { id: u64, spec: FlowSpec },
    /// A control verb.
    Control { id: u64, control: Control },
}

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn compact(value: &Value) -> String {
    serde_json::to_string(value).expect("value trees always render")
}

impl Request {
    /// Serializes to one compact JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Run { id, spec } => compact(&object(vec![
                ("id", Value::UInt(*id)),
                ("spec", spec.to_value()),
            ])),
            Request::Control { id, control } => compact(&object(vec![
                ("id", Value::UInt(*id)),
                ("control", Value::Str(control.tag().to_owned())),
            ])),
        }
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// [`DeError`] on malformed JSON, a missing `id`, or a line that is
    /// neither a run (`spec`) nor a control.
    pub fn parse(line: &str) -> Result<Request, DeError> {
        let value: Value = serde_json::from_str(line).map_err(|e| DeError(e.to_string()))?;
        let fields = value
            .as_object()
            .ok_or_else(|| DeError::expected("request object"))?;
        let id: u64 = Deserialize::from_value(serde::field(fields, "id")?)?;
        if let Ok(spec) = serde::field(fields, "spec") {
            let spec = FlowSpec::from_value(spec)?;
            return Ok(Request::Run { id, spec });
        }
        if let Ok(control) = serde::field(fields, "control") {
            let tag: String = Deserialize::from_value(control)?;
            return Ok(Request::Control {
                id,
                control: Control::parse(&tag)?,
            });
        }
        Err(DeError::expected("`spec` or `control` in request"))
    }
}

/// Server-side counters reported by the `stats` control and the
/// daemon's shutdown summary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Run requests accepted off the wire.
    pub requests: u64,
    /// Runs that finished with a `done` event.
    pub completed: u64,
    /// Runs that finished with an `error` event.
    pub failed: u64,
    /// Runs rejected because the daemon was already draining.
    pub rejected: u64,
    /// Runs served by joining an identical in-flight execution.
    pub coalesced: u64,
    /// Runs that actually executed on the engine (coalescing leaders).
    pub executed: u64,
    /// Cell events delivered (or attempted) to clients.
    pub cells_streamed: u64,
    /// Streaming cell events dropped on slow clients (shed mode).
    pub cells_shed: u64,
    /// Client connections accepted.
    pub clients: u64,
    /// Engine counter snapshot (cumulative).
    pub engine: EngineStats,
}

pub(crate) fn stats_to_value(stats: &EngineStats) -> Value {
    object(vec![
        ("cache_hits", Value::UInt(stats.cache_hits)),
        ("cache_misses", Value::UInt(stats.cache_misses)),
        ("passes_executed", Value::UInt(stats.passes_executed)),
        ("cones_reused", Value::UInt(stats.cones_reused)),
        ("cones_recomputed", Value::UInt(stats.cones_recomputed)),
        ("disk_hits", Value::UInt(stats.disk_hits)),
        ("disk_misses", Value::UInt(stats.disk_misses)),
        ("evictions", Value::UInt(stats.evictions)),
    ])
}

pub(crate) fn stats_from_value(value: &Value) -> Result<EngineStats, DeError> {
    let fields = value
        .as_object()
        .ok_or_else(|| DeError::expected("engine stats object"))?;
    let counter = |name: &str| -> Result<u64, DeError> {
        Deserialize::from_value(serde::field(fields, name)?)
    };
    Ok(EngineStats {
        cache_hits: counter("cache_hits")?,
        cache_misses: counter("cache_misses")?,
        passes_executed: counter("passes_executed")?,
        cones_reused: counter("cones_reused")?,
        cones_recomputed: counter("cones_recomputed")?,
        disk_hits: counter("disk_hits")?,
        disk_misses: counter("disk_misses")?,
        evictions: counter("evictions")?,
    })
}

fn config_to_value(config: &ServeConfig) -> Value {
    object(vec![
        ("workers", Value::UInt(config.workers as u64)),
        ("queue_depth", Value::UInt(config.queue_depth as u64)),
        ("client_queue", Value::UInt(config.client_queue as u64)),
        ("shed_slow_clients", Value::Bool(config.shed_slow_clients)),
    ])
}

fn config_from_value(value: &Value) -> Result<ServeConfig, DeError> {
    let fields = value
        .as_object()
        .ok_or_else(|| DeError::expected("serve config object"))?;
    let size = |name: &str| -> Result<usize, DeError> {
        Deserialize::from_value(serde::field(fields, name)?)
    };
    Ok(ServeConfig {
        workers: size("workers")?,
        queue_depth: size("queue_depth")?,
        client_queue: size("client_queue")?,
        shed_slow_clients: Deserialize::from_value(serde::field(fields, "shed_slow_clients")?)?,
    })
}

fn metrics_to_value(metrics: &ServeMetrics) -> Value {
    object(vec![
        ("requests", Value::UInt(metrics.requests)),
        ("completed", Value::UInt(metrics.completed)),
        ("failed", Value::UInt(metrics.failed)),
        ("rejected", Value::UInt(metrics.rejected)),
        ("coalesced", Value::UInt(metrics.coalesced)),
        ("executed", Value::UInt(metrics.executed)),
        ("cells_streamed", Value::UInt(metrics.cells_streamed)),
        ("cells_shed", Value::UInt(metrics.cells_shed)),
        ("clients", Value::UInt(metrics.clients)),
        ("engine", stats_to_value(&metrics.engine)),
    ])
}

fn metrics_from_value(value: &Value) -> Result<ServeMetrics, DeError> {
    let fields = value
        .as_object()
        .ok_or_else(|| DeError::expected("serve metrics object"))?;
    let counter = |name: &str| -> Result<u64, DeError> {
        Deserialize::from_value(serde::field(fields, name)?)
    };
    Ok(ServeMetrics {
        requests: counter("requests")?,
        completed: counter("completed")?,
        failed: counter("failed")?,
        rejected: counter("rejected")?,
        coalesced: counter("coalesced")?,
        executed: counter("executed")?,
        cells_streamed: counter("cells_streamed")?,
        cells_shed: counter("cells_shed")?,
        clients: counter("clients")?,
        engine: stats_from_value(serde::field(fields, "engine")?)?,
    })
}

/// One response line.
#[derive(Clone, Debug)]
pub enum Event {
    /// One grid cell of a run completed (streaming; may be shed).
    Cell {
        id: u64,
        /// Index into the run's circuit list.
        circuit: u64,
        /// Index into the run's technology list (`null` if cost-blind).
        technology: Option<u64>,
        /// Served from the engine cache (or a coalesced replay).
        cached: bool,
        /// Whether the cell verified. `false` carries `error`.
        ok: bool,
        /// Pipeline depth (verified cells).
        depth: Option<u64>,
        /// Waves in flight (verified cells).
        waves_in_flight: Option<u64>,
        /// Largest fan-out (verified cells).
        max_fanout: Option<u64>,
        /// Total components of the pipelined netlist.
        components: Option<u64>,
        /// Passes in the cell's trace.
        passes: u64,
        /// First pass failure, for `ok:false` cells.
        error: Option<String>,
    },
    /// Terminal success event of a run.
    Done {
        id: u64,
        cells: u64,
        /// Cells whose pipeline failed (present in the count above).
        failed: u64,
        /// Whether this run joined an identical in-flight execution.
        coalesced: bool,
        circuits: Vec<String>,
        technologies: Vec<String>,
        /// Per-run engine counters (exact, tallied by the run).
        stats: EngineStats,
    },
    /// Terminal failure event of a run (spec/lint/pipeline errors), or
    /// a malformed line (`id` 0 when the line had none).
    Error { id: u64, message: String },
    /// Answer to `ping`.
    Pong { id: u64 },
    /// Answer to `stats`.
    Stats {
        id: u64,
        /// The daemon's effective configuration.
        config: ServeConfig,
        metrics: ServeMetrics,
    },
    /// Answer to `shutdown`, sent before the drain begins.
    ShuttingDown { id: u64 },
}

fn opt_u64(value: Option<u64>) -> Value {
    value.map_or(Value::Null, Value::UInt)
}

fn from_opt_u64(value: &Value) -> Result<Option<u64>, DeError> {
    match value {
        Value::Null => Ok(None),
        other => Deserialize::from_value(other).map(Some),
    }
}

impl Event {
    /// Serializes to one compact JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let value = match self {
            Event::Cell {
                id,
                circuit,
                technology,
                cached,
                ok,
                depth,
                waves_in_flight,
                max_fanout,
                components,
                passes,
                error,
            } => object(vec![
                ("id", Value::UInt(*id)),
                ("event", Value::Str("cell".to_owned())),
                ("circuit", Value::UInt(*circuit)),
                ("technology", opt_u64(*technology)),
                ("cached", Value::Bool(*cached)),
                ("ok", Value::Bool(*ok)),
                ("depth", opt_u64(*depth)),
                ("waves_in_flight", opt_u64(*waves_in_flight)),
                ("max_fanout", opt_u64(*max_fanout)),
                ("components", opt_u64(*components)),
                ("passes", Value::UInt(*passes)),
                (
                    "error",
                    error
                        .as_ref()
                        .map_or(Value::Null, |e| Value::Str(e.clone())),
                ),
            ]),
            Event::Done {
                id,
                cells,
                failed,
                coalesced,
                circuits,
                technologies,
                stats,
            } => object(vec![
                ("id", Value::UInt(*id)),
                ("event", Value::Str("done".to_owned())),
                ("cells", Value::UInt(*cells)),
                ("failed", Value::UInt(*failed)),
                ("coalesced", Value::Bool(*coalesced)),
                (
                    "circuits",
                    Value::Array(circuits.iter().map(|c| Value::Str(c.clone())).collect()),
                ),
                (
                    "technologies",
                    Value::Array(technologies.iter().map(|t| Value::Str(t.clone())).collect()),
                ),
                ("stats", stats_to_value(stats)),
            ]),
            Event::Error { id, message } => object(vec![
                ("id", Value::UInt(*id)),
                ("event", Value::Str("error".to_owned())),
                ("message", Value::Str(message.clone())),
            ]),
            Event::Pong { id } => object(vec![
                ("id", Value::UInt(*id)),
                ("event", Value::Str("pong".to_owned())),
            ]),
            Event::Stats {
                id,
                config,
                metrics,
            } => object(vec![
                ("id", Value::UInt(*id)),
                ("event", Value::Str("stats".to_owned())),
                ("config", config_to_value(config)),
                ("metrics", metrics_to_value(metrics)),
            ]),
            Event::ShuttingDown { id } => object(vec![
                ("id", Value::UInt(*id)),
                ("event", Value::Str("shutting_down".to_owned())),
            ]),
        };
        compact(&value)
    }

    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// [`DeError`] on malformed JSON or an unknown event tag.
    pub fn parse(line: &str) -> Result<Event, DeError> {
        let value: Value = serde_json::from_str(line).map_err(|e| DeError(e.to_string()))?;
        let fields = value
            .as_object()
            .ok_or_else(|| DeError::expected("event object"))?;
        let id: u64 = Deserialize::from_value(serde::field(fields, "id")?)?;
        let event: String = Deserialize::from_value(serde::field(fields, "event")?)?;
        match event.as_str() {
            "cell" => Ok(Event::Cell {
                id,
                circuit: Deserialize::from_value(serde::field(fields, "circuit")?)?,
                technology: from_opt_u64(serde::field(fields, "technology")?)?,
                cached: Deserialize::from_value(serde::field(fields, "cached")?)?,
                ok: Deserialize::from_value(serde::field(fields, "ok")?)?,
                depth: from_opt_u64(serde::field(fields, "depth")?)?,
                waves_in_flight: from_opt_u64(serde::field(fields, "waves_in_flight")?)?,
                max_fanout: from_opt_u64(serde::field(fields, "max_fanout")?)?,
                components: from_opt_u64(serde::field(fields, "components")?)?,
                passes: Deserialize::from_value(serde::field(fields, "passes")?)?,
                error: match serde::field(fields, "error")? {
                    Value::Null => None,
                    other => Some(Deserialize::from_value(other)?),
                },
            }),
            "done" => Ok(Event::Done {
                id,
                cells: Deserialize::from_value(serde::field(fields, "cells")?)?,
                failed: Deserialize::from_value(serde::field(fields, "failed")?)?,
                coalesced: Deserialize::from_value(serde::field(fields, "coalesced")?)?,
                circuits: Deserialize::from_value(serde::field(fields, "circuits")?)?,
                technologies: Deserialize::from_value(serde::field(fields, "technologies")?)?,
                stats: stats_from_value(serde::field(fields, "stats")?)?,
            }),
            "error" => Ok(Event::Error {
                id,
                message: Deserialize::from_value(serde::field(fields, "message")?)?,
            }),
            "pong" => Ok(Event::Pong { id }),
            "stats" => Ok(Event::Stats {
                id,
                config: config_from_value(serde::field(fields, "config")?)?,
                metrics: metrics_from_value(serde::field(fields, "metrics")?)?,
            }),
            "shutting_down" => Ok(Event::ShuttingDown { id }),
            other => Err(DeError(format!("unknown event `{other}`"))),
        }
    }

    /// The request id the event answers.
    pub fn id(&self) -> u64 {
        match self {
            Event::Cell { id, .. }
            | Event::Done { id, .. }
            | Event::Error { id, .. }
            | Event::Pong { id }
            | Event::Stats { id, .. }
            | Event::ShuttingDown { id } => *id,
        }
    }

    /// Whether this is a run's terminal event (`done` or `error`).
    pub fn is_terminal(&self) -> bool {
        matches!(self, Event::Done { .. } | Event::Error { .. })
    }
}

/// Builds the streaming cell event for one finished grid cell.
pub fn cell_event(id: u64, cell: &EngineCell) -> Event {
    match &cell.outcome {
        Ok(run) => {
            let counts = run.result.pipelined.counts();
            let total =
                counts.inputs + counts.consts + counts.maj + counts.inv + counts.buf + counts.fog;
            let report = run.result.report.as_ref();
            Event::Cell {
                id,
                circuit: cell.circuit as u64,
                technology: cell.technology.map(|t| t as u64),
                cached: cell.cached,
                ok: true,
                depth: report.map(|r| u64::from(r.depth)),
                waves_in_flight: report.map(|r| u64::from(r.waves_in_flight)),
                max_fanout: report.map(|r| u64::from(r.max_fanout)),
                components: Some(total as u64),
                passes: run.trace.len() as u64,
                error: None,
            }
        }
        Err(e) => Event::Cell {
            id,
            circuit: cell.circuit as u64,
            technology: cell.technology.map(|t| t as u64),
            cached: cell.cached,
            ok: false,
            depth: None,
            waves_in_flight: None,
            max_fanout: None,
            components: None,
            passes: 0,
            error: Some(e.to_string()),
        },
    }
}

/// Builds the terminal `done` event for a collected run.
pub fn done_event(id: u64, run: &EngineRun, coalesced: bool) -> Event {
    Event::Done {
        id,
        cells: run.cells.len() as u64,
        failed: run.cells.iter().filter(|c| c.outcome.is_err()).count() as u64,
        coalesced,
        circuits: run.circuits.clone(),
        technologies: run.technologies.clone(),
        stats: run.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let mut g = mig::Mig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let m = g.add_maj(a, b, !a);
        g.add_output("m", m);
        let spec = FlowSpec::new("wire").inline_circuit("tiny", &g);

        let line = Request::Run { id: 7, spec }.to_line();
        assert!(!line.contains('\n'), "one request, one line");
        match Request::parse(&line).unwrap() {
            Request::Run { id, spec } => {
                assert_eq!(id, 7);
                assert_eq!(spec.name, "wire");
                assert_eq!(spec.circuits.len(), 1);
            }
            other => panic!("parsed {other:?}"),
        }

        for control in [Control::Ping, Control::Stats, Control::Shutdown] {
            let line = Request::Control { id: 3, control }.to_line();
            match Request::parse(&line).unwrap() {
                Request::Control { id, control: back } => {
                    assert_eq!((id, back), (3, control));
                }
                other => panic!("parsed {other:?}"),
            }
        }
    }

    #[test]
    fn events_round_trip() {
        let events = vec![
            Event::Cell {
                id: 1,
                circuit: 2,
                technology: Some(0),
                cached: true,
                ok: true,
                depth: Some(24),
                waves_in_flight: Some(8),
                max_fanout: Some(3),
                components: Some(512),
                passes: 4,
                error: None,
            },
            Event::Cell {
                id: 1,
                circuit: 0,
                technology: None,
                cached: false,
                ok: false,
                depth: None,
                waves_in_flight: None,
                max_fanout: None,
                components: None,
                passes: 0,
                error: Some("pass `verify` failed".to_owned()),
            },
            Event::Done {
                id: 1,
                cells: 2,
                failed: 1,
                coalesced: true,
                circuits: vec!["SASC".to_owned()],
                technologies: vec![],
                stats: EngineStats {
                    cache_hits: 5,
                    ..EngineStats::default()
                },
            },
            Event::Error {
                id: 9,
                message: "unknown circuit `NOPE`".to_owned(),
            },
            Event::Pong { id: 4 },
            Event::Stats {
                id: 5,
                config: ServeConfig {
                    workers: 4,
                    queue_depth: 256,
                    client_queue: 1024,
                    shed_slow_clients: true,
                },
                metrics: ServeMetrics {
                    requests: 10,
                    completed: 9,
                    coalesced: 3,
                    ..ServeMetrics::default()
                },
            },
            Event::ShuttingDown { id: 6 },
        ];
        for event in events {
            let line = event.to_line();
            assert!(!line.contains('\n'));
            let back = Event::parse(&line).unwrap();
            assert_eq!(back.to_line(), line, "event codec is a bijection");
            assert_eq!(back.id(), event.id());
            assert_eq!(back.is_terminal(), event.is_terminal());
        }
    }

    #[test]
    fn malformed_lines_are_describable_errors() {
        assert!(Request::parse("not json").is_err());
        assert!(
            Request::parse("{\"id\":1}").is_err(),
            "neither spec nor control"
        );
        assert!(Request::parse("{\"id\":1,\"control\":\"reboot\"}").is_err());
        assert!(Event::parse("{\"id\":1,\"event\":\"nope\"}").is_err());
    }

    #[test]
    fn deeply_nested_lines_are_errors_not_stack_overflows() {
        // Parsed on a default-size (2 MiB) thread, like a connection's.
        let err = std::thread::spawn(|| Request::parse(&"[".repeat(20_000)))
            .join()
            .expect("parsing must not abort the thread")
            .unwrap_err();
        assert!(err.0.contains("recursion limit"), "{}", err.0);
    }
}
