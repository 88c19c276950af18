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

use serde::{object, DeError, Deserialize, Serialize, Value};
use wavepipe::{EngineCell, EngineRun, EngineStats, FlowSpec};

use crate::server::ServeConfig;

/// Bumped on any wire-shape change.
pub const PROTOCOL_VERSION: u64 = 1;

/// A control verb (a request line with `"control"` instead of `"spec"`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Control {
    /// Liveness probe; answered with a `pong` event.
    Ping,
    /// Server + engine counters; answered with a `stats` event.
    Stats,
    /// Ask the daemon to drain and exit; answered with a
    /// `shutting_down` event before the drain starts.
    Shutdown,
}

/// One request line. The line codecs stay hand-written because the
/// wire puts `id` before the tag; they call the derived codecs for the
/// nested values.
#[derive(Debug)]
pub enum Request {
    /// Execute a spec on the shared engine.
    Run { id: u64, spec: FlowSpec },
    /// A control verb.
    Control { id: u64, control: Control },
}

fn compact(value: &Value) -> String {
    serde_json::to_string(value).expect("value trees always render")
}

impl Request {
    /// Serializes to one compact JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Run { id, spec } => {
                compact(&object([("id", id.to_value()), ("spec", spec.to_value())]))
            }
            Request::Control { id, control } => compact(&object([
                ("id", id.to_value()),
                ("control", control.to_value()),
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
            let control = Control::from_value(control)?;
            return Ok(Request::Control { id, control });
        }
        Err(DeError::expected("`spec` or `control` in request"))
    }
}

/// Server-side counters reported by the `stats` control and the
/// daemon's shutdown summary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
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

impl Event {
    /// Serializes to one compact JSON line (no trailing newline): `id`,
    /// then the `event` tag, then the variant's fields.
    pub fn to_line(&self) -> String {
        let (event, fields) = match self {
            Event::Cell {
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
                ..
            } => (
                "cell",
                vec![
                    ("circuit", circuit.to_value()),
                    ("technology", technology.to_value()),
                    ("cached", cached.to_value()),
                    ("ok", ok.to_value()),
                    ("depth", depth.to_value()),
                    ("waves_in_flight", waves_in_flight.to_value()),
                    ("max_fanout", max_fanout.to_value()),
                    ("components", components.to_value()),
                    ("passes", passes.to_value()),
                    ("error", error.to_value()),
                ],
            ),
            Event::Done {
                cells,
                failed,
                coalesced,
                circuits,
                technologies,
                stats,
                ..
            } => (
                "done",
                vec![
                    ("cells", cells.to_value()),
                    ("failed", failed.to_value()),
                    ("coalesced", coalesced.to_value()),
                    ("circuits", circuits.to_value()),
                    ("technologies", technologies.to_value()),
                    ("stats", stats.to_value()),
                ],
            ),
            Event::Error { message, .. } => ("error", vec![("message", message.to_value())]),
            Event::Pong { .. } => ("pong", vec![]),
            Event::Stats {
                config, metrics, ..
            } => (
                "stats",
                vec![
                    ("config", config.to_value()),
                    ("metrics", metrics.to_value()),
                ],
            ),
            Event::ShuttingDown { .. } => ("shutting_down", vec![]),
        };
        let head = [("id", self.id().to_value()), ("event", event.to_value())];
        compact(&object(head.into_iter().chain(fields)))
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
        let get = |name: &str| serde::field(fields, name);
        let id: u64 = Deserialize::from_value(get("id")?)?;
        let event: String = Deserialize::from_value(get("event")?)?;
        match event.as_str() {
            "cell" => Ok(Event::Cell {
                id,
                circuit: Deserialize::from_value(get("circuit")?)?,
                technology: Deserialize::from_value(get("technology")?)?,
                cached: Deserialize::from_value(get("cached")?)?,
                ok: Deserialize::from_value(get("ok")?)?,
                depth: Deserialize::from_value(get("depth")?)?,
                waves_in_flight: Deserialize::from_value(get("waves_in_flight")?)?,
                max_fanout: Deserialize::from_value(get("max_fanout")?)?,
                components: Deserialize::from_value(get("components")?)?,
                passes: Deserialize::from_value(get("passes")?)?,
                error: Deserialize::from_value(get("error")?)?,
            }),
            "done" => Ok(Event::Done {
                id,
                cells: Deserialize::from_value(get("cells")?)?,
                failed: Deserialize::from_value(get("failed")?)?,
                coalesced: Deserialize::from_value(get("coalesced")?)?,
                circuits: Deserialize::from_value(get("circuits")?)?,
                technologies: Deserialize::from_value(get("technologies")?)?,
                stats: Deserialize::from_value(get("stats")?)?,
            }),
            "error" => Ok(Event::Error {
                id,
                message: Deserialize::from_value(get("message")?)?,
            }),
            "pong" => Ok(Event::Pong { id }),
            "stats" => Ok(Event::Stats {
                id,
                config: Deserialize::from_value(get("config")?)?,
                metrics: Deserialize::from_value(get("metrics")?)?,
            }),
            "shutting_down" => Ok(Event::ShuttingDown { id }),
            other => Err(DeError::unknown_variant("Event", other)),
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
