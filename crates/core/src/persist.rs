//! Persistent on-disk result cache: versioned, checksummed binary
//! snapshots of whole [`PipelineRun`]s under a cache root (by default
//! `results/cache/`), layered *under* the engine's in-memory LRU so
//! warm starts survive process restarts.
//!
//! ## Entry layout
//!
//! One file per cache key, named
//! `{scope}-{circuit:016x}-{pipeline:016x}-{technology:016x}.bin`
//! (`scope` is `cell` for whole-circuit grid cells, `cone` for
//! per-output-cone runs, `spliced` for merged incremental results).
//! Every integer is little-endian. The file starts with a fixed
//! 70-byte header:
//!
//! | offset | bytes | field |
//! |-------:|------:|-------|
//! | 0      | 14    | magic [`CACHE_MAGIC`] |
//! | 14     | 8     | format version [`CACHE_VERSION`] |
//! | 22     | 8     | scope, zero-padded |
//! | 30     | 24    | circuit, pipeline and technology keys |
//! | 54     | 8     | checksum: FNV-1a of the body bytes |
//! | 62     | 8     | body length |
//!
//! The body that follows is what [`run_to_bytes`] writes:
//!
//! 1. a `u64` length and a JSON *meta* section: the [`run_to_json`]
//!    view with each netlist's `components` array replaced by its
//!    component count. It holds the netlist and input names, the output
//!    ports, the fan-out, buffer and report summaries, `weighted` and
//!    the pass trace;
//! 2. the `original`, then the `pipelined` component arena, in arena
//!    order: per component one kind byte (`i` input, `0`/`1` constant,
//!    `m` majority, `v` inverter, `b` buffer, `f` fan-out gate) and its
//!    fan-in ids as `u32`s.
//!
//! Loads check magic, version, scope and key, body length and checksum,
//! then replay each arena through the public construction API: a
//! dangling fan-in, a component that does not land on its recorded
//! index (non-canonical constant sharing), an input component without
//! an input name or an out-of-range output driver rejects the entry. A
//! length or count that claims more than the bytes left is rejected
//! before anything of that size is allocated. *Any* rejection, or an
//! I/O error, logs one warning to stderr and behaves as a cache miss —
//! a corrupt or stale entry can cost a recompute, never a crash. Stores
//! write to a temp file, fsync it and rename, so concurrent processes
//! sharing a cache directory never observe a half-written entry.
//!
//! The JSON codec ([`run_to_json`] / [`run_from_json`]) is the readable
//! view of a run and the tool that compares runs; it is not a disk
//! format. Both codecs record netlists as an exact arena replay, so a
//! decoded run is byte-identical to the encoded one, which is what lets
//! the engine's warm-disk golden tests compare results bit-for-bit
//! across processes.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{object, DeError, Deserialize, Entries, Value};

use crate::balance::BalanceReport;
use crate::buffer_insertion::BufferInsertion;
use crate::component::{CompId, Component};
use crate::cost::{PricedCost, PricedDelta};
use crate::fanout_restriction::FanoutRestriction;
use crate::fnv::Fnv;
use crate::netlist::{KindCounts, Netlist};
use crate::pipeline::{FlowResult, PassStats, PipelineRun};
use crate::weighted::WeightedInsertion;

/// On-disk format version; bump on any layout change so old entries
/// are skipped (with a warning) instead of misread.
pub const CACHE_VERSION: u64 = 2;

/// The magic tag every cache entry starts with.
pub const CACHE_MAGIC: &str = "wavepipe-cache";

/// Bytes of the header's zero-padded scope field.
const SCOPE_LEN: usize = 8;

/// Bytes of the fixed entry header (see the module docs).
const HEADER_LEN: usize = CACHE_MAGIC.len() + 8 + SCOPE_LEN + 3 * 8 + 8 + 8;

/// Serializes a pipeline run to the canonical compact JSON payload.
pub fn run_to_json(run: &PipelineRun) -> String {
    serde_json::to_string(&run_to_value(run, netlist_to_value)).expect("value trees always render")
}

/// Rebuilds a pipeline run from [`run_to_json`] text.
///
/// # Errors
///
/// [`DeError`] on malformed JSON, a shape mismatch, or a payload that
/// does not replay to the exact netlists it claims (dangling fan-ins,
/// non-canonical constant sharing).
pub fn run_from_json(text: &str) -> Result<PipelineRun, DeError> {
    let value: Value = serde_json::from_str(text).map_err(|e| DeError(e.to_string()))?;
    run_from_value(&value, netlist_from_value)
}

/// Encodes a run as a disk entry's binary body: the meta section and
/// both component arenas (see the module docs).
pub fn run_to_bytes(run: &PipelineRun) -> Vec<u8> {
    let mut body = Vec::new();
    write_body(run, &mut body);
    body
}

/// Rebuilds a pipeline run from a [`run_to_bytes`] body.
///
/// # Errors
///
/// [`EntryError`] on a body that ends early, declares more than it
/// holds, carries bytes past its last arena, or does not replay to the
/// exact netlists it claims.
pub fn run_from_bytes(body: &[u8]) -> Result<PipelineRun, EntryError> {
    let mut bytes = Bytes(body);
    let meta_len = bytes.u64("meta length")?;
    let meta = bytes.take(bytes.bounded(meta_len, "meta length")?, "meta")?;
    let meta = std::str::from_utf8(meta).map_err(|e| DeError(format!("meta section: {e}")))?;
    let meta: Value = serde_json::from_str(meta).map_err(|e| DeError(e.to_string()))?;
    let run = run_from_value(&meta, |view| {
        let fields = serde::entries(view, "Netlist")?;
        let count = serde::field(fields, "components")?
            .as_u64()
            .ok_or_else(|| DeError::expected("component count"))?;
        // Every component takes at least its kind byte.
        let len = bytes.bounded(count, "component count")?;
        replay(fields, len, |_| component_from_bytes(&mut bytes, len))
    })?;
    match bytes.0.len() {
        0 => Ok(run),
        extra => Err(EntryError::TrailingBytes(extra)),
    }
}

/// Why a disk entry, or a [`run_from_bytes`] body, was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EntryError {
    /// The bytes end inside the named field.
    Truncated(&'static str),
    /// The entry does not start with [`CACHE_MAGIC`].
    BadMagic,
    /// The entry was written by another format version.
    StaleVersion(u64),
    /// The header's scope or key differ from the file name's.
    KeyMismatch,
    /// The header's body length differs from the bytes after it.
    BodyLength {
        /// Length the header declares.
        declared: u64,
        /// Bytes actually following the header.
        actual: u64,
    },
    /// The body does not hash to the header's checksum.
    Checksum {
        /// Digest the header carries.
        stored: u64,
        /// Digest of the body as read.
        computed: u64,
    },
    /// A length or count that claims more than the bytes left.
    Oversize {
        /// The field that declared it.
        what: &'static str,
        /// The declared length or count.
        declared: u64,
        /// Bytes left when it was read.
        available: u64,
    },
    /// Bytes left over after the pipelined arena.
    TrailingBytes(usize),
    /// A malformed meta section or component record, or one that does
    /// not replay to the netlist it claims.
    Malformed(DeError),
}

impl From<DeError> for EntryError {
    fn from(e: DeError) -> EntryError {
        EntryError::Malformed(e)
    }
}

impl fmt::Display for EntryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntryError::Truncated(what) => write!(f, "entry ends inside the {what}"),
            EntryError::BadMagic => write!(f, "bad magic"),
            EntryError::StaleVersion(v) => {
                write!(f, "stale format version {v}, expected {CACHE_VERSION}")
            }
            EntryError::KeyMismatch => write!(f, "entry key does not match its file name"),
            EntryError::BodyLength { declared, actual } => {
                write!(f, "body of {actual} bytes, header declares {declared}")
            }
            EntryError::Checksum { stored, computed } => write!(
                f,
                "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            EntryError::Oversize {
                what,
                declared,
                available,
            } => write!(f, "{what} {declared} exceeds the {available} bytes left"),
            EntryError::TrailingBytes(n) => write!(f, "{n} bytes after the last arena"),
            EntryError::Malformed(e) => write!(f, "{}", e.0),
        }
    }
}

impl std::error::Error for EntryError {}

// --- value codecs -------------------------------------------------------

fn opt<T>(value: &Option<T>, encode: impl Fn(&T) -> Value) -> Value {
    value.as_ref().map_or(Value::Null, encode)
}

fn opt_from<T>(
    value: &Value,
    decode: impl Fn(&Value) -> Result<T, DeError>,
) -> Result<Option<T>, DeError> {
    match value {
        Value::Null => Ok(None),
        other => decode(other).map(Some),
    }
}

fn u64_field(fields: &Entries, name: &str) -> Result<u64, DeError> {
    Deserialize::from_value(serde::field(fields, name)?)
}

/// A netlist's codec object; each codec fills `components` its own way.
fn netlist_view(netlist: &Netlist, components: Value) -> Value {
    object(vec![
        ("name", Value::Str(netlist.name().to_owned())),
        (
            "inputs",
            Value::Array(
                (0..netlist.inputs().len())
                    .map(|p| Value::Str(netlist.input_name(p).to_owned()))
                    .collect(),
            ),
        ),
        ("components", components),
        (
            "outputs",
            Value::Array(
                netlist
                    .outputs()
                    .iter()
                    .map(|port| {
                        Value::Array(vec![
                            Value::Str(port.name.clone()),
                            Value::UInt(port.driver.index() as u64),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn netlist_to_value(netlist: &Netlist) -> Value {
    let components: Vec<Value> = netlist
        .ids()
        .map(|id| match netlist.component(id) {
            Component::Input { .. } => Value::Str("i".to_owned()),
            Component::Const { value } => {
                Value::Array(vec![Value::Str("k".to_owned()), Value::Bool(*value)])
            }
            Component::Maj { fanins } => Value::Array(vec![
                Value::Str("m".to_owned()),
                Value::UInt(fanins[0].index() as u64),
                Value::UInt(fanins[1].index() as u64),
                Value::UInt(fanins[2].index() as u64),
            ]),
            Component::Inv { fanin } => Value::Array(vec![
                Value::Str("v".to_owned()),
                Value::UInt(fanin.index() as u64),
            ]),
            Component::Buf { fanin } => Value::Array(vec![
                Value::Str("b".to_owned()),
                Value::UInt(fanin.index() as u64),
            ]),
            Component::Fog { fanin } => Value::Array(vec![
                Value::Str("f".to_owned()),
                Value::UInt(fanin.index() as u64),
            ]),
        })
        .collect();
    netlist_view(netlist, Value::Array(components))
}

fn fanin(index: u64, len: usize) -> Result<CompId, DeError> {
    match usize::try_from(index) {
        Ok(index) if index < len => Ok(CompId::from_index(index)),
        _ => Err(DeError(format!(
            "dangling fan-in {index} in a {len}-component netlist"
        ))),
    }
}

fn fanin_from_value(value: &Value, len: usize) -> Result<CompId, DeError> {
    fanin(
        value
            .as_u64()
            .ok_or_else(|| DeError::expected("fan-in index"))?,
        len,
    )
}

fn component_from_value(value: &Value, len: usize) -> Result<Component, DeError> {
    let items = match value {
        Value::Str(tag) if tag == "i" => return Ok(Component::Input { position: 0 }),
        Value::Array(items) => items,
        _ => return Err(DeError::expected("component entry")),
    };
    let tag = items
        .first()
        .and_then(Value::as_str)
        .ok_or_else(|| DeError::expected("component tag"))?;
    Ok(match (tag, &items[1..]) {
        ("k", [Value::Bool(value)]) => Component::Const { value: *value },
        ("m", [a, b, c]) => Component::Maj {
            fanins: [
                fanin_from_value(a, len)?,
                fanin_from_value(b, len)?,
                fanin_from_value(c, len)?,
            ],
        },
        ("v", [f]) => Component::Inv {
            fanin: fanin_from_value(f, len)?,
        },
        ("b", [f]) => Component::Buf {
            fanin: fanin_from_value(f, len)?,
        },
        ("f", [f]) => Component::Fog {
            fanin: fanin_from_value(f, len)?,
        },
        _ => return Err(DeError(format!("malformed `{tag}` component"))),
    })
}

fn netlist_from_value(value: &Value) -> Result<Netlist, DeError> {
    let fields = serde::entries(value, "Netlist")?;
    let components = serde::field(fields, "components")?
        .as_array()
        .ok_or_else(|| DeError::expected("component array"))?;
    let len = components.len();
    replay(fields, len, |index| {
        component_from_value(&components[index], len)
    })
}

/// Rebuilds a netlist by exact arena replay. `view` is its codec
/// object (name, input names, outputs); `component(i)` yields the
/// `i`-th of its `len` components, fan-ins already range-checked. Each
/// component re-added in order must land on its original index,
/// otherwise the recording is not a canonical netlist and the whole
/// entry is rejected.
fn replay<E: From<DeError>>(
    view: &Entries,
    len: usize,
    mut component: impl FnMut(usize) -> Result<Component, E>,
) -> Result<Netlist, E> {
    let name: String = Deserialize::from_value(serde::field(view, "name")?)?;
    let input_names: Vec<String> = Deserialize::from_value(serde::field(view, "inputs")?)?;
    let outputs = serde::field(view, "outputs")?
        .as_array()
        .ok_or_else(|| DeError::expected("output array"))?;

    let mut netlist = Netlist::new(name);
    netlist.reserve(len);
    let declared_inputs = input_names.len();
    let mut names = input_names.into_iter();
    for index in 0..len {
        let id = match component(index)? {
            Component::Input { .. } => {
                let name = names
                    .next()
                    .ok_or_else(|| DeError::expected("an input name per input component"))?;
                netlist.add_input(name)
            }
            Component::Const { value } => netlist.add_const(value),
            Component::Maj { fanins } => netlist.add_maj(fanins),
            Component::Inv { fanin } => netlist.add_inv(fanin),
            Component::Buf { fanin } => netlist.add_buf(fanin),
            Component::Fog { fanin } => netlist.add_fog(fanin),
        };
        if id.index() != index {
            return Err(DeError(format!(
                "non-canonical component recording at index {index}"
            ))
            .into());
        }
    }
    if names.len() != 0 {
        return Err(DeError(format!(
            "{declared_inputs} input names for {} input components",
            netlist.inputs().len()
        ))
        .into());
    }
    for port in outputs {
        match port.as_array() {
            Some([Value::Str(name), driver]) => {
                let driver = fanin_from_value(driver, len)?;
                netlist.add_output(name.clone(), driver);
            }
            _ => return Err(DeError::expected("[name, driver] output pair").into()),
        }
    }
    Ok(netlist)
}

fn counts_to_value(counts: &KindCounts) -> Value {
    Value::Array(
        [
            counts.inputs,
            counts.consts,
            counts.maj,
            counts.inv,
            counts.buf,
            counts.fog,
        ]
        .iter()
        .map(|&n| Value::UInt(n as u64))
        .collect(),
    )
}

fn counts_from_value(value: &Value) -> Result<KindCounts, DeError> {
    let items = value
        .as_array()
        .ok_or_else(|| DeError::expected("six-element count array"))?;
    let [inputs, consts, maj, inv, buf, fog] = items else {
        return Err(DeError::expected("six-element count array"));
    };
    Ok(KindCounts {
        inputs: Deserialize::from_value(inputs)?,
        consts: Deserialize::from_value(consts)?,
        maj: Deserialize::from_value(maj)?,
        inv: Deserialize::from_value(inv)?,
        buf: Deserialize::from_value(buf)?,
        fog: Deserialize::from_value(fog)?,
    })
}

fn priced_cost_to_value(cost: &PricedCost) -> Value {
    object(vec![
        ("area", Value::Float(cost.area)),
        ("energy", Value::Float(cost.energy)),
        ("latency", Value::Float(cost.latency)),
    ])
}

fn priced_cost_from_value(value: &Value) -> Result<PricedCost, DeError> {
    let fields = serde::entries(value, "PricedCost")?;
    Ok(PricedCost {
        area: Deserialize::from_value(serde::field(fields, "area")?)?,
        energy: Deserialize::from_value(serde::field(fields, "energy")?)?,
        latency: Deserialize::from_value(serde::field(fields, "latency")?)?,
    })
}

fn stats_to_value(stats: &PassStats) -> Value {
    object(vec![
        ("pass", Value::Str(stats.pass.clone())),
        ("micros", Value::UInt(stats.micros)),
        ("counts_before", counts_to_value(&stats.counts_before)),
        ("counts_after", counts_to_value(&stats.counts_after)),
        ("added", counts_to_value(&stats.added)),
        ("depth_before", Value::UInt(u64::from(stats.depth_before))),
        ("depth_after", Value::UInt(u64::from(stats.depth_after))),
        (
            "priced",
            opt(&stats.priced, |p| {
                object(vec![
                    ("model", Value::Str(p.model.clone())),
                    ("before", priced_cost_to_value(&p.before)),
                    ("after", priced_cost_to_value(&p.after)),
                ])
            }),
        ),
    ])
}

fn stats_from_value(value: &Value) -> Result<PassStats, DeError> {
    let fields = serde::entries(value, "PassStats")?;
    Ok(PassStats {
        pass: Deserialize::from_value(serde::field(fields, "pass")?)?,
        micros: u64_field(fields, "micros")?,
        counts_before: counts_from_value(serde::field(fields, "counts_before")?)?,
        counts_after: counts_from_value(serde::field(fields, "counts_after")?)?,
        added: counts_from_value(serde::field(fields, "added")?)?,
        depth_before: Deserialize::from_value(serde::field(fields, "depth_before")?)?,
        depth_after: Deserialize::from_value(serde::field(fields, "depth_after")?)?,
        priced: opt_from(serde::field(fields, "priced")?, |p| {
            let fields = serde::entries(p, "PricedDelta")?;
            Ok(PricedDelta {
                model: Deserialize::from_value(serde::field(fields, "model")?)?,
                before: priced_cost_from_value(serde::field(fields, "before")?)?,
                after: priced_cost_from_value(serde::field(fields, "after")?)?,
            })
        })?,
    })
}

/// Encodes a run as its view tree, each netlist through `netlist`.
fn run_to_value(run: &PipelineRun, netlist: impl Fn(&Netlist) -> Value) -> Value {
    object(vec![
        (
            "result",
            object(vec![
                ("original", netlist(&run.result.original)),
                ("pipelined", netlist(&run.result.pipelined)),
                (
                    "fanout",
                    opt(&run.result.fanout, |f| {
                        object(vec![
                            ("limit", Value::UInt(u64::from(f.limit))),
                            ("fogs_inserted", Value::UInt(f.fogs_inserted as u64)),
                            ("components_split", Value::UInt(f.components_split as u64)),
                            ("delayed_consumers", Value::UInt(f.delayed_consumers as u64)),
                            ("depth_before", Value::UInt(u64::from(f.depth_before))),
                            ("depth_after", Value::UInt(u64::from(f.depth_after))),
                        ])
                    }),
                ),
                (
                    "buffers",
                    opt(&run.result.buffers, |b| {
                        object(vec![
                            ("balancing_buffers", Value::UInt(b.balancing_buffers as u64)),
                            ("padding_buffers", Value::UInt(b.padding_buffers as u64)),
                            ("depth", Value::UInt(u64::from(b.depth))),
                        ])
                    }),
                ),
                (
                    "report",
                    opt(&run.result.report, |r| {
                        object(vec![
                            ("depth", Value::UInt(u64::from(r.depth))),
                            ("waves_in_flight", Value::UInt(u64::from(r.waves_in_flight))),
                            ("max_fanout", Value::UInt(u64::from(r.max_fanout))),
                        ])
                    }),
                ),
            ]),
        ),
        (
            "weighted",
            opt(&run.weighted, |w| {
                object(vec![
                    ("buffers", Value::UInt(w.buffers as u64)),
                    ("weighted_depth", Value::UInt(u64::from(w.weighted_depth))),
                ])
            }),
        ),
        (
            "trace",
            Value::Array(run.trace.iter().map(stats_to_value).collect()),
        ),
    ])
}

/// Decodes a [`run_to_value`] tree, each netlist through `netlist`:
/// `original` first, then `pipelined`.
fn run_from_value<E: From<DeError>>(
    value: &Value,
    mut netlist: impl FnMut(&Value) -> Result<Netlist, E>,
) -> Result<PipelineRun, E> {
    let fields = serde::entries(value, "PipelineRun")?;
    let result = serde::entries(serde::field(fields, "result")?, "FlowResult")?;
    let original = netlist(serde::field(result, "original")?)?;
    let pipelined = netlist(serde::field(result, "pipelined")?)?;
    Ok(PipelineRun {
        result: Arc::new(FlowResult {
            original,
            pipelined,
            fanout: opt_from(serde::field(result, "fanout")?, |f| {
                let fields = serde::entries(f, "FanoutRestriction")?;
                Ok(FanoutRestriction {
                    limit: Deserialize::from_value(serde::field(fields, "limit")?)?,
                    fogs_inserted: Deserialize::from_value(serde::field(fields, "fogs_inserted")?)?,
                    components_split: Deserialize::from_value(serde::field(
                        fields,
                        "components_split",
                    )?)?,
                    delayed_consumers: Deserialize::from_value(serde::field(
                        fields,
                        "delayed_consumers",
                    )?)?,
                    depth_before: Deserialize::from_value(serde::field(fields, "depth_before")?)?,
                    depth_after: Deserialize::from_value(serde::field(fields, "depth_after")?)?,
                })
            })?,
            buffers: opt_from(serde::field(result, "buffers")?, |b| {
                let fields = serde::entries(b, "BufferInsertion")?;
                Ok(BufferInsertion {
                    balancing_buffers: Deserialize::from_value(serde::field(
                        fields,
                        "balancing_buffers",
                    )?)?,
                    padding_buffers: Deserialize::from_value(serde::field(
                        fields,
                        "padding_buffers",
                    )?)?,
                    depth: Deserialize::from_value(serde::field(fields, "depth")?)?,
                })
            })?,
            report: opt_from(serde::field(result, "report")?, |r| {
                let fields = serde::entries(r, "BalanceReport")?;
                Ok(BalanceReport {
                    depth: Deserialize::from_value(serde::field(fields, "depth")?)?,
                    waves_in_flight: Deserialize::from_value(serde::field(
                        fields,
                        "waves_in_flight",
                    )?)?,
                    max_fanout: Deserialize::from_value(serde::field(fields, "max_fanout")?)?,
                })
            })?,
        }),
        weighted: opt_from(serde::field(fields, "weighted")?, |w| {
            let fields = serde::entries(w, "WeightedInsertion")?;
            Ok(WeightedInsertion {
                buffers: Deserialize::from_value(serde::field(fields, "buffers")?)?,
                weighted_depth: Deserialize::from_value(serde::field(fields, "weighted_depth")?)?,
            })
        })?,
        trace: serde::field(fields, "trace")?
            .as_array()
            .ok_or_else(|| DeError::expected("trace array"))?
            .iter()
            .map(stats_from_value)
            .collect::<Result<_, _>>()?,
    })
}

// --- the binary codec ---------------------------------------------------

/// A bounds-checked read cursor over an entry's bytes.
struct Bytes<'a>(&'a [u8]);

impl<'a> Bytes<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], EntryError> {
        if n > self.0.len() {
            return Err(EntryError::Truncated(what));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], EntryError> {
        Ok(self.take(N, what)?.try_into().expect("took N bytes"))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, EntryError> {
        self.array(what).map(u32::from_le_bytes)
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, EntryError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// `declared` as a `usize`, if it is at most the bytes left.
    fn bounded(&self, declared: u64, what: &'static str) -> Result<usize, EntryError> {
        match usize::try_from(declared) {
            Ok(n) if n <= self.0.len() => Ok(n),
            _ => Err(EntryError::Oversize {
                what,
                declared,
                available: self.0.len() as u64,
            }),
        }
    }
}

/// The kind byte of a component record (see the module docs).
fn kind_byte(component: &Component) -> u8 {
    match component {
        Component::Input { .. } => b'i',
        Component::Const { value: false } => b'0',
        Component::Const { value: true } => b'1',
        Component::Maj { .. } => b'm',
        Component::Inv { .. } => b'v',
        Component::Buf { .. } => b'b',
        Component::Fog { .. } => b'f',
    }
}

fn arena_to_bytes(netlist: &Netlist, out: &mut Vec<u8>) {
    let c = netlist.counts();
    out.reserve(c.inputs + c.consts + 13 * c.maj + 5 * (c.inv + c.buf + c.fog));
    for id in netlist.ids() {
        let component = netlist.component(id);
        out.push(kind_byte(component));
        for fanin in component.fanins() {
            out.extend_from_slice(&fanin.0.to_le_bytes());
        }
    }
}

fn component_from_bytes(bytes: &mut Bytes, len: usize) -> Result<Component, EntryError> {
    let kind = bytes.take(1, "component arena")?[0];
    let mut fanin = || -> Result<CompId, EntryError> {
        Ok(fanin(u64::from(bytes.u32("component arena")?), len)?)
    };
    Ok(match kind {
        b'i' => Component::Input { position: 0 },
        b'0' | b'1' => Component::Const {
            value: kind == b'1',
        },
        b'm' => Component::Maj {
            fanins: [fanin()?, fanin()?, fanin()?],
        },
        b'v' => Component::Inv { fanin: fanin()? },
        b'b' => Component::Buf { fanin: fanin()? },
        b'f' => Component::Fog { fanin: fanin()? },
        other => return Err(DeError(format!("unknown component kind byte {other:#04x}")).into()),
    })
}

/// Appends a run's [`run_to_bytes`] body to `out`.
fn write_body(run: &PipelineRun, out: &mut Vec<u8>) {
    let meta = run_to_value(run, |n| netlist_view(n, Value::UInt(n.len() as u64)));
    let meta = serde_json::to_string(&meta).expect("value trees always render");
    out.extend_from_slice(&(meta.len() as u64).to_le_bytes());
    out.extend_from_slice(meta.as_bytes());
    arena_to_bytes(&run.result.original, out);
    arena_to_bytes(&run.result.pipelined, out);
}

// --- the disk tier ------------------------------------------------------

/// FNV-1a digest of an entry body.
fn checksum(body: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(body);
    h.finish()
}

/// The header's scope field. Scope tags are at most [`SCOPE_LEN`] bytes.
fn scope_field(scope: &str) -> [u8; SCOPE_LEN] {
    let mut field = [0; SCOPE_LEN];
    field[..scope.len()].copy_from_slice(scope.as_bytes());
    field
}

/// The on-disk cache tier the engine layers under its in-memory LRU.
/// All failures are soft: see the [module docs](self).
#[derive(Debug)]
pub(crate) struct DiskCache {
    root: PathBuf,
}

/// Distinguishes temp files of concurrent stores within one process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Orphaned temp files older than this are garbage-collected when a
/// cache is opened. A crash between the temp write and the rename
/// leaves a `.tmp-*` behind; the committed entries are untouched (the
/// rename never happened), but the orphans would accumulate forever.
/// The generous age floor keeps a *live* writer in another process —
/// even one mid-multi-second store — safe from collection.
const ORPHAN_TMP_TTL: std::time::Duration = std::time::Duration::from_secs(600);

impl DiskCache {
    pub(crate) fn new(root: PathBuf) -> DiskCache {
        Self::sweep_orphans(&root);
        DiskCache { root }
    }

    /// Removes stale `.tmp-*` leftovers of crashed writers. Best-effort
    /// on every path: a missing root, unreadable metadata or a racing
    /// unlink are all fine.
    fn sweep_orphans(root: &Path) {
        let Ok(entries) = std::fs::read_dir(root) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            if !name.to_string_lossy().starts_with(".tmp-") {
                continue;
            }
            let stale = entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|modified| modified.elapsed().ok())
                .is_some_and(|age| age >= ORPHAN_TMP_TTL);
            if stale {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    pub(crate) fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, scope: &str, (circuit, pipeline, technology): (u64, u64, u64)) -> PathBuf {
        self.root.join(format!(
            "{scope}-{circuit:016x}-{pipeline:016x}-{technology:016x}.bin"
        ))
    }

    /// Loads and verifies one entry; `None` (after at most one stderr
    /// warning) on absence, I/O error or any [`EntryError`].
    pub(crate) fn load(&self, scope: &str, key: (u64, u64, u64)) -> Option<PipelineRun> {
        let path = self.entry_path(scope, key);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                eprintln!(
                    "warning: cache read failed, recomputing: {}: {e}",
                    path.display()
                );
                return None;
            }
        };
        match Self::decode(&bytes, scope, key) {
            Ok(run) => Some(run),
            Err(reason) => {
                eprintln!(
                    "warning: ignoring unusable cache entry {} ({reason})",
                    path.display()
                );
                None
            }
        }
    }

    fn decode(entry: &[u8], scope: &str, key: (u64, u64, u64)) -> Result<PipelineRun, EntryError> {
        let mut header = Bytes(entry);
        if header.take(CACHE_MAGIC.len(), "header")? != CACHE_MAGIC.as_bytes() {
            return Err(EntryError::BadMagic);
        }
        let version = header.u64("header")?;
        if version != CACHE_VERSION {
            return Err(EntryError::StaleVersion(version));
        }
        let stored_scope = header.array::<SCOPE_LEN>("header")?;
        let stored_key = (
            header.u64("header")?,
            header.u64("header")?,
            header.u64("header")?,
        );
        if stored_scope != scope_field(scope) || stored_key != key {
            return Err(EntryError::KeyMismatch);
        }
        let stored = header.u64("header")?;
        let declared = header.u64("header")?;
        let body = header.0;
        if declared != body.len() as u64 {
            return Err(EntryError::BodyLength {
                declared,
                actual: body.len() as u64,
            });
        }
        let computed = checksum(body);
        if stored != computed {
            return Err(EntryError::Checksum { stored, computed });
        }
        run_from_bytes(body)
    }

    /// The full entry for `run` under `scope` and `key`: header, then
    /// body.
    fn encode(
        scope: &str,
        (circuit, pipeline, technology): (u64, u64, u64),
        run: &PipelineRun,
    ) -> Vec<u8> {
        let mut entry = vec![0; HEADER_LEN];
        write_body(run, &mut entry);
        let body = &entry[HEADER_LEN..];
        let (digest, len) = (checksum(body), body.len() as u64);
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(CACHE_MAGIC.as_bytes());
        header.extend_from_slice(&CACHE_VERSION.to_le_bytes());
        header.extend_from_slice(&scope_field(scope));
        for word in [circuit, pipeline, technology, digest, len] {
            header.extend_from_slice(&word.to_le_bytes());
        }
        entry[..HEADER_LEN].copy_from_slice(&header);
        entry
    }

    /// Atomically writes one entry (temp file + fsync + rename).
    /// Failures warn and drop the entry — the in-memory tier still
    /// holds the run.
    pub(crate) fn store(&self, scope: &str, key: (u64, u64, u64), run: &PipelineRun) {
        let entry = Self::encode(scope, key, run);
        let path = self.entry_path(scope, key);
        let tmp = self.root.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        // Write the full entry to a private temp file, force it to
        // stable storage, then publish with an atomic rename: a crash
        // at any point (or a concurrent daemon process storing the same
        // key) can leave an orphaned temp file, never a torn entry
        // under the final name.
        let written = std::fs::create_dir_all(&self.root)
            .and_then(|()| {
                use std::io::Write as _;
                let mut file = std::fs::File::create(&tmp)?;
                file.write_all(&entry)?;
                file.sync_all()
            })
            .and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp);
            eprintln!(
                "warning: cache write failed, entry not persisted: {}: {e}",
                path.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PipelineSpec;

    fn sample_run() -> PipelineRun {
        let graph = mig::random_mig(mig::RandomMigConfig {
            inputs: 6,
            outputs: 3,
            gates: 60,
            depth: 6,
            seed: 11,
        });
        PipelineSpec::default()
            .build()
            .unwrap()
            .run(&graph)
            .expect("sample flow verifies")
    }

    fn scratch_cache(name: &str) -> (PathBuf, DiskCache) {
        let dir = std::env::temp_dir().join(format!("wavepipe-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (dir.clone(), DiskCache::new(dir))
    }

    /// A body with `meta` as its meta section and `arenas` after it.
    fn body_with_meta(meta: &str, arenas: &[u8]) -> Vec<u8> {
        let mut body = (meta.len() as u64).to_le_bytes().to_vec();
        body.extend_from_slice(meta.as_bytes());
        body.extend_from_slice(arenas);
        body
    }

    #[test]
    fn run_codec_round_trips_byte_identically() {
        let run = sample_run();
        let text = run_to_json(&run);
        let back = run_from_json(&text).expect("round trip");
        assert_eq!(run_to_json(&back), text, "codec is a bijection on runs");
        assert_eq!(back.trace, run.trace);
        assert_eq!(back.result.report, run.result.report);
        assert_eq!(
            back.result.pipelined.counts(),
            run.result.pipelined.counts()
        );
        // The netlists replay exactly: every component and port agrees.
        for (a, b) in run.result.pipelined.ids().zip(back.result.pipelined.ids()) {
            assert_eq!(
                run.result.pipelined.component(a),
                back.result.pipelined.component(b)
            );
        }
    }

    #[test]
    fn binary_codec_round_trips_byte_identically() {
        let run = sample_run();
        let bytes = run_to_bytes(&run);
        let back = run_from_bytes(&bytes).expect("round trip");
        assert_eq!(run_to_bytes(&back), bytes, "codec is a bijection on runs");
        assert_eq!(run_to_json(&back), run_to_json(&run));
        // One kind byte per component, four bytes per fan-in.
        let arena = |n: &Netlist| {
            n.len()
                + 4 * n
                    .ids()
                    .map(|id| n.component(id).fanins().len())
                    .sum::<usize>()
        };
        let meta_len = u64::from_le_bytes(bytes[..8].try_into().unwrap()) as usize;
        assert_eq!(
            bytes.len(),
            8 + meta_len + arena(&run.result.original) + arena(&run.result.pipelined)
        );
        assert_eq!(
            run_from_bytes(&[bytes.as_slice(), b"x"].concat()).err(),
            Some(EntryError::TrailingBytes(1))
        );
    }

    #[test]
    fn disk_round_trip_and_key_isolation() {
        let (dir, cache) = scratch_cache("persist");
        let run = sample_run();
        cache.store("cell", (1, 2, 3), &run);
        let loaded = cache.load("cell", (1, 2, 3)).expect("entry loads");
        assert_eq!(run_to_json(&loaded), run_to_json(&run));
        assert!(cache.load("cell", (1, 2, 4)).is_none(), "other key misses");
        assert!(
            cache.load("cone", (1, 2, 3)).is_none(),
            "other scope misses"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_truncated_and_stale_entries_fall_back_to_none() {
        let (dir, cache) = scratch_cache("corrupt");
        let run = sample_run();
        cache.store("cell", (7, 8, 9), &run);
        let path = cache.entry_path("cell", (7, 8, 9));
        let pristine = std::fs::read(&path).unwrap();

        // Truncated mid-body.
        std::fs::write(&path, &pristine[..pristine.len() / 2]).unwrap();
        assert!(cache.load("cell", (7, 8, 9)).is_none());

        // A flipped byte in the first arena record (an input's `i`)
        // fails the checksum.
        let mut corrupt = pristine.clone();
        let meta_len = u64::from_le_bytes(pristine[HEADER_LEN..][..8].try_into().unwrap());
        let first_record = HEADER_LEN + 8 + meta_len as usize;
        assert_eq!(corrupt[first_record], b'i');
        corrupt[first_record] = b'0';
        std::fs::write(&path, &corrupt).unwrap();
        assert!(cache.load("cell", (7, 8, 9)).is_none());

        // Version-bumped entries are stale, not errors.
        let mut stale = pristine.clone();
        stale[14..22].copy_from_slice(&999u64.to_le_bytes());
        std::fs::write(&path, &stale).unwrap();
        assert!(cache.load("cell", (7, 8, 9)).is_none());
        assert_eq!(
            DiskCache::decode(&stale, "cell", (7, 8, 9)).err(),
            Some(EntryError::StaleVersion(999))
        );

        // The pristine bytes still load (the checks above were real).
        std::fs::write(&path, &pristine).unwrap();
        assert!(cache.load("cell", (7, 8, 9)).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_and_bit_flip_is_rejected() {
        let (dir, cache) = scratch_cache("fuzz");
        let run = sample_run();
        cache.store("cone", (4, 5, 6), &run);
        let path = cache.entry_path("cone", (4, 5, 6));
        let pristine = std::fs::read(&path).unwrap();
        let load_rejects = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            cache.load("cone", (4, 5, 6)).is_none()
        };

        for len in 0..pristine.len() {
            assert!(load_rejects(&pristine[..len]), "truncated to {len} bytes");
        }
        // Every bit of the header; a rotating bit of every 7th body byte.
        let header_bits = (0..HEADER_LEN).flat_map(|at| (0..8).map(move |bit| (at, bit)));
        let body_bits = (HEADER_LEN..pristine.len())
            .step_by(7)
            .map(|at| (at, at % 8));
        for (at, bit) in header_bits.chain(body_bits) {
            let mut flipped = pristine.clone();
            flipped[at] ^= 1 << bit;
            assert!(load_rejects(&flipped), "bit {bit} of byte {at} flipped");
        }
        assert!(!load_rejects(&pristine), "the pristine entry still loads");

        // Past the checksum, the body decoder itself never panics on a
        // flipped bit: it returns an error or some run.
        let body = &pristine[HEADER_LEN..];
        for at in 0..body.len() {
            let mut flipped = body.to_vec();
            flipped[at] ^= 1 << (at % 8);
            let _ = run_from_bytes(&flipped);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversize_declarations_are_rejected_before_allocation() {
        let run = sample_run();
        let body = run_to_bytes(&run);

        // A meta length far beyond the body.
        let mut huge_meta = body.clone();
        huge_meta[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            run_from_bytes(&huge_meta),
            Err(EntryError::Oversize {
                what: "meta length",
                declared: u64::MAX,
                ..
            })
        ));

        // A meta that declares a component count beyond the file.
        let count = 1u64 << 40;
        let meta = run_to_value(&run, |n| netlist_view(n, Value::UInt(count)));
        let meta = serde_json::to_string(&meta).unwrap();
        let meta_len = u64::from_le_bytes(body[..8].try_into().unwrap()) as usize;
        let oversized = body_with_meta(&meta, &body[8 + meta_len..]);
        assert!(matches!(
            run_from_bytes(&oversized),
            Err(EntryError::Oversize {
                what: "component count",
                declared,
                ..
            }) if declared == count
        ));

        // A header that declares a body longer than the file.
        let mut entry = DiskCache::encode("cell", (1, 2, 3), &run);
        let declared = (body.len() as u64) << 20;
        entry[62..70].copy_from_slice(&declared.to_le_bytes());
        assert_eq!(
            DiskCache::decode(&entry, "cell", (1, 2, 3)).err(),
            Some(EntryError::BodyLength {
                declared,
                actual: body.len() as u64
            })
        );
    }

    #[test]
    fn simulated_partial_write_leaves_committed_entries_intact() {
        let (dir, cache) = scratch_cache("partial");
        let run = sample_run();
        cache.store("cell", (1, 1, 1), &run);
        let pristine = std::fs::read(cache.entry_path("cell", (1, 1, 1))).unwrap();

        // Simulate a writer that crashed mid-store: a half-written temp
        // file sits in the cache dir, the rename never happened. The
        // committed entry must still load, and the orphan must not be
        // mistaken for an entry under any key.
        let orphan = dir.join(".tmp-99999-0");
        std::fs::write(&orphan, &pristine[..pristine.len() / 3]).unwrap();
        assert_eq!(
            run_to_json(
                &cache
                    .load("cell", (1, 1, 1))
                    .expect("committed entry intact")
            ),
            run_to_json(&run)
        );

        // A freshly-opened cache leaves the young orphan alone (it
        // could belong to a live writer in another process) ...
        let _reopened = DiskCache::new(dir.clone());
        assert!(orphan.exists(), "young temp files are not collected");

        // ... but collects it once it is older than the TTL.
        let aged = std::time::SystemTime::now() - (ORPHAN_TMP_TTL + ORPHAN_TMP_TTL);
        let file = std::fs::File::options().write(true).open(&orphan).unwrap();
        file.set_times(std::fs::FileTimes::new().set_modified(aged))
            .unwrap();
        drop(file);
        let _reopened = DiskCache::new(dir.clone());
        assert!(!orphan.exists(), "stale orphan garbage-collected");
        assert!(
            cache.load("cell", (1, 1, 1)).is_some(),
            "collection never touches committed entries"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_stores_of_one_key_never_tear_the_entry() {
        let (dir, cache) = scratch_cache("racing");
        let cache = std::sync::Arc::new(cache);
        let run = std::sync::Arc::new(sample_run());
        let expected = run_to_json(&run);

        // Many writers race the same key (the daemon shape: coalescing
        // dedups identical in-flight specs, but distinct specs can
        // still collide on a shared cache cell). Readers interleave;
        // every successful load must be the complete entry.
        let writers: Vec<_> = (0..8)
            .map(|_| {
                let (cache, run) = (cache.clone(), run.clone());
                std::thread::spawn(move || {
                    for _ in 0..4 {
                        cache.store("cell", (5, 5, 5), &run);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let (cache, expected) = (cache.clone(), expected.clone());
                std::thread::spawn(move || {
                    for _ in 0..8 {
                        if let Some(loaded) = cache.load("cell", (5, 5, 5)) {
                            assert_eq!(run_to_json(&loaded), expected, "torn read");
                        }
                    }
                })
            })
            .collect();
        for t in writers.into_iter().chain(readers) {
            t.join().unwrap();
        }
        assert_eq!(
            run_to_json(&cache.load("cell", (5, 5, 5)).expect("entry present")),
            expected
        );
        // No temp litter survives a clean run.
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(litter.is_empty(), "orphaned temp files after clean stores");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
