//! Persistent on-disk result cache: versioned, checksummed JSON
//! snapshots of whole [`PipelineRun`]s under a cache root (by default
//! `results/cache/`), layered *under* the engine's in-memory LRU so
//! warm starts survive process restarts.
//!
//! ## Entry layout
//!
//! One file per cache key, named
//! `{scope}-{circuit:016x}-{pipeline:016x}-{technology:016x}.json`
//! (`scope` is `cell` for whole-circuit grid cells, `cone` for
//! per-output-cone runs, `spliced` for merged incremental results). The
//! file is a single JSON object:
//!
//! ```json
//! {"magic": "wavepipe-cache", "version": 1, "scope": "cell",
//!  "circuit": …, "pipeline": …, "technology": …,
//!  "checksum": …, "payload": { … }}
//! ```
//!
//! `checksum` is an FNV digest of the **canonical** payload tree — the
//! parse of the rendered text, not the in-memory tree, because the JSON
//! renderer prints integral floats without a fraction (they re-parse as
//! integers). Loads verify magic, version, key and checksum; *any*
//! mismatch, parse failure or I/O error logs one warning to stderr and
//! behaves as a cache miss — a corrupt or stale entry can cost a
//! recompute, never a crash. Stores write to a temp file and rename, so
//! concurrent processes sharing a cache directory never observe a
//! half-written entry.
//!
//! The run codec itself ([`run_to_json`] / [`run_from_json`]) stays
//! hand-written rather than derived, because a binary disk codec is
//! meant to replace it. Netlists are recorded as an exact arena replay
//! — component list in arena order, rebuilt through the public
//! construction API — so a decoded run is byte-identical to the encoded
//! one, which is what lets the engine's warm-disk golden tests compare
//! results bit-for-bit across processes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{object, DeError, Deserialize, Value};

use crate::balance::BalanceReport;
use crate::buffer_insertion::BufferInsertion;
use crate::component::{CompId, Component};
use crate::cost::{PricedCost, PricedDelta};
use crate::fanout_restriction::FanoutRestriction;
use crate::flow::FlowResult;
use crate::fnv::Fnv;
use crate::netlist::{KindCounts, Netlist};
use crate::pipeline::{PassStats, PipelineRun};
use crate::spec::hash_value;
use crate::weighted::WeightedInsertion;

/// On-disk format version; bump on any payload-shape change so old
/// entries are skipped (with a warning) instead of misread.
pub const CACHE_VERSION: u64 = 1;

/// The magic tag every cache entry starts with.
pub const CACHE_MAGIC: &str = "wavepipe-cache";

/// Serializes a pipeline run to the canonical compact JSON payload.
pub fn run_to_json(run: &PipelineRun) -> String {
    serde_json::to_string(&run_to_value(run)).expect("value trees always render")
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
    run_from_value(&value)
}

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

fn entries<'a>(value: &'a Value, what: &str) -> Result<&'a [(String, Value)], DeError> {
    value.as_object().ok_or_else(|| DeError::expected(what))
}

fn u64_field(fields: &[(String, Value)], name: &str) -> Result<u64, DeError> {
    Deserialize::from_value(serde::field(fields, name)?)
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
        ("components", Value::Array(components)),
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

fn fanin(value: &Value, len: usize) -> Result<CompId, DeError> {
    let index = usize::try_from(
        value
            .as_u64()
            .ok_or_else(|| DeError::expected("fan-in index"))?,
    )
    .map_err(|_| DeError::expected("in-range fan-in index"))?;
    if index >= len {
        return Err(DeError(format!(
            "dangling fan-in {index} in a {len}-component netlist"
        )));
    }
    Ok(CompId::from_index(index))
}

fn netlist_from_value(value: &Value) -> Result<Netlist, DeError> {
    let fields = entries(value, "object for Netlist")?;
    let name: String = Deserialize::from_value(serde::field(fields, "name")?)?;
    let input_names: Vec<String> = serde::field(fields, "inputs")?
        .as_array()
        .ok_or_else(|| DeError::expected("input name array"))?
        .iter()
        .map(Deserialize::from_value)
        .collect::<Result<_, _>>()?;
    let components = serde::field(fields, "components")?
        .as_array()
        .ok_or_else(|| DeError::expected("component array"))?;
    let outputs = serde::field(fields, "outputs")?
        .as_array()
        .ok_or_else(|| DeError::expected("output array"))?;

    // Exact arena replay: each component re-added in order must land on
    // its original index, otherwise the payload is not a canonical
    // netlist recording and the whole entry is rejected.
    let mut netlist = Netlist::new(name);
    let len = components.len();
    let mut next_input = 0usize;
    for (index, component) in components.iter().enumerate() {
        let id = match component {
            Value::Str(tag) if tag == "i" => {
                let name = input_names
                    .get(next_input)
                    .ok_or_else(|| DeError::expected("an input name per input component"))?;
                next_input += 1;
                netlist.add_input(name.clone())
            }
            Value::Array(items) => {
                let tag = items
                    .first()
                    .and_then(Value::as_str)
                    .ok_or_else(|| DeError::expected("component tag"))?;
                let arity_err = || DeError(format!("malformed `{tag}` component"));
                match tag {
                    "k" => match items.get(1) {
                        Some(Value::Bool(v)) => netlist.add_const(*v),
                        _ => return Err(arity_err()),
                    },
                    "m" if items.len() == 4 => netlist.add_maj([
                        fanin(&items[1], len)?,
                        fanin(&items[2], len)?,
                        fanin(&items[3], len)?,
                    ]),
                    "v" if items.len() == 2 => netlist.add_inv(fanin(&items[1], len)?),
                    "b" if items.len() == 2 => netlist.add_buf(fanin(&items[1], len)?),
                    "f" if items.len() == 2 => netlist.add_fog(fanin(&items[1], len)?),
                    _ => return Err(arity_err()),
                }
            }
            _ => return Err(DeError::expected("component entry")),
        };
        if id.index() != index {
            return Err(DeError(format!(
                "non-canonical component recording at index {index}"
            )));
        }
    }
    if next_input != input_names.len() {
        return Err(DeError(format!(
            "{} input names for {next_input} input components",
            input_names.len()
        )));
    }
    for port in outputs {
        let items = port
            .as_array()
            .ok_or_else(|| DeError::expected("[name, driver] output pair"))?;
        match items {
            [Value::Str(name), driver] => {
                let driver = fanin(driver, len)?;
                netlist.add_output(name.clone(), driver);
            }
            _ => return Err(DeError::expected("[name, driver] output pair")),
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
    let fields = entries(value, "object for PricedCost")?;
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
    let fields = entries(value, "object for PassStats")?;
    Ok(PassStats {
        pass: Deserialize::from_value(serde::field(fields, "pass")?)?,
        micros: u64_field(fields, "micros")?,
        counts_before: counts_from_value(serde::field(fields, "counts_before")?)?,
        counts_after: counts_from_value(serde::field(fields, "counts_after")?)?,
        added: counts_from_value(serde::field(fields, "added")?)?,
        depth_before: Deserialize::from_value(serde::field(fields, "depth_before")?)?,
        depth_after: Deserialize::from_value(serde::field(fields, "depth_after")?)?,
        priced: opt_from(serde::field(fields, "priced")?, |p| {
            let fields = entries(p, "object for PricedDelta")?;
            Ok(PricedDelta {
                model: Deserialize::from_value(serde::field(fields, "model")?)?,
                before: priced_cost_from_value(serde::field(fields, "before")?)?,
                after: priced_cost_from_value(serde::field(fields, "after")?)?,
            })
        })?,
    })
}

/// Encodes a run as the canonical payload value tree.
fn run_to_value(run: &PipelineRun) -> Value {
    object(vec![
        (
            "result",
            object(vec![
                ("original", netlist_to_value(&run.result.original)),
                ("pipelined", netlist_to_value(&run.result.pipelined)),
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

fn run_from_value(value: &Value) -> Result<PipelineRun, DeError> {
    let fields = entries(value, "object for PipelineRun")?;
    let result = entries(serde::field(fields, "result")?, "object for FlowResult")?;
    Ok(PipelineRun {
        result: FlowResult {
            original: netlist_from_value(serde::field(result, "original")?)?,
            pipelined: netlist_from_value(serde::field(result, "pipelined")?)?,
            fanout: opt_from(serde::field(result, "fanout")?, |f| {
                let fields = entries(f, "object for FanoutRestriction")?;
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
                let fields = entries(b, "object for BufferInsertion")?;
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
                let fields = entries(r, "object for BalanceReport")?;
                Ok(BalanceReport {
                    depth: Deserialize::from_value(serde::field(fields, "depth")?)?,
                    waves_in_flight: Deserialize::from_value(serde::field(
                        fields,
                        "waves_in_flight",
                    )?)?,
                    max_fanout: Deserialize::from_value(serde::field(fields, "max_fanout")?)?,
                })
            })?,
        },
        weighted: opt_from(serde::field(fields, "weighted")?, |w| {
            let fields = entries(w, "object for WeightedInsertion")?;
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

// --- the disk tier ------------------------------------------------------

/// FNV digest of the canonical payload tree (see the module docs for
/// why the tree must come from a parse of the rendered text).
fn checksum(canonical_payload: &Value) -> u64 {
    let mut h = Fnv::new();
    h.write(CACHE_MAGIC.as_bytes());
    h.write_u64(CACHE_VERSION);
    hash_value(canonical_payload, &mut h);
    h.finish()
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
            "{scope}-{circuit:016x}-{pipeline:016x}-{technology:016x}.json"
        ))
    }

    /// Loads and verifies one entry; `None` (after at most one stderr
    /// warning) on absence, I/O error, parse error, version or key
    /// mismatch, checksum mismatch, or a payload that fails to replay.
    pub(crate) fn load(&self, scope: &str, key: (u64, u64, u64)) -> Option<PipelineRun> {
        let path = self.entry_path(scope, key);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                eprintln!(
                    "warning: cache read failed, recomputing: {}: {e}",
                    path.display()
                );
                return None;
            }
        };
        match Self::decode(&text, scope, key) {
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

    fn decode(text: &str, scope: &str, key: (u64, u64, u64)) -> Result<PipelineRun, DeError> {
        let value: Value = serde_json::from_str(text).map_err(|e| DeError(e.to_string()))?;
        let fields = entries(&value, "object for cache entry")?;
        let magic: String = Deserialize::from_value(serde::field(fields, "magic")?)?;
        if magic != CACHE_MAGIC {
            return Err(DeError(format!("bad magic `{magic}`")));
        }
        let version = u64_field(fields, "version")?;
        if version != CACHE_VERSION {
            return Err(DeError(format!(
                "stale format version {version}, expected {CACHE_VERSION}"
            )));
        }
        let stored_scope: String = Deserialize::from_value(serde::field(fields, "scope")?)?;
        let stored_key = (
            u64_field(fields, "circuit")?,
            u64_field(fields, "pipeline")?,
            u64_field(fields, "technology")?,
        );
        if stored_scope != scope || stored_key != key {
            return Err(DeError("entry key does not match its file name".to_owned()));
        }
        let payload = serde::field(fields, "payload")?;
        // The payload was just parsed from text, so it *is* canonical.
        let stored_checksum = u64_field(fields, "checksum")?;
        let actual = checksum(payload);
        if stored_checksum != actual {
            return Err(DeError(format!(
                "checksum mismatch (stored {stored_checksum:#018x}, computed {actual:#018x})"
            )));
        }
        run_from_value(payload)
    }

    /// Atomically writes one entry (temp file + rename). Failures warn
    /// and drop the entry — the in-memory tier still holds the run.
    pub(crate) fn store(&self, scope: &str, key: (u64, u64, u64), run: &PipelineRun) {
        let (circuit, pipeline, technology) = key;
        let payload_text = run_to_json(run);
        // Canonicalize through a parse so the checksum matches what a
        // future load will hash (integral floats re-parse as integers).
        let canonical: Value = match serde_json::from_str(&payload_text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("warning: cache entry not persisted (non-round-tripping payload: {e})");
                return;
            }
        };
        let digest = checksum(&canonical);
        let mut text = String::with_capacity(payload_text.len() + 256);
        text.push_str(&format!(
            "{{\"magic\":\"{CACHE_MAGIC}\",\"version\":{CACHE_VERSION},\"scope\":\"{scope}\",\
             \"circuit\":{circuit},\"pipeline\":{pipeline},\"technology\":{technology},\
             \"checksum\":{digest},\"payload\":"
        ));
        text.push_str(&payload_text);
        text.push('}');

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
                file.write_all(text.as_bytes())?;
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
    use crate::flow::FlowConfig;
    use crate::pipeline::FlowPipeline;

    fn sample_run() -> PipelineRun {
        let graph = mig::random_mig(mig::RandomMigConfig {
            inputs: 6,
            outputs: 3,
            gates: 60,
            depth: 6,
            seed: 11,
        });
        FlowPipeline::for_config(FlowConfig::default())
            .run(&graph)
            .expect("sample flow verifies")
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
    fn disk_round_trip_and_key_isolation() {
        let dir = std::env::temp_dir().join(format!("wavepipe-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::new(dir.clone());
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
        let dir = std::env::temp_dir().join(format!("wavepipe-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::new(dir.clone());
        let run = sample_run();
        cache.store("cell", (7, 8, 9), &run);
        let path = cache.entry_path("cell", (7, 8, 9));
        let pristine = std::fs::read_to_string(&path).unwrap();

        // Truncated mid-payload.
        std::fs::write(&path, &pristine[..pristine.len() / 2]).unwrap();
        assert!(cache.load("cell", (7, 8, 9)).is_none());

        // Byte-flipped payload fails the checksum.
        let corrupt = pristine.replace("\"components\":[\"i\"", "\"components\":[\"k\"");
        assert_ne!(corrupt, pristine, "corruption applied");
        std::fs::write(&path, corrupt).unwrap();
        assert!(cache.load("cell", (7, 8, 9)).is_none());

        // Version-bumped entries are stale, not errors.
        let stale = pristine.replace("\"version\":1,", "\"version\":999,");
        assert_ne!(stale, pristine);
        std::fs::write(&path, stale).unwrap();
        assert!(cache.load("cell", (7, 8, 9)).is_none());

        // The pristine text still loads (the checks above were real).
        std::fs::write(&path, &pristine).unwrap();
        assert!(cache.load("cell", (7, 8, 9)).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulated_partial_write_leaves_committed_entries_intact() {
        let dir = std::env::temp_dir().join(format!("wavepipe-partial-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::new(dir.clone());
        let run = sample_run();
        cache.store("cell", (1, 1, 1), &run);
        let pristine = std::fs::read_to_string(cache.entry_path("cell", (1, 1, 1))).unwrap();

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
        let dir = std::env::temp_dir().join(format!("wavepipe-racing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = std::sync::Arc::new(DiskCache::new(dir.clone()));
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
