//! The traced cold scenario: every cell of the workload's spec replayed
//! stage by stage through the program's public functions, with one span
//! per call, laid out over the cores like the engine's own grid.

use mig::{EquivalencePolicy, Mig};
use rayon::prelude::*;
use wavepipe::differential::{self, Verdict};
use wavepipe::{
    insert_buffers, lint_spec, netlist_from_mig, netlist_from_mig_min_inv, restrict_fanout,
    verify_balance, BufferStrategy, CircuitSpec, Netlist, PassSpec,
};

use crate::scenarios::Reference;
use crate::trace::Tracer;
use crate::workload::Workload;

/// Span names of the replayed stages; the trace's other spans are
/// wrappers (`cold.replay`, `cell`) or checks.
pub const STAGES: [&str; 10] = [
    "lint.spec",
    "benchsuite.resolve",
    "mig.parse",
    "mig.hash",
    "pass.rewrite",
    "pass.map",
    "pass.fanout_restriction",
    "pass.insert_buffers",
    "pass.verify",
    "verify.check",
];

pub struct CellReplay {
    pub netlist: Option<Netlist>,
    pub depth: Option<u32>,
    pub mapped_components: u64,
    pub patterns: u64,
    pub error: Option<String>,
}

pub fn total(netlist: &Netlist) -> u64 {
    let c = netlist.counts();
    (c.inputs + c.consts + c.maj + c.inv + c.buf + c.fog) as u64
}

/// The differential gate the engine runs after every netlist stage
/// when the pipeline carries an equivalence policy; the patterns
/// compared, or why it failed.
fn gate(
    tracer: &Tracer,
    op: u64,
    parent: u64,
    netlist: &Netlist,
    source: &Mig,
    policy: Option<&EquivalencePolicy>,
) -> Result<u64, String> {
    let Some(policy) = policy else { return Ok(0) };
    match tracer.span("verify.check", op, parent, |_| {
        differential::check(netlist, source, policy)
    }) {
        Ok(Verdict::Equivalent { patterns, .. }) => Ok(patterns),
        other => Err(format!("equivalence gate: {other:?}")),
    }
}

/// One cell, stage by stage, following the spec's pass list: leading
/// rewrites, the implicit map, then the netlist passes.
fn replay_cell(w: &Workload, source: &Mig, tracer: &Tracer, op: u64, parent: u64) -> CellReplay {
    let pipeline = &w.spec.pipeline;
    let policy = pipeline.equivalence_gate.as_ref();
    let mut cell = CellReplay {
        netlist: None,
        depth: None,
        mapped_components: 0,
        patterns: 0,
        error: None,
    };
    let mut errors = Vec::new();
    let mut working = source.clone();
    for pass in &pipeline.passes {
        let rewritten = match pass {
            PassSpec::OptimizeDepth { max_rounds } => {
                Some(tracer.span("pass.rewrite", op, parent, |_| {
                    mig::optimize_depth(&working, *max_rounds).0
                }))
            }
            PassSpec::OptimizeSize { max_rounds } => {
                Some(tracer.span("pass.rewrite", op, parent, |_| {
                    mig::optimize_size(&working, *max_rounds)
                }))
            }
            _ => None,
        };
        if let Some(rewritten) = rewritten {
            working = rewritten;
            if let Some(policy) = policy {
                let verdict = tracer.span("verify.check", op, parent, |_| {
                    mig::check_equivalence_with_policy(&working, source, policy)
                });
                if !verdict.as_ref().is_ok_and(mig::Equivalence::holds) {
                    errors.push(format!("rewrite gate: {verdict:?}"));
                }
            }
            continue;
        }
        if cell.netlist.is_none() {
            let mapped = tracer.span("pass.map", op, parent, |_| {
                if pipeline.minimize_inverters {
                    netlist_from_mig_min_inv(&working)
                } else {
                    netlist_from_mig(&working)
                }
            });
            cell.mapped_components = total(&mapped);
            match gate(tracer, op, parent, &mapped, source, policy) {
                Ok(patterns) => cell.patterns += patterns,
                Err(e) => errors.push(e),
            }
            cell.netlist = Some(mapped);
        }
        let netlist = cell.netlist.as_mut().expect("mapped above");
        match pass {
            PassSpec::RestrictFanout { limit } => {
                tracer.span("pass.fanout_restriction", op, parent, |_| {
                    restrict_fanout(netlist, *limit)
                });
            }
            PassSpec::InsertBuffers(BufferStrategy::Asap) => {
                tracer.span("pass.insert_buffers", op, parent, |_| {
                    insert_buffers(netlist)
                });
            }
            PassSpec::Verify { fanout_limit } => {
                match tracer.span("pass.verify", op, parent, |_| {
                    verify_balance(netlist, *fanout_limit)
                }) {
                    Ok(report) => cell.depth = Some(report.depth),
                    Err(e) => errors.push(format!("verify_balance: {e}")),
                }
            }
            other => errors.push(format!("the replay has no stage for {other:?}")),
        }
        match gate(tracer, op, parent, netlist, source, policy) {
            Ok(patterns) => cell.patterns += patterns,
            Err(e) => errors.push(e),
        }
    }
    cell.error = (!errors.is_empty()).then(|| errors.join("; "));
    cell
}

/// Replays the whole spec; returns the cells circuit-major, like the
/// engine's grid.
pub fn replay(w: &Workload, tracer: &Tracer) -> Vec<CellReplay> {
    tracer.span("cold.replay", 0, 0, |root| {
        tracer.span("lint.spec", 0, root, |_| lint_spec(&w.spec));
        let indices: Vec<usize> = (0..w.spec.circuits.len()).collect();
        let graphs: Vec<Mig> = indices
            .par_iter()
            .map(|&i| {
                let op = i as u64;
                match &w.spec.circuits[i] {
                    CircuitSpec::Named(name) => tracer.span("benchsuite.resolve", op, root, |_| {
                        benchsuite::build_mig(name).expect("workload circuits resolve")
                    }),
                    CircuitSpec::Synthetic(synth) => {
                        tracer.span("benchsuite.resolve", op, root, |_| {
                            benchsuite::build_mig(&synth.name()).expect("workload circuits resolve")
                        })
                    }
                    CircuitSpec::Inline { mig, .. } => tracer.span("mig.parse", op, root, |_| {
                        mig::parse_mig(mig).expect("workload circuits parse")
                    }),
                }
            })
            .collect();
        let _hashes: Vec<u64> = indices
            .par_iter()
            .map(|&i| tracer.span("mig.hash", i as u64, root, |_| graphs[i].content_hash()))
            .collect();
        let techs = w.spec.technologies.len().max(1);
        let cells: Vec<usize> = (0..graphs.len() * techs).collect();
        cells
            .par_iter()
            .map(|&cell| {
                tracer.span("cell", cell as u64, root, |span| {
                    replay_cell(w, &graphs[cell / techs], tracer, cell as u64, span)
                })
            })
            .collect()
    })
}

/// Checks each replayed cell against the engine's: the same component
/// count, a balanced netlist, and (outside the timed replay, for flows
/// without an in-flow gate) a differential check against its source.
pub fn check(
    w: &Workload,
    cells: &[CellReplay],
    reference: &Reference,
    tracer: &Tracer,
) -> Vec<String> {
    let techs = w.spec.technologies.len().max(1);
    let gated = w.spec.pipeline.equivalence_gate.is_some();
    let indices: Vec<usize> = (0..cells.len()).collect();
    tracer.span("check", 0, 0, |root| {
        let problems: Vec<Option<String>> = indices
            .par_iter()
            .map(|&i| {
                let cell = &cells[i];
                if let Some(e) = &cell.error {
                    return Some(format!("cell {i}: {e}"));
                }
                let Some(netlist) = &cell.netlist else {
                    return Some(format!("cell {i}: the replay mapped nothing"));
                };
                if Some(&total(netlist)) != reference.components.get(i) {
                    return Some(format!(
                        "cell {i}: replay and engine disagree on components"
                    ));
                }
                if cell.depth.is_none() {
                    return Some(format!("cell {i}: replay never verified balance"));
                }
                if !gated {
                    let source = match &w.spec.circuits[i / techs] {
                        CircuitSpec::Named(name) => benchsuite::build_mig(name),
                        CircuitSpec::Synthetic(s) => benchsuite::build_mig(&s.name()),
                        CircuitSpec::Inline { mig, .. } => mig::parse_mig(mig).ok(),
                    };
                    let Some(source) = source else {
                        return Some(format!("cell {i}: source circuit does not rebuild"));
                    };
                    let verdict = tracer.span("check.differential", i as u64, root, |_| {
                        differential::check(netlist, &source, &EquivalencePolicy::default())
                    });
                    if !verdict.as_ref().is_ok_and(Verdict::holds) {
                        return Some(format!("cell {i}: differential check failed: {verdict:?}"));
                    }
                }
                None
            })
            .collect();
        problems.into_iter().flatten().collect()
    })
}
