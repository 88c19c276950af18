//! `wavecheck` — static wave-pipelining legality analyzer and lint
//! driver over the benchmark registry.
//!
//! ```text
//! cargo run --release -p wavepipe-bench --bin wavecheck -- \
//!     [NAME ...] [--quick] [--suite] [--presets] [--spec FILE] \
//!     [--fanout-limit K] [--optimize] [--json] [--out FILE]
//! ```
//!
//! Every positional `NAME` is resolved through the `benchsuite`
//! registry (paper benchmarks and the `synth:` grammar alike). For each
//! circuit the tool:
//!
//! 1. lints the source MIG (`MIG0xx` hygiene rules),
//! 2. runs the paper's default flow (map → FO-k → BUF → verify) with
//!    per-pass lint gating enabled, and
//! 3. statically re-checks the pipelined netlist against every `WP0xx`
//!    legality rule — no simulation involved.
//!
//! `--optimize` prefixes the flow with the MIG rewrite passes
//! (`optimize_depth` then `optimize_size`) and lints the *rewritten*
//! MIG — the flow's actual mapping input — instead of the raw source
//! graph, so the report demonstrates the rewrites leave the graph
//! hygienic (in particular, `optimize_size` clears `MIG001` reducible
//! gates wherever the collapse applies).
//!
//! `--spec FILE` additionally lints a [`wavepipe::FlowSpec`] JSON file
//! with the `SPEC0xx` rules (the same check the engine runs before a
//! sweep). `--quick` selects the 8-circuit quick subset, `--suite` the
//! full 37-circuit suite, `--presets` the ready-made `synth:` presets;
//! with no selection at all, `--quick` is implied.
//!
//! Output is a human listing by default or a
//! [`wavepipe::LintReport`] JSON document with `--json`; `--out FILE`
//! writes the JSON report to a file as well (CI keeps
//! `results/LINT.json` this way). Exit status: `0` when no
//! error-severity diagnostic was found and every flow ran, `1`
//! otherwise, `2` on usage errors.

use std::fs;
use std::process::ExitCode;

use wavepipe::{BufferStrategy, FlowPipeline, FlowSpec, LintReport, PassError, PassSpec};
use wavepipe_bench::harness::QUICK_SUBSET;

/// The §IV fan-out bound checked when `--fanout-limit` is not given
/// (the paper's default, matching [`wavepipe::PipelineSpec::default`]).
const DEFAULT_FANOUT_LIMIT: u32 = 3;

/// Rewrite-round budget of the `--optimize` prefix.
const REWRITE_ROUNDS: usize = 16;

fn usage(code: u8) -> ExitCode {
    eprintln!(
        "usage: wavecheck [NAME ...] [--quick] [--suite] [--presets] \
         [--spec FILE] [--fanout-limit K] [--optimize] [--json] [--out FILE]"
    );
    ExitCode::from(code)
}

fn main() -> ExitCode {
    let mut names: Vec<String> = Vec::new();
    let mut spec_paths: Vec<String> = Vec::new();
    let mut fanout_limit = DEFAULT_FANOUT_LIMIT;
    let mut optimize = false;
    let mut json = false;
    let mut out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => names.extend(QUICK_SUBSET.iter().map(|n| n.to_string())),
            "--suite" => names.extend(benchsuite::SUITE.iter().map(|s| s.name.to_string())),
            "--presets" => names.extend(benchsuite::synth::PRESETS.iter().map(|n| n.to_string())),
            "--spec" => match args.next() {
                Some(path) => spec_paths.push(path),
                None => return usage(2),
            },
            "--fanout-limit" => match args.next().and_then(|v| v.parse().ok()) {
                Some(k) => fanout_limit = k,
                None => return usage(2),
            },
            "--optimize" => optimize = true,
            "--json" => json = true,
            "--out" => match args.next() {
                Some(path) => out = Some(path),
                None => return usage(2),
            },
            "--help" | "-h" => return usage(0),
            other if other.starts_with('-') => {
                eprintln!("wavecheck: unknown flag `{other}`");
                return usage(2);
            }
            name => names.push(name.to_owned()),
        }
    }
    if names.is_empty() && spec_paths.is_empty() {
        names.extend(QUICK_SUBSET.iter().map(|n| n.to_string()));
    }
    names.dedup();

    let mut builder = FlowPipeline::builder();
    if optimize {
        builder = builder
            .then(PassSpec::OptimizeDepth {
                max_rounds: REWRITE_ROUNDS,
            })
            .then(PassSpec::OptimizeSize {
                max_rounds: REWRITE_ROUNDS,
            });
    }
    let built = builder
        .map(false)
        .then(PassSpec::RestrictFanout {
            limit: fanout_limit,
        })
        .then(PassSpec::InsertBuffers(BufferStrategy::Asap))
        .then(PassSpec::Verify {
            fanout_limit: Some(fanout_limit),
        })
        .gate_lints()
        .build();
    let pipeline = match built {
        Ok(pipeline) => pipeline,
        Err(e) => {
            eprintln!("wavecheck: --fanout-limit {fanout_limit}: {e}");
            return usage(2);
        }
    };

    let mut subjects = Vec::new();
    let mut flow_failures = 0usize;

    for path in &spec_paths {
        let text = match fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("wavecheck: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let spec = match FlowSpec::from_json(&text) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("wavecheck: {path}: not a flow spec: {e}");
                return ExitCode::from(2);
            }
        };
        subjects.push(wavepipe::lint::SubjectReport {
            subject: path.clone(),
            diagnostics: wavepipe::lint_spec(&spec),
        });
    }

    for name in &names {
        let Some(graph) = benchsuite::build_mig(name) else {
            eprintln!("wavecheck: unknown circuit `{name}`");
            return ExitCode::from(2);
        };
        // With --optimize the flow maps the rewritten graph, so that is
        // the MIG whose hygiene the report should attest.
        let linted = if optimize {
            let (by_depth, _) = mig::optimize_depth(&graph, REWRITE_ROUNDS);
            mig::optimize_size(&by_depth, REWRITE_ROUNDS)
        } else {
            graph.clone()
        };
        let mut diagnostics = wavepipe::lint_mig(&linted);
        match pipeline.run(&graph) {
            Ok(run) => {
                diagnostics.extend(wavepipe::lint_netlist(
                    &run.result.pipelined,
                    Some(fanout_limit),
                ));
            }
            // The per-pass gate already names the offending pass and
            // rules — surface its findings instead of a bare error.
            Err(PassError::Lint(failure)) => {
                eprintln!(
                    "wavecheck: {name}: lint gate tripped after `{}`",
                    failure.pass
                );
                diagnostics.extend(failure.diagnostics);
            }
            Err(e) => {
                eprintln!("wavecheck: {name}: flow failed: {e}");
                flow_failures += 1;
            }
        }
        diagnostics.sort_by_key(|d| std::cmp::Reverse(d.severity));
        subjects.push(wavepipe::lint::SubjectReport {
            subject: name.clone(),
            diagnostics,
        });
    }

    let report = LintReport::new(Some(fanout_limit), subjects);
    let rendered = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Some(path) = &out {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent).expect("create report directory");
            }
        }
        fs::write(path, &rendered).expect("write report");
    }

    if json {
        println!("{rendered}");
    } else {
        for subject in &report.subjects {
            if subject.diagnostics.is_empty() {
                println!("{:<48} clean", subject.subject);
                continue;
            }
            let totals = wavepipe::lint::LintTotals::of(&subject.diagnostics);
            println!(
                "{:<48} {} error(s), {} warning(s)",
                subject.subject, totals.errors, totals.warnings
            );
            for d in &subject.diagnostics {
                println!("  {d}");
            }
        }
        println!(
            "\nwavecheck: {} subject(s), {} error(s), {} warning(s), {} info(s){}",
            report.subjects.len(),
            report.totals.errors,
            report.totals.warnings,
            report.totals.infos,
            if flow_failures > 0 {
                format!(", {flow_failures} flow failure(s)")
            } else {
                String::new()
            }
        );
    }

    if report.is_clean() && flow_failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
