//! Golden digests of every path-balancing strategy.
//!
//! Each case is one [`BufferStrategy`] (ASAP, retimed, weighted under
//! the QCA and NML delays of Table I, cost-aware under each Table I
//! technology) at one fan-out setting (none, 3), run on the synthetic
//! presets and the Table II circuits that fit a debug-build budget
//! (MUL64 alone would take most of it). A case renders the balanced
//! netlist's text form, its `buffers` / `weighted` / `report` slots, or
//! the error text where balancing fails (NML gaps can be indivisible);
//! the golden file keeps one 32-bit FNV-1a digest per case, one row per
//! circuit and one column per case. It also pins each case's pipeline
//! spec content hash and the persist cache version, both cache keys,
//! and the digest of one fixed run's disk entry body, so the entry
//! layout cannot drift without a version bump. Its `grid` line digests
//! every cell of engine grid runs (the Table II circuits under each
//! Table I technology), so the bytes a cell carries cannot depend on
//! how the engine schedules or shares the cells' executions.
//!
//! On a mismatch the test prints the fresh rows and every differing
//! case's full rendering.

use tech::Technology;
use wavepipe::{
    io, persist, BufferStrategy, CostTable, DelayWeights, Engine, FlowSpec, PipelineRun,
    PipelineSpec,
};

const TABLE2_CIRCUITS: [&str; 6] = ["SASC", "DES_AREA", "MUL32", "HAMMING", "REVX", "DIFFEQ1"];

const GOLDEN: &str = include_str!("golden/balance.txt");

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every case: a label, the pipeline (strategy plus its matching
/// verifier) and the cost model it runs under (`None` = cost-blind).
fn cases() -> Vec<(String, PipelineSpec, Option<CostTable>)> {
    let mut out = Vec::new();
    for limit in [None, Some(3)] {
        let fo = limit.map_or("none".to_owned(), |k| k.to_string());
        let base = match limit {
            Some(k) => PipelineSpec::map(false).restrict_fanout(k),
            None => PipelineSpec::map(false),
        };
        for (name, strategy) in [
            ("asap", BufferStrategy::Asap),
            ("retimed", BufferStrategy::Retimed),
        ] {
            out.push((
                format!("{name}/fo={fo}"),
                base.clone().insert_buffers(strategy).verify(limit),
                None,
            ));
        }
        for (name, w) in [("qca", DelayWeights::QCA), ("nml", DelayWeights::NML)] {
            out.push((
                format!("weighted({name})/fo={fo}"),
                base.clone()
                    .insert_buffers(BufferStrategy::Weighted(w))
                    .verify_weighted(w),
                None,
            ));
        }
        for table in Technology::all().iter().map(Technology::cost_table) {
            out.push((
                format!("cost-aware({})/fo={fo}", table.name()),
                base.clone()
                    .insert_buffers(BufferStrategy::CostAware)
                    .verify_cost_aware(limit),
                Some(table),
            ));
        }
    }
    out
}

fn render_case(outcome: Result<PipelineRun, wavepipe::PassError>) -> String {
    let run = match outcome {
        Ok(run) => run,
        Err(e) => return format!("err {e}"),
    };
    let netlist = fnv1a(io::write_netlist(&run.result.pipelined).as_bytes());
    let buffers = run.result.buffers.map_or("-".to_owned(), |b| {
        format!("{}+{}@{}", b.balancing_buffers, b.padding_buffers, b.depth)
    });
    let weighted = run.weighted.map_or("-".to_owned(), |w| {
        format!("{}@{}", w.buffers, w.weighted_depth)
    });
    let report = run.result.report.map_or("-".to_owned(), |r| {
        format!("d{} w{} fo{}", r.depth, r.waves_in_flight, r.max_fanout)
    });
    format!("net {netlist:016x} buffers {buffers} weighted {weighted} report {report}")
}

/// FNV-1a of the binary disk body (`persist::run_to_bytes`) of one
/// fixed run, with its wall-clock pass times zeroed.
fn cache_format_digest() -> u64 {
    let graph = benchsuite::build_mig("synth:dag:1").expect("circuit builds");
    let pipeline = PipelineSpec::map(false)
        .restrict_fanout(3)
        .insert_buffers(BufferStrategy::CostAware)
        .verify_cost_aware(Some(3))
        .build()
        .expect("well-ordered pipeline");
    let model = Technology::swd().cost_table();
    let mut run = pipeline
        .run_with_model(&graph, Some(&model))
        .expect("sample flow verifies");
    for stats in &mut run.trace {
        stats.micros = 0;
    }
    fnv1a(&persist::run_to_bytes(&run))
}

/// FNV-1a over every cell's binary disk body, wall-clock pass times
/// zeroed (failed cells by their error text), of one engine run per
/// pipeline: the Table II circuits × every Table I technology under the
/// default flow, a weighted flow and a cost-aware flow.
fn grid_digest() -> u64 {
    let pipelines = [
        PipelineSpec::default(),
        PipelineSpec::map(false)
            .restrict_fanout(3)
            .insert_buffers(BufferStrategy::Weighted(DelayWeights::QCA))
            .verify_weighted(DelayWeights::QCA),
        PipelineSpec::map(false)
            .restrict_fanout(3)
            .insert_buffers(BufferStrategy::CostAware)
            .verify_cost_aware(Some(3)),
    ];
    let engine = Engine::new().with_resolver(benchsuite::build_mig);
    let mut bytes = Vec::new();
    for pipeline in pipelines {
        let mut spec = FlowSpec::new("grid").with_pipeline(pipeline);
        for technology in Technology::all() {
            spec = spec.technology(technology.cost_table());
        }
        for circuit in TABLE2_CIRCUITS {
            spec = spec.circuit(circuit);
        }
        for cell in &engine.run(&spec).expect("grid spec runs") {
            match &cell.outcome {
                Ok(run) => {
                    let mut run = PipelineRun::clone(run);
                    for stats in &mut run.trace {
                        stats.micros = 0;
                    }
                    bytes.extend(persist::run_to_bytes(&run));
                }
                Err(e) => bytes.extend(format!("err {e}").into_bytes()),
            }
        }
    }
    fnv1a(&bytes)
}

/// The golden text, plus every case's full rendering by (row, column).
fn render() -> (String, Vec<Vec<String>>) {
    let cases = cases();
    let names: Vec<&str> = cases.iter().map(|(name, _, _)| name.as_str()).collect();
    let hashes: Vec<String> = cases
        .iter()
        .map(|(_, spec, _)| format!("{:016x}", spec.content_hash()))
        .collect();
    let mut text = format!(
        "cache_version {}\ncache_format {:016x}\ncases {}\nspecs {}\n",
        persist::CACHE_VERSION,
        cache_format_digest(),
        names.join(" "),
        hashes.join(" ")
    );
    let mut full = Vec::new();
    let circuits = benchsuite::synth::PRESETS
        .iter()
        .copied()
        .chain(TABLE2_CIRCUITS);
    for circuit in circuits {
        let graph = benchsuite::build_mig(circuit).expect("circuit builds");
        let row: Vec<String> = cases
            .iter()
            .map(|(_, spec, model)| {
                let pipeline = spec.build().expect("well-ordered pipeline");
                render_case(pipeline.run_with_model(&graph, model.as_ref()))
            })
            .collect();
        let digests: Vec<String> = row
            .iter()
            .map(|case| format!("{:08x}", fnv1a(case.as_bytes()) as u32))
            .collect();
        text.push_str(&format!("{circuit} {}\n", digests.join(" ")));
        full.push(row);
    }
    text.push_str(&format!("grid {:016x}\n", grid_digest()));
    (text, full)
}

#[test]
fn every_balancing_strategy_matches_its_golden_digest() {
    let (text, full) = render();
    if text == GOLDEN {
        return;
    }
    let names: Vec<String> = cases().into_iter().map(|(name, _, _)| name).collect();
    let mut report = String::new();
    for ((got, want), row) in text.lines().skip(4).zip(GOLDEN.lines().skip(4)).zip(&full) {
        let circuit = got.split(' ').next().unwrap_or_default();
        let columns = got.split(' ').skip(1).zip(want.split(' ').skip(1));
        for (column, (g, w)) in columns.enumerate().filter(|(_, (g, w))| g != w) {
            report.push_str(&format!(
                "{circuit} {}: golden {w}, now {g} = {}\n",
                names[column], row[column]
            ));
        }
    }
    let (got, want) = (text.lines().last(), GOLDEN.lines().last());
    if got != want {
        report.push_str(&format!("golden {want:?}, now {got:?}\n"));
    }
    panic!("golden mismatch:\n{report}\nrendered:\n{text}");
}
