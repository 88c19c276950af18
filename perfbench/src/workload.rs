//! The workloads. Each one is a `FlowSpec` for the cold / warm / disk /
//! store scenarios, a graph for the ECO session and a pool of daemon
//! requests. Everything the seed changes (the ECO script, the churn
//! order, the order of served requests) is drawn from [`Rng`]; the
//! program only sees the generated inputs.

use mig::Mig;
use tech::Technology;
use wavepipe::{BufferStrategy, CostTable, EquivalencePolicy, FlowSpec, PipelineSpec, SynthSpec};

/// splitmix64: a tiny seeded generator, so every draw is reproducible
/// from `--seed` alone.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE7C_0000_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// How the served phase walks the request pool.
#[derive(Clone, Copy, Debug)]
pub enum Order {
    /// Cycle through the pool from a seeded start.
    RoundRobin,
    /// Seeded uniform picks.
    Random,
}

pub struct Workload {
    pub name: &'static str,
    /// The workload's whole experiment.
    pub spec: FlowSpec,
    /// The ECO session's starting graph, pipeline and cost model.
    pub eco_graph: Mig,
    pub eco_pipeline: PipelineSpec,
    pub eco_model: Option<CostTable>,
    /// Daemon requests; each one streams `cells_per_request` cells.
    pub requests: Vec<FlowSpec>,
    pub cells_per_request: usize,
    pub order: Order,
    /// LRU bound of the daemon's engine (`None`: unbounded).
    pub daemon_capacity: Option<usize>,
    /// Open-loop arrival rate, requests per second.
    pub served_rate: f64,
}

pub const WORKLOADS: [&str; 2] = ["table2", "churn"];

pub fn build(name: &str, seed: u64) -> Option<Workload> {
    match name {
        "table2" => Some(table2(seed)),
        "churn" => Some(churn(seed)),
        _ => None,
    }
}

fn technologies() -> Vec<CostTable> {
    Technology::all()
        .iter()
        .map(Technology::cost_table)
        .collect()
}

/// The Table II circuit the ECO session edits. Not MUL64: per-cone
/// splicing duplicates the logic its output cones share, so its spliced
/// result has 33.0 M components against the grid cell's 0.62 M (see
/// README, defect v).
const TABLE2_ECO: &str = "DES_AREA";

/// Open-loop rate of `table2`: a tenth of the daemon's open-loop
/// capacity of about 1000 requests/s (`--sweep`; README). The closed
/// loop's `served_rps` of about 50/s is lower because each connection
/// waits out a delayed ACK per request (README, defect i), not because
/// the daemon is busy.
const TABLE2_SERVED_RATE: f64 = 100.0;

/// The paper's Table II circuits × SWD/QCA/NML under the default flow.
fn table2(_seed: u64) -> Workload {
    let mut spec = FlowSpec::new("table2");
    for name in benchsuite::TABLE2_SELECTION {
        spec = spec.circuit(name);
    }
    for table in technologies() {
        spec = spec.technology(table);
    }
    let requests = benchsuite::TABLE2_SELECTION
        .iter()
        .map(|name| {
            technologies()
                .into_iter()
                .fold(FlowSpec::new("table2-request").circuit(*name), |s, t| {
                    s.technology(t)
                })
        })
        .collect();
    Workload {
        name: "table2",
        spec,
        eco_graph: benchsuite::build_mig(TABLE2_ECO).expect("Table II circuits are in the suite"),
        eco_pipeline: PipelineSpec::default(),
        eco_model: Some(Technology::swd().cost_table()),
        requests,
        cells_per_request: 3,
        order: Order::RoundRobin,
        daemon_capacity: None,
        served_rate: TABLE2_SERVED_RATE,
    }
}

/// One shape per synth family. Ten of each make 70 circuits of 40.0 k
/// gates and 1.2 MB of `.mig` text in all.
const CHURN_FAMILIES: [(&str, &[(&str, u64)]); 7] = [
    (
        "dag",
        &[
            ("nodes", 1000),
            ("depth", 12),
            ("inputs", 24),
            ("outputs", 12),
        ],
    ),
    ("adder", &[("width", 112), ("chains", 2)]),
    ("parity", &[("width", 160), ("layers", 2)]),
    ("majtree", &[("width", 243), ("trees", 4)]),
    ("compose", &[("blocks", 8), ("mode", 2), ("nodes", 100)]),
    ("chain", &[("length", 220), ("chains", 2)]),
    ("shared", &[("groups", 96), ("width", 16)]),
];
/// Circuits per family; each one a different generator seed.
const CHURN_PER_FAMILY: u64 = 10;
/// The churn daemon's LRU bound: below the 70-circuit population, so
/// most served requests miss.
pub const CHURN_DAEMON_CAPACITY: usize = 16;
pub const CHURN_REWRITE_ROUNDS: usize = 4;
/// Open-loop rate of `churn`: under a quarter of the daemon's open-loop
/// capacity of about 150 requests/s (`--sweep`; README). At a third of
/// it (50/s) queueing behind missed requests already tripled p99 in a
/// trial.
const CHURN_SERVED_RATE: f64 = 35.0;

/// The churn population, as canonical synth names. It is fixed: a
/// population drawn from the workload seed changed the work per run,
/// and with it the circuit the ECO script edits, and so showed up as
/// run-to-run spread. The seed orders it instead.
pub fn churn_population() -> Vec<String> {
    CHURN_FAMILIES
        .iter()
        .enumerate()
        .flat_map(|(f, (family, params))| {
            (0..CHURN_PER_FAMILY).map(move |j| {
                params
                    .iter()
                    .fold(
                        SynthSpec::new(*family, 0xC4A0_0000 + 100 * f as u64 + j),
                        |s, (k, v)| s.param(*k, *v),
                    )
                    .name()
            })
        })
        .collect()
}

pub fn churn_pipeline() -> PipelineSpec {
    PipelineSpec::map(false)
        .optimize_depth(CHURN_REWRITE_ROUNDS)
        .optimize_size(CHURN_REWRITE_ROUNDS)
        .restrict_fanout(3)
        .insert_buffers(BufferStrategy::Asap)
        .verify(Some(3))
        .gate_equivalence(EquivalencePolicy::default())
}

/// 70 distinct small inline circuits across the seven synth families,
/// in seeded order, priced with SWD, with the rewrite prefix and the
/// equivalence gate on.
fn churn(seed: u64) -> Workload {
    let mut names = churn_population();
    Rng::new(seed ^ 0xC4A0).shuffle(&mut names);
    let graphs: Vec<Mig> = names
        .iter()
        .map(|n| benchsuite::build_mig(n).expect("synth names resolve"))
        .collect();
    let swd = Technology::swd().cost_table();
    let mut spec = FlowSpec::new("churn")
        .with_pipeline(churn_pipeline())
        .technology(swd.clone());
    for (name, graph) in names.iter().zip(&graphs) {
        spec = spec.inline_circuit(name.clone(), graph);
    }
    let requests = names
        .iter()
        .zip(&graphs)
        .map(|(name, graph)| {
            FlowSpec::new("churn-request")
                .with_pipeline(churn_pipeline())
                .technology(swd.clone())
                .inline_circuit(name.clone(), graph)
        })
        .collect();
    let largest = graphs
        .iter()
        .max_by_key(|g| (g.gate_count(), g.name().to_owned()))
        .expect("non-empty population")
        .clone();
    Workload {
        name: "churn",
        spec,
        eco_graph: largest,
        eco_pipeline: churn_pipeline(),
        eco_model: Some(swd),
        requests,
        cells_per_request: 1,
        order: Order::Random,
        daemon_capacity: Some(CHURN_DAEMON_CAPACITY),
        served_rate: CHURN_SERVED_RATE,
    }
}
