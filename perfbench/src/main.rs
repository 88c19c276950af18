//! `perfbench` — the repository's end-to-end benchmark of the
//! wave-pipelining flow (map → §IV fan-out restriction → Algorithm 1
//! buffer insertion → verify), driven only through the program's public
//! API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2|churn --seed N [--sweep] --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it sets up (inputs, disk tier, daemon, warm-up)
//! three times, then runs the cold, warm, disk, store, ECO and served
//! scenarios and reports the end-to-end metrics. With `--trace 1` it
//! replays the cold scenario stage by stage under spans and reports the
//! per-layer metrics, writing a Chrome trace and a self-time table under
//! `perfbench/out/`. Every run checks the program's outputs; the last
//! stdout line is the JSON result. See `perfbench/README.md`.

mod load;
mod replay;
mod scenarios;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use wavepipe::{persist, EngineRun};
use wavepipe_serve::Server;

use crate::scenarios::Reference;
use crate::stats::{median, ms, percentile, Timings};
use crate::trace::Tracer;
use crate::workload::{Rng, Workload};

/// Counts checked operations and the ones that failed.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
    }

    fn count(&mut self, attempted: usize, failed: usize, what: &str) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
        if failed > 0 {
            eprintln!("perfbench: FAILED: {failed} of {attempted} {what}");
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record_golden: bool,
    sweep: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        record_golden: false,
        sweep: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-golden" {
            args.record_golden = true;
            continue;
        }
        if flag == "--sweep" {
            args.sweep = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? == 1,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !args.record_golden && !workload::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?} (got `{}`)",
            workload::WORKLOADS,
            args.workload
        ));
    }
    Ok(args)
}

/// Everything set-up leaves running for the scenarios.
struct Setup {
    workload: Workload,
    daemon: Server,
    disk_dir: PathBuf,
    /// Exact and timing-free digests of the run that filled the disk
    /// tier (taken after set-up is timed).
    filled: (Vec<u64>, Vec<u64>),
}

/// Set-up runs this many times; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// Open-loop requests per run: p99 then has at least ten beyond it.
const SERVED_REQUESTS: usize = 1000;

/// Builds the inputs, fills the disk tier, starts the daemon and warms
/// it up. Also returns the disk-filling run, for digests taken outside
/// the timed set-up.
fn set_up(name: &str, seed: u64, disk_dir: PathBuf) -> Result<(Setup, EngineRun), String> {
    let workload = workload::build(name, seed).ok_or("unknown workload")?;
    let run = scenarios::fill_disk(&workload, &disk_dir)?;
    let daemon = load::start_daemon(&workload).map_err(|e| format!("daemon start: {e}"))?;
    let pool: Vec<usize> = (0..workload.requests.len()).collect();
    let failed = load::warm_up(daemon.local_addr(), &workload, &pool);
    if failed > 0 {
        return Err(format!("{failed} warm-up requests failed"));
    }
    Ok((
        Setup {
            workload,
            daemon,
            disk_dir,
            filled: (Vec::new(), Vec::new()),
        },
        run,
    ))
}

fn tear_down(setup: Setup) {
    setup.daemon.shutdown();
    let _ = std::fs::remove_dir_all(&setup.disk_dir);
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// How the value was obtained, for the human-readable report.
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// A statistic that may refuse (too few samples, unbatched sub-ms
/// operations): a refusal is a failed check and reports NaN.
fn checked(ledger: &mut Ledger, value: Result<f64, String>) -> f64 {
    match value {
        Ok(v) => v,
        Err(e) => {
            ledger.check(false, || e);
            f64::NAN
        }
    }
}

/// `out_components` / `out_depth` recorded by `--record-golden`.
fn golden(w: &Workload) -> Option<(u64, u64)> {
    include_str!("../golden.txt").lines().find_map(|line| {
        let row: Vec<&str> = line.split_whitespace().collect();
        match row[..] {
            [name, components, depth] if name == w.name => {
                Some((components.parse().ok()?, depth.parse().ok()?))
            }
            _ => None,
        }
    })
}

fn check_golden(w: &Workload, reference: &Reference, ledger: &mut Ledger) {
    let expected = golden(w);
    let got = (reference.out_components, reference.out_depth);
    ledger.check(expected == Some(got), || {
        format!("out_components/out_depth {got:?} differ from the recorded {expected:?}")
    });
}

/// Ranks on each side of a percentile that [`off_mode_edge`] compares.
const EDGE_RANKS: usize = 5;

/// A percentile sits on the edge between two latency modes (the fast
/// path and the delayed-ACK stall, README defect i) when the samples
/// five ranks below and above it differ by more than 2x: then a small
/// change in how many requests stall swings it from one mode to the
/// other, as p95 once swung between 2.5 and 41 ms.
fn off_mode_edge(latencies: &[f64], q: f64) -> Result<(), String> {
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n <= 2 * EDGE_RANKS {
        return Err(format!(
            "{n} served samples are too few to place p{}",
            q * 100.0
        ));
    }
    let rank = stats::rank(q, n).clamp(EDGE_RANKS + 1, n - EDGE_RANKS) - 1;
    let (below, above) = (sorted[rank - EDGE_RANKS], sorted[rank + EDGE_RANKS]);
    if above > 2.0 * below {
        return Err(format!(
            "served p{} sits on a mode edge: {below:.2} ms five ranks below, {above:.2} ms five above",
            q * 100.0
        ));
    }
    Ok(())
}

/// Measurement rounds. Each round runs its slice of the fixed-count
/// scenarios (ECO edits, open-loop requests), then the timed ones until
/// the round's share of the budget is used. The host's speed changes
/// from one spell of seconds to the next with the load of its other
/// tenants (a cold `churn` run took 400 ms in one spell and 550 ms in
/// the next); many short rounds spread every scenario's samples over
/// the whole run, so each median sees the same mix of spells.
const ROUNDS: usize = 20;
/// The timed scenarios get at least this fraction of a round even when
/// the fixed-count ones overran it.
const TIMED_FLOOR: f64 = 0.2;
/// Cold and disk-tier runs each scenario needs at least, for a median.
const MIN_RUNS: usize = 3;
/// Length of one warm slice (whole batches) and one closed-loop slice.
const WARM_SLICE: Duration = Duration::from_millis(100);
const CLOSED_SLICE: Duration = Duration::from_millis(500);

/// The scenarios that fill the rest of each round, and their shares of
/// the time they fill. Each step runs the one furthest below its share:
/// one cold, store or disk run, one warm slice or one closed-loop slice.
#[derive(Clone, Copy)]
enum Timed {
    Cold,
    Store,
    Disk,
    Warm,
    Closed,
}

const TIMED_SHARES: [(Timed, f64); 5] = [
    (Timed::Cold, 0.30),
    (Timed::Store, 0.25),
    (Timed::Disk, 0.12),
    (Timed::Warm, 0.13),
    (Timed::Closed, 0.20),
];

/// The timed scenarios' samples, and the time each has taken so far.
struct TimedRuns {
    cold: Timings,
    warm: Timings,
    disk: Timings,
    store: Timings,
    /// Per closed-loop connection, the next entry of its order.
    cursors: Vec<usize>,
    /// Closed-loop requests completed, and the seconds they took.
    completed: usize,
    seconds: f64,
    spent: [Duration; TIMED_SHARES.len()],
}

impl TimedRuns {
    /// The scenario furthest below its share of the time spent.
    fn furthest_behind(&self) -> usize {
        let used = |k: usize| self.spent[k].as_secs_f64() / TIMED_SHARES[k].1;
        (0..TIMED_SHARES.len())
            .min_by(|&a, &b| used(a).total_cmp(&used(b)))
            .expect("TIMED_SHARES is not empty")
    }

    /// Runs of a scenario that reports a median of whole runs; the
    /// sliced ones count as done.
    fn runs(&self, k: usize) -> usize {
        match TIMED_SHARES[k].0 {
            Timed::Cold => self.cold.samples.len(),
            Timed::Store => self.store.samples.len(),
            Timed::Disk => self.disk.samples.len(),
            Timed::Warm | Timed::Closed => MIN_RUNS,
        }
    }
}

fn end_to_end(
    args: &Args,
    setup: &Setup,
    setup_times: &[f64],
    work: &Path,
    ledger: &mut Ledger,
) -> Vec<Metric> {
    let budget = Duration::from_secs(args.seconds);
    let w = &setup.workload;
    let off = Tracer::new(false);
    let Some((reference, cold_engine)) = scenarios::reference(w, ledger) else {
        return Vec::new();
    };
    check_golden(w, &reference, ledger);
    ledger.check(setup.filled.1 == reference.content, || {
        "the disk-filling run differs from the cold result".to_owned()
    });
    let eco_engine = scenarios::eco_engine(w);
    let mut eco = scenarios::Eco::start(&eco_engine, w, args.seed, ledger);
    let addr = setup.daemon.local_addr();
    let mut rng = Rng::new(args.seed ^ 0x5E4E);
    let n = SERVED_REQUESTS;
    let order = load::request_order(w, n, &mut rng);
    let orders: Vec<Vec<usize>> = (0..load::nproc())
        .map(|_| load::request_order(w, 4096, &mut rng))
        .collect();

    let mut t = TimedRuns {
        cold: Timings::new("cold_ms"),
        warm: Timings::new("warm_ms"),
        disk: Timings::new("disk_ms"),
        store: Timings::new("store_ms"),
        cursors: vec![0; orders.len()],
        completed: 0,
        seconds: 0.0,
        spent: [Duration::ZERO; TIMED_SHARES.len()],
    };
    let mut latency = Vec::with_capacity(n);
    let step = |t: &mut TimedRuns, k: usize, ledger: &mut Ledger| {
        let started = Instant::now();
        match TIMED_SHARES[k].0 {
            Timed::Cold => scenarios::cold(w, &mut t.cold, Duration::ZERO, 1, ledger),
            Timed::Store => {
                let first = t.store.samples.is_empty();
                let dir = work.join("store");
                scenarios::store(w, &dir, &reference, &mut t.store, first, ledger);
            }
            Timed::Disk => {
                let first = t.disk.samples.is_empty();
                let (dir, filled) = (&setup.disk_dir, &setup.filled.0);
                scenarios::disk(w, dir, filled, &mut t.disk, first, ledger);
            }
            Timed::Warm => {
                let first = t.warm.samples.is_empty();
                let slice = WARM_SLICE;
                scenarios::warm(
                    w,
                    &cold_engine,
                    &reference,
                    &mut t.warm,
                    slice,
                    first,
                    ledger,
                );
            }
            Timed::Closed => {
                let cursors = &mut t.cursors;
                let closed =
                    load::closed_loop(addr, w, &reference, &orders, cursors, CLOSED_SLICE, 1);
                ledger.count(
                    closed.completed + closed.failed,
                    closed.failed,
                    "closed-loop requests",
                );
                t.completed += closed.completed;
                t.seconds += closed.seconds;
            }
        }
        t.spent[k] += started.elapsed();
    };
    let started = Instant::now();
    for round in 0..ROUNDS {
        // The fixed-count scenarios first ...
        eco.edits(scenarios::ECO_EDITS / ROUNDS, &off, ledger);
        let chunk = &order[round * n / ROUNDS..(round + 1) * n / ROUNDS];
        match load::open_loop(addr, w, &reference, chunk, w.served_rate, &mut rng, 1) {
            Ok(open) => {
                ledger.count(chunk.len(), open.failed, "open-loop requests");
                latency.extend(open.latency_ms);
            }
            Err(e) => ledger.check(false, || format!("open loop: {e}")),
        }
        // ... then the timed ones, each kept at its share of the time
        // they take, until this round's part of the budget is used, so
        // the whole run measures for --seconds.
        let round_end = (started + budget * (round as u32 + 1) / ROUNDS as u32)
            .max(Instant::now() + budget.mul_f64(TIMED_FLOOR / ROUNDS as f64));
        loop {
            let k = t.furthest_behind();
            step(&mut t, k, ledger);
            if Instant::now() >= round_end {
                break;
            }
        }
    }
    // A run slow enough to starve the long scenarios still reports a
    // median of MIN_RUNS runs of each.
    for k in 0..TIMED_SHARES.len() {
        while t.runs(k) < MIN_RUNS {
            step(&mut t, k, ledger);
        }
    }
    let TimedRuns {
        cold,
        warm,
        disk,
        store,
        completed,
        seconds,
        ..
    } = t;
    eco.finish(w, ledger);
    drop(cold_engine);

    // A warning, not a failed operation: whether a percentile lands on
    // a mode edge depends on the host's load as much as on the program.
    for q in [0.5, 0.99] {
        if let Err(edge) = off_mode_edge(&latency, q) {
            eprintln!("perfbench: warning: {edge}");
        }
    }
    let counts = |t: &Timings| format!("median of {} x{}", t.samples.len(), t.batch);
    let eco_ms = eco.batch_ms();
    let edits = format!(
        "{} edits in batches of {}",
        eco.edit_ms.len(),
        scenarios::ECO_BATCH
    );
    let requests = format!("{} requests at {}/s", latency.len(), w.served_rate);
    let metrics = vec![
        metric(
            "setup_s",
            median(setup_times),
            "s",
            format!("median of {SETUP_REPEATS}"),
        ),
        metric(
            "cold_ms",
            checked(ledger, cold.median()),
            "ms",
            counts(&cold),
        ),
        metric(
            "warm_ms",
            checked(ledger, warm.median()),
            "ms",
            counts(&warm),
        ),
        metric(
            "disk_ms",
            checked(ledger, disk.median()),
            "ms",
            counts(&disk),
        ),
        metric(
            "store_ms",
            checked(ledger, store.median()),
            "ms",
            counts(&store),
        ),
        metric(
            "eco_ms_p50",
            checked(ledger, percentile(&eco_ms, 0.5)),
            "ms",
            edits.clone(),
        ),
        metric(
            "eco_ms_p90",
            checked(ledger, percentile(&eco_ms, 0.9)),
            "ms",
            edits,
        ),
        metric(
            "served_ms_p50",
            checked(ledger, percentile(&latency, 0.5)),
            "ms",
            requests.clone(),
        ),
        metric(
            "served_ms_p99",
            checked(ledger, percentile(&latency, 0.99)),
            "ms",
            requests,
        ),
        metric(
            "served_rps",
            completed as f64 / seconds,
            "1/s",
            format!("{completed} requests on {} connections", orders.len()),
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MiB", "VmHWM"),
        metric(
            "out_components",
            reference.out_components as f64,
            "count",
            format!("{} cells", reference.cells),
        ),
        metric(
            "out_depth",
            reference.out_depth as f64,
            "count",
            "max over cells",
        ),
    ];
    // No metric may be a copy of another: every timing comes from its
    // own samples, so equal values mean a wiring mistake.
    for (i, a) in metrics.iter().enumerate() {
        for b in &metrics[i + 1..] {
            if a.unit != "count" && a.unit == b.unit {
                ledger.check(a.value != b.value, || {
                    format!("{} is a copy of {}", b.name, a.name)
                });
            }
        }
    }
    metrics
}

/// Sums per-layer self time over spans of one replay.
fn stage_ms(spans: &[trace::Span]) -> BTreeMap<&'static str, f64> {
    trace::by_layer(spans)
        .into_iter()
        .map(|(k, (v, _))| (k, v))
        .collect()
}

fn traced(args: &Args, setup: &Setup, ledger: &mut Ledger) -> Vec<Metric> {
    let s = args.seconds as f64;
    let budget = |share: f64| Duration::from_secs_f64(s * share);
    let w = &setup.workload;
    let tracer = Tracer::new(true);

    let Some((reference, cold_engine)) = scenarios::reference(w, ledger) else {
        return Vec::new();
    };
    check_golden(w, &reference, ledger);
    let mut cold = Timings::new("cold_ms");
    scenarios::cold(w, &mut cold, budget(0.10), 3, ledger);
    let cold_ms = checked(ledger, cold.median());

    // Traced cold: stage-by-stage replays; per-layer times are medians
    // over replays, the trace file holds the last one.
    let mut walls = Vec::new();
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut spans = Vec::new();
    let mut cells = Vec::new();
    let started = Instant::now();
    while walls.len() < 3 || started.elapsed() < budget(0.20) {
        let t = Instant::now();
        cells = replay::replay(w, &tracer);
        walls.push(ms(t.elapsed()));
        spans = tracer.take();
        let per = stage_ms(&spans);
        for name in replay::STAGES {
            layers
                .entry(name)
                .or_default()
                .push(per.get(name).copied().unwrap_or(0.0));
        }
    }
    for problem in replay::check(w, &cells, &reference, &tracer) {
        ledger.check(false, || problem);
    }
    ledger.count(cells.len(), 0, "replayed cells");
    let components_added: u64 = cells
        .iter()
        .filter_map(|c| Some(replay::total(c.netlist.as_ref()?) - c.mapped_components))
        .sum();
    let patterns: u64 = cells.iter().map(|c| c.patterns).sum();
    drop(cells);
    let layer = |name: &str| median(layers.get(name).map_or(&[][..], Vec::as_slice));
    let traced_ms = median(&walls);
    let threads = load::nproc().min(reference.cells) as f64;
    let attributed: f64 = replay::STAGES.iter().map(|n| layer(n)).sum();
    let unattributed = 1.0 - attributed / (cold_ms * threads);

    // The disk tier's codec, over the cold result's cells.
    let (encode, decode, bytes) = persist_layer(&cold_engine, w, &tracer, ledger);
    drop(cold_engine);

    let eco_engine = scenarios::eco_engine(w);
    let mut eco = scenarios::Eco::start(&eco_engine, w, args.seed, ledger);
    eco.edits(scenarios::ECO_EDITS, &tracer, ledger);
    eco.finish(w, ledger);
    let mut rng = Rng::new(args.seed ^ 0x5E4E);
    let n = SERVED_REQUESTS;
    let order = load::request_order(w, n, &mut rng);
    let before = setup.daemon.metrics();
    let open = load::open_loop(
        setup.daemon.local_addr(),
        w,
        &reference,
        &order,
        w.served_rate,
        &mut rng,
        1,
    );
    let after = setup.daemon.metrics();
    let open = match open {
        Ok(open) => open,
        Err(e) => {
            ledger.check(false, || format!("open loop: {e}"));
            return Vec::new();
        }
    };
    ledger.count(n, open.failed, "open-loop requests");
    let engine = after.engine.since(&before.engine);
    let lookups = engine.cache_hits + engine.cache_misses;

    let mut all_spans = spans.clone();
    all_spans.extend(tracer.take());
    write_trace(
        args,
        w,
        &all_spans,
        &layers,
        cold_ms,
        traced_ms,
        threads,
        unattributed,
    );

    let recomputed = eco.cones_recomputed as f64;
    vec![
        metric(
            "benchsuite.resolve_ms",
            layer("benchsuite.resolve"),
            "ms",
            "replay self time",
        ),
        metric("mig.parse_ms", layer("mig.parse"), "ms", "replay self time"),
        metric("mig.hash_ms", layer("mig.hash"), "ms", "replay self time"),
        metric("lint.spec_ms", layer("lint.spec"), "ms", "replay self time"),
        metric(
            "pass.rewrite_ms",
            layer("pass.rewrite"),
            "ms",
            "replay self time",
        ),
        metric("pass.map_ms", layer("pass.map"), "ms", "replay self time"),
        metric(
            "pass.fanout_restriction_ms",
            layer("pass.fanout_restriction"),
            "ms",
            "replay self time",
        ),
        metric(
            "pass.insert_buffers_ms",
            layer("pass.insert_buffers"),
            "ms",
            "replay self time",
        ),
        metric(
            "pass.verify_ms",
            layer("pass.verify"),
            "ms",
            "replay self time",
        ),
        metric(
            "pass.components_added",
            components_added as f64,
            "count",
            "FOGs + buffers",
        ),
        metric(
            "verify.check_ms",
            layer("verify.check"),
            "ms",
            "in-flow equivalence gate",
        ),
        metric("verify.patterns", patterns as f64, "count", "gate patterns"),
        metric(
            "persist.encode_ms",
            encode,
            "ms",
            "run_to_json over the cold cells",
        ),
        metric(
            "persist.decode_ms",
            decode,
            "ms",
            "run_from_json over the cold cells",
        ),
        metric("persist.bytes", bytes as f64, "bytes", "encoded cold cells"),
        metric(
            "engine.hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                engine.cache_hits as f64 / lookups as f64
            },
            "ratio",
            "daemon engine, open loop",
        ),
        metric(
            "engine.evictions",
            engine.evictions as f64,
            "count",
            "daemon engine, open loop",
        ),
        metric(
            "incremental.apply_ms",
            eco.apply_ms.iter().sum::<f64>() / eco.apply_ms.len() as f64,
            "ms",
            "mean per edit over the script",
        ),
        metric(
            "incremental.run_ms",
            median(&eco.run_ms),
            "ms",
            "median per edit",
        ),
        metric(
            "incremental.cones_recomputed",
            recomputed,
            "count",
            "over the script",
        ),
        metric(
            "incremental.cone_reuse_ratio",
            eco.cones_reused as f64 / (eco.cones_reused as f64 + recomputed),
            "ratio",
            "over the script",
        ),
        metric(
            "serve.first_event_ms",
            median(&open.first_event_ms),
            "ms",
            "median, send to first event",
        ),
        metric(
            "serve.stream_gap_ms",
            median(&open.stream_gap_ms),
            "ms",
            "median, first to terminal event",
        ),
        metric(
            "serve.executed",
            (after.executed - before.executed) as f64,
            "count",
            "open loop",
        ),
        metric(
            "serve.coalesced",
            (after.coalesced - before.coalesced) as f64,
            "count",
            "open loop",
        ),
        metric(
            "serve.request_bytes",
            open.request_bytes as f64 / n as f64,
            "bytes",
            "mean per request",
        ),
        metric(
            "load.late_ms_p99",
            checked(ledger, percentile(&open.late_ms, 0.99)),
            "ms",
            "generator lateness",
        ),
        metric(
            "trace.cold_ms",
            traced_ms,
            "ms",
            format!("median of {} replays", walls.len()),
        ),
        metric(
            "trace.overhead_ms",
            traced_ms - cold_ms,
            "ms",
            "traced minus untraced cold_ms",
        ),
        metric(
            "trace.unattributed_share",
            unattributed,
            "ratio",
            "of cold thread time",
        ),
    ]
}

/// Times the disk tier's codec over the cold result's cells: encode,
/// decode, and a byte-identity check of the round trip.
fn persist_layer(
    engine: &wavepipe::Engine,
    w: &Workload,
    tracer: &Tracer,
    ledger: &mut Ledger,
) -> (f64, f64, usize) {
    let run: EngineRun = match engine.run(&w.spec) {
        Ok(run) => run,
        Err(e) => {
            ledger.check(false, || format!("warm run for the codec: {e}"));
            return (f64::NAN, f64::NAN, 0);
        }
    };
    let (mut encode, mut decode, mut bytes) = (Vec::new(), Vec::new(), 0);
    for pass in 0..3u64 {
        let (mut e, mut d, mut b) = (0.0, 0.0, 0);
        for (i, cell) in run.cells.iter().enumerate() {
            let Some(pipeline) = cell.run() else { continue };
            let op = pass * 1000 + i as u64;
            let t = Instant::now();
            let text = tracer.span("persist.encode", op, 0, |_| persist::run_to_json(pipeline));
            e += ms(t.elapsed());
            let t = Instant::now();
            let back = tracer.span("persist.decode", op, 0, |_| persist::run_from_json(&text));
            d += ms(t.elapsed());
            b += text.len();
            if pass == 0 {
                let same = back.is_ok_and(|r| persist::run_to_json(&r) == text);
                ledger.check(same, || format!("cell {i} does not survive the disk codec"));
            }
        }
        encode.push(e);
        decode.push(d);
        bytes = b;
    }
    (median(&encode), median(&decode), bytes)
}

#[allow(clippy::too_many_arguments)]
fn write_trace(
    args: &Args,
    w: &Workload,
    spans: &[trace::Span],
    layers: &BTreeMap<&'static str, Vec<f64>>,
    cold_ms: f64,
    traced_ms: f64,
    threads: f64,
    unattributed: f64,
) {
    let dir = Path::new("perfbench/out");
    let stem = format!("{}-seed{}", w.name, args.seed);
    let mut table = format!(
        "# per-layer self time of the traced cold replay, {} (median over replays)\n\
         # cold thread time = untraced cold_ms {cold_ms:.3} x {threads} threads\n\
         {:<28} {:>12} {:>8}\n",
        w.name, "layer", "self_ms", "share"
    );
    for name in replay::STAGES {
        let v = median(layers.get(name).map_or(&[][..], Vec::as_slice));
        let _ = writeln!(
            table,
            "{name:<28} {v:>12.3} {:>7.1}%",
            100.0 * v / (cold_ms * threads)
        );
    }
    let _ = writeln!(
        table,
        "{:<28} {:>12} {:>7.1}%\n# traced cold_ms {traced_ms:.3}, untraced {cold_ms:.3}, overhead {:.3} ms",
        "unattributed",
        "",
        100.0 * unattributed,
        traced_ms - cold_ms
    );
    print!("{table}");
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{stem}.trace.json")),
                trace::chrome_json(spans),
            )
        })
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.selftime.txt")), &table));
    if let Err(e) = written {
        eprintln!(
            "perfbench: could not write the trace under {}: {e}",
            dir.display()
        );
    }
}

/// Arrival rates the capacity sweep offers, requests per second.
const SWEEP_RATES: [f64; 7] = [25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0];
/// Requests offered at each rate of the sweep.
const SWEEP_REQUESTS: usize = 400;

/// `--sweep`: the open-loop capacity of the workload's daemon. Offers
/// [`SWEEP_REQUESTS`] requests at each rate of a doubling ladder, on the
/// open loop's one connection, and prints the rate they completed at and
/// their latency. The capacity is the highest offered rate the daemon
/// keeps up with; README records it and the fraction of it each
/// workload's `served_rate` is.
fn sweep(args: &Args) -> Result<(), String> {
    let work = Path::new("perfbench/out").join(format!("sweep-{}", std::process::id()));
    let (setup, _) = set_up(&args.workload, args.seed, work.join("disk"))?;
    let w = &setup.workload;
    let mut ledger = Ledger::default();
    let result = scenarios::reference(w, &mut ledger)
        .ok_or_else(|| "reference cold run failed".to_owned())
        .and_then(|(reference, _)| {
            let mut rng = Rng::new(args.seed ^ 0x5E4E);
            println!(
                "# {}: open loop, {SWEEP_REQUESTS} requests per rate, {} cells each",
                w.name, w.cells_per_request
            );
            println!(
                "{:>10} {:>10} {:>10} {:>10} {:>7}",
                "offered/s", "done/s", "p50_ms", "p90_ms", "failed"
            );
            for rate in SWEEP_RATES {
                let order = load::request_order(w, SWEEP_REQUESTS, &mut rng);
                let started = Instant::now();
                let open = load::open_loop(
                    setup.daemon.local_addr(),
                    w,
                    &reference,
                    &order,
                    rate,
                    &mut rng,
                    1,
                )
                .map_err(|e| format!("open loop: {e}"))?;
                let done = open.latency_ms.len() as f64 / started.elapsed().as_secs_f64();
                println!(
                    "{rate:>10.0} {done:>10.1} {:>10.2} {:>10.2} {:>7}",
                    percentile(&open.latency_ms, 0.5).unwrap_or(f64::NAN),
                    percentile(&open.latency_ms, 0.9).unwrap_or(f64::NAN),
                    open.failed
                );
            }
            Ok(())
        });
    tear_down(setup);
    let _ = std::fs::remove_dir_all(&work);
    result
}

/// `--record-golden`: prints `golden.txt` for the current program.
fn record_golden() -> Result<(), String> {
    println!("# workload out_components out_depth");
    for name in workload::WORKLOADS {
        let w = workload::build(name, 1).ok_or("unknown workload")?;
        let run = scenarios::engine()
            .run(&w.spec)
            .map_err(|e| e.to_string())?;
        let r = Reference::of(&run)?;
        println!("{name} {} {}", r.out_components, r.out_depth);
    }
    Ok(())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.record_golden {
        if let Err(e) = record_golden() {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    if args.sweep {
        if let Err(e) = sweep(&args) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let work = Path::new("perfbench/out").join(format!("work-{}", std::process::id()));
    let mut ledger = Ledger::default();
    let mut setup_times = Vec::new();
    let mut setup = None;
    for i in 0..SETUP_REPEATS {
        // Only the last set-up is kept; each earlier one is torn down
        // before the next starts, so two never hold memory at once.
        if let Some(previous) = setup.take() {
            tear_down(previous);
        }
        let started = Instant::now();
        match set_up(&args.workload, args.seed, work.join(format!("disk{i}"))) {
            Ok((mut s, run)) => {
                setup_times.push(started.elapsed().as_secs_f64());
                if i + 1 == SETUP_REPEATS {
                    s.filled = (
                        scenarios::digests(&run, scenarios::digest),
                        scenarios::digests(&run, scenarios::content_digest),
                    );
                }
                setup = Some(s);
            }
            Err(e) => {
                eprintln!("perfbench: set-up {i} failed: {e}");
                let _ = std::fs::remove_dir_all(&work);
                std::process::exit(1);
            }
        }
    }
    let setup = setup.expect("SETUP_REPEATS > 0");
    let metrics = if args.trace {
        traced(&args, &setup, &mut ledger)
    } else {
        end_to_end(&args, &setup, &setup_times, &work, &mut ledger)
    };
    tear_down(setup);
    let _ = std::fs::remove_dir_all(&work);

    if metrics.is_empty() {
        ledger.check(false, || "no metrics were produced".to_owned());
    }
    for m in &metrics {
        println!("{:<30} {:>14.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    println!(
        "{:<30} {:>14.4} {:<6} {} failed of {} checked operations",
        "error_ratio",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
        "ratio",
        ledger.failed,
        ledger.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct =
        ledger.failed == 0 && !metrics.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted.max(1),
        ledger.failed,
        body.join(", ")
    );
}
