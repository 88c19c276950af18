//! Order statistics with the benchmark's steadiness rules built in: a
//! percentile needs at least ten samples beyond it, and a timed
//! operation under a millisecond is only accepted when it was timed in
//! batches, which [`Timings::size_batch`] sizes from a probe.

use std::time::{Duration, Instant};

/// Samples needed beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of `samples` (`q` in `0..=1`). Fails when
/// fewer than [`TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Err(format!("p{} of no samples", q * 100.0));
    }
    let rank = rank(q, n);
    let beyond = n - rank;
    if q > 0.5 && beyond < TAIL_SAMPLES {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it (need {TAIL_SAMPLES})",
            q * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// Nearest rank (1-based) of quantile `q` among `n` samples; the slack
/// keeps `0.9 * 100` from rounding up to rank 91.
pub fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Per-batch time the sized batches aim for: twice the millisecond a
/// sample must reach, so a batch sized on a slow probe still reaches it.
const BATCH_TARGET_MS: f64 = 2.0;

/// Per-operation times of one scenario, each sample the mean over a
/// batch of `batch` back-to-back operations.
#[derive(Debug)]
pub struct Timings {
    pub name: &'static str,
    pub batch: usize,
    pub samples: Vec<f64>,
}

impl Timings {
    /// Unbatched timings: operations of a millisecond or more.
    pub fn new(name: &'static str) -> Timings {
        Timings {
            name,
            batch: 1,
            samples: Vec::new(),
        }
    }

    /// Sizes the batch from `probes` runs of `op`, timed but not
    /// recorded: enough back-to-back operations, at the fastest probe's
    /// pace, for a batch to last [`BATCH_TARGET_MS`]. Returns the last
    /// probe's result.
    pub fn size_batch<R>(&mut self, probes: usize, mut op: impl FnMut() -> R) -> Option<R> {
        let mut fastest = f64::INFINITY;
        let mut last = None;
        for _ in 0..probes {
            let started = Instant::now();
            last = Some(op());
            fastest = fastest.min(ms(started.elapsed()));
        }
        self.batch = (BATCH_TARGET_MS / fastest.max(1e-6)).ceil().clamp(1.0, 1e6) as usize;
        last
    }

    /// Times one batch of `op` and records the per-operation mean.
    pub fn time<R>(&mut self, mut op: impl FnMut() -> R) -> Vec<R> {
        let started = Instant::now();
        let out: Vec<R> = (0..self.batch).map(|_| op()).collect();
        self.samples.push(ms(started.elapsed()) / self.batch as f64);
        out
    }

    /// The median, after checking that sub-millisecond operations were
    /// batched to at least a millisecond per sample.
    pub fn median(&self) -> Result<f64, String> {
        let value = median(&self.samples);
        if self.samples.is_empty() {
            return Err(format!("{}: no samples", self.name));
        }
        if value * (self.batch as f64) < 1.0 {
            return Err(format!(
                "{}: {value:.4} ms per operation in batches of {} is under a millisecond per sample",
                self.name, self.batch
            ));
        }
        Ok(value)
    }
}
