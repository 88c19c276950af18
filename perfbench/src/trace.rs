//! In-memory spans around calls into the program's public functions,
//! written out as a Chrome trace-event file and a per-layer self-time
//! table when the run ends. A disabled tracer records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// The operation this span belongs to (one cell, one edit, ...).
    pub op: u64,
    pub name: &'static str,
    pub thread: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A small stable number per OS thread, for the trace's `tid`.
fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// to pass as the parent of nested spans (0 when disabled).
    pub fn span<R>(&self, name: &'static str, op: u64, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed();
        let out = f(id);
        let end = self.epoch.elapsed();
        let span = Span {
            id,
            parent,
            op,
            name,
            thread: thread_number(),
            start_us: start.as_secs_f64() * 1e6,
            end_us: end.as_secs_f64() * 1e6,
        };
        self.spans.lock().expect("span list lock").push(span);
        out
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list lock"))
    }
}

/// Self time per span: its duration minus what its children on the
/// same thread cover (children on other threads ran in parallel).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut own: Vec<f64> = spans.iter().map(Span::dur_us).collect();
    for span in spans {
        if let Some(&p) = index.get(&span.parent) {
            if spans[p].thread == span.thread {
                own[p] -= span.dur_us();
            }
        }
    }
    own
}

/// Summed self time in milliseconds and span count, per span name.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut layers: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = layers.entry(span.name).or_default();
        entry.0 += own / 1000.0;
        entry.1 += 1;
    }
    layers
}

/// Chrome trace-event JSON (load it in `chrome://tracing` or Perfetto).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.start_us,
            s.dur_us(),
            s.thread,
            s.id,
            s.parent,
            s.op
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}
