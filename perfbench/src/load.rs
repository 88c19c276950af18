//! The served scenario: the stock daemon in this process, driven over
//! loopback TCP by an open-loop generator (fixed seeded schedule, one
//! connection, a sender and a reader thread) and a closed-loop one
//! (`nproc` connections, one request outstanding each).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wavepipe::FlowSpec;
use wavepipe_serve::{Client, Event, Request, ServeConfig, Server};

use crate::scenarios::{engine, Reference};
use crate::stats::ms;
use crate::workload::{Order, Rng, Workload};

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The stock daemon over a resolver engine; only the worker count is
/// set, to `nproc`.
pub fn start_daemon(w: &Workload) -> std::io::Result<Server> {
    let engine = match w.daemon_capacity {
        Some(cells) => engine().with_cache_capacity(cells),
        None => engine(),
    };
    let config = ServeConfig {
        workers: nproc(),
        ..ServeConfig::default()
    };
    Server::start(Arc::new(engine), "127.0.0.1:0", config)
}

/// Which pool entry the `i`-th served request uses.
pub fn request_order(w: &Workload, n: usize, rng: &mut Rng) -> Vec<usize> {
    let pool = w.requests.len();
    match w.order {
        Order::RoundRobin => {
            let start = rng.below(pool);
            (0..n).map(|i| (start + i) % pool).collect()
        }
        Order::Random => (0..n).map(|_| rng.below(pool)).collect(),
    }
}

/// What the reader saw for one request.
#[derive(Clone, Copy, Debug, Default)]
struct Seen {
    first: Option<Instant>,
    terminal: Option<Instant>,
    cells: usize,
    bad: bool,
}

/// Checks one of a request's events: every streamed cell verified
/// and, when a reference is given, has its cold component count; the
/// `Done` carries the expected cell count and no failures.
fn check_event(
    event: &Event,
    pool_index: usize,
    w: &Workload,
    reference: Option<&Reference>,
) -> bool {
    match event {
        Event::Cell {
            circuit,
            technology,
            ok,
            components,
            ..
        } => {
            *ok && reference.is_none_or(|r| {
                let cell = (pool_index + *circuit as usize) * r.technologies
                    + technology.unwrap_or(0) as usize;
                *components == r.components.get(cell).copied()
            })
        }
        Event::Done { cells, failed, .. } => *cells == w.cells_per_request as u64 && *failed == 0,
        _ => false,
    }
}

pub struct OpenLoop {
    /// Scheduled send to terminal event.
    pub latency_ms: Vec<f64>,
    /// Actual send to first event.
    pub first_event_ms: Vec<f64>,
    /// First event to terminal event.
    pub stream_gap_ms: Vec<f64>,
    /// Actual send minus scheduled send.
    pub late_ms: Vec<f64>,
    pub request_bytes: usize,
    pub failed: usize,
}

/// Sends `order.len()` requests as a seeded Poisson stream at a fixed
/// mean `rate` per second over one connection, and times each from its
/// scheduled send to its terminal event. Evenly spaced arrivals are no
/// good here: the daemon's delayed-ACK stalls (README, defect i) end
/// when the next request arrives, so latency would be quantized by the
/// arrival interval.
pub fn open_loop(
    addr: SocketAddr,
    w: &Workload,
    reference: &Reference,
    order: &[usize],
    rate: f64,
    rng: &mut Rng,
    first_id: u64,
) -> std::io::Result<OpenLoop> {
    let lines: Vec<String> = order
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let mut line = Request::Run {
                id: first_id + i as u64,
                spec: w.requests[k].clone(),
            }
            .to_line();
            line.push('\n');
            line
        })
        .collect();
    let mut offset = 0.0f64;
    let schedule: Vec<Duration> = (0..order.len())
        .map(|_| {
            offset += -rng.unit().ln() / rate;
            Duration::from_secs_f64(offset)
        })
        .collect();

    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;
    // A lost terminal event ends the run as failures instead of a hang.
    read_half.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut write_half = stream;
    let start = Instant::now() + Duration::from_millis(20);
    let n = order.len();

    let (sent, seen) = std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut seen = vec![Seen::default(); n];
            let mut reader = BufReader::new(read_half);
            let mut line = String::new();
            let mut open = n;
            while open > 0 {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let now = Instant::now();
                let Ok(event) = Event::parse(line.trim_end()) else {
                    continue;
                };
                let Some(i) = event.id().checked_sub(first_id).map(|i| i as usize) else {
                    continue;
                };
                let Some(s) = seen.get_mut(i) else { continue };
                s.first.get_or_insert(now);
                s.cells += usize::from(matches!(event, Event::Cell { .. }));
                s.bad |= !check_event(&event, order[i], w, Some(reference));
                if event.is_terminal() {
                    s.terminal = Some(now);
                    open -= 1;
                }
            }
            seen
        });
        let mut sent = Vec::with_capacity(n);
        for (line, due) in lines.iter().zip(&schedule) {
            let due = start + *due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            sent.push(Instant::now());
            if write_half.write_all(line.as_bytes()).is_err() {
                break;
            }
        }
        (sent, reader.join().expect("open-loop reader thread"))
    });

    let mut out = OpenLoop {
        latency_ms: Vec::with_capacity(n),
        first_event_ms: Vec::with_capacity(n),
        stream_gap_ms: Vec::with_capacity(n),
        late_ms: Vec::with_capacity(n),
        request_bytes: lines.iter().map(String::len).sum(),
        failed: 0,
    };
    for i in 0..n {
        let due = start + schedule[i];
        match (sent.get(i), seen[i].first, seen[i].terminal) {
            (Some(&at), Some(first), Some(terminal))
                if !seen[i].bad && seen[i].cells == w.cells_per_request =>
            {
                out.latency_ms.push(ms(terminal - due));
                out.first_event_ms.push(ms(first - at));
                out.stream_gap_ms.push(ms(terminal - first));
                out.late_ms.push(ms(at.saturating_duration_since(due)));
            }
            _ => out.failed += 1,
        }
    }
    Ok(out)
}

pub struct ClosedLoop {
    pub completed: usize,
    pub failed: usize,
    pub seconds: f64,
}

/// `nproc` connections, each sending its next request when the last
/// one's terminal event arrives, until `duration` has passed. Connection
/// `c` walks `orders[c]` from `cursors[c]`, which it advances, so a run
/// made of several slices continues the sequence instead of repeating
/// its start.
pub fn closed_loop(
    addr: SocketAddr,
    w: &Workload,
    reference: &Reference,
    orders: &[Vec<usize>],
    cursors: &mut [usize],
    duration: Duration,
    first_id: u64,
) -> ClosedLoop {
    let start = Instant::now();
    let deadline = start + duration;
    let results: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = orders
            .iter()
            .zip(cursors.iter_mut())
            .enumerate()
            .map(|(c, (order, cursor))| {
                scope.spawn(move || {
                    let Ok(mut client) = Client::connect(addr) else {
                        return (0, 1);
                    };
                    let (mut completed, mut failed) = (0, 0);
                    let i = cursor;
                    while Instant::now() < deadline {
                        let k = order[*i % order.len()];
                        let id = first_id + (c as u64) * 1_000_000 + *i as u64;
                        *i += 1;
                        let spec: FlowSpec = w.requests[k].clone();
                        if client.send(&Request::Run { id, spec }).is_err() {
                            failed += 1;
                            break;
                        }
                        let mut cells = 0;
                        let mut ok = true;
                        loop {
                            let Ok(event) = client.read_event() else {
                                ok = false;
                                break;
                            };
                            if event.id() != id {
                                continue;
                            }
                            if matches!(event, Event::Cell { .. }) {
                                cells += 1;
                            }
                            ok &= check_event(&event, k, w, Some(reference));
                            if event.is_terminal() {
                                break;
                            }
                        }
                        if ok && cells == w.cells_per_request {
                            completed += 1;
                        } else {
                            failed += 1;
                        }
                    }
                    (completed, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client thread"))
            .collect()
    });
    ClosedLoop {
        completed: results.iter().map(|r| r.0).sum(),
        failed: results.iter().map(|r| r.1).sum(),
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// Sends every pool entry once, pipelined on one connection, and waits
/// for all of them: the daemon's warm-up. Returns the failures.
pub fn warm_up(addr: SocketAddr, w: &Workload, order: &[usize]) -> usize {
    let Ok(mut client) = Client::connect(addr) else {
        return order.len();
    };
    for (i, &k) in order.iter().enumerate() {
        let run = Request::Run {
            id: i as u64,
            spec: w.requests[k].clone(),
        };
        if client.send(&run).is_err() {
            return order.len();
        }
    }
    let mut cells = vec![0; order.len()];
    let mut failed = 0;
    let mut open = order.len();
    while open > 0 {
        let Ok(event) = client.read_event() else {
            return failed + open;
        };
        let i = event.id() as usize;
        let Some(&k) = order.get(i) else { continue };
        cells[i] += usize::from(matches!(event, Event::Cell { .. }));
        let ok = check_event(&event, k, w, None);
        if event.is_terminal() {
            open -= 1;
            failed += usize::from(!ok || cells[i] != w.cells_per_request);
        } else if !ok {
            cells[i] = usize::MAX / 2;
        }
    }
    failed
}
