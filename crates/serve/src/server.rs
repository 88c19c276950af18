//! The daemon: a TCP front-end over one shared [`Engine`].
//!
//! Threading model (`std` only — no async runtime):
//!
//! - one **acceptor** thread blocks on [`TcpListener::accept`];
//! - each connection gets a **reader** thread (parses request lines,
//!   enqueues jobs) and a **writer** thread (drains a bounded outbound
//!   queue onto the socket);
//! - a fixed pool of **worker** threads pops jobs from one bounded
//!   queue and executes them on the shared engine, streaming cell
//!   events back through the owning client's outbound queue.
//!
//! Identical in-flight specs are coalesced (keyed on
//! [`FlowSpec::content_hash`]): one worker executes, the rest block on
//! the [`Coalescer`] slot and replay the shared result to their own
//! clients. Slow clients never stall the pool — streaming cell events
//! are shed (default) or applied as backpressure at the client's own
//! outbound queue, and terminal events always block until delivered.
//!
//! [`Server::shutdown`] is graceful: stop accepting, half-close every
//! client socket (no new requests), drain queued and in-flight jobs to
//! their terminal events, then join every thread and report the final
//! [`ServeMetrics`].

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use wavepipe::{Engine, EngineCell, EngineRun, FlowSpec};

use crate::coalesce::Coalescer;
use crate::protocol::{cell_event, done_event, Control, Event, Request, ServeMetrics};

/// How long the writer thread may block on one socket write before it
/// declares the client dead and disconnects it.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Daemon tuning knobs. Every field has a `WAVEPIPE_SERVE_*`
/// environment override — see [`ServeConfig::from_env`].
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize)]
pub struct ServeConfig {
    /// Worker threads executing specs (`WAVEPIPE_SERVE_WORKERS`).
    pub workers: usize,
    /// Bound of the shared job queue; readers block enqueueing past it
    /// (`WAVEPIPE_SERVE_QUEUE`).
    pub queue_depth: usize,
    /// Bound of each client's outbound event queue
    /// (`WAVEPIPE_SERVE_CLIENT_QUEUE`).
    pub client_queue: usize,
    /// When `true` (default), streaming cell events to a client whose
    /// outbound queue is full are dropped (the terminal `done`/`error`
    /// still blocks until delivered). When `false`, full queues apply
    /// backpressure to the worker instead (`WAVEPIPE_SERVE_SHED`).
    pub shed_slow_clients: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(2, 16),
            queue_depth: 256,
            client_queue: 1024,
            shed_slow_clients: true,
        }
    }
}

fn env_parse<T: std::str::FromStr>(name: &str) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    match raw.parse() {
        Ok(value) => Some(value),
        Err(_) => {
            eprintln!("warning: ignoring unparsable {name}={raw}");
            None
        }
    }
}

impl ServeConfig {
    /// The defaults with any `WAVEPIPE_SERVE_{WORKERS,QUEUE,
    /// CLIENT_QUEUE,SHED}` environment overrides applied. Zero worker
    /// or queue values are clamped up to 1.
    pub fn from_env() -> ServeConfig {
        let default = ServeConfig::default();
        ServeConfig {
            workers: env_parse("WAVEPIPE_SERVE_WORKERS")
                .unwrap_or(default.workers)
                .max(1),
            queue_depth: env_parse("WAVEPIPE_SERVE_QUEUE")
                .unwrap_or(default.queue_depth)
                .max(1),
            client_queue: env_parse("WAVEPIPE_SERVE_CLIENT_QUEUE")
                .unwrap_or(default.client_queue)
                .max(1),
            shed_slow_clients: match std::env::var("WAVEPIPE_SERVE_SHED").as_deref() {
                Ok("0") | Ok("false") | Ok("no") => false,
                Ok("1") | Ok("true") | Ok("yes") => true,
                _ => default.shed_slow_clients,
            },
        }
    }
}

/// Recover a poisoned lock: the daemon keeps serving after a panicking
/// request, and every queue/registry mutation is panic-free, so a
/// poisoned guard is never torn.
fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A run request bound for the worker pool.
struct Job {
    id: u64,
    spec: FlowSpec,
    out: ClientSender,
}

/// The sending half of one client's bounded outbound queue.
#[derive(Clone)]
struct ClientSender {
    tx: SyncSender<String>,
    shed: bool,
}

impl ClientSender {
    /// Streaming cell events: shed when the queue is full (shed mode)
    /// or block (backpressure mode). A disconnected client is ignored.
    fn send_streaming(&self, metrics: &Metrics, line: String) {
        metrics.cells_streamed.fetch_add(1, Ordering::Relaxed);
        if self.shed {
            if let Err(TrySendError::Full(_)) = self.tx.try_send(line) {
                metrics.cells_shed.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            let _ = self.tx.send(line);
        }
    }

    /// Terminal and control events: always block until queued.
    fn send_critical(&self, line: String) {
        let _ = self.tx.send(line);
    }
}

#[derive(Default)]
struct Metrics {
    requests: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    cells_streamed: AtomicU64,
    cells_shed: AtomicU64,
    clients: AtomicU64,
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// Jobs popped but not yet finished.
    in_flight: usize,
    /// Set once by [`Server::shutdown`]; no job enters after this.
    stopping: bool,
}

struct Shared {
    engine: Arc<Engine>,
    config: ServeConfig,
    queue: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    drained: Condvar,
    coalescer: Coalescer<Result<Arc<EngineRun>, String>>,
    metrics: Metrics,
    /// Client sockets by connection id, for the shutdown half-close.
    clients: Mutex<HashMap<u64, TcpStream>>,
    client_threads: Mutex<Vec<JoinHandle<()>>>,
    next_client: AtomicU64,
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
}

impl Shared {
    fn gather_metrics(&self) -> ServeMetrics {
        ServeMetrics {
            requests: self.metrics.requests.load(Ordering::Relaxed),
            completed: self.metrics.completed.load(Ordering::Relaxed),
            failed: self.metrics.failed.load(Ordering::Relaxed),
            rejected: self.metrics.rejected.load(Ordering::Relaxed),
            coalesced: self.coalescer.coalesced(),
            executed: self.coalescer.executed(),
            cells_streamed: self.metrics.cells_streamed.load(Ordering::Relaxed),
            cells_shed: self.metrics.cells_shed.load(Ordering::Relaxed),
            clients: self.metrics.clients.load(Ordering::Relaxed),
            engine: self.engine.stats(),
        }
    }

    /// Executes one job end to end and delivers its terminal event.
    fn process(&self, job: Job) {
        let Job { id, spec, out } = job;
        let key = spec.content_hash();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            self.coalescer.run(key, || {
                let sink = |cell: &EngineCell| {
                    out.send_streaming(&self.metrics, cell_event(id, cell).to_line());
                };
                self.engine
                    .run_streaming(&spec, sink)
                    .map(Arc::new)
                    .map_err(|e| e.to_string())
            })
        }));
        let (result, coalesced) = match outcome {
            Ok(pair) => pair,
            Err(_) => {
                // A panicking request (e.g. a resolver bug) costs only
                // its own client an error event; the engine cache
                // recovers itself and the pool keeps serving.
                self.metrics.failed.fetch_add(1, Ordering::Relaxed);
                out.send_critical(
                    Event::Error {
                        id,
                        message: "request panicked while executing; see server log".to_owned(),
                    }
                    .to_line(),
                );
                return;
            }
        };
        match result {
            Ok(run) => {
                if coalesced {
                    // The leader streamed cells only to its own client;
                    // replay the shared cells under this request's id.
                    for cell in &run.cells {
                        out.send_streaming(&self.metrics, cell_event(id, cell).to_line());
                    }
                }
                out.send_critical(done_event(id, &run, coalesced).to_line());
                self.metrics.completed.fetch_add(1, Ordering::Relaxed);
            }
            Err(message) => {
                out.send_critical(Event::Error { id, message }.to_line());
                self.metrics.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = relock(&self.queue);
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        q.in_flight += 1;
                        self.not_full.notify_one();
                        break Some(job);
                    }
                    if q.stopping {
                        break None;
                    }
                    q = self
                        .not_empty
                        .wait(q)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            };
            let Some(job) = job else { return };
            self.process(job);
            let mut q = relock(&self.queue);
            q.in_flight -= 1;
            if q.in_flight == 0 && q.jobs.is_empty() {
                self.drained.notify_all();
            }
        }
    }

    /// Queues a run, blocking while the job queue is full. Returns
    /// `false` if the daemon is draining and the job was rejected.
    fn enqueue(&self, job: Job) -> bool {
        let mut q = relock(&self.queue);
        loop {
            if q.stopping {
                return false;
            }
            if q.jobs.len() < self.config.queue_depth {
                q.jobs.push_back(job);
                self.not_empty.notify_one();
                return true;
            }
            q = self
                .not_full
                .wait(q)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// The per-connection reader: parses request lines until EOF (or
    /// the shutdown half-close) and feeds the worker queue.
    fn serve_client(self: &Arc<Self>, stream: TcpStream, client_id: u64) {
        let (tx, rx) = mpsc::sync_channel::<String>(self.config.client_queue);
        let sender = ClientSender {
            tx,
            shed: self.config.shed_slow_clients,
        };

        let writer_stream = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => {
                relock(&self.clients).remove(&client_id);
                return;
            }
        };
        let _ = writer_stream.set_write_timeout(Some(WRITE_TIMEOUT));
        let writer = std::thread::spawn(move || {
            let mut out = BufWriter::new(writer_stream);
            while let Ok(line) = rx.recv() {
                if out
                    .write_all(line.as_bytes())
                    .and_then(|()| out.write_all(b"\n"))
                    .is_err()
                {
                    return; // dead client; drop the queue and unwind
                }
                // Batch whatever is already queued before flushing.
                while let Ok(line) = rx.try_recv() {
                    if out
                        .write_all(line.as_bytes())
                        .and_then(|()| out.write_all(b"\n"))
                        .is_err()
                    {
                        return;
                    }
                }
                if out.flush().is_err() {
                    return;
                }
            }
            let _ = out.flush();
        });

        let reader = BufReader::new(&stream);
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            match Request::parse(&line) {
                Err(e) => sender.send_critical(
                    Event::Error {
                        id: 0,
                        message: format!("malformed request: {}", e.0),
                    }
                    .to_line(),
                ),
                Ok(Request::Control { id, control }) => match control {
                    Control::Ping => sender.send_critical(Event::Pong { id }.to_line()),
                    Control::Stats => sender.send_critical(
                        Event::Stats {
                            id,
                            config: self.config,
                            metrics: self.gather_metrics(),
                        }
                        .to_line(),
                    ),
                    Control::Shutdown => {
                        sender.send_critical(Event::ShuttingDown { id }.to_line());
                        *relock(&self.shutdown_requested) = true;
                        self.shutdown_cv.notify_all();
                    }
                },
                Ok(Request::Run { id, spec }) => {
                    self.metrics.requests.fetch_add(1, Ordering::Relaxed);
                    let accepted = self.enqueue(Job {
                        id,
                        spec,
                        out: sender.clone(),
                    });
                    if !accepted {
                        self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                        sender.send_critical(
                            Event::Error {
                                id,
                                message: "server is shutting down; request rejected".to_owned(),
                            }
                            .to_line(),
                        );
                    }
                }
            }
        }

        // EOF (or half-close). In-flight jobs still hold sender clones;
        // the writer drains until the last clone drops, then exits.
        drop(sender);
        let _ = writer.join();
        relock(&self.clients).remove(&client_id);
    }
}

/// A running daemon. Dropping without [`Server::shutdown`] aborts the
/// threads with the process; call `shutdown` for a graceful drain.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` and starts the acceptor and worker pool over the
    /// shared `engine`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(
        engine: Arc<Engine>,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            config,
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                in_flight: 0,
                stopping: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            drained: Condvar::new(),
            coalescer: Coalescer::new(),
            metrics: Metrics::default(),
            clients: Mutex::new(HashMap::new()),
            client_threads: Mutex::new(Vec::new()),
            next_client: AtomicU64::new(0),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
        });

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || shared.worker_loop())
            })
            .collect();

        let acceptor = {
            let shared = shared.clone();
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if relock(&shared.queue).stopping {
                        return; // woken by the shutdown dummy connect
                    }
                    let Ok(stream) = stream else { continue };
                    shared.metrics.clients.fetch_add(1, Ordering::Relaxed);
                    let client_id = shared.next_client.fetch_add(1, Ordering::Relaxed);
                    if let Ok(clone) = stream.try_clone() {
                        relock(&shared.clients).insert(client_id, clone);
                    }
                    let worker_shared = shared.clone();
                    let handle = std::thread::spawn(move || {
                        worker_shared.serve_client(stream, client_id);
                    });
                    relock(&shared.client_threads).push(handle);
                }
            })
        };

        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A live counter snapshot.
    pub fn metrics(&self) -> ServeMetrics {
        self.shared.gather_metrics()
    }

    /// Blocks until some client sends the `shutdown` control.
    pub fn wait_shutdown_requested(&self) {
        let mut requested = relock(&self.shared.shutdown_requested);
        while !*requested {
            requested = self
                .shared
                .shutdown_cv
                .wait(requested)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Gracefully drains and stops the daemon: no new connections or
    /// requests are accepted, every queued and in-flight run still
    /// delivers its terminal event, and all threads are joined. Returns
    /// the final metrics.
    pub fn shutdown(mut self) -> ServeMetrics {
        {
            let mut q = relock(&self.shared.queue);
            q.stopping = true;
            self.shared.not_empty.notify_all();
            self.shared.not_full.notify_all();
        }
        // Unblock the acceptor's accept() and join it.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Half-close every client: readers see EOF and stop feeding the
        // queue, but responses still flow out.
        for stream in relock(&self.shared.clients).values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        // Drain queued + in-flight jobs to their terminal events.
        {
            let mut q = relock(&self.shared.queue);
            while q.in_flight > 0 || !q.jobs.is_empty() {
                q = self
                    .shared
                    .drained
                    .wait(q)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let client_threads = std::mem::take(&mut *relock(&self.shared.client_threads));
        for handle in client_threads {
            let _ = handle.join();
        }
        self.shared.gather_metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    fn tiny_spec(name: &str) -> FlowSpec {
        let mut g = mig::Mig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let m = g.add_maj(a, b, c);
        g.add_output("m", m);
        FlowSpec::new(name).inline_circuit("tiny", &g)
    }

    fn start_server() -> Server {
        start_server_with_workers(2)
    }

    fn start_server_with_workers(workers: usize) -> Server {
        let engine = Arc::new(Engine::new().with_resolver(benchsuite::build_mig));
        let config = ServeConfig {
            workers,
            queue_depth: 16,
            client_queue: 64,
            shed_slow_clients: false,
        };
        Server::start(engine, "127.0.0.1:0", config).expect("bind loopback")
    }

    #[test]
    fn a_run_round_trips_with_streamed_cells() {
        let server = start_server();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client
            .send(&Request::Run {
                id: 11,
                spec: tiny_spec("round-trip"),
            })
            .expect("send");
        let (cells, done) = client.collect_run(11).expect("run completes");
        assert_eq!(cells.len(), 1, "one streamed cell event");
        match done {
            Event::Done {
                cells: n,
                failed,
                coalesced,
                ..
            } => {
                assert_eq!((n, failed), (1, 0));
                assert!(!coalesced, "nothing to coalesce with");
            }
            other => panic!("expected done, got {other:?}"),
        }
        let metrics = server.shutdown();
        assert_eq!(metrics.completed, 1);
        assert_eq!(metrics.executed, 1);
    }

    #[test]
    fn controls_answer_and_shutdown_drains() {
        let server = start_server();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client
            .send(&Request::Control {
                id: 1,
                control: Control::Ping,
            })
            .expect("send ping");
        assert!(matches!(
            client.read_event().unwrap(),
            Event::Pong { id: 1 }
        ));

        client
            .send(&Request::Run {
                id: 2,
                spec: tiny_spec("pre-shutdown"),
            })
            .expect("send run");
        client
            .send(&Request::Control {
                id: 3,
                control: Control::Shutdown,
            })
            .expect("send shutdown");

        server.wait_shutdown_requested();
        let metrics = server.shutdown();
        assert_eq!(metrics.completed, 1, "queued run drained before exit");

        // The client still holds every event: the run's cell + done and
        // both control acks, then a clean EOF.
        let mut terminal = 0;
        let mut acked_shutdown = false;
        while let Some(event) = client.read_event_eof().expect("events then EOF") {
            match event {
                Event::Done { id: 2, .. } => terminal += 1,
                Event::ShuttingDown { id: 3 } => acked_shutdown = true,
                _ => {}
            }
        }
        assert_eq!(terminal, 1);
        assert!(acked_shutdown);
    }

    #[test]
    fn a_deeply_nested_line_gets_an_error_and_the_connection_lives_on() {
        use std::io::{BufRead, BufReader, Write};
        let server = start_server();
        let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        let hostile = "[".repeat(20_000);
        let ping = Request::Control {
            id: 2,
            control: Control::Ping,
        };
        write!(stream, "{hostile}\n{}\n", ping.to_line()).expect("send");
        let mut lines = BufReader::new(stream).lines();
        let mut next = || Event::parse(&lines.next().unwrap().unwrap()).unwrap();
        match next() {
            Event::Error { id: 0, message } => {
                assert!(message.contains("recursion limit"), "{message}");
            }
            other => panic!("expected an error event, got {other:?}"),
        }
        assert!(matches!(next(), Event::Pong { id: 2 }));
        server.shutdown();
    }

    #[test]
    fn pipelined_runs_collect_in_any_order() {
        // One worker runs the jobs in queue order, so all of run 1's
        // events reach the wire before run 2's.
        let server = start_server_with_workers(1);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for id in [1, 2] {
            let spec = tiny_spec(&format!("pipelined-{id}"));
            client.send(&Request::Run { id, spec }).expect("send run");
        }
        client
            .send(&Request::Control {
                id: 3,
                control: Control::Ping,
            })
            .expect("send ping");
        // Run 2 first: run 1's events arrive before it and are kept.
        for id in [2, 1] {
            let (cells, done) = client.collect_run(id).expect("run completes");
            assert_eq!(cells.len(), 1, "run {id}'s cell event");
            assert!(matches!(done, Event::Done { id: got, .. } if got == id));
        }
        assert!(matches!(
            client.read_event().expect("the ping's answer"),
            Event::Pong { id: 3 }
        ));
        server.shutdown();
    }

    #[test]
    fn an_out_of_range_weight_gets_an_error_and_the_connection_lives_on() {
        let server = start_server();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let weights = wavepipe::DelayWeights {
            inv: u32::MAX,
            maj: u32::MAX,
            ..wavepipe::DelayWeights::UNIT
        };
        let spec = tiny_spec("overflow").with_pipeline(
            wavepipe::PipelineSpec::map(false)
                .insert_buffers(wavepipe::BufferStrategy::Weighted(weights)),
        );
        client
            .send(&Request::Run { id: 1, spec })
            .expect("send run");
        match client.collect_run(1).expect("terminal event") {
            (cells, Event::Error { message, .. }) => {
                assert!(cells.is_empty());
                assert!(message.contains("delay weights"), "{message}");
            }
            other => panic!("expected an error event, got {other:?}"),
        }
        client
            .send(&Request::Control {
                id: 2,
                control: Control::Ping,
            })
            .expect("send ping");
        assert!(matches!(
            client.read_event().unwrap(),
            Event::Pong { id: 2 }
        ));
        server.shutdown();
    }

    #[test]
    fn identical_in_flight_specs_coalesce_to_one_execution() {
        // Deterministic coalescing: occupy both workers with the same
        // spec is racy, so instead drive the coalescer through the
        // public surface with a spec big enough to overlap. We assert
        // the *sum* invariant: executed + coalesced == completed, and
        // the engine saw at most `executed` misses for the shared key.
        let server = start_server();
        let spec = FlowSpec::new("burst")
            .circuit("synth:dag:7:nodes=400,depth=12")
            .inline_circuit("pad", &{
                let mut g = mig::Mig::new();
                let a = g.add_input("a");
                let b = g.add_input("b");
                let m = g.add_maj(a, b, !a);
                g.add_output("m", m);
                g
            });
        let clients: Vec<_> = (0..4)
            .map(|i| {
                let addr = server.local_addr();
                let spec = spec.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client
                        .send(&Request::Run { id: i, spec })
                        .expect("send run");
                    let (_, done) = client.collect_run(i).expect("terminal event");
                    matches!(done, Event::Done { .. })
                })
            })
            .collect();
        for handle in clients {
            assert!(handle.join().unwrap(), "every request completed");
        }
        let metrics = server.shutdown();
        assert_eq!(metrics.completed, 4);
        assert_eq!(
            metrics.executed + metrics.coalesced,
            4,
            "every run either executed or coalesced"
        );
        assert!(metrics.executed >= 1);
    }
}
