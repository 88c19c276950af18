//! `wavepipe-serve` — the engine daemon.
//!
//! Binds a TCP listener, wires the `benchsuite` registry in as the
//! circuit resolver, and serves newline-delimited JSON `FlowSpec`
//! requests from any number of concurrent clients over one shared,
//! cached engine (see the `wavepipe-serve` crate docs for the wire
//! protocol and threading model). Runs until a client sends the
//! `shutdown` control, then drains in-flight work and exits 0.
//!
//! ```text
//! cargo run --release -p wavepipe-bench --bin wavepipe-serve -- \
//!     --addr 127.0.0.1:7117 --workers 8 --cache-dir /tmp/wp-disk
//! ```
//!
//! Every flag also has a `WAVEPIPE_SERVE_*` environment form (flags
//! win): `WORKERS`, `QUEUE`, `CLIENT_QUEUE`, `SHED`.

use std::sync::Arc;

use wavepipe::Engine;
use wavepipe_serve::{ServeConfig, Server};

fn main() {
    let mut addr = "127.0.0.1:7117".to_owned();
    let mut config = ServeConfig::from_env();
    let mut cache_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} takes a value"))
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--workers" => config.workers = value("--workers").parse().expect("--workers N"),
            "--queue" => config.queue_depth = value("--queue").parse().expect("--queue N"),
            "--client-queue" => {
                config.client_queue = value("--client-queue").parse().expect("--client-queue N");
            }
            "--no-shed" => config.shed_slow_clients = false,
            "--cache-dir" => cache_dir = Some(value("--cache-dir")),
            other => panic!(
                "unknown argument `{other}` (try --addr HOST:PORT --workers N \
                 --queue N --client-queue N --no-shed --cache-dir PATH)"
            ),
        }
    }
    config.workers = config.workers.max(1);
    config.queue_depth = config.queue_depth.max(1);
    config.client_queue = config.client_queue.max(1);

    let mut engine = Engine::new().with_resolver(benchsuite::build_mig);
    if let Some(dir) = &cache_dir {
        engine = engine.with_disk_cache(dir);
    }
    let server = Server::start(Arc::new(engine), &addr, config).expect("bind the listen address");
    // The exact line the process test (`tests/daemon.rs`) and any
    // wrapper script wait for before sending requests.
    println!("wavepipe-serve listening on {}", server.local_addr());
    println!(
        "workers={} queue={} client_queue={} shed={} cache_dir={}",
        config.workers,
        config.queue_depth,
        config.client_queue,
        config.shed_slow_clients,
        cache_dir.as_deref().unwrap_or("-"),
    );

    server.wait_shutdown_requested();
    println!("shutdown requested; draining");
    let metrics = server.shutdown();
    println!(
        "served {} requests from {} clients: {} completed, {} failed, {} rejected, \
         {} executed + {} coalesced; engine {} hits / {} misses; \
         {} cells streamed ({} shed)",
        metrics.requests,
        metrics.clients,
        metrics.completed,
        metrics.failed,
        metrics.rejected,
        metrics.executed,
        metrics.coalesced,
        metrics.engine.cache_hits,
        metrics.engine.cache_misses,
        metrics.cells_streamed,
        metrics.cells_shed,
    );
}
