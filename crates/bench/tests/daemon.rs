//! The `wavepipe-serve` binary driven as a process: it binds an
//! ephemeral port, announces it on stdout, answers `ping`, streams the
//! cells of a run, and on `shutdown` drains, prints its summary and
//! exits 0. In-process coalescing, backpressure and panic isolation are
//! covered by the workspace's `tests/engine_hammer.rs`.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use wavepipe::{FlowSpec, SynthSpec};
use wavepipe_serve::{Client, Control, Event, Request};

/// Kills the daemon if the test fails before it exits on its own.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

/// Reads stdout up to the `listening on <addr>` line and returns the
/// address.
fn listening_addr(stdout: &mut BufReader<ChildStdout>) -> String {
    let mut line = String::new();
    loop {
        line.clear();
        let read = stdout.read_line(&mut line).expect("read daemon stdout");
        assert!(read > 0, "daemon exited before announcing its address");
        if let Some(addr) = line.trim_end().strip_prefix("wavepipe-serve listening on ") {
            return addr.to_owned();
        }
    }
}

#[test]
fn daemon_serves_a_run_and_exits_cleanly_on_shutdown() {
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_wavepipe-serve"))
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--no-shed"])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn the daemon"),
    );
    let mut stdout = BufReader::new(daemon.0.stdout.take().expect("piped stdout"));
    let addr = listening_addr(&mut stdout);
    let mut client = Client::connect(&addr).expect("connect to the daemon");

    client
        .send(&Request::Control {
            id: 1,
            control: Control::Ping,
        })
        .expect("send ping");
    assert!(matches!(
        client.read_event().expect("pong"),
        Event::Pong { id: 1 }
    ));

    let spec = FlowSpec::new("daemon-smoke")
        .synthetic_circuit(SynthSpec::new("dag", 11).param("nodes", 120))
        .synthetic_circuit(SynthSpec::new("dag", 12).param("nodes", 160));
    client
        .send(&Request::Run { id: 2, spec })
        .expect("send the run");
    let (cells, done) = client.collect_run(2).expect("terminal event");
    assert_eq!(cells.len(), 2, "one streamed cell per circuit: {cells:?}");
    assert!(
        cells
            .iter()
            .all(|c| matches!(c, Event::Cell { ok: true, .. })),
        "{cells:?}"
    );
    assert!(
        matches!(
            done,
            Event::Done {
                id: 2,
                cells: 2,
                failed: 0,
                ..
            }
        ),
        "{done:?}"
    );

    client
        .send(&Request::Control {
            id: 3,
            control: Control::Shutdown,
        })
        .expect("send shutdown");
    loop {
        match client.read_event_eof().expect("shutdown ack") {
            Some(Event::ShuttingDown { id: 3 }) | None => break,
            Some(_) => continue,
        }
    }
    drop(client);

    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = daemon.0.try_wait().expect("poll the daemon") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "daemon did not exit after shutdown"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "daemon exited with {status}");

    let mut rest = String::new();
    stdout
        .read_to_string(&mut rest)
        .expect("read the shutdown summary");
    let summary = rest
        .lines()
        .find(|l| l.starts_with("served "))
        .unwrap_or_else(|| panic!("no shutdown summary in:\n{rest}"));
    assert!(
        summary.starts_with("served 1 requests from 1 clients: 1 completed, 0 failed"),
        "{summary}"
    );
}
