//! A minimal blocking client for the wire protocol — used by the load
//! generator, the smoke tests, and scripting against a live daemon.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{Event, Request};

/// One protocol connection. Requests may be pipelined; match responses
/// to requests with [`Event::id`], or collect each run with
/// [`Client::collect_run`] in any order.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Events [`Client::collect_run`] read for other request ids, in
    /// arrival order; later reads return them first.
    pending: VecDeque<Event>,
}

fn protocol_error(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn closed() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            pending: VecDeque::new(),
        })
    }

    /// Writes one request line and flushes it.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        self.writer.write_all(request.to_line().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Returns the next event — one buffered by
    /// [`Client::collect_run`] first, else the next line — or `None` on
    /// a clean EOF.
    ///
    /// # Errors
    ///
    /// Socket errors, or [`InvalidData`](io::ErrorKind::InvalidData)
    /// for a line that is not a protocol event.
    pub fn read_event_eof(&mut self) -> io::Result<Option<Event>> {
        match self.pending.pop_front() {
            Some(event) => Ok(Some(event)),
            None => self.read_line_event(),
        }
    }

    /// Reads the next event line off the socket.
    fn read_line_event(&mut self) -> io::Result<Option<Event>> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            if line.trim().is_empty() {
                continue;
            }
            return Event::parse(line.trim_end())
                .map(Some)
                .map_err(|e| protocol_error(format!("bad event line: {}", e.0)));
        }
    }

    /// Reads the next event line; EOF is an error.
    ///
    /// # Errors
    ///
    /// Like [`Client::read_event_eof`], plus
    /// [`UnexpectedEof`](io::ErrorKind::UnexpectedEof).
    pub fn read_event(&mut self) -> io::Result<Event> {
        self.read_event_eof()?.ok_or_else(closed)
    }

    /// Reads events until request `id`'s terminal event, collecting its
    /// streamed cell events along the way. Events for other pipelined
    /// request ids are kept, so they can be collected or read later.
    ///
    /// # Errors
    ///
    /// Like [`Client::read_event`].
    pub fn collect_run(&mut self, id: u64) -> io::Result<(Vec<Event>, Event)> {
        let mut cells = Vec::new();
        loop {
            let event = match self.pending.iter().position(|e| e.id() == id) {
                Some(at) => self.pending.remove(at).expect("position is in range"),
                None => {
                    let event = self.read_line_event()?.ok_or_else(closed)?;
                    if event.id() != id {
                        self.pending.push_back(event);
                        continue;
                    }
                    event
                }
            };
            if event.is_terminal() {
                return Ok((cells, event));
            }
            if matches!(event, Event::Cell { .. }) {
                cells.push(event);
            }
        }
    }
}
