//! The TCP front end: an event-driven epoll reactor that runs every
//! request to completion, newline-delimited requests in, single-line
//! JSON out.
//!
//! One reactor thread owns every socket and serves every client
//! request. It accepts non-blocking, reads what each ready socket
//! holds, and hands the bytes to the connection's [`Session`], which
//! splits them into request lines and, in arrival order, parses each
//! one, calls the service and renders the response into the
//! connection's write buffer. No worker pool and no thread hand-off sit
//! on the request path: a request costs its parse, its handler and its
//! render, plus the socket calls around them. The price is that one
//! long request (a `SNAPSHOT` of a large set, a write that triggers a
//! snapshot) delays every connection behind it. The service itself
//! stays thread-safe, because replication sessions and the interval
//! flusher share it.
//!
//! **Pipelining with ordered responses.** A client may write N requests
//! back to back without waiting; the N responses come back in request
//! order, and an overlong line's `too_long` answer keeps its slot.
//!
//! **Group commit by pass.** Under `--fsync always` a write may not be
//! acknowledged before its WAL record is durable. Its session holds the
//! acknowledgement, and every later line of that connection, until the
//! end of the reactor's pass over the ready sockets. There one
//! `fdatasync` covers every write the pass produced; then the held
//! acknowledgements go out, or, if the sync failed, the `wal` refusal in
//! each one's place. A pass that holds writes polls without waiting, so
//! no poll tick delays a sync.
//!
//! Shutdown is cooperative and lock-free: the `SHUTDOWN` handler (or a
//! [`ShutdownHandle`]) sets a shared [`AtomicBool`]; the handle also
//! self-connects so the reactor notices immediately instead of at the
//! next 100ms poll tick. The reactor then flushes what it can and
//! returns.
//!
//! Input is untrusted: the splitter keeps at most
//! [`MAX_LINE_BYTES`](crate::protocol::MAX_LINE_BYTES) per request,
//! answers an overlong line with `code:"too_long"`, discards bytes up to
//! the next newline, and **keeps the connection** — one bad request does
//! not kill a client's session. A connection cap
//! ([`ServerConfig::max_connections`]) sheds excess connects with a
//! single `busy` line (counted under `STATS` `shed`) instead of
//! accepting unbounded state.

use crate::dispatch::Session;
use crate::poll::{PollEvent, Poller};
use crate::protocol::{render_response, Response};
use crate::service::AdmissionService;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Upper bound on one epoll wait; the reactor re-checks the shutdown
/// flag at least this often even with no traffic.
const POLL_TICK: Duration = Duration::from_millis(100);

/// Epoll token of the listening socket.
const LISTENER_TOKEN: u64 = 0;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 1;

/// Read granularity per `read(2)` call on a ready socket.
const READ_CHUNK: usize = 64 * 1024;

/// Front-end limits.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerConfig {
    /// Maximum simultaneous connections; further connects are answered
    /// with one `busy` line and closed (0 = unlimited).
    pub max_connections: usize,
}

/// Per-connection reactor state: the socket, its request [`Session`],
/// and the rendered responses not yet written.
struct Connection {
    stream: TcpStream,
    session: Session,
    /// Rendered responses not yet written to the socket.
    wbuf: Vec<u8>,
    /// Drained prefix of `wbuf`.
    wpos: usize,
    /// Peer sent EOF; serve what's queued, then close.
    read_closed: bool,
    /// Interest set currently armed in epoll: (readable, writable).
    armed: (bool, bool),
}

impl Connection {
    fn new(stream: TcpStream) -> Connection {
        Connection {
            stream,
            session: Session::new(),
            wbuf: Vec::new(),
            wpos: 0,
            read_closed: false,
            armed: (true, false),
        }
    }

    /// Reads everything available (level-triggered epoll: until
    /// `WouldBlock` or EOF) into the session's line splitter.
    fn read_ready(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    return Ok(());
                }
                Ok(n) => self.session.ingest(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes as much buffered output as the socket takes.
    fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(())
    }

    fn has_backlog(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Fully served: the peer is done sending and nothing is queued,
    /// held, or waiting to flush.
    fn done(&self) -> bool {
        self.read_closed && self.session.is_idle() && !self.has_backlog()
    }
}

/// A running admission server bound to a socket.
pub struct Server {
    listener: TcpListener,
    service: Arc<AdmissionService>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port). The listener
    /// is live when this returns; call [`Server::run`] to serve.
    pub fn bind(service: Arc<AdmissionService>, addr: &str) -> io::Result<Server> {
        Self::bind_with_config(service, addr, ServerConfig::default())
    }

    /// [`Server::bind`] with explicit [`ServerConfig`] limits.
    pub fn bind_with_config(
        service: Arc<AdmissionService>,
        addr: &str,
        config: ServerConfig,
    ) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service,
            shutdown: Arc::new(AtomicBool::new(false)),
            config,
        })
    }

    /// The bound address (the real port when bound to port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops the server from another thread, exactly as a
    /// client's `SHUTDOWN` would.
    pub fn shutdown_handle(&self) -> io::Result<ShutdownHandle> {
        Ok(ShutdownHandle {
            flag: Arc::clone(&self.shutdown),
            addr: self.local_addr()?,
        })
    }

    /// Serves until a `SHUTDOWN` request (or a [`ShutdownHandle`])
    /// stops it.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        // Under `--fsync interval` the periodic flush + fsync runs on
        // its own thread: the reactor paying the fsync would put
        // multi-ms device latency into every connection's requests.
        let flusher = self.service.wal_flush_interval().map(|every| {
            let service = Arc::clone(&self.service);
            let shutdown = Arc::clone(&self.shutdown);
            let tick = (every / 4).max(Duration::from_millis(1));
            thread::spawn(move || {
                while !shutdown.load(Ordering::SeqCst) {
                    thread::sleep(tick);
                    service.sync_wal_if_due();
                }
            })
        });

        let poller = Poller::new()?;
        poller.add(self.listener.as_raw_fd(), LISTENER_TOKEN, true, false)?;
        let mut reactor = Reactor {
            poller,
            listener: self.listener,
            service: self.service,
            conns: HashMap::new(),
            held: Vec::new(),
            next_token: FIRST_CONN_TOKEN,
            shutdown: self.shutdown,
            max_connections: self.config.max_connections,
        };
        let result = reactor.event_loop();

        reactor.shutdown.store(true, Ordering::SeqCst);
        if let Some(f) = flusher {
            let _ = f.join();
        }
        result
    }
}

/// The single-threaded event loop: all socket I/O and every request.
struct Reactor {
    poller: Poller,
    listener: TcpListener,
    service: Arc<AdmissionService>,
    conns: HashMap<u64, Connection>,
    /// Connections whose session holds a write for this pass's sync.
    held: Vec<u64>,
    next_token: u64,
    shutdown: Arc<AtomicBool>,
    max_connections: usize,
}

impl Reactor {
    fn event_loop(&mut self) -> io::Result<()> {
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                // Best-effort: push out whatever responses are already
                // rendered (the SHUTDOWN ack among them), then stop.
                for conn in self.conns.values_mut() {
                    let _ = conn.flush();
                }
                return Ok(());
            }
            // A held write must not wait a poll tick for its sync.
            let tick = if self.held.is_empty() {
                POLL_TICK
            } else {
                Duration::ZERO
            };
            self.poller.wait(&mut events, Some(tick))?;
            for ev in &events {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    token => self.conn_ready(token, *ev),
                }
            }
            self.commit_pass();
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit_conn(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // A single failed accept (e.g. the peer vanished
                // between SYN and accept) is not fatal to the server.
                Err(_) => return,
            }
        }
    }

    fn admit_conn(&mut self, mut stream: TcpStream) {
        if self.max_connections > 0 && self.conns.len() >= self.max_connections {
            // Shed at accept: one busy line, then close. The peer
            // learns to back off instead of hanging in a queue.
            self.service.count_shed();
            let mut line = render_response(&Response::Busy {
                retry_after_ms: 100,
            });
            line.push('\n');
            let _ = stream.write_all(line.as_bytes());
            return;
        }
        // Responses are single small writes; without TCP_NODELAY they
        // sit in Nagle's buffer waiting for the peer's delayed ACK
        // (~40ms per round trip on loopback).
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .add(stream.as_raw_fd(), token, true, false)
            .is_err()
        {
            return;
        }
        self.conns.insert(token, Connection::new(stream));
    }

    fn conn_ready(&mut self, token: u64, ev: PollEvent) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if (ev.readable || ev.hangup) && conn.read_ready().is_err() {
            self.close_conn(token);
            return;
        }
        self.service_conn(token);
    }

    /// Answers what the connection's session can answer now, flushes,
    /// and re-arms epoll interest to match (write interest only while
    /// output is backlogged, read interest only until the peer's EOF).
    fn service_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let was_held = conn.session.is_held();
        if conn.session.run(&self.service, &mut conn.wbuf) {
            self.shutdown.store(true, Ordering::SeqCst);
        }
        if !was_held && conn.session.is_held() {
            self.held.push(token);
        }
        if conn.flush().is_err() || conn.done() {
            self.close_conn(token);
            return;
        }
        let want = (!conn.read_closed, conn.has_backlog());
        if want != conn.armed {
            conn.armed = want;
            let fd = conn.stream.as_raw_fd();
            let _ = self.poller.modify(fd, token, want.0, want.1);
        }
    }

    /// Ends a pass: the first release runs one group sync for every
    /// write appended so far, the rest find their tickets covered; each
    /// connection then serves on from behind its write.
    fn commit_pass(&mut self) {
        for token in std::mem::take(&mut self.held) {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.session.release(&self.service, &mut conn.wbuf);
            }
            self.service_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.delete(conn.stream.as_raw_fd());
        }
    }
}

/// Stops a [`Server`] from outside the protocol.
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Sets the shutdown flag and wakes the reactor (a self-connect
    /// surfaces as an accept event) so it notices without waiting for
    /// the next poll tick.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::MAX_LINE_BYTES;
    use wormnet_topology::Mesh;

    fn spawn_server() -> (
        SocketAddr,
        ShutdownHandle,
        thread::JoinHandle<io::Result<()>>,
    ) {
        let service = Arc::new(AdmissionService::new(Mesh::mesh2d(10, 10)));
        let server = Server::bind(service, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle().unwrap();
        let join = thread::spawn(move || server.run());
        (addr, handle, join)
    }

    #[test]
    fn serves_a_round_trip_and_shuts_down() {
        let (addr, _handle, join) = spawn_server();
        let mut c = Client::connect(&addr.to_string()).unwrap();
        let admitted = c.send("ADMIT 0,0 5,0 2 50 4").unwrap();
        assert!(admitted.contains("\"status\":\"admitted\""), "{admitted}");
        let query = c.send("QUERY 0").unwrap();
        assert!(query.contains("\"status\":\"ok\""), "{query}");
        let removed = c.send("REMOVE 0").unwrap();
        assert!(removed.contains("\"status\":\"removed\""), "{removed}");
        let bye = c.send("SHUTDOWN").unwrap();
        assert!(bye.contains("shutting-down"), "{bye}");
        join.join().unwrap().unwrap();
    }

    #[test]
    fn malformed_lines_do_not_kill_the_connection() {
        let (addr, handle, join) = spawn_server();
        let mut c = Client::connect(&addr.to_string()).unwrap();
        let err = c.send("FROB 1 2 3").unwrap();
        assert!(err.contains("\"status\":\"error\""), "{err}");
        // The same connection still works.
        let ok = c.send("STATS").unwrap();
        assert!(ok.contains("\"status\":\"ok\""), "{ok}");
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn overlong_line_is_rejected_and_the_connection_survives() {
        let (addr, handle, join) = spawn_server();
        let mut c = Client::connect(&addr.to_string()).unwrap();
        let long = format!("QUERY {}", "9".repeat(MAX_LINE_BYTES + 10));
        let reply = c.send(&long).unwrap();
        assert!(reply.contains("\"code\":\"too_long\""), "{reply}");
        // The reader resynchronized at the newline: the same connection
        // keeps serving normal requests.
        let ok = c.send("STATS").unwrap();
        assert!(ok.contains("\"status\":\"ok\""), "{ok}");
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn connection_cap_sheds_with_busy() {
        let service = Arc::new(AdmissionService::new(Mesh::mesh2d(10, 10)));
        let server =
            Server::bind_with_config(service, "127.0.0.1:0", ServerConfig { max_connections: 1 })
                .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle().unwrap();
        let join = thread::spawn(move || server.run());
        let mut first = Client::connect(&addr.to_string()).unwrap();
        assert!(first.send("STATS").unwrap().contains("\"status\":\"ok\""));
        // The slot is taken: the next connect gets one busy line.
        let mut second = Client::connect(&addr.to_string()).unwrap();
        let reply = second.send("STATS");
        // The server may close before our request write lands (Err).
        if let Ok(line) = reply {
            assert!(line.contains("\"status\":\"busy\""), "{line}");
        }
        // Either way the reactor has shed it, and counted it.
        let stats = first.send("STATS").unwrap();
        assert!(stats.contains("\"shed\":1"), "{stats}");
        drop(first);
        drop(second);
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn external_shutdown_unblocks_the_accept_loop() {
        let (_addr, handle, join) = spawn_server();
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn pipelined_requests_come_back_in_order() {
        let (addr, handle, join) = spawn_server();
        let mut stream = TcpStream::connect(addr).unwrap();
        // Three requests in one TCP segment, no read in between.
        stream
            .write_all(b"STATS\nADMIT 0,0 3,3 2 50 4\nQUERY 0\n")
            .unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut lines = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
            lines.push(line);
        }
        assert!(lines[0].contains("\"stats\""), "{lines:?}");
        assert!(lines[1].contains("\"status\":\"admitted\""), "{lines:?}");
        assert!(
            lines[2].contains("\"status\":\"ok\"") && lines[2].contains("\"id\":0"),
            "{lines:?}"
        );
        drop(reader);
        handle.shutdown();
        join.join().unwrap().unwrap();
    }
}
