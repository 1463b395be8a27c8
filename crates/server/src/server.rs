//! The TCP front end: an event-driven epoll reactor that owns the
//! service and runs every request to completion, newline-delimited
//! requests in, single-line JSON out.
//!
//! One reactor thread owns every socket and the [`AdmissionService`]
//! itself. It accepts non-blocking, reads what each ready socket holds,
//! and hands the bytes to the connection's [`Session`], which splits
//! them into request lines and, in arrival order, parses each one, calls
//! the service and renders the response into the connection's write
//! buffer. No worker pool and no thread hand-off sit on the request
//! path: a request costs its parse, its handler and its render, plus the
//! socket calls around them. The price is that one long request (a
//! `SNAPSHOT` of a large set, a write that triggers a snapshot) delays
//! every connection behind it.
//!
//! **Replication on the same thread.** A leader's ship sessions
//! ([`crate::repl::ship`]) and a follower's link to its leader
//! ([`crate::repl::follower`]) are connections of this reactor too,
//! framed with the replication protocol's length prefixes over the same
//! per-connection buffers. Their heartbeats, reconnects, promotion grace
//! and fence retries are deadlines that shorten the epoll timeout, so
//! nothing sleeps and nothing else touches the service. The one other
//! thread is the `--fsync interval` flusher, which holds only the
//! group-commit WAL: the fsync stays off the reactor.
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
//! no poll tick delays a sync. Ship sessions run after the sync, so the
//! frames of a pass's writes leave in the same pass.
//!
//! Shutdown is cooperative and lock-free: the `SHUTDOWN` handler (or a
//! [`ShutdownHandle`]) sets a shared [`AtomicBool`]; the handle also
//! self-connects so the reactor notices immediately instead of at the
//! next 100ms poll tick. The reactor then flushes what it can and hands
//! the service back ([`Server::run`]).
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
use crate::poll::{connect_nonblocking, PollEvent, Poller};
use crate::protocol::{render_response, Response};
use crate::repl::follower::{FollowLink, FollowerConfig, Tick};
use crate::repl::proto::{take_msg, ReplMsg};
use crate::repl::ship::{Flow, ShipSession, ShipperConfig};
use crate::service::AdmissionService;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Upper bound on one epoll wait; the reactor re-checks the shutdown
/// flag at least this often even with no traffic.
const POLL_TICK: Duration = Duration::from_millis(100);

/// Epoll token of the client listening socket.
const LISTENER_TOKEN: u64 = 0;
/// Epoll token of the replication listening socket (leaders).
const REPL_LISTENER_TOKEN: u64 = 1;
/// First token handed to an accepted or dialed connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// Read granularity per `read(2)` call on a ready socket.
const READ_CHUNK: usize = 64 * 1024;

/// Front-end limits.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerConfig {
    /// Maximum simultaneous client connections; further connects are
    /// answered with one `busy` line and closed (0 = unlimited).
    pub max_connections: usize,
}

/// Who is at the other end of a connection.
enum Peer {
    /// A client speaking the text protocol.
    Client(Session),
    /// A follower this node ships its WAL to.
    Follower(ShipSession),
    /// This node's leader: the follower link's current connection.
    Leader,
}

/// Per-connection reactor state: the socket, who is on the other end,
/// and the bytes not yet consumed or written.
struct Connection {
    stream: TcpStream,
    peer: Peer,
    /// Replication bytes received but not yet cut into messages.
    rbuf: Vec<u8>,
    /// Rendered responses or encoded messages not yet written.
    wbuf: Vec<u8>,
    /// Drained prefix of `wbuf`.
    wpos: usize,
    /// Peer sent EOF; serve what's queued, then close.
    read_closed: bool,
    /// A non-blocking dial that has not connected yet.
    connecting: bool,
    /// Write what is queued, then close.
    closing: bool,
    /// Interest set currently armed in epoll: (readable, writable).
    armed: (bool, bool),
}

impl Connection {
    fn new(stream: TcpStream, peer: Peer) -> Connection {
        Connection {
            stream,
            peer,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            read_closed: false,
            connecting: false,
            closing: false,
            armed: (true, false),
        }
    }

    /// Reads everything available (level-triggered epoll: until
    /// `WouldBlock` or EOF): request bytes into the session's line
    /// splitter, replication bytes into `rbuf`.
    fn read_ready(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    return Ok(());
                }
                Ok(n) => match &mut self.peer {
                    Peer::Client(session) => session.ingest(&chunk[..n]),
                    Peer::Follower(_) | Peer::Leader => self.rbuf.extend_from_slice(&chunk[..n]),
                },
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes as much buffered output as the socket takes.
    fn flush(&mut self) -> io::Result<()> {
        if self.connecting {
            return Ok(());
        }
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

    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Fully served: a client that is done sending and has nothing
    /// queued, held, or waiting to flush; a replication peer that hung
    /// up or was told to go.
    fn done(&self) -> bool {
        match &self.peer {
            Peer::Client(session) => self.read_closed && session.is_idle() && self.unsent() == 0,
            Peer::Follower(_) | Peer::Leader => self.read_closed || self.closing,
        }
    }
}

/// A running admission server bound to a socket.
pub struct Server {
    listener: TcpListener,
    service: AdmissionService,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
    ship: Option<(TcpListener, ShipperConfig)>,
    follow: Option<FollowerConfig>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port). The listener
    /// is live when this returns; call [`Server::run`] to serve.
    pub fn bind(service: AdmissionService, addr: &str) -> io::Result<Server> {
        Self::bind_with_config(service, addr, ServerConfig::default())
    }

    /// [`Server::bind`] with explicit [`ServerConfig`] limits.
    pub fn bind_with_config(
        service: AdmissionService,
        addr: &str,
        config: ServerConfig,
    ) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service,
            shutdown: Arc::new(AtomicBool::new(false)),
            config,
            ship: None,
            follow: None,
        })
    }

    /// Ships the WAL to every follower that connects to `listener`. The
    /// service needs a replication hub and local durability (the WAL
    /// file is what gets shipped).
    pub fn with_shipper(mut self, listener: TcpListener, cfg: ShipperConfig) -> io::Result<Server> {
        if self.service.repl_hub().is_none() || self.service.wal_dir().is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "shipping needs a replication hub and a WAL directory",
            ));
        }
        listener.set_nonblocking(true)?;
        self.ship = Some((listener, cfg));
        Ok(self)
    }

    /// Follows the leader at `cfg.leader`: applies its WAL stream,
    /// promotes after the grace, fences the deposed leader. The service
    /// needs a replication hub in follower mode.
    pub fn with_follower(mut self, cfg: FollowerConfig) -> io::Result<Server> {
        if self.service.repl_hub().is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "following needs a replication hub",
            ));
        }
        self.follow = Some(cfg);
        Ok(self)
    }

    /// The bound address (the real port when bound to port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound replication address, when shipping.
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.ship.as_ref().and_then(|(l, _)| l.local_addr().ok())
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
    /// stops it, then hands the service back.
    pub fn run(self) -> io::Result<AdmissionService> {
        self.listener.set_nonblocking(true)?;
        // Under `--fsync interval` the periodic flush + fsync runs on
        // its own thread, which holds only the WAL: the reactor paying
        // the fsync would put multi-ms device latency into every
        // connection's requests.
        let flusher = self.service.interval_wal().map(|(wal, every)| {
            let shutdown = Arc::clone(&self.shutdown);
            let tick = (every / 4).max(Duration::from_millis(1));
            thread::spawn(move || {
                while !shutdown.load(Ordering::SeqCst) {
                    thread::sleep(tick);
                    // A failed sync breaks the log; the service reads
                    // that as degraded.
                    let _ = wal.sync_if_due();
                }
            })
        });

        let poller = Poller::new()?;
        poller.add(self.listener.as_raw_fd(), LISTENER_TOKEN, true, false)?;
        if let Some((listener, _)) = &self.ship {
            poller.add(listener.as_raw_fd(), REPL_LISTENER_TOKEN, true, false)?;
        }
        let now = Instant::now();
        let link = self
            .follow
            .map(|cfg| FollowLink::new(cfg, &self.service, now));
        let mut reactor = Reactor {
            poller,
            listener: self.listener,
            service: self.service,
            conns: HashMap::new(),
            held: Vec::new(),
            next_token: FIRST_CONN_TOKEN,
            shutdown: self.shutdown,
            max_connections: self.config.max_connections,
            ship: self.ship,
            ship_tokens: Vec::new(),
            link,
            link_token: None,
        };
        let result = reactor.event_loop();

        reactor.shutdown.store(true, Ordering::SeqCst);
        if let Some(f) = flusher {
            let _ = f.join();
        }
        result.map(|()| reactor.service)
    }
}

/// The single-threaded event loop: all socket I/O, every request, and
/// every replication session.
struct Reactor {
    poller: Poller,
    listener: TcpListener,
    service: AdmissionService,
    conns: HashMap<u64, Connection>,
    /// Connections whose session holds a write for this pass's sync.
    held: Vec<u64>,
    next_token: u64,
    shutdown: Arc<AtomicBool>,
    max_connections: usize,
    /// The replication listener and ship settings (leaders).
    ship: Option<(TcpListener, ShipperConfig)>,
    /// Connections of [`Peer::Follower`] sessions.
    ship_tokens: Vec<u64>,
    /// The link to this node's leader (followers).
    link: Option<FollowLink>,
    /// The link's current connection.
    link_token: Option<u64>,
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
            let timeout = if self.held.is_empty() {
                let now = Instant::now();
                self.deadline(now).saturating_duration_since(now)
            } else {
                Duration::ZERO
            };
            self.poller.wait(&mut events, Some(timeout))?;
            let now = Instant::now();
            for ev in &events {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    REPL_LISTENER_TOKEN => self.accept_followers(now),
                    token => self.conn_ready(token, *ev, now),
                }
            }
            self.commit_pass();
            self.repl_pass(now);
        }
    }

    /// The earliest replication deadline, capped at a poll tick.
    fn deadline(&self, now: Instant) -> Instant {
        let mut at = now + POLL_TICK;
        if let Some(link) = &self.link {
            at = at.min(link.deadline().unwrap_or(at));
        }
        if let Some((_, cfg)) = &self.ship {
            for token in &self.ship_tokens {
                if let Some(Connection {
                    peer: Peer::Follower(ship),
                    ..
                }) = self.conns.get(token)
                {
                    at = at.min(ship.deadline(cfg));
                }
            }
        }
        at
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
        if self.max_connections > 0 && self.clients() >= self.max_connections {
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
        self.register(stream, Peer::Client(Session::new()));
    }

    /// Client connections (the cap does not count replication peers).
    fn clients(&self) -> usize {
        self.conns.len() - self.ship_tokens.len() - usize::from(self.link_token.is_some())
    }

    fn accept_followers(&mut self, now: Instant) {
        loop {
            let Some((listener, _)) = &self.ship else {
                return;
            };
            match listener.accept() {
                Ok((stream, peer)) => {
                    let session = ShipSession::new(peer.to_string(), now);
                    if let Some(token) = self.register(stream, Peer::Follower(session)) {
                        self.ship_tokens.push(token);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Registers a connection for reading. Responses and frames are
    /// small writes; without `TCP_NODELAY` they sit in Nagle's buffer
    /// waiting for the peer's delayed ACK (~40ms per round trip on
    /// loopback).
    fn register(&mut self, stream: TcpStream, peer: Peer) -> Option<u64> {
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return None;
        }
        let token = self.next_token;
        self.next_token += 1;
        self.poller
            .add(stream.as_raw_fd(), token, true, false)
            .ok()?;
        self.conns.insert(token, Connection::new(stream, peer));
        Some(token)
    }

    /// Dials the leader for the follower link, without blocking.
    fn dial(&mut self, addr: SocketAddr, now: Instant) {
        let dialed = connect_nonblocking(&addr).and_then(|stream| {
            stream.set_nodelay(true)?;
            let token = self.next_token;
            self.next_token += 1;
            // Writable = connected (or failed): wait for that only.
            self.poller.add(stream.as_raw_fd(), token, false, true)?;
            let mut conn = Connection::new(stream, Peer::Leader);
            conn.connecting = true;
            conn.armed = (false, true);
            self.conns.insert(token, conn);
            Ok(token)
        });
        match dialed {
            Ok(token) => self.link_token = Some(token),
            Err(e) => {
                if let Some(link) = &mut self.link {
                    link.on_close(Some(&e), now);
                }
            }
        }
    }

    fn conn_ready(&mut self, token: u64, ev: PollEvent, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.connecting {
            let failed = match conn.stream.take_error() {
                Ok(None) => ev.hangup && !ev.writable,
                Ok(Some(_)) | Err(_) => true,
            };
            if failed {
                let err = io::Error::new(io::ErrorKind::ConnectionRefused, "dial failed");
                self.close_conn(token, Some(&err), now);
                return;
            }
            conn.connecting = false;
            if let Some(link) = &mut self.link {
                link.on_connected(&self.service, &mut conn.wbuf, now);
            }
        }
        if (ev.readable || ev.hangup) && conn.read_ready().is_err() {
            self.close_conn(token, None, now);
            return;
        }
        self.serve_conn(token, now);
    }

    /// Answers what the connection's peer can be answered now, then
    /// [`Reactor::settle`]s it.
    fn serve_conn(&mut self, token: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut failed = None;
        match &mut conn.peer {
            Peer::Client(session) => {
                let was_held = session.is_held();
                if session.run(&self.service, &mut conn.wbuf) {
                    self.shutdown.store(true, Ordering::SeqCst);
                }
                if !was_held && session.is_held() {
                    self.held.push(token);
                }
            }
            Peer::Follower(ship) => {
                let Some((_, cfg)) = &self.ship else {
                    return;
                };
                // Drop the written prefix: `wbuf.len()` is the unsent
                // count the session's cap reads.
                conn.wbuf.drain(..conn.wpos);
                conn.wpos = 0;
                failed = take_msgs(
                    &mut conn.rbuf,
                    &mut conn.wbuf,
                    &mut conn.closing,
                    |unsent| ShipSession::takes_requests(cfg, unsent),
                    |msg, out| ship.on_msg(msg, &self.service, cfg, out),
                );
            }
            Peer::Leader => {
                let Some(link) = &mut self.link else {
                    return;
                };
                failed = take_msgs(
                    &mut conn.rbuf,
                    &mut conn.wbuf,
                    &mut conn.closing,
                    |_| true,
                    |msg, out| link.on_msg(msg, &self.service, out, now),
                );
                link.ack_applied(&self.service, &mut conn.wbuf);
            }
        }
        match failed {
            Some(e) => self.close_conn(token, Some(&e), now),
            None => self.settle(token, now),
        }
    }

    /// Flushes the connection, closes it when it is done, and re-arms
    /// epoll interest to match (write interest only while output is
    /// backlogged, read interest only until the peer's EOF, and not
    /// while a follower's queue has no room for the reply).
    fn settle(&mut self, token: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.flush().is_err() || conn.done() {
            self.close_conn(token, None, now);
            return;
        }
        let mut read = !conn.read_closed;
        if let (Peer::Follower(ship), Some((_, cfg))) = (&conn.peer, &self.ship) {
            read &= ShipSession::takes_requests(cfg, conn.unsent());
            if let Some(mut hub) = self.service.repl_hub() {
                hub.note_unsent(ship.peer(), conn.unsent());
            }
        }
        let want = (read, conn.unsent() > 0 || conn.connecting);
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
        let now = Instant::now();
        for token in std::mem::take(&mut self.held) {
            if let Some(Connection {
                peer: Peer::Client(session),
                wbuf,
                ..
            }) = self.conns.get_mut(&token)
            {
                session.release(&self.service, wbuf);
            }
            self.serve_conn(token, now);
        }
    }

    /// Runs replication after the pass's sync: every ship session sends
    /// what it may, and the follower link's timers fire.
    fn repl_pass(&mut self, now: Instant) {
        if let Some((_, cfg)) = &self.ship {
            for &token in &self.ship_tokens {
                if let Some(conn) = self.conns.get_mut(&token) {
                    if let Peer::Follower(ship) = &mut conn.peer {
                        conn.wbuf.drain(..conn.wpos);
                        conn.wpos = 0;
                        ship.pump(&self.service, cfg, &mut conn.wbuf, now);
                    }
                }
            }
            for token in self.ship_tokens.clone() {
                self.settle(token, now);
            }
        }
        let Some(link) = &mut self.link else {
            return;
        };
        match link.tick(&self.service, now) {
            Tick::Idle => {}
            Tick::Dial(addr) => self.dial(addr, now),
            Tick::Hangup => {
                if let Some(token) = self.link_token.take() {
                    self.close_conn(token, None, now);
                }
            }
            Tick::Refence => {
                let Some(token) = self.link_token else {
                    return;
                };
                if let Some(conn) = self.conns.get_mut(&token) {
                    link.fence(&self.service, &mut conn.wbuf);
                }
                self.settle(token, now);
            }
        }
    }

    /// Drops a connection. A follower leaves the hub's progress table;
    /// the follower link hears why its connection ended.
    fn close_conn(&mut self, token: u64, err: Option<&io::Error>, now: Instant) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        self.poller.delete(conn.stream.as_raw_fd());
        match conn.peer {
            Peer::Client(_) => {}
            Peer::Follower(ship) => {
                self.ship_tokens.retain(|&t| t != token);
                if let Some(mut hub) = self.service.repl_hub() {
                    hub.drop_follower(ship.peer());
                }
            }
            Peer::Leader => {
                if self.link_token == Some(token) {
                    self.link_token = None;
                    if let Some(link) = &mut self.link {
                        link.on_close(err, now);
                    }
                }
            }
        }
    }
}

/// Hands the whole replication messages in `rbuf` to `on_msg`, which
/// queues replies in `wbuf`, while `room(unsent)` says a reply would
/// fit. Sets `closing` when a message ends the session; returns the
/// error of a malformed message or a protocol violation.
fn take_msgs(
    rbuf: &mut Vec<u8>,
    wbuf: &mut Vec<u8>,
    closing: &mut bool,
    room: impl Fn(usize) -> bool,
    mut on_msg: impl FnMut(ReplMsg, &mut Vec<u8>) -> io::Result<Flow>,
) -> Option<io::Error> {
    let mut at = 0;
    let mut failed = None;
    while room(wbuf.len()) {
        match take_msg(rbuf, &mut at).and_then(|msg| msg.map(|m| on_msg(m, wbuf)).transpose()) {
            Ok(Some(Flow::Open)) => {}
            Ok(None) => break,
            Ok(Some(Flow::Close)) => {
                *closing = true;
                break;
            }
            Err(e) => {
                failed = Some(e);
                break;
            }
        }
    }
    rbuf.drain(..at);
    failed
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
        thread::JoinHandle<io::Result<AdmissionService>>,
    ) {
        let service = AdmissionService::new(Mesh::mesh2d(10, 10));
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
        // The reactor hands the service back: one admit, one remove.
        let service = join.join().unwrap().unwrap();
        assert_eq!((service.seq(), service.admitted_count()), (2, 0));
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
        let service = AdmissionService::new(Mesh::mesh2d(10, 10));
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

    #[test]
    fn a_follower_that_never_reads_costs_the_leader_at_most_the_cap() {
        use crate::chaos::{durable_service, json_u64};
        use crate::faultfs::{scratch_dir, RealFile};
        use crate::repl::proto::{write_msg, ReplMsg};
        use crate::repl::ship::MAX_UNSENT;
        use crate::repl::ReplHub;
        use crate::wal::{FsyncPolicy, WAL_FILE};

        let dir = scratch_dir("slow-follower");
        std::fs::create_dir_all(&dir).unwrap();
        let file = Box::new(RealFile::open(&dir.join(WAL_FILE)).unwrap());
        let policy = FsyncPolicy::Interval(Duration::from_millis(2));
        let mut service = durable_service(&Mesh::mesh2d(10, 10), &dir, policy, 0, file).unwrap();
        service.attach_repl(ReplHub::leader());
        let server = Server::bind(service, "127.0.0.1:0")
            .unwrap()
            .with_shipper(
                TcpListener::bind("127.0.0.1:0").unwrap(),
                ShipperConfig::default(),
            )
            .unwrap();
        let addr = server.local_addr().unwrap();
        let repl = server.repl_addr().unwrap();
        let handle = server.shutdown_handle().unwrap();
        let join = thread::spawn(move || server.run());

        // The "follower": says Hello, then never reads a byte. It stays
        // connected for the whole run.
        let mut follower = TcpStream::connect(repl).unwrap();
        write_msg(
            &mut follower,
            &ReplMsg::Hello {
                epoch: 1,
                applied_seq: 0,
            },
        )
        .unwrap();

        // At least 5000 admit/remove pairs, and on until the kernel's
        // socket buffers (megabytes on loopback) are full and the
        // session itself holds frames back.
        let mut c = Client::connect(&addr.to_string()).unwrap();
        let mut most_unsent = 0;
        let mut pairs = 0u64;
        while pairs < 5000 || most_unsent == 0 {
            assert!(pairs < 200_000, "the cap never came into play");
            let admitted = c.send("ADMIT 0,0 5,0 2 50 4").unwrap();
            let id = json_u64(&admitted, "id").expect("admitted");
            let removed = c.send(&format!("REMOVE {id}")).unwrap();
            assert!(removed.contains("\"status\":\"removed\""), "{removed}");
            pairs += 1;
            if pairs.is_multiple_of(250) {
                // Reads keep their round trip while the follower stalls.
                let query = c.send("QUERY 0").unwrap();
                assert!(query.contains("unknown_id"), "{query}");
                let stats = c.send("STATS").unwrap();
                let unsent = json_u64(&stats, "unsent_bytes").expect("follower listed");
                assert!(
                    unsent <= MAX_UNSENT as u64,
                    "{unsent} over the cap: {stats}"
                );
                most_unsent = most_unsent.max(unsent);
            }
        }
        drop(follower);
        handle.shutdown();
        let service = join.join().unwrap().unwrap();
        assert_eq!(service.seq(), 2 * pairs);
        drop(service);
        std::fs::remove_dir_all(&dir).ok();
    }
}
