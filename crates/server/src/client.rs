//! The synchronous client: one request line out, one JSON line back —
//! now with per-request deadlines, typed errors, reconnect, bounded
//! exponential backoff with deterministic jitter, and idempotent
//! retries.
//!
//! ## Retry semantics
//!
//! [`Client::send`] is a single attempt under a deadline. After a
//! [`ClientError::Timeout`] the connection is in an unknown state (the
//! response may still arrive and desynchronize the stream), so the
//! retrying wrappers always reconnect before trying again.
//!
//! [`Client::send_with_retry`] retries transport failures, `busy`
//! shedding, and `sealed` sheds from a leader whose write lease lapsed
//! (transient by design: the lease re-arms on follower contact, or a
//! fence turns the next attempt into a `not_leader` redirect). For
//! `ADMIT`/`REMOVE` a blind resend could apply the
//! operation twice (the loss happened *after* the server acted), so
//! state-changing requests should go through
//! [`Client::send_idempotent`], which stamps an `@REQID` prefix the
//! server deduplicates — a retried admit whose first acknowledgement
//! was lost returns the original outcome instead of a second stream.

use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::thread;
use std::time::{Duration, Instant};

/// Client-side robustness knobs.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// TCP connect deadline.
    pub connect_timeout: Duration,
    /// Per-request response deadline.
    pub io_timeout: Duration,
    /// Additional attempts after the first (so `retries = 4` means at
    /// most 5 attempts).
    pub retries: u32,
    /// First backoff delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Seed for deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(5),
            retries: 4,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            jitter_seed: 0x5eed_c11e,
        }
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// A transport-level failure (connect, write, read).
    Io(io::Error),
    /// No complete response arrived within
    /// [`ClientConfig::io_timeout`].
    Timeout,
    /// The server closed the connection before responding.
    Disconnected,
    /// Every attempt failed; `last` describes the final failure.
    Exhausted {
        /// Attempts made (first try + retries).
        attempts: u32,
        /// Human-readable description of the last failure.
        last: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Timeout => write!(f, "request timed out"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempt(s): {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ClientError> for io::Error {
    fn from(e: ClientError) -> Self {
        match e {
            ClientError::Io(e) => e,
            other => io::Error::other(other.to_string()),
        }
    }
}

/// `splitmix64` — the workspace's stock deterministic generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Extracts `retry_after_ms` from a `busy` response line.
fn busy_retry_ms(reply: &str) -> Option<u64> {
    if !reply.contains("\"status\":\"busy\"") {
        return None;
    }
    let pat = "\"retry_after_ms\":";
    let start = reply.find(pat)? + pat.len();
    let rest = &reply[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// True for a `sealed` shed: the leader's write lease lapsed. The
/// condition is transient — the lease re-arms when follower contact
/// returns, or a fence redirects the next attempt — so the client
/// backs off and retries like `busy`.
fn is_sealed(reply: &str) -> bool {
    reply.contains("\"code\":\"sealed\"")
}

/// Extracts the leader address from a `not_leader` redirect ("not the
/// leader; leader is HOST:PORT"). `None` for any other response, or
/// when the follower does not know its leader.
fn not_leader_target(reply: &str) -> Option<String> {
    if !reply.contains("\"code\":\"not_leader\"") {
        return None;
    }
    let pat = "leader is ";
    let start = reply.find(pat)? + pat.len();
    let rest = &reply[start..];
    let end = rest.find('"').unwrap_or(rest.len());
    let addr = rest[..end].trim();
    if addr.is_empty() {
        None
    } else {
        Some(addr.to_string())
    }
}

/// How long a read blocks before re-checking the request deadline.
const CLIENT_READ_TICK: Duration = Duration::from_millis(50);

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A connected client. Each [`Client::send`] is a full round trip.
pub struct Client {
    addr: String,
    config: ClientConfig,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    jitter: u64,
}

impl Client {
    /// Connects to a running server at `addr` (`host:port`) with the
    /// default [`ClientConfig`].
    pub fn connect(addr: &str) -> io::Result<Client> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit robustness knobs.
    pub fn connect_with(addr: &str, config: ClientConfig) -> io::Result<Client> {
        let stream = Self::open(addr, &config)?;
        Ok(Client {
            addr: addr.to_string(),
            jitter: config.jitter_seed,
            config,
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn open(addr: &str, config: &ClientConfig) -> io::Result<TcpStream> {
        let mut last = io::Error::new(io::ErrorKind::InvalidInput, "no address resolved");
        for sockaddr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sockaddr, config.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(CLIENT_READ_TICK))?;
                    return Ok(stream);
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Drops the current connection and dials the same address again.
    pub fn reconnect(&mut self) -> io::Result<()> {
        let stream = Self::open(&self.addr, &self.config)?;
        self.reader = BufReader::new(stream.try_clone()?);
        self.writer = stream;
        Ok(())
    }

    /// Sends one request line and returns the response line (without
    /// the trailing newline). One attempt, bounded by
    /// [`ClientConfig::io_timeout`].
    pub fn send(&mut self, request: &str) -> Result<String, ClientError> {
        // One write per request: a separate newline write would sit in
        // Nagle's buffer waiting for the server's delayed ACK.
        let mut line = String::with_capacity(request.len() + 1);
        line.push_str(request);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.read_reply(Instant::now() + self.config.io_timeout)
    }

    /// Sends `requests` as one pipelined burst — a single TCP write,
    /// then the matching responses in request order. The server answers
    /// each connection in arrival order; pipelining amortizes
    /// the syscall and wake-up cost of a round trip over the window.
    /// The deadline covers the whole burst.
    pub fn send_pipelined(&mut self, requests: &[String]) -> Result<Vec<String>, ClientError> {
        let mut burst = String::with_capacity(requests.iter().map(|r| r.len() + 1).sum());
        for r in requests {
            burst.push_str(r);
            burst.push('\n');
        }
        self.writer.write_all(burst.as_bytes())?;
        let deadline = Instant::now() + self.config.io_timeout;
        let mut replies = Vec::with_capacity(requests.len());
        for _ in 0..requests.len() {
            replies.push(self.read_reply(deadline)?);
        }
        Ok(replies)
    }

    /// Reads one response line, ticking against `deadline`.
    fn read_reply(&mut self, deadline: Instant) -> Result<String, ClientError> {
        let mut reply = String::new();
        loop {
            match self.reader.read_line(&mut reply) {
                Ok(0) => return Err(ClientError::Disconnected),
                Ok(_) => break,
                Err(e) if is_timeout(&e) => {
                    if Instant::now() >= deadline {
                        return Err(ClientError::Timeout);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
        while reply.ends_with('\n') || reply.ends_with('\r') {
            reply.pop();
        }
        Ok(reply)
    }

    /// Backoff before retry `attempt` (1-based): exponential from
    /// [`ClientConfig::backoff_base`], capped, plus up to 50%
    /// deterministic jitter so synchronized clients do not stampede.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let base = self.config.backoff_base.as_millis() as u64;
        let cap = self.config.backoff_max.as_millis() as u64;
        let exp = base.saturating_mul(1u64 << attempt.min(16)).min(cap.max(1));
        let jitter = splitmix64(&mut self.jitter) % (exp / 2 + 1);
        Duration::from_millis(exp + jitter)
    }

    /// Sends with retries: transport failures and timeouts reconnect
    /// and back off; `busy` responses honor the server's
    /// `retry_after_ms` hint; `sealed` sheds (a leader whose write
    /// lease lapsed) back off and retry; `not_leader` redirects re-dial
    /// the leader the follower names. **Not** safe for `ADMIT`/`REMOVE` unless
    /// the line carries an `@REQID` prefix — use
    /// [`Client::send_idempotent`] for those.
    pub fn send_with_retry(&mut self, request: &str) -> Result<String, ClientError> {
        let mut last = String::new();
        for attempt in 0..=self.config.retries {
            if attempt > 0 {
                thread::sleep(self.backoff(attempt));
                // The previous failure may have poisoned the stream.
                if let Err(e) = self.reconnect() {
                    last = format!("reconnect failed: {e}");
                    continue;
                }
            }
            match self.send(request) {
                Ok(reply) => {
                    if let Some(ms) = busy_retry_ms(&reply) {
                        last = format!("server busy (retry_after_ms={ms})");
                        thread::sleep(Duration::from_millis(ms));
                        continue;
                    }
                    // A sealed leader sheds writes only while its lease
                    // is lapsed; back off and retry — by then either
                    // the lease re-armed or a fence turned this into a
                    // `not_leader` redirect.
                    if is_sealed(&reply) {
                        last = "leader sealed (write lease lapsed)".to_string();
                        continue;
                    }
                    // A follower redirects writes: chase the leader
                    // (the next attempt reconnects to the new address).
                    // With an `@REQID` prefix this is exactly-once
                    // across a failover — the promoted leader replays
                    // the original outcome from the replicated dedup
                    // window.
                    match not_leader_target(&reply) {
                        Some(target) if target != self.addr => {
                            last = format!("redirected to leader {target}");
                            self.addr = target;
                        }
                        _ => return Ok(reply),
                    }
                }
                Err(ClientError::Io(e)) => last = format!("i/o error: {e}"),
                Err(ClientError::Timeout) => last = "timeout".to_string(),
                Err(ClientError::Disconnected) => last = "disconnected".to_string(),
                Err(e @ ClientError::Exhausted { .. }) => return Err(e),
            }
        }
        Err(ClientError::Exhausted {
            attempts: self.config.retries + 1,
            last,
        })
    }

    /// Sends a state-changing request with retries, stamped with the
    /// idempotency id `req_id` (nonzero): the server replays the
    /// original outcome for a duplicate id, so a retry after a lost
    /// acknowledgement cannot double-admit.
    pub fn send_idempotent(&mut self, req_id: u64, request: &str) -> Result<String, ClientError> {
        debug_assert_ne!(req_id, 0, "0 means 'no request id' on the wire");
        let line = format!("@{req_id} {request}");
        self.send_with_retry(&line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_hint_extraction() {
        assert_eq!(
            busy_retry_ms("{\"status\":\"busy\",\"retry_after_ms\":25}"),
            Some(25)
        );
        assert_eq!(busy_retry_ms("{\"status\":\"ok\"}"), None);
    }

    #[test]
    fn sealed_sheds_are_recognized_as_retryable() {
        assert!(is_sealed(
            "{\"status\":\"error\",\"code\":\"sealed\",\
             \"message\":\"write lease lapsed; retry\"}"
        ));
        assert!(!is_sealed("{\"status\":\"ok\"}"));
        assert!(!is_sealed(
            "{\"status\":\"error\",\"code\":\"not_leader\",\
             \"message\":\"not the leader; leader is 10.0.0.1:7000\"}"
        ));
    }

    #[test]
    fn backoff_grows_and_stays_bounded() {
        // No live connection needed: drive the schedule math directly.
        let config = ClientConfig::default();
        let base = config.backoff_base.as_millis() as u64;
        let cap = config.backoff_max.as_millis() as u64;
        let mut jitter = config.jitter_seed;
        let mut prev_exp = 0;
        for attempt in 1..=10u32 {
            let exp = base.saturating_mul(1u64 << attempt.min(16)).min(cap);
            let j = splitmix64(&mut jitter) % (exp / 2 + 1);
            assert!(exp >= prev_exp, "monotone until the cap");
            assert!(exp + j <= cap + cap / 2, "cap plus at most 50% jitter");
            prev_exp = exp;
        }
    }

    #[test]
    fn not_leader_target_extraction() {
        assert_eq!(
            not_leader_target(
                "{\"status\":\"error\",\"code\":\"not_leader\",\
                 \"message\":\"not the leader; leader is 10.0.0.1:7000\"}"
            ),
            Some("10.0.0.1:7000".to_string())
        );
        // A follower that does not know its leader: no redirect loop.
        assert_eq!(
            not_leader_target(
                "{\"status\":\"error\",\"code\":\"not_leader\",\
                 \"message\":\"not the leader; leader is \"}"
            ),
            None
        );
        assert_eq!(not_leader_target("{\"status\":\"ok\"}"), None);
    }

    #[test]
    fn write_to_a_follower_chases_the_redirect_to_the_leader() {
        use crate::repl::ReplHub;
        use crate::server::Server;
        use crate::service::AdmissionService;
        use wormnet_topology::Mesh;

        let mut leader = AdmissionService::new(Mesh::mesh2d(10, 10));
        leader.attach_repl(ReplHub::leader());
        let leader_srv = Server::bind(leader, "127.0.0.1:0").unwrap();
        let leader_addr = leader_srv.local_addr().unwrap().to_string();
        let leader_stop = leader_srv.shutdown_handle().unwrap();
        let leader_join = thread::spawn(move || leader_srv.run());

        let mut follower = AdmissionService::new(Mesh::mesh2d(10, 10));
        follower.attach_repl(ReplHub::follower(&leader_addr));
        let follower_srv = Server::bind(follower, "127.0.0.1:0").unwrap();
        let follower_addr = follower_srv.local_addr().unwrap().to_string();
        let follower_stop = follower_srv.shutdown_handle().unwrap();
        let follower_join = thread::spawn(move || follower_srv.run());

        // The client dials the follower; the write lands on the leader.
        let mut client = Client::connect(&follower_addr).unwrap();
        let reply = client.send_idempotent(7, "ADMIT 0,0 5,0 2 50 4").unwrap();
        assert!(reply.contains("\"status\":\"admitted\""), "{reply}");

        leader_stop.shutdown();
        follower_stop.shutdown();
        let leader = leader_join.join().unwrap().unwrap();
        let follower = follower_join.join().unwrap().unwrap();
        assert_eq!(leader.admitted_count(), 1);
        assert_eq!(follower.admitted_count(), 0);
    }

    #[test]
    fn connect_to_nowhere_fails_fast() {
        // Port 1 on loopback: connection refused, well under the
        // connect timeout.
        let started = Instant::now();
        assert!(Client::connect("127.0.0.1:1").is_err());
        assert!(started.elapsed() < Duration::from_secs(5));
    }
}
