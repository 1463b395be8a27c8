//! The follower side of replication: the link to the leader, run on
//! the server's reactor, and the pre-service catch-up step.
//!
//! A follower runs an ordinary [`AdmissionService`] with a
//! [`crate::repl::ReplHub`] in follower mode attached: reads are
//! served locally and writes redirect to the leader. Its reactor also
//! drives a `FollowLink`: a state machine that dials the leader
//! without blocking, says `Hello`, and applies the leader's WAL frames
//! in sequence through [`AdmissionService::apply_replicated`], acking
//! after every batch it applied. Any anomaly — torn frame, sequence
//! gap, undecodable payload — drops the connection and redials after
//! the reconnect delay; the new `Hello` carries the applied sequence,
//! so the leader rewinds and duplicate deliveries land as idempotent
//! no-ops. When the leader stays silent past the promotion grace the
//! link promotes the node through the audited
//! [`AdmissionService::promote`] path, then dials the deposed leader
//! until a `Fence` is confirmed. Every wait is a deadline the reactor
//! folds into its poll timeout (`FollowLink::deadline`); nothing
//! sleeps.
//!
//! [`catch_up`] runs *before* the service is built: if the leader's
//! WAL has been compacted past the local state, the latest snapshot is
//! pulled (resumably — see [`super::catchup`]) and the local WAL is
//! reset to the snapshot sequence, so the normal recovery path then
//! reconstructs exactly the leader's state and streaming continues
//! from there.

use super::catchup::{fetch_snapshot, CatchupOpts, CatchupOutcome, TransferSpec};
use super::proto::{read_msg, write_msg, ReplMsg};
use super::ship::Flow;
use crate::faultfs::RealFile;
use crate::service::AdmissionService;
use crate::snapshot::load_snapshot;
use crate::wal::{crc32, decode_payload, FrameIter, FsyncPolicy, Wal, WAL_FILE};
use std::fs;
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::time::{Duration, Instant};

/// How long a dial may take to connect before it is abandoned.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Delay between a dropped connection and the next dial.
const RECONNECT_DELAY: Duration = Duration::from_millis(50);

/// How long a delivered `Fence` waits for its confirming heartbeat
/// before the deposed leader is dialed again.
const FENCE_CONFIRM: Duration = Duration::from_millis(500);

/// How often an unconfirmed `Fence` is sent again on the open
/// connection: a partition swallows what crosses it, and a healed link
/// should carry the fence within this long.
const FENCE_RESEND: Duration = Duration::from_millis(10);

/// The promotion-grace state machine: when the leader was last heard,
/// and whether the silence has lapsed the grace. Time comes in as an
/// argument, so the transitions are testable deterministically.
#[derive(Clone, Copy, Debug)]
pub struct GraceTimer {
    last_contact: Instant,
}

impl GraceTimer {
    /// A timer that treats `now` as the last contact.
    pub fn new(now: Instant) -> GraceTimer {
        GraceTimer { last_contact: now }
    }

    /// The leader was heard (frame, heartbeat, or handshake) at `now`:
    /// the grace window restarts.
    pub fn touch(&mut self, now: Instant) {
        self.last_contact = now;
    }

    /// When a silence of `grace` will have lapsed.
    pub fn deadline(&self, grace: Duration) -> Instant {
        self.last_contact + grace
    }

    /// Has the leader been silent for at least `grace` at `now`?
    pub fn lapsed(&self, now: Instant, grace: Duration) -> bool {
        now >= self.deadline(grace)
    }
}

/// Knobs for the follower's link to its leader.
#[derive(Clone, Debug)]
pub struct FollowerConfig {
    /// The leader's replication address (`--follower-of`).
    pub leader: String,
    /// Promote to leader after this much silence; `None` = never
    /// auto-promote (explicit `rtwc promote` only).
    pub promote_grace: Option<Duration>,
    /// This node's own client address, advertised in the `Fence` sent
    /// to a deposed leader so it can redirect writes here. Empty =
    /// nothing to advertise.
    pub advertise: String,
}

impl FollowerConfig {
    /// Defaults for `leader`: no auto-promotion, nothing to advertise.
    pub fn new(leader: &str) -> FollowerConfig {
        FollowerConfig {
            leader: leader.to_string(),
            promote_grace: None,
            advertise: String::new(),
        }
    }
}

/// Where the link is.
#[derive(Clone, Copy, Debug)]
enum Phase {
    /// No connection; dial at `at`.
    Waiting { at: Instant },
    /// Connected (or connecting) to the leader, streaming; `acked` is
    /// the applied sequence last acknowledged.
    Streaming { acked: u64 },
    /// Promoted: the `Fence` is out, sent again at `resend` (a
    /// partition may have swallowed it); redial unless confirmed by
    /// `by`.
    Fencing { resend: Instant, by: Instant },
    /// Nothing left to do: the deposed leader is fenced, the node was
    /// promoted by hand, or the configuration is unsafe to run.
    Done,
}

/// What the reactor must do after [`FollowLink::tick`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Tick {
    /// Nothing.
    Idle,
    /// Dial this address and register the connection with the link.
    Dial(SocketAddr),
    /// Drop the current connection (the link already moved on).
    Hangup,
    /// Queue [`FollowLink::fence`] on the current connection again.
    Refence,
}

/// The follower's link to its leader, as a state machine over one
/// connection at a time that the reactor owns. Timing is all
/// deadlines: the reactor calls [`FollowLink::tick`] every pass and
/// polls no longer than [`FollowLink::deadline`].
#[derive(Debug)]
pub(crate) struct FollowLink {
    cfg: FollowerConfig,
    /// The leader's address, resolved at the first dial that resolves:
    /// a name lookup blocks, so the reactor does it once, not per dial.
    addr: Option<SocketAddr>,
    grace: GraceTimer,
    phase: Phase,
    /// The current dial has not connected yet; abandon it at this
    /// instant.
    connect_by: Option<Instant>,
    /// Auto-promoted: dials now deliver the fence.
    promoted: bool,
}

impl FollowLink {
    /// A link that dials `cfg.leader` at once. Locally recovered
    /// history counts as applied: a follower whose catch-up snapshot
    /// already covers the leader's whole stream gets no frames at all,
    /// and the gauge would otherwise sit at zero (reporting a bogus
    /// lag) until the first new write.
    pub(crate) fn new(cfg: FollowerConfig, service: &AdmissionService, now: Instant) -> FollowLink {
        let seq = service.seq();
        if let Some(mut hub) = service.repl_hub() {
            hub.set_applied(seq);
        }
        FollowLink {
            cfg,
            addr: None,
            grace: GraceTimer::new(now),
            phase: Phase::Waiting { at: now },
            connect_by: None,
            promoted: false,
        }
    }

    /// The next instant [`FollowLink::tick`] has work at, if any.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        let phase = match self.phase {
            Phase::Waiting { at } => Some(at),
            Phase::Fencing { resend, by } => Some(resend.min(by)),
            Phase::Streaming { .. } | Phase::Done => None,
        };
        let grace = match (self.phase, self.cfg.promote_grace) {
            (Phase::Done, _) | (_, None) => None,
            _ if self.promoted => None,
            (_, Some(grace)) => Some(self.grace.deadline(grace)),
        };
        [phase, grace, self.connect_by].into_iter().flatten().min()
    }

    /// Runs the link's timers at `now`: dials when one is due, promotes
    /// after a silence past the grace, gives up on a dial that did not
    /// connect or a fence nobody confirmed.
    pub(crate) fn tick(&mut self, service: &AdmissionService, now: Instant) -> Tick {
        if matches!(self.phase, Phase::Done) {
            return Tick::Idle;
        }
        if !self.promoted && !service.is_follower() {
            // Promoted by hand (`PROMOTE`): stop following, fence
            // nobody.
            self.phase = Phase::Done;
            return Tick::Hangup;
        }
        if let Some(grace) = self.cfg.promote_grace {
            if !self.promoted && self.grace.lapsed(now, grace) {
                if let crate::protocol::Response::Promoted { epoch, .. } = service.promote() {
                    println!("promoted to leader (epoch {epoch}) after leader loss");
                    self.promoted = true;
                }
                // An audit refusal keeps following instead.
                self.grace.touch(now);
                self.connect_by = None;
                self.phase = Phase::Waiting { at: now };
                return Tick::Hangup;
            }
        }
        if self.connect_by.is_some_and(|by| now >= by) {
            return self.drop_link(now);
        }
        match self.phase {
            Phase::Waiting { at } if now >= at => {
                if let Some(addr) = self.addr.or_else(|| resolve(&self.cfg.leader).ok()) {
                    self.addr = Some(addr);
                    self.connect_by = Some(now + CONNECT_TIMEOUT);
                    Tick::Dial(addr)
                } else {
                    self.phase = Phase::Waiting {
                        at: now + RECONNECT_DELAY,
                    };
                    Tick::Idle
                }
            }
            Phase::Fencing { by, .. } if now >= by => self.drop_link(now),
            Phase::Fencing { resend, by } if now >= resend => {
                self.phase = Phase::Fencing {
                    resend: now + FENCE_RESEND,
                    by,
                };
                Tick::Refence
            }
            _ => Tick::Idle,
        }
    }

    /// Abandons the current connection; the next dial is a reconnect
    /// delay away.
    fn drop_link(&mut self, now: Instant) -> Tick {
        self.connect_by = None;
        self.phase = Phase::Waiting {
            at: now + RECONNECT_DELAY,
        };
        Tick::Hangup
    }

    /// The dial connected: queue the opening message — a `Hello` from
    /// the applied sequence, or, once promoted, the `Fence`.
    pub(crate) fn on_connected(
        &mut self,
        service: &AdmissionService,
        out: &mut Vec<u8>,
        now: Instant,
    ) {
        self.connect_by = None;
        if self.promoted {
            self.phase = Phase::Fencing {
                resend: now + FENCE_RESEND,
                by: now + FENCE_CONFIRM,
            };
            self.fence(service, out);
            return;
        }
        let local_seq = service.seq();
        let Some(mut hub) = service.repl_hub() else {
            return;
        };
        hub.set_applied(local_seq);
        self.phase = Phase::Streaming { acked: local_seq };
        let hello = ReplMsg::Hello {
            epoch: hub.epoch(),
            applied_seq: local_seq,
        };
        out.extend_from_slice(&hello.encode());
    }

    /// Queues the `Fence` for the deposed leader: our epoch, the last
    /// sequence we applied from it, and where its clients should go.
    pub(crate) fn fence(&self, service: &AdmissionService, out: &mut Vec<u8>) {
        let Some(hub) = service.repl_hub() else {
            return;
        };
        let fence = ReplMsg::Fence {
            epoch: hub.epoch(),
            applied_seq: hub.applied_seq(),
            addr: self.cfg.advertise.clone(),
        };
        out.extend_from_slice(&fence.encode());
    }

    /// The connection failed or closed: redial after the reconnect
    /// delay, or stop for good on an unsafe configuration.
    pub(crate) fn on_close(&mut self, err: Option<&io::Error>, now: Instant) {
        if matches!(self.phase, Phase::Done) {
            return;
        }
        if let Some(e) = err {
            if e.kind() == ErrorKind::InvalidInput {
                // The leader advertised a lease our grace does not
                // strictly exceed: promoting could overlap a live
                // lease and void the no-dual-ack guarantee. Refuse to
                // follow at all rather than follow unsafely.
                eprintln!("fatal: {e}");
                self.connect_by = None;
                self.phase = Phase::Done;
                return;
            }
            if std::env::var_os("RTWC_REPL_DEBUG").is_some() {
                eprintln!("follower session error: {e}");
            }
        }
        self.drop_link(now);
    }

    /// Handles one message from the leader, queueing any reply in `out`.
    /// `Err` drops the connection (see [`FollowLink::on_close`]).
    pub(crate) fn on_msg(
        &mut self,
        msg: ReplMsg,
        service: &AdmissionService,
        out: &mut Vec<u8>,
        now: Instant,
    ) -> io::Result<Flow> {
        if let Phase::Fencing { .. } = self.phase {
            // Confirmation is a heartbeat carrying an epoch at least
            // ours: the peer only echoes that epoch after processing the
            // fence. Anything else is ignored until the deadline — a
            // steady-state heartbeat still stamped with the old epoch
            // can cross a just-healed link while the fence bytes were
            // swallowed, and taking it as confirmation would lose the
            // fence forever.
            let epoch = service.repl_hub().map_or(0, |h| h.epoch());
            if let ReplMsg::Heartbeat { epoch: e, .. } = msg {
                if e >= epoch {
                    println!(
                        "fenced deposed leader at {} (epoch {epoch})",
                        self.cfg.leader
                    );
                    self.phase = Phase::Done;
                    return Ok(Flow::Close);
                }
            }
            return Ok(Flow::Open);
        }
        let mut hub = service
            .repl_hub()
            .ok_or_else(|| io::Error::other("follower without a replication hub"))?;
        let stale = |what: &str, epoch: u64, local: u64| {
            io::Error::other(format!("{what} from a stale epoch {epoch} (local {local})"))
        };
        match msg {
            ReplMsg::Welcome {
                epoch,
                synced_seq,
                lease_ms,
                ..
            } => {
                if epoch < hub.epoch() {
                    return Err(stale("welcome", epoch, hub.epoch()));
                }
                hub.observe_epoch(epoch);
                if let Some(grace) = self.cfg.promote_grace {
                    // The no-dual-ack argument needs the grace to
                    // strictly exceed the leader's lease; a violating
                    // pairing is fatal (see `on_close`) rather than
                    // silently unsafe.
                    let grace_ms = u64::try_from(grace.as_millis()).unwrap_or(u64::MAX);
                    if lease_ms > 0 && grace_ms <= lease_ms {
                        return Err(io::Error::new(
                            ErrorKind::InvalidInput,
                            format!(
                                "promotion grace {grace_ms}ms must strictly exceed the \
                                 leader's lease {lease_ms}ms"
                            ),
                        ));
                    }
                }
                hub.note_source_synced(synced_seq);
            }
            ReplMsg::Frame {
                seq,
                epoch,
                crc,
                payload,
            } => {
                if epoch < hub.epoch() {
                    return Err(stale("frame", epoch, hub.epoch()));
                }
                hub.observe_epoch(epoch);
                if crc32(&payload) != crc {
                    return Err(io::Error::new(
                        ErrorKind::InvalidData,
                        format!("torn replicated frame at seq {seq}"),
                    ));
                }
                let record = decode_payload(&payload).ok_or_else(|| {
                    io::Error::new(
                        ErrorKind::InvalidData,
                        format!("undecodable replicated frame at seq {seq}"),
                    )
                })?;
                drop(hub);
                service
                    .apply_replicated(seq, record.req_id, &record.op)
                    .map_err(io::Error::other)?;
            }
            ReplMsg::Heartbeat { epoch, synced_seq } => {
                if epoch < hub.epoch() {
                    return Err(stale("heartbeat", epoch, hub.epoch()));
                }
                hub.observe_epoch(epoch);
                hub.note_source_synced(synced_seq);
                // Echo an ack so an idle leader keeps hearing us: the
                // leader's write lease is fed only by acks (round-trip
                // evidence), and a quiet-but-healthy link must not
                // seal it.
                let applied = hub.applied_seq();
                let ack = ReplMsg::Ack {
                    epoch: hub.epoch(),
                    applied_seq: applied,
                };
                out.extend_from_slice(&ack.encode());
                self.phase = Phase::Streaming { acked: applied };
            }
            ReplMsg::SnapStart { .. } => {
                // Mid-run compaction past our applied sequence: the
                // in-memory state cannot absorb a snapshot. Surface it;
                // the operator restarts the follower, whose catch-up
                // step installs the image before the service is built.
                return Err(io::Error::other(
                    "leader compacted past local state; restart the follower to catch up",
                ));
            }
            other => {
                return Err(io::Error::new(
                    ErrorKind::InvalidData,
                    format!("unexpected {other:?} from the leader"),
                ))
            }
        }
        self.grace.touch(now);
        Ok(Flow::Open)
    }

    /// After a batch of messages: acknowledge what was applied, so the
    /// leader's lag gauges stay honest without an ack per frame.
    pub(crate) fn ack_applied(&mut self, service: &AdmissionService, out: &mut Vec<u8>) {
        let Phase::Streaming { acked } = self.phase else {
            return;
        };
        let Some(hub) = service.repl_hub() else {
            return;
        };
        let applied = hub.applied_seq();
        if applied > acked {
            let ack = ReplMsg::Ack {
                epoch: hub.epoch(),
                applied_seq: applied,
            };
            out.extend_from_slice(&ack.encode());
            self.phase = Phase::Streaming { acked: applied };
        }
    }
}

/// The first address `leader` resolves to.
fn resolve(leader: &str) -> io::Result<SocketAddr> {
    leader.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(
            ErrorKind::InvalidInput,
            "leader address resolves to nothing",
        )
    })
}

fn connect(leader: &str) -> io::Result<TcpStream> {
    TcpStream::connect_timeout(&resolve(leader)?, CONNECT_TIMEOUT)
}

/// The highest sequence the local durability directory can recover to
/// (snapshot sequence plus intact WAL tail), without building a
/// service. Zero for a fresh directory.
fn local_recoverable_seq(dir: &Path) -> u64 {
    let snap_seq = load_snapshot(dir).ok().flatten().map_or(0, |d| d.seq);
    let wal_seq = fs::read(dir.join(WAL_FILE))
        .ok()
        .and_then(|bytes| {
            let mut frames = FrameIter::new(&bytes).ok()?;
            let n = frames.by_ref().count() as u64;
            Some(frames.base_seq() + n)
        })
        .unwrap_or(0);
    snap_seq.max(wal_seq)
}

/// Pre-service catch-up: asks the leader whether the local state is
/// reachable by frames alone; if not (the leader's WAL base has moved
/// past it), pulls the leader's snapshot resumably and resets the
/// local WAL to its sequence. Run this *before* recovery so the
/// normal recover-and-audit path rebuilds exactly the leader's state.
///
/// Returns `Ok(None)` when no transfer was needed (including an
/// unreachable leader: the follower's link keeps redialing once the
/// server runs). The caller passes `fsync` so the reset WAL is
/// opened under the same policy the service will use.
pub fn catch_up(
    leader: &str,
    dir: &Path,
    fsync: FsyncPolicy,
    opts: &CatchupOpts,
) -> io::Result<Option<CatchupOutcome>> {
    let Ok(mut stream) = connect(leader) else {
        return Ok(None);
    };
    stream.set_nodelay(true)?;
    // Generous: catch-up is a startup step, not the steady-state loop.
    stream.set_read_timeout(Some(Duration::from_secs(1)))?;
    write_msg(
        &mut stream,
        &ReplMsg::Hello {
            epoch: 1,
            applied_seq: local_recoverable_seq(dir),
        },
    )?;
    match read_msg(&mut stream)? {
        ReplMsg::Welcome { .. } => {}
        other => {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("expected Welcome, got {other:?}"),
            ))
        }
    }
    // The leader now either streams frames (local state is reachable —
    // nothing to do here, the live session will apply them), stays
    // quiet until a heartbeat, or opens a snapshot transfer.
    let spec = match read_msg(&mut stream) {
        Ok(ReplMsg::SnapStart {
            snap_seq,
            total_len,
            crc,
            chunk_size,
        }) => TransferSpec {
            snap_seq,
            total_len,
            crc,
            chunk_size,
        },
        Ok(ReplMsg::Frame { .. } | ReplMsg::Heartbeat { .. }) => return Ok(None),
        Ok(other) => {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("unexpected {other:?} during catch-up"),
            ))
        }
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            return Ok(None)
        }
        Err(e) => return Err(e),
    };
    let outcome = fetch_snapshot(&mut stream, dir, &spec, opts)?;
    // The installed snapshot supersedes whatever the local WAL held;
    // recovery refuses a WAL whose base is behind the snapshot with a
    // gap to it, and the group-commit frontier math needs the base to
    // match. Reset it to continue exactly from the snapshot.
    let (mut wal, _) = Wal::open(Box::new(RealFile::open(&dir.join(WAL_FILE))?), fsync)?;
    wal.reset(outcome.snap_seq)?;
    Ok(Some(outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::Node;
    use crate::recovery::recover;
    use crate::repl::ship::ShipperConfig;
    use crate::repl::ReplHub;
    use crate::server::Server;
    use crate::service::{AdmissionService, Durability};
    use crate::snapshot::SNAPSHOT_FILE;
    use crate::wal::encode_payload;
    use crate::GroupWal;
    use std::net::TcpListener;
    use std::thread;
    use wormnet_topology::Mesh;

    fn mesh() -> Mesh {
        Mesh::mesh2d(8, 8)
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rtwc-follower-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn durable(dir: &Path, snapshot_every: u64) -> AdmissionService {
        let (state, wal, _) = recover(&mesh(), dir, FsyncPolicy::Always).unwrap();
        AdmissionService::with_durability(
            mesh(),
            state,
            Durability {
                dir: dir.to_path_buf(),
                wal: GroupWal::new(wal),
                snapshot_every,
            },
        )
    }

    /// Admits `n` streams on disjoint rows starting at `start`: the XY
    /// routes never share a link, so every admit succeeds.
    fn admit_n(node: &Node, start: u64, n: u64) {
        let mut c = node.client().unwrap();
        for k in 0..n {
            let row = start + k;
            assert!(row < 8, "rows exhausted");
            let r = c
                .send(&format!("@{} ADMIT 0,{row} 5,{row} 2 50 4", 100 + row))
                .unwrap();
            assert!(r.contains("\"status\":\"admitted\""), "{r}");
        }
    }

    fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if done() {
                return true;
            }
            thread::sleep(Duration::from_millis(10));
        }
        false
    }

    /// A follower node of `leader` over an in-memory service whose hub
    /// has seen `epoch`.
    fn standby(leader: &str, epoch: u64, cfg: FollowerConfig) -> Node {
        let mut service = AdmissionService::new(mesh());
        let mut hub = ReplHub::follower(leader);
        hub.observe_epoch(epoch);
        service.attach_repl(hub);
        let server = Server::bind(service, "127.0.0.1:0")
            .unwrap()
            .with_follower(cfg)
            .unwrap();
        Node::start(server).unwrap()
    }

    #[test]
    fn follower_applies_the_leaders_stream_live() {
        let dir = tmpdir("live");
        let leader = Node::leader(durable(&dir, 0), None, ShipperConfig::default()).unwrap();
        admit_n(&leader, 0, 3);

        let follower = standby(&leader.repl_addr, 1, FollowerConfig::new(&leader.repl_addr));
        assert!(
            wait_until(Duration::from_secs(10), || follower.gauge("applied_seq")
                >= 3),
            "follower never applied the backlog: {}",
            follower.stats()
        );
        // Live tail: new leader writes flow through the open session.
        admit_n(&leader, 3, 2);
        assert!(
            wait_until(Duration::from_secs(10), || follower.gauge("applied_seq")
                >= 5),
            "follower never applied the live tail: {}",
            follower.stats()
        );
        let standby = follower.stop().unwrap();
        let leader = leader.stop().unwrap();
        assert_eq!(standby.admitted_count(), leader.admitted_count());
        assert_eq!(standby.audit().unwrap(), 5);
        drop(leader);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_frame_tears_the_session_down_for_a_clean_reconnect() {
        // A hand-rolled "leader" that serves one corrupt frame on the
        // first connection and an honest stream on the second.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let spec = rtwc_core::StreamSpec::new(
            wormnet_topology::NodeId(0),
            wormnet_topology::NodeId(63),
            1,
            200,
            2,
            200,
        );
        let op = crate::service::AcceptedOp::Admit {
            handle: 0,
            spec: spec.clone(),
        };
        let payload = encode_payload(7, &op);
        let fake = thread::spawn(move || {
            for attempt in 0..2 {
                let (mut s, _) = listener.accept().unwrap();
                let hello = read_msg(&mut s).unwrap();
                assert!(matches!(hello, ReplMsg::Hello { .. }), "{hello:?}");
                write_msg(
                    &mut s,
                    &ReplMsg::Welcome {
                        epoch: 1,
                        base_seq: 0,
                        synced_seq: 1,
                        lease_ms: 0,
                    },
                )
                .unwrap();
                let crc = crc32(&payload);
                write_msg(
                    &mut s,
                    &ReplMsg::Frame {
                        seq: 1,
                        epoch: 1,
                        // First attempt lies about the checksum.
                        crc: if attempt == 0 { crc ^ 0xffff } else { crc },
                        payload: payload.clone(),
                    },
                )
                .unwrap();
                // Hold the socket open until the follower reacts.
                let _ = read_msg(&mut s);
            }
        });

        let addr = addr.to_string();
        let follower = standby(&addr, 1, FollowerConfig::new(&addr));
        assert!(
            wait_until(Duration::from_secs(10), || follower.gauge("applied_seq")
                >= 1),
            "the reconnect never delivered the honest frame"
        );
        assert_eq!(follower.gauge("streams"), 1);
        drop(follower.stop().unwrap());
        fake.join().unwrap();
    }

    #[test]
    fn deposed_leader_drops_a_follower_from_a_newer_epoch() {
        let dir = tmpdir("deposed");
        let leader = Node::leader(durable(&dir, 0), None, ShipperConfig::default()).unwrap();

        // A peer from promotion epoch 99 says hello: the stale leader
        // must drop the connection rather than stream to it.
        let mut s = TcpStream::connect(&leader.repl_addr).unwrap();
        write_msg(
            &mut s,
            &ReplMsg::Hello {
                epoch: 99,
                applied_seq: 0,
            },
        )
        .unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let err = read_msg(&mut s).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err:?}");
        assert_eq!(leader.gauge("fence_events"), 1, "{}", leader.stats());

        drop(leader.stop().unwrap());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn grace_timer_lapses_and_resets_deterministically() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut timer = GraceTimer::new(t0);
        let grace = Duration::from_millis(100);
        assert!(
            !timer.lapsed(at(0), grace),
            "fresh timer must not have lapsed"
        );
        assert!(!timer.lapsed(at(99), grace), "one ms short of the grace");
        assert!(timer.lapsed(at(100), grace), "exactly the grace lapses");
        assert_eq!(timer.deadline(grace), at(100));
        // A heartbeat resets the window in full.
        timer.touch(at(100));
        assert!(!timer.lapsed(at(100), grace));
        timer.touch(at(199)); // another heartbeat just in time
        assert!(
            !timer.lapsed(at(298), grace),
            "each contact restarts the window"
        );
        assert!(timer.lapsed(at(299), grace));
    }

    #[test]
    fn stale_leader_handshake_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let hello = read_msg(&mut s).unwrap();
            let ReplMsg::Hello { epoch, .. } = hello else {
                panic!("expected Hello, got {hello:?}");
            };
            assert_eq!(epoch, 5, "the follower must advertise its epoch");
            // This "leader" is from a deposed epoch: the follower must
            // hang up rather than apply anything it streams.
            write_msg(
                &mut s,
                &ReplMsg::Welcome {
                    epoch: 1,
                    base_seq: 0,
                    synced_seq: 9,
                    lease_ms: 0,
                },
            )
            .unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let err = read_msg(&mut s).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err:?}");
        });

        let addr = addr.to_string();
        let follower = standby(&addr, 5, FollowerConfig::new(&addr));
        fake.join().unwrap();
        let service = follower.stop().unwrap();
        assert_eq!(service.seq(), 0, "nothing from a stale leader applies");
    }

    #[test]
    fn unsafe_grace_versus_lease_refuses_to_promote() {
        // The leader advertises a 10 s lease; the follower's 50 ms
        // grace does not exceed it. An unchecked follower would
        // promote after 50 ms of silence — inside the lease, while the
        // leader still acks writes. The Welcome check must make this
        // pairing fatal instead.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _ = read_msg(&mut s).unwrap();
            write_msg(
                &mut s,
                &ReplMsg::Welcome {
                    epoch: 1,
                    base_seq: 0,
                    synced_seq: 0,
                    lease_ms: 10_000,
                },
            )
            .unwrap();
            // Go silent, holding the socket open past the grace.
            thread::sleep(Duration::from_millis(400));
        });

        let addr = addr.to_string();
        let mut cfg = FollowerConfig::new(&addr);
        cfg.promote_grace = Some(Duration::from_millis(50));
        let follower = standby(&addr, 1, cfg);
        thread::sleep(Duration::from_millis(300));
        let service = follower.stop().unwrap();
        let hub = service.repl_hub().unwrap();
        assert!(hub.is_follower(), "an unsafe grace must never promote");
        assert_eq!(hub.epoch(), 1);
        drop(hub);
        fake.join().unwrap();
    }

    #[test]
    fn catch_up_installs_the_snapshot_and_resets_the_wal() {
        let leader_dir = tmpdir("catchup-leader");
        let follower_dir = tmpdir("catchup-follower");
        // Leader compacts aggressively: after a few ops the WAL base
        // has moved and a fresh follower needs the snapshot.
        let leader = Node::leader(durable(&leader_dir, 2), None, ShipperConfig::default()).unwrap();
        admit_n(&leader, 0, 5);
        let base = || {
            let bytes = fs::read(leader_dir.join(WAL_FILE)).unwrap();
            FrameIter::new(&bytes).unwrap().base_seq()
        };
        assert!(
            base() > 0,
            "compaction never fired; the scenario needs a moved base"
        );

        let outcome = catch_up(
            &leader.repl_addr,
            &follower_dir,
            FsyncPolicy::Always,
            &CatchupOpts::default(),
        )
        .unwrap()
        .expect("a fresh follower behind a compacted WAL needs the snapshot");
        assert_eq!(outcome.snap_seq, base());
        // The local WAL now continues exactly from the snapshot.
        let bytes = fs::read(follower_dir.join(WAL_FILE)).unwrap();
        assert_eq!(FrameIter::new(&bytes).unwrap().base_seq(), outcome.snap_seq);
        assert!(follower_dir.join(SNAPSHOT_FILE).exists());

        // An up-to-date directory needs nothing on a second pass.
        assert_eq!(
            local_recoverable_seq(&follower_dir),
            outcome.snap_seq,
            "recoverable seq must reflect the installed snapshot"
        );

        drop(leader.stop().unwrap());
        fs::remove_dir_all(&leader_dir).ok();
        fs::remove_dir_all(&follower_dir).ok();
    }
}
