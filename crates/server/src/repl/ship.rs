//! The leader side of replication: one session per connected follower,
//! run on the server's reactor.
//!
//! A `ShipSession` is a state machine over one non-blocking
//! connection; it owns no socket. The reactor hands it every whole
//! message the follower sent (`Hello`, `Ack`, `GetChunk`, `Fence`) in
//! `ShipSession::on_msg`, and at the end of every pass — and at the
//! session's heartbeat deadline — lets it ship in `ShipSession::pump`:
//! the WAL frames between the follower's cursor and the durable
//! frontier, a chunked snapshot transfer when the follower is behind the
//! compacted WAL base, and a heartbeat when the link has been quiet.
//! Both write into the connection's output buffer, which the reactor
//! drains as fast as the socket takes it.
//!
//! **A slow follower costs the leader at most [`MAX_UNSENT`] bytes.** A
//! session queues frames only while its unsent output is under that
//! cap, and the reactor reads a follower's next request only while its
//! reply would fit (`ShipSession::takes_requests`). A follower that
//! stops reading therefore stalls its own stream and nothing else: the
//! frames it has not been sent stay in the WAL file, and its cursor
//! resumes from there when its socket drains.
//!
//! The shipper never touches the group-commit internals: it reads the
//! WAL *file* with [`FrameIter`] and trusts
//! [`AdmissionService::ship_frontier`] for what is safe to publish. It
//! remembers where in the file its follower's next frame starts, and
//! reads from there no more bytes than the cap has room for, so a pass
//! costs what it ships, not the length of the log. A frame it cannot
//! parse yet (the interval flusher is still writing it) waits for the
//! next pass. During a
//! snapshot transfer the whole image is pinned in memory, so a
//! compaction replacing `snapshot.bin` mid-transfer cannot tear the
//! bytes being served.

use super::catchup::chunk_reply;
use super::proto::{ReplMsg, DEFAULT_CHUNK};
use crate::service::AdmissionService;
use crate::snapshot::{parse_snapshot, SNAPSHOT_FILE};
use crate::wal::{FrameIter, WAL_FILE};
use std::fs::{self, File};
use std::io::{self, ErrorKind, Read, Seek, SeekFrom};
use std::path::Path;
use std::time::{Duration, Instant};

/// Most bytes a ship session holds queued for a follower whose socket
/// has not taken them. A fixed bound, not a knob: it is what one slow
/// follower may cost the leader in memory.
pub const MAX_UNSENT: usize = 256 * 1024;

/// Room a reply needs beyond its payload: the length prefix, the tag
/// and the fixed fields of the largest message.
const HEADROOM: usize = 64;

/// Bytes of the WAL header: magic and base sequence.
const WAL_HEADER: usize = crate::wal::WAL_HEADER_BYTES as usize;

/// Knobs for the leader's ship sessions.
#[derive(Clone, Debug)]
pub struct ShipperConfig {
    /// Snapshot-transfer chunk size, bytes.
    pub chunk_size: u32,
    /// Heartbeat interval on a quiet link.
    pub heartbeat: Duration,
}

impl Default for ShipperConfig {
    /// 64 KiB chunks, 250 ms heartbeat.
    fn default() -> ShipperConfig {
        ShipperConfig {
            chunk_size: DEFAULT_CHUNK,
            heartbeat: Duration::from_millis(250),
        }
    }
}

/// Whether `len` more bytes may be queued behind `unsent` ones. An empty
/// queue takes any one message, so a message larger than the cap still
/// goes out, alone.
fn fits(unsent: usize, len: usize) -> bool {
    unsent == 0 || unsent + len <= MAX_UNSENT
}

/// What the reactor does with a session after a message.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Keep serving the follower.
    Open,
    /// Send what is queued, then close.
    Close,
}

/// One follower's session, leader side.
#[derive(Debug)]
pub(crate) struct ShipSession {
    peer: String,
    /// Where this follower is: `None` until its Hello arrives.
    cursor: Option<u64>,
    /// The snapshot image being transferred. Frame shipping pauses
    /// until the follower re-Hellos at the snapshot sequence.
    xfer: Option<Vec<u8>>,
    /// How far into the WAL file this session has read: the file's
    /// base sequence, and the byte offset where the frame after the
    /// given sequence starts. Stale once the base moves (a compaction)
    /// or the cursor is rewound behind it (a re-Hello).
    tail: Option<(u64, u64, u64)>,
    /// Last time anything went out; the heartbeat clock.
    last_beat: Instant,
}

impl ShipSession {
    /// A session for the follower at `peer`, connected at `now`.
    pub(crate) fn new(peer: String, now: Instant) -> ShipSession {
        ShipSession {
            peer,
            cursor: None,
            xfer: None,
            tail: None,
            last_beat: now,
        }
    }

    /// The follower's address (its key in the hub's progress table).
    pub(crate) fn peer(&self) -> &str {
        &self.peer
    }

    /// Whether the reply to the follower's next request would fit behind
    /// `unsent` queued bytes. The reactor reads on only while it would.
    pub(crate) fn takes_requests(cfg: &ShipperConfig, unsent: usize) -> bool {
        fits(unsent, cfg.chunk_size as usize + HEADROOM)
    }

    /// When the link needs a heartbeat if nothing else goes out.
    pub(crate) fn deadline(&self, cfg: &ShipperConfig) -> Instant {
        self.last_beat + cfg.heartbeat
    }

    /// Handles one message from the follower, queueing any reply in
    /// `out`. `Err` is a protocol violation; the reactor drops the
    /// connection.
    pub(crate) fn on_msg(
        &mut self,
        msg: ReplMsg,
        service: &AdmissionService,
        cfg: &ShipperConfig,
        out: &mut Vec<u8>,
    ) -> io::Result<Flow> {
        let (epoch, lease_ms) = {
            let hub = service.repl_hub().ok_or_else(|| {
                io::Error::new(ErrorKind::InvalidInput, "shipper without a replication hub")
            })?;
            (hub.epoch(), hub.lease_ms())
        };
        match msg {
            ReplMsg::Hello {
                epoch: peer_epoch,
                applied_seq,
            }
            | ReplMsg::Ack {
                epoch: peer_epoch,
                applied_seq,
            } if peer_epoch > epoch => {
                // A follower promoted past us: this leader is deposed.
                // Fence permanently (demote, audit the divergent
                // suffix) and drop the session.
                service.fence(peer_epoch, applied_seq, "");
                Ok(Flow::Close)
            }
            ReplMsg::Hello { applied_seq, .. } => {
                let welcome = ReplMsg::Welcome {
                    epoch,
                    base_seq: service.wal_base_seq().unwrap_or(0),
                    synced_seq: service.ship_frontier().unwrap_or(0),
                    lease_ms,
                };
                out.extend_from_slice(&welcome.encode());
                self.cursor = Some(applied_seq);
                self.xfer = None;
                if let Some(mut hub) = service.repl_hub() {
                    hub.note_follower(&self.peer, applied_seq);
                }
                Ok(Flow::Open)
            }
            ReplMsg::Ack { applied_seq, .. } => {
                // An ack is round-trip evidence: it feeds the leader's
                // write lease as well as the lag gauges.
                if let Some(mut hub) = service.repl_hub() {
                    hub.note_follower_ack(&self.peer, applied_seq);
                }
                Ok(Flow::Open)
            }
            ReplMsg::Fence {
                epoch: peer_epoch,
                applied_seq,
                addr,
            } => {
                // A promoted follower is fencing us explicitly. Confirm
                // delivery before dropping the session so the promoted
                // node's fence delivery can stop retrying.
                service.fence(peer_epoch, applied_seq, &addr);
                let confirm = ReplMsg::Heartbeat {
                    epoch: service.repl_hub().map_or(peer_epoch, |h| h.epoch()),
                    synced_seq: service.ship_frontier().unwrap_or(0),
                };
                out.extend_from_slice(&confirm.encode());
                Ok(Flow::Close)
            }
            ReplMsg::GetChunk { index } => {
                let image = self.xfer.as_deref().ok_or_else(|| {
                    io::Error::new(ErrorKind::InvalidData, "GetChunk without a transfer")
                })?;
                let reply = chunk_reply(image, cfg.chunk_size, index).ok_or_else(|| {
                    io::Error::new(
                        ErrorKind::InvalidData,
                        format!("GetChunk {index} out of range"),
                    )
                })?;
                out.extend_from_slice(&reply.encode());
                Ok(Flow::Open)
            }
            other => Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("unexpected {other:?} from a follower"),
            )),
        }
    }

    /// Ships what the follower may have now: WAL frames up to the
    /// durable frontier while they fit under [`MAX_UNSENT`], then a
    /// heartbeat if the link has been quiet for the configured interval.
    pub(crate) fn pump(
        &mut self,
        service: &AdmissionService,
        cfg: &ShipperConfig,
        out: &mut Vec<u8>,
        now: Instant,
    ) {
        let Some(epoch) = service.repl_hub().map(|h| h.epoch()) else {
            return;
        };
        let frontier = service.ship_frontier().unwrap_or(0);
        if let (Some(cur), None, Some(dir)) = (self.cursor, &self.xfer, service.wal_dir()) {
            if frontier > cur && fits(out.len(), HEADROOM) {
                if let Some(advanced) = self.ship(dir, cfg, epoch, cur, frontier, out) {
                    self.cursor = Some(advanced);
                    self.last_beat = now;
                }
            }
        }
        if now >= self.deadline(cfg) {
            // A follower that is not reading gets no heartbeat: the
            // queue it has not drained says as much. The clock restarts
            // either way, so the deadline never sits in the past.
            if fits(out.len(), HEADROOM) {
                let beat = ReplMsg::Heartbeat {
                    epoch,
                    synced_seq: frontier,
                };
                out.extend_from_slice(&beat.encode());
            }
            self.last_beat = now;
        }
    }

    /// Queues the frames in `(cur, frontier]` that fit, or opens a
    /// snapshot transfer when the WAL base has moved past `cur`. Returns
    /// the advanced cursor, or `None` when nothing went out (a frame the
    /// flusher is mid-way through writing is retried next pass).
    fn ship(
        &mut self,
        dir: &Path,
        cfg: &ShipperConfig,
        epoch: u64,
        cur: u64,
        frontier: u64,
        out: &mut Vec<u8>,
    ) -> Option<u64> {
        let mut file = File::open(dir.join(WAL_FILE)).ok()?;
        let mut header = [0u8; WAL_HEADER];
        file.read_exact(&mut header).ok()?;
        let base = FrameIter::new(&header).ok()?.base_seq();
        if base > cur {
            // The follower predates the compacted WAL: only a snapshot
            // can bring it forward. Pin the image and offer the
            // transfer; frames resume after the follower installs it
            // and re-Hellos.
            let image = fs::read(dir.join(SNAPSHOT_FILE)).ok()?;
            let data = parse_snapshot(&image).ok()?;
            let start = ReplMsg::SnapStart {
                snap_seq: data.seq,
                total_len: image.len() as u64,
                crc: crate::wal::crc32(&image),
                chunk_size: cfg.chunk_size,
            };
            out.extend_from_slice(&start.encode());
            self.xfer = Some(image);
            return Some(cur);
        }
        // Resume at the remembered frame boundary; anything else (a
        // new session, a rewound cursor, a compacted file) scans from
        // the first record.
        let (start, seq_before) = match self.tail {
            Some((b, at, seq)) if b == base && seq <= cur => (at, seq),
            _ => (WAL_HEADER as u64, base),
        };
        // A frame's wire form is larger than its WAL form, so what fits
        // under the cap is at most this many file bytes. (The largest
        // WAL record is a quarter of the cap, so an empty queue always
        // has room for the next one.)
        let room = MAX_UNSENT.saturating_sub(out.len());
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(start)).ok()?;
        file.take(room as u64).read_to_end(&mut bytes).ok()?;
        let mut advanced = cur;
        let (mut end, mut last) = (start, seq_before);
        for frame in FrameIter::tail(&bytes, seq_before) {
            if frame.seq > frontier {
                break;
            }
            if frame.seq > cur {
                let msg = ReplMsg::Frame {
                    seq: frame.seq,
                    epoch,
                    crc: frame.crc,
                    payload: frame.payload.to_vec(),
                }
                .encode();
                if !fits(out.len(), msg.len()) {
                    break;
                }
                out.extend_from_slice(&msg);
                advanced = frame.seq;
            }
            (end, last) = (start + frame.end(), frame.seq);
        }
        if end > start {
            self.tail = Some((base, end, last));
        }
        (advanced > cur).then_some(advanced)
    }
}
