//! The replication wire protocol: length-prefixed binary messages over
//! one TCP connection per follower.
//!
//! ## Framing
//!
//! ```text
//! len: u32 LE        (tag + body, 1..=MAX_BODY bytes)
//! tag: u8
//! body               (tag-specific, all integers u64/u32 LE)
//! ```
//!
//! ## Session shape
//!
//! The **follower** connects and sends [`ReplMsg::Hello`] with its
//! promotion epoch and the highest sequence it has applied. The
//! **leader** answers [`ReplMsg::Welcome`] and then either streams
//! [`ReplMsg::Frame`]s (WAL records, verbatim payload bytes plus their
//! CRC) starting after the follower's applied sequence, or — when the
//! follower is behind the leader's compacted WAL base — opens a
//! snapshot transfer with [`ReplMsg::SnapStart`], serving
//! [`ReplMsg::Chunk`]s on demand ([`ReplMsg::GetChunk`] is the only
//! follower-driven pull, which is what makes the transfer resumable:
//! the follower asks only for chunks its manifest lacks). After
//! installing the snapshot the follower re-sends `Hello` on the same
//! connection and streaming resumes from the snapshot sequence.
//! [`ReplMsg::Ack`] flows follower→leader after frames are applied
//! (and in response to heartbeats, which is what feeds the leader's
//! lease clock); [`ReplMsg::Heartbeat`] flows leader→follower when
//! there is nothing to ship, carrying the sync frontier so the
//! follower can gauge lag and leader liveness.
//!
//! Epoch rules: every post-handshake message is epoch-stamped. A
//! leader that learns of a greater epoch — from a `Hello`, an `Ack`,
//! or an explicit [`ReplMsg::Fence`] sent by a promoted follower —
//! has been superseded and permanently demotes (the service audits
//! its unshipped WAL suffix into a divergence report first); a
//! follower that receives a `Welcome` or `Frame` with an epoch below
//! its own is talking to a stale leader and disconnects. `Welcome`
//! also carries the leader's write lease so the follower can refuse
//! to run with a promotion grace that does not strictly exceed it.

use std::io::{self, Read, Write};

/// Magic carried in [`ReplMsg::Hello`]: protocol + version.
pub const REPL_MAGIC: &[u8; 8] = b"RTWCREP1";

/// Default snapshot-transfer chunk size (bytes).
pub const DEFAULT_CHUNK: u32 = 64 * 1024;

/// Hard cap on one message's tag+body, matching the text protocol's
/// line cap: a 1 MiB WAL payload or snapshot chunk plus headers.
pub const MAX_BODY: usize = (1024 * 1024) + 64;

const TAG_HELLO: u8 = 1;
const TAG_WELCOME: u8 = 2;
const TAG_FRAME: u8 = 3;
const TAG_ACK: u8 = 4;
const TAG_SNAP_START: u8 = 5;
const TAG_GET_CHUNK: u8 = 6;
const TAG_CHUNK: u8 = 7;
const TAG_HEARTBEAT: u8 = 8;
const TAG_FENCE: u8 = 9;

/// One replication message (see the module docs for the session
/// shape).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplMsg {
    /// Follower → leader: open (or re-open, after a snapshot install)
    /// a streaming session.
    Hello {
        /// The follower's promotion epoch.
        epoch: u64,
        /// Highest sequence the follower has applied; the leader
        /// streams strictly-greater frames.
        applied_seq: u64,
    },
    /// Leader → follower: handshake accepted.
    Welcome {
        /// The leader's promotion epoch.
        epoch: u64,
        /// The leader WAL's base sequence (below it only a snapshot
        /// transfer can help).
        base_seq: u64,
        /// The leader's current sync frontier.
        synced_seq: u64,
        /// The leader's write lease in milliseconds (0 = no lease).
        /// A follower must run with a promotion grace strictly above
        /// this, or refuse to auto-promote.
        lease_ms: u64,
    },
    /// Leader → follower: one WAL record.
    Frame {
        /// The record's operation sequence.
        seq: u64,
        /// The epoch the leader shipped this record under.
        epoch: u64,
        /// CRC32 of `payload`, recomputed by the follower.
        crc: u32,
        /// The WAL payload bytes, verbatim.
        payload: Vec<u8>,
    },
    /// Follower → leader: everything up to `applied_seq` is applied.
    /// Also sent in response to a heartbeat, so an idle leader keeps
    /// hearing its followers (the lease feed).
    Ack {
        /// The follower's promotion epoch.
        epoch: u64,
        /// Highest contiguously-applied sequence.
        applied_seq: u64,
    },
    /// Leader → follower: a snapshot transfer is required (the
    /// follower is behind the leader's WAL base).
    SnapStart {
        /// Sequence the snapshot captures (the follower's WAL resets
        /// here after install).
        snap_seq: u64,
        /// Total snapshot image length, bytes.
        total_len: u64,
        /// CRC32 of the whole image.
        crc: u32,
        /// Chunk size the leader will serve (last chunk may be short).
        chunk_size: u32,
    },
    /// Follower → leader: request chunk `index` of the open transfer.
    GetChunk {
        /// Zero-based chunk index.
        index: u64,
    },
    /// Leader → follower: one snapshot chunk.
    Chunk {
        /// Echoed chunk index.
        index: u64,
        /// CRC32 of `bytes`.
        crc: u32,
        /// The chunk payload.
        bytes: Vec<u8>,
    },
    /// Leader → follower: nothing to ship; carries the sync frontier.
    Heartbeat {
        /// The sender's promotion epoch.
        epoch: u64,
        /// The leader's current sync frontier.
        synced_seq: u64,
    },
    /// Promoted node → deposed leader: you have been superseded.
    /// The receiver permanently demotes, audits the WAL suffix past
    /// `applied_seq` as divergent, and redirects writes to `addr`.
    Fence {
        /// The sender's (higher) promotion epoch.
        epoch: u64,
        /// The highest sequence the sender applied from the old
        /// leader's stream — the last point the histories share.
        applied_seq: u64,
        /// Where the fenced node should redirect clients (may be
        /// empty when the new leader has no advertised address).
        addr: String,
    },
}

fn u64_at(b: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(b.get(at..at + 8)?.try_into().ok()?))
}

fn u32_at(b: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(b.get(at..at + 4)?.try_into().ok()?))
}

impl ReplMsg {
    /// Encodes the full wire image: length prefix, tag, body.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(32);
        match self {
            ReplMsg::Hello { epoch, applied_seq } => {
                body.push(TAG_HELLO);
                body.extend_from_slice(REPL_MAGIC);
                body.extend_from_slice(&epoch.to_le_bytes());
                body.extend_from_slice(&applied_seq.to_le_bytes());
            }
            ReplMsg::Welcome {
                epoch,
                base_seq,
                synced_seq,
                lease_ms,
            } => {
                body.push(TAG_WELCOME);
                body.extend_from_slice(&epoch.to_le_bytes());
                body.extend_from_slice(&base_seq.to_le_bytes());
                body.extend_from_slice(&synced_seq.to_le_bytes());
                body.extend_from_slice(&lease_ms.to_le_bytes());
            }
            ReplMsg::Frame {
                seq,
                epoch,
                crc,
                payload,
            } => {
                body.push(TAG_FRAME);
                body.extend_from_slice(&seq.to_le_bytes());
                body.extend_from_slice(&epoch.to_le_bytes());
                body.extend_from_slice(&crc.to_le_bytes());
                body.extend_from_slice(payload);
            }
            ReplMsg::Ack { epoch, applied_seq } => {
                body.push(TAG_ACK);
                body.extend_from_slice(&epoch.to_le_bytes());
                body.extend_from_slice(&applied_seq.to_le_bytes());
            }
            ReplMsg::SnapStart {
                snap_seq,
                total_len,
                crc,
                chunk_size,
            } => {
                body.push(TAG_SNAP_START);
                body.extend_from_slice(&snap_seq.to_le_bytes());
                body.extend_from_slice(&total_len.to_le_bytes());
                body.extend_from_slice(&crc.to_le_bytes());
                body.extend_from_slice(&chunk_size.to_le_bytes());
            }
            ReplMsg::GetChunk { index } => {
                body.push(TAG_GET_CHUNK);
                body.extend_from_slice(&index.to_le_bytes());
            }
            ReplMsg::Chunk { index, crc, bytes } => {
                body.push(TAG_CHUNK);
                body.extend_from_slice(&index.to_le_bytes());
                body.extend_from_slice(&crc.to_le_bytes());
                body.extend_from_slice(bytes);
            }
            ReplMsg::Heartbeat { epoch, synced_seq } => {
                body.push(TAG_HEARTBEAT);
                body.extend_from_slice(&epoch.to_le_bytes());
                body.extend_from_slice(&synced_seq.to_le_bytes());
            }
            ReplMsg::Fence {
                epoch,
                applied_seq,
                addr,
            } => {
                body.push(TAG_FENCE);
                body.extend_from_slice(&epoch.to_le_bytes());
                body.extend_from_slice(&applied_seq.to_le_bytes());
                body.extend_from_slice(addr.as_bytes());
            }
        }
        let mut out = Vec::with_capacity(4 + body.len());
        out.extend_from_slice(
            &u32::try_from(body.len())
                .expect("message fits u32")
                .to_le_bytes(),
        );
        out.extend_from_slice(&body);
        out
    }

    /// Decodes a tag+body image (the bytes after the length prefix).
    /// `None` on any malformed shape — replication input is a network
    /// peer, never trusted.
    pub fn decode(frame: &[u8]) -> Option<ReplMsg> {
        let (&tag, body) = frame.split_first()?;
        match tag {
            TAG_HELLO => {
                if body.len() != 24 || &body[..8] != REPL_MAGIC {
                    return None;
                }
                Some(ReplMsg::Hello {
                    epoch: u64_at(body, 8)?,
                    applied_seq: u64_at(body, 16)?,
                })
            }
            TAG_WELCOME => {
                if body.len() != 32 {
                    return None;
                }
                Some(ReplMsg::Welcome {
                    epoch: u64_at(body, 0)?,
                    base_seq: u64_at(body, 8)?,
                    synced_seq: u64_at(body, 16)?,
                    lease_ms: u64_at(body, 24)?,
                })
            }
            TAG_FRAME => {
                if body.len() < 20 {
                    return None;
                }
                Some(ReplMsg::Frame {
                    seq: u64_at(body, 0)?,
                    epoch: u64_at(body, 8)?,
                    crc: u32_at(body, 16)?,
                    payload: body[20..].to_vec(),
                })
            }
            TAG_ACK => {
                if body.len() != 16 {
                    return None;
                }
                Some(ReplMsg::Ack {
                    epoch: u64_at(body, 0)?,
                    applied_seq: u64_at(body, 8)?,
                })
            }
            TAG_SNAP_START => {
                if body.len() != 24 {
                    return None;
                }
                Some(ReplMsg::SnapStart {
                    snap_seq: u64_at(body, 0)?,
                    total_len: u64_at(body, 8)?,
                    crc: u32_at(body, 16)?,
                    chunk_size: u32_at(body, 20)?,
                })
            }
            TAG_GET_CHUNK => {
                if body.len() != 8 {
                    return None;
                }
                Some(ReplMsg::GetChunk {
                    index: u64_at(body, 0)?,
                })
            }
            TAG_CHUNK => {
                if body.len() < 12 {
                    return None;
                }
                Some(ReplMsg::Chunk {
                    index: u64_at(body, 0)?,
                    crc: u32_at(body, 8)?,
                    bytes: body[12..].to_vec(),
                })
            }
            TAG_HEARTBEAT => {
                if body.len() != 16 {
                    return None;
                }
                Some(ReplMsg::Heartbeat {
                    epoch: u64_at(body, 0)?,
                    synced_seq: u64_at(body, 8)?,
                })
            }
            TAG_FENCE => {
                if body.len() < 16 {
                    return None;
                }
                Some(ReplMsg::Fence {
                    epoch: u64_at(body, 0)?,
                    applied_seq: u64_at(body, 8)?,
                    addr: String::from_utf8(body[16..].to_vec()).ok()?,
                })
            }
            _ => None,
        }
    }
}

/// Cuts the next whole message off the front of `buf[*at..]`, the
/// receive buffer of a non-blocking connection, and advances `at` past
/// it. `Ok(None)` until the message's last byte has arrived; the errors
/// are [`read_msg`]'s `InvalidData` cases.
pub fn take_msg(buf: &[u8], at: &mut usize) -> io::Result<Option<ReplMsg>> {
    let rest = &buf[*at..];
    let Some(len4) = rest.get(..4) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(len4.try_into().expect("4 bytes")) as usize;
    if len == 0 || len > MAX_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("replication message length {len} out of range"),
        ));
    }
    let Some(frame) = rest.get(4..4 + len) else {
        return Ok(None);
    };
    let msg = ReplMsg::decode(frame).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "malformed replication message")
    })?;
    *at += 4 + len;
    Ok(Some(msg))
}

/// Writes one message to `w` (no flush; TCP streams here are
/// `TCP_NODELAY`).
pub fn write_msg(w: &mut impl Write, msg: &ReplMsg) -> io::Result<()> {
    w.write_all(&msg.encode())
}

/// Reads one message from `r`.
///
/// Errors are the peer's problem surface: `UnexpectedEof` on a closed
/// connection, `WouldBlock`/`TimedOut` under a read timeout (note that
/// a timeout firing *mid-message* desynchronizes the stream — callers
/// treat any subsequent `InvalidData` as a cue to reconnect), and
/// `InvalidData` for malformed or oversized frames.
pub fn read_msg(r: &mut impl Read) -> io::Result<ReplMsg> {
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let len = u32::from_le_bytes(len4) as usize;
    if len == 0 || len > MAX_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("replication message length {len} out of range"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    ReplMsg::decode(&buf)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed replication message"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: ReplMsg) {
        let wire = msg.encode();
        let mut cursor = io::Cursor::new(&wire);
        assert_eq!(read_msg(&mut cursor).unwrap(), msg);
        assert_eq!(cursor.position() as usize, wire.len(), "trailing bytes");
    }

    #[test]
    fn every_message_round_trips() {
        round_trip(ReplMsg::Hello {
            epoch: 3,
            applied_seq: 41,
        });
        round_trip(ReplMsg::Welcome {
            epoch: 3,
            base_seq: 16,
            synced_seq: 44,
            lease_ms: 500,
        });
        round_trip(ReplMsg::Frame {
            seq: 42,
            epoch: 3,
            crc: 0xdead_beef,
            payload: vec![1, 2, 3, 4, 5],
        });
        round_trip(ReplMsg::Ack {
            epoch: 3,
            applied_seq: 42,
        });
        round_trip(ReplMsg::SnapStart {
            snap_seq: 16,
            total_len: 100_000,
            crc: 7,
            chunk_size: 4096,
        });
        round_trip(ReplMsg::GetChunk { index: 9 });
        round_trip(ReplMsg::Chunk {
            index: 9,
            crc: 17,
            bytes: vec![0; 4096],
        });
        round_trip(ReplMsg::Heartbeat {
            epoch: 3,
            synced_seq: 44,
        });
        round_trip(ReplMsg::Fence {
            epoch: 4,
            applied_seq: 40,
            addr: "127.0.0.1:7077".to_string(),
        });
        round_trip(ReplMsg::Fence {
            epoch: 4,
            applied_seq: 40,
            addr: String::new(),
        });
    }

    #[test]
    fn take_msg_waits_for_the_last_byte_then_cuts_one_message() {
        let a = ReplMsg::Ack {
            epoch: 2,
            applied_seq: 9,
        };
        let b = ReplMsg::GetChunk { index: 4 };
        let mut wire = a.encode();
        wire.extend_from_slice(&b.encode());
        // Every strict prefix of the first message is incomplete.
        let first = a.encode().len();
        for cut in 0..first {
            let mut at = 0;
            assert_eq!(take_msg(&wire[..cut], &mut at).unwrap(), None, "{cut}");
            assert_eq!(at, 0);
        }
        let mut at = 0;
        assert_eq!(take_msg(&wire, &mut at).unwrap(), Some(a));
        assert_eq!(take_msg(&wire, &mut at).unwrap(), Some(b));
        assert_eq!((take_msg(&wire, &mut at).unwrap(), at), (None, wire.len()));
        // An out-of-range length is an error, not a wait.
        let big = (MAX_BODY as u32 + 1).to_le_bytes();
        assert!(take_msg(&big, &mut 0).is_err());
    }

    #[test]
    fn malformed_messages_are_rejected_not_panics() {
        // Bad magic in Hello.
        let mut hello = ReplMsg::Hello {
            epoch: 1,
            applied_seq: 2,
        }
        .encode();
        hello[5] ^= 0xff; // inside the magic
        assert!(read_msg(&mut io::Cursor::new(&hello)).is_err());

        // Unknown tag.
        let mut bogus = vec![0u8; 0];
        bogus.extend_from_slice(&9u32.to_le_bytes());
        bogus.push(200);
        bogus.extend_from_slice(&[0; 8]);
        assert!(read_msg(&mut io::Cursor::new(&bogus)).is_err());

        // Oversized length prefix.
        let big = (MAX_BODY as u32 + 1).to_le_bytes();
        assert!(read_msg(&mut io::Cursor::new(&big[..])).is_err());

        // Zero length.
        let zero = 0u32.to_le_bytes();
        assert!(read_msg(&mut io::Cursor::new(&zero[..])).is_err());

        // Truncated body.
        let frame = ReplMsg::Ack {
            epoch: 1,
            applied_seq: 5,
        }
        .encode();
        assert!(read_msg(&mut io::Cursor::new(&frame[..frame.len() - 2])).is_err());

        // Wrong body arity for a fixed-size message.
        let mut short = vec![];
        short.extend_from_slice(&2u32.to_le_bytes());
        short.push(4); // TAG_ACK with a 1-byte body
        short.push(9);
        assert!(read_msg(&mut io::Cursor::new(&short)).is_err());

        // A Fence whose address is not UTF-8.
        let mut fence = vec![];
        let body_len: u32 = 1 + 16 + 2;
        fence.extend_from_slice(&body_len.to_le_bytes());
        fence.push(9); // TAG_FENCE
        fence.extend_from_slice(&2u64.to_le_bytes());
        fence.extend_from_slice(&7u64.to_le_bytes());
        fence.extend_from_slice(&[0xff, 0xfe]);
        assert!(read_msg(&mut io::Cursor::new(&fence)).is_err());

        // A Fence too short to carry its fixed fields.
        let mut stub = vec![];
        stub.extend_from_slice(&9u32.to_le_bytes());
        stub.push(9); // TAG_FENCE with an 8-byte body
        stub.extend_from_slice(&2u64.to_le_bytes());
        assert!(read_msg(&mut io::Cursor::new(&stub)).is_err());
    }
}
