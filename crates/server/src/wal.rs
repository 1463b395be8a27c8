//! The write-ahead log: every accepted operation is framed, checksummed
//! and persisted **before** the client sees the acknowledgement.
//!
//! ## File format
//!
//! ```text
//! header:  "RTWCWAL1" (8 bytes)  base_seq: u64 LE (8 bytes)
//! record:  len: u32 LE  crc32(payload): u32 LE  payload
//! payload: req_id: u64 LE  tag: u8 (1=admit, 2=remove)  handle: u64 LE
//!          [StreamSpec wire bytes, admit only]
//! ```
//!
//! `base_seq` is the number of accepted operations already captured by
//! the snapshot the log continues from; record `i` of the file is
//! operation `base_seq + i + 1` of the service's history. A `req_id` of
//! zero means the client supplied none.
//!
//! ## Crash discipline
//!
//! Records go to the file with a single write; a failed write **rolls
//! the tail back** to the end of the last intact record, and if even
//! the rollback fails the log marks itself broken and the service
//! degrades to read-only. `Wal` never syncs on its own: when records
//! are synced, and what a failed sync rolls back, is the fsync
//! policy's business, which [`crate::group_commit::GroupWal`] runs.
//! [`Wal::open`] scans the whole file, verifies every CRC, and
//! truncates a torn tail (a partial final record from a crash) — the
//! surviving prefix is exactly the acknowledged history.

use crate::faultfs::WalFile;
use crate::service::AcceptedOp;
use rtwc_core::StreamSpec;
use std::io;
use std::time::Duration;

/// File-name of the log inside a `--wal-dir`.
pub const WAL_FILE: &str = "wal.log";

const MAGIC: &[u8; 8] = b"RTWCWAL1";
/// Header bytes: magic + `base_seq`.
pub const WAL_HEADER_BYTES: u64 = 16;
/// Sanity cap on a record payload; anything larger is tail corruption.
const MAX_PAYLOAD: u32 = 1 << 16;

const TAG_ADMIT: u8 = 1;
const TAG_REMOVE: u8 = 2;

/// When `fsync` runs relative to the acknowledgement. Under every
/// policy a record is written to the file before its acknowledgement
/// leaves, so a killed process loses no acknowledged op; the policy
/// decides what a power loss may take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync every record before acking: no acked op is ever lost.
    Always,
    /// Sync at most once per interval: a power loss takes at most the
    /// last interval, at near in-memory throughput.
    Interval(Duration),
    /// Never sync explicitly: the OS page cache decides.
    Never,
}

impl FsyncPolicy {
    /// Parses `always`, `never`, or `interval:MS`.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => match other.strip_prefix("interval:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(|ms| FsyncPolicy::Interval(Duration::from_millis(ms)))
                    .map_err(|_| format!("bad fsync interval '{ms}'")),
                None => Err(format!(
                    "unknown fsync policy '{other}' (always|interval:MS|never)"
                )),
            },
        }
    }

    /// Stable name for reports (`always`, `interval:50`, `never`).
    pub fn label(&self) -> String {
        match self {
            FsyncPolicy::Always => "always".to_string(),
            FsyncPolicy::Interval(d) => format!("interval:{}", d.as_millis()),
            FsyncPolicy::Never => "never".to_string(),
        }
    }
}

/// One decoded log record: the accepted operation plus the client's
/// idempotency id (0 = none).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Client-supplied request id, 0 when absent.
    pub req_id: u64,
    /// The operation.
    pub op: AcceptedOp,
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = !0u32;
    for &b in bytes {
        c = TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// Encodes a record payload (no framing).
pub fn encode_payload(req_id: u64, op: &AcceptedOp) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 1 + 8 + StreamSpec::WIRE_BYTES);
    payload_into(&mut out, req_id, op);
    out
}

/// Appends one framed record (length, CRC, payload) to `out`.
pub fn encode_record(out: &mut Vec<u8>, req_id: u64, op: &AcceptedOp) {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    payload_into(out, req_id, op);
    let len = (out.len() - start - 8) as u32;
    let crc = crc32(&out[start + 8..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

fn payload_into(out: &mut Vec<u8>, req_id: u64, op: &AcceptedOp) {
    out.extend_from_slice(&req_id.to_le_bytes());
    match op {
        AcceptedOp::Admit { handle, spec } => {
            out.push(TAG_ADMIT);
            out.extend_from_slice(&handle.to_le_bytes());
            spec.encode_to(out);
        }
        AcceptedOp::Remove { handle } => {
            out.push(TAG_REMOVE);
            out.extend_from_slice(&handle.to_le_bytes());
        }
    }
}

/// Decodes a record payload; `None` on any structural mismatch.
pub fn decode_payload(buf: &[u8]) -> Option<WalRecord> {
    if buf.len() < 17 {
        return None;
    }
    let req_id = u64::from_le_bytes(buf[0..8].try_into().ok()?);
    let tag = buf[8];
    let handle = u64::from_le_bytes(buf[9..17].try_into().ok()?);
    let op = match tag {
        TAG_ADMIT => {
            let spec = StreamSpec::decode(&buf[17..])?;
            if buf.len() != 17 + StreamSpec::WIRE_BYTES {
                return None;
            }
            AcceptedOp::Admit { handle, spec }
        }
        TAG_REMOVE => {
            if buf.len() != 17 {
                return None;
            }
            AcceptedOp::Remove { handle }
        }
        _ => return None,
    };
    Some(WalRecord { req_id, op })
}

/// One intact frame of a WAL file, borrowed from the raw bytes.
///
/// `seq` is the service's operation sequence number **after** this
/// frame is applied (record `i` of a file with base `b` has seq
/// `b + i + 1`), matching [`Wal::seq`]'s "next append" convention: a
/// replica whose applied seq is `n` needs exactly the frames with
/// `seq > n`.
#[derive(Clone, Copy, Debug)]
pub struct Frame<'a> {
    /// Byte offset of the frame's length prefix within the file.
    pub offset: u64,
    /// Operation sequence number after applying this frame.
    pub seq: u64,
    /// CRC-32 of the payload, as stored in the frame header.
    pub crc: u32,
    /// The raw record payload (see [`decode_payload`]).
    pub payload: &'a [u8],
}

impl Frame<'_> {
    /// Byte offset one past this frame — where the next frame starts.
    pub fn end(&self) -> u64 {
        self.offset + 8 + self.payload.len() as u64
    }
}

/// Iterator over the intact frames of a raw WAL image, shared by
/// recovery ([`Wal::open`]) and the replication shipper so there is a
/// single frame parser. Stops at the first torn or corrupt frame;
/// [`FrameIter::offset`] then points at the byte where the intact
/// prefix ends (the truncation point for recovery, or the resume point
/// for a shipper waiting on more durable bytes).
#[derive(Debug)]
pub struct FrameIter<'a> {
    bytes: &'a [u8],
    at: usize,
    base_seq: u64,
    yielded: u64,
}

impl<'a> FrameIter<'a> {
    /// Parses the `RTWCWAL1` header and positions the iterator at the
    /// first record. Errors if the header is short or the magic is
    /// wrong.
    pub fn new(bytes: &'a [u8]) -> io::Result<FrameIter<'a>> {
        if bytes.len() < WAL_HEADER_BYTES as usize || &bytes[..8] != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "WAL header is corrupt (bad magic or short file)",
            ));
        }
        let base_seq = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        Ok(FrameIter {
            bytes,
            at: WAL_HEADER_BYTES as usize,
            base_seq,
            yielded: 0,
        })
    }

    /// Iterates the frames of `bytes`, a stretch of a WAL file read
    /// from a frame boundary, numbering the first one `seq_before + 1`.
    /// Offsets are relative to `bytes`.
    pub fn tail(bytes: &'a [u8], seq_before: u64) -> FrameIter<'a> {
        FrameIter {
            bytes,
            at: 0,
            base_seq: seq_before,
            yielded: 0,
        }
    }

    /// The snapshot sequence number the file continues from.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// Byte offset of the next frame to parse — after exhaustion, one
    /// past the last intact frame.
    pub fn offset(&self) -> u64 {
        self.at as u64
    }
}

impl<'a> Iterator for FrameIter<'a> {
    type Item = Frame<'a>;

    fn next(&mut self) -> Option<Frame<'a>> {
        let end = parse_frame(self.bytes, self.at)?;
        let frame = Frame {
            offset: self.at as u64,
            seq: self.base_seq + self.yielded + 1,
            crc: u32::from_le_bytes(
                self.bytes[self.at + 4..self.at + 8]
                    .try_into()
                    .expect("4 bytes"),
            ),
            payload: &self.bytes[self.at + 8..end],
        };
        self.at = end;
        self.yielded += 1;
        Some(frame)
    }
}

/// What [`Wal::open`] found in an existing file.
#[derive(Debug)]
pub struct WalOpen {
    /// Every intact record, in append order.
    pub records: Vec<WalRecord>,
    /// The snapshot sequence number the log continues from.
    pub base_seq: u64,
    /// Torn-tail bytes discarded (0 on a clean file).
    pub truncated_bytes: u64,
}

/// An open write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: Box<dyn WalFile>,
    /// The policy the log was opened under, for [`crate::GroupWal::new`]
    /// to run; `Wal` itself never syncs unasked.
    policy: FsyncPolicy,
    base_seq: u64,
    records: u64,
    /// Byte offset one past the last intact record.
    end: u64,
    broken: bool,
}

impl Wal {
    /// Opens (or initializes) a log over `file`. Scans every record,
    /// verifies CRCs, and truncates a torn tail; the surviving records
    /// are returned for replay.
    pub fn open(mut file: Box<dyn WalFile>, policy: FsyncPolicy) -> io::Result<(Wal, WalOpen)> {
        let bytes = file.read_all()?;
        if bytes.is_empty() {
            // Fresh log: write the header for base_seq 0.
            let mut header = Vec::with_capacity(WAL_HEADER_BYTES as usize);
            header.extend_from_slice(MAGIC);
            header.extend_from_slice(&0u64.to_le_bytes());
            file.append(&header)?;
            file.sync()?;
            let wal = Wal {
                file,
                policy,
                base_seq: 0,
                records: 0,
                end: WAL_HEADER_BYTES,
                broken: false,
            };
            return Ok((
                wal,
                WalOpen {
                    records: Vec::new(),
                    base_seq: 0,
                    truncated_bytes: 0,
                },
            ));
        }
        let mut frames = FrameIter::new(&bytes)?;
        let base_seq = frames.base_seq();
        let mut records = Vec::new();
        let mut at = WAL_HEADER_BYTES as usize;
        // Scan until the first frame that does not parse; everything
        // after it is a torn tail from a crash mid-append.
        for f in &mut frames {
            let Some(record) = decode_payload(f.payload) else {
                break;
            };
            records.push(record);
            at = f.end() as usize;
        }
        let truncated = (bytes.len() - at) as u64;
        if truncated > 0 {
            file.truncate(at as u64)?;
            file.sync()?;
        }
        let wal = Wal {
            file,
            policy,
            base_seq,
            records: records.len() as u64,
            end: at as u64,
            broken: false,
        };
        Ok((
            wal,
            WalOpen {
                records,
                base_seq,
                truncated_bytes: truncated,
            },
        ))
    }

    /// The operation sequence number the *next* append will get.
    pub fn seq(&self) -> u64 {
        self.base_seq + self.records
    }

    /// Records currently in the file (after `base_seq`).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// True once an append/sync error could not be rolled back; the
    /// log must not be appended to again.
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// The fsync policy the log was opened under.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Appends one accepted operation with one write, without syncing.
    /// On error the tail is rolled back so the record is gone, and the
    /// error is returned — the caller must not acknowledge the
    /// operation. A rollback failure poisons the log
    /// ([`Wal::is_broken`]).
    pub fn append(&mut self, req_id: u64, op: &AcceptedOp) -> io::Result<()> {
        let mut framed = Vec::with_capacity(8 + 17 + StreamSpec::WIRE_BYTES);
        encode_record(&mut framed, req_id, op);
        self.write_records(&framed, 1)
    }

    /// Writes `records` records already framed by [`encode_record`]
    /// into `frames`, with one write and without syncing. Same rollback
    /// contract as [`Wal::append`].
    pub fn write_records(&mut self, frames: &[u8], records: u64) -> io::Result<()> {
        if self.broken {
            return Err(io::Error::other("WAL is broken (earlier device error)"));
        }
        if let Err(e) = self.file.append(frames) {
            if self.file.truncate(self.end).is_err() {
                self.broken = true;
            }
            return Err(e);
        }
        self.end += frames.len() as u64;
        self.records += records;
        Ok(())
    }

    /// Byte offset one past the last intact record.
    pub fn end_offset(&self) -> u64 {
        self.end
    }

    /// Rolls the log back to a previously observed
    /// `(end_offset, records)` point, discarding every record after it
    /// — the `--fsync always` rollback when a group sync fails, so no
    /// unacknowledged record survives into recovery. A truncate failure
    /// poisons the log.
    pub fn truncate_to(&mut self, end: u64, records: u64) -> io::Result<()> {
        if let Err(e) = self.file.truncate(end) {
            self.broken = true;
            return Err(e);
        }
        self.end = end;
        self.records = records;
        Ok(())
    }

    /// Syncs what has been written (`fdatasync`).
    pub fn sync_now(&mut self) -> io::Result<()> {
        if self.broken {
            return Err(io::Error::other("WAL is broken (earlier device error)"));
        }
        self.file.sync()
    }

    /// A second handle onto the log's file, for a thread that only
    /// syncs ([`WalFile::try_clone`]).
    pub fn try_clone_file(&self) -> io::Result<Box<dyn WalFile>> {
        self.file.try_clone()
    }

    /// Restarts the log after a snapshot at sequence `base_seq`: the
    /// file is truncated to an empty record list with the new header.
    pub fn reset(&mut self, base_seq: u64) -> io::Result<()> {
        if self.broken {
            return Err(io::Error::other("WAL is broken (earlier device error)"));
        }
        self.file.truncate(0)?;
        let mut header = Vec::with_capacity(WAL_HEADER_BYTES as usize);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&base_seq.to_le_bytes());
        self.file.append(&header)?;
        self.file.sync()?;
        self.base_seq = base_seq;
        self.records = 0;
        self.end = WAL_HEADER_BYTES;
        Ok(())
    }
}

/// Returns the end offset of the frame starting at `at`, if the frame
/// is complete and its CRC verifies.
fn parse_frame(bytes: &[u8], at: usize) -> Option<usize> {
    if at + 8 > bytes.len() {
        return None;
    }
    let len = u32::from_le_bytes(bytes[at..at + 4].try_into().ok()?);
    if len == 0 || len > MAX_PAYLOAD {
        return None;
    }
    let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().ok()?);
    let end = at + 8 + len as usize;
    if end > bytes.len() {
        return None;
    }
    if crc32(&bytes[at + 8..end]) != crc {
        return None;
    }
    Some(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultfs::RealFile;
    use rtwc_core::StreamSpec;
    use wormnet_topology::NodeId;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rtwc-wal-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(WAL_FILE)
    }

    fn spec(tag: u32) -> StreamSpec {
        StreamSpec::new(NodeId(tag), NodeId(tag + 1), 2, 50 + u64::from(tag), 4, 50)
    }

    fn admit(handle: u64) -> AcceptedOp {
        AcceptedOp::Admit {
            handle,
            spec: spec(handle as u32),
        }
    }

    fn open(path: &std::path::Path, policy: FsyncPolicy) -> (Wal, WalOpen) {
        Wal::open(Box::new(RealFile::open(path).unwrap()), policy).unwrap()
    }

    #[test]
    fn payload_round_trips_both_tags() {
        for op in [admit(7), AcceptedOp::Remove { handle: 3 }] {
            let payload = encode_payload(42, &op);
            let rec = decode_payload(&payload).unwrap();
            assert_eq!(rec.req_id, 42);
            assert_eq!(rec.op, op);
        }
        assert_eq!(decode_payload(&[]), None);
        assert_eq!(decode_payload(&[0; 16]), None);
        let mut bad_tag = encode_payload(1, &admit(0));
        bad_tag[8] = 9;
        assert_eq!(decode_payload(&bad_tag), None);
    }

    #[test]
    fn append_reopen_replays_everything() {
        let path = tmp("replay");
        std::fs::remove_file(&path).ok();
        let (mut wal, open0) = open(&path, FsyncPolicy::Always);
        assert_eq!(open0.records.len(), 0);
        wal.append(0, &admit(0)).unwrap();
        wal.append(11, &admit(1)).unwrap();
        wal.append(0, &AcceptedOp::Remove { handle: 0 }).unwrap();
        assert_eq!(wal.seq(), 3);
        drop(wal);
        let (wal, opened) = open(&path, FsyncPolicy::Always);
        assert_eq!(opened.truncated_bytes, 0);
        assert_eq!(opened.base_seq, 0);
        assert_eq!(opened.records.len(), 3);
        assert_eq!(opened.records[1].req_id, 11);
        assert_eq!(opened.records[2].op, AcceptedOp::Remove { handle: 0 });
        assert_eq!(wal.seq(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_at_every_offset() {
        let path = tmp("torn");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = open(&path, FsyncPolicy::Never);
        for i in 0..4u64 {
            wal.append(i, &admit(i)).unwrap();
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        // Record boundaries: parse to find them.
        let mut bounds = vec![WAL_HEADER_BYTES as usize];
        let mut at = WAL_HEADER_BYTES as usize;
        while let Some(end) = parse_frame(&full, at) {
            bounds.push(end);
            at = end;
        }
        assert_eq!(bounds.len(), 5);
        // Truncate at every byte offset: recovery keeps exactly the
        // records whose frames survive whole.
        for cut in WAL_HEADER_BYTES as usize..=full.len() {
            let copy = tmp("torn-cut");
            std::fs::write(&copy, &full[..cut]).unwrap();
            let (_, opened) = open(&copy, FsyncPolicy::Never);
            let expect = bounds.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(opened.records.len(), expect, "cut at {cut}");
            assert_eq!(
                opened.truncated_bytes as usize,
                cut - bounds[expect],
                "cut at {cut}"
            );
            // The file is now clean: reopening truncates nothing.
            let (_, reopened) = open(&copy, FsyncPolicy::Never);
            assert_eq!(reopened.truncated_bytes, 0);
            assert_eq!(reopened.records.len(), expect);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bitflip_in_a_record_cuts_the_log_there() {
        let path = tmp("bitflip");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = open(&path, FsyncPolicy::Never);
        for i in 0..3u64 {
            wal.append(0, &admit(i)).unwrap();
        }
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the second record's payload.
        let r0_end = parse_frame(&bytes, WAL_HEADER_BYTES as usize).unwrap();
        bytes[r0_end + 12] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (_, opened) = open(&path, FsyncPolicy::Never);
        assert_eq!(opened.records.len(), 1, "corruption cuts before record 2");
        assert!(opened.truncated_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_restarts_at_the_snapshot_seq() {
        let path = tmp("reset");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = open(&path, FsyncPolicy::Always);
        for i in 0..5u64 {
            wal.append(0, &admit(i)).unwrap();
        }
        wal.reset(5).unwrap();
        assert_eq!(wal.seq(), 5);
        assert_eq!(wal.records(), 0);
        wal.append(0, &admit(5)).unwrap();
        drop(wal);
        let (_, opened) = open(&path, FsyncPolicy::Always);
        assert_eq!(opened.base_seq, 5);
        assert_eq!(opened.records.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn frame_iter_yields_seqs_and_stops_at_torn_tail() {
        let path = tmp("frameiter");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = open(&path, FsyncPolicy::Never);
        for i in 0..3u64 {
            wal.append(i + 1, &admit(i)).unwrap();
        }
        wal.reset(3).unwrap();
        wal.append(9, &admit(3)).unwrap();
        wal.append(10, &admit(4)).unwrap();
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        let frames: Vec<_> = FrameIter::new(&bytes).unwrap().collect();
        assert_eq!(frames.len(), 2);
        // Seq follows the "after applying" convention from base_seq.
        assert_eq!(frames[0].seq, 4);
        assert_eq!(frames[1].seq, 5);
        assert_eq!(frames[0].offset, WAL_HEADER_BYTES);
        assert_eq!(frames[1].offset, frames[0].end());
        for f in &frames {
            assert_eq!(crc32(f.payload), f.crc);
            assert!(decode_payload(f.payload).is_some());
        }
        // A torn tail stops the iterator at the last intact boundary.
        let cut = frames[1].end() as usize - 3;
        let mut it = FrameIter::new(&bytes[..cut]).unwrap();
        assert_eq!(it.by_ref().count(), 1);
        assert_eq!(it.offset(), frames[0].end());
        assert!(FrameIter::new(&bytes[..4]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Ok(FsyncPolicy::Never));
        assert_eq!(
            FsyncPolicy::parse("interval:50"),
            Ok(FsyncPolicy::Interval(Duration::from_millis(50)))
        );
        assert!(FsyncPolicy::parse("interval:x").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert_eq!(
            FsyncPolicy::Interval(Duration::from_millis(50)).label(),
            "interval:50"
        );
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }
}
