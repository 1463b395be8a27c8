//! Group commit: the WAL as the reactor owns it, with one `write(2)` per
//! batch of records and, under `--fsync always`, one `fdatasync` per
//! reactor pass (group commit as in `DeWitt` et al., SIGMOD 1984).
//!
//! [`GroupWal`] has one owner, the thread that owns the service:
//!
//! 1. [`GroupWal::append`] frames the record into an owned byte buffer
//!    and returns its sequence number. No system call runs.
//! 2. [`GroupWal::write`] hands the buffer to the file in one `write(2)`.
//!    The reactor calls it before it flushes any client connection's
//!    output and at the end of every pass, before replication reads the
//!    file, so no acknowledgement leaves before its record is in the
//!    file, under any policy: a killed process loses no acknowledged op.
//! 3. Under `--fsync always` an acknowledgement also waits for a sync.
//!    [`GroupWal::sync_to`] writes and then syncs once for every record
//!    appended so far; the reactor calls it when it releases the first
//!    held acknowledgement of a pass, and the rest find their records
//!    covered. A blocking caller is a pass of one line.
//! 4. Under `--fsync interval` the sync runs on the server's flusher
//!    thread, through a [`WalFlusher`]: a second handle onto the same
//!    file ([`crate::faultfs::WalFile::try_clone`]) and the atomics the
//!    two threads share — the written and synced sequence numbers, the
//!    broken flag and the sync counters. The flusher reads the written
//!    sequence, syncs, and only then publishes it as synced, so a
//!    published synced sequence is always on the device. Nothing else
//!    crosses threads: no lock, no condvar. Under `--fsync never`
//!    nothing syncs but shutdown and snapshots.
//!
//! ## Failure semantics
//!
//! A failed write or sync breaks the log (the service degrades to
//! read-only). Under `always` it also **rolls the file back to the last
//! synced point**: every record after it belongs to an acknowledgement
//! still held, which becomes the `wal` refusal. So under `always` the
//! file never holds a record whose op was not acknowledged, and
//! recovery lands exactly on the acknowledged prefix. The ops stay
//! applied in memory (unacknowledged) until the operator restarts.
//! Under `interval`/`never` the acknowledgements of a failed write have
//! already been rendered and are sent; those policies promise a write,
//! not a device.
//!
//! A snapshot reset ([`GroupWal::reset`]) covers every appended record
//! at once: the snapshot itself is synced, so the buffer is discarded
//! and the log restarts empty at the snapshot's sequence.

use crate::faultfs::WalFile;
use crate::service::AcceptedOp;
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::Arc;
use crate::wal::{encode_record, FsyncPolicy, Wal};
use std::io;
use std::time::Duration;

/// Power-of-two batch-size histogram buckets.
const BATCH_BUCKETS: usize = 16;

/// Group-commit instrumentation: how many records each fsync covered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Group fsyncs issued (excludes header/reset syncs).
    pub syncs: u64,
    /// Operations covered by those fsyncs.
    pub ops_synced: u64,
    /// Largest single batch.
    pub max_batch: u64,
    /// `batch_hist[i]` counts batches of size in `[2^i, 2^(i+1))`.
    pub batch_hist: [u64; BATCH_BUCKETS],
}

impl GroupCommitStats {
    /// Mean ops per fsync (0 when no sync has run).
    pub fn mean_batch(&self) -> f64 {
        if self.syncs == 0 {
            0.0
        } else {
            self.ops_synced as f64 / self.syncs as f64
        }
    }
}

fn broken_err() -> io::Error {
    io::Error::other("WAL is broken (earlier device error)")
}

/// Global sequence-number frontiers of the log, for replication and
/// STATS (see [`GroupWal::frontiers`]). `flushed >= synced` always; a
/// snapshot reset advances both to the snapshot sequence at once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalFrontiers {
    /// Highest operation sequence covered by an fsync (or a snapshot
    /// reset) — safe to ship under any policy.
    pub synced: u64,
    /// Highest operation sequence whose record reached the file.
    pub flushed: u64,
}

/// What the reactor and the interval flusher share: sequence numbers,
/// the broken flag and the sync counters, all atomics. Only the
/// flusher and [`GroupWal`]'s own syncs advance `synced`, each with a
/// `fetch_max`, so two syncs never count one record twice.
#[derive(Debug)]
struct Shared {
    /// Highest sequence whose record is in the file.
    written: AtomicU64,
    /// Highest sequence whose record a sync (or reset) made durable.
    synced: AtomicU64,
    broken: AtomicBool,
    syncs: AtomicU64,
    ops_synced: AtomicU64,
    max_batch: AtomicU64,
    batch_hist: [AtomicU64; BATCH_BUCKETS],
}

impl Shared {
    /// Publishes `seq` as synced; counts the batch it newly covers.
    fn publish_synced(&self, seq: u64) {
        let before = self.synced.fetch_max(seq, Ordering::AcqRel);
        if seq > before {
            let batch = seq - before;
            self.syncs.fetch_add(1, Ordering::Relaxed);
            self.ops_synced.fetch_add(batch, Ordering::Relaxed);
            self.max_batch.fetch_max(batch, Ordering::Relaxed);
            let b = (63 - batch.leading_zeros() as usize).min(BATCH_BUCKETS - 1);
            self.batch_hist[b].fetch_add(1, Ordering::Relaxed);
        }
    }

    fn is_broken(&self) -> bool {
        self.broken.load(Ordering::Acquire)
    }

    fn set_broken(&self) {
        self.broken.store(true, Ordering::Release);
    }
}

/// The write-ahead log as its one owner sees it: records framed into a
/// buffer, written with one `write(2)` per batch, synced per the
/// policy, rolled back whole under `always` when a sync fails.
#[derive(Debug)]
pub struct GroupWal {
    wal: Wal,
    /// Framed records appended since the last write.
    buf: Vec<u8>,
    /// Records in `buf`.
    buffered: u64,
    /// Sequence number of the last appended op.
    seq: u64,
    /// `seq` at the last reset (or open): the snapshot cadence counts
    /// from here.
    mark: u64,
    /// The file's `(end_offset, records)` at the last sync: what a
    /// failed write or sync rolls back to under `always`.
    synced_at: (u64, u64),
    shared: Arc<Shared>,
}

impl GroupWal {
    /// Wraps an open log. The wal's policy decides when syncs run. A
    /// reopened log's records count as written and synced.
    pub fn new(wal: Wal) -> GroupWal {
        let seq = wal.seq();
        let shared = Shared {
            written: AtomicU64::new(seq),
            synced: AtomicU64::new(seq),
            broken: AtomicBool::new(false),
            syncs: AtomicU64::new(0),
            ops_synced: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            batch_hist: std::array::from_fn(|_| AtomicU64::new(0)),
        };
        GroupWal {
            synced_at: (wal.end_offset(), wal.records()),
            wal,
            buf: Vec::new(),
            buffered: 0,
            seq,
            mark: seq,
            shared: Arc::new(shared),
        }
    }

    /// The active fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.wal.policy()
    }

    /// True once a write or sync failed; the log refuses appends and
    /// the service should degrade to read-only.
    pub fn is_broken(&self) -> bool {
        self.shared.is_broken()
    }

    /// Ops appended since the last snapshot reset (or open) — the
    /// snapshot-cadence counter.
    pub fn records_since_reset(&self) -> u64 {
        self.seq - self.mark
    }

    /// The sequence number of the last appended op: the service's
    /// history length.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// A copy of the batching statistics.
    pub fn stats(&self) -> GroupCommitStats {
        let s = &self.shared;
        GroupCommitStats {
            syncs: s.syncs.load(Ordering::Relaxed),
            ops_synced: s.ops_synced.load(Ordering::Relaxed),
            max_batch: s.max_batch.load(Ordering::Relaxed),
            batch_hist: std::array::from_fn(|i| s.batch_hist[i].load(Ordering::Relaxed)),
        }
    }

    /// The current replication frontiers as global operation sequence
    /// numbers (same numbering as [`GroupWal::seq`]). The WAL shipper
    /// must never stream a record past the safe frontier for the
    /// policy: under `always` a written-but-unsynced batch can still be
    /// rolled back whole, so only `synced` is safe; under
    /// `interval`/`never` written records are never rolled back and
    /// `flushed` is the frontier.
    pub fn frontiers(&self) -> WalFrontiers {
        WalFrontiers {
            synced: self.shared.synced.load(Ordering::Acquire),
            flushed: self.shared.written.load(Ordering::Acquire),
        }
    }

    /// Frames one accepted operation into the buffer and returns its
    /// sequence number. No system call runs here; [`GroupWal::write`]
    /// lands the buffer.
    pub fn append(&mut self, req_id: u64, op: &AcceptedOp) -> io::Result<u64> {
        if self.is_broken() {
            return Err(broken_err());
        }
        encode_record(&mut self.buf, req_id, op);
        self.buffered += 1;
        self.seq += 1;
        Ok(self.seq)
    }

    /// Writes the buffered records with one `write(2)`; a no-op when
    /// nothing is buffered. Never syncs.
    pub fn write(&mut self) -> io::Result<()> {
        if self.buffered == 0 {
            return Ok(());
        }
        if self.is_broken() {
            return Err(broken_err());
        }
        if let Err(e) = self.wal.write_records(&self.buf, self.buffered) {
            return Err(self.fail(e));
        }
        self.buf.clear();
        self.buffered = 0;
        self.shared.written.store(self.seq, Ordering::Release);
        Ok(())
    }

    /// Makes the op with sequence `seq` durable: a no-op when a sync
    /// already covered it, otherwise one write and one sync for every
    /// record appended so far. An error means `seq` was not made
    /// durable — under `always`, nothing after the last synced point is
    /// left in the file.
    pub fn sync_to(&mut self, seq: u64) -> io::Result<()> {
        if self.shared.synced.load(Ordering::Acquire) >= seq {
            return Ok(());
        }
        self.write()?;
        if self.is_broken() {
            return Err(broken_err());
        }
        if let Err(e) = self.wal.sync_now() {
            return Err(self.fail(e));
        }
        self.synced_at = (self.wal.end_offset(), self.wal.records());
        self.shared.publish_synced(self.seq);
        Ok(())
    }

    /// Writes every buffered record, and syncs except under `never`.
    /// The clean-shutdown path.
    pub fn flush(&mut self) -> io::Result<()> {
        match self.policy() {
            FsyncPolicy::Never => self.write(),
            FsyncPolicy::Always | FsyncPolicy::Interval(_) => self.sync_to(self.seq),
        }
    }

    /// Restarts the log after a snapshot at sequence `base_seq`. The
    /// synced snapshot covers every op appended so far, so the buffer
    /// is discarded and every op counts as synced.
    pub fn reset(&mut self, base_seq: u64) -> io::Result<()> {
        if self.is_broken() {
            return Err(broken_err());
        }
        if let Err(e) = self.wal.reset(base_seq) {
            self.shared.set_broken();
            return Err(e);
        }
        self.buf.clear();
        self.buffered = 0;
        self.seq = base_seq;
        self.mark = base_seq;
        self.synced_at = (self.wal.end_offset(), 0);
        self.shared.written.store(base_seq, Ordering::Release);
        self.shared.synced.fetch_max(base_seq, Ordering::AcqRel);
        Ok(())
    }

    /// The `--fsync interval` flusher: a second handle onto the file
    /// and the shared frontiers, for a thread that syncs every
    /// interval. `None` under the other policies.
    pub fn flusher(&self) -> io::Result<Option<WalFlusher>> {
        let FsyncPolicy::Interval(every) = self.policy() else {
            return Ok(None);
        };
        Ok(Some(WalFlusher {
            file: self.wal.try_clone_file()?,
            shared: Arc::clone(&self.shared),
            every,
        }))
    }

    /// Breaks the log after a failed write or sync; under `always`
    /// first truncates it to the last synced point, so no record whose
    /// acknowledgement is still held survives into recovery.
    fn fail(&mut self, e: io::Error) -> io::Error {
        if self.policy() == FsyncPolicy::Always {
            let (end, records) = self.synced_at;
            let _ = self.wal.truncate_to(end, records);
        }
        self.shared.set_broken();
        e
    }
}

impl Drop for GroupWal {
    fn drop(&mut self) {
        // Best-effort: land buffered records (chaos and clean shutdown
        // both read the file right after the service drops).
        let _ = self.flush();
    }
}

/// The `--fsync interval` flusher's side of the log ([`GroupWal::flusher`]):
/// it owns a second handle onto the file and only ever syncs it.
#[derive(Debug)]
pub struct WalFlusher {
    file: Box<dyn WalFile>,
    shared: Arc<Shared>,
    every: Duration,
}

impl WalFlusher {
    /// The policy's sync interval.
    pub fn every(&self) -> Duration {
        self.every
    }

    /// Syncs if records were written since the last sync; returns
    /// whether a sync ran. It reads the written sequence *before* the
    /// sync, so what it publishes as synced is on the device. A failed
    /// sync breaks the log, which degrades the service.
    pub fn sync(&mut self) -> io::Result<bool> {
        if self.shared.is_broken() {
            return Err(broken_err());
        }
        let written = self.shared.written.load(Ordering::Acquire);
        if written <= self.shared.synced.load(Ordering::Acquire) {
            return Ok(false);
        }
        if let Err(e) = self.file.sync() {
            self.shared.set_broken();
            return Err(e);
        }
        self.shared.publish_synced(written);
        Ok(true)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::faultfs::{FailpointFile, FaultPlan, FaultState, RealFile};
    use crate::wal::{Wal, WAL_FILE};
    use rtwc_core::StreamSpec;
    use std::sync::Arc;
    use wormnet_topology::NodeId;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = crate::scratch_dir(&format!("gc-{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(WAL_FILE)
    }

    fn admit(handle: u64) -> AcceptedOp {
        AcceptedOp::Admit {
            handle,
            spec: StreamSpec::new(
                NodeId(handle as u32),
                NodeId(handle as u32 + 1),
                2,
                50,
                4,
                50,
            ),
        }
    }

    fn open(path: &std::path::Path, policy: FsyncPolicy) -> GroupWal {
        let (wal, _) = Wal::open(Box::new(RealFile::open(path).unwrap()), policy).unwrap();
        GroupWal::new(wal)
    }

    fn frontier(synced: u64, flushed: u64) -> WalFrontiers {
        WalFrontiers { synced, flushed }
    }

    fn reopen_records(path: &std::path::Path) -> usize {
        let (_, opened) =
            Wal::open(Box::new(RealFile::open(path).unwrap()), FsyncPolicy::Never).unwrap();
        opened.records.len()
    }

    #[test]
    fn always_append_sync_lands_records() {
        let path = tmp("always");
        let mut gc = open(&path, FsyncPolicy::Always);
        for i in 0..5u64 {
            let seq = gc.append(i, &admit(i)).unwrap();
            gc.sync_to(seq).unwrap();
        }
        assert_eq!(gc.records_since_reset(), 5);
        let stats = gc.stats();
        assert_eq!((stats.syncs, stats.ops_synced, stats.max_batch), (5, 5, 1));
        drop(gc);
        assert_eq!(reopen_records(&path), 5);
    }

    #[test]
    fn one_sync_covers_every_record_appended_before_it() {
        let path = tmp("batch");
        let mut gc = open(&path, FsyncPolicy::Always);
        let seqs: Vec<u64> = (0..4).map(|i| gc.append(i, &admit(i)).unwrap()).collect();
        // A connection's output is flushed: its records are written,
        // not yet synced.
        gc.write().unwrap();
        assert_eq!(gc.frontiers(), frontier(0, 4));
        for &seq in &seqs {
            gc.sync_to(seq).unwrap();
        }
        let stats = gc.stats();
        assert_eq!((stats.syncs, stats.ops_synced, stats.max_batch), (1, 4, 4));
        assert_eq!(stats.batch_hist[2], 1, "{stats:?}");
        drop(gc);
        assert_eq!(reopen_records(&path), 4);
    }

    #[test]
    fn written_records_are_in_the_file_before_any_sync() {
        for policy in [
            FsyncPolicy::Always,
            FsyncPolicy::Interval(Duration::from_mins(1)),
            FsyncPolicy::Never,
        ] {
            let path = tmp("written");
            let mut gc = open(&path, policy);
            for i in 0..3u64 {
                gc.append(i, &admit(i)).unwrap();
            }
            assert_eq!(reopen_records(&path), 0, "appends make no system call");
            gc.write().unwrap();
            // What a kill -9 now would leave: the page cache holds all.
            assert_eq!(reopen_records(&path), 3, "{policy:?}");
            assert_eq!(gc.stats().syncs, 0, "{policy:?}");
            std::mem::forget(gc); // no shutdown flush
        }
    }

    #[test]
    fn failed_group_sync_rolls_back_the_whole_batch() {
        let path = tmp("syncfail");
        let state = Arc::new(FaultState::default());
        let plan = FaultPlan {
            // Sync #1 is the header, #2 the first group sync; #3 fails.
            fail_sync_from: Some(3),
            ..FaultPlan::default()
        };
        let file = Box::new(FailpointFile::open(&path, plan, Arc::clone(&state)).unwrap());
        let (wal, _) = Wal::open(file, FsyncPolicy::Always).unwrap();
        let mut gc = GroupWal::new(wal);
        let first = gc.append(1, &admit(0)).unwrap();
        gc.sync_to(first).unwrap();
        // A batch of two, one written by an earlier connection flush.
        gc.append(2, &admit(1)).unwrap();
        gc.write().unwrap();
        let last = gc.append(3, &admit(2)).unwrap();
        let err = gc.sync_to(last).unwrap_err();
        assert!(err.to_string().contains("fsync"), "{err}");
        assert!(gc.is_broken());
        assert!(gc.sync_to(last - 1).is_err(), "no record of the batch acks");
        assert!(gc.sync_to(first).is_ok(), "the synced record stays acked");
        assert!(
            gc.append(4, &admit(3)).is_err(),
            "broken log refuses appends"
        );
        assert_eq!(gc.frontiers().synced, first);
        drop(gc);
        // The batch was rolled back: recovery sees the synced record.
        assert_eq!(reopen_records(&path), 1);
        assert!(state.fired());
    }

    #[test]
    fn never_policy_writes_without_syncing() {
        let path = tmp("never");
        let mut gc = open(&path, FsyncPolicy::Never);
        for i in 0..7u64 {
            gc.append(i, &admit(i)).unwrap();
        }
        gc.flush().unwrap();
        assert_eq!(gc.stats().syncs, 0, "never policy must not sync");
        assert_eq!(gc.frontiers().flushed, 7);
        drop(gc);
        assert_eq!(reopen_records(&path), 7);
    }

    #[test]
    fn interval_flusher_syncs_what_was_written() {
        let path = tmp("interval");
        let mut gc = open(&path, FsyncPolicy::Interval(Duration::from_millis(1)));
        let mut flusher = gc.flusher().unwrap().expect("interval policy");
        assert_eq!(flusher.every(), Duration::from_millis(1));
        gc.append(1, &admit(0)).unwrap();
        assert!(!flusher.sync().unwrap(), "nothing written yet");
        gc.write().unwrap();
        gc.append(2, &admit(1)).unwrap();
        assert!(flusher.sync().unwrap(), "a written record is due");
        assert_eq!(gc.frontiers(), frontier(1, 1));
        assert!(!flusher.sync().unwrap(), "nothing new written");
        gc.flush().unwrap();
        assert_eq!(gc.frontiers().synced, 2);
        let stats = gc.stats();
        assert_eq!((stats.syncs, stats.ops_synced), (2, 2), "{stats:?}");
        drop(gc);
        assert_eq!(reopen_records(&path), 2);
        assert!(open(&path, FsyncPolicy::Always)
            .flusher()
            .unwrap()
            .is_none());
    }

    #[test]
    fn frontiers_track_sync_flush_and_reset() {
        let path = tmp("frontiers");
        let mut gc = open(&path, FsyncPolicy::Always);
        assert_eq!(gc.frontiers(), WalFrontiers::default());
        let seq = gc.append(1, &admit(0)).unwrap();
        // Buffered only: neither frontier moved yet.
        assert_eq!(gc.frontiers(), WalFrontiers::default());
        gc.sync_to(seq).unwrap();
        assert_eq!(gc.frontiers(), frontier(1, 1));
        gc.reset(3).unwrap();
        assert_eq!(gc.frontiers(), frontier(3, 3));
        let seq = gc.append(2, &admit(1)).unwrap();
        gc.sync_to(seq).unwrap();
        assert_eq!(gc.frontiers().synced, 4);
        drop(gc);
        // A reopened log counts its surviving records as synced.
        let gc = open(&path, FsyncPolicy::Always);
        assert_eq!(gc.frontiers().synced, 4);
        assert_eq!((gc.seq(), gc.records_since_reset()), (4, 0));
    }

    #[test]
    fn reset_covers_buffered_records_and_restarts_the_log() {
        let path = tmp("reset");
        let mut gc = open(&path, FsyncPolicy::Always);
        let seq = gc.append(1, &admit(0)).unwrap();
        // Snapshot taken: the op is covered without any WAL sync.
        gc.reset(1).unwrap();
        gc.sync_to(seq).unwrap();
        assert_eq!(gc.seq(), 1);
        assert_eq!(gc.records_since_reset(), 0);
        assert_eq!(gc.stats().syncs, 0);
        drop(gc);
        assert_eq!(reopen_records(&path), 0);
    }
}
