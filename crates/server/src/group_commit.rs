//! Group commit: amortizing the WAL's fsync cost over batches of
//! accepted operations.
//!
//! The per-op durability path of PR 3 paid one `fdatasync` per accepted
//! operation under `--fsync always` — correct, but the fsync dominates
//! the admission latency and serializes the whole write path behind the
//! device. [`GroupWal`] keeps the *durable-before-ack* contract while
//! paying one fsync per **batch**:
//!
//! 1. [`GroupWal::append`] encodes nothing and touches no file — it
//!    buffers the op under a small metadata mutex and returns a
//!    monotonically increasing *ticket*. Appends therefore never block
//!    behind an in-flight fsync.
//! 2. [`GroupWal::wait_durable`] blocks the acknowledging thread until
//!    its ticket is covered. The first waiter to find no sync in flight
//!    becomes the **leader**: it drains the buffer, writes every
//!    record, issues one `fdatasync`, and wakes every waiter whose
//!    ticket the sync covered. Ops that arrive while the leader is
//!    inside the fsync accumulate into the next batch — under
//!    concurrency the batch size grows with load, which is exactly the
//!    amortization.
//! 3. Under `--fsync interval` the flush + sync runs on the server's
//!    background flusher thread via [`GroupWal::sync_if_due`] — the
//!    reactor never pays the fsync latency; under `--fsync never` the
//!    buffer is flushed (without sync) on size or at shutdown.
//!
//! ## Failure semantics
//!
//! A failed batch write or sync **rolls the file back to the last
//! durable point** — the whole in-flight batch disappears, every
//! pending ticket fails, and the log is marked broken (the service
//! degrades to read-only). This preserves the recovery invariant: under
//! `always`, the file never holds a record whose op was not (or will
//! not be) acknowledged, so recovery lands exactly on the acknowledged
//! prefix. The price of asynchronous acknowledgement is that a failed
//! batch cannot be rolled out of the in-memory controller: the ops stay
//! visible (unacknowledged) until the operator restarts — recovery then
//! serves the durable prefix.
//!
//! A snapshot reset ([`GroupWal::reset`]) makes every outstanding
//! ticket durable at once: the snapshot itself is fsynced and covers
//! every buffered op, so the buffer is discarded, the log restarts
//! empty, and all waiters are released.

use crate::lock_order::{classes, TrackedCondvar, TrackedMutex, TrackedMutexGuard};
use crate::service::AcceptedOp;
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::Instant;
use crate::wal::{FsyncPolicy, Wal};
use std::io;

/// Buffered records that trigger a size-based flush under
/// [`FsyncPolicy::Never`] (no waiter ever drains the buffer otherwise).
const NEVER_FLUSH_THRESHOLD: usize = 512;

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

    fn record(&mut self, batch: u64) {
        self.syncs += 1;
        self.ops_synced += batch;
        self.max_batch = self.max_batch.max(batch);
        let b = (63 - batch.max(1).leading_zeros() as usize).min(BATCH_BUCKETS - 1);
        self.batch_hist[b] += 1;
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

/// Ticketing / batching state, held only for microseconds at a time —
/// never across file I/O.
#[derive(Debug)]
struct Meta {
    /// Ops appended this process run (ticket counter).
    written_seq: u64,
    /// Tickets covered by a group fsync or a snapshot reset.
    durable_seq: u64,
    /// Tickets whose records reached the file (>= `durable_seq` except
    /// under `never`/`interval` between syncs).
    flushed_seq: u64,
    /// `written_seq` at the last [`GroupWal::reset`] (or open).
    reset_mark: u64,
    /// Operations in the history before any append of this process run:
    /// the log's own `base_seq` (snapshot-covered ops) **plus** the
    /// records already in the file at open. Updated to the snapshot
    /// sequence on [`GroupWal::reset`].
    base_seq: u64,
    /// Buffered `(req_id, op)` records awaiting the next flush.
    pending: Vec<(u64, AcceptedOp)>,
    /// A leader is writing/syncing outside the metadata lock.
    leading: bool,
    broken: bool,
    /// `(end_offset, records)` of the last durable point — the batch
    /// rollback target.
    durable_end: u64,
    durable_records: u64,
    last_sync: Instant,
    stats: GroupCommitStats,
}

/// A [`Wal`] behind a group-commit front: lock-cheap buffered appends,
/// leader-elected batched fsyncs, whole-batch rollback on error.
#[derive(Debug)]
pub struct GroupWal {
    meta: TrackedMutex<Meta>,
    cond: TrackedCondvar,
    file: TrackedMutex<Wal>,
    policy: FsyncPolicy,
    /// `Meta::broken`, readable without the metadata lock: the service
    /// asks on every write whether it is degraded.
    broken: AtomicBool,
}

impl GroupWal {
    /// Wraps an open log. The wal's policy decides when syncs run.
    pub fn new(wal: Wal) -> GroupWal {
        let policy = wal.policy();
        let meta = Meta {
            written_seq: 0,
            durable_seq: 0,
            flushed_seq: 0,
            reset_mark: 0,
            // `Wal::seq()` is already `base_seq + records`: a reopened
            // log's records are part of the history, so they count.
            base_seq: wal.seq(),
            pending: Vec::new(),
            leading: false,
            broken: false,
            durable_end: wal.end_offset(),
            durable_records: wal.records(),
            last_sync: Instant::now(),
            stats: GroupCommitStats::default(),
        };
        GroupWal {
            meta: TrackedMutex::new(&classes::WAL_META, meta),
            cond: TrackedCondvar::new(),
            file: TrackedMutex::new(&classes::WAL_FILE, wal),
            policy,
            broken: AtomicBool::new(false),
        }
    }

    /// The active fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// True once a batch write/sync failed; the log refuses appends and
    /// the service should degrade to read-only.
    pub fn is_broken(&self) -> bool {
        self.broken.load(Ordering::Acquire)
    }

    /// Ops appended since the last snapshot reset (buffered or filed) —
    /// the snapshot-cadence counter.
    pub fn records_since_reset(&self) -> u64 {
        let m = self.meta.lock();
        m.written_seq - m.reset_mark
    }

    /// The operation sequence number the next append will get
    /// (`base_seq` + ops since reset).
    pub fn seq(&self) -> u64 {
        let m = self.meta.lock();
        m.base_seq + (m.written_seq - m.reset_mark)
    }

    /// A copy of the batching statistics.
    pub fn stats(&self) -> GroupCommitStats {
        self.meta.lock().stats
    }

    /// The current replication frontiers as global operation sequence
    /// numbers (same numbering as [`GroupWal::seq`]). The WAL shipper
    /// must never stream a record past the safe frontier for the
    /// policy: under `always` a flushed-but-unsynced batch can still be
    /// rolled back whole, so only `synced` is safe; under
    /// `interval`/`never` flushed records are never rolled back and
    /// `flushed` is the frontier.
    pub fn frontiers(&self) -> WalFrontiers {
        let m = self.meta.lock();
        WalFrontiers {
            synced: m.base_seq + (m.durable_seq - m.reset_mark),
            flushed: m.base_seq + (m.flushed_seq - m.reset_mark),
        }
    }

    /// Buffers one accepted operation and returns its ticket for
    /// [`GroupWal::wait_durable`]. No fsync ever runs on this path —
    /// the service appends while it decides a write, and a sync there
    /// would stall every connection behind it. Under `never` a full
    /// buffer is written out (page cache only, no sync).
    pub fn append(&self, req_id: u64, op: &AcceptedOp) -> io::Result<u64> {
        let mut m = self.meta.lock();
        if m.broken {
            return Err(broken_err());
        }
        m.written_seq += 1;
        let ticket = m.written_seq;
        m.pending.push((req_id, op.clone()));
        if self.policy == FsyncPolicy::Never
            && m.pending.len() >= NEVER_FLUSH_THRESHOLD
            && !m.leading
        {
            self.lead(m, false)?;
        }
        Ok(ticket)
    }

    /// Blocks until `ticket` is durable — covered by a group fsync or a
    /// snapshot reset. The caller acknowledges only after this returns.
    /// Under `interval`/`never`, durability is not part of the ack
    /// contract and this returns immediately (the interval cadence is
    /// driven by [`GroupWal::sync_if_due`] from a background thread).
    pub fn wait_durable(&self, ticket: u64) -> io::Result<()> {
        if self.policy != FsyncPolicy::Always {
            return Ok(());
        }
        let mut m = self.meta.lock();
        loop {
            if m.durable_seq >= ticket {
                return Ok(());
            }
            if m.broken {
                return Err(broken_err());
            }
            if m.leading {
                m = self.cond.wait(m);
            } else {
                self.lead(m, true)?;
                m = self.meta.lock();
            }
        }
    }

    /// Runs the `interval` policy's flush + fsync if the interval has
    /// elapsed and un-synced records are outstanding; returns whether a
    /// sync ran. Called from the server's background flusher thread so
    /// no request thread ever pays the fsync latency (an fsync landing
    /// on a request's critical path is exactly the p99 tail group
    /// commit exists to remove). No-op under `always` (waiters drive
    /// the syncs) and `never` (size/shutdown flushes only).
    pub fn sync_if_due(&self) -> io::Result<bool> {
        let FsyncPolicy::Interval(every) = self.policy else {
            return Ok(false);
        };
        let m = self.meta.lock();
        if m.broken || m.leading || m.durable_seq >= m.written_seq || m.last_sync.elapsed() < every
        {
            return Ok(false);
        }
        self.lead(m, true).map(|()| true)
    }

    /// Writes every buffered record to the file; syncs except under
    /// `never`. The clean-shutdown path.
    pub fn flush(&self) -> io::Result<()> {
        let mut m = self.meta.lock();
        while m.leading {
            m = self.cond.wait(m);
        }
        if m.broken {
            return Err(broken_err());
        }
        let need_sync = self.policy != FsyncPolicy::Never;
        if m.pending.is_empty() && (!need_sync || m.durable_seq >= m.written_seq) {
            return Ok(());
        }
        self.lead(m, need_sync)
    }

    /// Restarts the log after a snapshot at sequence `base_seq`. The
    /// fsynced snapshot covers every op appended so far, so the pending
    /// buffer is discarded, every outstanding ticket becomes durable,
    /// and all waiters are released.
    pub fn reset(&self, base_seq: u64) -> io::Result<()> {
        let mut m = self.meta.lock();
        while m.leading {
            m = self.cond.wait(m);
        }
        if m.broken {
            return Err(broken_err());
        }
        m.pending.clear();
        m.leading = true;
        drop(m);
        let res = {
            let mut wal = self.file.lock();
            wal.reset(base_seq)
                .map(|()| (wal.end_offset(), wal.records()))
        };
        let mut m = self.meta.lock();
        m.leading = false;
        let out = match res {
            Ok((end, records)) => {
                m.durable_seq = m.written_seq;
                m.flushed_seq = m.written_seq;
                m.reset_mark = m.written_seq;
                m.base_seq = base_seq;
                m.durable_end = end;
                m.durable_records = records;
                m.last_sync = Instant::now();
                Ok(())
            }
            Err(e) => {
                m.broken = true;
                self.broken.store(true, Ordering::Release);
                Err(e)
            }
        };
        drop(m);
        self.cond.notify_all();
        out
    }

    /// The leader path: drain the buffer, write the batch, optionally
    /// sync, publish the new durable point, wake everyone. Called with
    /// the metadata lock held; file I/O runs without it so appends keep
    /// flowing while the device works.
    fn lead(&self, mut m: TrackedMutexGuard<'_, Meta>, need_sync: bool) -> io::Result<()> {
        m.leading = true;
        let batch: Vec<(u64, AcceptedOp)> = std::mem::take(&mut m.pending);
        let target = m.written_seq;
        let (rollback_end, rollback_records) = (m.durable_end, m.durable_records);
        drop(m);

        let mut res: io::Result<()> = Ok(());
        let (end, records) = {
            let mut wal = self.file.lock();
            for (req_id, op) in &batch {
                if let Err(e) = wal.append_raw(*req_id, op) {
                    res = Err(e);
                    break;
                }
            }
            if need_sync {
                if res.is_ok() {
                    if let Err(e) = wal.sync_now() {
                        res = Err(e);
                    }
                }
                if res.is_err() {
                    // Whole-batch rollback: none of these tickets was
                    // (or will be) acknowledged, so none of their
                    // records may survive into recovery.
                    let _ = wal.truncate_to(rollback_end, rollback_records);
                }
            }
            (wal.end_offset(), wal.records())
        };

        let mut m = self.meta.lock();
        m.leading = false;
        if res.is_ok() {
            m.flushed_seq = m.flushed_seq.max(target);
            if need_sync {
                let covered = target.saturating_sub(m.durable_seq);
                m.durable_seq = m.durable_seq.max(target);
                m.durable_end = end;
                m.durable_records = records;
                m.last_sync = Instant::now();
                if covered > 0 {
                    m.stats.record(covered);
                }
            }
        } else {
            m.broken = true;
            self.broken.store(true, Ordering::Release);
        }
        drop(m);
        self.cond.notify_all();
        res
    }
}

impl Drop for GroupWal {
    fn drop(&mut self) {
        // Best-effort: land buffered records (chaos and clean shutdown
        // both read the file right after the service drops).
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultfs::{FailpointFile, FaultPlan, FaultState, RealFile};
    use crate::wal::{Wal, WAL_FILE};
    use rtwc_core::StreamSpec;
    use std::sync::Arc;
    use std::time::Duration;
    use wormnet_topology::NodeId;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rtwc-gc-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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

    fn reopen_records(path: &std::path::Path) -> usize {
        let (_, opened) =
            Wal::open(Box::new(RealFile::open(path).unwrap()), FsyncPolicy::Never).unwrap();
        opened.records.len()
    }

    #[test]
    fn always_append_wait_lands_records() {
        let path = tmp("always");
        let gc = open(&path, FsyncPolicy::Always);
        for i in 0..5u64 {
            let t = gc.append(i, &admit(i)).unwrap();
            gc.wait_durable(t).unwrap();
        }
        assert_eq!(gc.records_since_reset(), 5);
        let stats = gc.stats();
        assert_eq!(stats.ops_synced, 5);
        assert!(stats.syncs >= 1 && stats.syncs <= 5);
        drop(gc);
        assert_eq!(reopen_records(&path), 5);
    }

    #[test]
    fn concurrent_waiters_batch_under_one_leader() {
        let path = tmp("batch");
        let gc = Arc::new(open(&path, FsyncPolicy::Always));
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let gc = Arc::clone(&gc);
                std::thread::spawn(move || {
                    for i in 0..25u64 {
                        let ticket = gc.append(t * 100 + i, &admit(t * 100 + i)).unwrap();
                        gc.wait_durable(ticket).unwrap();
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let stats = gc.stats();
        assert_eq!(stats.ops_synced, 100, "{stats:?}");
        assert!(stats.max_batch >= 1, "{stats:?}");
        drop(gc);
        assert_eq!(reopen_records(&path), 100);
    }

    #[test]
    fn failed_group_sync_rolls_back_the_whole_batch() {
        let path = tmp("syncfail");
        let state = Arc::new(FaultState::default());
        let plan = FaultPlan {
            // Sync #1 is the header; the first group sync fails.
            fail_sync_from: Some(2),
            ..FaultPlan::default()
        };
        let file = Box::new(FailpointFile::open(&path, plan, Arc::clone(&state)).unwrap());
        let (wal, _) = Wal::open(file, FsyncPolicy::Always).unwrap();
        let gc = GroupWal::new(wal);
        let t = gc.append(1, &admit(0)).unwrap();
        let err = gc.wait_durable(t).unwrap_err();
        assert!(err.to_string().contains("fsync"), "{err}");
        assert!(gc.is_broken());
        assert!(
            gc.append(2, &admit(1)).is_err(),
            "broken log refuses appends"
        );
        drop(gc);
        // The batch was rolled back: recovery sees zero records.
        assert_eq!(reopen_records(&path), 0);
        assert!(state.fired());
    }

    #[test]
    fn never_policy_flushes_on_drop() {
        let path = tmp("never");
        let gc = open(&path, FsyncPolicy::Never);
        for i in 0..7u64 {
            let t = gc.append(i, &admit(i)).unwrap();
            gc.wait_durable(t).unwrap(); // returns immediately
        }
        assert_eq!(gc.stats().syncs, 0, "never policy must not sync");
        drop(gc); // flush lands the buffered records
        assert_eq!(reopen_records(&path), 7);
    }

    #[test]
    fn interval_policy_syncs_opportunistically() {
        let path = tmp("interval");
        let gc = open(&path, FsyncPolicy::Interval(Duration::from_millis(1)));
        let t0 = gc.append(1, &admit(0)).unwrap();
        gc.wait_durable(t0).unwrap(); // immediate: durability not in the ack contract
        std::thread::sleep(Duration::from_millis(5));
        gc.append(2, &admit(1)).unwrap();
        assert!(gc.sync_if_due().unwrap(), "elapsed interval must sync");
        assert!(
            !gc.sync_if_due().unwrap(),
            "nothing outstanding after the sync"
        );
        assert!(gc.stats().syncs >= 1, "{:?}", gc.stats());
        drop(gc);
        assert_eq!(reopen_records(&path), 2);
    }

    #[test]
    fn frontiers_track_sync_flush_and_reset() {
        let path = tmp("frontiers");
        let gc = open(&path, FsyncPolicy::Always);
        assert_eq!(gc.frontiers(), WalFrontiers::default());
        let t = gc.append(1, &admit(0)).unwrap();
        // Buffered only: neither frontier moved yet.
        assert_eq!(gc.frontiers().synced, 0);
        gc.wait_durable(t).unwrap();
        let f = gc.frontiers();
        assert_eq!(f.synced, 1);
        assert_eq!(f.flushed, 1);
        gc.reset(3).unwrap();
        let f = gc.frontiers();
        assert_eq!((f.synced, f.flushed), (3, 3));
        let t = gc.append(2, &admit(1)).unwrap();
        gc.wait_durable(t).unwrap();
        assert_eq!(gc.frontiers().synced, 4);
        drop(gc);
        // A reopened log counts its surviving records as synced.
        let gc = open(&path, FsyncPolicy::Always);
        assert_eq!(gc.frontiers().synced, 4);
    }

    #[test]
    fn reset_covers_outstanding_tickets_and_restarts_the_log() {
        let path = tmp("reset");
        let gc = open(&path, FsyncPolicy::Always);
        let t = gc.append(1, &admit(0)).unwrap();
        // Snapshot taken: the op is covered without any WAL sync.
        gc.reset(1).unwrap();
        gc.wait_durable(t).unwrap();
        assert_eq!(gc.seq(), 1);
        assert_eq!(gc.records_since_reset(), 0);
        drop(gc);
        assert_eq!(reopen_records(&path), 0);
    }
}
