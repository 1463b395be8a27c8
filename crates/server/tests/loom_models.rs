//! Bounded-exhaustive model of the one hand-off between threads, run
//! under `RUSTFLAGS="--cfg loom" cargo test -p rtwc-server --test loom_models`.
//!
//! The reactor owns the WAL ([`GroupWal`]); under `--fsync interval` the
//! flusher thread owns a second handle onto its file ([`WalFlusher`])
//! and shares a few atomics with the reactor: the written and synced
//! sequence numbers, the broken flag and the sync counters. The model
//! drives the *real* types over an in-memory [`MemFile`] through every
//! interleaving the checker's preemption budget allows and asserts
//! **synced-implies-durable**: once a synced sequence `k` is published,
//! a crash (the synced prefix of the device) preserves record `k`. The
//! replication shipper and `STATS` read that sequence, so it must never
//! run ahead of the device.
//!
//! The `--fsync always` path has no model: its writes and syncs all run
//! on the reactor, one thread, and its unit tests cover the rollback
//! (`failed_group_sync_rolls_back_the_whole_batch`,
//! `failed_pass_sync_refuses_every_held_write`). There is no model of
//! concurrent admissions either: the [`rtwc_server::AdmissionService`]
//! is not `Sync` (a `compile_fail` doctest on the type keeps it so).
//!
//! Beside the model sits a `seeded_*` test: a minimal replica of the
//! flusher with its order deliberately swapped (read the written
//! sequence *after* the sync), wrapped in `catch_unwind` to prove the
//! checker finds the interleaving that breaks it — the model is
//! load-bearing, not vacuous.
#![cfg(loom)]

use rtwc_core::StreamSpec;
use rtwc_server::faultfs::{MemFile, WalFile};
use rtwc_server::group_commit::{GroupWal, WalFlusher};
use rtwc_server::service::AcceptedOp;
use rtwc_server::sync::atomic::{AtomicU64, Ordering};
use rtwc_server::sync::{thread, Arc};
use rtwc_server::wal::{encode_record, FsyncPolicy, Wal};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;
use wormnet_topology::NodeId;

/// Runs `f` under the model checker expecting some interleaving to
/// fail; true when the checker found one.
fn fails(f: impl Fn() + Send + Sync + 'static) -> bool {
    catch_unwind(AssertUnwindSafe(|| loom::model(f))).is_err()
}

fn admit_op(handle: u64) -> AcceptedOp {
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

/// Records recoverable from `bytes` — what a process that crashed with
/// exactly these bytes durable would replay.
fn recovered_records(bytes: Vec<u8>) -> u64 {
    let (_, opened) = Wal::open(Box::new(MemFile::from_bytes(bytes)), FsyncPolicy::Never)
        .expect("synced prefix must always parse");
    opened.records.len() as u64
}

/// Asserts synced-implies-durable for the synced sequence `synced`.
fn assert_durable(observer: &MemFile, synced: u64) {
    let durable = recovered_records(observer.synced_bytes());
    assert!(
        durable >= synced,
        "synced seq {synced} published but only {durable} records durable"
    );
}

fn interval_wal_on(observer: &MemFile) -> (GroupWal, WalFlusher) {
    let policy = FsyncPolicy::Interval(Duration::from_millis(5));
    let (wal, _) = Wal::open(Box::new(observer.clone()), policy).expect("fresh mem wal");
    let gc = GroupWal::new(wal);
    let flusher = gc.flusher().expect("clone").expect("interval policy");
    (gc, flusher)
}

// ---------------------------------------------------------------------
// The reactor appends and writes while the interval flusher syncs: a
// published synced sequence is always on the device.
// ---------------------------------------------------------------------

#[test]
fn interval_flusher_publishes_only_synced_records() {
    loom::model(|| {
        let observer = MemFile::new();
        let (mut gc, mut flusher) = interval_wal_on(&observer);
        let syncer = thread::spawn(move || {
            for _ in 0..2 {
                flusher.sync().expect("healthy device syncs");
            }
        });
        for i in 0..2u64 {
            gc.append(0, &admit_op(i)).expect("healthy log accepts");
            gc.write().expect("healthy log writes");
            // What the shipper and STATS read: never past the device.
            assert_durable(&observer, gc.frontiers().synced);
        }
        syncer.join().unwrap();
        let synced = gc.frontiers().synced;
        assert_durable(&observer, synced);
        let stats = gc.stats();
        assert_eq!(stats.ops_synced, synced, "each synced record counted once");
        // Shutdown syncs the rest through the reactor's own handle.
        gc.flush().expect("healthy device syncs");
        assert_eq!(gc.frontiers().synced, 2);
        assert_eq!(recovered_records(observer.synced_bytes()), 2);
    });
}

#[test]
fn seeded_flusher_reading_written_after_its_sync_is_caught() {
    // The same hand-off with the flusher's order swapped: it syncs, and
    // only then reads how far the reactor has written. A record written
    // between the two is published as synced without being on the
    // device, and the checker finds that interleaving.
    assert!(fails(|| {
        let observer = MemFile::new();
        // A fresh log: its header is written and synced.
        Wal::open(Box::new(observer.clone()), FsyncPolicy::Never).unwrap();
        let written = Arc::new(AtomicU64::new(0));
        let synced = Arc::new(AtomicU64::new(0));
        let syncer = {
            let mut file = observer.clone();
            let (written, synced) = (Arc::clone(&written), Arc::clone(&synced));
            thread::spawn(move || {
                file.sync().unwrap();
                // BUG: the written sequence must be read before the sync.
                let w = written.load(Ordering::Acquire);
                synced.fetch_max(w, Ordering::AcqRel);
            })
        };
        // The reactor writes one record, then publishes it as written.
        let mut file = observer.clone();
        let mut frame = Vec::new();
        encode_record(&mut frame, 0, &admit_op(0));
        file.append(&frame).unwrap();
        written.store(1, Ordering::Release);
        assert_durable(&observer, synced.load(Ordering::Acquire));
        syncer.join().unwrap();
        assert_durable(&observer, synced.load(Ordering::Acquire));
    }));
}
