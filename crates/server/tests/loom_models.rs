//! Bounded-exhaustive concurrency models of the reactor core, run under
//! `RUSTFLAGS="--cfg loom" cargo test -p rtwc-server --test loom_models`.
//!
//! Each model drives the *real* production types — [`GroupWal`] over an
//! in-memory [`MemFile`] and [`AdmissionService`]'s one write path —
//! through every interleaving the checker's preemption budget allows,
//! asserting the invariants DESIGN.md's "Concurrency verification"
//! section inventories:
//!
//! - **durable-before-ack**: at the moment `wait_durable` acks a
//!   ticket under `--fsync always`, a crash (the synced prefix of the
//!   device) already preserves that ticket's record;
//! - **whole-batch rollback**: a failed group sync acks nothing and
//!   leaves zero unacknowledged records for recovery to find;
//! - **linearizability**: concurrent admissions on the one write path
//!   produce a journal whose serial replay reproduces the live bounds
//!   bit-for-bit.
//!
//! Alongside each model sits a `seeded_*` test: a minimal replica of
//! the protocol with the guard deliberately removed (ack before sync,
//! a write derived from a stale read),
//! wrapped in `catch_unwind` to prove the checker actually finds the
//! interleaving that breaks it — the models are load-bearing, not
//! vacuous.
#![cfg(loom)]

use rtwc_core::{StreamId, StreamSpec};
use rtwc_server::faultfs::MemFile;
use rtwc_server::group_commit::GroupWal;
use rtwc_server::service::{replay, AcceptedOp, AdmissionService};
use rtwc_server::sync::{thread, Arc, Mutex};
use rtwc_server::wal::{FsyncPolicy, Wal};
use std::panic::{catch_unwind, AssertUnwindSafe};
use wormnet_topology::{Mesh, NodeId};

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
fn recovered_records(bytes: Vec<u8>) -> usize {
    let (_, opened) = Wal::open(Box::new(MemFile::from_bytes(bytes)), FsyncPolicy::Never)
        .expect("synced prefix must always parse");
    opened.records.len()
}

fn group_wal_on(observer: &MemFile, policy: FsyncPolicy) -> GroupWal {
    let (wal, _) = Wal::open(Box::new(observer.clone()), policy).expect("fresh mem wal");
    GroupWal::new(wal)
}

// ---------------------------------------------------------------------
// Model 1: group commit acks a ticket only once its record is durable.
// ---------------------------------------------------------------------

#[test]
fn group_commit_acked_implies_durable() {
    loom::model(|| {
        let observer = MemFile::new();
        let gc = Arc::new(group_wal_on(&observer, FsyncPolicy::Always));
        let handles: Vec<_> = (0..2u64)
            .map(|i| {
                let gc = Arc::clone(&gc);
                let observer = observer.clone();
                thread::spawn(move || {
                    let ticket = gc.append(0, &admit_op(i)).expect("healthy log accepts");
                    gc.wait_durable(ticket).expect("healthy device syncs");
                    // The ack moment: a crash right now must preserve
                    // this ticket's record — durable-before-ack.
                    let durable = recovered_records(observer.synced_bytes());
                    assert!(
                        durable as u64 >= ticket,
                        "acked ticket {ticket} but only {durable} records durable"
                    );
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(recovered_records(observer.synced_bytes()), 2);
    });
}

#[test]
fn seeded_ack_before_sync_is_caught() {
    // The same protocol with the guard removed: the appender "acks" its
    // ticket without waiting for the syncer. Some interleaving acks a
    // record the device has not made durable, and the checker finds it.
    assert!(fails(|| {
        #[derive(Default)]
        struct Dev {
            appended: u64,
            synced: u64,
        }
        let dev = Arc::new(Mutex::new(Dev::default()));
        let syncer = {
            let dev = Arc::clone(&dev);
            thread::spawn(move || {
                let mut d = dev.lock().unwrap();
                d.synced = d.appended;
            })
        };
        let ticket = {
            let mut d = dev.lock().unwrap();
            d.appended += 1;
            d.appended
        };
        // BUG: ack here, without waiting for the sync to cover us.
        let d = dev.lock().unwrap();
        assert!(d.synced >= ticket, "acked ticket {ticket} not durable");
        drop(d);
        syncer.join().unwrap();
    }));
}

// ---------------------------------------------------------------------
// Model 2: a failed group sync rolls back the whole batch — nothing is
// acked and recovery finds zero unacknowledged records.
// ---------------------------------------------------------------------

#[test]
fn group_commit_failed_sync_acks_nothing() {
    loom::model(|| {
        let observer = MemFile::new();
        // Sync #1 is the fresh log's header; every group sync fails.
        observer.fail_sync_from(2);
        let gc = Arc::new(group_wal_on(&observer, FsyncPolicy::Always));
        let handles: Vec<_> = (0..2u64)
            .map(|i| {
                let gc = Arc::clone(&gc);
                thread::spawn(move || {
                    // The append may already be refused (another batch
                    // broke the log first); an accepted one must then
                    // fail its durability wait. No schedule acks.
                    if let Ok(ticket) = gc.append(0, &admit_op(i)) {
                        gc.wait_durable(ticket)
                            .expect_err("no ticket survives a failed group sync");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(gc.is_broken(), "a failed sync must break the log");
        drop(gc);
        // Whole-batch rollback: neither the durable prefix nor the raw
        // file holds a record nobody was acked for.
        assert_eq!(recovered_records(observer.synced_bytes()), 0);
        assert_eq!(recovered_records(observer.bytes()), 0);
    });
}

// ---------------------------------------------------------------------
// Model 3: concurrent admits on the one write path linearize to journal
// order — its serial replay reproduces the live state bit-for-bit.
// ---------------------------------------------------------------------

#[test]
fn concurrent_admits_linearize_to_journal_order() {
    loom::model(|| {
        let svc = Arc::new(AdmissionService::new(Mesh::mesh2d(8, 8)));
        // Same row: the two admissions share links, so whichever takes
        // the write lock second is analyzed against the first. Both
        // streams are feasible together in either order.
        let lines = [((0, 0), (5, 0), 2), ((1, 0), (6, 0), 1)];
        let handles: Vec<_> = lines
            .into_iter()
            .map(|(src, dst, priority)| {
                let svc = Arc::clone(&svc);
                thread::spawn(move || {
                    let r = svc.admit(0, src, dst, priority, 200, 4, None);
                    assert!(
                        matches!(r, rtwc_server::protocol::Response::Admitted { .. }),
                        "feasible pair must admit in every schedule: {r:?}"
                    );
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // The commit-point audit: cached bounds equal a fresh offline
        // analysis, and the journal replays to the same bounds.
        svc.audit().expect("cached bounds match offline analysis");
        let replayed = replay(svc.mesh(), &svc.ops()).expect("journal replays serially");
        for (i, (_, live)) in svc.bounds_by_handle().into_iter().enumerate() {
            assert_eq!(
                replayed.bound(StreamId(i as u32)).value(),
                Some(live),
                "replay diverged from live state at dense id {i}"
            );
        }
    });
}

#[test]
fn seeded_write_from_a_stale_read_is_caught() {
    // The write path with the decision moved out of the exclusive
    // section: read a value under one lock hold, then blindly install
    // the derived result under another. The classic lost update — two
    // increments, final value 1 — exists in some interleaving.
    assert!(fails(|| {
        let cell = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let cell = Arc::clone(&cell);
                thread::spawn(move || {
                    // "Decide": derive the new state from a snapshot.
                    let derived = *cell.lock().unwrap() + 1;
                    // BUG: "apply" under a second lock hold, without
                    // checking the snapshot is still current.
                    *cell.lock().unwrap() = derived;
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*cell.lock().unwrap(), 2, "lost update");
    }));
}
