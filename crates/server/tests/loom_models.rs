//! Bounded-exhaustive concurrency models of the reactor core, run under
//! `RUSTFLAGS="--cfg loom" cargo test -p rtwc-server --test loom_models`.
//!
//! Each model drives the *real* production type — [`GroupWal`] over an
//! in-memory [`MemFile`], the one structure two threads share (the
//! reactor appends and syncs, the interval flusher syncs) — through
//! every interleaving the checker's preemption budget allows, asserting
//! the invariants DESIGN.md's "Concurrency verification" section
//! inventories:
//!
//! - **durable-before-ack**: at the moment `wait_durable` acks a
//!   ticket under `--fsync always`, a crash (the synced prefix of the
//!   device) already preserves that ticket's record;
//! - **whole-batch rollback**: a failed group sync acks nothing and
//!   leaves zero unacknowledged records for recovery to find.
//!
//! There is no model of concurrent admissions: the
//! [`rtwc_server::AdmissionService`] is not `Sync`, so two threads
//! cannot call its write path at once (a `compile_fail` doctest on the
//! type keeps it that way), and one thread runs each write to
//! completion.
//!
//! Alongside each model sits a `seeded_*` test: a minimal replica of
//! the protocol with the guard deliberately removed (ack before sync),
//! wrapped in `catch_unwind` to prove the checker actually finds the
//! interleaving that breaks it — the models are load-bearing, not
//! vacuous.
#![cfg(loom)]

use rtwc_core::StreamSpec;
use rtwc_server::faultfs::MemFile;
use rtwc_server::group_commit::GroupWal;
use rtwc_server::service::AcceptedOp;
use rtwc_server::sync::{thread, Arc, Mutex};
use rtwc_server::wal::{FsyncPolicy, Wal};
use std::panic::{catch_unwind, AssertUnwindSafe};
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
