//! Crash-recovery properties of the durable service.
//!
//! The headline property: **a crash at ANY byte offset of the WAL
//! recovers to a state bit-identical to a serial replay of the
//! surviving acknowledged prefix.** The history is generated once
//! through the real durable service; each proptest case then truncates
//! a copy of the log at an arbitrary offset and runs full recovery.
//!
//! Also here: under every fsync policy, every op a running server has
//! acknowledged is in the WAL file, so a `kill -9` loses none; and the
//! end-to-end idempotency guarantee — a duplicate `@REQID ADMIT` over
//! TCP returns the original outcome and does not create a second
//! stream.

use proptest::prelude::*;
use rtwc_core::StreamId;
use rtwc_server::{
    recover, replay, AcceptedOp, AdmissionService, Client, Durability, FsyncPolicy, GroupWal,
    Request, Response, Server,
};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::thread;
use wormnet_topology::{Mesh, Topology};

const WAL_HEADER_BYTES: usize = 16;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtwc-crashrec-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn mesh() -> Mesh {
    Mesh::mesh2d(10, 10)
}

/// Drives a real durable service once and returns the raw WAL bytes
/// plus the acknowledged operations, in order. Cached: every proptest
/// case cuts the same history at a different offset.
fn history() -> &'static (Vec<u8>, Vec<AcceptedOp>) {
    static HISTORY: OnceLock<(Vec<u8>, Vec<AcceptedOp>)> = OnceLock::new();
    HISTORY.get_or_init(|| {
        let dir = tmpdir("history");
        let m = mesh();
        let (state, wal, _) = recover(&m, &dir, FsyncPolicy::Never).unwrap();
        let service = AdmissionService::with_durability(
            m.clone(),
            state,
            Durability {
                dir: dir.clone(),
                wal: GroupWal::new(wal),
                snapshot_every: 0,
            },
        );
        let mut acked = Vec::new();
        let mut owned: Vec<u64> = Vec::new();
        for i in 0..14u64 {
            let row = (i % 9) as u32;
            if i % 5 == 4 {
                let victim = owned[owned.len() / 2];
                match service.handle(&Request::Remove {
                    req_id: 100 + i,
                    id: victim,
                }) {
                    Response::Removed { id } => {
                        acked.push(AcceptedOp::Remove { handle: id });
                        owned.retain(|&h| h != id);
                    }
                    other => panic!("remove refused: {other:?}"),
                }
            } else {
                let resp = service.handle(&Request::Admit {
                    req_id: 100 + i,
                    src: (0, row),
                    dst: (5 + (i % 4) as u32, row),
                    priority: 1 + (i % 4) as u32,
                    period: 150 + 13 * i,
                    length: 2 + i % 5,
                    deadline: None,
                });
                match resp {
                    Response::Admitted { id, .. } => {
                        let spec = rtwc_core::StreamSpec::new(
                            m.node_at(&[0, row]).unwrap(),
                            m.node_at(&[5 + (i % 4) as u32, row]).unwrap(),
                            1 + (i % 4) as u32,
                            150 + 13 * i,
                            2 + i % 5,
                            150 + 13 * i,
                        );
                        acked.push(AcceptedOp::Admit { handle: id, spec });
                        owned.push(id);
                    }
                    other => panic!("admit refused: {other:?}"),
                }
            }
        }
        service.flush();
        drop(service);
        let bytes = std::fs::read(dir.join("wal.log")).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        (bytes, acked)
    })
}

/// `(handle, bound)` pairs for a serial replay of `ops`, dense order.
fn serial_pairs(ops: &[AcceptedOp]) -> Vec<(u64, u64)> {
    let arcs: Vec<Arc<AcceptedOp>> = ops.iter().cloned().map(Arc::new).collect();
    let ctl = replay(&mesh(), &arcs).unwrap();
    let mut handles: Vec<u64> = Vec::new();
    for op in ops {
        match op {
            AcceptedOp::Admit { handle, .. } => handles.push(*handle),
            AcceptedOp::Remove { handle } => {
                let i = handles.iter().position(|h| h == handle).unwrap();
                handles.remove(i);
            }
        }
    }
    handles
        .iter()
        .enumerate()
        .map(|(i, &h)| (h, ctl.bound(StreamId(i as u32)).value().unwrap()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Crash anywhere: recovery lands exactly on the serial replay of
    /// whatever acked prefix physically survived — never a hole, never
    /// a divergent bound, never a silent acceptance of garbage.
    #[test]
    fn crash_at_any_wal_byte_offset_recovers_the_serial_prefix(cut_frac in 0u64..=10_000) {
        let (bytes, acked) = history();
        let cut = (cut_frac as usize * bytes.len()) / 10_000;
        let dir = tmpdir(&format!("cut-{cut}"));
        std::fs::write(dir.join("wal.log"), &bytes[..cut]).unwrap();
        let result = recover(&mesh(), &dir, FsyncPolicy::Always);
        if cut == 0 {
            // An empty file is a fresh log, not a crash artifact.
            let (state, _, _) = result.unwrap();
            prop_assert!(state.handles().is_empty());
        } else if cut < WAL_HEADER_BYTES {
            // A torn header is unrecoverable and must be *reported*,
            // not silently treated as an empty history.
            prop_assert!(result.is_err());
        } else {
            let (state, _, report) = result.unwrap();
            let survived = report.wal_records;
            prop_assert!(survived <= acked.len());
            let expected = serial_pairs(&acked[..survived]);
            let got = state.bounds_by_handle();
            prop_assert_eq!(got, expected, "cut at byte {} of {}", cut, bytes.len());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `kill -9` loses no acknowledged op, under any policy: a server acks
/// a pipelined burst, and the WAL file as it stands — read while the
/// server still runs, before any shutdown flush or further sync, which
/// is what a killed process leaves in the page cache — recovers every
/// acknowledged admission.
#[test]
fn a_killed_server_has_written_every_acked_op_under_every_policy() {
    for label in ["always", "interval:5", "never"] {
        let policy = FsyncPolicy::parse(label).unwrap();
        let dir = tmpdir(&format!("kill9-{}", label.replace(':', "-")));
        let (state, wal, _) = recover(&mesh(), &dir, policy).unwrap();
        let service = AdmissionService::with_durability(
            mesh(),
            state,
            Durability {
                dir: dir.clone(),
                wal: GroupWal::new(wal),
                snapshot_every: 0,
            },
        );
        let server = Server::bind(service, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let stop = server.shutdown_handle().unwrap();
        let join = thread::spawn(move || server.run());

        let burst: Vec<String> = (0..60u32)
            .map(|i| format!("ADMIT 0,{} {},{} 1 2000 2", i % 10, 1 + i / 10, i % 10))
            .collect();
        let replies = Client::connect(&addr)
            .unwrap()
            .send_pipelined(&burst)
            .unwrap();
        let mut acked: Vec<u64> = replies
            .iter()
            .filter(|r| r.contains("\"status\":\"admitted\""))
            .map(|r| {
                let at = r.find("\"id\":").unwrap() + 5;
                let digits = r[at..].split(|c: char| !c.is_ascii_digit()).next();
                digits.unwrap().parse().unwrap()
            })
            .collect();
        assert!(acked.len() >= 50, "{label}: the burst admits: {replies:?}");

        // The "crash": copy the file as it stands and recover the copy.
        let crashed = tmpdir(&format!("kill9-{}-copy", label.replace(':', "-")));
        std::fs::copy(dir.join("wal.log"), crashed.join("wal.log")).unwrap();
        let (state, _, report) = recover(&mesh(), &crashed, FsyncPolicy::Always).unwrap();
        acked.sort_unstable();
        assert_eq!(
            state.handles(),
            acked,
            "{label}: {} acked, {} recovered",
            acked.len(),
            report.wal_records
        );

        stop.shutdown();
        join.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&crashed).ok();
    }
}

/// The end-to-end idempotency guarantee: a duplicate `@REQID ADMIT`
/// over TCP (the client's retry after a lost acknowledgement) returns
/// the original outcome verbatim and leaves the admitted set and the
/// accepted-op count untouched.
#[test]
fn duplicate_admit_request_id_replays_the_original_outcome() {
    let server = Server::bind(AdmissionService::new(mesh()), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let server_thread = thread::spawn(move || server.run());

    let mut client = Client::connect(&addr).unwrap();
    let first = client.send_idempotent(7, "ADMIT 0,0 5,0 2 50 4").unwrap();
    assert!(first.contains("\"status\":\"admitted\""), "{first}");

    // The retry: same request id, bit-identical answer, no new stream.
    let second = client.send_idempotent(7, "ADMIT 0,0 5,0 2 50 4").unwrap();
    assert_eq!(first, second, "replay must be the original outcome");
    let stats = client.send("STATS").unwrap();
    assert!(stats.contains("\"streams\":1"), "{stats}");
    // The accepted-op counter sees one fresh admission; the retry is
    // accounted separately as a replay.
    assert!(stats.contains("\"admitted\":1"), "{stats}");
    assert!(stats.contains("\"replayed\":1"), "{stats}");

    // Reusing the id for a *different* kind is refused, not replayed.
    let reuse = client.send("@7 REMOVE 0").unwrap();
    assert!(reuse.contains("\"code\":\"req_id_reuse\""), "{reuse}");

    // A fresh id still admits normally.
    let third = client.send_idempotent(8, "ADMIT 0,1 5,1 2 50 4").unwrap();
    assert!(third.contains("\"status\":\"admitted\""), "{third}");

    client.send("SHUTDOWN").unwrap();
    let service = server_thread.join().unwrap().unwrap();
    // Two fresh admissions were accepted; the retry added nothing.
    assert_eq!(service.seq(), 2, "no accepted op for the replay");
    assert_eq!(service.admitted_count(), 2);
}
