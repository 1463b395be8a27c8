//! Concurrent admission soundness: N client threads fire interleaved
//! `ADMIT` / `REMOVE` / `QUERY` traffic at one server, and the final
//! admitted set must be **bit-identical** to a serial replay of the
//! accepted operations — the one reactor thread that owns the service
//! serves every connection's requests in some serial order.

use rtwc_core::{DelayBound, StreamId, StreamSpec};
use rtwc_server::faultfs::RealFile;
use rtwc_server::service::AcceptedOp;
use rtwc_server::wal::WAL_FILE;
use rtwc_server::{replay, AdmissionService, Client, FsyncPolicy, GroupWal, Server, Wal};
use std::thread;
use wormnet_topology::{Mesh, NodeId};

fn extract_u64(json: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = json.find(&pat)? + pat.len();
    let rest = &json[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts `key` out of a nested `"block":{...}` object of `json`.
fn extract_block_u64(json: &str, block: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{block}\":{{");
    let start = json.find(&pat)? + pat.len();
    let inner = &json[start..start + json[start..].find('}')?];
    extract_u64(inner, key)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// N client threads fire interleaved traffic at one server, then the
/// final state must equal both a serial replay of the journal and a
/// from-scratch offline rebuild.
#[test]
fn concurrent_clients_serialize_to_an_identical_replay() {
    const CLIENTS: usize = 8;
    const OPS: usize = 120;
    let service = AdmissionService::new(Mesh::mesh2d(10, 10));
    let server = Server::bind(service, "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle().unwrap();
    let server_thread = thread::spawn(move || server.run());

    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let addr = addr.clone();
            thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                let mut rng = 0x00c0_ffee ^ (i as u64) << 17;
                let mut own: Vec<u64> = Vec::new();
                for _ in 0..OPS {
                    let roll = splitmix64(&mut rng) % 10;
                    if roll < 5 || own.is_empty() {
                        // Random admit; rejections are expected and fine.
                        let sx = splitmix64(&mut rng) % 10;
                        let sy = splitmix64(&mut rng) % 10;
                        let mut dx = splitmix64(&mut rng) % 10;
                        let dy = splitmix64(&mut rng) % 10;
                        if (dx, dy) == (sx, sy) {
                            dx = (dx + 1) % 10;
                        }
                        let pr = 1 + splitmix64(&mut rng) % 4;
                        let period = 50 + splitmix64(&mut rng) % 400;
                        let len = 2 + splitmix64(&mut rng) % 6;
                        let reply = c
                            .send(&format!("ADMIT {sx},{sy} {dx},{dy} {pr} {period} {len}"))
                            .unwrap();
                        if reply.contains("\"status\":\"admitted\"") {
                            own.push(extract_u64(&reply, "id").unwrap());
                        }
                    } else if roll < 7 {
                        let idx = (splitmix64(&mut rng) % own.len() as u64) as usize;
                        let h = own.swap_remove(idx);
                        let reply = c.send(&format!("REMOVE {h}")).unwrap();
                        assert!(
                            reply.contains("\"status\":\"removed\""),
                            "own handle must remove cleanly: {reply}"
                        );
                    } else {
                        // Query a random own handle; it must still be
                        // admitted (only this client removes it) and
                        // its bound must respect the deadline.
                        let h = own[(splitmix64(&mut rng) % own.len() as u64) as usize];
                        let reply = c.send(&format!("QUERY {h}")).unwrap();
                        assert!(reply.contains("\"status\":\"ok\""), "{reply}");
                        let bound = extract_u64(&reply, "bound").unwrap();
                        let deadline = extract_u64(&reply, "deadline").unwrap();
                        assert!(bound <= deadline, "served bound violates deadline: {reply}");
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let stats = Client::connect(&addr).unwrap().send("STATS").unwrap();
    handle.shutdown();
    // The server hands its service back at shutdown.
    let service = server_thread.join().unwrap().unwrap();

    // Serial replay of the accepted-op journal must reproduce the live
    // bounds bit for bit, in the same (dense) order.
    let live = service.bounds_by_handle();
    assert!(!live.is_empty(), "workload should leave streams admitted");
    let replayed = replay(service.mesh(), &service.ops()).unwrap();
    assert_eq!(replayed.len(), live.len());
    for (i, &(handle, bound)) in live.iter().enumerate() {
        assert_eq!(
            replayed.bound(StreamId(i as u32)),
            DelayBound::Bounded(bound),
            "handle {handle} diverged from serial replay"
        );
    }

    // And the served bounds must equal a fresh offline analysis — the
    // from-scratch rebuild agrees with both the live state and the
    // replay above.
    let audited = service.audit().expect("offline audit");
    assert_eq!(audited, live.len());

    // Histogram split: every request lands in the total latency
    // histogram and, served off the reactor's queue, records a queue
    // wait too; each recorded wait is a slice of some total, so the
    // tail of the total histogram dominates both splits.
    let total = extract_block_u64(&stats, "latency_us", "count").unwrap();
    let queued = extract_block_u64(&stats, "queue_us", "count").unwrap();
    assert!(
        total >= (CLIENTS * OPS) as u64,
        "every request must be observed: {stats}"
    );
    assert_eq!(
        queued, total,
        "every request is served off the queue: {stats}"
    );
    let max_total = extract_block_u64(&stats, "latency_us", "max").unwrap();
    assert!(
        extract_block_u64(&stats, "queue_us", "max").unwrap() <= max_total,
        "{stats}"
    );
    assert!(
        extract_block_u64(&stats, "service_us", "max").unwrap() <= max_total,
        "{stats}"
    );
}

/// A [`GroupWal`] wrapped around a *reopened* log must serve the full
/// history's sequence number, not just this process's appends — the
/// leader/follower ticket math and snapshot `seq` stamps both build on
/// it. (Regression test: `GroupWal::new` used to subtract the reopened
/// records from `Wal::seq`, double-discounting them.)
#[test]
fn groupwal_seq_counts_reopened_records() {
    let dir = rtwc_server::scratch_dir("seq-probe");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(WAL_FILE);

    let open = || {
        Wal::open(
            Box::new(RealFile::open(&path).unwrap()),
            FsyncPolicy::Always,
        )
    };
    let (mut wal, _) = open().unwrap();
    for i in 0..3u64 {
        let op = AcceptedOp::Admit {
            handle: i,
            spec: StreamSpec::new(NodeId(i as u32), NodeId(i as u32 + 1), 2, 50, 4, 50),
        };
        wal.append(0, &op).unwrap();
    }
    assert_eq!(wal.seq(), 3);
    drop(wal);

    // Reopen (simulating recovery) and wrap in the group committer:
    // the next append must become operation 4.
    let (wal, opened) = open().unwrap();
    assert_eq!(opened.records.len(), 3);
    assert_eq!(wal.seq(), 3, "raw wal seq counts the reopened history");
    let gc = GroupWal::new(wal);
    assert_eq!(gc.seq(), 3, "GroupWal seq must match the recovered history");

    let _ = std::fs::remove_dir_all(&dir);
}
