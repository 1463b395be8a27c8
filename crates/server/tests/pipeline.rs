//! Pipelining properties of the reactor front end.
//!
//! A client may write K newline-delimited requests in one TCP segment
//! without reading; the server must come back with exactly K responses
//! **in request order** (the reactor answers each connection's lines in
//! arrival order). The proptest then interleaves pipelined
//! `ADMIT`/`REMOVE` bursts across several connections and checks the
//! strongest soundness bar the service offers: the final admitted set
//! is bit-identical to a serial replay of the accepted-op journal and
//! to a fresh offline rebuild.

use proptest::prelude::*;
use rtwc_core::{DelayBound, StreamId};
use rtwc_server::{replay, AdmissionService, Client, Server};
use std::io::Write;
use std::net::TcpStream;
use std::thread;
use wormnet_topology::Mesh;

fn extract_u64(json: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = json.find(&pat)? + pat.len();
    let rest = &json[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn spawn_server() -> (
    String,
    rtwc_server::ShutdownHandle,
    thread::JoinHandle<std::io::Result<AdmissionService>>,
) {
    let service = AdmissionService::new(Mesh::mesh2d(10, 10));
    let server = Server::bind(service, "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle().unwrap();
    let join = thread::spawn(move || server.run());
    (addr, handle, join)
}

/// K requests in ONE TCP segment, zero reads in between: exactly K
/// responses come back, in request order. The requests are chosen so
/// each response is distinguishable (distinct ids / kinds), proving
/// order rather than just count.
#[test]
fn one_segment_of_k_requests_yields_k_ordered_responses() {
    let (addr, handle, join) = spawn_server();
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();
    // Admits on distinct rows admit independently; the trailing QUERY
    // and REMOVE reference the stream admitted *earlier in the same
    // segment*, so they only succeed if served strictly in order.
    let segment = b"ADMIT 0,0 5,0 2 100 4\n\
                    ADMIT 0,1 5,1 2 100 4\n\
                    QUERY 0\n\
                    REMOVE 1\n\
                    QUERY 1\n";
    stream.write_all(segment).unwrap();
    let mut reader = std::io::BufReader::new(stream);
    let mut lines = Vec::new();
    for _ in 0..5 {
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
        assert!(line.ends_with('\n'), "truncated response: {line:?}");
        lines.push(line.trim().to_string());
    }
    assert!(
        lines[0].contains("\"status\":\"admitted\"") && lines[0].contains("\"id\":0"),
        "{lines:?}"
    );
    assert!(
        lines[1].contains("\"status\":\"admitted\"") && lines[1].contains("\"id\":1"),
        "{lines:?}"
    );
    assert!(
        lines[2].contains("\"status\":\"ok\"") && lines[2].contains("\"id\":0"),
        "{lines:?}"
    );
    assert!(
        lines[3].contains("\"status\":\"removed\"") && lines[3].contains("\"id\":1"),
        "{lines:?}"
    );
    // Stream 1 is gone by the time the last QUERY runs.
    assert!(lines[4].contains("\"code\":\"unknown_id\""), "{lines:?}");
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// A malformed and an overlong line in the middle of a pipelined burst
/// keep their place in the response order.
#[test]
fn error_responses_keep_their_place_in_the_pipeline() {
    let (addr, handle, join) = spawn_server();
    let mut stream = TcpStream::connect(&addr).unwrap();
    let big = "x".repeat(rtwc_server::MAX_LINE_BYTES + 8);
    let segment = format!("STATS\nFROB 1\n{big}\nSTATS\n");
    stream.write_all(segment.as_bytes()).unwrap();
    let mut reader = std::io::BufReader::new(stream);
    let mut lines = Vec::new();
    for _ in 0..4 {
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
        lines.push(line.trim().to_string());
    }
    assert!(lines[0].contains("\"status\":\"ok\""), "{lines:?}");
    assert!(lines[1].contains("\"status\":\"error\""), "{lines:?}");
    assert!(lines[2].contains("\"code\":\"too_long\""), "{lines:?}");
    assert!(lines[3].contains("\"status\":\"ok\""), "{lines:?}");
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// One pipelined connection driven by `seed`: bursts of ADMIT/REMOVE
/// (removes target handles owned by this connection), every burst sent
/// as a single write. Panics (failing the test) if responses come back
/// out of order with respect to what this connection sent.
fn drive_pipelined(addr: &str, mut seed: u64, bursts: usize, window: usize) {
    let mut c = Client::connect(addr).unwrap();
    let mut own: Vec<u64> = Vec::new();
    for _ in 0..bursts {
        let mut lines = Vec::with_capacity(window);
        let mut expects_remove = Vec::with_capacity(window);
        for _ in 0..window {
            if splitmix64(&mut seed).is_multiple_of(4) && !own.is_empty() {
                let i = (splitmix64(&mut seed) % own.len() as u64) as usize;
                let h = own.swap_remove(i);
                lines.push(format!("REMOVE {h}"));
                expects_remove.push(Some(h));
            } else {
                let sx = splitmix64(&mut seed) % 10;
                let sy = splitmix64(&mut seed) % 10;
                let mut dx = splitmix64(&mut seed) % 10;
                let dy = splitmix64(&mut seed) % 10;
                if (dx, dy) == (sx, sy) {
                    dx = (dx + 1) % 10;
                }
                let pr = 1 + splitmix64(&mut seed) % 4;
                let period = 60 + splitmix64(&mut seed) % 400;
                let len = 2 + splitmix64(&mut seed) % 6;
                lines.push(format!("ADMIT {sx},{sy} {dx},{dy} {pr} {period} {len}"));
                expects_remove.push(None);
            }
        }
        let replies = c.send_pipelined(&lines).unwrap();
        assert_eq!(replies.len(), lines.len());
        for (expect, reply) in expects_remove.iter().zip(&replies) {
            match expect {
                // A REMOVE of an own handle must succeed AND answer in
                // its slot — an out-of-order response would surface
                // here as a mismatched id or a wrong status.
                Some(h) => {
                    assert!(reply.contains("\"status\":\"removed\""), "{reply}");
                    assert_eq!(extract_u64(reply, "id"), Some(*h), "{reply}");
                }
                None => {
                    if reply.contains("\"status\":\"admitted\"") {
                        own.push(extract_u64(reply, "id").unwrap());
                    } else {
                        assert!(reply.contains("\"status\":\"rejected\""), "{reply}");
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Interleaved pipelined ADMIT/REMOVE across connections: whatever
    /// order the reactor interleaves the bursts in, the accepted-op
    /// journal replays serially to the exact live state, and a fresh
    /// offline rebuild agrees.
    #[test]
    fn interleaved_pipelined_bursts_replay_bit_identical(
        seed in 0u64..=u64::MAX,
        bursts in 2usize..5,
        window in 2usize..7,
    ) {
        let (addr, handle, join) = spawn_server();
        let conns = 3usize;
        let drivers: Vec<_> = (0..conns)
            .map(|i| {
                let addr = addr.clone();
                let seed = seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                thread::spawn(move || drive_pipelined(&addr, seed, bursts, window))
            })
            .collect();
        for d in drivers {
            d.join().unwrap();
        }
        handle.shutdown();
        let service = join.join().unwrap().unwrap();

        let live = service.bounds_by_handle();
        let replayed = replay(service.mesh(), &service.ops()).unwrap();
        prop_assert_eq!(replayed.len(), live.len());
        for (i, &(handle_id, bound)) in live.iter().enumerate() {
            prop_assert_eq!(
                replayed.bound(StreamId(i as u32)),
                DelayBound::Bounded(bound),
                "handle {} diverged from serial replay",
                handle_id
            );
        }
        let audited = service.audit().expect("offline audit");
        prop_assert_eq!(audited, live.len());
    }
}
