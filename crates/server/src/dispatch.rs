//! The reactor's per-connection state machine, separated from the
//! sockets so tests can drive it byte by byte: the line splitter, the
//! response-order queue, and the hold a durable write puts on it.
//!
//! `server.rs` owns the epoll loop and the TCP byte shuffling; a
//! [`Session`] owns everything between bytes in and bytes out. The
//! reactor thread runs every request to completion: [`Session::run`]
//! parses each queued line, calls the service and renders the response
//! into the connection's write buffer, in arrival order. The invariants
//! (checked by this module's tests):
//!
//! - every request line is answered exactly once, in arrival order;
//! - an overlong line's `too_long` answer never overtakes an earlier
//!   line's response;
//! - under `--fsync always`, a write's acknowledgement — and every line
//!   the connection sent after it — waits until the reactor's
//!   end-of-pass group sync covers the write's WAL ticket
//!   ([`Session::release`]).

use crate::protocol::{render_response, Response, MAX_LINE_BYTES};
use crate::service::AdmissionService;
use crate::sync::Instant;
use std::collections::VecDeque;

/// One entry in a session's response-order queue.
enum Pending {
    /// A request line awaiting dispatch, with the instant the splitter
    /// cut it (queue-wait metrics).
    Line { text: String, split: Instant },
    /// An answer decided by the splitter (`too_long`) that must wait its
    /// turn behind earlier requests.
    Immediate(Response),
}

/// Per-connection request state: the line splitter, the queue of
/// not-yet-answered entries, and the write held for a group sync.
#[derive(Default)]
pub struct Session {
    /// Bytes of the current (incomplete) request line.
    rbuf: Vec<u8>,
    /// Skipping the tail of an overlong line until its newline.
    discarding: bool,
    /// Entries not yet answered, in arrival order.
    queue: VecDeque<Pending>,
    /// A write served under `--fsync always` whose acknowledgement waits
    /// for its WAL ticket; nothing behind it moves until
    /// [`Session::release`].
    held: Option<(u64, Response)>,
}

fn push_response(out: &mut Vec<u8>, response: &Response) {
    out.extend_from_slice(render_response(response).as_bytes());
    out.push(b'\n');
}

impl Session {
    /// An empty session.
    pub fn new() -> Session {
        Session::default()
    }

    /// The line splitter. At most [`MAX_LINE_BYTES`] (+1 sentinel byte
    /// to detect overflow) accumulate per request; an overlong line
    /// queues a `too_long` answer in its slot and discards through the
    /// next newline, keeping the connection.
    pub fn ingest(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            let newline = data.iter().position(|&b| b == b'\n');
            if self.discarding {
                match newline {
                    Some(p) => {
                        self.discarding = false;
                        data = &data[p + 1..];
                        continue;
                    }
                    None => return,
                }
            }
            let end = newline.unwrap_or(data.len());
            let room = (MAX_LINE_BYTES + 1).saturating_sub(self.rbuf.len());
            self.rbuf.extend_from_slice(&data[..end.min(room)]);
            let Some(p) = newline else {
                if self.rbuf.len() > MAX_LINE_BYTES {
                    // Overflow mid-line: answer in order, skip to the
                    // newline.
                    self.push_too_long();
                    self.rbuf.clear();
                    self.discarding = true;
                }
                return;
            };
            if self.rbuf.len() > MAX_LINE_BYTES {
                self.push_too_long();
            } else {
                let text = String::from_utf8_lossy(&self.rbuf);
                let request = text.trim();
                if !request.is_empty() {
                    self.queue.push_back(Pending::Line {
                        text: request.to_string(),
                        split: Instant::now(),
                    });
                }
            }
            self.rbuf.clear();
            data = &data[p + 1..];
        }
    }

    fn push_too_long(&mut self) {
        self.queue.push_back(Pending::Immediate(Response::error(
            "too_long",
            format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        )));
    }

    /// Answers queued entries in order into `out` until the queue is
    /// empty or a write's acknowledgement must wait for its WAL sync.
    /// Returns whether a `SHUTDOWN` was served.
    pub fn run(&mut self, service: &AdmissionService, out: &mut Vec<u8>) -> bool {
        let mut stop = false;
        while self.held.is_none() {
            match self.queue.pop_front() {
                None => break,
                Some(Pending::Immediate(response)) => push_response(out, &response),
                Some(Pending::Line { text, split }) => {
                    let queue_ns = split.elapsed().as_nanos() as u64;
                    let served = service.dispatch_queued(&text, queue_ns);
                    stop |= served.shutdown;
                    match served.ticket {
                        Some(ticket) => self.held = Some((ticket, served.response)),
                        None => push_response(out, &served.response),
                    }
                }
            }
        }
        stop
    }

    /// A write's acknowledgement is waiting for a group sync.
    pub fn is_held(&self) -> bool {
        self.held.is_some()
    }

    /// Lands the held acknowledgement in `out` once its ticket is
    /// durable — the first release after a pass runs the one group sync
    /// that covers every write appended so far — or the `wal` refusal if
    /// that sync failed. Call [`Session::run`] afterwards to serve what
    /// queued up behind it.
    pub fn release(&mut self, service: &AdmissionService, out: &mut Vec<u8>) {
        if let Some((ticket, ack)) = self.held.take() {
            push_response(out, &service.settle(ack, Some(ticket)));
        }
    }

    /// Nothing queued and nothing held.
    pub fn is_idle(&self) -> bool {
        self.held.is_none() && self.queue.is_empty()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::chaos::durable_service;
    use crate::faultfs::{scratch_dir, FailpointFile, FaultPlan, FaultState};
    use crate::recovery::recover;
    use crate::wal::{FsyncPolicy, WAL_FILE};
    use std::path::PathBuf;
    use std::sync::Arc;
    use wormnet_topology::Mesh;

    /// A `--fsync always` service over a WAL with `plan`'s faults.
    fn always_service(tag: &str, plan: FaultPlan) -> (AdmissionService, Arc<FaultState>, PathBuf) {
        let dir = scratch_dir(tag);
        std::fs::create_dir_all(&dir).unwrap();
        let fault = Arc::new(FaultState::default());
        let file = FailpointFile::open(&dir.join(WAL_FILE), plan, Arc::clone(&fault)).unwrap();
        let svc = durable_service(
            &Mesh::mesh2d(10, 10),
            &dir,
            FsyncPolicy::Always,
            0,
            Box::new(file),
        )
        .unwrap();
        (svc, fault, dir)
    }

    fn lines(out: &[u8]) -> Vec<String> {
        String::from_utf8_lossy(out)
            .lines()
            .map(str::to_string)
            .collect()
    }

    /// One connection as the reactor sees it: a session and the bytes
    /// it has answered.
    #[derive(Default)]
    struct Conn {
        session: Session,
        out: Vec<u8>,
    }

    /// One reactor pass: every connection with input ingests its chunk
    /// and runs, then the held writes are released (one group sync) and
    /// their connections run on — the order `Reactor` uses. Returns
    /// whether a `SHUTDOWN` was served.
    fn pass(svc: &AdmissionService, conns: &mut [Conn], chunks: &[Option<&[u8]>]) -> bool {
        let mut stop = false;
        for (c, chunk) in conns.iter_mut().zip(chunks) {
            if let Some(bytes) = chunk {
                c.session.ingest(bytes);
                stop |= c.session.run(svc, &mut c.out);
            }
        }
        for c in conns.iter_mut().filter(|c| c.session.is_held()) {
            c.session.release(svc, &mut c.out);
            stop |= c.session.run(svc, &mut c.out);
        }
        stop
    }

    #[test]
    fn interleaved_bursts_are_answered_once_in_order_per_connection() {
        let (svc, _, dir) = always_service("order", FaultPlan::default());
        let long = "x".repeat(MAX_LINE_BYTES + 10);
        // Connection 0 sends a write, a read of it and the head of an
        // overlong line in one chunk, so the splitter queues `too_long`
        // behind a held write. Connection 1 sends its overlong line in
        // small chunks between writes of its own.
        let a = format!("ADMIT 0,0 5,0 2 100 4\nQUERY 0\n{long}\nSTATS\nFROB\nREMOVE 0\n");
        let b = format!("ADMIT 0,1 5,1 2 100 4\n{long}\nQUERY 1\nREMOVE 1\nQUERY 1\n");
        let cut = a.find('x').unwrap() + MAX_LINE_BYTES + 5;
        let a_chunks: Vec<&[u8]> = vec![&a.as_bytes()[..cut], &a.as_bytes()[cut..]];
        let b_chunks: Vec<&[u8]> = b.as_bytes().chunks(64 * 1024 + 7).collect();
        let mut conns = [Conn::default(), Conn::default()];
        for i in 0..a_chunks.len().max(b_chunks.len()) {
            let chunks = [a_chunks.get(i).copied(), b_chunks.get(i).copied()];
            assert!(!pass(&svc, &mut conns, &chunks), "no SHUTDOWN sent yet");
        }
        // Last, a SHUTDOWN on connection 0, after connection 1 is done.
        assert!(conns[1].session.is_idle());
        assert!(pass(&svc, &mut conns, &[Some(b"SHUTDOWN\n"), None]));

        let want: [&[&str]; 2] = [
            &[
                "\"status\":\"admitted\"",
                "\"status\":\"ok\",\"id\":0",
                "\"code\":\"too_long\"",
                "\"stats\"",
                "\"code\":\"malformed\"",
                "\"status\":\"removed\",\"id\":0",
                "shutting-down",
            ],
            &[
                "\"status\":\"admitted\"",
                "\"code\":\"too_long\"",
                "\"status\":\"ok\",\"id\":1",
                "\"status\":\"removed\",\"id\":1",
                "\"code\":\"unknown_id\"",
            ],
        ];
        for (c, want) in conns.iter().zip(want) {
            let got = lines(&c.out);
            assert_eq!(got.len(), want.len(), "one answer per line: {got:?}");
            for (line, w) in got.iter().zip(want) {
                assert!(line.contains(w), "want {w} in order: {got:?}");
            }
            assert!(c.session.is_idle());
        }
        drop(svc);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn held_writes_of_one_pass_share_one_sync_and_wait_for_it() {
        let (svc, fault, dir) = always_service("pass-sync", FaultPlan::default());
        let mut conns = [Conn::default(), Conn::default()];
        for (i, c) in conns.iter_mut().enumerate() {
            c.session
                .ingest(format!("ADMIT 0,{i} 5,{i} 2 100 4\nQUERY {i}\n").as_bytes());
            c.session.run(&svc, &mut c.out);
            // The write is decided but not durable: its acknowledgement
            // and the line behind it have not reached the socket.
            assert!(c.session.is_held() && c.out.is_empty());
        }
        let syncs = fault.syncs();
        for c in &mut conns {
            c.session.release(&svc, &mut c.out);
            c.session.run(&svc, &mut c.out);
        }
        assert_eq!(fault.syncs(), syncs + 1, "one sync for the pass");
        let stats = svc.group_commit_stats().unwrap();
        assert_eq!((stats.syncs, stats.ops_synced), (1, 2), "{stats:?}");
        for (i, c) in conns.iter().enumerate() {
            let got = lines(&c.out);
            assert!(got[0].contains("\"status\":\"admitted\""), "{got:?}");
            assert!(got[1].contains(&format!("\"id\":{i}")), "{got:?}");
        }
        drop(svc);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_pass_sync_refuses_every_held_write() {
        // Sync #1 is the WAL header and #2 the first pass; #3 fails.
        let plan = FaultPlan {
            fail_sync_from: Some(3),
            ..FaultPlan::default()
        };
        let (svc, _, dir) = always_service("pass-fail", plan);
        let mut conns = [Conn::default(), Conn::default()];
        let admit = |row: u32| format!("ADMIT 0,{row} 5,{row} 2 100 4\n");
        pass(&svc, &mut conns, &[Some(admit(0).as_bytes()), None]);
        assert!(lines(&conns[0].out)[0].contains("\"status\":\"admitted\""));
        let before = [conns[0].out.len(), conns[1].out.len()];
        pass(
            &svc,
            &mut conns,
            &[Some(admit(1).as_bytes()), Some(admit(2).as_bytes())],
        );
        for (c, from) in conns.iter().zip(before) {
            let got = lines(&c.out[from..]);
            assert_eq!(got.len(), 1, "{got:?}");
            assert!(got[0].contains("\"code\":\"wal\""), "{got:?}");
        }
        assert!(svc.is_degraded());
        drop(svc);
        // Recovery replays the synced prefix: the first admission only.
        let (state, _, _) = recover(&Mesh::mesh2d(10, 10), &dir, FsyncPolicy::Always).unwrap();
        assert_eq!(state.handles(), [0]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
