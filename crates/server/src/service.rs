//! The admission service: stable ids, verifier-gated admission, and
//! snapshot/stats reads over the incremental [`AdmissionController`].
//!
//! ## One owner
//!
//! Like the paper's host processor, the service decides one request at
//! a time. It is owned by one thread — the server's reactor, which
//! serves client requests, ship sessions and the follower link in
//! sequence — and it is `Send` but not `Sync`, so the compiler refuses
//! to share it between threads. The controller and id table sit in a
//! `RefCell`, the replication hub in another; neither is a lock. Reads
//! (`QUERY`, `SNAPSHOT`, the read half of `STATS`) only ever touch
//! *cached* bounds — they never run the analysis. Every write — a
//! client's `ADMIT`/`REMOVE` or a frame the leader replicated — goes
//! through the one private `write`, which decides **including the
//! candidate lint** against exactly the set the candidate will join.
//! The lint reads only the candidate's channel occupants off the
//! controller's index and borrows their `(spec, path)` parts instead of
//! scanning, cloning or re-routing the admitted set, and the journal
//! holds `Arc<AcceptedOp>` entries so [`AdmissionService::ops`] clones
//! pointers, not specs. The one piece another thread touches is the
//! WAL's file, which the `--fsync interval` flusher syncs through a
//! handle of its own ([`crate::group_commit::WalFlusher`]).
//!
//! ## The write path
//!
//! `write(origin, op)` differs by **origin** only in data: a client
//! write is ticketed by its `@REQID` (a dedup-window hit returns the
//! original answer), takes the next handle and is linted; a leader
//! frame is ticketed by its sequence number (at or below the local one
//! is a no-op, a gap an error), carries its handle and is not
//! re-linted. Either way the one backend, the serial controller,
//! decides: it mutates, and rolls back if the WAL refuses the record.
//! The steps run once, in this order: ticket check, lint, decision, WAL
//! append, bookkeeping, snapshot cadence, metrics. The durability wait belongs to
//! the caller: `write` returns the acknowledgement with the WAL ticket
//! it waits on, and [`AdmissionService::settle`] waits.
//!
//! ## Soundness
//!
//! The controller's invariant (every cached bound satisfies
//! `U_i <= D_i`, and cached bounds equal a fresh offline
//! `determine_feasibility` over the admitted set) is preserved because
//! writes are serial: one thread owns the service and runs each write
//! to completion before the next request. [`AdmissionService::audit`] re-derives every bound
//! offline and compares bit-for-bit; the accepted-operation log
//! ([`AdmissionService::ops`], [`replay`]) lets a test replay the
//! exact serialized write history.
//!
//! ## Durability
//!
//! With a [`Durability`] attached (the `--wal-dir` path), every
//! accepted operation is appended to the WAL
//! ([`crate::group_commit::GroupWal`]) as it is decided, and the
//! buffered records are written to the file with one `write(2)` before
//! any acknowledgement leaves ([`AdmissionService::write_wal`], which
//! the reactor calls before it flushes a connection), so under every
//! policy a killed process has lost no acknowledged op. Under
//! `--fsync always` an op is **acknowledged only after its batch is
//! durable**, and the wait runs after the decision: the reactor holds
//! the acknowledgement until the end of its pass, where one fsync
//! covers every write the pass produced
//! ([`AdmissionService::dispatch_queued`]); a blocking caller syncs at
//! once ([`AdmissionService::dispatch_line`],
//! [`AdmissionService::handle`]). A WAL device failure fails every
//! write of the unsynced batch (none of them is acknowledged; the file
//! is rolled back to the last synced point) and breaks the log, which
//! is what puts the service in
//! **degraded read-only mode** ([`AdmissionService::is_degraded`] reads
//! the log's flag): reads keep working, writes answer `code:"degraded"`
//! until an operator restarts onto a healthy device. The flag is set by
//! whoever hit the error — a write's append, the reactor's group sync,
//! the interval flusher's sync, or a failed snapshot reset. That last
//! one degrades the service at once, before the next write tries the
//! log. The ops of a failed batch
//! stay applied in memory but unacknowledged until that restart —
//! recovery then serves exactly the durable (= acknowledged) prefix.
//! (`STATS` counts them under `admitted`/`removed`, which count state
//! changes, and their refusals under `errors`.)
//! Requests carrying an `@REQID` prefix land in a bounded idempotency
//! window (persisted in the WAL and snapshots), so a client retry of a
//! lost acknowledgement returns the original outcome instead of
//! double-admitting.

use crate::group_commit::{GroupWal, WalFlusher};
use crate::metrics::{Metrics, MetricsSnapshot, RequestKind};
use crate::protocol::{
    parse_request, render_response, RejectReason, Request, Response, SnapshotStream, StatsReport,
};
use crate::repl::ReplHub;
use crate::snapshot::{write_snapshot, DedupEntry, SnapshotData};
use crate::wal::FsyncPolicy;
use rtwc_core::{
    determine_feasibility, AdmissionController, AdmissionError, DelayBound, StreamId, StreamSet,
    StreamSpec,
};
use rtwc_verifier::{lint_candidate_indexed, Diagnostic};
use std::cell::{Ref, RefCell, RefMut};
use std::collections::{HashMap, VecDeque};
use std::path::{Path as FsPath, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use wormnet_topology::{Mesh, Path, Routing, Topology, XyRouting};

/// Most request ids remembered for idempotent replay. Oldest entries
/// are evicted first; a client retrying within this window gets its
/// original outcome back.
pub const DEDUP_CAP: usize = 4096;

/// One accepted (state-changing) operation, in the order the service
/// applied it. Rejected admissions and failed removals do not appear:
/// they leave the controller untouched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AcceptedOp {
    /// A successful `ADMIT`, with the id it was assigned.
    Admit {
        /// The stable id handed to the client.
        handle: u64,
        /// The admitted spec.
        spec: StreamSpec,
    },
    /// A successful `REMOVE`.
    Remove {
        /// The removed stream's stable id.
        handle: u64,
    },
}

/// The durability attachment: where state persists and how eagerly it
/// is synced. Built by the CLI from `--wal-dir`/`--fsync` after
/// recovery has already replayed and audited the directory.
#[derive(Debug)]
pub struct Durability {
    /// Directory holding `wal.log` and `snapshot.bin`.
    pub dir: PathBuf,
    /// The open, recovered write-ahead log behind its group-commit
    /// front (wrap the recovered [`crate::wal::Wal`] with
    /// [`GroupWal::new`]).
    pub wal: GroupWal,
    /// Snapshot + compact the WAL every this many records (0 = never).
    pub snapshot_every: u64,
}

/// [`Durability`] as the service keeps it. The WAL is the service's
/// own; the interval flusher gets only a second handle onto its file
/// ([`AdmissionService::interval_flusher`]).
#[derive(Debug)]
struct Durable {
    dir: PathBuf,
    wal: RefCell<GroupWal>,
    snapshot_every: u64,
}

/// A request line served by [`AdmissionService::dispatch_queued`].
#[derive(Debug)]
pub struct Served {
    /// The answer; for a write held on `ticket`, its acknowledgement.
    pub response: Response,
    /// The request was `SHUTDOWN`.
    pub shutdown: bool,
    /// Under `--fsync always`, the WAL ticket a fresh write's
    /// acknowledgement waits on: send [`AdmissionService::settle`]'s
    /// answer for it, not `response` as is.
    pub ticket: Option<u64>,
}

/// Who assigns a write its place in history.
#[derive(Clone, Copy, Debug)]
enum Origin {
    /// A live client: deduplicated by `req_id` (0 = none), given the
    /// next handle, linted.
    Client { req_id: u64 },
    /// The leader, over the replication stream: `seq` must be exactly
    /// the local sequence plus one, the handle rides in the frame, and
    /// the leader's acceptance is not second-guessed by the lint.
    Leader { seq: u64, req_id: u64 },
}

/// A write before it is accepted.
#[derive(Debug)]
enum Op {
    Admit {
        spec: StreamSpec,
        /// `None` when the routing cannot connect the endpoints.
        path: Option<Path>,
        /// The handle the leader assigned; `None` takes the next one.
        handle: Option<u64>,
    },
    Remove {
        handle: u64,
    },
}

/// Why [`AdmissionService::write`] applied nothing new.
enum NotApplied {
    /// The ticket check found a client retry: the original answer.
    Replayed(Response),
    /// The ticket check found a re-delivered frame, at or below this
    /// local sequence: a no-op.
    Behind(u64),
    /// Refused; the answer to send instead of an acknowledgement.
    Refused(Response),
}

impl NotApplied {
    /// A client's answer. (`Behind` is a leader-frame outcome; it never
    /// reaches a client.)
    fn into_response(self) -> Response {
        match self {
            NotApplied::Replayed(r) | NotApplied::Refused(r) => r,
            NotApplied::Behind(seq) => {
                Response::error("behind", format!("already applied at sequence {seq}"))
            }
        }
    }
}

/// The service's state. Recovery builds one (through
/// [`Inner::apply_accepted`]) and hands it to the service.
#[derive(Debug, Default)]
pub(crate) struct Inner {
    pub(crate) ctl: AdmissionController,
    /// Stable ids, parallel to the controller's dense ids. Assigned
    /// monotonically and removed in place, so the vector is always
    /// sorted ascending — lookups may binary-search it.
    pub(crate) handles: Vec<u64>,
    pub(crate) next_handle: u64,
    /// The accepted-operation journal: the most recent [`JOURNAL_CAP`]
    /// operations, oldest first. Entries are `Arc`ed so snapshot readers
    /// clone pointers, not specs.
    log: VecDeque<Arc<AcceptedOp>>,
    /// Operations ever journaled — a non-durable service's sequence
    /// number; `log` holds the last `min(journaled, JOURNAL_CAP)`.
    journaled: u64,
    /// Idempotency window: request id -> original outcome.
    pub(crate) dedup: HashMap<u64, DedupEntry>,
    /// Eviction order for `dedup` (front = oldest).
    dedup_order: VecDeque<u64>,
}

/// What the in-memory journal retains. The journal is what the replay
/// parity harnesses read; nothing on the serving path does (the WAL is
/// the durable record), so a long-lived server must not pay ~100 bytes
/// of heap for every write it ever accepted — at 40k writes a second
/// that was 4 MB/s. 16k operations cover every harness with room.
pub const JOURNAL_CAP: usize = 1 << 14;

fn unknown_id(handle: u64) -> Response {
    Response::error("unknown_id", format!("unknown stream id {handle}"))
}

/// The route of the stream an accepted op admits (`None`: a removal).
fn route_of(mesh: &Mesh, op: &AcceptedOp) -> Result<Option<Path>, String> {
    match op {
        AcceptedOp::Admit { handle, spec } => XyRouting
            .route(mesh, spec.source, spec.dest)
            .map(Some)
            .map_err(|e| format!("admit {handle}: routing failed: {e}")),
        AcceptedOp::Remove { .. } => Ok(None),
    }
}

impl Inner {
    /// The admitted spec and cached bound at dense index `i`.
    fn stream(&self, i: usize) -> (&StreamSpec, u64) {
        let bound = self.ctl.bound(StreamId(i as u32));
        let bound = bound.value().expect("admitted bound is bounded");
        (&self.ctl.parts()[i].0, bound)
    }

    /// Every admitted stream in dense order: `(handle, spec, bound)`.
    pub(crate) fn streams(&self) -> impl Iterator<Item = (u64, &StreamSpec, u64)> {
        self.handles.iter().enumerate().map(|(i, &handle)| {
            let (spec, bound) = self.stream(i);
            (handle, spec, bound)
        })
    }

    pub(crate) fn remember(&mut self, entry: DedupEntry) {
        if self.dedup.len() >= DEDUP_CAP {
            if let Some(oldest) = self.dedup_order.pop_front() {
                self.dedup.remove(&oldest);
            }
        }
        self.dedup_order.push_back(entry.req_id);
        self.dedup.insert(entry.req_id, entry);
    }

    /// The bookkeeping every accepted, ticketed op gets: handle table,
    /// journal, dedup window. `bound`
    /// is the admitted stream's (ignored for removals). Returns the
    /// op's dense index — the new last one, or the one just vacated.
    fn record(&mut self, req_id: u64, op: &Arc<AcceptedOp>, bound: u64) -> usize {
        let (dense, entry) = match op.as_ref() {
            AcceptedOp::Admit { handle, spec } => {
                self.next_handle = self.next_handle.max(handle + 1);
                self.handles.push(*handle);
                let entry = DedupEntry {
                    req_id,
                    admit: true,
                    handle: *handle,
                    bound,
                    deadline: spec.deadline,
                };
                (self.handles.len() - 1, entry)
            }
            AcceptedOp::Remove { handle } => {
                let dense = self
                    .handles
                    .binary_search(handle)
                    .expect("apply checked the victim is live");
                self.handles.remove(dense);
                let entry = DedupEntry {
                    req_id,
                    admit: false,
                    handle: *handle,
                    bound: 0,
                    deadline: 0,
                };
                (dense, entry)
            }
        };
        if self.log.len() == JOURNAL_CAP {
            self.log.pop_front();
        }
        self.log.push_back(Arc::clone(op));
        self.journaled += 1;
        if req_id != 0 {
            self.remember(entry);
        }
        dense
    }

    /// How an accepted op changes the controller and the tables around
    /// it. `ticket` runs between the decision and
    /// the bookkeeping (the WAL append of a live write); when it
    /// refuses, the decision is rolled back and the state is untouched —
    /// an acked op can never be one the log does not hold. Returns the
    /// ticket and the admitted bound (0 for a removal).
    #[allow(clippy::result_large_err)] // the Err is the refusal sent on the wire
    fn apply(
        &mut self,
        req_id: u64,
        op: &Arc<AcceptedOp>,
        path: Option<Path>,
        ticket: impl FnOnce() -> Result<Option<u64>, Response>,
    ) -> Result<(Option<u64>, u64), Response> {
        match op.as_ref() {
            AcceptedOp::Admit { spec, .. } => {
                let path = path.expect("an admit reaches the backend routed");
                let id = self
                    .ctl
                    .admit(spec.clone(), path)
                    .map_err(|e| AdmissionService::rejection(&e, &self.handles))?;
                let ticket = match ticket() {
                    Ok(t) => t,
                    Err(refusal) => {
                        self.ctl.remove(id);
                        return Err(refusal);
                    }
                };
                let bound = self
                    .ctl
                    .bound(id)
                    .value()
                    .expect("admitted bound is bounded");
                let dense = self.record(req_id, op, bound);
                debug_assert_eq!(dense, id.index());
                Ok((ticket, bound))
            }
            AcceptedOp::Remove { handle } => {
                if self.handles.binary_search(handle).is_err() {
                    return Err(unknown_id(*handle));
                }
                // Nothing has been applied yet, so a refused ticket
                // leaves the state untouched.
                let ticket = ticket()?;
                let dense = self.record(req_id, op, 0);
                self.ctl.remove(StreamId(dense as u32));
                Ok((ticket, 0))
            }
        }
    }

    /// Applies an op that was accepted before (a snapshot stream, a WAL
    /// record): [`Inner::apply`] with nothing to ticket. The
    /// deterministic controller accepted it against exactly this state
    /// once, so a refusal means the history and the analysis disagree.
    pub(crate) fn apply_accepted(
        &mut self,
        mesh: &Mesh,
        req_id: u64,
        op: &AcceptedOp,
    ) -> Result<(), String> {
        let path = route_of(mesh, op)?;
        self.apply(req_id, &Arc::new(op.clone()), path, || Ok(None))
            .map(|_| ())
            .map_err(|refusal| format!("accepted op refused: {}", render_response(&refusal)))
    }
}

/// The admission-control service behind `rtwc serve`.
///
/// One thread owns it (see the module docs): it is `Send`, so a server
/// can be built on one thread and run on another, but not `Sync`, so no
/// two threads can ever call it at once:
///
/// ```compile_fail
/// fn shared<T: Sync>(_: &T) {}
/// let svc = rtwc_server::AdmissionService::new(wormnet_topology::Mesh::mesh2d(4, 4));
/// shared(&svc);
/// ```
#[derive(Debug)]
pub struct AdmissionService {
    mesh: Mesh,
    inner: RefCell<Inner>,
    /// The WAL. Records are appended as writes are decided; the write
    /// to the file and the durability wait happen after.
    durability: Option<Durable>,
    metrics: Metrics,
    /// Replication state, when this node participates in replication.
    /// Attached at startup ([`AdmissionService::attach_repl`]); absent
    /// on a standalone node, whose request paths stay untouched.
    repl: Option<RefCell<ReplHub>>,
}

impl AdmissionService {
    /// An empty service over `mesh`, no durability (state dies with the
    /// process).
    pub fn new(mesh: Mesh) -> Self {
        Self::build(mesh, Inner::default(), None)
    }

    /// A service resuming from recovered state, persisting into
    /// `durability` from the first accepted operation on.
    pub fn with_durability(
        mesh: Mesh,
        state: crate::recovery::RecoveredState,
        durability: Durability,
    ) -> Self {
        Self::build(mesh, state.inner, Some(durability))
    }

    fn build(mesh: Mesh, inner: Inner, durability: Option<Durability>) -> Self {
        AdmissionService {
            mesh,
            inner: RefCell::new(inner),
            durability: durability.map(|d| Durable {
                dir: d.dir,
                wal: RefCell::new(d.wal),
                snapshot_every: d.snapshot_every,
            }),
            metrics: Metrics::new(),
            repl: None,
        }
    }

    /// Attaches the replication hub (leader or follower role), replacing
    /// any hub attached before. Call at startup, before serving.
    pub fn attach_repl(&mut self, hub: ReplHub) {
        self.repl = Some(RefCell::new(hub));
    }

    /// The attached replication hub, if any, borrowed for update. Drop
    /// the guard before calling back into the service.
    pub fn repl_hub(&self) -> Option<RefMut<'_, ReplHub>> {
        self.repl.as_ref().map(RefCell::borrow_mut)
    }

    /// A node without a hub is a standalone leader.
    pub fn is_follower(&self) -> bool {
        self.repl_hub().is_some_and(|h| h.is_follower())
    }

    /// The gate in front of every client write: a follower redirects to
    /// the leader; a leader whose write lease has lapsed is *sealed*
    /// (the follower may already be promoting, so an ack could open a
    /// dual-ack window; the client's retry lands here again, on the
    /// un-sealed leader, or on a redirect once fenced); a degraded node
    /// is read-only.
    fn write_gate(&self) -> Option<Response> {
        if let Some(mut hub) = self.repl_hub() {
            if hub.is_follower() {
                return Some(Response::error(
                    "not_leader",
                    format!("not the leader; leader is {}", hub.leader_addr()),
                ));
            }
            if hub.write_sealed() {
                return Some(Response::error(
                    "sealed",
                    format!(
                        "write lease lapsed ({} ms without a follower ack); retry",
                        hub.lease_ms()
                    ),
                ));
            }
        }
        self.is_degraded()
            .then(|| Response::error("degraded", "service is read-only after a WAL device error"))
    }

    /// Permanently demotes this node: a peer promoted under `epoch`
    /// (strictly higher than ours), whose applied frontier when it took
    /// over was `common_seq`. Audits the local WAL suffix past
    /// `common_seq` — operations acknowledged here that the winning
    /// history does not contain — as a `DivergenceReport` (verifier
    /// rule A110) before the role flips, and records `new_leader` (when
    /// known) as the redirect target. Returns `false` for a stale
    /// fence.
    pub fn fence(&self, epoch: u64, common_seq: u64, new_leader: &str) -> bool {
        let Some(fenced_epoch) = self.repl_hub().map(|h| h.epoch()) else {
            return false;
        };
        // Land buffered writes first so the audited suffix is exactly
        // what the local WAL will show an operator who inspects it.
        self.flush();
        let local_seq = self.seq();
        let divergent = local_seq.saturating_sub(common_seq);
        let fenced = self
            .repl_hub()
            .is_some_and(|mut h| h.fence(epoch, new_leader, divergent));
        if !fenced {
            return false;
        }
        let artifact = rtwc_verifier::DivergenceArtifact {
            fenced_epoch,
            winner_epoch: epoch,
            common_seq,
            local_seq,
        };
        eprintln!(
            "DivergenceReport: fenced by epoch {epoch} (was {fenced_epoch}); local WAL at seq \
             {local_seq}, shared history ends at {common_seq} ({divergent} divergent op(s))"
        );
        for d in rtwc_verifier::lint_divergence(&artifact) {
            eprintln!("DivergenceReport: [{}] {}", d.code, d.message);
        }
        true
    }

    /// True once a WAL device error has broken the log: the service is
    /// read-only until an operator restarts it.
    pub fn is_degraded(&self) -> bool {
        self.wal().is_some_and(|w| w.is_broken())
    }

    /// Total accepted operations in this service's history (including
    /// those recovered from disk). Falls back to the journal's count for
    /// a non-durable service.
    pub fn seq(&self) -> u64 {
        match self.wal() {
            Some(w) => w.seq(),
            None => self.read().journaled,
        }
    }

    /// The WAL, borrowed for the call at hand.
    fn wal(&self) -> Option<RefMut<'_, GroupWal>> {
        self.durability.as_ref().map(|d| d.wal.borrow_mut())
    }

    /// Writes the WAL records appended since the last write to the
    /// file, with one `write(2)`. The reactor calls it before it
    /// flushes any connection's output, so no acknowledgement leaves
    /// before its record is in the file. A failed write breaks the
    /// log, which degrades the service.
    pub fn write_wal(&self) {
        if let Some(mut w) = self.wal() {
            let _ = w.write();
        }
    }

    /// Writes every buffered WAL record, and syncs unless the policy is
    /// `never` — the clean-shutdown path.
    pub fn flush(&self) {
        if let Some(mut w) = self.wal() {
            let _ = w.flush();
        }
    }

    /// Group-commit batching statistics, when a WAL is attached.
    pub fn group_commit_stats(&self) -> Option<crate::group_commit::GroupCommitStats> {
        self.wal().map(|w| w.stats())
    }

    /// Under the `interval` fsync policy, the handle the server's
    /// flusher thread syncs the WAL through, so the periodic fsync
    /// never lands on the reactor. A sync error there breaks the log,
    /// which degrades the service.
    pub fn interval_flusher(&self) -> std::io::Result<Option<WalFlusher>> {
        self.wal().map_or(Ok(None), |w| w.flusher())
    }

    /// The durability directory (WAL and snapshot), if any.
    pub fn wal_dir(&self) -> Option<&FsPath> {
        self.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// The mesh the service routes on.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Service-side metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Number of streams currently admitted.
    pub fn admitted_count(&self) -> usize {
        self.read().handles.len()
    }

    /// The accepted-operation log, in serialization order: the whole
    /// history while it is at most [`JOURNAL_CAP`] operations long, the
    /// most recent `JOURNAL_CAP` after that. O(log length) pointer
    /// clones — the op payloads themselves are never copied.
    pub fn ops(&self) -> Vec<Arc<AcceptedOp>> {
        self.read().log.iter().cloned().collect()
    }

    /// The current cached bounds with their stable ids, in dense order.
    pub fn bounds_by_handle(&self) -> Vec<(u64, u64)> {
        self.read().streams().map(|(h, _, b)| (h, b)).collect()
    }

    fn read(&self) -> Ref<'_, Inner> {
        self.inner.borrow()
    }

    /// Parses and serves one request line, timing it into the metrics.
    /// Returns the response and whether it was a `SHUTDOWN`. A write is
    /// acknowledged only once it is durable.
    pub fn dispatch_line(&self, line: &str) -> (Response, bool) {
        let served = self.dispatch_timed(line, None);
        (self.settle(served.response, served.ticket), served.shutdown)
    }

    /// Serves one request line that waited `queue_ns` between the
    /// reactor's line splitter and this call: the wait and the handler
    /// time land in separate histograms, their sum in the total one.
    /// Never waits for a WAL sync: a write whose acknowledgement must
    /// wait comes back with its ticket ([`Served::ticket`]).
    pub fn dispatch_queued(&self, line: &str, queue_ns: u64) -> Served {
        self.dispatch_timed(line, Some(queue_ns))
    }

    fn dispatch_timed(&self, line: &str, queue_ns: Option<u64>) -> Served {
        let start = Instant::now();
        let (kind, (response, ticket)) = match parse_request(line) {
            Ok(req) => {
                let kind = match req {
                    Request::Admit { .. } => RequestKind::Admit,
                    Request::Remove { .. } => RequestKind::Remove,
                    Request::Query(_) => RequestKind::Query,
                    Request::Snapshot => RequestKind::Snapshot,
                    Request::Stats => RequestKind::Stats,
                    Request::Promote => RequestKind::Promote,
                    Request::Shutdown => RequestKind::Shutdown,
                };
                (kind, self.answer(&req))
            }
            Err(e) => (
                RequestKind::Malformed,
                (
                    Response::error("malformed", format!("malformed request: {e}")),
                    None,
                ),
            ),
        };
        // Fresh admissions/removals are counted inside `write`, at the
        // state-change point.
        match &response {
            Response::Rejected { .. } => self.metrics.count_rejected(),
            Response::Error { .. } => self.metrics.count_error(),
            _ => {}
        }
        let shutdown = matches!(response, Response::ShuttingDown);
        let service_ns = start.elapsed().as_nanos() as u64;
        match queue_ns {
            None => self.metrics.observe(kind, service_ns),
            Some(q) => self.metrics.observe_queued(kind, q, service_ns),
        }
        Served {
            response,
            shutdown,
            ticket,
        }
    }

    /// The answer to send for a write served with `ticket`, once the
    /// WAL records appended so far are written: `ack` once the ticket
    /// is durable — the first call after new appends runs the one group
    /// sync that covers all of them — or, if that sync failed, the
    /// `wal` refusal, counted as an error. `ack` itself without a
    /// ticket.
    pub fn settle(&self, ack: Response, ticket: Option<u64>) -> Response {
        self.write_wal();
        match self.await_durable(ticket) {
            None => ack,
            Some(refusal) => {
                self.metrics.count_error();
                refusal
            }
        }
    }

    /// Counts a connection shed with `busy` at the front end's
    /// connection cap (`STATS` `shed`).
    pub fn count_shed(&self) {
        self.metrics.count_shed();
    }

    /// Serves one parsed request; a write is acknowledged only once it
    /// is durable.
    pub fn handle(&self, req: &Request) -> Response {
        let (response, ticket) = self.answer(req);
        self.settle(response, ticket)
    }

    /// Serves one parsed request up to its durability wait: a write
    /// whose acknowledgement must wait for a WAL sync comes back with
    /// its ticket.
    fn answer(&self, req: &Request) -> (Response, Option<u64>) {
        let response = match *req {
            Request::Admit {
                req_id,
                src,
                dst,
                priority,
                period,
                length,
                deadline,
            } => return self.admit_ticketed(req_id, src, dst, priority, period, length, deadline),
            Request::Remove { req_id, id } => return self.remove(req_id, id),
            Request::Query(id) => self.query(id),
            Request::Snapshot => self.snapshot(),
            Request::Stats => self.stats(),
            Request::Promote => self.promote(),
            Request::Shutdown => Response::ShuttingDown,
        };
        (response, None)
    }

    /// Promotes this follower to leader: audits the warm-standby state
    /// (every cached bound re-derived offline, as at recovery), bumps
    /// the epoch, flips the role, and syncs the WAL so the new leader
    /// starts from a durable frontier. Refuses on a leader, without a
    /// hub, or when the audit finds a divergence — a node that cannot
    /// vouch for its state must not take writes.
    pub fn promote(&self) -> Response {
        let Some((follower, fenced)) = self.repl_hub().map(|h| (h.is_follower(), h.is_fenced()))
        else {
            return Response::error("no_replication", "replication is not configured");
        };
        if !follower {
            return Response::error("already_leader", "this node is already the leader");
        }
        if fenced {
            return Response::error(
                "fenced",
                "a higher epoch fenced this node; it must rejoin as a follower, not promote",
            );
        }
        let audited = match self.audit() {
            Ok(_) => true,
            Err(e) => {
                return Response::error(
                    "audit_failed",
                    format!("refusing promotion: state audit failed: {e}"),
                )
            }
        };
        // Land anything the replication stream buffered before the
        // role flips; a failure here breaks the log (so the node is
        // degraded) but the durable prefix is still a valid leader
        // start.
        self.flush();
        let epoch = self.repl_hub().map_or(0, |mut h| h.promote());
        Response::Promoted {
            epoch,
            streams: self.admitted_count() as u64,
            audited,
        }
    }

    /// The highest operation sequence the shipper may stream: records
    /// past it could still be rolled back. Under `--fsync always`
    /// that is the sync frontier (a flushed-but-unsynced batch rolls
    /// back whole on a device error); under `interval`/`never`,
    /// everything flushed to the file (publishes are never undone).
    /// `None` without local durability.
    pub fn ship_frontier(&self) -> Option<u64> {
        let w = self.wal()?;
        let f = w.frontiers();
        Some(match w.policy() {
            FsyncPolicy::Always => f.synced,
            FsyncPolicy::Interval(_) | FsyncPolicy::Never => f.flushed,
        })
    }

    /// The local WAL's sync frontier (for STATS), falling back to the
    /// replicated applied sequence on a node without local durability.
    pub fn wal_synced_seq(&self) -> u64 {
        match self.wal() {
            Some(w) => w.frontiers().synced,
            None => self.repl_hub().map(|h| h.applied_seq()).unwrap_or_default(),
        }
    }

    /// The leader WAL's base sequence — operations at or below it are
    /// only reachable through a snapshot transfer. `None` without
    /// local durability.
    pub fn wal_base_seq(&self) -> Option<u64> {
        self.wal().map(|w| w.seq() - w.records_since_reset())
    }

    /// Applies one replicated WAL frame on a follower, through
    /// [`Self::write`]: persisted locally first (ticket-before-apply,
    /// like a live write), then applied by the same controller a live
    /// write uses. A frame at or below the local sequence is a
    /// duplicate delivery and a no-op. A gap, a refusal (the leader
    /// accepted this op; a standby that cannot has diverged) or a WAL
    /// error is reported, so the session tears down, reconnects and
    /// re-requests from the last good sequence.
    pub fn apply_replicated(&self, seq: u64, req_id: u64, op: &AcceptedOp) -> Result<(), String> {
        let follower = self
            .repl_hub()
            .map(|h| h.is_follower())
            .ok_or_else(|| "replication is not configured".to_string())?;
        if !follower {
            return Err("not a follower (promoted mid-stream?)".to_string());
        }
        let path = route_of(&self.mesh, op)?;
        let write = match op {
            AcceptedOp::Admit { handle, spec } => Op::Admit {
                spec: spec.clone(),
                path,
                handle: Some(*handle),
            },
            AcceptedOp::Remove { handle } => Op::Remove { handle: *handle },
        };
        let written = self
            .write(Origin::Leader { seq, req_id }, write)
            .and_then(|(_, ticket)| match self.await_durable(ticket) {
                None => Ok(()),
                Some(refusal) => Err(NotApplied::Refused(refusal)),
            });
        let applied = match written {
            Ok(()) => seq,
            Err(NotApplied::Behind(cur)) => cur,
            Err(NotApplied::Replayed(refusal) | NotApplied::Refused(refusal)) => {
                return Err(format!(
                    "replicated frame {seq} not applied: {}",
                    render_response(&refusal)
                ))
            }
        };
        if let Some(mut hub) = self.repl_hub() {
            hub.set_applied(applied);
        }
        Ok(())
    }

    /// Admits a candidate through the verifier gate and the analysis,
    /// acknowledging only once durable. See the module docs for the
    /// locking discipline.
    #[allow(clippy::too_many_arguments)] // mirrors the wire arity
    pub fn admit(
        &self,
        req_id: u64,
        src: (u32, u32),
        dst: (u32, u32),
        priority: u32,
        period: u64,
        length: u64,
        deadline: Option<u64>,
    ) -> Response {
        self.handle(&Request::Admit {
            req_id,
            src,
            dst,
            priority,
            period,
            length,
            deadline,
        })
    }

    #[allow(clippy::too_many_arguments)] // mirrors the wire arity
    fn admit_ticketed(
        &self,
        req_id: u64,
        src: (u32, u32),
        dst: (u32, u32),
        priority: u32,
        period: u64,
        length: u64,
        deadline: Option<u64>,
    ) -> (Response, Option<u64>) {
        if let Some(refusal) = self.write_gate() {
            return (refusal, None);
        }
        let Some(source) = self.mesh.node_at(&[src.0, src.1]) else {
            let message = format!("source ({},{}) outside mesh", src.0, src.1);
            return (Response::error("bad_coordinate", message), None);
        };
        let Some(dest) = self.mesh.node_at(&[dst.0, dst.1]) else {
            let message = format!("destination ({},{}) outside mesh", dst.0, dst.1);
            return (Response::error("bad_coordinate", message), None);
        };
        let deadline = deadline.unwrap_or(period);
        let spec = StreamSpec::new(source, dest, priority, period, length, deadline);
        // The deterministic route depends only on the endpoints, never
        // on the admitted set. A candidate
        // the routing cannot connect is rejected by W004 in the lint
        // without this path ever being used.
        let path = XyRouting.route(&self.mesh, source, dest).ok();
        let op = Op::Admit {
            spec,
            path,
            handle: None,
        };
        self.client_write(req_id, op)
    }

    fn remove(&self, req_id: u64, handle: u64) -> (Response, Option<u64>) {
        if let Some(refusal) = self.write_gate() {
            return (refusal, None);
        }
        self.client_write(req_id, Op::Remove { handle })
    }

    /// A client's write: the acknowledgement and its ticket, or the
    /// answer to send in its place.
    fn client_write(&self, req_id: u64, op: Op) -> (Response, Option<u64>) {
        self.write(Origin::Client { req_id }, op)
            .unwrap_or_else(|not| (not.into_response(), None))
    }

    /// The one write path: every state change — a client's or the
    /// leader's — is decided, ticketed and recorded here, in the step
    /// order the module docs give. `Ok` is the acknowledgement of an
    /// applied write and, under `--fsync always`, the WAL ticket that
    /// must be durable before it is sent.
    fn write(&self, origin: Origin, op: Op) -> Result<(Response, Option<u64>), NotApplied> {
        let (client, req_id) = match origin {
            Origin::Client { req_id } => (true, req_id),
            Origin::Leader { req_id, .. } => (false, req_id),
        };
        let mut inner = self.inner.borrow_mut();

        self.already_applied(&inner, origin, &op)?;
        if let Origin::Leader { seq, .. } = origin {
            let cur = self.seq_under(&inner);
            if seq != cur + 1 {
                return Err(NotApplied::Refused(Response::error(
                    "gap",
                    format!("replication gap: have {cur}, leader sent {seq}"),
                )));
            }
        }

        let (accepted, path, warnings) = match op {
            Op::Admit { spec, path, handle } => {
                // The lint sees exactly the set the admission decides
                // against. A frame the leader accepted is not
                // re-linted.
                let warnings = if client {
                    self.lint(&inner, &spec, path.as_ref())?
                } else {
                    Vec::new()
                };
                if path.is_none() {
                    // W004 catches this above; kept for defense in depth.
                    return Err(NotApplied::Refused(Response::error(
                        "routing",
                        "routing failed",
                    )));
                }
                let handle = handle.unwrap_or(inner.next_handle);
                (AcceptedOp::Admit { handle, spec }, path, warnings)
            }
            Op::Remove { handle } => (AcceptedOp::Remove { handle }, None, Vec::new()),
        };
        let accepted = Arc::new(accepted);

        // Decision, WAL append, bookkeeping. Ticket before
        // acknowledging: if the WAL refuses the record nothing stays
        // applied and the client is told "not admitted".
        let (ticket, bound) = inner
            .apply(req_id, &accepted, path, || self.persist(req_id, &accepted))
            .map_err(NotApplied::Refused)?;
        self.maybe_snapshot(&mut inner);
        drop(inner);

        // Fresh admissions/removals are counted here, at the
        // state-change point, so a dedup replay (which returns the same
        // response shape) never inflates the accepted-op counters; a
        // follower's replay is not a request and is not counted.
        let ack = match accepted.as_ref() {
            AcceptedOp::Admit { handle, spec } => {
                if client {
                    self.metrics.count_admitted();
                }
                Response::Admitted {
                    id: *handle,
                    bound,
                    deadline: spec.deadline,
                    slack: spec.deadline - bound,
                    warnings,
                }
            }
            AcceptedOp::Remove { handle } => {
                if client {
                    self.metrics.count_removed();
                }
                Response::Removed { id: *handle }
            }
        };
        // The durability wait is the caller's.
        Ok((ack, ticket))
    }

    /// The ticket check of [`Self::write`]: `Err` when `origin`'s ticket
    /// says this write was already applied — a client's request id is in
    /// the dedup window (the retry gets the original outcome and touches
    /// no state), or a leader frame is at or below the local sequence
    /// (the leader rewound to an older ack after a reconnect).
    fn already_applied(&self, inner: &Inner, origin: Origin, op: &Op) -> Result<(), NotApplied> {
        match origin {
            Origin::Client { req_id } => {
                if req_id == 0 {
                    return Ok(());
                }
                let Some(entry) = inner.dedup.get(&req_id) else {
                    return Ok(());
                };
                let want_admit = matches!(op, Op::Admit { .. });
                if entry.admit == want_admit {
                    self.metrics.count_replayed();
                }
                Err(NotApplied::Replayed(Self::replay_dedup(entry, want_admit)))
            }
            Origin::Leader { seq, .. } => match self.seq_under(inner) {
                cur if seq <= cur => Err(NotApplied::Behind(cur)),
                _ => Ok(()),
            },
        }
    }

    /// [`Self::seq`] with `inner` already borrowed for the write (`seq`
    /// would borrow it again on a non-durable service).
    fn seq_under(&self, inner: &Inner) -> u64 {
        match self.wal() {
            Some(w) => w.seq(),
            None => inner.journaled,
        }
    }

    /// The verifier gate: W0xx rules on the candidate against the
    /// admitted set; error findings refuse it, warnings ride along on
    /// the answer. The rules get the candidate's would-be dense id and
    /// its neighbors — the occupants of the candidate's `path` in the
    /// controller's index, by ascending dense id, borrowed from its own
    /// `(spec, path)` parts — which produces exactly the findings of a
    /// scan over the whole set. An exact duplicate has the candidate's
    /// endpoints, hence its route, so it is among them.
    fn lint(
        &self,
        inner: &Inner,
        spec: &StreamSpec,
        path: Option<&Path>,
    ) -> Result<Vec<Diagnostic>, NotApplied> {
        let (index, parts) = (inner.ctl.index(), inner.ctl.parts());
        let mut ids: Vec<StreamId> = (path.iter())
            .flat_map(|p| p.links())
            .flat_map(|&l| index.link_streams(l))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let neighbors: Vec<(u32, &StreamSpec, &Path)> = (ids.iter())
            .map(|id| (id.0, &parts[id.index()].0, &parts[id.index()].1))
            .collect();
        let duplicate = neighbors.iter().find(|(_, s, _)| *s == spec);
        let findings = lint_candidate_indexed(
            &self.mesh,
            &XyRouting,
            parts.len() as u32,
            duplicate.map(|&(id, ..)| id),
            &neighbors,
            spec,
        );
        if findings.iter().any(Diagnostic::is_error) {
            let errors = findings.iter().filter(|d| d.is_error()).count();
            return Err(NotApplied::Refused(Response::Rejected {
                reason: RejectReason::Lint,
                message: format!("candidate fails {errors} verifier rule(s)"),
                bound: None,
                blocked_by: Vec::new(),
                victims: Vec::new(),
                diagnostics: findings,
            }));
        }
        Ok(findings)
    }

    /// Maps an analysis rejection onto the wire shape, translating the
    /// controller's dense ids into stable handles.
    fn rejection(e: &AdmissionError, handles: &[u64]) -> Response {
        let to_handles =
            |ids: &[StreamId]| -> Vec<u64> { ids.iter().map(|id| handles[id.index()]).collect() };
        let (reason, bound, blocked_by, victims) = match e {
            AdmissionError::CandidateInfeasible {
                bound, blocked_by, ..
            } => (
                RejectReason::CandidateInfeasible,
                bound.value(),
                to_handles(blocked_by),
                Vec::new(),
            ),
            AdmissionError::BreaksExisting { victims, .. } => (
                RejectReason::BreaksExisting,
                None,
                Vec::new(),
                to_handles(victims),
            ),
            AdmissionError::Invalid(_) => (RejectReason::Invalid, None, Vec::new(), Vec::new()),
        };
        Response::Rejected {
            reason,
            message: e.to_string(),
            bound,
            blocked_by,
            victims,
            diagnostics: Vec::new(),
        }
    }

    /// Appends `op` to the WAL's buffer, if a WAL is attached,
    /// returning the ticket (its sequence number) its acknowledgement
    /// must wait on — only under `--fsync always` does an
    /// acknowledgement promise durability. `Err(response)` is the
    /// refusal to send instead of an acknowledgement (the log is
    /// broken, so the service is degraded). No system call runs on this
    /// path: the record reaches the file at [`Self::write_wal`], group
    /// syncs run in `await_durable` once the reactor's pass ends, and
    /// interval syncs on the server's flusher thread.
    #[allow(clippy::result_large_err)] // the Err is the refusal sent on the wire
    fn persist(&self, req_id: u64, op: &AcceptedOp) -> Result<Option<u64>, Response> {
        let Some(mut wal) = self.wal() else {
            return Ok(None);
        };
        match wal.append(req_id, op) {
            Ok(ticket) => Ok((wal.policy() == FsyncPolicy::Always).then_some(ticket)),
            Err(e) => Err(Response::error(
                "wal",
                format!("not applied: WAL write failed ({e}); service is now read-only"),
            )),
        }
    }

    /// Makes `ticket`'s record durable, syncing once for every record
    /// appended so far unless a sync already covered it (a no-op
    /// without a ticket; `interval`/`never` writes get none, their
    /// syncs run on the server's background flusher). `Some(response)`
    /// is the refusal to send instead of an acknowledgement: the whole
    /// batch was rolled back off the log, which is broken now, so the
    /// service is degraded — the op stays applied in memory,
    /// unacknowledged, until restart.
    fn await_durable(&self, ticket: Option<u64>) -> Option<Response> {
        let ticket = ticket?;
        match self.wal()?.sync_to(ticket) {
            Ok(()) => None,
            Err(e) => Some(Response::error(
                "wal",
                format!("not acknowledged: WAL sync failed ({e}); service is now read-only"),
            )),
        }
    }

    /// Rebuilds the original response for a replayed request id.
    /// `want_admit` is the kind of the *retried* request; reusing an id
    /// across kinds is a client bug and reported as such.
    fn replay_dedup(entry: &DedupEntry, want_admit: bool) -> Response {
        if entry.admit != want_admit {
            return Response::error(
                "req_id_reuse",
                format!(
                    "request id {} was used for a different operation",
                    entry.req_id
                ),
            );
        }
        if entry.admit {
            Response::Admitted {
                id: entry.handle,
                bound: entry.bound,
                deadline: entry.deadline,
                slack: entry.deadline - entry.bound,
                warnings: Vec::new(),
            }
        } else {
            Response::Removed { id: entry.handle }
        }
    }

    /// Writes a snapshot and compacts the WAL once it has grown past
    /// the configured record count. A failed snapshot write is
    /// deliberately non-fatal: the WAL still holds every record, so
    /// recovery loses nothing — compaction is just deferred to the next
    /// trigger. A failed WAL reset breaks the log, which degrades the
    /// service at once.
    fn maybe_snapshot(&self, inner: &mut Inner) {
        let due = self.durability.as_ref().is_some_and(|d| {
            d.snapshot_every > 0 && d.wal.borrow().records_since_reset() >= d.snapshot_every
        });
        if !due {
            return;
        }
        let streams = inner
            .streams()
            .map(|(h, spec, _)| (h, spec.clone()))
            .collect();
        let dedup: Vec<DedupEntry> = inner
            .dedup_order
            .iter()
            .filter_map(|id| inner.dedup.get(id).copied())
            .collect();
        let d = self.durability.as_ref().expect("durability checked above");
        let data = SnapshotData {
            seq: d.wal.borrow().seq(),
            next_handle: inner.next_handle,
            streams,
            dedup,
        };
        if write_snapshot(&d.dir, &data).is_ok() {
            // The fsynced snapshot covers every op appended so far
            // (they were all applied before their durability waits), so
            // a successful reset makes every one of them durable. A
            // failed reset leaves WAL records the snapshot already
            // covers; recovery skips them by sequence number.
            let _ = d.wal.borrow_mut().reset(data.seq);
        }
    }

    fn query(&self, handle: u64) -> Response {
        let inner = self.read();
        let Ok(idx) = inner.handles.binary_search(&handle) else {
            return unknown_id(handle);
        };
        let (spec, bound) = inner.stream(idx);
        Response::Query {
            id: handle,
            bound,
            deadline: spec.deadline,
            slack: spec.deadline - bound,
            priority: spec.priority,
            period: spec.period,
            length: spec.max_length,
        }
    }

    fn coords(&self, node: wormnet_topology::NodeId) -> (u32, u32) {
        let c = self.mesh.coord(node);
        (c.get(0), c.get(1))
    }

    fn snapshot(&self) -> Response {
        let inner = self.read();
        let streams = inner
            .streams()
            .map(|(handle, spec, bound)| SnapshotStream {
                id: handle,
                src: self.coords(spec.source),
                dst: self.coords(spec.dest),
                priority: spec.priority,
                period: spec.period,
                length: spec.max_length,
                deadline: spec.deadline,
                bound: DelayBound::Bounded(bound),
            })
            .collect();
        let dims = self.mesh.dims();
        Response::Snapshot {
            mesh: (dims[0], dims[1]),
            streams,
        }
    }

    fn stats(&self) -> Response {
        let m = self.metrics.snapshot();
        let (streams, recomputations) = self.read().ctl.stats();
        let synced = self.wal_synced_seq();
        let frontier = self.ship_frontier().unwrap_or(synced);
        let repl = self.repl_hub().map(|mut hub| hub.report(synced, frontier));
        Response::Stats(Box::new(StatsReport {
            counts: m.counts,
            admitted: m.admitted,
            rejected: m.rejected,
            removed: m.removed,
            replayed: m.replayed,
            errors: m.errors,
            shed: m.shed,
            streams: streams as u64,
            recomputations,
            latency_count: m.latency_count,
            p50_us: m.p50_us,
            p90_us: m.p90_us,
            p99_us: m.p99_us,
            max_us: m.max_us,
            queue_count: m.queue_count,
            queue_p50_us: m.queue_p50_us,
            queue_p90_us: m.queue_p90_us,
            queue_p99_us: m.queue_p99_us,
            queue_max_us: m.queue_max_us,
            service_p50_us: m.service_p50_us,
            service_p90_us: m.service_p90_us,
            service_p99_us: m.service_p99_us,
            service_max_us: m.service_max_us,
            repl,
        }))
    }

    /// Re-derives every admitted stream's bound with a fresh offline
    /// `determine_feasibility` over the current set and compares it to
    /// the served (cached) bound, bit for bit. Returns the number of
    /// streams audited, or a description of the first mismatch.
    pub fn audit(&self) -> Result<usize, String> {
        let inner = self.read();
        if inner.handles.is_empty() {
            return Ok(0);
        }
        let set = StreamSet::from_parts(inner.ctl.parts().to_vec())
            .map_err(|e| format!("admitted set no longer resolves: {e}"))?;
        let fresh = determine_feasibility(&set);
        for id in set.ids() {
            let served = inner.ctl.bound(id);
            if fresh.bound(id) != served {
                return Err(format!(
                    "stream id {} (dense {id}): served bound {served} != offline bound {}",
                    inner.handles[id.index()],
                    fresh.bound(id)
                ));
            }
        }
        Ok(set.len())
    }
}

/// Serially replays an accepted-operation log against a fresh
/// controller, routing with the same deterministic X-Y algorithm the
/// service uses. Every operation in the log was accepted live, so the
/// replay must accept it too; a divergence is a serializability bug.
pub fn replay(mesh: &Mesh, ops: &[Arc<AcceptedOp>]) -> Result<AdmissionController, String> {
    let mut ctl = AdmissionController::new();
    let mut handles: Vec<u64> = Vec::new();
    for op in ops {
        match op.as_ref() {
            AcceptedOp::Admit { handle, spec } => {
                let path = XyRouting
                    .route(mesh, spec.source, spec.dest)
                    .map_err(|e| format!("replay admit {handle}: routing failed: {e}"))?;
                ctl.admit(spec.clone(), path)
                    .map_err(|e| format!("replay admit {handle} refused: {e}"))?;
                handles.push(*handle);
            }
            AcceptedOp::Remove { handle } => {
                let idx = handles
                    .iter()
                    .position(|h| h == handle)
                    .ok_or_else(|| format!("replay remove {handle}: unknown handle"))?;
                ctl.remove(StreamId(idx as u32));
                handles.remove(idx);
            }
        }
    }
    Ok(ctl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtwc_core::DelayBound;
    use std::time::Duration;

    fn service() -> AdmissionService {
        AdmissionService::new(Mesh::mesh2d(10, 10))
    }

    fn admit_line(svc: &AdmissionService, line: &str) -> Response {
        let (r, _) = svc.dispatch_line(line);
        r
    }

    #[test]
    fn admit_query_remove_round_trip() {
        let svc = service();
        let r = admit_line(&svc, "ADMIT 0,0 5,0 2 50 4");
        let Response::Admitted {
            id, bound, slack, ..
        } = r
        else {
            panic!("{r:?}");
        };
        assert_eq!(id, 0);
        assert_eq!(bound + slack, 50);
        let r = admit_line(&svc, "QUERY 0");
        assert!(
            matches!(r, Response::Query { id: 0, bound: b, .. } if b == bound),
            "{r:?}"
        );
        let r = admit_line(&svc, "REMOVE 0");
        assert_eq!(r, Response::Removed { id: 0 });
        assert_eq!(svc.admitted_count(), 0);
        let r = admit_line(&svc, "QUERY 0");
        assert!(matches!(r, Response::Error { .. }), "{r:?}");
    }

    #[test]
    fn journal_keeps_the_most_recent_operations_and_counts_all() {
        let svc = service();
        let rounds = JOURNAL_CAP as u64 / 2 + 3;
        for id in 0..rounds {
            let r = admit_line(&svc, "ADMIT 0,0 5,0 2 50 4");
            assert!(
                matches!(r, Response::Admitted { id: got, .. } if got == id),
                "{r:?}"
            );
            admit_line(&svc, &format!("REMOVE {id}"));
        }
        assert_eq!(svc.seq(), 2 * rounds, "every write counts");
        let ops = svc.ops();
        assert_eq!(ops.len(), JOURNAL_CAP, "only the newest are kept");
        let newest = AcceptedOp::Remove { handle: rounds - 1 };
        assert_eq!(ops.last().map(|op| &**op), Some(&newest));
        // Six writes over the cap: admits and removes of ids 0..=2 fell off.
        assert!(
            matches!(*ops[0], AcceptedOp::Admit { handle: 3, .. }),
            "{:?}",
            ops[0]
        );
    }

    #[test]
    fn handles_stay_stable_across_removals() {
        let svc = service();
        // Three streams on separate rows.
        for y in 0..3 {
            let r = admit_line(&svc, &format!("ADMIT 0,{y} 5,{y} 1 50 4"));
            assert!(matches!(r, Response::Admitted { .. }), "{r:?}");
        }
        // Removing id 1 must not disturb ids 0 and 2 (the controller's
        // dense ids shift; the service's stable ids must not).
        admit_line(&svc, "REMOVE 1");
        for id in [0u64, 2] {
            let r = admit_line(&svc, &format!("QUERY {id}"));
            assert!(
                matches!(r, Response::Query { id: got, .. } if got == id),
                "{r:?}"
            );
        }
        // A fresh admit gets a fresh id, not a recycled one.
        let r = admit_line(&svc, "ADMIT 0,4 5,4 1 50 4");
        assert!(matches!(r, Response::Admitted { id: 3, .. }), "{r:?}");

        // Handles made non-contiguous by removals in the middle: each
        // queried id answers with its own spec and bound.
        for y in 5..9u64 {
            let r = admit_line(&svc, &format!("ADMIT 0,{y} {y},{y} 2 {} 3", 40 + y));
            assert!(matches!(r, Response::Admitted { .. }), "{r:?}");
        }
        admit_line(&svc, "REMOVE 4");
        admit_line(&svc, "REMOVE 6");
        let bounds = svc.bounds_by_handle();
        assert_eq!(
            bounds.iter().map(|&(h, _)| h).collect::<Vec<_>>(),
            [0, 2, 3, 5, 7]
        );
        for (id, bound) in bounds {
            let (priority, period, length) = match id {
                0 | 2 | 3 => (1, 50, 4),
                _ => (2, 41 + id, 3),
            };
            let want = Response::Query {
                id,
                bound,
                deadline: period,
                slack: period - bound,
                priority,
                period,
                length,
            };
            assert_eq!(admit_line(&svc, &format!("QUERY {id}")), want);
        }
        for gone in [1, 4, 6, 8] {
            let r = admit_line(&svc, &format!("QUERY {gone}"));
            assert!(
                matches!(
                    r,
                    Response::Error {
                        code: "unknown_id",
                        ..
                    }
                ),
                "{r:?}"
            );
        }
    }

    #[test]
    fn verifier_gate_rejects_before_the_controller() {
        let svc = service();
        // Self-delivery: W003 fires, controller untouched.
        let r = admit_line(&svc, "ADMIT 2,2 2,2 1 50 4");
        let Response::Rejected {
            reason,
            diagnostics,
            ..
        } = r
        else {
            panic!("{r:?}");
        };
        assert_eq!(reason, RejectReason::Lint);
        assert!(
            diagnostics.iter().any(|d| d.code == "W003"),
            "{diagnostics:?}"
        );
        assert_eq!(svc.admitted_count(), 0);
        assert!(svc.ops().is_empty(), "rejected admit must not be logged");
    }

    #[test]
    fn analysis_rejection_names_the_blockers() {
        let svc = service();
        let r = admit_line(&svc, "ADMIT 0,0 5,0 2 20 10");
        assert!(matches!(r, Response::Admitted { .. }), "{r:?}");
        // Lower priority, same row, deadline too tight under blocking.
        let r = admit_line(&svc, "ADMIT 1,0 6,0 1 100 8 12");
        let Response::Rejected {
            reason, blocked_by, ..
        } = r
        else {
            panic!("{r:?}");
        };
        assert_eq!(reason, RejectReason::CandidateInfeasible);
        assert_eq!(blocked_by, vec![0], "names the admitted blocker");
    }

    #[test]
    fn breaks_existing_rejection_names_the_victims() {
        let svc = service();
        let r = admit_line(&svc, "ADMIT 0,0 5,0 1 100 8 14");
        assert!(matches!(r, Response::Admitted { .. }), "{r:?}");
        // High-priority heavyweight on the same row.
        let r = admit_line(&svc, "ADMIT 1,0 6,0 2 30 20");
        let Response::Rejected {
            reason, victims, ..
        } = r
        else {
            panic!("{r:?}");
        };
        assert_eq!(reason, RejectReason::BreaksExisting);
        assert_eq!(victims, vec![0]);
        // Victim ids are stable ids, still queryable.
        let q = admit_line(&svc, "QUERY 0");
        assert!(matches!(q, Response::Query { id: 0, .. }), "{q:?}");
    }

    #[test]
    fn snapshot_reflects_the_admitted_set() {
        let svc = service();
        admit_line(&svc, "ADMIT 0,0 5,0 2 50 4");
        admit_line(&svc, "ADMIT 0,1 5,1 1 60 4 55");
        let r = admit_line(&svc, "SNAPSHOT");
        let Response::Snapshot { mesh, streams } = r else {
            panic!("{r:?}");
        };
        assert_eq!(mesh, (10, 10));
        assert_eq!(streams.len(), 2);
        assert_eq!(streams[0].src, (0, 0));
        assert_eq!(streams[1].deadline, 55);
        assert!(streams.iter().all(|s| s.bound.is_bounded()));
    }

    #[test]
    fn stats_count_requests_and_outcomes() {
        let svc = service();
        admit_line(&svc, "ADMIT 0,0 5,0 2 50 4");
        admit_line(&svc, "ADMIT 2,2 2,2 1 50 4"); // lint-rejected
        admit_line(&svc, "QUERY 0");
        admit_line(&svc, "QUERY 99"); // error
        admit_line(&svc, "no such verb"); // malformed
        let r = admit_line(&svc, "STATS");
        let Response::Stats(s) = r else {
            panic!("{r:?}")
        };
        assert_eq!(s.counts[RequestKind::Admit as usize], 2);
        assert_eq!(s.counts[RequestKind::Query as usize], 2);
        assert_eq!(s.counts[RequestKind::Malformed as usize], 1);
        assert_eq!(s.admitted, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.errors, 2);
        assert_eq!(s.streams, 1);
        assert!(s.latency_count >= 5);
    }

    #[test]
    fn audit_matches_offline_analysis() {
        let svc = service();
        for (line, want_ok) in [
            ("ADMIT 0,0 5,0 3 60 4", true),
            ("ADMIT 1,0 6,0 2 90 6", true),
            ("ADMIT 0,2 7,2 3 70 8", true),
            ("ADMIT 2,0 2,5 1 120 10", true),
            ("ADMIT 1,2 6,2 1 150 6", true),
        ] {
            let r = admit_line(&svc, line);
            assert_eq!(matches!(r, Response::Admitted { .. }), want_ok, "{r:?}");
        }
        admit_line(&svc, "REMOVE 2");
        assert_eq!(svc.audit().unwrap(), 4);
    }

    #[test]
    fn replay_reproduces_the_live_state() {
        let svc = service();
        admit_line(&svc, "ADMIT 0,0 5,0 2 40 10");
        admit_line(&svc, "ADMIT 1,0 6,0 1 100 4");
        admit_line(&svc, "REMOVE 0");
        admit_line(&svc, "ADMIT 0,3 5,3 1 50 4");
        let replayed = replay(svc.mesh(), &svc.ops()).unwrap();
        let live: Vec<(u64, u64)> = svc.bounds_by_handle();
        assert_eq!(replayed.len(), live.len());
        for (i, &(_, bound)) in live.iter().enumerate() {
            assert_eq!(
                replayed.bound(StreamId(i as u32)),
                DelayBound::Bounded(bound)
            );
        }
    }

    #[test]
    fn follower_redirects_writes_and_serves_reads() {
        let mut svc = service();
        svc.attach_repl(ReplHub::follower("10.0.0.1:7000"));
        let r = admit_line(&svc, "ADMIT 0,0 5,0 2 50 4");
        let Response::Error { code, message } = r else {
            panic!("{r:?}");
        };
        assert_eq!(code, "not_leader");
        assert!(message.contains("10.0.0.1:7000"), "{message}");
        let r = admit_line(&svc, "REMOVE 0");
        assert!(
            matches!(
                r,
                Response::Error {
                    code: "not_leader",
                    ..
                }
            ),
            "{r:?}"
        );
        // Reads are exactly what a warm standby is for.
        assert!(matches!(
            admit_line(&svc, "SNAPSHOT"),
            Response::Snapshot { .. }
        ));
        let r = admit_line(&svc, "STATS");
        let Response::Stats(s) = r else {
            panic!("{r:?}")
        };
        let repl = s.repl.expect("replication gauges present");
        assert_eq!(repl.role, "follower");
        assert_eq!(repl.applied_seq, Some(0));
    }

    #[test]
    fn promotion_flips_a_follower_into_a_serving_leader() {
        let mut svc = service();
        svc.attach_repl(ReplHub::follower("old:1"));
        let r = admit_line(&svc, "PROMOTE");
        let Response::Promoted {
            epoch,
            streams,
            audited,
        } = r
        else {
            panic!("{r:?}");
        };
        assert_eq!(epoch, 2);
        assert_eq!(streams, 0);
        assert!(audited);
        // Writes flow now; a second PROMOTE is refused.
        let r = admit_line(&svc, "ADMIT 0,0 5,0 2 50 4");
        assert!(matches!(r, Response::Admitted { .. }), "{r:?}");
        let r = admit_line(&svc, "PROMOTE");
        assert!(
            matches!(
                r,
                Response::Error {
                    code: "already_leader",
                    ..
                }
            ),
            "{r:?}"
        );
    }

    #[test]
    fn replicated_frames_apply_exactly_once_by_seq() {
        let mut svc = service();
        svc.attach_repl(ReplHub::follower("leader:1"));
        let applied = |svc: &AdmissionService| svc.repl_hub().unwrap().applied_seq();
        let mesh = Mesh::mesh2d(10, 10);
        let spec = StreamSpec::new(
            mesh.node_at(&[0, 0]).unwrap(),
            mesh.node_at(&[5, 0]).unwrap(),
            2,
            50,
            4,
            50,
        );
        let admit = AcceptedOp::Admit {
            handle: 0,
            spec: spec.clone(),
        };
        svc.apply_replicated(1, 11, &admit).unwrap();
        assert_eq!(svc.admitted_count(), 1);
        assert_eq!(applied(&svc), 1);

        // Duplicate delivery (same seq): idempotent no-op.
        svc.apply_replicated(1, 11, &admit).unwrap();
        assert_eq!(svc.admitted_count(), 1);
        assert_eq!(svc.ops().len(), 1, "duplicate must not re-journal");

        // A gap is refused so the session reconnects and re-requests.
        let admit2 = AcceptedOp::Admit {
            handle: 1,
            spec: StreamSpec::new(
                mesh.node_at(&[0, 1]).unwrap(),
                mesh.node_at(&[5, 1]).unwrap(),
                1,
                60,
                4,
                60,
            ),
        };
        let err = svc.apply_replicated(5, 0, &admit2).unwrap_err();
        assert!(err.contains("gap"), "{err}");
        assert_eq!(svc.admitted_count(), 1);

        svc.apply_replicated(2, 0, &admit2).unwrap();
        svc.apply_replicated(3, 12, &AcceptedOp::Remove { handle: 0 })
            .unwrap();
        assert_eq!(svc.admitted_count(), 1);
        assert_eq!(applied(&svc), 3);

        // Exactly-once across failover: after promotion, a client
        // retrying the replicated request ids gets the original
        // outcomes from the dedup window, not fresh state changes.
        assert!(matches!(svc.promote(), Response::Promoted { .. }));
        let r = admit_line(&svc, "@11 ADMIT 0,0 5,0 2 50 4");
        assert!(
            matches!(r, Response::Admitted { id: 0, .. }),
            "retry must replay the original admission: {r:?}"
        );
        let r = admit_line(&svc, "@12 REMOVE 0");
        assert!(matches!(r, Response::Removed { id: 0 }), "{r:?}");
        assert_eq!(svc.admitted_count(), 1, "replays must not change state");

        // Once promoted, replicated frames are refused (stale leader).
        let err = svc
            .apply_replicated(4, 0, &AcceptedOp::Remove { handle: 1 })
            .unwrap_err();
        assert!(err.contains("not a follower"), "{err}");
    }

    #[test]
    fn duplicate_admit_is_lint_warned_not_blocked() {
        let svc = service();
        admit_line(&svc, "ADMIT 0,0 5,0 2 50 4");
        // Byte-identical duplicate: W001 is a warning, so the paper's
        // model admits it (both instances are analyzable) but the
        // response surfaces the finding.
        let r = admit_line(&svc, "ADMIT 0,0 5,0 2 50 4");
        let Response::Admitted { warnings, .. } = r else {
            panic!("{r:?}");
        };
        assert!(warnings.iter().any(|d| d.code == "W001"), "{warnings:?}");
    }

    /// A workload that exercises every response shape: quadrant-local
    /// and mesh-spanning admits, an idempotent replay, a lint rejection,
    /// an infeasible candidate, a breaks-existing candidate, a
    /// duplicate-warning admit, removal, query, snapshot.
    const PARITY_WORKLOAD: &[&str] = &[
        "ADMIT 0,0 3,0 3 60 4",     // local to the north-west quadrant
        "ADMIT 0,0 9,9 2 200 6",    // spans all four quadrants
        "@17 ADMIT 6,6 9,6 2 50 4", // local to the south-east quadrant
        "@17 ADMIT 6,6 9,6 2 50 4", // idempotent replay of the above
        "ADMIT 2,2 2,2 1 50 4",     // lint-rejected (self-delivery)
        "ADMIT 0,0 5,0 2 20 10",    // heavyweight crossing the x seam
        "ADMIT 1,0 6,0 1 100 8 12", // infeasible behind the above
        "ADMIT 0,1 5,1 1 100 8 14", // tight stream on row 1
        "ADMIT 1,1 6,1 3 30 20",    // would break the above
        "ADMIT 0,0 3,0 3 60 4",     // exact duplicate of stream 0 (W001)
        "REMOVE 1",
        "REMOVE 1", // unknown id now
        "QUERY 0",
        "QUERY 99", // unknown id
        "SNAPSHOT",
    ];

    /// Who orders the writes of a matrix cell: a client sending request
    /// lines, or a leader shipping the frames those lines produced.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum From {
        Client,
        Leader,
    }

    /// The write-path matrix: every origin, on the one backend.
    const CELLS: [From; 2] = [From::Client, From::Leader];

    /// The `@REQID` prefix of a request line (0 = none).
    fn req_id_of(line: &str) -> u64 {
        line.strip_prefix('@')
            .and_then(|rest| rest.split(' ').next())
            .map_or(0, |id| id.parse().unwrap())
    }

    fn render_line(svc: &AdmissionService, line: &str) -> String {
        render_response(&admit_line(svc, line))
    }

    #[test]
    fn write_path_parity_matrix() {
        // The reference is a client: its answers, journal and bounds are
        // what every cell must reproduce, and the frames it would ship
        // are what the leader cell replays.
        let reference = service();
        let mut answers = Vec::new();
        let mut frames: Vec<(u64, Arc<AcceptedOp>)> = Vec::new();
        for line in PARITY_WORKLOAD {
            answers.push(render_line(&reference, line));
            if let Some(op) = reference.ops().get(frames.len()) {
                frames.push((req_id_of(line), Arc::clone(op)));
            }
        }
        assert!(frames.len() >= 5, "workload must accept operations");
        let retry = "@17 ADMIT 6,6 9,6 2 50 4";
        assert!(frames.iter().any(|&(req_id, _)| req_id == req_id_of(retry)));
        let original = render_line(&reference, retry);

        // The journal replays serially to bit-identical bounds.
        let replayed = replay(reference.mesh(), &reference.ops()).unwrap();
        let live = reference.bounds_by_handle();
        assert_eq!(replayed.len(), live.len());
        for (i, &(_, bound)) in live.iter().enumerate() {
            let id = StreamId(i as u32);
            assert_eq!(replayed.bound(id), DelayBound::Bounded(bound), "{i}");
        }

        for from in CELLS {
            let cell = format!("{from:?}");
            let mut svc = service();
            match from {
                From::Client => {
                    for (line, want) in PARITY_WORKLOAD.iter().zip(&answers) {
                        assert_eq!(&render_line(&svc, line), want, "{cell}: {line:?}");
                    }
                }
                From::Leader => {
                    svc.attach_repl(ReplHub::follower("leader:1"));
                    for (i, (req_id, op)) in frames.iter().enumerate() {
                        let seq = i as u64 + 1;
                        svc.apply_replicated(seq, *req_id, op).unwrap();
                        // Duplicate delivery (leader rewound): a no-op.
                        svc.apply_replicated(seq, *req_id, op).unwrap();
                    }
                    let applied = svc.repl_hub().unwrap().applied_seq();
                    assert_eq!(applied, frames.len() as u64, "{cell}");
                    // A sequence gap is refused.
                    let err = svc
                        .apply_replicated(99, 0, &AcceptedOp::Remove { handle: 0 })
                        .unwrap_err();
                    assert!(err.contains("gap"), "{cell}: {err}");
                }
            }
            assert_eq!(svc.ops(), reference.ops(), "{cell}: journals differ");
            assert_eq!(
                svc.bounds_by_handle(),
                reference.bounds_by_handle(),
                "{cell}"
            );
            assert_eq!(svc.audit().unwrap(), svc.admitted_count(), "{cell}");

            // Exactly-once across failover: the promoted follower (like
            // the leader it replaces) answers a retried request id with
            // the original outcome and changes nothing.
            if from == From::Leader {
                assert!(matches!(svc.promote(), Response::Promoted { .. }), "{cell}");
            }
            assert_eq!(
                render_line(&svc, retry),
                original,
                "{cell}: retried request id"
            );
            assert_eq!(
                svc.ops(),
                reference.ops(),
                "{cell}: a replay changes nothing"
            );
            // Promotion serves writes immediately: no restart, no
            // migration step.
            let r = admit_line(&svc, "ADMIT 0,2 5,2 2 50 4");
            assert!(matches!(r, Response::Admitted { .. }), "{cell}: {r:?}");
        }
    }

    #[test]
    fn wal_refusal_leaves_no_trace_in_any_cell() {
        use crate::faultfs::{scratch_dir, FailpointFile, FaultPlan, FaultState};
        let mesh = Mesh::mesh2d(10, 10);
        for from in CELLS {
            let cell = format!("{from:?}");
            let dir = scratch_dir("wal-refusal");
            std::fs::create_dir_all(&dir).unwrap();
            // Append #1 is the WAL header, #2-#4 the three residents;
            // #5 tears, which breaks the log.
            let plan = FaultPlan {
                torn_append: Some((5, 10)),
                ..FaultPlan::default()
            };
            let fault = Arc::new(FaultState::default());
            let path = dir.join(crate::wal::WAL_FILE);
            let file = Box::new(FailpointFile::open(&path, plan, Arc::clone(&fault)).unwrap());
            let mut svc =
                crate::chaos::durable_service(&mesh, &dir, FsyncPolicy::Never, 0, file).unwrap();
            if from == From::Leader {
                svc.attach_repl(ReplHub::follower("leader:1"));
            }
            // A client sends the line; a leader serves it on a reference
            // service and ships the frame it journals.
            let leader = service();
            let send = |line: &str| -> Result<(), String> {
                if from == From::Client {
                    return match admit_line(&svc, line) {
                        Response::Error { message, .. } => Err(message),
                        _ => Ok(()),
                    };
                }
                let shipped = leader.ops().len();
                admit_line(&leader, line);
                let op = Arc::clone(&leader.ops()[shipped]);
                let applied = svc.apply_replicated(svc.seq() + 1, req_id_of(line), &op);
                // The reactor writes the frame's record before it acks
                // the frame to the leader.
                svc.write_wal();
                applied
            };
            for line in [
                "ADMIT 0,0 5,0 2 40 10",
                "ADMIT 0,0 9,9 2 200 6",
                "@7 ADMIT 6,6 9,6 2 50 4",
            ] {
                send(line).unwrap();
            }
            svc.flush();
            // A sacrificial record takes the torn append: the flush
            // that lands it breaks the log, and a broken log is a
            // degraded service from that instant on.
            send("ADMIT 0,4 5,4 1 50 4").unwrap();
            svc.flush();
            assert!(fault.fired() && svc.is_degraded(), "{cell}");

            let trace = |svc: &AdmissionService| {
                let mut dedup: Vec<u64> = svc.read().dedup.keys().copied().collect();
                dedup.sort_unstable();
                (
                    svc.ops(),
                    svc.admitted_count(),
                    svc.bounds_by_handle(),
                    dedup,
                    svc.repl_hub().map(|h| h.applied_seq()),
                )
            };
            let before = trace(&svc);
            // Shares row 0 with a resident, so a decision that was not
            // rolled back would show in the resident's bound.
            let err = send("@99 ADMIT 1,0 6,0 1 100 4").unwrap_err();
            assert!(err.contains("WAL"), "{cell}: {err}");
            assert!(svc.is_degraded(), "{cell}: a WAL refusal degrades");
            assert_eq!(
                trace(&svc),
                before,
                "{cell}: the refused admit left a trace"
            );
            if from == From::Leader {
                // The gate that refuses a degraded client's next write
                // does not guard the follower session: a refused removal
                // must leave no trace either.
                send("@100 REMOVE 0").unwrap_err();
                assert_eq!(
                    trace(&svc),
                    before,
                    "{cell}: the refused remove left a trace"
                );
            }
            assert_eq!(svc.audit().unwrap(), svc.admitted_count(), "{cell}");
            drop(svc);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn sealed_leader_sheds_writes_until_contact_returns() {
        let mut svc = service();
        let mut hub = ReplHub::leader();
        hub.set_lease(Duration::from_millis(40));
        svc.attach_repl(hub);
        let ack = |svc: &AdmissionService| svc.repl_hub().unwrap().note_follower_ack("f:1", 1);
        // Unarmed lease (no follower ever acked): writes flow.
        let r = admit_line(&svc, "ADMIT 0,0 5,0 2 50 4");
        assert!(matches!(r, Response::Admitted { .. }), "{r:?}");
        // A follower acks, then goes silent past the lease.
        ack(&svc);
        std::thread::sleep(Duration::from_millis(60));
        let r = admit_line(&svc, "ADMIT 0,1 5,1 2 50 4");
        assert!(matches!(r, Response::Error { code: "sealed", .. }), "{r:?}");
        // Reads still serve while sealed.
        let r = admit_line(&svc, "QUERY 0");
        assert!(matches!(r, Response::Query { .. }), "{r:?}");
        // Contact returns (partition healed, nobody promoted): unseal.
        ack(&svc);
        let r = admit_line(&svc, "ADMIT 0,1 5,1 2 50 4");
        assert!(matches!(r, Response::Admitted { .. }), "{r:?}");
    }

    #[test]
    fn fenced_node_demotes_audits_and_refuses_promotion() {
        let mut svc = service();
        svc.attach_repl(ReplHub::leader());
        admit_line(&svc, "ADMIT 0,0 5,0 2 50 4");
        admit_line(&svc, "ADMIT 0,1 5,1 2 50 4");
        assert_eq!(svc.seq(), 2);

        // A peer promoted to epoch 2 having applied only seq 1: one
        // divergent op.
        assert!(svc.fence(2, 1, "winner:9"));
        {
            let hub = svc.repl_hub().unwrap();
            assert!(hub.is_fenced());
            assert!(hub.is_follower());
            assert_eq!(hub.epoch(), 2);
            assert_eq!(hub.divergence_ops(), 1);
            assert_eq!(hub.leader_addr(), "winner:9");
        }

        // Writes now redirect to the winner...
        let r = admit_line(&svc, "ADMIT 0,2 5,2 2 50 4");
        assert!(
            matches!(
                r,
                Response::Error {
                    code: "not_leader",
                    ..
                }
            ),
            "{r:?}"
        );
        // ...and promotion is refused outright.
        let r = admit_line(&svc, "PROMOTE");
        assert!(matches!(r, Response::Error { code: "fenced", .. }), "{r:?}");
        // A stale fence is ignored.
        assert!(!svc.fence(2, 0, "other:1"));
        assert_eq!(svc.repl_hub().unwrap().fence_events(), 1);
    }

    #[test]
    fn the_service_moves_between_threads() {
        // The other half of the `compile_fail` doctest on
        // `AdmissionService`: built on one thread, run on another.
        fn movable<T: Send>(_: &T) {}
        movable(&service());
    }

    #[test]
    fn failed_interval_sync_degrades_writes_and_keeps_reads() {
        use crate::faultfs::{scratch_dir, FailpointFile, FaultPlan, FaultState};
        let dir = scratch_dir("interval-degrade");
        std::fs::create_dir_all(&dir).unwrap();
        // Sync #1 is the WAL header; the flusher's first sync fails.
        let plan = FaultPlan {
            fail_sync_from: Some(2),
            ..FaultPlan::default()
        };
        let fault = Arc::new(FaultState::default());
        let file =
            FailpointFile::open(&dir.join(crate::wal::WAL_FILE), plan, Arc::clone(&fault)).unwrap();
        let policy = FsyncPolicy::Interval(Duration::from_millis(1));
        let svc =
            crate::chaos::durable_service(&Mesh::mesh2d(10, 10), &dir, policy, 0, Box::new(file))
                .unwrap();
        let r = admit_line(&svc, "ADMIT 0,0 5,0 2 50 4");
        assert!(matches!(r, Response::Admitted { .. }), "{r:?}");
        assert!(!svc.is_degraded());
        // The flusher thread holds only its handle onto the WAL's file;
        // its failed sync breaks the log, and nothing else needs telling.
        let mut flusher = svc.interval_flusher().unwrap().expect("interval policy");
        let flusher = std::thread::spawn(move || flusher.sync());
        assert!(flusher.join().unwrap().is_err(), "the injected sync fails");
        assert!(fault.fired());
        assert!(svc.is_degraded(), "a broken log degrades the service");
        let r = admit_line(&svc, "ADMIT 0,1 5,1 2 50 4");
        assert!(
            matches!(
                r,
                Response::Error {
                    code: "degraded",
                    ..
                }
            ),
            "{r:?}"
        );
        let r = admit_line(&svc, "QUERY 0");
        assert!(matches!(r, Response::Query { id: 0, .. }), "{r:?}");
        drop(svc);
        std::fs::remove_dir_all(&dir).ok();
    }
}
