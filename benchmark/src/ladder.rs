//! The in-process ladder of the traced run: the same list of requests
//! replayed single-threaded against one layer at a time, bottom up, so
//! that a layer's self time is its rung minus the rungs beneath it.
//!
//! Rungs: request parsing; routing and the verifier's candidate lint;
//! `AdmissionController`; `ShardedController` at one and four shards;
//! `AdmissionService::dispatch_line` without a WAL; response rendering;
//! `Wal` appends and syncs; `dispatch_line` behind a durable group
//! commit; snapshot writing; recovery of the directory the durable rung
//! left. Every call is one span; the rungs of request `i` share `op = i`.
//! Every rung must answer every request as the library responder did
//! ([`Replay::expected`]); a disagreement fails the run.

use crate::gen::{Op, Verb};
use crate::library::{candidate, Library, Replay};
use crate::loadgen::Reply;
use crate::stats;
use crate::trace::Spans;
use rtwc_core::{AdmissionError, ShardMap, ShardedController, StreamId, StreamSpec};
use rtwc_server::protocol::{parse_request, render_response, Response};
use rtwc_server::wal::WAL_HEADER_BYTES;
use rtwc_server::{
    recover, write_snapshot, AcceptedOp, AdmissionService, Durability, FsyncPolicy, GroupWal,
    RealFile, SnapshotData, Wal,
};
use rtwc_verifier::lint_candidate_routed;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};
use wormnet_topology::{Routing, Topology, XyRouting};

/// `rtwc serve`'s default snapshot cadence.
const SNAPSHOT_EVERY: u64 = 1024;
/// The durable rung pays one `fdatasync` per write, so it replays a
/// prefix of the list, and stops early once this much time is spent.
const DURABLE_OPS: usize = 4_000;
const DURABLE_BUDGET: Duration = Duration::from_secs(4);
/// Appends between two timed `sync_now` calls on the WAL rung.
const SYNC_EVERY: usize = 64;

/// Metric name to (value, samples behind it).
pub type Measured = BTreeMap<&'static str, (f64, usize)>;

/// Per-verb timings of one rung, microseconds.
#[derive(Default)]
struct VerbTimes([Vec<f64>; 3]);

impl VerbTimes {
    fn push(&mut self, verb: Verb, ns: f64) {
        self.0[verb.index()].push(ns / 1e3);
    }

    fn of(&mut self, verb: Verb) -> &mut Vec<f64> {
        &mut self.0[verb.index()]
    }

    fn total(&self) -> f64 {
        self.0.iter().flatten().sum()
    }
}

fn p(values: &mut [f64], q: f64) -> (f64, usize) {
    (stats::quantile(values, q), values.len())
}

fn reply_of(response: &Response) -> Reply {
    match response {
        Response::Admitted { id, .. } => Reply::Admitted(*id),
        Response::Rejected { .. } => Reply::Rejected,
        Response::Removed { .. } => Reply::Removed,
        Response::Query { .. } => Reply::Ok,
        _ => Reply::Failed,
    }
}

fn disagree(rung: &str, i: usize, op: &Op, got: Reply, want: Reply) -> String {
    format!(
        "rung {rung} answered request {i} ({}) with {got:?}, the library responder with {want:?}",
        op.line()
    )
}

/// The request lines of the list and a span-timed `parse_request` of
/// each measured one.
fn parse_rung(replay: &Replay, spans: &mut Spans, out: &mut Measured) -> Result<(), String> {
    let mut ns = Vec::with_capacity(replay.ops.len());
    for (i, op) in replay.ops.iter().enumerate() {
        let line = op.line();
        spans.set_op(i as u64);
        let (parsed, t) = spans.timed("server.protocol", "parse", None, || parse_request(&line));
        parsed.map_err(|e| format!("generated line '{line}' does not parse: {e}"))?;
        ns.push(t);
    }
    out.insert("server.protocol.parse_ns", p(&mut ns, 0.5));
    Ok(())
}

/// Route, lint and the serial controller, each its own span.
fn controller_rung(replay: &Replay, spans: &mut Spans, out: &mut Measured) -> Result<f64, String> {
    let mut lib = Library::new(replay.mesh.clone());
    for (op, _) in replay.seed.iter().zip(&replay.expected) {
        lib.apply(op);
    }
    let (mut route_ns, mut lint_us) = (Vec::new(), Vec::new());
    let mut times = VerbTimes::default();
    let (mut admits, mut rejected, recomputed_before) = (0usize, 0usize, lib.ctl.recomputations());
    let expected = &replay.expected[replay.seed.len()..];
    for (i, (op, &want)) in replay.ops.iter().zip(expected).enumerate() {
        spans.set_op(i as u64);
        let got = match *op {
            Op::Admit { src, dst, .. } => {
                admits += 1;
                let (source, dest) = (
                    lib.mesh
                        .node_at(&[src.0, src.1])
                        .expect("generated on the mesh"),
                    lib.mesh
                        .node_at(&[dst.0, dst.1])
                        .expect("generated on the mesh"),
                );
                let (path, t) = spans.timed("topology", "route", None, || {
                    XyRouting.route(&lib.mesh, source, dest)
                });
                route_ns.push(t);
                let path = path.map_err(|e| format!("route failed: {e}"))?;
                let (spec, _) = candidate(&lib.mesh, op).expect("routed above");
                let (findings, t) = spans.timed("verifier", "lint", None, || {
                    lint_candidate_routed(&lib.mesh, &XyRouting, lib.ctl.parts(), &spec)
                });
                lint_us.push(t / 1e3);
                if findings.iter().any(rtwc_verifier::Diagnostic::is_error) {
                    Reply::Rejected
                } else {
                    let (verdict, t) = spans.timed("core.admission", "admit", None, || {
                        lib.ctl.admit(spec, path)
                    });
                    times.push(Verb::Admit, t);
                    match verdict {
                        Ok(_) => Reply::Admitted(lib.bind()),
                        Err(_) => Reply::Rejected,
                    }
                }
            }
            Op::Query(handle) => {
                let id = lib.dense(handle).ok_or("query of an unknown handle")?;
                let (_, t) = spans.timed("core.admission", "query", None, || lib.ctl.bound(id));
                times.push(Verb::Query, t);
                Reply::Ok
            }
            Op::Remove { id: handle, .. } => {
                let id = lib.dense(handle).ok_or("removal of an unknown handle")?;
                let ((), t) = spans.timed("core.admission", "remove", None, || lib.ctl.remove(id));
                times.push(Verb::Remove, t);
                lib.unbind(id);
                Reply::Removed
            }
        };
        if got == Reply::Rejected {
            rejected += 1;
        }
        if got != want {
            return Err(disagree("core.admission", i, op, got, want));
        }
    }
    out.insert("topology.route_ns", p(&mut route_ns, 0.5));
    out.insert("verifier.lint_p50_us", p(&mut lint_us, 0.5));
    out.insert("core.admission.admit_p50_us", p(times.of(Verb::Admit), 0.5));
    out.insert(
        "core.admission.admit_p99_us",
        p(times.of(Verb::Admit), 0.99),
    );
    out.insert(
        "core.admission.remove_p50_us",
        p(times.of(Verb::Remove), 0.5),
    );
    out.insert(
        "core.admission.remove_p99_us",
        p(times.of(Verb::Remove), 0.99),
    );
    // Exact counts for a seed. Counts are far below 2^52.
    #[allow(clippy::cast_precision_loss)]
    {
        let recomputed = (lib.ctl.recomputations() - recomputed_before) as f64;
        let n = admits.max(1) as f64;
        out.insert(
            "core.admission.recomputations_per_admit",
            (recomputed / n, admits),
        );
        out.insert("core.admission.reject_share", (rejected as f64 / n, admits));
    }
    Ok(times.of(Verb::Admit).iter().sum::<f64>() + times.of(Verb::Remove).iter().sum::<f64>())
}

/// `ShardedController` over `shards` regions. Lint-refused candidates
/// never reach a controller, so they are skipped as the reference did.
fn sharded_rung(
    replay: &Replay,
    shards: usize,
    spans: &mut Spans,
) -> Result<(VerbTimes, f64), String> {
    let layer = if shards == 1 {
        "core.shard.s1"
    } else {
        "core.shard.s4"
    };
    let mut ctl = ShardedController::new(ShardMap::regions(&replay.mesh, shards));
    // `live[dense id]` is the handle, as in `Library`.
    let mut live: Vec<u64> = Vec::new();
    let mut next_handle = 0;
    let mut times = VerbTimes::default();
    let dense = |live: &[u64], handle: u64| {
        live.binary_search(&handle)
            .ok()
            .and_then(|i| u32::try_from(i).ok())
            .map(StreamId)
            .ok_or("unknown handle on the sharded rung")
    };
    let measured_from = replay.seed.len();
    for (i, (op, want)) in replay.all().enumerate() {
        let timed = i >= measured_from;
        spans.set_op((i.saturating_sub(measured_from)) as u64);
        let mut time = |name: &'static str, f: &mut dyn FnMut()| -> f64 {
            if timed {
                spans.timed(layer, name, None, f).1
            } else {
                f();
                0.0
            }
        };
        match *op {
            Op::Admit { .. } => {
                let (spec, path) = candidate(&replay.mesh, op).ok_or("unroutable candidate")?;
                let mut verdict: Option<Result<StreamId, AdmissionError>> = None;
                // The reference lint needs the serial controller's
                // parts; what it decided is in `want`. A candidate it
                // refused that the plane would also refuse goes through
                // the plane harmlessly, one it would accept must not.
                let ns = time("admit", &mut || {
                    verdict = Some(ctl.admit(spec.clone(), path.clone()));
                });
                match (verdict.expect("closure ran"), want) {
                    (Ok(_), Reply::Admitted(handle)) => {
                        if handle != next_handle {
                            return Err(format!("{layer}: handle {next_handle} != {handle}"));
                        }
                        live.push(handle);
                        next_handle += 1;
                    }
                    (Err(_), Reply::Rejected) => {}
                    (Ok(id), Reply::Rejected) => {
                        // Lint-refused (the controller alone accepts
                        // it): undo, so the sets stay equal.
                        ctl.remove(id);
                        continue;
                    }
                    (got, want) => {
                        let got = if got.is_ok() {
                            Reply::Ok
                        } else {
                            Reply::Rejected
                        };
                        return Err(disagree(layer, i, op, got, want));
                    }
                }
                if timed {
                    times.push(Verb::Admit, ns);
                }
            }
            Op::Query(handle) => {
                let id = dense(&live, handle)?;
                let ns = time("query", &mut || {
                    std::hint::black_box(ctl.bound(id));
                });
                if timed {
                    times.push(Verb::Query, ns);
                }
            }
            Op::Remove { id: handle, .. } => {
                let id = dense(&live, handle)?;
                let ns = time("remove", &mut || ctl.remove(id));
                live.remove(id.index());
                if timed {
                    times.push(Verb::Remove, ns);
                }
            }
        }
    }
    // Counts are far below 2^52.
    #[allow(clippy::cast_precision_loss)]
    let cross_share = ctl.cross_admits() as f64 / (next_handle.max(1)) as f64;
    Ok((times, cross_share))
}

/// `dispatch_line` on an in-memory service, then `render_response` of
/// what it answered. Returns the service for the rungs that need its
/// journal.
fn service_rung(
    replay: &Replay,
    spans: &mut Spans,
    out: &mut Measured,
) -> Result<AdmissionService, String> {
    let service = AdmissionService::new(replay.mesh.clone());
    let mut times = VerbTimes::default();
    let mut responses = Vec::with_capacity(replay.ops.len());
    let measured_from = replay.seed.len();
    for (i, (op, want)) in replay.all().enumerate() {
        let line = op.line();
        let response = if i < measured_from {
            service.dispatch_line(&line).0
        } else {
            spans.set_op((i - measured_from) as u64);
            let (r, t) = spans.timed("server.service", op.verb().name(), None, || {
                service.dispatch_line(&line).0
            });
            times.push(op.verb(), t);
            r
        };
        let got = reply_of(&response);
        if got != want {
            return Err(disagree("server.service", i, op, got, want));
        }
        if i >= measured_from {
            responses.push(response);
        }
    }
    let mut render_ns = Vec::with_capacity(responses.len());
    for (i, response) in responses.iter().enumerate() {
        spans.set_op(i as u64);
        let (text, t) = spans.timed("server.protocol", "render", None, || {
            render_response(response)
        });
        std::hint::black_box(text);
        render_ns.push(t);
    }
    out.insert("server.protocol.render_ns", p(&mut render_ns, 0.5));
    out.insert("server.service.admit_p50_us", p(times.of(Verb::Admit), 0.5));
    out.insert(
        "server.service.remove_p50_us",
        p(times.of(Verb::Remove), 0.5),
    );
    out.insert("server.service.query_p50_us", p(times.of(Verb::Query), 0.5));
    Ok(service)
}

/// `Wal::append` without syncing, a timed `sync_now` every
/// [`SYNC_EVERY`] appends.
fn wal_rung(
    journal: &[std::sync::Arc<AcceptedOp>],
    dir: &Path,
    spans: &mut Spans,
    out: &mut Measured,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("WAL rung: {e}");
    let file = RealFile::open(&dir.join("wal.log")).map_err(io)?;
    let (mut wal, _) = Wal::open(Box::new(file), FsyncPolicy::Never).map_err(io)?;
    let (mut append_ns, mut sync_us) = (Vec::new(), Vec::new());
    for (i, op) in journal.iter().enumerate() {
        spans.set_op(i as u64);
        let (r, t) = spans.timed("server.wal", "append", None, || {
            wal.append(i as u64 + 1, op)
        });
        r.map_err(io)?;
        append_ns.push(t);
        if (i + 1) % SYNC_EVERY == 0 {
            let (r, t) = spans.timed("server.wal", "sync", None, || wal.sync_now());
            r.map_err(io)?;
            sync_us.push(t / 1e3);
        }
    }
    // Offsets and record counts are far below 2^52.
    #[allow(clippy::cast_precision_loss)]
    let bytes_per_op = (wal.end_offset() - WAL_HEADER_BYTES) as f64 / wal.records().max(1) as f64;
    out.insert("server.wal.append_ns", p(&mut append_ns, 0.5));
    out.insert("server.wal.sync_us", p(&mut sync_us, 0.5));
    out.insert("server.wal.bytes_per_op", (bytes_per_op, journal.len()));
    Ok(())
}

/// `dispatch_line` with every write behind `--fsync always` group
/// commit (one thread, so batches of one), then `recover` of what it
/// left on disk.
fn durable_rung(
    replay: &Replay,
    dir: &Path,
    spans: &mut Spans,
    out: &mut Measured,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("durable rung: {e}");
    let (state, wal, _) = recover(&replay.mesh, dir, FsyncPolicy::Always).map_err(io)?;
    let service = AdmissionService::with_durability(
        replay.mesh.clone(),
        state,
        Durability {
            dir: dir.to_path_buf(),
            wal: GroupWal::new(wal),
            snapshot_every: SNAPSHOT_EVERY,
        },
    );
    let mut admit_us = Vec::new();
    let started = Instant::now();
    let measured_from = replay.seed.len();
    for (i, (op, want)) in replay.all().enumerate() {
        if i >= measured_from + DURABLE_OPS || started.elapsed() > DURABLE_BUDGET {
            break;
        }
        let line = op.line();
        spans.set_op(i.saturating_sub(measured_from) as u64);
        let (response, t) = spans.timed("server.group_commit", op.verb().name(), None, || {
            service.dispatch_line(&line).0
        });
        let got = reply_of(&response);
        if got != want {
            return Err(disagree("server.group_commit", i, op, got, want));
        }
        if i >= measured_from && op.verb() == Verb::Admit {
            admit_us.push(t / 1e3);
        }
    }
    let gc = service
        .group_commit_stats()
        .ok_or("a durable service has group-commit statistics")?;
    out.insert(
        "server.group_commit.durable_admit_p50_us",
        p(&mut admit_us, 0.5),
    );
    let synced = usize::try_from(gc.ops_synced).unwrap_or(usize::MAX);
    out.insert("server.group_commit.mean_batch", (gc.mean_batch(), synced));
    // Counts are far below 2^52.
    #[allow(clippy::cast_precision_loss)]
    out.insert(
        "server.group_commit.syncs_per_op",
        (gc.syncs as f64 / gc.ops_synced.max(1) as f64, synced),
    );
    service.flush();
    drop(service);
    let ((_, _, report), t) = {
        let (r, t) = spans.timed("server.recovery", "recover", None, || {
            recover(&replay.mesh, dir, FsyncPolicy::Always)
        });
        (r.map_err(io)?, t)
    };
    out.insert("server.recovery.recover_ms", (t / 1e6, 1));
    // Record counts are far below 2^52.
    #[allow(clippy::cast_precision_loss)]
    out.insert(
        "server.recovery.replayed_ops",
        (report.wal_records as f64, report.wal_records),
    );
    Ok(())
}

/// `write_snapshot` of the set the journal leaves admitted.
fn snapshot_rung(
    journal: &[std::sync::Arc<AcceptedOp>],
    dir: &Path,
    spans: &mut Spans,
    out: &mut Measured,
) -> Result<(), String> {
    let mut live: BTreeMap<u64, StreamSpec> = BTreeMap::new();
    let mut next_handle = 0;
    for op in journal {
        match &**op {
            AcceptedOp::Admit { handle, spec } => {
                live.insert(*handle, spec.clone());
                next_handle = handle + 1;
            }
            AcceptedOp::Remove { handle } => {
                live.remove(handle);
            }
        }
    }
    let data = SnapshotData {
        seq: journal.len() as u64,
        next_handle,
        streams: live.into_iter().collect(),
        dedup: Vec::new(),
    };
    let mut ms = Vec::new();
    for i in 0..5 {
        spans.set_op(i);
        let (r, t) = spans.timed("server.snapshot", "write", None, || {
            write_snapshot(dir, &data)
        });
        r.map_err(|e| format!("snapshot rung: {e}"))?;
        ms.push(t / 1e6);
    }
    let bytes = std::fs::metadata(dir.join(rtwc_server::snapshot::SNAPSHOT_FILE))
        .map_err(|e| format!("snapshot rung: {e}"))?
        .len();
    out.insert("server.snapshot.write_ms", p(&mut ms, 0.5));
    // File sizes are far below 2^52.
    #[allow(clippy::cast_precision_loss)]
    out.insert("server.snapshot.bytes", (bytes as f64, data.streams.len()));
    Ok(())
}

/// Runs every rung. `scratch` is an empty directory for the rungs that
/// write files.
pub fn run(replay: &Replay, scratch: &Path, spans: &mut Spans) -> Result<Measured, String> {
    let mut out = Measured::new();
    parse_rung(replay, spans, &mut out)?;
    let serial_us = controller_rung(replay, spans, &mut out)?;

    let (mut s1, _) = sharded_rung(replay, 1, spans)?;
    out.insert("core.shard.s1_admit_p50_us", p(s1.of(Verb::Admit), 0.5));
    out.insert("core.shard.s1_remove_p50_us", p(s1.of(Verb::Remove), 0.5));
    let writes = s1.of(Verb::Admit).len() + s1.of(Verb::Remove).len();
    let s1_us = s1.total() - s1.of(Verb::Query).iter().sum::<f64>();
    out.insert("core.shard.s1_overhead_x", (s1_us / serial_us, writes));
    let (mut s4, cross_share) = sharded_rung(replay, 4, spans)?;
    out.insert("core.shard.s4_admit_p50_us", p(s4.of(Verb::Admit), 0.5));
    out.insert(
        "core.shard.s4_cross_share",
        (cross_share, s4.of(Verb::Admit).len()),
    );

    let service = service_rung(replay, spans, &mut out)?;
    // Self time of the service rung: an admit's `dispatch_line` minus
    // the rungs it calls (parse, route, lint, controller). Rendering
    // happens after `dispatch_line` returns and belongs to the wire.
    let v = |out: &Measured, name: &str| out[name].0;
    let beneath = v(&out, "server.protocol.parse_ns") / 1e3
        + v(&out, "topology.route_ns") / 1e3
        + v(&out, "verifier.lint_p50_us")
        + v(&out, "core.admission.admit_p50_us");
    let admit = out["server.service.admit_p50_us"];
    out.insert("server.service.self_us", (admit.0 - beneath, admit.1));

    let journal = service.ops();
    let measured = &journal[journal.len().saturating_sub(replay.ops.len())..];
    let sub = |name: &str| -> Result<std::path::PathBuf, String> {
        let dir = scratch.join(name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    };
    wal_rung(measured, &sub("wal")?, spans, &mut out)?;
    durable_rung(replay, &sub("durable")?, spans, &mut out)?;
    snapshot_rung(&journal, &sub("snapshot")?, spans, &mut out)?;
    Ok(out)
}
