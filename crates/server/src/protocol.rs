//! The wire protocol: newline-delimited text requests, single-line
//! JSON responses.
//!
//! ## Request grammar
//!
//! ```text
//! [@REQID] ADMIT SX,SY DX,DY PRIORITY PERIOD LENGTH [DEADLINE]
//! [@REQID] REMOVE <id>
//! QUERY <id>
//! SNAPSHOT
//! STATS
//! PROMOTE
//! SHUTDOWN
//! ```
//!
//! Keywords are case-insensitive; fields are whitespace-separated; the
//! `ADMIT` argument grammar is exactly the `.streams` `stream` line
//! (coordinates on the mesh, deadline defaulting to the period). Ids
//! are the stable handles the service assigned on admission — they
//! never shift when other streams are removed.
//!
//! The optional `@REQID` prefix (a nonzero integer, e.g.
//! `@17 ADMIT ...`) makes a state-changing request **idempotent**: a
//! client that lost the response can resend the same line and receive
//! the original outcome instead of double-admitting. The id is
//! persisted in the WAL, so the guarantee survives a server crash.
//!
//! ## Responses
//!
//! Every response is a single line of JSON with a `status` field:
//! `admitted`, `rejected`, `removed`, `ok`, `busy`, `shutting-down`, or
//! `error`. Errors carry a machine-readable `code` (`too_long`,
//! `degraded`, `unknown_id`, …); `busy` carries `retry_after_ms` for
//! client backoff. Rejections carry machine-readable diagnostics in the
//! same object shape as `rtwc lint --format json` (see
//! [`rtwc_verifier::render_diagnostic_json`]).

use rtwc_core::DelayBound;
use rtwc_verifier::{json_escape, render_diagnostic_json, Diagnostic};
use std::fmt::Write as _;

/// Hard cap on request-line length. The server answers an overlong
/// line with `{"status":"error","code":"too_long",...}`, discards
/// input up to the next newline, and keeps the connection.
pub const MAX_LINE_BYTES: usize = 1024 * 1024;

/// A parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Admit a candidate stream (the `.streams` `stream` grammar).
    Admit {
        /// Idempotency id from the `@REQID` prefix; 0 when absent.
        req_id: u64,
        /// Source `x,y` on the mesh.
        src: (u32, u32),
        /// Destination `x,y` on the mesh.
        dst: (u32, u32),
        /// Priority (1-based, larger = more urgent).
        priority: u32,
        /// Period `T` in flit times.
        period: u64,
        /// Maximum message length `C` in flits.
        length: u64,
        /// Relative deadline `D`; defaults to the period.
        deadline: Option<u64>,
    },
    /// Revoke an admitted stream by its stable id.
    Remove {
        /// Idempotency id from the `@REQID` prefix; 0 when absent.
        req_id: u64,
        /// The stream's stable id.
        id: u64,
    },
    /// Read an admitted stream's cached bound by its stable id.
    Query(u64),
    /// Dump every admitted stream with its cached bound.
    Snapshot,
    /// Dump request counters and the service latency histogram.
    Stats,
    /// Promote a follower to leader (no-op redirect on a leader).
    Promote,
    /// Stop the server after responding.
    Shutdown,
}

fn parse_coord(token: &str, what: &str) -> Result<(u32, u32), String> {
    let (x, y) = token
        .split_once(',')
        .ok_or_else(|| format!("expected {what} as X,Y, got '{token}'"))?;
    let x = x
        .parse::<u32>()
        .map_err(|_| format!("bad {what} X coordinate '{x}'"))?;
    let y = y
        .parse::<u32>()
        .map_err(|_| format!("bad {what} Y coordinate '{y}'"))?;
    Ok((x, y))
}

fn parse_num<T: std::str::FromStr>(token: &str, what: &str) -> Result<T, String> {
    token
        .parse::<T>()
        .map_err(|_| format!("bad {what} '{token}'"))
}

/// Parses one request line. The line is untrusted network input: every
/// malformed shape must come back as `Err`, never a panic.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut tokens = line.split_whitespace();
    let Some(mut keyword) = tokens.next() else {
        return Err("empty request".to_string());
    };
    let mut req_id = 0u64;
    if let Some(id) = keyword.strip_prefix('@') {
        req_id = id
            .parse::<u64>()
            .ok()
            .filter(|&id| id != 0)
            .ok_or_else(|| format!("bad request id '@{id}' (a nonzero integer)"))?;
        keyword = tokens
            .next()
            .ok_or_else(|| "request id without a request".to_string())?;
    }
    let rest: Vec<&str> = tokens.collect();
    let arity = |n: usize, usage: &str| -> Result<(), String> {
        if rest.len() == n {
            Ok(())
        } else {
            Err(format!("usage: {usage}"))
        }
    };
    let keyword = keyword.to_ascii_uppercase();
    if req_id != 0 && keyword != "ADMIT" && keyword != "REMOVE" {
        return Err("request ids apply to ADMIT/REMOVE only".to_string());
    }
    match keyword.as_str() {
        "ADMIT" => {
            if rest.len() < 5 || rest.len() > 6 {
                return Err(
                    "usage: ADMIT SX,SY DX,DY PRIORITY PERIOD LENGTH [DEADLINE]".to_string()
                );
            }
            let src = parse_coord(rest[0], "source")?;
            let dst = parse_coord(rest[1], "destination")?;
            let priority: u32 = parse_num(rest[2], "priority")?;
            let period: u64 = parse_num(rest[3], "period")?;
            let length: u64 = parse_num(rest[4], "length")?;
            let deadline = if rest.len() == 6 {
                Some(parse_num(rest[5], "deadline")?)
            } else {
                None
            };
            Ok(Request::Admit {
                req_id,
                src,
                dst,
                priority,
                period,
                length,
                deadline,
            })
        }
        "REMOVE" => {
            arity(1, "REMOVE <id>")?;
            Ok(Request::Remove {
                req_id,
                id: parse_num(rest[0], "stream id")?,
            })
        }
        "QUERY" => {
            arity(1, "QUERY <id>")?;
            Ok(Request::Query(parse_num(rest[0], "stream id")?))
        }
        "SNAPSHOT" => {
            arity(0, "SNAPSHOT")?;
            Ok(Request::Snapshot)
        }
        "STATS" => {
            arity(0, "STATS")?;
            Ok(Request::Stats)
        }
        "PROMOTE" => {
            arity(0, "PROMOTE")?;
            Ok(Request::Promote)
        }
        "SHUTDOWN" => {
            arity(0, "SHUTDOWN")?;
            Ok(Request::Shutdown)
        }
        other => Err(format!(
            "unknown request '{other}' (ADMIT|REMOVE|QUERY|SNAPSHOT|STATS|PROMOTE|SHUTDOWN)"
        )),
    }
}

/// Why an `ADMIT` was refused — the `reason` field of a rejection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The candidate failed the `W0xx` verifier rules.
    Lint,
    /// The candidate itself cannot meet its deadline.
    CandidateInfeasible,
    /// Admission would push already-admitted streams past theirs.
    BreaksExisting,
    /// The candidate spec is structurally invalid.
    Invalid,
}

impl RejectReason {
    fn as_str(self) -> &'static str {
        match self {
            RejectReason::Lint => "lint",
            RejectReason::CandidateInfeasible => "candidate-infeasible",
            RejectReason::BreaksExisting => "breaks-existing",
            RejectReason::Invalid => "invalid",
        }
    }
}

/// One admitted stream in a [`Response::Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotStream {
    /// Stable id.
    pub id: u64,
    /// Source `x,y`.
    pub src: (u32, u32),
    /// Destination `x,y`.
    pub dst: (u32, u32),
    /// Priority.
    pub priority: u32,
    /// Period `T`.
    pub period: u64,
    /// Maximum length `C`.
    pub length: u64,
    /// Deadline `D`.
    pub deadline: u64,
    /// Cached delay bound `U`.
    pub bound: DelayBound,
}

/// One follower's replication progress, as seen by the leader.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FollowerLag {
    /// The follower's peer address.
    pub peer: String,
    /// Highest sequence the follower has acknowledged applying.
    pub acked_seq: u64,
    /// Frames between the leader's ship frontier and `acked_seq`.
    pub lag_frames: u64,
    /// Bytes the leader has queued for this follower that the socket
    /// has not taken yet (at most the ship session's fixed cap).
    pub unsent_bytes: u64,
}

/// Replication gauges, included in `STATS` when replication is
/// configured. A follower reports its own lag behind the leader's
/// sync frontier; a leader reports the worst lag across followers
/// plus a per-follower breakdown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplReport {
    /// `"leader"` or `"follower"`.
    pub role: &'static str,
    /// Promotion epoch (bumped every time a follower takes over).
    pub epoch: u64,
    /// Highest operation sequence covered by a WAL fsync locally.
    pub wal_last_synced_seq: u64,
    /// Highest replicated sequence applied locally (followers only).
    pub applied_seq: Option<u64>,
    /// Follower: own lag behind the leader's sync frontier. Leader:
    /// max lag across connected followers (0 with none connected).
    pub replication_lag_frames: u64,
    /// Per-follower progress (leader only; empty on a follower).
    pub followers: Vec<FollowerLag>,
    /// True while the node sheds writes: the leader's lease lapsed,
    /// or the node was fenced by a higher epoch.
    pub sealed: bool,
    /// Configured write lease in milliseconds (0 = no lease).
    pub lease_ms: u64,
    /// Higher-epoch fence events this node has processed.
    pub fence_events: u64,
    /// Acknowledged operations the last fence audited as divergent
    /// (absent from the winning history).
    pub divergence_ops: u64,
}

/// The `STATS` payload: counters plus the service-side latency
/// histogram summary (microseconds, bucketed to powers of two).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsReport {
    /// Requests served, by kind: admit, remove, query, snapshot,
    /// stats, shutdown, promote, malformed.
    pub counts: [u64; 8],
    /// Successful admissions.
    pub admitted: u64,
    /// Refused admissions.
    pub rejected: u64,
    /// Successful removals.
    pub removed: u64,
    /// Duplicate request ids answered from the idempotency window.
    pub replayed: u64,
    /// Error responses (unknown ids, malformed requests).
    pub errors: u64,
    /// Connections shed with `busy` at the connection cap.
    pub shed: u64,
    /// Streams currently admitted.
    pub streams: u64,
    /// `Cal_U` recomputations the controller has performed.
    pub recomputations: u64,
    /// Latency observations recorded.
    pub latency_count: u64,
    /// Median total latency, microseconds.
    pub p50_us: u64,
    /// 90th-percentile total latency, microseconds.
    pub p90_us: u64,
    /// 99th-percentile total latency, microseconds.
    pub p99_us: u64,
    /// Worst observed total latency, microseconds.
    pub max_us: u64,
    /// Queue-wait observations (requests served off the reactor's queue).
    pub queue_count: u64,
    /// Median queue wait, microseconds.
    pub queue_p50_us: u64,
    /// 90th-percentile queue wait, microseconds.
    pub queue_p90_us: u64,
    /// 99th-percentile queue wait, microseconds.
    pub queue_p99_us: u64,
    /// Worst queue wait, microseconds.
    pub queue_max_us: u64,
    /// Median service time, microseconds.
    pub service_p50_us: u64,
    /// 90th-percentile service time, microseconds.
    pub service_p90_us: u64,
    /// 99th-percentile service time, microseconds.
    pub service_p99_us: u64,
    /// Worst service time, microseconds.
    pub service_max_us: u64,
    /// Replication gauges; `None` when replication is not configured
    /// (the `replication` key is then omitted from the JSON).
    pub repl: Option<ReplReport>,
}

/// A structured response, rendered to one JSON line by
/// [`render_response`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Admission succeeded.
    Admitted {
        /// The stable id assigned to the stream.
        id: u64,
        /// The cached delay bound `U`.
        bound: u64,
        /// The stream's deadline `D`.
        deadline: u64,
        /// `D - U` (admission guarantees `U <= D`).
        slack: u64,
        /// Warning-severity lint findings that did not block admission.
        warnings: Vec<Diagnostic>,
    },
    /// Admission refused; the controller is unchanged.
    Rejected {
        /// Why.
        reason: RejectReason,
        /// Human-readable explanation.
        message: String,
        /// The candidate's bound, when the analysis produced one.
        bound: Option<u64>,
        /// Ids of admitted streams that directly block the candidate.
        blocked_by: Vec<u64>,
        /// Ids of admitted streams the candidate would break.
        victims: Vec<u64>,
        /// Lint findings (for `reason = "lint"` rejections).
        diagnostics: Vec<Diagnostic>,
    },
    /// Removal succeeded.
    Removed {
        /// The removed stream's id.
        id: u64,
    },
    /// A `QUERY` hit.
    Query {
        /// Stable id.
        id: u64,
        /// Cached bound `U`.
        bound: u64,
        /// Deadline `D`.
        deadline: u64,
        /// `D - U`.
        slack: u64,
        /// Priority.
        priority: u32,
        /// Period `T`.
        period: u64,
        /// Length `C`.
        length: u64,
    },
    /// A `SNAPSHOT` dump.
    Snapshot {
        /// Mesh dimensions `[width, height]`.
        mesh: (u32, u32),
        /// Every admitted stream, in admission order.
        streams: Vec<SnapshotStream>,
    },
    /// A `STATS` dump (boxed: the report is by far the widest variant).
    Stats(Box<StatsReport>),
    /// `PROMOTE` succeeded: this node is now the leader.
    Promoted {
        /// The new promotion epoch.
        epoch: u64,
        /// Streams admitted at the moment of promotion.
        streams: u64,
        /// True when the recovery audit (A107-A109) passed.
        audited: bool,
    },
    /// `SHUTDOWN` acknowledged; the server stops accepting.
    ShuttingDown,
    /// The server is overloaded and shed this request before doing any
    /// work; retry after the hinted delay.
    Busy {
        /// Suggested client backoff before retrying, milliseconds.
        retry_after_ms: u64,
    },
    /// The request could not be served (parse failure, unknown id).
    Error {
        /// Machine-readable error class (`malformed`, `unknown_id`,
        /// `too_long`, `degraded`, `wal`, …).
        code: &'static str,
        /// What went wrong.
        message: String,
    },
}

impl Response {
    /// Builds an error response from a code and message.
    pub fn error(code: &'static str, message: impl Into<String>) -> Response {
        Response::Error {
            code,
            message: message.into(),
        }
    }
}

fn write_ids(out: &mut String, key: &str, ids: &[u64]) {
    let _ = write!(out, ",\"{key}\":[");
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{id}");
    }
    out.push(']');
}

fn write_diagnostics(out: &mut String, key: &str, diags: &[Diagnostic]) {
    let _ = write!(out, ",\"{key}\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&render_diagnostic_json(d, None));
    }
    out.push(']');
}

/// Renders a response as a single JSON line (no trailing newline; the
/// server appends it). Hand-rolled like the verifier's renderer — the
/// build is offline, so there is no serde.
pub fn render_response(r: &Response) -> String {
    let mut out = String::new();
    match r {
        Response::Admitted {
            id,
            bound,
            deadline,
            slack,
            warnings,
        } => {
            let _ = write!(
                out,
                "{{\"status\":\"admitted\",\"id\":{id},\"bound\":{bound},\"deadline\":{deadline},\"slack\":{slack}"
            );
            if !warnings.is_empty() {
                write_diagnostics(&mut out, "warnings", warnings);
            }
            out.push('}');
        }
        Response::Rejected {
            reason,
            message,
            bound,
            blocked_by,
            victims,
            diagnostics,
        } => {
            let _ = write!(
                out,
                "{{\"status\":\"rejected\",\"reason\":\"{}\",\"message\":\"{}\"",
                reason.as_str(),
                json_escape(message)
            );
            if let Some(b) = bound {
                let _ = write!(out, ",\"bound\":{b}");
            }
            if !blocked_by.is_empty() {
                write_ids(&mut out, "blocked_by", blocked_by);
            }
            if !victims.is_empty() {
                write_ids(&mut out, "victims", victims);
            }
            if !diagnostics.is_empty() {
                write_diagnostics(&mut out, "diagnostics", diagnostics);
            }
            out.push('}');
        }
        Response::Removed { id } => {
            let _ = write!(out, "{{\"status\":\"removed\",\"id\":{id}}}");
        }
        Response::Query {
            id,
            bound,
            deadline,
            slack,
            priority,
            period,
            length,
        } => {
            let _ = write!(
                out,
                "{{\"status\":\"ok\",\"id\":{id},\"bound\":{bound},\"deadline\":{deadline},\"slack\":{slack},\"priority\":{priority},\"period\":{period},\"length\":{length}}}"
            );
        }
        Response::Snapshot { mesh, streams } => {
            let _ = write!(
                out,
                "{{\"status\":\"ok\",\"mesh\":[{},{}],\"count\":{},\"streams\":[",
                mesh.0,
                mesh.1,
                streams.len()
            );
            for (i, s) in streams.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"id\":{},\"src\":[{},{}],\"dst\":[{},{}],\"priority\":{},\"period\":{},\"length\":{},\"deadline\":{},\"bound\":",
                    s.id, s.src.0, s.src.1, s.dst.0, s.dst.1, s.priority, s.period, s.length, s.deadline
                );
                match s.bound.value() {
                    Some(u) => {
                        let _ = write!(out, "{u}");
                    }
                    None => out.push_str("null"),
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        Response::Stats(s) => {
            let _ = write!(
                out,
                "{{\"status\":\"ok\",\"requests\":{{\"admit\":{},\"remove\":{},\"query\":{},\"snapshot\":{},\"stats\":{},\"shutdown\":{},\"promote\":{},\"malformed\":{}}}",
                s.counts[0], s.counts[1], s.counts[2], s.counts[3], s.counts[4], s.counts[5], s.counts[6], s.counts[7]
            );
            let _ = write!(
                out,
                ",\"admitted\":{},\"rejected\":{},\"removed\":{},\"replayed\":{},\"errors\":{},\"shed\":{},\"streams\":{},\"recomputations\":{}",
                s.admitted, s.rejected, s.removed, s.replayed, s.errors, s.shed, s.streams, s.recomputations
            );
            if let Some(repl) = &s.repl {
                let _ = write!(
                    out,
                    ",\"replication\":{{\"role\":\"{}\",\"epoch\":{},\"wal_last_synced_seq\":{},\"replication_lag_frames\":{},\"sealed\":{},\"lease_ms\":{},\"fence_events\":{},\"divergence_ops\":{}",
                    repl.role,
                    repl.epoch,
                    repl.wal_last_synced_seq,
                    repl.replication_lag_frames,
                    repl.sealed,
                    repl.lease_ms,
                    repl.fence_events,
                    repl.divergence_ops
                );
                if let Some(applied) = repl.applied_seq {
                    let _ = write!(out, ",\"applied_seq\":{applied}");
                }
                if !repl.followers.is_empty() {
                    out.push_str(",\"followers\":[");
                    for (i, f) in repl.followers.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(
                            out,
                            "{{\"peer\":\"{}\",\"acked_seq\":{},\"lag_frames\":{},\"unsent_bytes\":{}}}",
                            json_escape(&f.peer),
                            f.acked_seq,
                            f.lag_frames,
                            f.unsent_bytes
                        );
                    }
                    out.push(']');
                }
                out.push('}');
            }
            let _ = write!(
                out,
                ",\"queue_us\":{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                s.queue_count, s.queue_p50_us, s.queue_p90_us, s.queue_p99_us, s.queue_max_us
            );
            let _ = write!(
                out,
                ",\"service_us\":{{\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                s.service_p50_us, s.service_p90_us, s.service_p99_us, s.service_max_us
            );
            let _ = write!(
                out,
                ",\"latency_us\":{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}}}",
                s.latency_count, s.p50_us, s.p90_us, s.p99_us, s.max_us
            );
        }
        Response::Promoted {
            epoch,
            streams,
            audited,
        } => {
            let _ = write!(
                out,
                "{{\"status\":\"promoted\",\"epoch\":{epoch},\"streams\":{streams},\"audited\":{audited}}}"
            );
        }
        Response::ShuttingDown => out.push_str("{\"status\":\"shutting-down\"}"),
        Response::Busy { retry_after_ms } => {
            let _ = write!(
                out,
                "{{\"status\":\"busy\",\"retry_after_ms\":{retry_after_ms}}}"
            );
        }
        Response::Error { code, message } => {
            let _ = write!(
                out,
                "{{\"status\":\"error\",\"code\":\"{code}\",\"message\":\"{}\"}}",
                json_escape(message)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_request_kind() {
        assert_eq!(
            parse_request("ADMIT 1,2 3,4 2 50 4").unwrap(),
            Request::Admit {
                req_id: 0,
                src: (1, 2),
                dst: (3, 4),
                priority: 2,
                period: 50,
                length: 4,
                deadline: None,
            }
        );
        assert_eq!(
            parse_request("admit 1,2 3,4 2 50 4 40").unwrap(),
            Request::Admit {
                req_id: 0,
                src: (1, 2),
                dst: (3, 4),
                priority: 2,
                period: 50,
                length: 4,
                deadline: Some(40),
            }
        );
        assert_eq!(
            parse_request("REMOVE 7").unwrap(),
            Request::Remove { req_id: 0, id: 7 }
        );
        assert_eq!(parse_request("query 0").unwrap(), Request::Query(0));
        assert_eq!(parse_request("SNAPSHOT").unwrap(), Request::Snapshot);
        assert_eq!(parse_request("Stats").unwrap(), Request::Stats);
        assert_eq!(parse_request("promote").unwrap(), Request::Promote);
        assert_eq!(parse_request("SHUTDOWN").unwrap(), Request::Shutdown);
    }

    #[test]
    fn request_ids_parse_on_writes_only() {
        assert_eq!(
            parse_request("@17 ADMIT 1,2 3,4 2 50 4").unwrap(),
            Request::Admit {
                req_id: 17,
                src: (1, 2),
                dst: (3, 4),
                priority: 2,
                period: 50,
                length: 4,
                deadline: None,
            }
        );
        assert_eq!(
            parse_request("@9 remove 3").unwrap(),
            Request::Remove { req_id: 9, id: 3 }
        );
        for bad in [
            "@0 ADMIT 1,2 3,4 2 50 4",
            "@x REMOVE 1",
            "@5",
            "@5 QUERY 1",
            "@5 STATS",
        ] {
            assert!(parse_request(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn malformed_requests_error_without_panicking() {
        for bad in [
            "",
            "   ",
            "FROB",
            "ADMIT",
            "ADMIT 1,2 3,4 2 50",
            "ADMIT 1;2 3,4 2 50 4",
            "ADMIT 1,2 3,4 -1 50 4",
            "ADMIT 1,2 3,4 2 50 4 40 9",
            "REMOVE",
            "REMOVE x",
            "REMOVE 1 2",
            "QUERY -3",
            "SNAPSHOT now",
            "STATS --all",
            "PROMOTE now",
            "@5 PROMOTE",
            "SHUTDOWN please",
            "ADMIT 99999999999999999999,0 1,0 1 1 1",
        ] {
            assert!(parse_request(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn responses_render_as_single_json_lines() {
        let cases = vec![
            Response::Admitted {
                id: 3,
                bound: 23,
                deadline: 50,
                slack: 27,
                warnings: vec![],
            },
            Response::Rejected {
                reason: RejectReason::BreaksExisting,
                message: "would break \"M1\"".to_string(),
                bound: None,
                blocked_by: vec![],
                victims: vec![1, 4],
                diagnostics: vec![],
            },
            Response::Removed { id: 3 },
            Response::Query {
                id: 3,
                bound: 23,
                deadline: 50,
                slack: 27,
                priority: 2,
                period: 50,
                length: 4,
            },
            Response::Snapshot {
                mesh: (10, 10),
                streams: vec![SnapshotStream {
                    id: 0,
                    src: (1, 2),
                    dst: (3, 4),
                    priority: 2,
                    period: 50,
                    length: 4,
                    deadline: 50,
                    bound: DelayBound::Bounded(23),
                }],
            },
            Response::Stats(Box::default()),
            Response::ShuttingDown,
            Response::Busy { retry_after_ms: 25 },
            Response::error("unknown_id", "unknown stream id 9"),
        ];
        for r in &cases {
            let line = render_response(r);
            assert!(!line.contains('\n'), "{line}");
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"status\":\""), "{line}");
        }
        let rej = render_response(&cases[1]);
        assert!(rej.contains("\"reason\":\"breaks-existing\""), "{rej}");
        assert!(rej.contains("\"victims\":[1,4]"), "{rej}");
        assert!(rej.contains("would break \\\"M1\\\""), "{rej}");
        let snap = render_response(&cases[4]);
        assert!(snap.contains("\"mesh\":[10,10]"), "{snap}");
        assert!(snap.contains("\"src\":[1,2]"), "{snap}");
        assert!(snap.contains("\"bound\":23"), "{snap}");
        let stats = render_response(&cases[5]);
        assert!(stats.contains("\"queue_us\":{"), "{stats}");
        assert!(stats.contains("\"service_us\":{"), "{stats}");
        assert!(stats.contains("\"latency_us\":{"), "{stats}");
        let busy = render_response(&cases[7]);
        assert!(busy.contains("\"retry_after_ms\":25"), "{busy}");
        let err = render_response(&cases[8]);
        assert!(err.contains("\"code\":\"unknown_id\""), "{err}");
    }

    #[test]
    fn replication_stats_and_promotion_render() {
        // Without replication configured the key is absent, so the
        // pre-replication STATS shape is unchanged. The removed region
        // plane's key never appears either: the counters run straight
        // into the histograms.
        let plain = render_response(&Response::Stats(Box::default()));
        assert!(!plain.contains("replication"), "{plain}");
        assert!(!plain.contains("\"shards\""), "{plain}");
        assert!(
            plain.contains("\"recomputations\":0,\"queue_us\""),
            "{plain}"
        );
        assert!(plain.contains("\"promote\":0"), "{plain}");

        let mut report = StatsReport {
            repl: Some(ReplReport {
                role: "leader",
                epoch: 2,
                wal_last_synced_seq: 40,
                applied_seq: None,
                replication_lag_frames: 3,
                followers: vec![FollowerLag {
                    peer: "127.0.0.1:9999".to_string(),
                    acked_seq: 37,
                    lag_frames: 3,
                    unsent_bytes: 120,
                }],
                sealed: false,
                lease_ms: 750,
                fence_events: 0,
                divergence_ops: 0,
            }),
            ..StatsReport::default()
        };
        let leader = render_response(&Response::Stats(Box::new(report.clone())));
        assert!(
            leader.contains("\"replication\":{\"role\":\"leader\""),
            "{leader}"
        );
        assert!(leader.contains("\"wal_last_synced_seq\":40"), "{leader}");
        assert!(leader.contains("\"replication_lag_frames\":3"), "{leader}");
        assert!(
            leader.contains("\"sealed\":false,\"lease_ms\":750,\"fence_events\":0"),
            "{leader}"
        );
        assert!(leader.contains("\"acked_seq\":37"), "{leader}");
        assert!(leader.contains("\"unsent_bytes\":120"), "{leader}");
        assert!(!leader.contains("applied_seq"), "{leader}");

        report.repl = Some(ReplReport {
            role: "follower",
            epoch: 1,
            wal_last_synced_seq: 37,
            applied_seq: Some(37),
            replication_lag_frames: 3,
            followers: vec![],
            sealed: true,
            lease_ms: 0,
            fence_events: 1,
            divergence_ops: 2,
        });
        let follower = render_response(&Response::Stats(Box::new(report)));
        assert!(follower.contains("\"role\":\"follower\""), "{follower}");
        assert!(
            follower
                .contains("\"sealed\":true,\"lease_ms\":0,\"fence_events\":1,\"divergence_ops\":2"),
            "{follower}"
        );
        assert!(follower.contains("\"applied_seq\":37"), "{follower}");
        assert!(!follower.contains("followers"), "{follower}");

        let promoted = render_response(&Response::Promoted {
            epoch: 3,
            streams: 12,
            audited: true,
        });
        assert_eq!(
            promoted,
            "{\"status\":\"promoted\",\"epoch\":3,\"streams\":12,\"audited\":true}"
        );
    }
}
