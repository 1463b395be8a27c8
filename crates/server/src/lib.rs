//! # rtwc-server
//!
//! The online admission-control service: the paper's host-processor
//! feasibility test exposed as a long-running daemon. Jobs ask for
//! real-time channels over a newline-delimited TCP protocol; every
//! `ADMIT` is gated by the `W0xx` verifier rules and then decided by
//! the incremental [`rtwc_core::AdmissionController`], so the admitted
//! set is feasible **at every instant** — the invariant the paper's
//! run-time scheme depends on.
//!
//! Layering (std only — the build is offline):
//!
//! - [`protocol`] — request grammar and single-line JSON responses,
//!   sharing the verifier's diagnostic JSON shape;
//! - [`service`] — the state machine one thread owns: controller,
//!   stable ids, accepted-op journal, offline audit;
//! - [`metrics`] — request counters and log-linear latency
//!   histograms behind `STATS`;
//! - [`server`] / [`dispatch`] / [`poll`] / [`client`] — the
//!   event-driven TCP front end: one epoll reactor that owns the
//!   service, runs every request to completion with pipelined ordered
//!   responses and drives the replication sessions, its socket-free
//!   per-connection sessions, and the matching blocking client;
//! - [`bench`] — the closed-loop multi-client load generator behind
//!   `rtwc bench-serve`;
//! - [`wal`] / [`group_commit`] / [`snapshot`] / [`recovery`] — the
//!   durability layer: a length-and-CRC-framed write-ahead log the
//!   reactor owns and writes with one `write(2)` per batch (under
//!   `--fsync always`, one fsync covers a pass's writes), atomic
//!   snapshots with WAL compaction, and a startup recovery path that
//!   replays and then *audits* the rebuilt state against a fresh
//!   offline analysis;
//! - [`repl`] — replication over the durability layer: reactor-driven
//!   ship sessions streaming synced frames to warm-standby followers, resumable
//!   chunked snapshot catch-up, read-only followers that redirect
//!   writes, and audited promotion to leader on demand or on leader
//!   loss;
//! - [`faultfs`] / [`chaos`] — the fault-injection harness behind
//!   `rtwc chaos`: torn writes, lying short writes, fsync failures and
//!   kill-9 truncation, each asserting the recovered state is
//!   bit-identical to a serial replay of the acknowledged history;
//! - [`netchaos`] — deterministic *network* fault injection: a seeded
//!   in-process TCP proxy (partitions, one-way blackholes, latency,
//!   severs, duplicate delivery) that the partition chaos classes and
//!   `rtwc netchaos` drive with timed schedules;
//! - [`sync`] — the one thing that crosses threads, the atomics the
//!   reactor and the `--fsync interval` flusher share, behind a shim
//!   that swaps them for `loom` model-checked equivalents under
//!   `--cfg loom`.

// `deny`, not `forbid`: the [`poll`] module is the one place allowed
// to contain `unsafe` — the raw `epoll`/`close`/`socket`/`connect`
// syscall bindings the reactor needs. Everything else in the crate stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod chaos;
pub mod client;
pub mod dispatch;
pub mod faultfs;
pub mod group_commit;
pub mod metrics;
pub mod netchaos;
pub mod poll;
pub mod protocol;
pub mod recovery;
pub mod repl;
pub mod server;
pub mod service;
pub mod snapshot;
pub mod sync;
pub mod wal;

pub use bench::{
    render_bench_json, render_repl_json, render_sweep_json, run_bench, run_bench_repl,
    run_wal_sweep, BenchConfig, BenchOutcome, PartitionBenchOutcome, ReplBenchOutcome, WalSweep,
};
pub use chaos::{render_chaos_report, run_chaos, ChaosConfig, ChaosOutcome, ScenarioOutcome};
pub use client::{Client, ClientConfig, ClientError};
pub use faultfs::{scratch_dir, FailpointFile, FaultPlan, FaultState, MemFile, RealFile, WalFile};
pub use group_commit::{GroupCommitStats, GroupWal, WalFlusher};
pub use metrics::{Metrics, MetricsSnapshot, RequestKind};
pub use netchaos::{NetAction, NetChaos, NetChaosHandle, NetSchedule};
pub use poll::{PollEvent, Poller};
pub use protocol::{
    parse_request, render_response, FollowerLag, RejectReason, ReplReport, Request, Response,
    SnapshotStream, StatsReport, MAX_LINE_BYTES,
};
pub use recovery::{recover, recover_with_file, RecoveredState, RecoveryReport};
pub use repl::{
    catchup::{CatchupOpts, CatchupOutcome},
    follower::{catch_up, FollowerConfig},
    ship::{ShipperConfig, MAX_UNSENT},
    ReplHub,
};
pub use server::{Server, ServerConfig, ShutdownHandle};
pub use service::{replay, AcceptedOp, AdmissionService, Durability};
pub use snapshot::{load_snapshot, parse_snapshot, write_snapshot, DedupEntry, SnapshotData};
pub use wal::{crc32, FrameIter, FsyncPolicy, Wal, WalOpen, WalRecord};
