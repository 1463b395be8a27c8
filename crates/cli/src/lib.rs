//! # rtwc-cli
//!
//! Library backing the `rtwc` command-line tool: a plain-text spec
//! format for stream sets ([`spec`]) and the `analyze` / `simulate` /
//! `check` commands ([`commands`]).
//!
//! ```text
//! rtwc lint     set.streams [--format human|json]
//! rtwc analyze  set.streams [--diagrams]
//! rtwc simulate set.streams [--policy preemptive|li|classic] [--cycles N] [--warmup N]
//! rtwc check    set.streams [--policy ...] [--cycles N] [--warmup N]
//! ```
//!
//! `analyze`/`simulate`/`check` run the [`rtwc_verifier`] lint rules
//! first and refuse workloads with error-severity findings
//! (`--no-verify` bypasses the guard).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commands;
pub mod jobs;
pub mod serve;
pub mod spec;

pub use commands::{
    analyze, analyze_with, check, deploy, lint, simulate, verify_sim, verify_spec, LintFormat,
    SimOptions,
};
pub use jobs::{parse_jobs, JobsFile};
pub use serve::{
    run_bench_serve, run_chaos_command, run_client, run_serve, run_service_command, seed_service,
    ServeOptions,
};
pub use spec::{parse, parse_raw, render, ParseError, RawSpecFile, SpecFile};
