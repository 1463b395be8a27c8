//! What a run prints and what a result file records: the environment
//! (commit, toolchain, profile, cores, where the generator ran, the
//! frozen rates and slice counts) and every metric with its unit and
//! sample count.

use crate::catalog::{CONNECTIONS, SETUPS, WINDOW, WORKLOADS};
use crate::json::{escape, number};
use crate::run::{RunResult, LATENCY_SLICE, RATE_SLICE};
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

fn command_line(root: &Path, program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment object of a result file.
pub fn environment(root: &Path, quick: bool) -> String {
    let mut out = String::from("{");
    let mut field = |key: &str, value: &str, quoted: bool| {
        if out.len() > 1 {
            out.push(',');
        }
        if quoted {
            let _ = write!(out, "\"{key}\":\"{}\"", escape(value));
        } else {
            let _ = write!(out, "\"{key}\":{value}");
        }
    };
    // A checkout that is not a git repository has no commit to name.
    field(
        "commit",
        &command_line(root, "git", &["rev-parse", "HEAD"]),
        true,
    );
    field("rustc", &command_line(root, "rustc", &["-V"]), true);
    field(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        true,
    );
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    field("nproc", &nproc.to_string(), false);
    field(
        "generator",
        "this process on the server's host: one thread and one TCP connection per core, bursts of 32; \
         the server is the shipped rtwc serve in a separate process",
        true,
    );
    field("connections", &CONNECTIONS.to_string(), false);
    field("window", &WINDOW.to_string(), false);
    field("setups_per_run", &SETUPS.to_string(), false);
    let slice = |(width, samples): (std::time::Duration, usize)| {
        format!(
            "{{\"min_ms\":{},\"min_samples\":{samples}}}",
            width.as_millis()
        )
    };
    field(
        "slices",
        &format!(
            "{{\"rate\":{},\"latency\":{}}}",
            slice(RATE_SLICE),
            slice(LATENCY_SLICE)
        ),
        false,
    );
    field("quick", if quick { "true" } else { "false" }, false);
    let rates: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("\"{}\":{}", w.name, w.open_rate))
        .collect();
    field(
        "open_rates_per_s",
        &format!("{{{}}}", rates.join(",")),
        false,
    );
    out.push('}');
    out
}

fn metrics_object(r: &RunResult, with_samples: bool) -> String {
    let fields: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let mut f = format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"",
                m.name,
                number(m.value),
                m.unit
            );
            if with_samples {
                let _ = write!(f, ",\"samples\":{}", m.samples);
            }
            f.push('}');
            f
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The one-line result the driver reads: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(r: &RunResult) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        r.correct,
        r.attempted.max(1),
        r.failed,
        metrics_object(r, false)
    )
}

/// One run as an entry of a result file.
fn run_object(r: &RunResult) -> String {
    let notes: Vec<String> = r
        .notes
        .iter()
        .map(|n| format!("\"{}\"", escape(n)))
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"traced\":{},\"correct\":{},\
         \"attempted\":{},\"failed\":{},\"wall_s\":{},\"notes\":[{}],\"metrics\":{}}}",
        r.workload.name,
        r.seed,
        number(r.seconds),
        r.traced,
        r.correct,
        r.attempted,
        r.failed,
        number(r.wall_s),
        notes.join(","),
        metrics_object(r, true)
    )
}

/// A whole result file.
pub fn result_file(env: &str, runs: &[RunResult]) -> String {
    let runs: Vec<String> = runs.iter().map(run_object).collect();
    format!(
        "{{\"schema\":1,\"env\":{env},\"runs\":[\n{}\n]}}\n",
        runs.join(",\n")
    )
}

/// Every metric by name with its unit and sample count, then the
/// checks' verdict.
pub fn human(r: &RunResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} seed {} {}: {:.1} s measured, {:.1} s wall",
        r.workload.name,
        r.seed,
        if r.traced {
            "traced (per-layer)"
        } else {
            "untraced (end-to-end)"
        },
        r.seconds,
        r.wall_s
    );
    let _ = writeln!(out, "   {}", r.workload.why);
    for m in &r.metrics {
        let _ = writeln!(
            out,
            "{:<44} {:>16} {:<10} n={}",
            m.name,
            format!("{:.4}", m.value),
            m.unit,
            m.samples
        );
    }
    let _ = writeln!(
        out,
        "checks: {}; attempted {}, failed {}",
        if r.correct { "all passed" } else { "FAILED" },
        r.attempted,
        r.failed
    );
    for note in &r.notes {
        let _ = writeln!(out, "  ! {note}");
    }
    out
}
