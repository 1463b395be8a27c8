//! `rtwc-benchmark`: the repository's one reproducible benchmark.
//!
//! ```text
//! rtwc-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                [--repeat N] [--out FILE] [--quick]
//! rtwc-benchmark compare OLD.json NEW.json
//! rtwc-benchmark describe            # prints BENCHMARK.json
//! ```
//!
//! Run from the repository root (or from `benchmark/`). It builds the
//! shipped `rtwc` binary, runs the selected workloads, checks their
//! outputs, prints every metric by name with its unit and sample count,
//! and ends each run with one JSON line. Without `--workload` it runs
//! all four workloads; without `--trace` it runs each both untraced
//! (end-to-end metrics) and traced (per-layer metrics). See README.md.

mod catalog;
mod checks;
mod compare;
mod gen;
mod json;
mod ladder;
mod library;
mod loadgen;
mod offline;
mod report;
mod run;
mod server_proc;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: rtwc-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--repeat N] [--out FILE] [--quick]\n       rtwc-benchmark compare OLD.json NEW.json\n       rtwc-benchmark describe";

struct Options {
    workload: Option<&'static catalog::Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: u64,
    out: Option<PathBuf>,
    quick: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1998,
        seconds: 10.0,
        trace: None,
        repeat: 1,
        out: None,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload = Some(catalog::workload(name).ok_or_else(|| {
                    let known: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{name}' (known: {})", known.join(", "))
                })?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                o.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("bad --seconds")?;
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--repeat" => {
                o.repeat = value()?
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or("bad --repeat")?;
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--quick" => o.quick = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(o)
}

/// The repository root: the working directory, or its parent when run
/// from `benchmark/`.
fn find_root() -> Result<PathBuf, String> {
    [".", ".."]
        .iter()
        .map(PathBuf::from)
        .find(|p| {
            p.join("crates/cli/Cargo.toml").is_file() && p.join("benchmark/Cargo.toml").is_file()
        })
        .ok_or_else(|| {
            "run from the repository root (crates/cli and benchmark/ must be there)".to_string()
        })
}

/// Builds the shipped binary the service workloads spawn. Cargo's
/// chatter goes to stderr so that stdout ends with the result line.
fn build_rtwc(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "-p", "rtwc-cli"])
        .current_dir(root)
        .stdin(Stdio::null())
        .stdout(Stdio::from(std::io::stderr()))
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building rtwc failed".to_string());
    }
    let rtwc = run::target_dir(root).join("release/rtwc");
    if !rtwc.is_file() {
        return Err(format!("{} was not built", rtwc.display()));
    }
    // Absolute, because the server is spawned from another directory.
    rtwc.canonicalize()
        .map_err(|e| format!("{}: {e}", rtwc.display()))
}

fn benchmark(o: &Options) -> Result<bool, String> {
    let root = find_root()?;
    let ctx = run::Ctx {
        rtwc: build_rtwc(&root)?,
        out: root.join("benchmark/out"),
        quick: o.quick,
    };
    let workloads: Vec<&catalog::Workload> = match o.workload {
        Some(w) => vec![w],
        None => catalog::WORKLOADS.iter().collect(),
    };
    let modes: &[bool] = match o.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut results = Vec::new();
    for w in workloads {
        for i in 0..o.repeat {
            for &traced in modes {
                let r = run::run(&ctx, w, o.seed + i, o.seconds, traced)?;
                print!("{}", report::human(&r));
                println!("{}", report::result_line(&r));
                results.push(r);
            }
        }
    }
    if let Some(path) = &o.out {
        let text = report::result_file(&report::environment(&root, o.quick), &results);
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("{} run(s) written to {}", results.len(), path.display());
    }
    Ok(results.iter().all(|r| r.correct))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("describe") {
        print!("{}", catalog::describe());
        return ExitCode::SUCCESS;
    }
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        match args.as_slice() {
            [_, old, new] => compare::compare(old, new).map(|(report, regressed)| {
                print!("{report}");
                !regressed
            }),
            _ => Err(USAGE.to_string()),
        }
    } else {
        parse_options(&args).and_then(|o| benchmark(&o))
    };
    // Every server child and run directory has been dropped by now.
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("rtwc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
