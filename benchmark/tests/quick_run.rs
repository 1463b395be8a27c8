//! Runs the built benchmark with `--quick` on every workload, traced
//! and untraced, and checks the contract of its last output line: the
//! four keys, every metric `BENCHMARK.json` names for that mode and no
//! other, a unit on each, and a passing verdict.

use std::collections::BTreeSet;
use std::process::Command;

/// The metric names and units between `"metrics":{` and the end of a
/// result line, which is flat enough to split by hand.
fn metrics_of(line: &str) -> Vec<(String, String)> {
    let body = line
        .split_once("\"metrics\":{")
        .expect("a metrics object")
        .1
        .trim_end_matches('}');
    body.split("},")
        .filter(|m| !m.is_empty())
        .map(|m| {
            let name = m
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_string();
            let unit = m.rsplit_once("\"unit\":\"").expect("a unit").1;
            (name, unit.trim_end_matches(['"', '}']).to_string())
        })
        .collect()
}

/// The `(name, unit)` pairs of one list of `BENCHMARK.json`, which
/// `rtwc-benchmark describe` writes one entry to a line (workloads have
/// no unit; theirs reads empty).
fn declared(text: &str, section: &str) -> Vec<(String, String)> {
    let field = |line: &str, key: &str| {
        line.split_once(&format!("\"{key}\": \""))
            .and_then(|(_, rest)| rest.split('"').next())
            .unwrap_or_default()
            .to_string()
    };
    text.split_once(&format!("\"{section}\": ["))
        .expect("section")
        .1
        .lines()
        .skip(1)
        .take_while(|l| l.trim_start().starts_with('{'))
        .map(|l| (field(l, "name"), field(l, "unit")))
        .collect()
}

#[test]
fn quick_runs_print_exactly_the_declared_metrics() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let text = std::fs::read_to_string(format!("{root}/BENCHMARK.json")).unwrap();
    let workloads: Vec<String> = declared(&text, "workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(workloads.len(), 4);
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_rtwc-benchmark"))
                .current_dir(root)
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--quick"])
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace}: {}\n{stdout}\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("output");
            for key in [
                "{\"correct\":true,",
                "\"attempted\":",
                "\"failed\":0,",
                "\"metrics\":{",
            ] {
                assert!(
                    last.contains(key),
                    "{workload} --trace {trace}: no {key} in {last}"
                );
            }
            let want = declared(&text, section);
            assert_eq!(metrics_of(last), want, "{workload} --trace {trace}");
            // Every metric is also printed by name, with its unit, in
            // the readable part.
            let printed: BTreeSet<&str> = stdout
                .lines()
                .filter_map(|l| l.split_whitespace().next())
                .collect();
            assert!(want.iter().all(|(name, _)| printed.contains(name.as_str())));
            if trace == "0" {
                let zero = last.contains("\"value\":0,") || last.contains("\"value\":0}");
                assert!(!zero, "an end-to-end metric reads 0: {last}");
            }
        }
    }
}
