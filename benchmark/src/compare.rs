//! `rtwc-benchmark compare OLD.json NEW.json`: per workload and metric,
//! the two medians with their quartiles, the change against the
//! metric's bound, and `unresolved` where the run-to-run spread is
//! wider than the bound (unless every new run beats every old one).

use crate::catalog::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::json::{self, Value};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// (workload, metric) to the values of that metric over a file's runs.
type Series = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Series, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?;
    let mut series = Series::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: a run without a workload"))?;
        let metrics = run
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("{path}: a run without metrics"))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                series
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(series)
}

/// Median, quartiles and spread (interquartile distance over the
/// median) of one side.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Side {
    pub fn of(values: &[f64]) -> Side {
        match stats::quartiles(values) {
            Some((q1, median, q3)) => Side { q1, median, q3 },
            None => {
                let v = values.first().copied().unwrap_or(0.0);
                Side {
                    q1: v,
                    median: v,
                    q3: v,
                }
            }
        }
    }

    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Better,
    Regression,
    Unresolved,
    /// A per-layer metric: reported, never judged.
    Unbounded,
}

/// By how much `new` is worse than `old`, as a share of `old` (negative
/// when it is better).
pub fn worsening(def: &MetricDef, old: f64, new: f64) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (new - old) / old.abs(),
        Better::Higher => (old - new) / old.abs(),
    }
}

pub fn judge(def: &MetricDef, old: &[f64], new: &[f64]) -> Verdict {
    let Some(bound) = def.bound else {
        return Verdict::Unbounded;
    };
    let (o, n) = (Side::of(old), Side::of(new));
    let worse = worsening(def, o.median, n.median);
    if o.spread() > bound || n.spread() > bound {
        // Too noisy to call, unless the two sides do not even overlap.
        let all_better = old
            .iter()
            .all(|&a| new.iter().all(|&b| worsening(def, a, b) < 0.0));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Regression
    } else if worse < -o.spread().max(n.spread()) {
        Verdict::Better
    } else {
        Verdict::Ok
    }
}

/// Compares two result files. Returns the report and whether any
/// end-to-end metric regressed.
pub fn compare(old_path: &str, new_path: &str) -> Result<(String, bool), String> {
    let (old, new) = (load(old_path)?, load(new_path)?);
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<14} {:<40} {:>13} {:>7} {:>13} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "old median", "spread", "new median", "spread", "worse", "bound"
    );
    for def in END_TO_END.iter().chain(PER_LAYER) {
        for ((workload, name), old_values) in old.iter().filter(|((_, n), _)| n == def.name) {
            let Some(new_values) = new.get(&(workload.clone(), name.clone())) else {
                let _ = writeln!(out, "{workload:<14} {name:<40} missing from {new_path}");
                continue;
            };
            let (o, n) = (Side::of(old_values), Side::of(new_values));
            let verdict = judge(def, old_values, new_values);
            regressed |= verdict == Verdict::Regression;
            let _ = writeln!(
                out,
                "{workload:<14} {name:<40} {:>13.4} {:>6.1}% {:>13.4} {:>6.1}% {:>+7.1}% {:>6}  {}",
                o.median,
                o.spread() * 100.0,
                n.median,
                n.spread() * 100.0,
                worsening(def, o.median, n.median) * 100.0,
                def.bound
                    .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Better => "better",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Unbounded => "",
                }
            );
        }
    }
    let _ = writeln!(
        out,
        "(spread = distance between the quartiles over the median, n = {}/{} runs per cell; \
         'worse' is signed so that positive is worse whatever the metric's direction)",
        old.values().map(Vec::len).max().unwrap_or(0),
        new.values().map(Vec::len).max().unwrap_or(0)
    );
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric with a 10% bound, whatever the catalogue's are.
    fn def(better: Better) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "u",
            better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn judges_against_the_bound_and_the_spread() {
        let ops = &def(Better::Higher);
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(judge(ops, &steady, &steady), Verdict::Ok);
        let slower: Vec<f64> = steady.iter().map(|v| v * 0.85).collect();
        assert_eq!(judge(ops, &steady, &slower), Verdict::Regression);
        let faster: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(ops, &steady, &faster), Verdict::Better);
        // A spread wider than the bound cannot be called either way...
        let noisy = [100.0, 60.0, 140.0, 80.0, 120.0];
        assert_eq!(judge(ops, &noisy, &steady), Verdict::Unresolved);
        // ...unless every new run beats every old one.
        let far: Vec<f64> = steady.iter().map(|v| v * 2.0).collect();
        assert_eq!(judge(ops, &noisy, &far), Verdict::Better);
        let p50 = &def(Better::Lower);
        assert!(worsening(p50, 100.0, 120.0) > 0.19);
        assert!(worsening(ops, 100.0, 120.0) < 0.0);
        assert_eq!(judge(&PER_LAYER[0], &steady, &slower), Verdict::Unbounded);
    }
}
