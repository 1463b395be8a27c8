//! The benchmark's definition: four workloads with their frozen
//! parameters, ten end-to-end metrics with regression bounds, and the
//! per-layer metrics the traced run reports. `BENCHMARK.json` at the
//! repository root restates the names, units and bounds; a test keeps
//! the two equal.

use crate::gen::{Mix, OpShape};
use crate::json::escape;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue. `bound` is the share of the parent's
/// median by which an end-to-end metric may worsen before the change
/// counts as a regression; per-layer metrics carry none.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, measured with tracing off. Every
/// workload reports every one of them. The bounds are what the
/// benchmark box's noise leaves room for (README, "Repeatability"), not
/// what the code deserves on a quiet machine.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("analyze_streams_per_s", "streams/s", Higher, 0.25),
    e2e("sim_cycles_per_s", "cycles/s", Higher, 0.25),
    e2e("ops_per_s", "ops/s", Higher, 0.25),
    e2e("admit_p50_us", "us", Lower, 0.25),
    e2e("admit_p95_us", "us", Lower, 0.25),
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("query_p95_us", "us", Lower, 0.25),
    e2e("remove_p50_us", "us", Lower, 0.25),
    e2e("rss_mb", "MiB", Lower, 0.25),
];

/// Single layers, measured by the traced run. A value of 0 means the
/// layer is not on that workload's path (`offline_eval` has no server
/// process, only `svc_durable` restarts one).
pub const PER_LAYER: &[MetricDef] = &[
    layer("topology.route_ns", "ns", Lower),
    layer("core.stream.resolve_ms", "ms", Lower),
    layer("core.interference.build_ms", "ms", Lower),
    layer("core.interference.bytes", "bytes", Lower),
    layer("core.hpset.all_ms", "ms", Lower),
    layer("core.hpset.mean_size", "count", Lower),
    layer("core.hpset.indirect_share", "ratio", Lower),
    layer("core.calu.p50_us", "us", Lower),
    layer("core.calu.p99_us", "us", Lower),
    layer("core.modify.removed_share", "ratio", Higher),
    layer("core.feasibility.serial_ms", "ms", Lower),
    layer("core.feasibility.parallel_ms", "ms", Lower),
    layer("core.feasibility.parallel_efficiency", "ratio", Higher),
    layer("core.admission.admit_p50_us", "us", Lower),
    layer("core.admission.admit_p99_us", "us", Lower),
    layer("core.admission.remove_p50_us", "us", Lower),
    layer("core.admission.remove_p99_us", "us", Lower),
    layer("core.admission.recomputations_per_admit", "count", Lower),
    layer("core.admission.reject_share", "ratio", Lower),
    layer("core.shard.s1_admit_p50_us", "us", Lower),
    layer("core.shard.s1_remove_p50_us", "us", Lower),
    layer("core.shard.s1_overhead_x", "ratio", Lower),
    layer("core.shard.s4_admit_p50_us", "us", Lower),
    layer("core.shard.s4_cross_share", "ratio", Lower),
    layer("verifier.lint_p50_us", "us", Lower),
    layer("sim.cycles_per_s", "cycles/s", Higher),
    layer("sim.completed_per_s", "1/s", Higher),
    layer("sim.actual_over_u_max", "ratio", Lower),
    layer("sim.actual_over_u_top_mean", "ratio", Lower),
    layer("server.protocol.parse_ns", "ns", Lower),
    layer("server.protocol.render_ns", "ns", Lower),
    layer("server.service.admit_p50_us", "us", Lower),
    layer("server.service.remove_p50_us", "us", Lower),
    layer("server.service.query_p50_us", "us", Lower),
    layer("server.service.self_us", "us", Lower),
    layer("server.wal.append_ns", "ns", Lower),
    layer("server.wal.sync_us", "us", Lower),
    layer("server.wal.bytes_per_op", "bytes", Lower),
    layer("server.group_commit.durable_admit_p50_us", "us", Lower),
    layer("server.group_commit.mean_batch", "count", Higher),
    layer("server.group_commit.syncs_per_op", "ratio", Lower),
    layer("server.snapshot.write_ms", "ms", Lower),
    layer("server.snapshot.bytes", "bytes", Lower),
    layer("server.recovery.recover_ms", "ms", Lower),
    layer("server.recovery.replayed_ops", "count", Lower),
    layer("server.recovery.restart_ms", "ms", Lower),
    layer("server.server.rtt_floor_us", "us", Lower),
    layer("server.server.wire_self_us", "us", Lower),
    layer("server.server.queue_p50_us", "us", Lower),
    layer("server.server.service_p50_us", "us", Lower),
    layer("server.server.shed", "count", Lower),
    layer("server.server.cpu_us_per_op", "us", Lower),
    layer("loadgen.admit_p99_us", "us", Lower),
    layer("loadgen.query_p99_us", "us", Lower),
    layer("loadgen.late_share", "ratio", Lower),
    layer("loadgen.late_p99_us", "us", Lower),
    layer("loadgen.slo_miss_share", "ratio", Lower),
    layer("loadgen.failed_share", "ratio", Lower),
    layer("loadgen.cpu_share", "ratio", Lower),
    layer("loadgen.trace_overhead_share", "ratio", Lower),
];

/// Where a workload's operations run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// `rtwc_core::AdmissionController` called in this process: the
    /// paper's host processor, no server crate on the path.
    Library,
    /// The shipped `rtwc serve` as a separate process over TCP.
    Server { durable: bool },
}

/// One workload and every parameter that shapes its load.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub target: Target,
    /// The request stream and the mesh it runs on.
    pub ops: OpShape,
    /// Open-loop arrival rate, requests per second over both
    /// connections, frozen at about half the closed-loop capacity
    /// measured at the commit that added the benchmark. Zero for the
    /// library target, whose single caller has no arrival process.
    pub open_rate: u64,
    /// Latency limit behind `loadgen.slo_miss_share`, microseconds.
    pub slo_us: u64,
    /// Contended regions analysed offline.
    pub regions: usize,
    /// Table 5 workloads simulated offline.
    pub table5: usize,
    /// Shares of `--seconds` spent on (operations closed loop,
    /// operations open loop, analysis, simulation).
    pub split: [f64; 4],
}

/// Streams per contended region and its mesh side: 3.2 streams a
/// node, a 6 ms analysis pass. Regions differ in cost by a quarter
/// (standard deviation over mean, 600 of them), so 288 of them analyse
/// at a rate that moves by under 2% from seed to seed and 96 by 3%,
/// where twelve moved by 12% and one 2000-stream set on 23x23 by 30%.
pub const REGION_STREAMS: usize = 80;
pub const REGION_SIDE: u32 = 5;
/// The paper's Table 5 set-up: 60 streams on 10x10, 15 priority levels
/// (`C` 1..40 and `T` 40..90 are the generator's defaults). Each is
/// simulated for 3000 cycles, 1000 of them warm-up, not the paper's
/// 30000: a workload's cycle rate follows its load (a ninth, standard
/// deviation over mean), so many short simulations average that out
/// and repeat often enough in a few seconds for a quiet decile. The
/// generator looks for each `U_i` up to this horizon; its own default
/// of 200000 finds 3% more of them at 25 times the set-up time.
pub const TABLE5_HORIZON_CAP: u64 = 20_000;
pub const TABLE5_STREAMS: usize = 60;
pub const TABLE5_LEVELS: u32 = 15;
/// Cycles per simulation, how many of them are warm-up (messages
/// released then are simulated but kept out of the means), and cycles
/// per timed chunk.
pub const SIM_CYCLES: u64 = 3_000;
pub const SIM_WARMUP: u64 = 1_000;
pub const SIM_CHUNK: u64 = 500;
/// Priority levels the request generator draws from.
pub const SERVICE_LEVELS: usize = 5;
/// Requests one connection keeps in flight per burst.
pub const WINDOW: usize = 32;
/// Connections (and generator threads): the box has two cores.
pub const CONNECTIONS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Operations replayed in process by the traced run.
pub const TRACE_OPS: usize = 20_000;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "offline_eval",
        why: "The paper's pipeline in process (HP sets, diagram, Modify_Diagram, Cal_U, flit simulation) plus the library controller: no server code runs, so a server change must leave it flat.",
        target: Target::Library,
        ops: OpShape {
            width: 46,
            height: 46,
            locality: 3,
            mix: Mix {
                query: 40,
                admit: 30,
            },
            share: 2400,
            req_ids: false,
        },
        open_rate: 0,
        slo_us: 20_000,
        regions: 288,
        table5: 48,
        split: [0.30, 0.0, 0.35, 0.35],
    },
    Workload {
        name: "svc_frontend",
        why: "Tiny requests against 64 residents whose analysis costs microseconds: nearly all time is socket, reactor, parse, dispatch, render. A core change must leave it flat; a reactor change shows first here.",
        target: Target::Server { durable: false },
        ops: OpShape {
            width: 32,
            height: 32,
            locality: 2,
            mix: Mix {
                query: 90,
                admit: 5,
            },
            share: 32,
            req_ids: false,
        },
        open_rate: 40_000,
        slo_us: 5_000,
        regions: 96,
        table5: 24,
        split: [0.32, 0.50, 0.08, 0.10],
    },
    Workload {
        name: "svc_churn",
        why: "Same front end, but admission and removal against 1500 residents dominate: the write path and the lock readers share with it show here, so an admit speed-up that holds the lock longer cannot hide.",
        target: Target::Server { durable: false },
        ops: OpShape {
            width: 64,
            height: 64,
            locality: 4,
            mix: Mix {
                query: 40,
                admit: 30,
            },
            share: 750,
            req_ids: false,
        },
        open_rate: 5_000,
        slo_us: 20_000,
        regions: 96,
        table5: 24,
        split: [0.32, 0.50, 0.08, 0.10],
    },
    Workload {
        name: "svc_durable",
        why: "Tiny analysis, but every write carries a request id and is appended to the WAL (synced every 5 ms) before its ack while snapshots compact the log: WAL, dedup and snapshot changes show only here.",
        target: Target::Server { durable: true },
        ops: OpShape {
            width: 32,
            height: 32,
            locality: 2,
            mix: Mix {
                query: 20,
                admit: 40,
            },
            share: 32,
            req_ids: true,
        },
        open_rate: 10_000,
        slo_us: 20_000,
        regions: 96,
        table5: 24,
        split: [0.32, 0.50, 0.08, 0.10],
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How long one run measures, the `--seconds` the driver passes.
pub const RUN_SECONDS: u64 = 20;

/// `BENCHMARK.json`, rendered from the catalogue (`rtwc-benchmark
/// describe`).
pub fn describe() -> String {
    let quoted = |items: &[&str]| {
        let q: Vec<String> = items.iter().map(|i| format!("\"{i}\"")).collect();
        q.join(", ")
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name,
                escape(w.why)
            )
        })
        .collect();
    let metric = |m: &MetricDef| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            m.better.as_str()
        )
    };
    let list = |defs: &[MetricDef]| defs.iter().map(metric).collect::<Vec<_>>().join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&command),
        workloads.join(",\n"),
        list(END_TO_END),
        list(PER_LAYER)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn names_ok(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_obeys_the_schema_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(names_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics are bounded");
            assert!(b > 0.0 && b <= 0.25);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for w in WORKLOADS {
            assert!(names_ok(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!((w.split.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn benchmark_json_restates_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        // Not `assert_eq!`: a mismatch would print both files whole.
        assert!(
            text == describe(),
            "regenerate with `rtwc-benchmark describe`"
        );
        let doc = json::parse(&text).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let list = |key: &str| doc.get(key).and_then(Value::as_arr).unwrap().to_vec();
        let s = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(got.as_obj().unwrap().len(), 2);
            assert_eq!(
                (s(got, "name"), s(got, "why")),
                (want.name.into(), want.why.into())
            );
        }
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let got = list(key);
            assert_eq!(got.len(), defs.len(), "{key}");
            for (g, d) in got.iter().zip(defs) {
                assert_eq!(s(g, "name"), d.name);
                assert_eq!(s(g, "unit"), d.unit, "{}", d.name);
                assert_eq!(s(g, "better"), d.better.as_str(), "{}", d.name);
                assert_eq!(
                    g.get("bound").and_then(Value::as_f64),
                    d.bound,
                    "{}",
                    d.name
                );
                assert_eq!(
                    g.as_obj().unwrap().len(),
                    if d.bound.is_some() { 4 } else { 3 }
                );
            }
        }
        let secs = doc.get("run_seconds").and_then(Value::as_u64).unwrap();
        assert!((1..=60).contains(&secs));
        let command = list("command");
        assert!(command.len() <= 32 && command.iter().all(|c| c.as_str().unwrap().len() <= 200));
        assert_eq!(doc.get("paths").and_then(Value::as_arr).unwrap().len(), 1);
    }
}
