//! One run of one workload: set-up, the timed phases, the correctness
//! checks, and the metrics that come out. An untraced run yields the
//! end-to-end metrics, a traced run the per-layer ones; neither borrows
//! numbers from the other.

use crate::catalog::{
    self, Target, Workload, CONNECTIONS, END_TO_END, PER_LAYER, REGION_SIDE, REGION_STREAMS,
    SERVICE_LEVELS, SETUPS, SIM_CHUNK, SIM_CYCLES, SIM_WARMUP, TABLE5_HORIZON_CAP, TABLE5_LEVELS,
    TABLE5_STREAMS, TRACE_OPS, WINDOW,
};
use crate::checks;
use crate::gen::{self, Op, OpGen, Rng, Verb};
use crate::json::{self, Value};
use crate::ladder::{self, Measured};
use crate::library::{self, Library, Replay};
use crate::loadgen::{self, Conn, PhaseLog, Reply, Sample};
use crate::offline::{AnalysisMeter, SimInput, SimMeter};
use crate::server_proc::{self, RunDir, ServerProc};
use crate::stats;
use crate::trace::Spans;
use rtwc_core::{
    cal_u, cal_u_detailed, determine_feasibility, determine_feasibility_parallel, generate_hp_sets,
    InterferenceIndex, StreamSet, StreamSpec,
};
use rtwc_workload::PaperWorkloadConfig;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wormnet_topology::{Mesh, Topology, XyRouting};

/// Where things are for this invocation.
pub struct Ctx {
    /// The built `rtwc` binary.
    pub rtwc: PathBuf,
    /// The benchmark's output directory (`benchmark/out`).
    pub out: PathBuf,
    /// Shrink populations and warm-ups so a run takes a second or two:
    /// for the tests, never for numbers.
    pub quick: bool,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Timed samples (or counted events) behind the value.
    pub samples: usize,
}

pub struct RunResult {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Failed checks and validity warnings, one line each.
    pub notes: Vec<String>,
    pub wall_s: f64,
}

/// A timed phase is cut into slices before the quiet decile is taken.
/// A slice is at least this wide and holds at least this many samples
/// on average: short slices find the quiet moments of a noisy host,
/// but a slice with few samples measures its luck (how many costly
/// requests fell into it) more than the program.
pub const RATE_SLICE: (Duration, usize) = (Duration::from_millis(25), 2_000);
pub const LATENCY_SLICE: (Duration, usize) = (Duration::from_millis(50), 100);
/// Fewest samples a slice needs for its percentile to count.
const SLICE_MIN: usize = 20;

/// How many slices a phase of `phase_ns` with `samples` samples is cut
/// into (one at least).
fn slices(phase_ns: u64, samples: usize, (width, per_slice): (Duration, usize)) -> usize {
    let by_time = usize::try_from(phase_ns / ns(width)).unwrap_or(1);
    by_time.min(samples / per_slice).max(1)
}

/// An open-loop send this late counts against `loadgen.late_share`.
const LATE_NS: u64 = 1_000_000;

fn secs(share: f64, seconds: f64) -> Duration {
    Duration::from_secs_f64((share * seconds).max(0.01))
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Shrinks a size for `--quick`, never below `floor`.
fn sized(ctx: &Ctx, full: usize, floor: usize) -> usize {
    if ctx.quick {
        (full / 8).max(floor)
    } else {
        full
    }
}

/// The request shape of a workload, with the pool shrunk under `--quick`.
fn shape(ctx: &Ctx, w: &Workload) -> gen::OpShape {
    gen::OpShape {
        share: sized(ctx, w.ops.share, 8),
        ..w.ops
    }
}

// ---------------------------------------------------------------- populations

/// The stream sets a run analyses and simulates offline.
struct Population {
    /// What the sets were resolved from (for the `core.stream` layer).
    sources: Vec<(Mesh, Vec<StreamSpec>)>,
    analysis: Vec<StreamSet>,
    sims: Vec<SimInput>,
}

/// The population every workload analyses and simulates offline:
/// contended regions and Table 5 workloads, all drawn from the seed
/// (`offline_eval` takes more of both than the service workloads, which
/// give the offline phases under a fifth of their time).
fn generated_population(ctx: &Ctx, w: &Workload, seed: u64) -> Result<Population, String> {
    let mut sources = Vec::new();
    let mut analysis = Vec::new();
    for r in 0..sized(ctx, w.regions, 2) {
        let (mesh, specs) = gen::contended_region(
            &mut Rng::lane(seed, 1000 + r as u64),
            REGION_SIDE,
            REGION_STREAMS,
        );
        let set = StreamSet::resolve(&mesh, &XyRouting, &specs)
            .map_err(|e| format!("region {r} does not resolve: {e}"))?;
        sources.push((mesh, specs));
        analysis.push(set);
    }
    let sims = (0..sized(ctx, w.table5, 1))
        .map(|k| {
            let g = rtwc_workload::generate(PaperWorkloadConfig {
                num_streams: TABLE5_STREAMS,
                priority_levels: TABLE5_LEVELS,
                horizon_cap: TABLE5_HORIZON_CAP,
                seed: Rng::lane(seed, 2000 + k as u64).next(),
                ..PaperWorkloadConfig::default()
            });
            SimInput {
                num_links: g.mesh.num_links(),
                levels: TABLE5_LEVELS as usize,
                set: g.set,
                bounds: g.bounds,
            }
        })
        .collect();
    Ok(Population {
        sources,
        analysis,
        sims,
    })
}

// ------------------------------------------------------------ metric plumbing

struct Collector {
    defs: &'static [catalog::MetricDef],
    metrics: Vec<Metric>,
}

impl Collector {
    fn new(defs: &'static [catalog::MetricDef]) -> Self {
        Collector {
            defs,
            metrics: Vec::new(),
        }
    }

    fn put(&mut self, name: &str, value: f64, samples: usize) {
        let def = self
            .defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.metrics.push(Metric {
            name: def.name,
            unit: def.unit,
            value,
            samples,
        });
    }

    fn absorb(&mut self, measured: Measured) {
        for (name, (value, samples)) in measured {
            self.put(name, value, samples);
        }
    }

    /// Every catalogue metric exactly once, in catalogue order; one the
    /// run did not measure reads 0 (per-layer metrics only: that layer
    /// is not on the workload's path).
    fn finish(mut self, fill: bool) -> Result<Vec<Metric>, String> {
        let mut out = Vec::with_capacity(self.defs.len());
        for def in self.defs {
            match self.metrics.iter().position(|m| m.name == def.name) {
                Some(i) => out.push(self.metrics.swap_remove(i)),
                None if fill => out.push(Metric {
                    name: def.name,
                    unit: def.unit,
                    value: 0.0,
                    samples: 0,
                }),
                None => return Err(format!("metric {} was not measured", def.name)),
            }
        }
        Ok(out)
    }
}

/// Quiet-decile percentile of one verb's latencies, microseconds.
fn latency(samples: &[Sample], verb: Verb, phase_ns: u64, q: f64) -> Result<(f64, usize), String> {
    // Nanosecond latencies are far below 2^52.
    #[allow(clippy::cast_precision_loss)]
    let of_verb = || {
        samples
            .iter()
            .filter(move |s| s.verb == verb)
            .map(|s| (s.at_ns, s.latency_ns as f64 / 1e3))
    };
    let n = of_verb().count();
    if n == 0 {
        return Err(format!("no {} was timed", verb.name()));
    }
    let mut per_slice = loadgen::sliced_percentiles(
        of_verb(),
        phase_ns,
        slices(phase_ns, n, LATENCY_SLICE),
        SLICE_MIN,
        q,
    );
    if per_slice.is_empty() {
        // Too few samples to slice (a `--quick` run): one percentile.
        let mut all: Vec<f64> = of_verb().map(|(_, v)| v).collect();
        return Ok((stats::quantile(&mut all, q), n));
    }
    Ok((stats::quiet(&mut per_slice), n))
}

fn put_latencies(c: &mut Collector, samples: &[Sample], phase_ns: u64) -> Result<(), String> {
    for (name, verb, q) in [
        ("admit_p50_us", Verb::Admit, 0.5),
        ("admit_p95_us", Verb::Admit, 0.95),
        ("query_p50_us", Verb::Query, 0.5),
        ("query_p95_us", Verb::Query, 0.95),
        ("remove_p50_us", Verb::Remove, 0.5),
    ] {
        let (value, n) = latency(samples, verb, phase_ns, q)?;
        c.put(name, value, n);
    }
    Ok(())
}

/// Throughput of a closed-loop phase over TCP: the median slice. Two
/// processes and five threads on two cores leave no quiet moments for a
/// decile to find, and the fast slices are the ones that happened to
/// draw cheap requests: over eight runs of `svc_churn` the median slice
/// moved by 3%, the ninth decile by 6%.
fn closed_rate(log: &PhaseLog, from_ns: u64, phase_ns: u64) -> f64 {
    let ops: u64 = log.bursts.iter().map(|b| b.ops).sum();
    let ops = usize::try_from(ops).unwrap_or(usize::MAX);
    let mut rates = loadgen::sliced_rates(
        &log.bursts,
        from_ns,
        phase_ns,
        slices(phase_ns, ops, RATE_SLICE),
    );
    stats::median(&mut rates)
}

/// Times an untraced run gives its offline meters a turn: before,
/// between and after its request phases.
const OFFLINE_SLOTS: u32 = 3;

/// Both offline meters of an untraced run.
struct Offline<'a> {
    population: &'a Population,
    analysis: AnalysisMeter<'a>,
    sim: SimMeter<'a>,
    /// What one slot gives the analysis and the simulation.
    slot: (Duration, Duration),
}

impl<'a> Offline<'a> {
    fn new(population: &'a Population, w: &Workload, seconds: f64) -> Self {
        Offline {
            population,
            analysis: AnalysisMeter::new(&population.analysis),
            sim: SimMeter::new(&population.sims, SIM_CYCLES, SIM_WARMUP, SIM_CHUNK),
            slot: (
                secs(w.split[2], seconds) / OFFLINE_SLOTS,
                secs(w.split[3], seconds) / OFFLINE_SLOTS,
            ),
        }
    }

    /// One turn of each meter.
    fn turn(&mut self) -> Result<(), String> {
        self.analysis.run_for(self.slot.0);
        self.sim.run_for(self.slot.1)
    }

    /// Reports the two rates and returns what the checks found.
    fn finish(mut self, c: &mut Collector) -> Vec<String> {
        c.put(
            "analyze_streams_per_s",
            self.analysis.streams_per_s(),
            self.analysis.calls(),
        );
        c.put(
            "sim_cycles_per_s",
            self.sim.cycles_per_s(),
            self.sim.chunks(),
        );
        let mut notes = self.sim.findings.violations;
        notes.extend(checks::parallel_equals_serial(
            &self.population.analysis,
            &self.analysis.reports,
        ));
        notes
    }
}

// ------------------------------------------------------------- library target

struct LibrarySetup {
    population: Population,
    lib: Library,
    gen: OpGen,
}

fn setup_library(ctx: &Ctx, w: &Workload, seed: u64) -> Result<LibrarySetup, String> {
    let population = generated_population(ctx, w, seed)?;
    let shape = shape(ctx, w);
    let mut lib = Library::new(Mesh::mesh2d(shape.width, shape.height));
    let mut gen = OpGen::new(seed, 0, shape);
    lib.seed(&mut gen, shape.share);
    if gen.owned() < shape.share {
        return Err(format!(
            "seeded only {} of {} residents",
            gen.owned(),
            shape.share
        ));
    }
    Ok(LibrarySetup {
        population,
        lib,
        gen,
    })
}

/// The set-up repeated [`SETUPS`] times; returns the last one and the
/// median time.
fn repeated<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        // Tear the previous set-up down before timing the next one.
        drop(last.take());
        let at = Instant::now();
        last = Some(setup()?);
        times.push(at.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("at least one set-up"),
        stats::median(&mut times),
    ))
}

fn library_untraced(
    ctx: &Ctx,
    w: &'static Workload,
    seed: u64,
    seconds: f64,
) -> Result<RunResult, String> {
    let started = Instant::now();
    let mut notes = checks::paper_example();
    let (set_up, setup_s) = repeated(|| setup_library(ctx, w, seed))?;
    let LibrarySetup {
        population,
        mut lib,
        mut gen,
    } = set_up;
    let mut c = Collector::new(END_TO_END);
    c.put("setup_s", setup_s, SETUPS);

    // The request phase runs in two halves with the offline meters
    // before, between and after; its samples are stamped as one phase.
    let mut offline = Offline::new(&population, w, seconds);
    let half = secs(w.split[0], seconds) / 2;
    let mut log = PhaseLog::default();
    offline.turn()?;
    for i in 0..2 {
        library::ops_phase(&mut lib, &mut gen, ns(half) * i, half, &mut log);
        offline.turn()?;
    }
    let phase_ns = ns(half) * 2;
    let mut rates = loadgen::sliced_counts(
        log.samples.iter().map(|s| s.at_ns),
        phase_ns,
        slices(phase_ns, log.samples.len(), RATE_SLICE),
    );
    c.put(
        "ops_per_s",
        stats::quiet_rate(&mut rates),
        log.samples.len(),
    );
    put_latencies(&mut c, &log.samples, phase_ns)?;
    notes.extend(offline.finish(&mut c));
    notes.extend(checks::controller_state(&lib));
    c.put(
        "rss_mb",
        server_proc::own_rss_hwm_mb().map_err(|e| format!("own VmHWM: {e}"))?,
        1,
    );
    Ok(RunResult {
        workload: w,
        seed,
        seconds,
        traced: false,
        correct: notes.is_empty(),
        attempted: log.attempted,
        failed: log.failed,
        metrics: c.finish(false)?,
        notes,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

// ------------------------------------------------------------- offline layers

/// Times the analysis layers one by one over a population, each through
/// its public function, and records a span per call.
fn offline_layers(population: &Population, spans: &mut Spans, out: &mut Measured) {
    let sets = &population.analysis;
    let streams: usize = sets.iter().map(StreamSet::len).sum();
    // Each layer: a few sweeps over every set, the quiet sweep reported.
    let sweep =
        |spans: &mut Spans, layer: &'static str, name: &'static str, f: &mut dyn FnMut(usize)| {
            let mut ms: Vec<f64> = (0..3)
                .map(|_| {
                    (0..sets.len())
                        .map(|i| {
                            spans.set_op(i as u64);
                            spans.timed(layer, name, None, || f(i)).1
                        })
                        .sum::<f64>()
                        / 1e6
                })
                .collect();
            stats::quiet(&mut ms)
        };
    let resolve = sweep(spans, "core.stream", "resolve", &mut |i| {
        let (mesh, specs) = &population.sources[i.min(population.sources.len() - 1)];
        std::hint::black_box(StreamSet::resolve(mesh, &XyRouting, specs).ok());
    });
    out.insert("core.stream.resolve_ms", (resolve, streams));
    let mut bytes = 0usize;
    let build = sweep(spans, "core.interference", "build", &mut |i| {
        bytes += InterferenceIndex::build(&sets[i]).memory_bytes();
    });
    out.insert("core.interference.build_ms", (build, streams));
    // Three sweeps added every set's index three times. Sizes are far
    // below 2^52.
    #[allow(clippy::cast_precision_loss)]
    out.insert("core.interference.bytes", ((bytes / 3) as f64, sets.len()));

    let (mut elements, mut indirect) = (0usize, 0usize);
    let hp = sweep(spans, "core.hpset", "generate_hp_sets", &mut |i| {
        for set in generate_hp_sets(&sets[i]) {
            elements += set.len();
            indirect += set.elements().iter().filter(|e| !e.is_direct()).count();
        }
    });
    out.insert("core.hpset.all_ms", (hp, streams));
    #[allow(clippy::cast_precision_loss)]
    {
        out.insert(
            "core.hpset.mean_size",
            (elements as f64 / 3.0 / streams.max(1) as f64, streams),
        );
        out.insert(
            "core.hpset.indirect_share",
            (indirect as f64 / elements.max(1) as f64, elements / 3),
        );
    }

    // `Cal_U` per stream, on at most 2000 streams spread over the sets;
    // the detailed variant on a tenth of those for the removal share.
    let stride = streams.div_ceil(2000).max(1);
    let mut calu_us = Vec::new();
    let (mut removed, mut instances) = (0usize, 0usize);
    let mut k = 0usize;
    for set in sets {
        for id in set.ids() {
            k += 1;
            if !k.is_multiple_of(stride) {
                continue;
            }
            spans.set_op(k as u64);
            let horizon = set.get(id).deadline();
            let (_, t) = spans.timed("core.calu", "cal_u", None, || cal_u(set, id, horizon));
            calu_us.push(t / 1e3);
            if k.is_multiple_of(stride * 10) {
                let a = cal_u_detailed(set, id, horizon);
                removed += a.removed.len();
                instances += a
                    .initial
                    .rows()
                    .iter()
                    .map(|r| r.instances.len())
                    .sum::<usize>();
            }
        }
    }
    out.insert(
        "core.calu.p50_us",
        (stats::quantile(&mut calu_us, 0.5), calu_us.len()),
    );
    out.insert(
        "core.calu.p99_us",
        (stats::quantile(&mut calu_us, 0.99), calu_us.len()),
    );
    #[allow(clippy::cast_precision_loss)]
    out.insert(
        "core.modify.removed_share",
        (removed as f64 / instances.max(1) as f64, instances),
    );

    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let serial = sweep(spans, "core.feasibility", "serial", &mut |i| {
        std::hint::black_box(determine_feasibility(&sets[i]));
    });
    let parallel = sweep(spans, "core.feasibility", "parallel", &mut |i| {
        std::hint::black_box(determine_feasibility_parallel(&sets[i], threads));
    });
    out.insert("core.feasibility.serial_ms", (serial, streams));
    out.insert("core.feasibility.parallel_ms", (parallel, streams));
    #[allow(clippy::cast_precision_loss)]
    out.insert(
        "core.feasibility.parallel_efficiency",
        (serial / (threads as f64 * parallel), threads),
    );
}

fn sim_layer(
    w: &Workload,
    population: &Population,
    seconds: f64,
    out: &mut Measured,
) -> Result<Vec<String>, String> {
    let mut sim = SimMeter::new(&population.sims, SIM_CYCLES, SIM_WARMUP, SIM_CHUNK);
    sim.run_for(secs(w.split[3], seconds))?;
    let found = &sim.findings;
    let completed = found.completed;
    out.insert(
        "sim.actual_over_u_max",
        (found.actual_over_u_max, completed),
    );
    out.insert(
        "sim.actual_over_u_top_mean",
        (found.actual_over_u_top_mean, completed),
    );
    let violations = found.violations.clone();
    // Message counts are far below 2^52.
    #[allow(clippy::cast_precision_loss)]
    out.insert(
        "sim.completed_per_s",
        (completed as f64 / sim.quiet_sweep_s(), completed),
    );
    out.insert("sim.cycles_per_s", (sim.cycles_per_s(), sim.chunks()));
    Ok(violations)
}

fn write_spans(ctx: &Ctx, w: &Workload, spans: &Spans) -> Result<(), String> {
    let path = ctx.out.join(format!("trace-{}.jsonl", w.name));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("{} spans written to {}", spans.len(), path.display());
    Ok(())
}

fn library_traced(
    ctx: &Ctx,
    w: &'static Workload,
    seed: u64,
    seconds: f64,
) -> Result<RunResult, String> {
    let started = Instant::now();
    let mut notes = checks::paper_example();
    let population = generated_population(ctx, w, seed)?;
    let shape = shape(ctx, w);
    let replay = Replay::generate(
        Mesh::mesh2d(shape.width, shape.height),
        seed,
        shape,
        1,
        sized(ctx, TRACE_OPS, 500),
    );
    let mut spans = Spans::new();
    let scratch = RunDir::create(&ctx.out, w.name).map_err(|e| format!("scratch dir: {e}"))?;
    let mut measured = ladder::run(&replay, scratch.path(), &mut spans)?;
    offline_layers(&population, &mut spans, &mut measured);
    notes.extend(sim_layer(w, &population, seconds, &mut measured)?);
    write_spans(ctx, w, &spans)?;
    let mut c = Collector::new(PER_LAYER);
    c.absorb(measured);
    Ok(RunResult {
        workload: w,
        seed,
        seconds,
        traced: true,
        correct: notes.is_empty(),
        attempted: replay.ops.len() as u64,
        failed: 0,
        metrics: c.finish(true)?,
        notes,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

// -------------------------------------------------------------- server target

/// A seeded, warmed-up server with its connections.
struct Live {
    conns: Vec<Conn>,
    gens: Vec<OpGen>,
    server: ServerProc,
    spec: PathBuf,
    wal: Option<PathBuf>,
    log: PathBuf,
    /// Dropped last: the server is gone before its files are.
    dir: RunDir,
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn setup_server(ctx: &Ctx, w: &Workload, seed: u64) -> Result<(Population, Live), String> {
    let Target::Server { durable } = w.target else {
        unreachable!("server set-up of a library workload")
    };
    let shape = shape(ctx, w);
    let population = generated_population(ctx, w, seed)?;
    let dir = RunDir::create(&ctx.out, w.name).map_err(io_err("run directory"))?;
    // The residents go into the spec file, which `rtwc serve` seeds
    // through its own admission path in file order, so stream `k` of
    // the file gets id `k`. Candidates the admission test refuses may
    // not be in the file (the server would not start), so the library
    // responder, which decides exactly as the service does, picks them.
    let mut lib = Library::new(Mesh::mesh2d(shape.width, shape.height));
    let mut gens: Vec<OpGen> = (0..CONNECTIONS)
        .map(|c| OpGen::new(seed, c as u64, shape))
        .collect();
    let mut text = format!("mesh {} {}\n", shape.width, shape.height);
    for gen in &mut gens {
        for (op, reply) in lib.seed(gen, shape.share) {
            if let (
                Reply::Admitted(_),
                Op::Admit {
                    src,
                    dst,
                    priority,
                    period,
                    length,
                    ..
                },
            ) = (reply, op)
            {
                let _ = writeln!(
                    text,
                    "stream {},{} {},{} {priority} {period} {length}",
                    src.0, src.1, dst.0, dst.1
                );
            }
        }
        if gen.owned() < shape.share {
            return Err(format!(
                "only {} of {} residents are admissible",
                gen.owned(),
                shape.share
            ));
        }
    }
    let spec = dir.path().join("residents.streams");
    std::fs::write(&spec, text).map_err(io_err("spec file"))?;
    let wal = durable.then(|| dir.path().join("wal"));
    let log = dir.path().join("server.log");
    let server =
        ServerProc::spawn(&ctx.rtwc, &spec, wal.as_deref(), &log).map_err(io_err("rtwc serve"))?;
    let conns = (0..CONNECTIONS)
        .map(|_| Conn::connect(&server.addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(io_err("connect"))?;
    let mut live = Live {
        conns,
        gens,
        server,
        spec,
        wal,
        log,
        dir,
    };
    let warm = if ctx.quick { 0.1 } else { 0.4 };
    let log = closed_phase(&mut live, Duration::from_secs_f64(warm), None).0;
    if let Some(e) = log.broken {
        return Err(format!("warm-up: {e}"));
    }
    Ok((population, live))
}

/// Both connections run a closed loop for `budget`; returns the merged
/// log and the phase's start (ns since `epoch`, which is also returned).
fn closed_phase(
    live: &mut Live,
    budget: Duration,
    spans: Option<&mut Spans>,
) -> (PhaseLog, Instant) {
    let epoch = Instant::now();
    let until = epoch + budget;
    // Only connection 0 records spans: one thread owns the recorder.
    let mut spans = spans;
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = live
            .conns
            .iter_mut()
            .zip(&mut live.gens)
            .enumerate()
            .map(|(i, (conn, gen))| {
                let spans = if i == 0 { spans.take() } else { None };
                scope.spawn(move || loadgen::closed_loop(conn, gen, WINDOW, epoch, until, spans))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread"))
            .collect()
    });
    (PhaseLog::merge(logs), epoch)
}

fn open_phase(live: &mut Live, budget: Duration, rate: u64) -> PhaseLog {
    let start = Instant::now();
    // Rates are far below 2^52.
    #[allow(clippy::cast_precision_loss)]
    let per_conn = rate as f64 / CONNECTIONS as f64;
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = live
            .conns
            .iter_mut()
            .zip(&mut live.gens)
            .map(|(conn, gen)| {
                scope.spawn(move || loadgen::open_loop(conn, gen, start, budget, per_conn))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop thread"))
            .collect()
    });
    PhaseLog::merge(logs)
}

/// One admitted stream as `SNAPSHOT` reports it.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Resident {
    id: u64,
    src: (u32, u32),
    dst: (u32, u32),
    priority: u32,
    period: u64,
    length: u64,
    deadline: u64,
    bound: Option<u64>,
}

fn snapshot(conn: &mut Conn) -> Result<Vec<Resident>, String> {
    let line = conn.request("SNAPSHOT").map_err(io_err("SNAPSHOT"))?;
    let doc = json::parse(&line).map_err(|e| format!("SNAPSHOT reply: {e}"))?;
    let bad = || {
        let head: String = line.chars().take(200).collect();
        format!("SNAPSHOT reply has an unexpected shape: {head}")
    };
    let pair = |v: &Value, key: &str| -> Option<(u32, u32)> {
        let a = v.get(key)?.as_arr()?;
        Some((
            u32::try_from(a.first()?.as_u64()?).ok()?,
            u32::try_from(a.get(1)?.as_u64()?).ok()?,
        ))
    };
    doc.get("streams")
        .and_then(Value::as_arr)
        .ok_or_else(bad)?
        .iter()
        .map(|s| {
            let n = |key: &str| s.get(key).and_then(Value::as_u64);
            Some(Resident {
                id: n("id")?,
                src: pair(s, "src")?,
                dst: pair(s, "dst")?,
                priority: u32::try_from(n("priority")?).ok()?,
                period: n("period")?,
                length: n("length")?,
                deadline: n("deadline")?,
                bound: n("bound"),
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(bad)
}

/// The check on what a service run left admitted: the set `SNAPSHOT`
/// reports, re-analysed from scratch, must be feasible with exactly the
/// bounds the service cached, and no message of one simulation of it
/// may take longer than its stream's bound.
fn residents_check(
    w: &Workload,
    residents: &[Resident],
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let mesh = Mesh::mesh2d(w.ops.width, w.ops.height);
    let node = |c: (u32, u32)| {
        mesh.node_at(&[c.0, c.1])
            .ok_or_else(|| format!("SNAPSHOT coordinate {c:?} is off the mesh"))
    };
    let specs = residents
        .iter()
        .map(|r| {
            Ok(StreamSpec::new(
                node(r.src)?,
                node(r.dst)?,
                r.priority,
                r.period,
                r.length,
                r.deadline,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let cached: Vec<Option<u64>> = residents.iter().map(|r| r.bound).collect();
    let set = StreamSet::resolve(&mesh, &XyRouting, &specs)
        .map_err(|e| format!("the admitted set does not resolve: {e}"))?;
    let report = determine_feasibility(&set);
    notes.extend(checks::resident_set(&report, &cached));
    let inputs = [SimInput {
        num_links: mesh.num_links(),
        levels: SERVICE_LEVELS,
        set,
        bounds: report.bounds,
    }];
    let mut sim = SimMeter::new(&inputs, SIM_CYCLES, SIM_WARMUP, SIM_CHUNK);
    sim.run_for(Duration::ZERO)?;
    notes.extend(sim.findings.violations);
    Ok(())
}

/// `svc_durable`'s ending: `kill -9`, restart on the same directory,
/// and the recovered `SNAPSHOT` must equal the last acknowledged state.
/// Returns the time from the kill to the first answered `QUERY`, ms.
fn restart_drill(
    ctx: &Ctx,
    live: &mut Live,
    before: &[Resident],
    notes: &mut Vec<String>,
) -> Result<f64, String> {
    let at = Instant::now();
    live.server.kill();
    live.server = ServerProc::spawn(&ctx.rtwc, &live.spec, live.wal.as_deref(), &live.log)
        .map_err(io_err("restart"))?;
    let mut conn = Conn::connect(&live.server.addr).map_err(io_err("reconnect"))?;
    let probe = before.first().map_or(0, |r| r.id);
    let reply = conn
        .request(&format!("QUERY {probe}"))
        .map_err(io_err("QUERY after restart"))?;
    let restart_ms = at.elapsed().as_secs_f64() * 1e3;
    if !before.is_empty() && loadgen::classify(&reply) != loadgen::Reply::Ok {
        notes.push(format!("after restart QUERY {probe} answered {reply}"));
    }
    let after = snapshot(&mut conn)?;
    if after != before {
        notes.push(format!(
            "recovered SNAPSHOT ({} streams) differs from the last acknowledged state ({} streams)",
            after.len(),
            before.len()
        ));
    }
    live.conns.clear();
    Ok(restart_ms)
}

/// A phase whose connection broke (a dead server, replies that stopped
/// lining up with requests, a backlog the server never cleared) leaves
/// nothing to measure and connections that can no longer be trusted:
/// the run ends here, without a result.
fn phase_ok(log: &PhaseLog, what: &str) -> Result<(), String> {
    match &log.broken {
        Some(e) => Err(format!("{what}: connection broke: {e}")),
        None => Ok(()),
    }
}

fn server_untraced(
    ctx: &Ctx,
    w: &'static Workload,
    seed: u64,
    seconds: f64,
) -> Result<RunResult, String> {
    let started = Instant::now();
    let mut notes = checks::paper_example();
    let ((population, mut live), setup_s) = repeated(|| setup_server(ctx, w, seed))?;
    let mut c = Collector::new(END_TO_END);
    c.put("setup_s", setup_s, SETUPS);
    let mut offline = Offline::new(&population, w, seconds);
    offline.turn()?;

    let budget = secs(w.split[0], seconds);
    let (closed, _) = closed_phase(&mut live, budget, None);
    phase_ok(&closed, "closed loop")?;
    let ops: u64 = closed.bursts.iter().map(|b| b.ops).sum();
    c.put(
        "ops_per_s",
        closed_rate(&closed, 0, ns(budget)),
        usize::try_from(ops).unwrap_or(usize::MAX),
    );
    offline.turn()?;

    let budget = secs(w.split[1], seconds);
    let open = open_phase(&mut live, budget, w.open_rate);
    phase_ok(&open, "open loop")?;
    put_latencies(&mut c, &open.samples, ns(budget))?;
    let late = open.samples.iter().filter(|s| s.late_ns > LATE_NS).count();
    if late * 100 > open.samples.len() {
        notes.push(format!(
            "VALIDITY: the generator sent {late} of {} open-loop requests more than 1 ms late",
            open.samples.len()
        ));
    }
    c.put(
        "rss_mb",
        live.server.rss_hwm_mb().map_err(io_err("server VmHWM"))?,
        1,
    );
    offline.turn()?;
    notes.extend(offline.finish(&mut c));

    let residents = snapshot(&mut live.conns[0])?;
    residents_check(w, &residents, &mut notes)?;
    if w.target == (Target::Server { durable: true }) {
        restart_drill(ctx, &mut live, &residents, &mut notes)?;
    }
    // A validity warning is reported, not a wrong output.
    let correct = notes.iter().all(|n| n.starts_with("VALIDITY"));
    Ok(RunResult {
        workload: w,
        seed,
        seconds,
        traced: false,
        correct,
        attempted: closed.attempted + open.attempted,
        failed: closed.failed + open.failed,
        metrics: c.finish(false)?,
        notes,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// Window-1 `QUERY` round trips on a fresh connection: the floor under
/// every request's latency.
fn rtt_floor(live: &Live, budget: Duration, probe: u64) -> Result<(f64, usize), String> {
    let mut conn = Conn::connect(&live.server.addr).map_err(io_err("probe connection"))?;
    let line = format!("QUERY {probe}");
    let mut us = Vec::new();
    let until = Instant::now() + budget;
    while Instant::now() < until {
        let at = Instant::now();
        conn.request(&line).map_err(io_err("probe"))?;
        us.push(at.elapsed().as_secs_f64() * 1e6);
    }
    Ok((stats::quantile(&mut us, 0.5), us.len()))
}

fn server_traced(
    ctx: &Ctx,
    w: &'static Workload,
    seed: u64,
    seconds: f64,
) -> Result<RunResult, String> {
    let started = Instant::now();
    let mut notes = checks::paper_example();
    let (population, mut live) = setup_server(ctx, w, seed)?;
    let mut spans = Spans::new();
    let mut m = Measured::new();

    // Closed loop twice, spans off then on: the difference is what
    // client-side tracing costs.
    let budget = secs(0.2, seconds);
    let (server_cpu, own_cpu) = (
        live.server.cpu_us().map_err(io_err("server CPU"))?,
        server_proc::own_cpu_us().map_err(io_err("own CPU"))?,
    );
    let (plain, _) = closed_phase(&mut live, budget, None);
    let server_cpu = live.server.cpu_us().map_err(io_err("server CPU"))? - server_cpu;
    let own_cpu = server_proc::own_cpu_us().map_err(io_err("own CPU"))? - own_cpu;
    let (traced, _) = closed_phase(&mut live, budget, Some(&mut spans));
    phase_ok(&plain, "closed loop")?;
    phase_ok(&traced, "traced closed loop")?;
    let ops: u64 = plain.bursts.iter().map(|b| b.ops).sum();
    let ops_n = usize::try_from(ops).unwrap_or(usize::MAX);
    let (plain_rate, traced_rate) = (
        closed_rate(&plain, 0, ns(budget)),
        closed_rate(&traced, 0, ns(budget)),
    );
    // CPU times and counts are far below 2^52.
    #[allow(clippy::cast_precision_loss)]
    {
        m.insert(
            "server.server.cpu_us_per_op",
            (server_cpu as f64 / ops.max(1) as f64, ops_n),
        );
        m.insert(
            "loadgen.cpu_share",
            (own_cpu as f64 / (own_cpu + server_cpu).max(1) as f64, ops_n),
        );
    }
    m.insert(
        "loadgen.trace_overhead_share",
        (1.0 - traced_rate / plain_rate, ops_n),
    );

    let budget = secs(0.3, seconds);
    let open = open_phase(&mut live, budget, w.open_rate);
    phase_ok(&open, "open loop")?;
    let n = open.samples.len();
    let attempted = plain.attempted + traced.attempted + open.attempted;
    let failed = plain.failed + traced.failed + open.failed;
    // Counts and nanosecond times are far below 2^52.
    #[allow(clippy::cast_precision_loss)]
    {
        let share = |k: usize| k as f64 / n.max(1) as f64;
        let late = open.samples.iter().filter(|s| s.late_ns > LATE_NS).count();
        let mut lateness: Vec<f64> = open
            .samples
            .iter()
            .map(|s| s.late_ns as f64 / 1e3)
            .collect();
        let over = open
            .samples
            .iter()
            .filter(|s| s.latency_ns > w.slo_us * 1000)
            .count();
        let unanswered = usize::try_from(open.attempted).unwrap_or(usize::MAX) - n;
        // The tail the end-to-end metrics stop short of (they report the
        // 95th percentile, which repeats; this one is only reported).
        m.insert(
            "loadgen.admit_p99_us",
            latency(&open.samples, Verb::Admit, ns(budget), 0.99)?,
        );
        m.insert(
            "loadgen.query_p99_us",
            latency(&open.samples, Verb::Query, ns(budget), 0.99)?,
        );
        m.insert("loadgen.late_share", (share(late), n));
        m.insert(
            "loadgen.late_p99_us",
            (stats::quantile(&mut lateness, 0.99), n),
        );
        // Over the limit, failed or never answered all miss it.
        let failed_answers = usize::try_from(open.failed).unwrap_or(usize::MAX) - unanswered;
        m.insert(
            "loadgen.slo_miss_share",
            (
                (over + failed_answers + unanswered) as f64 / open.attempted.max(1) as f64,
                n,
            ),
        );
        m.insert(
            "loadgen.failed_share",
            (
                failed as f64 / attempted.max(1) as f64,
                usize::try_from(attempted).unwrap_or(usize::MAX),
            ),
        );
        if share(late) > 0.01 {
            notes.push(format!(
                "VALIDITY: loadgen.late_share {:.4} is above 0.01",
                share(late)
            ));
        }
        if m["loadgen.cpu_share"].0 > 0.5 {
            notes.push(format!(
                "VALIDITY: loadgen.cpu_share {:.3} is above 0.5",
                m["loadgen.cpu_share"].0
            ));
        }
    }

    // The server's own view, scraped once after the open loop.
    let stats_line = live.conns[0].request("STATS").map_err(io_err("STATS"))?;
    let doc = json::parse(&stats_line).map_err(|e| format!("STATS reply: {e}"))?;
    let stat = |path: &[&str]| -> Result<f64, String> {
        doc.path(path)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("STATS has no {}", path.join(".")))
    };
    let queued = doc
        .path(&["queue_us", "count"])
        .and_then(Value::as_u64)
        .and_then(|n| usize::try_from(n).ok())
        .unwrap_or(0);
    m.insert(
        "server.server.queue_p50_us",
        (stat(&["queue_us", "p50"])?, queued),
    );
    m.insert(
        "server.server.service_p50_us",
        (stat(&["service_us", "p50"])?, queued),
    );
    m.insert("server.server.shed", (stat(&["shed"])?, queued));

    let residents = snapshot(&mut live.conns[0])?;
    let probe = residents.first().map_or(0, |r| r.id);
    m.insert(
        "server.server.rtt_floor_us",
        rtt_floor(&live, secs(0.1, seconds), probe)?,
    );
    residents_check(w, &residents, &mut notes)?;
    if w.target == (Target::Server { durable: true }) {
        let ms = restart_drill(ctx, &mut live, &residents, &mut notes)?;
        m.insert("server.recovery.restart_ms", (ms, 1));
    }
    // The server is no longer needed; free its cores for the ladder.
    live.server.kill();

    let shape = shape(ctx, w);
    let replay = Replay::generate(
        Mesh::mesh2d(shape.width, shape.height),
        seed,
        shape,
        CONNECTIONS as u64,
        sized(ctx, TRACE_OPS, 500),
    );
    let scratch = live.dir.path().join("ladder");
    std::fs::create_dir_all(&scratch).map_err(io_err("ladder directory"))?;
    m.extend(ladder::run(&replay, &scratch, &mut spans)?);
    let floor = m["server.server.rtt_floor_us"];
    m.insert(
        "server.server.wire_self_us",
        (floor.0 - m["server.service.query_p50_us"].0, floor.1),
    );
    offline_layers(&population, &mut spans, &mut m);
    notes.extend(sim_layer(w, &population, seconds, &mut m)?);
    write_spans(ctx, w, &spans)?;

    let mut c = Collector::new(PER_LAYER);
    c.absorb(m);
    let correct = notes.iter().all(|n| n.starts_with("VALIDITY"));
    Ok(RunResult {
        workload: w,
        seed,
        seconds,
        traced: true,
        correct,
        attempted,
        failed,
        metrics: c.finish(true)?,
        notes,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// Runs `workload` once.
pub fn run(
    ctx: &Ctx,
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunResult, String> {
    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("{}: {e}", ctx.out.display()))?;
    match (w.target, traced) {
        (Target::Library, false) => library_untraced(ctx, w, seed, seconds),
        (Target::Library, true) => library_traced(ctx, w, seed, seconds),
        (Target::Server { .. }, false) => server_untraced(ctx, w, seed, seconds),
        (Target::Server { .. }, true) => server_traced(ctx, w, seed, seconds),
    }
}

/// The directory the built `rtwc` lands in, given the repository root.
pub fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) if !dir.is_empty() => {
            let dir = PathBuf::from(dir);
            if dir.is_absolute() {
                dir
            } else {
                root.join(dir)
            }
        }
        _ => root.join("target"),
    }
}
