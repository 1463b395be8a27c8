//! Golden digests of whole simulations: a seeded corpus over every
//! policy, buffer depth, topology and release-phase variant, each run
//! reduced to an FNV-1a digest of everything the simulator reports
//! (`records`, `flit_hops`, `link_flits`, `vc_wait_cycles`,
//! `stalled_at` and, when traced, every `Event` in order). An engine
//! change that is meant to be a pure speed-up must leave
//! `tests/golden/stats.txt` byte-identical.
//!
//! The same file pins `rtwc_workload::generate`: the periods and bounds
//! of six seeded workloads, so the generator can be made cheaper
//! without changing what it generates.
//!
//! To regenerate after an intentional behaviour change:
//! `BLESS=1 cargo test -p wormnet-sim --test golden_stats`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtwc_core::{StreamSet, StreamSpec};
use rtwc_workload::{generate, PaperWorkloadConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
use wormnet_sim::{Event, SimConfig, SimStats, Simulator};
use wormnet_topology::{
    DimensionOrderRouting, EcubeRouting, Hypercube, Mesh, NodeId, Routing, Topology, Torus,
    XyRouting,
};

/// 64-bit FNV-1a over a stream of integers (each fed as 8 LE bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn opt(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u64(1);
                self.u64(x);
            }
            None => self.u64(0),
        }
    }
}

fn digest(stats: &SimStats, trace: &[Event]) -> u64 {
    let mut h = Fnv::new();
    h.u64(stats.records.len() as u64);
    for r in &stats.records {
        h.u64(u64::from(r.stream.0));
        h.u64(r.released);
        h.opt(r.completed);
    }
    h.u64(stats.flit_hops);
    h.u64(stats.link_flits.len() as u64);
    for &f in &stats.link_flits {
        h.u64(f);
    }
    h.u64(stats.vc_wait_cycles.len() as u64);
    for &w in &stats.vc_wait_cycles {
        h.u64(w);
    }
    h.opt(stats.stalled_at);
    h.u64(trace.len() as u64);
    for e in trace {
        match *e {
            Event::Released { time, packet } => {
                h.u64(1);
                h.u64(time);
                h.u64(u64::from(packet.0));
            }
            Event::VcGranted {
                time,
                packet,
                link,
                vc,
            } => {
                h.u64(2);
                h.u64(time);
                h.u64(u64::from(packet.0));
                h.u64(u64::from(link.0));
                h.u64(vc as u64);
            }
            Event::FlitCrossed { time, packet, link } => {
                h.u64(3);
                h.u64(time);
                h.u64(u64::from(packet.0));
                h.u64(u64::from(link.0));
            }
            Event::Completed { time, packet } => {
                h.u64(4);
                h.u64(time);
                h.u64(u64::from(packet.0));
            }
        }
    }
    h.0
}

/// One network with its streams: what a simulation is built from.
struct Net {
    name: &'static str,
    num_links: usize,
    levels: usize,
    set: StreamSet,
    /// Per-hop dateline layers (all zero off the torus).
    layers: Vec<Vec<u8>>,
    num_layers: usize,
    cycles: u64,
}

/// Random streams on `topo`: distinct endpoints, priorities
/// `1..=levels`, loaded heavily enough that worms block each other.
fn random_set<T: Topology, R: Routing<T>>(
    topo: &T,
    routing: &R,
    seed: u64,
    streams: usize,
    levels: u32,
) -> StreamSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = topo.num_nodes() as u32;
    let specs: Vec<StreamSpec> = (0..streams)
        .map(|_| {
            let s = rng.gen_range(0..nodes);
            let d = loop {
                let d = rng.gen_range(0..nodes);
                if d != s {
                    break d;
                }
            };
            let p = rng.gen_range(1..=levels);
            let t = rng.gen_range(30u64..=90);
            let c = rng.gen_range(1u64..=16);
            StreamSpec::new(NodeId(s), NodeId(d), p, t, c, t)
        })
        .collect();
    StreamSet::resolve(topo, routing, &specs).unwrap()
}

fn flat_layers(set: &StreamSet) -> Vec<Vec<u8>> {
    set.iter()
        .map(|s| vec![0u8; s.path.hops() as usize])
        .collect()
}

fn nets() -> Vec<Net> {
    // The shape the benchmark simulates: Table 5, 60 streams x 15
    // levels on 10x10, bounds searched up to horizon 20000.
    let table5 = generate(PaperWorkloadConfig {
        num_streams: 60,
        priority_levels: 15,
        horizon_cap: 20_000,
        seed: 1998,
        ..PaperWorkloadConfig::default()
    });
    let mesh = Mesh::mesh2d(8, 8);
    let mesh_set = random_set(&mesh, &XyRouting, 11, 14, 4);
    let torus = Torus::new(&[4, 4]);
    let torus_set = random_set(&torus, &DimensionOrderRouting, 12, 10, 3);
    let torus_layers = torus_set
        .iter()
        .map(|s| torus.dateline_layers(&s.path))
        .collect();
    let cube = Hypercube::new(4);
    let cube_set = random_set(&cube, &EcubeRouting, 13, 12, 3);
    vec![
        Net {
            name: "table5",
            num_links: table5.mesh.num_links(),
            levels: 15,
            layers: flat_layers(&table5.set),
            set: table5.set,
            num_layers: 1,
            cycles: 3_000,
        },
        Net {
            name: "mesh8",
            num_links: mesh.num_links(),
            levels: 4,
            layers: flat_layers(&mesh_set),
            set: mesh_set,
            num_layers: 1,
            cycles: 2_000,
        },
        Net {
            name: "torus4",
            num_links: torus.num_links(),
            levels: 3,
            layers: torus_layers,
            set: torus_set,
            num_layers: 2,
            cycles: 2_000,
        },
        Net {
            name: "cube4",
            num_links: cube.num_links(),
            levels: 3,
            layers: flat_layers(&cube_set),
            set: cube_set,
            num_layers: 1,
            cycles: 2_000,
        },
    ]
}

const DEPTHS: [usize; 4] = [1, 2, 4, 16];

fn policy(k: usize, levels: usize) -> (&'static str, SimConfig) {
    match k {
        0 => ("paper", SimConfig::paper(levels)),
        1 => ("li", SimConfig::li(levels)),
        2 => ("classic", SimConfig::classic()),
        3 => ("pool2", SimConfig::shared_pool(2)),
        _ => ("poolp", SimConfig::shared_pool(levels)),
    }
}

/// Runs one case and renders its golden line.
fn run_case(
    net: &Net,
    k: usize,
    depth: usize,
    seeded_phases: bool,
    drain: bool,
    trace: bool,
) -> String {
    let (pname, cfg) = policy(k, net.levels);
    let mut cfg = cfg
        .with_cycles(net.cycles, 0)
        .with_buffer_depth(depth)
        .with_layers(net.num_layers);
    // Low enough that a deadlocked case (shallow buffers, shared VCs)
    // reports `stalled_at` inside the horizon.
    cfg.stall_limit = 400;
    if trace {
        cfg = cfg.with_trace();
    }
    let phases: Vec<u64> = if seeded_phases {
        let mut rng = StdRng::seed_from_u64(0x5eed ^ (k as u64) << 8 ^ depth as u64);
        net.set
            .iter()
            .map(|s| rng.gen_range(0..s.period()))
            .collect()
    } else {
        vec![0; net.set.len()]
    };
    let mut sim =
        Simulator::with_phases_and_layers(net.num_links, &net.set, cfg, &phases, &net.layers)
            .unwrap();
    sim.run();
    if drain {
        sim.drain(20_000);
    }
    let stats = sim.stats();
    format!(
        "{} {pname} depth={depth} phases={} drain={} trace={} -> {:016x} released={} completed={} flit_hops={} vc_wait={} stalled={:?} events={}\n",
        net.name,
        if seeded_phases { "seeded" } else { "zero" },
        u8::from(drain),
        u8::from(trace),
        digest(stats, sim.trace()),
        stats.total_released(),
        stats.total_completed(),
        stats.flit_hops,
        stats.vc_wait_cycles.iter().sum::<u64>(),
        stats.stalled_at,
        sim.trace().len(),
    )
}

/// The corpus: each of the 5 x 4 (policy, depth) pairs on two of the
/// four networks, so that every value of every axis meets every value
/// of every other; phases, drain and trace come from scrambled bits of
/// the case number (half seeded, a third drained, a quarter traced).
/// Then three pinned cases: the benchmark's own shape (Table 5, paper
/// policy, depth 16) plain and with everything on, and a ring that
/// deadlocks without dateline layers, for `stalled_at`.
fn simulations() -> String {
    let nets = nets();
    let mut out = String::new();
    let mut n = 0u64;
    for k in 0..5 {
        for (di, &depth) in DEPTHS.iter().enumerate() {
            for half in 0..2 {
                let net = &nets[(k + di + 2 * half) % 4];
                let bits = n.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56;
                let (seeded, trace, drain) = (
                    bits & 1 == 1,
                    (bits >> 1) & 3 == 0,
                    (bits >> 3).is_multiple_of(3),
                );
                out.push_str(&run_case(net, k, depth, seeded, drain, trace));
                n += 1;
            }
        }
    }
    out.push_str(&run_case(&nets[0], 0, 16, false, false, false));
    out.push_str(&run_case(&nets[0], 0, 16, true, true, true));
    out.push_str(&run_case(&ring(), 0, 2, false, false, true));
    out
}

/// Four one-shot worms chasing each other round a 4-node ring on a
/// single VC layer (the deadlock of `tests/torus_dateline.rs`).
fn ring() -> Net {
    let t = Torus::new(&[4]);
    let mk = |s: u32, d: u32| StreamSpec::new(NodeId(s), NodeId(d), 1, 1_000_000, 8, 1_000_000);
    let set = StreamSet::resolve(
        &t,
        &DimensionOrderRouting,
        &[mk(0, 2), mk(1, 3), mk(2, 0), mk(3, 1)],
    )
    .unwrap();
    Net {
        name: "ring4",
        num_links: t.num_links(),
        levels: 1,
        layers: flat_layers(&set),
        set,
        num_layers: 1,
        cycles: 2_000,
    }
}

/// Periods and bounds of six seeded paper workloads.
fn workloads() -> String {
    let mut out = String::new();
    for &(n, p, cap, seed) in &[
        (20usize, 1u32, 200_000u64, 7u64),
        (20, 5, 200_000, 8),
        (40, 3, 20_000, 9),
        (60, 1, 20_000, 10),
        (60, 10, 20_000, 11),
        (60, 15, 20_000, 1998),
    ] {
        let w = generate(PaperWorkloadConfig {
            num_streams: n,
            priority_levels: p,
            horizon_cap: cap,
            seed,
            ..PaperWorkloadConfig::default()
        });
        let _ = write!(out, "workload {n}x{p} cap={cap} seed={seed} T=");
        for s in w.set.iter() {
            let _ = write!(out, "{},", s.period());
        }
        out.push_str(" U=");
        for b in &w.bounds {
            match b.value() {
                Some(u) => {
                    let _ = write!(out, "{u},");
                }
                None => out.push_str("-,"),
            }
        }
        out.push('\n');
    }
    out
}

#[test]
fn simulations_and_workloads_match_golden() {
    let rendered = simulations() + &workloads();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/stats.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run with BLESS=1", path.display()));
    for (got, want) in rendered.lines().zip(want.lines()) {
        assert_eq!(got, want, "golden mismatch; run with BLESS=1 if intended");
    }
    assert_eq!(rendered, want, "golden line count differs");
}
