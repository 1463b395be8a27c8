//! Golden digests of the analysis pipeline. Each line reduces one
//! seeded corpus entry to an FNV-1a digest of everything the analysis
//! reports:
//!
//! * `determine_feasibility` bounds over benchmark-shaped regions (80
//!   short-haul streams on a 5x5 mesh, the `offline_eval` recipe) and
//!   over Table 5-shaped sets (10x10 mesh, one source per node);
//! * `Cal_U` with its artifacts under every [`RemovalStrategy`]: the
//!   bound, the removal set, and the final diagram's rows and instances;
//! * a seeded `AdmissionController` admit/remove history: every
//!   verdict and every cached bound after every step.
//!
//! A change to `Modify_Diagram` or the diagram kernel that is meant to
//! be a pure speed-up must leave `tests/golden/analysis.txt`
//! byte-identical. To regenerate after an intentional behaviour change:
//! `BLESS=1 cargo test -p rtwc-core --test golden_analysis`.

use rtwc_core::{
    cal_u_detailed, delay_bounds, determine_feasibility, generate_hp, modify_diagram_with,
    AdmissionController, DelayBound, RemovalStrategy, RemovedInstances, StreamSet, StreamSpec,
    TimingDiagram,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use wormnet_topology::{Mesh, NodeId, Routing, Topology, XyRouting};

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

    fn bound(&mut self, b: DelayBound) {
        match b.value() {
            Some(u) => {
                self.u64(1);
                self.u64(u);
            }
            None => self.u64(0),
        }
    }

    fn removed(&mut self, removed: &RemovedInstances) {
        let entries = removed.entries();
        self.u64(entries.len() as u64);
        for (s, k) in entries {
            self.u64(u64::from(s.0));
            self.u64(k as u64);
        }
    }

    fn diagram(&mut self, d: &TimingDiagram) {
        self.u64(d.horizon());
        self.u64(d.rows().len() as u64);
        for row in d.rows() {
            self.u64(u64::from(row.stream.0));
            self.u64(row.instances.len() as u64);
            for inst in &row.instances {
                self.u64(inst.index as u64);
                self.u64(inst.window_start);
                self.u64(inst.window_end);
                self.u64(u64::from(inst.complete));
                self.u64(u64::from(inst.removed));
                self.u64(inst.slots.len() as u64);
                for &t in &inst.slots {
                    self.u64(t);
                }
            }
        }
    }
}

/// `splitmix64`, seeded per lane so that corpus entries are independent.
struct Rng(u64);

impl Rng {
    fn lane(seed: u64, lane: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ lane.wrapping_mul(0xbf58_476d_1ce4_e5b9))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// The `offline_eval` region recipe: `n` streams on a `side` x `side`
/// mesh, 1-3 hops in x and 0-2 in y, 16 priority levels, `T` in
/// 60..160, `C` in 1..4, `D = 4T`.
fn region(seed: u64, lane: u64, side: u32, n: usize) -> StreamSet {
    let mut rng = Rng::lane(seed, lane);
    let mesh = Mesh::mesh2d(side, side);
    let specs: Vec<StreamSpec> = (0..n)
        .map(|i| {
            let (dx, dy) = (1 + rng.below(3) as u32, rng.below(3) as u32);
            let sx = rng.below(u64::from(side - dx)) as u32;
            let sy = rng.below(u64::from(side - dy)) as u32;
            let node = |x, y| mesh.node_at(&[x, y]).unwrap();
            let period = 60 + rng.below(100);
            StreamSpec::new(
                node(sx, sy),
                node(sx + dx, sy + dy),
                1 + (i as u32 % 16),
                period,
                1 + rng.below(4),
                4 * period,
            )
        })
        .collect();
    StreamSet::resolve(&mesh, &XyRouting, &specs).unwrap()
}

/// A Table 5-shaped set before period inflation: `n` streams on a
/// 10x10 mesh, one source per node, uniform destinations, `C` in
/// 1..=40, `T` in 40..=90, `D = T`.
fn table5(seed: u64, n: usize, levels: u32) -> StreamSet {
    let mut rng = Rng::lane(seed, 5);
    let mesh = Mesh::mesh2d(10, 10);
    let mut nodes: Vec<u32> = (0..100).collect();
    for i in (1..nodes.len()).rev() {
        nodes.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let specs: Vec<StreamSpec> = nodes[..n]
        .iter()
        .map(|&src| {
            let dst = loop {
                let d = rng.below(100) as u32;
                if d != src {
                    break d;
                }
            };
            let period = 40 + rng.below(51);
            StreamSpec::new(
                NodeId(src),
                NodeId(dst),
                1 + rng.below(u64::from(levels)) as u32,
                period,
                1 + rng.below(40),
                period,
            )
        })
        .collect();
    StreamSet::resolve(&mesh, &XyRouting, &specs).unwrap()
}

fn feasibility_line(name: &str, set: &StreamSet) -> String {
    let report = determine_feasibility(set);
    let mut h = Fnv::new();
    for id in set.ids() {
        h.bound(report.bound(id));
    }
    // The same set again at a horizon of 40 periods, where most bounds
    // are found.
    let far = delay_bounds(set, |s, id| 40 * s.get(id).period());
    for &b in &far {
        h.bound(b);
    }
    let bounded = far.iter().filter(|b| b.is_bounded()).count();
    format!(
        "feasibility {name} -> {:016x} streams={} infeasible={} bounded_at_40T={bounded}\n",
        h.0,
        set.len(),
        report.infeasible.len()
    )
}

/// `Cal_U` with its artifacts for every stream of `set`, under each
/// removal strategy.
fn calu_lines(name: &str, set: &StreamSet) -> String {
    let mut out = String::new();
    let mut h = Fnv::new();
    let mut removed = 0usize;
    for id in set.ids() {
        let a = cal_u_detailed(set, id, set.get(id).deadline());
        h.bound(a.bound);
        h.removed(&a.removed);
        h.diagram(&a.initial);
        h.diagram(&a.finalized);
        removed += a.removed.len();
    }
    let _ = writeln!(
        out,
        "calu {name} detailed -> {:016x} removed={removed}",
        h.0
    );
    for strategy in [
        RemovalStrategy::InstanceSpan,
        RemovalStrategy::InstanceWindow,
        RemovalStrategy::Disabled,
    ] {
        let mut h = Fnv::new();
        let mut removed = 0usize;
        for id in set.ids() {
            let hp = generate_hp(set, id);
            let (d, r) = modify_diagram_with(set, &hp, set.get(id).deadline(), strategy);
            h.bound(match d.accumulate_free(set.get(id).latency) {
                Some(u) => DelayBound::Bounded(u),
                None => DelayBound::Exceeded,
            });
            h.removed(&r);
            h.diagram(&d);
            removed += r.len();
        }
        let _ = writeln!(
            out,
            "calu {name} {strategy:?} -> {:016x} removed={removed}",
            h.0
        );
    }
    out
}

/// A seeded admit/remove history on a 6x6 mesh: the verdict of every
/// step and every cached bound after it.
fn admission_line(seed: u64) -> String {
    let mesh = Mesh::mesh2d(6, 6);
    let mut rng = Rng::lane(seed, 7);
    let mut ctl = AdmissionController::new();
    let mut h = Fnv::new();
    let (mut admitted, mut rejected, mut removed) = (0usize, 0usize, 0usize);
    for _ in 0..300 {
        if rng.below(4) == 0 && !ctl.is_empty() {
            let victim = rng.below(ctl.len() as u64) as u32;
            ctl.remove(rtwc_core::StreamId(victim));
            h.u64(2);
            h.u64(u64::from(victim));
            removed += 1;
        } else {
            let (s, d) = (rng.below(36) as u32, rng.below(36) as u32);
            if s == d {
                continue;
            }
            let period = 30 + rng.below(90);
            let spec = StreamSpec::new(
                NodeId(s),
                NodeId(d),
                1 + rng.below(6) as u32,
                period,
                1 + rng.below(6),
                2 * period,
            );
            let path = XyRouting.route(&mesh, spec.source, spec.dest).unwrap();
            match ctl.admit(spec, path) {
                Ok(id) => {
                    h.u64(1);
                    h.u64(u64::from(id.0));
                    admitted += 1;
                }
                Err(_) => {
                    h.u64(0);
                    rejected += 1;
                }
            }
        }
        h.u64(ctl.len() as u64);
        for &b in ctl.bounds() {
            h.bound(b);
        }
    }
    format!(
        "admission seed={seed} -> {:016x} admitted={admitted} rejected={rejected} removed={removed} \
         resident={}\n",
        h.0,
        ctl.len()
    )
}

fn rendered() -> String {
    let mut out = String::new();
    for lane in 0..4 {
        let set = region(1998, 1000 + lane, 5, 80);
        let name = format!("region80x5x5 lane={lane}");
        out.push_str(&feasibility_line(&name, &set));
        out.push_str(&calu_lines(&name, &set));
    }
    for &(n, levels, seed) in &[(20usize, 5u32, 7u64), (60, 15, 1998), (60, 1, 11)] {
        let set = table5(seed, n, levels);
        let name = format!("table5 {n}x{levels} seed={seed}");
        out.push_str(&feasibility_line(&name, &set));
        out.push_str(&calu_lines(&name, &set));
    }
    for seed in [1998u64, 2026] {
        out.push_str(&admission_line(seed));
    }
    out
}

#[test]
fn analysis_matches_golden() {
    let rendered = rendered();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/analysis.txt");
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
