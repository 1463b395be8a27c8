//! The paper's §5 evaluation workload: random periodic streams on a
//! 10x10 mesh, with the period-inflation rule.
//!
//! From the paper: "PNs are interconnected in a 10x10 two dimensional
//! mesh and X-Y routing is used. Each PN is a source of at most one
//! message stream and the corresponding destination node is selected
//! using a spatial uniform distribution. [...] The maximum message size
//! C_i is uniformly distributed between 1 and 40. All message streams
//! are periodic. Minimum message inter-generation time T_i is uniformly
//! distributed between 40 and 90. If the calculated U_i is larger
//! than T_i, we increased T_i to accommodate all generated traffics.
//! [...] Each message stream has a priority value P_i with probability
//! 1 / (the number of priority levels)." (Numeric ranges restore the
//! trailing zeros the scanned text drops; this reading reproduces the
//! published ratio shapes — see DESIGN.md §2 and EXPERIMENTS.md.)

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rtwc_core::{
    AnalysisScratch, DelayBound, HpSet, InterferenceIndex, StreamId, StreamSet, StreamSpec,
};
use wormnet_topology::{Mesh, NodeId, Topology, XyRouting};

/// Parameters of the paper workload generator.
#[derive(Clone, Debug)]
pub struct PaperWorkloadConfig {
    /// Mesh width (paper: 10).
    pub width: u32,
    /// Mesh height (paper: 10).
    pub height: u32,
    /// Number of message streams (paper: 20 or 60; at most one per
    /// node).
    pub num_streams: usize,
    /// Number of priority levels; priorities are drawn uniformly from
    /// `1..=priority_levels`.
    pub priority_levels: u32,
    /// Inclusive range of maximum message sizes `C_i` in flits.
    pub c_range: (u64, u64),
    /// Inclusive range of periods `T_i` in flit times.
    pub t_range: (u64, u64),
    /// Largest horizon tried when searching for `U_i` during period
    /// inflation; a stream whose bound is not found below this keeps
    /// `T_i = horizon_cap` and is flagged unbounded.
    pub horizon_cap: u64,
    /// Apply the paper's period-inflation rule `T_i := max(T_i, U_i)`.
    /// Disable for pure simulation studies that want the raw (possibly
    /// overloaded) traffic mix; bounds are still reported.
    pub inflate_periods: bool,
    /// RNG seed; the whole workload is a pure function of the config.
    pub seed: u64,
}

impl Default for PaperWorkloadConfig {
    fn default() -> Self {
        PaperWorkloadConfig {
            width: 10,
            height: 10,
            num_streams: 20,
            priority_levels: 1,
            c_range: (1, 40),
            t_range: (40, 90),
            horizon_cap: 200_000,
            inflate_periods: true,
            seed: 0x1c99_1998,
        }
    }
}

/// A generated evaluation workload: the resolved stream set (after
/// period inflation) and the delay upper bound of every stream.
#[derive(Clone, Debug)]
pub struct GeneratedWorkload {
    /// The mesh the streams live on.
    pub mesh: Mesh,
    /// The stream set, periods already inflated to `max(T_i, U_i)`.
    pub set: StreamSet,
    /// `U_i` per stream (over the capped horizon).
    pub bounds: Vec<DelayBound>,
    /// The generating configuration.
    pub config: PaperWorkloadConfig,
}

impl GeneratedWorkload {
    /// Streams whose bound was not found within the horizon cap.
    pub fn unbounded_streams(&self) -> Vec<StreamId> {
        self.set
            .ids()
            .filter(|&id| !self.bounds[id.index()].is_bounded())
            .collect()
    }
}

/// Draws the raw stream specs (before period inflation).
fn draw_specs(cfg: &PaperWorkloadConfig, mesh: &Mesh, rng: &mut StdRng) -> Vec<StreamSpec> {
    let num_nodes = mesh.num_nodes();
    assert!(
        cfg.num_streams <= num_nodes,
        "at most one stream per node: {} streams on {} nodes",
        cfg.num_streams,
        num_nodes
    );
    assert!(cfg.priority_levels >= 1, "need at least one priority level");
    assert!(cfg.c_range.0 >= 1 && cfg.c_range.0 <= cfg.c_range.1);
    assert!(cfg.t_range.0 >= 1 && cfg.t_range.0 <= cfg.t_range.1);

    // Each PN sources at most one stream: sample sources without
    // replacement.
    let mut nodes: Vec<NodeId> = mesh.nodes();
    nodes.shuffle(rng);
    let sources = &nodes[..cfg.num_streams];

    sources
        .iter()
        .map(|&src| {
            // Spatially uniform destination, distinct from the source.
            let dest = loop {
                let d = NodeId(rng.gen_range(0..num_nodes as u32));
                if d != src {
                    break d;
                }
            };
            let priority = rng.gen_range(1..=cfg.priority_levels);
            let c = rng.gen_range(cfg.c_range.0..=cfg.c_range.1);
            let t = rng.gen_range(cfg.t_range.0..=cfg.t_range.1);
            StreamSpec::new(src, dest, priority, t, c, t)
        })
        .collect()
}

/// Finds `U` for the target of `hp`, doubling the horizon from the
/// stream's period until the bound is found or the cap is passed. The
/// caller's scratch arena is reused across every probe.
fn bound_with_escalating_horizon(
    scratch: &mut AnalysisScratch,
    set: &StreamSet,
    hp: &HpSet,
    cap: u64,
) -> DelayBound {
    let mut horizon = set.get(hp.target).period().max(1);
    loop {
        match scratch.delay_bound(set, hp, horizon) {
            DelayBound::Bounded(u) => return DelayBound::Bounded(u),
            DelayBound::Exceeded if horizon >= cap => return DelayBound::Exceeded,
            DelayBound::Exceeded => horizon = (horizon * 2).min(cap),
        }
    }
}

/// Generates the paper's workload: draw streams, then apply the
/// period-inflation rule in decreasing priority order (each `U_i`
/// depends only on streams of priority >= `P_i`, whose periods are
/// final by the time `M_i` is processed; inflating a later period never
/// increases an earlier bound).
///
/// # Examples
///
/// ```
/// use rtwc_workload::{generate, PaperWorkloadConfig};
///
/// let w = generate(PaperWorkloadConfig {
///     num_streams: 20,
///     priority_levels: 5,
///     seed: 42,
///     ..PaperWorkloadConfig::default()
/// });
/// assert_eq!(w.set.len(), 20);
/// // Every bounded stream satisfies the inflation guarantee U <= T.
/// for id in w.set.ids() {
///     if let Some(u) = w.bounds[id.index()].value() {
///         assert!(u <= w.set.get(id).period());
///     }
/// }
/// ```
pub fn generate(cfg: PaperWorkloadConfig) -> GeneratedWorkload {
    let mesh = Mesh::mesh2d(cfg.width, cfg.height);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let specs = draw_specs(&cfg, &mesh, &mut rng);
    let mut set = StreamSet::resolve(&mesh, &XyRouting, &specs).expect("generated specs are valid");

    let mut scratch = AnalysisScratch::new();
    // Who blocks whom depends on routes and priorities only. Inflation
    // changes periods and deadlines, so one interference index and one
    // HP set per stream serve every bound computed below.
    let index = InterferenceIndex::build(&set);
    let hp_sets = index.hp_sets(&set);
    let mut bound_of = |set: &StreamSet, id: StreamId| {
        let hp = &hp_sets[id.index()];
        bound_with_escalating_horizon(&mut scratch, set, hp, cfg.horizon_cap)
    };

    // Period inflation, highest priority first.
    if cfg.inflate_periods {
        for id in set.by_decreasing_priority() {
            let bound = bound_of(&set, id);
            let t = set.get(id).period();
            let new_t = match bound {
                DelayBound::Bounded(u) if u > t => u,
                DelayBound::Bounded(_) => t,
                DelayBound::Exceeded => cfg.horizon_cap,
            };
            if new_t != t {
                set = set.with_period(id, new_t, new_t);
            }
        }
    }

    // Final bounds against the inflated set.
    let bounds: Vec<DelayBound> = set.ids().map(|id| bound_of(&set, id)).collect();

    GeneratedWorkload {
        mesh,
        set,
        bounds,
        config: cfg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64, streams: usize, plevels: u32) -> PaperWorkloadConfig {
        PaperWorkloadConfig {
            num_streams: streams,
            priority_levels: plevels,
            seed,
            ..PaperWorkloadConfig::default()
        }
    }

    #[test]
    fn generates_requested_stream_count() {
        let w = generate(small(1, 20, 4));
        assert_eq!(w.set.len(), 20);
        assert_eq!(w.bounds.len(), 20);
    }

    #[test]
    fn sources_are_distinct() {
        let w = generate(small(2, 60, 5));
        let mut sources: Vec<_> = w.set.iter().map(|s| s.spec.source).collect();
        sources.sort();
        sources.dedup();
        assert_eq!(sources.len(), 60, "each PN sources at most one stream");
    }

    #[test]
    fn parameters_within_ranges() {
        let w = generate(small(3, 30, 3));
        for s in w.set.iter() {
            assert!(s.max_length() >= 1 && s.max_length() <= 40);
            assert!((1..=3).contains(&s.priority()));
            // Period may exceed 90 after inflation but never shrinks
            // below the drawn minimum.
            assert!(s.period() >= 40);
            assert_eq!(s.deadline(), s.period());
        }
    }

    #[test]
    fn inflation_guarantees_u_le_t() {
        let w = generate(small(4, 20, 4));
        for id in w.set.ids() {
            if let DelayBound::Bounded(u) = w.bounds[id.index()] {
                assert!(
                    u <= w.set.get(id).period(),
                    "{id:?}: U={u} > T={}",
                    w.set.get(id).period()
                );
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = generate(small(7, 20, 4));
        let b = generate(small(7, 20, 4));
        for (x, y) in a.set.iter().zip(b.set.iter()) {
            assert_eq!(x.spec, y.spec);
        }
        assert_eq!(a.bounds, b.bounds);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(small(8, 20, 4));
        let b = generate(small(9, 20, 4));
        let same = a
            .set
            .iter()
            .zip(b.set.iter())
            .all(|(x, y)| x.spec == y.spec);
        assert!(!same);
    }

    #[test]
    #[should_panic(expected = "at most one stream per node")]
    fn too_many_streams_panics() {
        generate(small(1, 101, 1));
    }
}
