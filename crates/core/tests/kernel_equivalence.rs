//! Randomized equivalence of the two `Generate_Init_Diagram` kernels
//! and of the `Modify_Diagram` loop in `AnalysisScratch` against its
//! oracles.
//!
//! The bitset kernel ([`TimingDiagram::generate`]) is a word-parallel
//! rewrite of the paper's cell-matrix procedure
//! ([`TimingDiagram::generate_legacy`]); nothing short of exact
//! agreement is acceptable — the bound is a hard real-time guarantee.
//! The loop is checked against the per-element loop in
//! `tests/support`, which regenerates a full diagram after every
//! element and orders elements through a blocking dependency graph.
//! These suites run over randomized stream sets, including
//! column-overlapping routes and crowded regions that produce deep
//! indirect chains, at horizons up to 5000 slots, and compare:
//!
//! * every instance (windows, slot lists, completeness, removal flags),
//! * every cell of the lazily-materialized matrix,
//! * the `RemovedInstances` sets chosen by `Modify_Diagram` under both
//!   probing rules,
//! * the processing order read off the `IN` fields against the BDG's,
//! * the accumulated delay bounds, and
//! * [`AnalysisScratch::delay_bound`] (one arena reused across all
//!   cases) against [`cal_u`] and [`cal_u_detailed`].
//!
//! Together with `paper_example.rs` (which pins the published numbers
//! `U = (7, 8, 26, 20, 33)` and Fig. 4/6 `U = 26/22`) and
//! `golden_analysis.rs` this is the safety net for any future kernel
//! work.

mod support;

use proptest::prelude::*;
use rtwc_core::{
    cal_u, cal_u_detailed, generate_hp, modify_diagram_with, AnalysisScratch,
    BlockingDependencyGraph, DelayBound, DiagramKernel, RemovalStrategy, RemovedInstances,
    StreamSet, StreamSpec, TimingDiagram,
};
use support::{indirect_processing_order, modify_diagram_oracle};
use wormnet_topology::{Mesh, NodeId, Topology, XyRouting};

const STRATEGIES: [RemovalStrategy; 3] = [
    RemovalStrategy::InstanceSpan,
    RemovalStrategy::InstanceWindow,
    RemovalStrategy::Disabled,
];

/// Strategy: 2..=7 streams on an 8x8 mesh. Periods reach 600 so
/// moderate horizons still hold many instances, and the coordinate
/// ranges bias toward row/column overlap (shared links -> direct and
/// indirect blocking chains).
fn stream_sets() -> impl Strategy<Value = StreamSet> {
    let spec = (0u32..32, 0u32..32, 1u32..6, 10u64..600, 1u64..20)
        .prop_filter("distinct endpoints", |(s, d, ..)| s != d);
    prop::collection::vec(spec, 2..=7).prop_map(|raw| {
        let mesh = Mesh::mesh2d(8, 8);
        let specs: Vec<StreamSpec> = raw
            .into_iter()
            .map(|(s, d, p, t, c)| StreamSpec::new(NodeId(s), NodeId(d), p, t, c, 4 * t))
            .collect();
        StreamSet::resolve(&mesh, &XyRouting, &specs).unwrap()
    })
}

/// Strategy: 6..=20 short streams crowded onto a 5x5 mesh with few
/// priority levels, the `offline_eval` region shape scaled down: most
/// HP sets carry indirect elements, many of them in chains.
fn crowded_sets() -> impl Strategy<Value = StreamSet> {
    let spec = (
        0u32..4,
        0u32..5,
        1u32..4,
        0u32..3,
        1u32..5,
        20u64..160,
        1u64..5,
    );
    prop::collection::vec(spec, 6..=20).prop_map(|raw| {
        let mesh = Mesh::mesh2d(5, 5);
        let specs: Vec<StreamSpec> = raw
            .into_iter()
            .map(|(x, y, dx, dy, p, t, c)| {
                let (x1, y1) = ((x + dx).min(4), (y + dy).min(4));
                let node = |x, y| mesh.node_at(&[x, y]).unwrap();
                StreamSpec::new(node(x, y), node(x1, y1), p, t, c, 4 * t)
            })
            .collect();
        StreamSet::resolve(&mesh, &XyRouting, &specs).unwrap()
    })
}

fn any_sets() -> impl Strategy<Value = StreamSet> {
    prop_oneof![stream_sets(), crowded_sets()]
}

/// Horizons spanning sub-word, word-boundary, and multi-word cases.
fn horizons() -> impl Strategy<Value = u64> {
    prop_oneof![
        1u64..=70,
        Just(63u64),
        Just(64u64),
        Just(65u64),
        Just(128u64),
        100u64..=700,
        4000u64..=5000,
    ]
}

/// Asserts both diagrams agree on everything observable.
fn assert_diagrams_equal(
    fast: &TimingDiagram,
    slow: &TimingDiagram,
    ctx: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.horizon(), slow.horizon(), "{}", ctx);
    prop_assert_eq!(fast.rows().len(), slow.rows().len(), "{}", ctx);
    for (r, (fr, sr)) in fast.rows().iter().zip(slow.rows()).enumerate() {
        prop_assert_eq!(fr.stream, sr.stream, "{} row {}", ctx, r);
        prop_assert_eq!(&fr.instances, &sr.instances, "{} row {}", ctx, r);
    }
    for t in 1..=fast.horizon() {
        prop_assert_eq!(
            fast.free_for_target(t),
            slow.free_for_target(t),
            "{} col {}",
            ctx,
            t
        );
        for r in 0..fast.rows().len() {
            prop_assert_eq!(
                fast.slot(r, t),
                slow.slot(r, t),
                "{} cell ({}, {})",
                ctx,
                r,
                t
            );
            prop_assert_eq!(fast.transmits_in(r, t), slow.transmits_in(r, t));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Initial diagrams: identical instances, cells, and accumulation.
    #[test]
    fn initial_diagrams_identical(set in stream_sets(), horizon in horizons()) {
        let none = RemovedInstances::none();
        for id in set.ids() {
            let hp = generate_hp(&set, id);
            let fast = TimingDiagram::generate(&set, &hp, horizon, &none);
            let slow = TimingDiagram::generate_legacy(&set, &hp, horizon, &none);
            assert_diagrams_equal(&fast, &slow, &format!("target {id:?}"))?;
            for needed in [0u64, 1, 5, 17, 64, 65, horizon, horizon + 3] {
                prop_assert_eq!(
                    fast.accumulate_free(needed),
                    slow.accumulate_free(needed),
                    "target {:?} needed {}", id, needed
                );
            }
            prop_assert_eq!(fast.saturated(), slow.saturated());
        }
    }

    /// The loop's removal set yields identical final diagrams through
    /// either kernel, under every strategy.
    #[test]
    fn modify_diagram_identical(set in stream_sets(), horizon in horizons()) {
        for id in set.ids() {
            let hp = generate_hp(&set, id);
            for strategy in STRATEGIES {
                let (fast, removed) = modify_diagram_with(&set, &hp, horizon, strategy);
                let slow = TimingDiagram::generate_with(
                    &set, &hp, horizon, &removed, DiagramKernel::Legacy,
                );
                assert_diagrams_equal(
                    &fast,
                    &slow,
                    &format!("target {id:?} {strategy:?}"),
                )?;
            }
        }
    }

    /// The arena's loop (one arena reused across every stream and
    /// strategy) removes exactly the instances the per-element oracle
    /// removes, and reaches the same bound and final diagram.
    #[test]
    fn loop_matches_oracle(set in any_sets(), horizon in horizons()) {
        let mut scratch = AnalysisScratch::new();
        for id in set.ids() {
            let hp = generate_hp(&set, id);
            let needed = set.get(id).latency;
            for strategy in STRATEGIES {
                let ctx = format!("target {id:?} {strategy:?}");
                let (oracle, oracle_removed) =
                    modify_diagram_oracle(&set, &hp, horizon, strategy, DiagramKernel::Bitset);
                let bound = scratch.delay_bound_with(&set, &hp, horizon, strategy);
                let want = match oracle.accumulate_free(needed) {
                    Some(u) => DelayBound::Bounded(u),
                    None => DelayBound::Exceeded,
                };
                prop_assert_eq!(bound, want, "{}", &ctx);
                prop_assert_eq!(scratch.removed().entries(), oracle_removed.entries(), "{}", &ctx);
                let (diagram, _) = modify_diagram_with(&set, &hp, horizon, strategy);
                assert_diagrams_equal(&diagram, &oracle, &ctx)?;
            }
        }
    }

    /// For every HP set `hp_set` builds, the order read off the `IN`
    /// fields is the BDG's.
    #[test]
    fn in_field_order_matches_bdg_order(set in any_sets()) {
        for id in set.ids() {
            let hp = generate_hp(&set, id);
            let bdg = BlockingDependencyGraph::build(&set, &hp);
            prop_assert_eq!(
                hp.processing_order(),
                indirect_processing_order(&bdg, &hp),
                "target {:?}", id
            );
        }
    }

    /// The bound-only arena (reused across every stream, horizon, and
    /// case) agrees exactly with the full diagram pipeline.
    #[test]
    fn scratch_bound_matches_full_pipeline(set in stream_sets(), horizon in horizons()) {
        let mut scratch = AnalysisScratch::new();
        for id in set.ids() {
            let hp = generate_hp(&set, id);
            let arena = scratch.delay_bound(&set, &hp, horizon);
            let detailed = cal_u_detailed(&set, id, horizon);
            prop_assert_eq!(arena, detailed.bound, "target {:?}", id);
            prop_assert_eq!(arena, cal_u(&set, id, horizon), "target {:?}", id);
        }
    }
}

/// The final diagram of the loop's removal set, and of a hand-picked
/// removal set, agrees across kernels.
#[test]
fn kernels_agree_under_explicit_removals() {
    let mesh = Mesh::mesh2d(8, 8);
    let mk = |s: u32, d: u32, p: u32, t: u64, c: u64| {
        StreamSpec::new(NodeId(s), NodeId(d), p, t, c, 4 * t)
    };
    let set = StreamSet::resolve(
        &mesh,
        &XyRouting,
        &[
            mk(0, 6, 4, 17, 5),
            mk(1, 7, 3, 29, 7),
            mk(2, 5, 2, 41, 9),
            mk(3, 4, 1, 300, 6),
        ],
    )
    .unwrap();
    let hp = generate_hp(&set, rtwc_core::StreamId(3));
    let mut scratch = AnalysisScratch::new();
    // Remove a scattering of instances and compare at several horizons.
    for horizon in [50u64, 64, 65, 300, 1000] {
        let mut picked = RemovedInstances::none();
        picked.insert(rtwc_core::StreamId(0), 1);
        picked.insert(rtwc_core::StreamId(1), 0);
        picked.insert(rtwc_core::StreamId(2), 2);
        scratch.delay_bound(&set, &hp, horizon);
        for removed in [picked, scratch.removed()] {
            let fast =
                TimingDiagram::generate_with(&set, &hp, horizon, &removed, DiagramKernel::Bitset);
            let slow =
                TimingDiagram::generate_with(&set, &hp, horizon, &removed, DiagramKernel::Legacy);
            assert_eq!(fast.rows().len(), slow.rows().len());
            for r in 0..fast.rows().len() {
                assert_eq!(fast.rows()[r].instances, slow.rows()[r].instances);
                for t in 1..=horizon {
                    assert_eq!(fast.slot(r, t), slow.slot(r, t), "h={horizon} ({r}, {t})");
                }
            }
            for needed in 0..=20 {
                assert_eq!(fast.accumulate_free(needed), slow.accumulate_free(needed));
            }
        }
    }
}
