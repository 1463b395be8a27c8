//! Equivalence properties of the interference index: the incrementally
//! maintained index inside the admission controller must stay equal to
//! a from-scratch [`InterferenceIndex::build`] after *any* admit/remove
//! sequence, and the indexed HP-set construction must stay
//! byte-identical to the legacy pairwise oracle — in particular once
//! removals have made the index's slot order differ from id order.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use rtwc_core::{
    determine_feasibility, generate_hp_oracle, generate_hp_sets, generate_hp_sets_oracle,
    AdmissionController, InterferenceIndex, StreamId, StreamSet, StreamSpec,
};
use wormnet_topology::{Mesh, NodeId, Routing, XyRouting};

/// Strategy: a random stream set of 2..=10 streams on an 8x8 mesh.
fn stream_sets() -> impl Strategy<Value = StreamSet> {
    let spec = (0u32..64, 0u32..64, 1u32..5, 10u64..60, 1u64..8)
        .prop_filter("distinct endpoints", |(s, d, ..)| s != d);
    prop::collection::vec(spec, 2..=10).prop_map(|raw| {
        let mesh = Mesh::mesh2d(8, 8);
        let specs: Vec<StreamSpec> = raw
            .into_iter()
            .map(|(s, d, p, t, c)| StreamSpec::new(NodeId(s), NodeId(d), p, t, c, 4 * t))
            .collect();
        StreamSet::resolve(&mesh, &XyRouting, &specs).unwrap()
    })
}

/// One step of a random controller workload: admit the given spec, or
/// (when `remove` is set and something is admitted) remove the stream
/// whose dense id is `victim` modulo the current size.
#[derive(Clone, Debug)]
struct Step {
    remove: bool,
    victim: u32,
    spec: (u32, u32, u32, u64, u64),
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step = (
        prop::bool::ANY,
        0u32..64,
        (0u32..64, 0u32..64, 1u32..5, 10u64..60, 1u64..8)
            .prop_filter("distinct endpoints", |(s, d, ..)| s != d),
    )
        .prop_map(|(remove, victim, spec)| Step {
            remove,
            victim,
            spec,
        });
    prop::collection::vec(step, 1..=40)
}

/// The controller's index, the HP sets read off it (same elements, same
/// order, same intermediates in the same order as the pairwise oracle)
/// and the cached bounds, checked against from-scratch rebuilds of
/// everything.
fn assert_controller_consistent(ctl: &AdmissionController) {
    match ctl.set() {
        None => assert!(ctl.index().is_empty()),
        Some(set) => {
            assert_eq!(
                ctl.index(),
                &InterferenceIndex::build(set),
                "incremental index diverged from a fresh build"
            );
            let fresh = determine_feasibility(set);
            for id in set.ids() {
                assert_eq!(
                    ctl.index().hp_set(set, id),
                    generate_hp_oracle(set, id),
                    "{id} HP set"
                );
                assert_eq!(ctl.bound(id), fresh.bound(id), "{id} cached bound");
            }
        }
    }
}

/// A long seeded history on a crowded mesh: enough admitted streams that
/// removals keep dropping high slots into low holes, and tight enough
/// deadlines that many admissions are refused and rolled back.
#[test]
fn long_history_with_rejections_and_holes_stays_exact() {
    let mesh = Mesh::mesh2d(8, 8);
    let mut rng = StdRng::seed_from_u64(1998);
    let mut ctl = AdmissionController::new();
    let (mut rejected, mut holes) = (0, 0);
    for _ in 0..400 {
        if rng.gen_bool(1.0 / 3.0) && !ctl.is_empty() {
            let victim = rng.gen_range(0..ctl.len());
            // Any victim but the last leaves a hole the last slot fills.
            holes += usize::from(ctl.len() >= 3 && victim + 1 < ctl.len());
            ctl.remove(StreamId(victim as u32));
        } else {
            let (s, d) = (rng.gen_range(0..64u32), rng.gen_range(0..64u32));
            let (p, t, c) = (
                rng.gen_range(1..5u32),
                rng.gen_range(10..60u64),
                rng.gen_range(1..8u64),
            );
            if s == d {
                continue;
            }
            let spec = StreamSpec::new(NodeId(s), NodeId(d), p, t, c, 2 * t);
            let path = XyRouting.route(&mesh, spec.source, spec.dest).unwrap();
            rejected += usize::from(ctl.admit(spec, path).is_err());
        }
        assert_controller_consistent(&ctl);
    }
    assert!(ctl.len() >= 20, "history stayed too small: {}", ctl.len());
    assert!(
        rejected >= 20 && holes >= 20,
        "{rejected} rejections, {holes} holes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After every step of a random admit/remove sequence — including
    /// rejected admissions, which must roll back completely — the
    /// controller's incrementally maintained index equals a fresh
    /// `InterferenceIndex::build` of the admitted set, every HP set read
    /// off it equals the oracle's, and every cached bound equals a fresh
    /// offline analysis.
    #[test]
    fn controller_index_equals_fresh_build(steps in steps()) {
        let mesh = Mesh::mesh2d(8, 8);
        let mut ctl = AdmissionController::new();
        for step in steps {
            if step.remove && !ctl.is_empty() {
                let victim = StreamId(step.victim % ctl.len() as u32);
                ctl.remove(victim);
            } else {
                let (s, d, p, t, c) = step.spec;
                let spec = StreamSpec::new(NodeId(s), NodeId(d), p, t, c, 4 * t);
                let path = XyRouting.route(&mesh, spec.source, spec.dest).unwrap();
                // Rejections are fine: the controller must be unchanged,
                // which the consistency check below still verifies.
                let _ = ctl.admit(spec, path);
            }
            assert_controller_consistent(&ctl);
        }
    }

    /// The indexed HP-set construction is byte-identical to the legacy
    /// pairwise oracle: same rows, same row order, same element order,
    /// same blocking modes, same intermediate sets.
    #[test]
    fn indexed_hp_sets_match_oracle_byte_for_byte(set in stream_sets()) {
        prop_assert_eq!(generate_hp_sets(&set), generate_hp_sets_oracle(&set));
        let index = InterferenceIndex::build(&set);
        for id in set.ids() {
            prop_assert_eq!(index.hp_set(&set, id), generate_hp_oracle(&set, id));
        }
    }
}
