//! Synthetic workloads for the diagram-kernel benchmarks: contended
//! lines that pin the horizon and the HP-set size, and the seeded
//! regions the `offline_eval` benchmark analyses.
//!
//! The diagram construction cost is driven by two knobs: the horizon
//! (slots, hence bit words / cells per row) and the HP-set size (rows).
//! The paper workload generator can't pin either directly — HP sets
//! fall out of random placement — so the kernel benchmarks use a
//! deterministic worst-ish case instead: `n_hp` higher-priority streams
//! packed onto one mesh row, every one overlapping the target's route,
//! so the target's HP set has exactly `n_hp` direct elements and every
//! row contends for the same columns.

use rtwc_core::{StreamId, StreamSet, StreamSpec};
use wormnet_topology::{Mesh, Topology, XyRouting};

/// `splitmix64` on the benchmark package's per-lane seeding, so region
/// `r` here is region `r` of an `offline_eval` run at the same seed.
struct Lane(u64);

impl Lane {
    fn new(seed: u64, lane: u64) -> Self {
        let hashed = Lane(seed).next();
        Lane(Lane(hashed ^ lane).next())
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

/// Region `r` of the `offline_eval` benchmark at `seed`: 80 short-haul
/// streams on a 5x5 mesh (1-3 hops in x, 0-2 in y), 16 priority
/// levels, `T` in 60..160, `C` in 1..4, `D = 4T`. Most HP sets are
/// non-empty and a good share carry indirect elements.
pub fn benchmark_region(seed: u64, r: u64) -> StreamSet {
    const SIDE: u32 = 5;
    let mut rng = Lane::new(seed, 1000 + r);
    let mesh = Mesh::mesh2d(SIDE, SIDE);
    let node = |x, y| mesh.node_at(&[x, y]).expect("coordinate is on the mesh");
    let specs: Vec<StreamSpec> = (0..80u32)
        .map(|i| {
            let (dx, dy) = (1 + rng.below(3) as u32, rng.below(3) as u32);
            let sx = rng.below(u64::from(SIDE - dx)) as u32;
            let sy = rng.below(u64::from(SIDE - dy)) as u32;
            let period = 60 + rng.below(100);
            let length = 1 + rng.below(4);
            StreamSpec::new(
                node(sx, sy),
                node(sx + dx, sy + dy),
                1 + i % 16,
                period,
                length,
                4 * period,
            )
        })
        .collect();
    StreamSet::resolve(&mesh, &XyRouting, &specs).expect("region resolves")
}

/// Builds a stream set whose lowest-priority target is directly blocked
/// by exactly `n_hp` streams, and returns it with the target's id.
///
/// Periods are spread over `64..160` and lengths over `1..=2`, so the
/// per-row instance count scales linearly with the analysis horizon and
/// aggregate utilization stays below saturation up to `n_hp = 64`.
pub fn contended_line_set(n_hp: usize) -> (StreamSet, StreamId) {
    let width = (n_hp as u32 + 3).max(6);
    let mesh = Mesh::mesh2d(width, 2);
    let node = |x: u32| mesh.node_at(&[x, 0]).expect("on-row node");
    let mut specs = Vec::with_capacity(n_hp + 1);
    for i in 0..n_hp {
        let x = (i as u32) % (width - 2);
        let period = 64 + ((i as u64) * 19) % 96;
        // Paper-like message sizes, scaled so aggregate utilization
        // stays near 0.7 (below saturation) at every HP-set size.
        let length = (period * 7 / (10 * n_hp as u64)).max(1);
        specs.push(StreamSpec::new(
            node(x),
            node(x + 2),
            2 + i as u32,
            period,
            length,
            period,
        ));
    }
    // The target crosses the whole row, so every HP stream shares a
    // channel with it.
    specs.push(StreamSpec::new(
        node(0),
        node(width - 1),
        1,
        100_000,
        4,
        100_000,
    ));
    let set = StreamSet::resolve(&mesh, &XyRouting, &specs).expect("line set is valid");
    (set, StreamId(n_hp as u32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtwc_core::generate_hp;

    #[test]
    fn hp_size_is_exact_and_direct() {
        for n in [4usize, 16, 64] {
            let (set, target) = contended_line_set(n);
            let hp = generate_hp(&set, target);
            assert_eq!(hp.len(), n, "n_hp={n}");
            assert!(!hp.has_indirect(), "n_hp={n}: all elements direct");
        }
    }

    #[test]
    fn benchmark_regions_are_seeded_and_indirect() {
        let a = benchmark_region(1998, 0);
        let b = benchmark_region(1998, 0);
        let c = benchmark_region(1998, 1);
        assert_eq!(a.len(), 80);
        let params = |s: &StreamSet| -> Vec<(u64, u64)> {
            s.iter().map(|m| (m.period(), m.max_length())).collect()
        };
        assert_eq!(params(&a), params(&b));
        assert_ne!(params(&a), params(&c));
        let indirect = a
            .ids()
            .filter(|&id| generate_hp(&a, id).has_indirect())
            .count();
        assert!(
            indirect >= 20,
            "{indirect} of 80 HP sets carry indirect elements"
        );
    }

    #[test]
    fn kernels_agree_on_the_bench_load() {
        use rtwc_core::{RemovedInstances, TimingDiagram};
        let (set, target) = contended_line_set(16);
        let hp = generate_hp(&set, target);
        let none = RemovedInstances::none();
        let fast = TimingDiagram::generate(&set, &hp, 1000, &none);
        let slow = TimingDiagram::generate_legacy(&set, &hp, 1000, &none);
        for r in 0..hp.len() {
            assert_eq!(fast.rows()[r].instances, slow.rows()[r].instances);
        }
        for needed in [1u64, 7, 30] {
            assert_eq!(fast.accumulate_free(needed), slow.accumulate_free(needed));
        }
    }
}
