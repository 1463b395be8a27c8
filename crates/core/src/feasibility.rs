//! `Determine-Feasibility`: the paper's top-level message-stream
//! feasibility test (§4.3).

use crate::calu::{cal_u_with_hp, CalUAnalysis, DelayBound};
use crate::diagram::AnalysisScratch;
use crate::interference::InterferenceIndex;
use crate::stream::{StreamId, StreamSet};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Outcome of message-stream feasibility testing: one delay bound per
/// stream and the overall verdict (`success` iff `U_i <= D_i` for all
/// streams).
#[derive(Clone, Debug)]
pub struct FeasibilityReport {
    /// Delay upper bound per stream, indexed by stream id. Each bound is
    /// computed over the stream's own deadline horizon, so
    /// `DelayBound::Exceeded` means "not within `D_i`".
    pub bounds: Vec<DelayBound>,
    /// Streams whose bound misses (or exceeds) their deadline.
    pub infeasible: Vec<StreamId>,
}

impl FeasibilityReport {
    /// The paper's `success`/`fail` verdict.
    pub fn is_feasible(&self) -> bool {
        self.infeasible.is_empty()
    }

    /// The bound of one stream.
    pub fn bound(&self, id: StreamId) -> DelayBound {
        self.bounds[id.index()]
    }
}

/// Runs `Determine-Feasibility` over the whole stream set: builds HP
/// sets from the highest priority level downwards, computes every
/// `U_i` with horizon `D_i`, and reports which streams cannot be
/// guaranteed.
pub fn determine_feasibility(set: &StreamSet) -> FeasibilityReport {
    determine_feasibility_indexed(set, &InterferenceIndex::build(set))
}

/// [`determine_feasibility`] over a caller-supplied interference index
/// (the admission controller passes its incrementally maintained one;
/// the parallel driver builds one and shares it read-only).
pub fn determine_feasibility_indexed(
    set: &StreamSet,
    index: &InterferenceIndex,
) -> FeasibilityReport {
    let mut bounds = vec![DelayBound::Exceeded; set.len()];
    let mut infeasible = Vec::new();
    // One bound-only arena reused across the whole loop: the analysis
    // allocates once and the per-stream cost is pure bit work.
    let mut scratch = AnalysisScratch::new();
    // GList order: decreasing priority, ties by id. The order does not
    // change any U (each analysis reads only stream parameters), but it
    // mirrors the paper's loop and keeps reports deterministic.
    for id in set.by_decreasing_priority() {
        let stream = set.get(id);
        let hp = index.hp_set(set, id);
        let bound = scratch.delay_bound(set, &hp, stream.deadline());
        bounds[id.index()] = bound;
        if !bound.meets(stream.deadline()) {
            infeasible.push(id);
        }
    }
    infeasible.sort_unstable();
    FeasibilityReport { bounds, infeasible }
}

/// [`determine_feasibility`] across `threads` worker threads.
///
/// Each stream's analysis is independent (it reads only the immutable
/// stream set), but analysis costs are wildly uneven — a stream's cost
/// scales with its deadline horizon and HP-set depth — so a static
/// partition leaves threads idle behind whichever chunk drew the
/// expensive streams. Workers instead *steal* the next stream index
/// from a shared atomic counter as they finish, each carrying its own
/// reusable [`AnalysisScratch`]. Produces bit-identical results to the
/// sequential version regardless of thread count or interleaving.
pub fn determine_feasibility_parallel(set: &StreamSet, threads: usize) -> FeasibilityReport {
    let threads = threads.max(1).min(set.len());
    if threads == 1 {
        return determine_feasibility(set);
    }
    let mut bounds = vec![DelayBound::Exceeded; set.len()];
    let ids: Vec<StreamId> = set.ids().collect();
    let next = AtomicUsize::new(0);
    // One index, built once and shared read-only across the workers:
    // HP construction inside the steal loop is pure bit work.
    let index = InterferenceIndex::build(set);
    let partials: Vec<Vec<(StreamId, DelayBound)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let ids = &ids;
                let index = &index;
                scope.spawn(move || {
                    let mut scratch = AnalysisScratch::new();
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&id) = ids.get(i) else { break };
                        let hp = index.hp_set(set, id);
                        let bound = scratch.delay_bound(set, &hp, set.get(id).deadline());
                        local.push((id, bound));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("analysis worker"))
            .collect()
    });
    for partial in partials {
        for (id, bound) in partial {
            bounds[id.index()] = bound;
        }
    }
    let mut infeasible: Vec<StreamId> = set
        .ids()
        .filter(|&id| !bounds[id.index()].meets(set.get(id).deadline()))
        .collect();
    infeasible.sort_unstable();
    FeasibilityReport { bounds, infeasible }
}

/// Like [`determine_feasibility`] but with a caller-chosen horizon per
/// stream (e.g. "large enough to find U even past the deadline", which
/// the evaluation workloads need for the paper's period-inflation rule).
pub fn delay_bounds(
    set: &StreamSet,
    horizon_of: impl Fn(&StreamSet, StreamId) -> u64,
) -> Vec<DelayBound> {
    let mut scratch = AnalysisScratch::new();
    let index = InterferenceIndex::build(set);
    set.ids()
        .map(|id| {
            let hp = index.hp_set(set, id);
            scratch.delay_bound(set, &hp, horizon_of(set, id))
        })
        .collect()
}

/// Full per-stream analyses (HP sets, diagrams, bounds) with horizon
/// `D_i`, for reporting.
pub fn analyze_all(set: &StreamSet) -> Vec<CalUAnalysis> {
    let index = InterferenceIndex::build(set);
    set.ids()
        .map(|id| {
            let hp = index.hp_set(set, id);
            cal_u_with_hp(set, hp, set.get(id).deadline())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamSpec;
    use wormnet_topology::{Mesh, Topology, XyRouting};

    fn set_with_deadlines(d0: u64, d1: u64) -> StreamSet {
        let m = Mesh::mesh2d(10, 2);
        let mk = |x0: u32, x1: u32, p: u32, t: u64, c: u64, d: u64| {
            StreamSpec::new(
                m.node_at(&[x0, 0]).unwrap(),
                m.node_at(&[x1, 0]).unwrap(),
                p,
                t,
                c,
                d,
            )
        };
        StreamSet::resolve(
            &m,
            &XyRouting,
            &[mk(0, 5, 2, 20, 3, d0), mk(1, 6, 1, 100, 4, d1)],
        )
        .unwrap()
    }

    #[test]
    fn feasible_set() {
        // Stream 0: U = L = 7; stream 1: U = 11 (see calu tests).
        let set = set_with_deadlines(20, 20);
        let report = determine_feasibility(&set);
        assert!(report.is_feasible());
        assert_eq!(report.bound(StreamId(0)), DelayBound::Bounded(7));
        assert_eq!(report.bound(StreamId(1)), DelayBound::Bounded(11));
    }

    #[test]
    fn tight_deadline_fails() {
        let set = set_with_deadlines(20, 10);
        let report = determine_feasibility(&set);
        assert!(!report.is_feasible());
        assert_eq!(report.infeasible, vec![StreamId(1)]);
        // The bound search stops at the deadline horizon.
        assert_eq!(report.bound(StreamId(1)), DelayBound::Exceeded);
    }

    #[test]
    fn deadline_equal_to_bound_is_feasible() {
        let set = set_with_deadlines(7, 11);
        let report = determine_feasibility(&set);
        assert!(report.is_feasible(), "U <= D is the paper's condition");
    }

    #[test]
    fn delay_bounds_with_custom_horizon() {
        // Even with a 10-slot deadline, a 100-slot horizon finds U = 11.
        let set = set_with_deadlines(20, 10);
        let bounds = delay_bounds(&set, |_, _| 100);
        assert_eq!(bounds[1], DelayBound::Bounded(11));
    }

    #[test]
    fn parallel_matches_sequential() {
        let m = Mesh::mesh2d(10, 2);
        let mk = |x0: u32, x1: u32, p: u32, t: u64, c: u64| {
            StreamSpec::new(
                m.node_at(&[x0, 0]).unwrap(),
                m.node_at(&[x1, 0]).unwrap(),
                p,
                t,
                c,
                t,
            )
        };
        let set = StreamSet::resolve(
            &m,
            &XyRouting,
            &[
                mk(0, 5, 3, 40, 4),
                mk(1, 6, 2, 60, 6),
                mk(2, 7, 1, 90, 8),
                mk(0, 3, 1, 120, 5),
                mk(4, 9, 2, 80, 7),
            ],
        )
        .unwrap();
        let seq = determine_feasibility(&set);
        for threads in [1usize, 2, 3, 8, 64] {
            let par = determine_feasibility_parallel(&set, threads);
            assert_eq!(par.bounds, seq.bounds, "{threads} threads");
            assert_eq!(par.infeasible, seq.infeasible);
        }
    }

    #[test]
    fn parallel_matches_sequential_on_skewed_costs() {
        // A work-stealing stress shape: one stream with a huge deadline
        // horizon and a deep HP set next to many cheap streams, so a
        // static partition would be badly imbalanced and any
        // scratch-reuse bug across uneven work items would surface.
        let m = Mesh::mesh2d(16, 2);
        let mk = |x0: u32, x1: u32, p: u32, t: u64, c: u64, d: u64| {
            StreamSpec::new(
                m.node_at(&[x0, 0]).unwrap(),
                m.node_at(&[x1, 0]).unwrap(),
                p,
                t,
                c,
                d,
            )
        };
        let set = StreamSet::resolve(
            &m,
            &XyRouting,
            &[
                mk(0, 8, 9, 25, 3, 25),
                mk(1, 9, 8, 40, 5, 40),
                mk(2, 10, 7, 55, 4, 55),
                mk(3, 11, 6, 70, 6, 70),
                mk(4, 12, 5, 85, 2, 85),
                mk(5, 13, 4, 100, 7, 100),
                mk(6, 14, 3, 30, 2, 30),
                mk(7, 15, 2, 45, 3, 45),
                // The expensive tail: everything above blocks it, and its
                // horizon is ~100x the cheap streams'.
                mk(0, 15, 1, 9000, 8, 9000),
            ],
        )
        .unwrap();
        let seq = determine_feasibility(&set);
        for threads in [2usize, 3, 4, 9, 32] {
            let par = determine_feasibility_parallel(&set, threads);
            assert_eq!(par.bounds, seq.bounds, "{threads} threads");
            assert_eq!(par.infeasible, seq.infeasible);
        }
    }

    #[test]
    fn analyze_all_covers_every_stream() {
        let set = set_with_deadlines(20, 20);
        let analyses = analyze_all(&set);
        assert_eq!(analyses.len(), 2);
        assert_eq!(analyses[0].target, StreamId(0));
        assert_eq!(analyses[1].target, StreamId(1));
    }
}
