//! `Cal_U`: the transmission delay upper bound of one message stream
//! (paper §4.3).

use crate::diagram::{AnalysisScratch, RemovedInstances, TimingDiagram};
use crate::hpset::{generate_hp, HpSet};
use crate::modify::{removal_set, RemovalStrategy};
use crate::stream::{StreamId, StreamSet};
use std::fmt;

/// Result of a delay-upper-bound computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DelayBound {
    /// Every message of the stream completes within this many flit
    /// times of its generation, under worst-case interference.
    Bounded(u64),
    /// The required free slots did not accumulate within the analysis
    /// horizon — the paper's `Cal_U` returns `-1` and the stream set is
    /// infeasible at this stream's deadline.
    Exceeded,
}

impl DelayBound {
    /// The bound value, if one was found.
    pub fn value(self) -> Option<u64> {
        match self {
            DelayBound::Bounded(u) => Some(u),
            DelayBound::Exceeded => None,
        }
    }

    /// True when a finite bound was found.
    pub fn is_bounded(self) -> bool {
        matches!(self, DelayBound::Bounded(_))
    }

    /// True when the bound meets the given deadline.
    pub fn meets(self, deadline: u64) -> bool {
        match self {
            DelayBound::Bounded(u) => u <= deadline,
            DelayBound::Exceeded => false,
        }
    }
}

impl fmt::Display for DelayBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DelayBound::Bounded(u) => write!(f, "{u}"),
            DelayBound::Exceeded => write!(f, "unbounded within horizon"),
        }
    }
}

/// The full audit trail of one `Cal_U` run, for reporting and for the
/// walkthrough example that re-draws the paper's Figures 7-9.
#[derive(Clone, Debug)]
pub struct CalUAnalysis {
    /// The analyzed stream.
    pub target: StreamId,
    /// The analysis horizon (the paper uses the stream's deadline).
    pub horizon: u64,
    /// The target's HP set.
    pub hp: HpSet,
    /// The initial all-direct timing diagram (paper Fig. 7).
    pub initial: TimingDiagram,
    /// The diagram after `Modify_Diagram` (paper Fig. 9); identical to
    /// `initial` when the HP set has no indirect elements.
    pub finalized: TimingDiagram,
    /// Instances deleted by `Modify_Diagram`.
    pub removed: RemovedInstances,
    /// The delay upper bound `U`.
    pub bound: DelayBound,
}

/// Computes the delay upper bound `U` of `target` over slots
/// `1..=horizon`, keeping the intermediate artifacts.
///
/// Steps, following the paper: build the HP set, generate the initial
/// timing diagram treating every element as direct, run
/// `Modify_Diagram` if any element is indirect, then accumulate free
/// slots in the (implicit) target row until the target's network
/// latency `L` is reached. The removal set comes from the same
/// [`AnalysisScratch`] loop [`cal_u`] runs; the final diagram is
/// generated once, from that set.
pub fn cal_u_detailed(set: &StreamSet, target: StreamId, horizon: u64) -> CalUAnalysis {
    let hp = generate_hp(set, target);
    cal_u_with_hp(set, hp, horizon)
}

/// [`cal_u_detailed`] with a pre-computed HP set (the outer
/// `Determine-Feasibility` loop builds all HP sets once).
pub fn cal_u_with_hp(set: &StreamSet, hp: HpSet, horizon: u64) -> CalUAnalysis {
    let initial = TimingDiagram::generate(set, &hp, horizon, &RemovedInstances::none());
    let removed = removal_set(set, &hp, horizon, RemovalStrategy::InstanceSpan);
    let finalized = if removed.is_empty() {
        initial.clone()
    } else {
        TimingDiagram::generate(set, &hp, horizon, &removed)
    };
    let bound = match finalized.accumulate_free(set.get(hp.target).latency) {
        Some(u) => DelayBound::Bounded(u),
        None => DelayBound::Exceeded,
    };
    CalUAnalysis {
        target: hp.target,
        horizon,
        hp,
        initial,
        finalized,
        removed,
        bound,
    }
}

/// Computes just the delay upper bound of `target` over `1..=horizon`.
///
/// # Examples
///
/// ```
/// use rtwc_core::{cal_u, DelayBound, StreamId, StreamSet, StreamSpec};
/// use wormnet_topology::{Mesh, Topology, XyRouting};
///
/// let mesh = Mesh::mesh2d(10, 2);
/// let node = |x| mesh.node_at(&[x, 0]).unwrap();
/// let set = StreamSet::resolve(
///     &mesh,
///     &XyRouting,
///     &[
///         // A high-priority stream occupying slots 1-3 of every 20...
///         StreamSpec::new(node(0), node(5), 2, 20, 3, 20),
///         // ...delays this one (L = 5 + 4 - 1 = 8) until slot 11.
///         StreamSpec::new(node(1), node(6), 1, 100, 4, 100),
///     ],
/// )
/// .unwrap();
/// assert_eq!(cal_u(&set, StreamId(1), 100), DelayBound::Bounded(11));
/// ```
pub fn cal_u(set: &StreamSet, target: StreamId, horizon: u64) -> DelayBound {
    let hp = generate_hp(set, target);
    AnalysisScratch::new().delay_bound(set, &hp, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{StreamSet, StreamSpec};
    use wormnet_topology::{Mesh, Topology, XyRouting};

    fn two_streams() -> StreamSet {
        let m = Mesh::mesh2d(10, 2);
        let mk = |x0: u32, x1: u32, p: u32, t: u64, c: u64| {
            StreamSpec::new(
                m.node_at(&[x0, 0]).unwrap(),
                m.node_at(&[x1, 0]).unwrap(),
                p,
                t,
                c,
                100,
            )
        };
        StreamSet::resolve(&m, &XyRouting, &[mk(0, 5, 2, 20, 3), mk(1, 6, 1, 100, 4)]).unwrap()
    }

    #[test]
    fn unblocked_stream_bound_is_latency() {
        let set = two_streams();
        // Stream 0 has top priority: nothing blocks it.
        let s = set.get(StreamId(0));
        assert_eq!(
            cal_u(&set, StreamId(0), 100),
            DelayBound::Bounded(s.latency)
        );
    }

    #[test]
    fn blocked_stream_pays_interference() {
        let set = two_streams();
        // Stream 1: L = 5 hops + 4 - 1 = 8. Stream 0 takes slots 1-3 of
        // every 20. Free slots 4..: 8 accumulated at slot 11.
        assert_eq!(cal_u(&set, StreamId(1), 100), DelayBound::Bounded(11));
    }

    #[test]
    fn horizon_exhaustion_is_exceeded() {
        let set = two_streams();
        assert_eq!(cal_u(&set, StreamId(1), 10), DelayBound::Exceeded);
        assert!(!DelayBound::Exceeded.meets(10));
        assert_eq!(DelayBound::Exceeded.value(), None);
    }

    #[test]
    fn bound_meets_deadline_api() {
        let b = DelayBound::Bounded(33);
        assert!(b.meets(50));
        assert!(b.meets(33));
        assert!(!b.meets(32));
        assert_eq!(b.value(), Some(33));
        assert_eq!(b.to_string(), "33");
    }

    #[test]
    fn detailed_keeps_artifacts() {
        let set = two_streams();
        let a = cal_u_detailed(&set, StreamId(1), 100);
        assert_eq!(a.target, StreamId(1));
        assert_eq!(a.hp.len(), 1);
        assert!(a.removed.is_empty());
        assert_eq!(a.bound, DelayBound::Bounded(11));
        assert_eq!(a.initial.horizon(), 100);
    }

    #[test]
    fn bound_monotone_in_horizon() {
        let set = two_streams();
        let u100 = cal_u(&set, StreamId(1), 100);
        let u50 = cal_u(&set, StreamId(1), 50);
        assert_eq!(u100, u50, "a found bound does not depend on horizon");
    }

    #[test]
    fn scratch_fast_path_matches_detailed() {
        // One scratch reused across every stream and several horizons
        // must agree exactly with fresh runs and the detailed path.
        let set = two_streams();
        let mut scratch = AnalysisScratch::new();
        for id in set.ids() {
            for horizon in [10u64, 50, 100] {
                let hp = generate_hp(&set, id);
                let fast = scratch.delay_bound(&set, &hp, horizon);
                let slow = cal_u_detailed(&set, id, horizon).bound;
                assert_eq!(fast, slow, "stream {id:?} horizon {horizon}");
                assert_eq!(fast, cal_u(&set, id, horizon));
            }
        }
    }
}
