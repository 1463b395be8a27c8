//! `Modify_Diagram`: discounting indirect blocking that cannot actually
//! propagate (paper §4.3).
//!
//! An INDIRECT element of an HP set only delays the target *through* its
//! intermediate streams: if, while one of its instances is present in
//! the network (transmitting or preempted), no intermediate stream is
//! present at any of the same slots, the chain is broken and that
//! instance cannot block the target at all. `Modify_Diagram` removes
//! such instances and re-compacts the diagram, which both frees the
//! removed slots and lets lower-priority instances shift earlier (the
//! paper's "update T_d consistently"; its worked example notes "the
//! first instance of M3 is compacted").
//!
//! Elements are processed in the order [`HpSet::processing_order`]
//! gives — an element only after its indirect intermediates — and each
//! element's instances are tested against the diagram as compacted
//! after every earlier element's removals. This instance-span
//! interpretation of the paper's loosely-specified pseudocode (free
//! slots of an indirect row where "all intermediate rows are FREE or
//! BUSY", lifted from slots to whole instances) is validated by
//! reproducing *both* Figure 6 (`U = 22`) and the worked example's
//! published bounds `U = (7, 8, 26, 20, 33)` exactly (see
//! `tests/paper_example.rs`).
//!
//! The loop itself lives in [`AnalysisScratch`], which every `Cal_U`
//! runs; this module names the removal rules and builds the full
//! [`TimingDiagram`] of the loop's final removal set.

use crate::diagram::{AnalysisScratch, RemovedInstances, TimingDiagram};
use crate::hpset::HpSet;
use crate::stream::StreamSet;
use std::cell::RefCell;

/// How `Modify_Diagram` decides that an indirect instance's blocking
/// chain is broken. The paper's pseudocode is ambiguous; the strategies
/// differ in which slots the intermediate streams are probed over.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RemovalStrategy {
    /// Probe the instance's *active span* (window start through the
    /// slot its tail transmits). This is the reading that reproduces
    /// both Figure 6 (`U = 22`) and the worked example (`U_4 = 33`),
    /// and the crate default.
    #[default]
    InstanceSpan,
    /// Probe the instance's whole *period window*. Strictly more
    /// conservative (removes fewer instances): it reproduces the
    /// worked example but yields `U = 24` instead of 22 on Figure 6.
    InstanceWindow,
    /// Never remove anything — the direct-only ablation.
    Disabled,
}

/// Runs `Modify_Diagram` and returns the final diagram together with the
/// set of removed instances, using the default
/// [`RemovalStrategy::InstanceSpan`].
///
/// If the HP set has no indirect elements the initial diagram is
/// returned unchanged (with an empty removal set).
pub fn modify_diagram(
    set: &StreamSet,
    hp: &HpSet,
    horizon: u64,
) -> (TimingDiagram, RemovedInstances) {
    modify_diagram_with(set, hp, horizon, RemovalStrategy::InstanceSpan)
}

/// [`modify_diagram`] with an explicit removal strategy (for the
/// interpretation ablation; see EXPERIMENTS.md): runs the arena's loop,
/// then generates the diagram of its removal set once.
pub fn modify_diagram_with(
    set: &StreamSet,
    hp: &HpSet,
    horizon: u64,
    strategy: RemovalStrategy,
) -> (TimingDiagram, RemovedInstances) {
    let removed = removal_set(set, hp, horizon, strategy);
    (TimingDiagram::generate(set, hp, horizon, &removed), removed)
}

/// The instances `Modify_Diagram` removes from `hp`'s diagram, found by
/// the loop in [`AnalysisScratch`] on an arena kept per thread, so a
/// detailed `Cal_U` (a library `QUERY`) allocates no arena of its own.
/// Empty without an indirect element.
pub(crate) fn removal_set(
    set: &StreamSet,
    hp: &HpSet,
    horizon: u64,
    strategy: RemovalStrategy,
) -> RemovedInstances {
    thread_local! {
        static ARENA: RefCell<AnalysisScratch> = RefCell::default();
    }
    if strategy == RemovalStrategy::Disabled || !hp.has_indirect() {
        return RemovedInstances::none();
    }
    ARENA.with_borrow_mut(|arena| {
        arena.delay_bound_with(set, hp, horizon, strategy);
        arena.removed()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpset::generate_hp;
    use crate::stream::{StreamId, StreamSet, StreamSpec};
    use wormnet_topology::{Mesh, Topology, XyRouting};

    /// Figures 4-6's abstract scenario with M1 and M2 made *indirect*:
    /// M1's intermediates are {M2}; M2's intermediates are {M3}; M3 is
    /// direct. Geometrically: target T on row 0; M3 overlaps T; M2
    /// overlaps M3 but not T; M1 overlaps M2 but not M3 or T.
    fn figure6() -> StreamSet {
        let m = Mesh::mesh2d(20, 2);
        let mk = |x0: u32, x1: u32, p: u32, t: u64, c: u64| {
            StreamSpec::new(
                m.node_at(&[x0, 0]).unwrap(),
                m.node_at(&[x1, 0]).unwrap(),
                p,
                t,
                c,
                200,
            )
        };
        StreamSet::resolve(
            &m,
            &XyRouting,
            &[
                mk(6, 9, 4, 10, 2), // M1: links 6..9
                mk(4, 7, 3, 15, 3), // M2: links 4..7 (shares 6->7 with M1)
                mk(2, 5, 2, 13, 4), // M3: links 2..5 (shares 4->5 with M2)
                mk(0, 3, 1, 50, 6), // T:  links 0..3 (shares 2->3 with M3)
            ],
        )
        .unwrap()
    }

    #[test]
    fn figure6_shape() {
        let set = figure6();
        let hp = generate_hp(&set, StreamId(3));
        assert_eq!(hp.len(), 3);
        let m1 = hp.element(StreamId(0)).unwrap();
        let m2 = hp.element(StreamId(1)).unwrap();
        let m3 = hp.element(StreamId(2)).unwrap();
        assert!(!m1.is_direct());
        assert_eq!(m1.intermediates, vec![StreamId(1)]);
        assert!(!m2.is_direct());
        assert_eq!(m2.intermediates, vec![StreamId(2)]);
        assert!(m3.is_direct());
    }

    #[test]
    fn figure6_reproduces_paper_bound() {
        // The paper's Figure 6: with M1 indirect via M2 and M2 indirect
        // via M3, "the second and the third instance of M1 are removed
        // since M2 ... does not exist in that time period. Thus the
        // delay upper bound of M4 is reduced to time 22."
        let set = figure6();
        let hp = generate_hp(&set, StreamId(3));
        let initial = TimingDiagram::generate(&set, &hp, 50, &RemovedInstances::none());
        assert_eq!(initial.accumulate_free(6), Some(26), "Figure 4 baseline");

        let (final_diag, removed) = modify_diagram(&set, &hp, 50);
        // M1's instances 2 and 3 (0-based 1 and 2) go; instance 5 (which
        // the figure truncates) also sees no M2 activity.
        assert!(removed.contains(StreamId(0), 1));
        assert!(removed.contains(StreamId(0), 2));
        assert_eq!(final_diag.accumulate_free(6), Some(22), "Figure 6 bound");
    }

    #[test]
    fn direct_only_hp_is_untouched() {
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
        let set =
            StreamSet::resolve(&m, &XyRouting, &[mk(0, 5, 2, 20, 3), mk(1, 6, 1, 100, 4)]).unwrap();
        let hp = generate_hp(&set, StreamId(1));
        let (diag, removed) = modify_diagram(&set, &hp, 100);
        assert!(removed.is_empty());
        let plain = TimingDiagram::generate(&set, &hp, 100, &RemovedInstances::none());
        assert_eq!(diag.accumulate_free(4), plain.accumulate_free(4));
    }

    #[test]
    fn strategies_ordered_by_aggressiveness() {
        // Span probes fewer slots than the window, so it removes at
        // least as many instances; disabled removes none. Bounds order
        // accordingly: span <= window <= disabled.
        let set = figure6();
        let hp = generate_hp(&set, StreamId(3));
        let need = 6u64;
        let u_of = |s: RemovalStrategy| {
            let (d, _) = modify_diagram_with(&set, &hp, 50, s);
            d.accumulate_free(need).unwrap()
        };
        let span = u_of(RemovalStrategy::InstanceSpan);
        let window = u_of(RemovalStrategy::InstanceWindow);
        let disabled = u_of(RemovalStrategy::Disabled);
        assert_eq!(span, 22);
        assert_eq!(window, 24);
        assert_eq!(disabled, 26);
        assert!(span <= window && window <= disabled);
    }

    #[test]
    fn disabled_strategy_removes_nothing() {
        let set = figure6();
        let hp = generate_hp(&set, StreamId(3));
        let (_, removed) = modify_diagram_with(&set, &hp, 50, RemovalStrategy::Disabled);
        assert!(removed.is_empty());
    }

    #[test]
    fn removal_never_worsens_bound() {
        let set = figure6();
        let hp = generate_hp(&set, StreamId(3));
        let initial = TimingDiagram::generate(&set, &hp, 50, &RemovedInstances::none());
        let (final_diag, _) = modify_diagram(&set, &hp, 50);
        for need in 1..=10u64 {
            let a = initial.accumulate_free(need);
            let b = final_diag.accumulate_free(need);
            match (a, b) {
                (Some(ua), Some(ub)) => assert!(ub <= ua, "need={need}"),
                (None, Some(_)) | (None, None) => {}
                (Some(_), None) => panic!("modification lost feasibility (need={need})"),
            }
        }
    }
}
