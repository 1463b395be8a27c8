//! Oracles for the `Modify_Diagram` loop: the per-element loop that
//! regenerates a full [`TimingDiagram`] after every element's removals,
//! and the processing order read off a [`BlockingDependencyGraph`].
//! Both are the library's implementations from before the loop moved
//! into `AnalysisScratch`, kept here so the arena can be checked
//! against them.

use rtwc_core::{
    BlockingDependencyGraph, DiagramKernel, HpSet, RemovalStrategy, RemovedInstances, StreamId,
    StreamSet, TimingDiagram,
};

/// The order in which `Modify_Diagram` processes *indirect* HP
/// elements: an element is handled only after every one of its
/// intermediates that is itself indirect has been handled (the paper's
/// `vc[ni] == indegree` bookkeeping). Among ready elements,
/// nearer-to-target (smaller BFS distance) first, ties by id; any
/// leftover elements that a mutual-blocking cycle makes permanently
/// "unready" are taken in BFS-distance order so the pass always
/// terminates.
pub fn indirect_processing_order(bdg: &BlockingDependencyGraph, hp: &HpSet) -> Vec<StreamId> {
    let indirect: Vec<StreamId> = hp
        .elements()
        .iter()
        .filter(|e| !e.is_direct())
        .map(|e| e.stream)
        .collect();
    if indirect.is_empty() {
        return Vec::new();
    }
    let dist = bdg.distance_from_target();
    let pos = |s: StreamId| bdg.nodes().iter().position(|&n| n == s).unwrap();
    let dist_of = |s: StreamId| -> u32 { dist[pos(s)].unwrap_or(u32::MAX) };
    let mut pending: Vec<StreamId> = indirect.clone();
    pending.sort_by_key(|&s| (dist_of(s), s));
    let mut done: Vec<StreamId> = Vec::new();
    while !pending.is_empty() {
        let ready_pos = pending.iter().position(|&s| {
            let elem = hp.element(s).expect("indirect element in HP");
            elem.intermediates.iter().all(|&im| {
                // Intermediates that are direct need no processing.
                hp.element(im).is_none_or(|e| e.is_direct()) || done.contains(&im)
            })
        });
        // Cycle fallback: take the nearest pending element.
        let pos = ready_pos.unwrap_or(0);
        let s = pending.remove(pos);
        done.push(s);
    }
    done
}

/// `Modify_Diagram` element by element: collect one element's
/// removable instances against the current diagram, then regenerate
/// the whole diagram with the enlarged removal set.
pub fn modify_diagram_oracle(
    set: &StreamSet,
    hp: &HpSet,
    horizon: u64,
    strategy: RemovalStrategy,
    kernel: DiagramKernel,
) -> (TimingDiagram, RemovedInstances) {
    let mut removed = RemovedInstances::none();
    let mut diagram = TimingDiagram::generate_with(set, hp, horizon, &removed, kernel);
    if !hp.has_indirect() || strategy == RemovalStrategy::Disabled {
        return (diagram, removed);
    }

    let bdg = BlockingDependencyGraph::build(set, hp);
    for elem_id in indirect_processing_order(&bdg, hp) {
        let elem = hp
            .element(elem_id)
            .expect("processing order yields HP members");
        let row = diagram
            .row_of(elem_id)
            .expect("HP member has a diagram row");

        // Collect this element's removable instances against the
        // *current* (already partially compacted) diagram.
        let mut new_removals = Vec::new();
        for inst in &diagram.rows()[row].instances {
            if inst.removed {
                continue;
            }
            // The instance occupies the network over its active span;
            // the chain is alive iff some intermediate is present in
            // the probed slots.
            let probe_end = match strategy {
                RemovalStrategy::InstanceSpan => inst.active_end(),
                RemovalStrategy::InstanceWindow => inst.window_end,
                RemovalStrategy::Disabled => unreachable!("returned early"),
            };
            let chain_alive = elem.intermediates.iter().any(|&im| {
                diagram
                    .row_of(im)
                    .map(|im_row| diagram.row_active_in(im_row, inst.window_start, probe_end))
                    .unwrap_or(false)
            });
            if !chain_alive {
                new_removals.push(inst.index);
            }
        }

        if !new_removals.is_empty() {
            for k in new_removals {
                removed.insert(elem_id, k);
            }
            // Re-compact: regenerate with the enlarged removal set.
            diagram = TimingDiagram::generate_with(set, hp, horizon, &removed, kernel);
        }
    }
    (diagram, removed)
}
