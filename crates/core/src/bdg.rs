//! Blocking dependency graphs (paper Fig. 5/8).
//!
//! `Modify_Diagram` does not build one: its processing order is read
//! off the HP set's `IN` fields ([`HpSet::processing_order`]). The
//! graph serves the verifier, whose chain and cycle rules need edges
//! between arbitrary HP elements.

use crate::hpset::HpSet;
use crate::stream::{StreamId, StreamSet};
use std::collections::VecDeque;

/// The blocking dependency graph of one HP set: nodes are the HP
/// elements plus the target; there is an edge `a -> b` whenever `a`
/// directly affects `b` (higher-or-equal priority and a shared directed
/// channel). The paper stores it as an adjacency matrix; so do we.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockingDependencyGraph {
    /// Node order: HP elements in row order, then the target last.
    nodes: Vec<StreamId>,
    /// `adj[a][b]` == true iff `nodes[a]` directly affects `nodes[b]`.
    adj: Vec<Vec<bool>>,
}

impl BlockingDependencyGraph {
    /// Builds the BDG for `hp` over `set` by pairwise directly-affects
    /// tests (sorted-merge channel overlap per pair).
    pub fn build(set: &StreamSet, hp: &HpSet) -> Self {
        let mut nodes: Vec<StreamId> = hp.elements().iter().map(|e| e.stream).collect();
        nodes.push(hp.target);
        let n = nodes.len();
        let mut adj = vec![vec![false; n]; n];
        for (i, &a) in nodes.iter().enumerate() {
            for (j, &b) in nodes.iter().enumerate() {
                if i != j && set.get(a).directly_affects(set.get(b)) {
                    adj[i][j] = true;
                }
            }
        }
        BlockingDependencyGraph { nodes, adj }
    }

    /// Node ids in internal order (target last).
    pub fn nodes(&self) -> &[StreamId] {
        &self.nodes
    }

    /// True when `a` directly affects `b`.
    pub fn edge(&self, a: StreamId, b: StreamId) -> bool {
        let (ia, ib) = (self.pos(a), self.pos(b));
        self.adj[ia][ib]
    }

    fn pos(&self, s: StreamId) -> usize {
        self.nodes
            .iter()
            .position(|&n| n == s)
            .expect("stream not in BDG")
    }

    /// BFS distance of every node from the target, following edges
    /// *backwards* (the paper transposes the matrix and searches from
    /// `M_j`). Direct blockers are at distance 1.
    pub fn distance_from_target(&self) -> Vec<Option<u32>> {
        let n = self.nodes.len();
        let target = n - 1;
        let mut dist = vec![None; n];
        dist[target] = Some(0);
        let mut queue = VecDeque::from([target]);
        while let Some(b) = queue.pop_front() {
            let db = dist[b].unwrap();
            for (a, d) in dist.iter_mut().enumerate() {
                if self.adj[a][b] && d.is_none() {
                    *d = Some(db + 1);
                    queue.push_back(a);
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpset::generate_hp;
    use crate::stream::{StreamSet, StreamSpec};
    use wormnet_topology::{Mesh, Topology, XyRouting};

    fn build(specs: &[([u32; 2], [u32; 2], u32)]) -> StreamSet {
        let m = Mesh::mesh2d(10, 10);
        let specs: Vec<StreamSpec> = specs
            .iter()
            .map(|&(s, d, p)| {
                StreamSpec::new(
                    m.node_at(&s).unwrap(),
                    m.node_at(&d).unwrap(),
                    p,
                    100,
                    4,
                    100,
                )
            })
            .collect();
        StreamSet::resolve(&m, &XyRouting, &specs).unwrap()
    }

    /// W -> X -> Y -> T chain.
    fn chain() -> StreamSet {
        build(&[
            ([0, 0], [2, 0], 1), // T
            ([1, 0], [4, 0], 2), // Y direct
            ([3, 0], [6, 0], 3), // X indirect via Y
            ([5, 0], [8, 0], 4), // W indirect via X
        ])
    }

    #[test]
    fn edges_follow_directly_affects() {
        let set = chain();
        let hp = generate_hp(&set, StreamId(0));
        let g = BlockingDependencyGraph::build(&set, &hp);
        assert!(g.edge(StreamId(1), StreamId(0)));
        assert!(g.edge(StreamId(2), StreamId(1)));
        assert!(g.edge(StreamId(3), StreamId(2)));
        assert!(!g.edge(StreamId(3), StreamId(0)));
        assert!(!g.edge(StreamId(0), StreamId(1)), "low cannot block high");
        assert_eq!(g.nodes().last(), Some(&StreamId(0)), "target is last");
    }

    #[test]
    fn distances_from_target() {
        let set = chain();
        let hp = generate_hp(&set, StreamId(0));
        let g = BlockingDependencyGraph::build(&set, &hp);
        let dist = g.distance_from_target();
        // Node order: HP rows sorted by decreasing priority (W, X, Y),
        // then target.
        let labeled: Vec<(StreamId, Option<u32>)> = g.nodes().iter().copied().zip(dist).collect();
        for (s, d) in labeled {
            let expect = match s.0 {
                0 => 0,
                1 => 1,
                2 => 2,
                3 => 3,
                _ => unreachable!(),
            };
            assert_eq!(d, Some(expect), "{s:?}");
        }
    }

    #[test]
    fn processing_order_respects_intermediates() {
        let set = chain();
        let hp = generate_hp(&set, StreamId(0));
        // X (via direct Y) first, then W (via X).
        assert_eq!(hp.processing_order(), vec![StreamId(2), StreamId(3)]);
    }

    #[test]
    fn no_indirect_elements_is_empty_order() {
        let set = build(&[
            ([0, 0], [4, 0], 1), // T
            ([1, 0], [5, 0], 2), // direct only
        ]);
        let hp = generate_hp(&set, StreamId(0));
        assert!(hp.processing_order().is_empty());
    }

    #[test]
    fn paper_example_bdg_shape() {
        // Figure 8: M0 -> M2 -> M4, M1 -> {M2, M3} -> M4.
        let m = Mesh::mesh2d(10, 10);
        let mk = |s: [u32; 2], d: [u32; 2], p, t, c| {
            StreamSpec::new(m.node_at(&s).unwrap(), m.node_at(&d).unwrap(), p, t, c, t)
        };
        let set = StreamSet::resolve(
            &m,
            &XyRouting,
            &[
                mk([7, 3], [7, 7], 5, 150, 4),
                mk([1, 1], [5, 4], 4, 100, 2),
                mk([2, 1], [7, 5], 3, 400, 4),
                mk([4, 1], [8, 5], 2, 450, 9),
                mk([6, 1], [9, 3], 1, 500, 6),
            ],
        )
        .unwrap();
        let hp4 = generate_hp(&set, StreamId(4));
        let g = BlockingDependencyGraph::build(&set, &hp4);
        assert!(g.edge(StreamId(0), StreamId(2)));
        assert!(g.edge(StreamId(1), StreamId(2)));
        assert!(g.edge(StreamId(2), StreamId(4)));
        assert!(g.edge(StreamId(3), StreamId(4)));
        assert!(!g.edge(StreamId(0), StreamId(4)));
        assert!(!g.edge(StreamId(1), StreamId(4)));
        let order = hp4.processing_order();
        assert_eq!(order.len(), 2);
        assert!(order.contains(&StreamId(0)) && order.contains(&StreamId(1)));
    }
}
