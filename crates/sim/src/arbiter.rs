//! Virtual-channel allocation and physical-channel arbitration policies.
//!
//! The paper's priority handling (§3) assigns one virtual channel per
//! priority level and arbitrates the physical channel strictly by
//! priority, so a higher-priority message preempts link bandwidth at
//! flit granularity. Two reference policies bracket it: classic
//! non-prioritized wormhole switching (priority inversion possible) and
//! Li & Mutka's scheme (priority-favoring VC allocation with fair
//! bandwidth).

use rtwc_core::Priority;
use std::cmp::Reverse;

/// The three switching disciplines the evaluation compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// The paper's scheme: VC index = priority class; the physical
    /// channel always serves the highest-priority VC with a ready flit
    /// (flit-level preemption). Arbitration within one VC class is
    /// first-come-first-served (same-priority messages share the VC and
    /// are non-preemptive among themselves).
    PreemptivePriority,
    /// Li & Mutka: a packet of priority class `p` may acquire any VC
    /// with index `<= p` (highest free index preferred; higher-priority
    /// packets pick first). Physical-channel bandwidth is shared
    /// round-robin among active VCs — priorities shape *allocation*,
    /// not bandwidth.
    LiPriorityVc,
    /// Classic wormhole switching: a single VC per channel, allocated
    /// first-come-first-served with no regard to priority.
    ClassicFifo,
    /// Priority-arbitrated bandwidth over a *shared* VC pool: any free
    /// VC may be allocated (highest-priority requester picks first),
    /// and the physical channel is preemptive by priority — but with
    /// fewer VCs than priority levels, a high-priority packet can find
    /// every VC held by lower-priority worms and block (allocation
    /// inversion). This isolates the role of the paper's
    /// one-VC-per-priority assumption; cf. Song's throttle-and-preempt,
    /// which attacks the same scarcity with router support.
    SharedPoolPriority,
}

/// A pending VC request at one physical channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VcRequest {
    /// Requesting packet (dense simulator index).
    pub packet: u32,
    /// The packet's priority class (0-based; larger = more urgent).
    pub class: u32,
    /// Cycle at which the request was first made (FCFS tie-break).
    pub since: u64,
}

impl Policy {
    /// Priority class of a packet with stream priority `priority` under
    /// `num_vcs` virtual channels. Stream priorities are 1-based (the
    /// paper's convention); classes are 0-based and clamped to the VC
    /// count so oversubscribed priority spaces degrade gracefully.
    pub fn class_of(self, priority: Priority, num_vcs: usize) -> u32 {
        match self {
            Policy::ClassicFifo => 0,
            // Classes index VCs: clamp to the VC count.
            Policy::PreemptivePriority | Policy::LiPriorityVc => {
                let class = priority.saturating_sub(1);
                class.min(num_vcs as u32 - 1)
            }
            // Classes only order arbitration: keep full resolution.
            Policy::SharedPoolPriority => priority.saturating_sub(1),
        }
    }

    /// The service order of pending requests, as a sort key (smallest
    /// first): most urgent first, then earliest request, then lowest
    /// packet index, so the key is unique per request and any sort
    /// gives the same order. Classic FIFO ignores urgency.
    pub fn request_key(self, r: &VcRequest) -> (Reverse<u32>, u64, u32) {
        let class = if self == Policy::ClassicFifo {
            0
        } else {
            r.class
        };
        (Reverse(class), r.since, r.packet)
    }

    /// The VC a granted request occupies, given the free VCs of the
    /// channel (`free[vc] == true` when unowned). Returns `None` when
    /// the request cannot be served this cycle.
    pub fn pick_vc(self, class: u32, free: &[bool]) -> Option<usize> {
        match self {
            Policy::PreemptivePriority => {
                let vc = class as usize;
                free[vc].then_some(vc)
            }
            Policy::LiPriorityVc => {
                // Highest free index <= class (indices above the class
                // are reserved for more urgent traffic).
                let cap = (class as usize).min(free.len() - 1);
                (0..=cap).rev().find(|&vc| free[vc])
            }
            Policy::ClassicFifo => free[0].then_some(0),
            Policy::SharedPoolPriority => {
                // Any free VC; highest index first (mirrors Li's order
                // without the priority cap).
                (0..free.len()).rev().find(|&vc| free[vc])
            }
        }
    }

    /// The one statement of the channel arbitration order: whether the
    /// ready VC `a` is served before the ready VC `b`, each a
    /// `(vc, class)` pair of the same physical channel, whose
    /// round-robin cursor is `rr_pointer` (the VC served last; only
    /// [`Policy::LiPriorityVc`] reads it). The order is total and a
    /// VC's rank does not depend on its rivals, so folding `prefers`
    /// over the ready VCs in any order finds the same winner.
    pub fn prefers(self, a: (usize, u32), b: (usize, u32), rr_pointer: usize) -> bool {
        match self {
            // Highest class wins; ties (impossible when VC = class,
            // real for the shared pool) break toward the lower VC
            // index.
            Policy::PreemptivePriority | Policy::SharedPoolPriority => {
                (a.1, Reverse(a.0)) > (b.1, Reverse(b.0))
            }
            // Round-robin: the VC closest after the cursor on a ring
            // of VC indices (the ring size only has to exceed any real
            // VC count).
            Policy::LiPriorityVc => {
                const RING: usize = 1 << 16;
                let after = |vc: usize| (vc + RING - (rr_pointer + 1) % RING) % RING;
                after(a.0) < after(b.0)
            }
            // One VC per dateline layer and no priorities: the lower
            // layer goes first.
            Policy::ClassicFifo => a.0 < b.0,
        }
    }

    /// Chooses which VC transmits on the physical channel this cycle:
    /// the fold of [`Policy::prefers`] over `ready`, which lists the
    /// `(vc, class)` pairs with a flit ready to cross. The caller
    /// advances the cursor to the winner.
    pub fn pick_winner(self, ready: &[(usize, u32)], rr_pointer: usize) -> Option<usize> {
        ready
            .iter()
            .copied()
            .reduce(|best, c| {
                if self.prefers(c, best, rr_pointer) {
                    c
                } else {
                    best
                }
            })
            .map(|(vc, _)| vc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_mapping_clamps() {
        let p = Policy::PreemptivePriority;
        assert_eq!(p.class_of(1, 4), 0);
        assert_eq!(p.class_of(4, 4), 3);
        assert_eq!(p.class_of(9, 4), 3, "clamped to top class");
        assert_eq!(Policy::ClassicFifo.class_of(7, 1), 0);
    }

    #[test]
    fn preemptive_picks_own_class_vc() {
        let p = Policy::PreemptivePriority;
        assert_eq!(p.pick_vc(2, &[true, true, true, true]), Some(2));
        assert_eq!(p.pick_vc(2, &[true, true, false, true]), None);
    }

    #[test]
    fn li_picks_highest_free_at_or_below() {
        let p = Policy::LiPriorityVc;
        assert_eq!(p.pick_vc(2, &[true, true, true, true]), Some(2));
        assert_eq!(p.pick_vc(2, &[true, true, false, true]), Some(1));
        assert_eq!(p.pick_vc(0, &[false, true, true, true]), None);
        assert_eq!(p.pick_vc(3, &[false, false, false, true]), Some(3));
    }

    #[test]
    fn shared_pool_takes_any_free_vc() {
        let p = Policy::SharedPoolPriority;
        assert_eq!(
            p.pick_vc(0, &[true, true, true]),
            Some(2),
            "any VC, even above class"
        );
        assert_eq!(p.pick_vc(5, &[true, false, false]), Some(0));
        assert_eq!(p.pick_vc(5, &[false, false, false]), None);
        // Classes keep full resolution (not clamped to the VC count).
        assert_eq!(p.class_of(9, 2), 8);
        // Bandwidth arbitration is preemptive by class.
        assert_eq!(p.pick_winner(&[(0, 3), (1, 7)], 0), Some(1));
    }

    #[test]
    fn classic_uses_vc_zero_only() {
        let p = Policy::ClassicFifo;
        assert_eq!(p.pick_vc(5, &[true]), Some(0));
        assert_eq!(p.pick_vc(5, &[false]), None);
    }

    #[test]
    fn request_order_priority_then_fcfs() {
        let p = Policy::PreemptivePriority;
        let mut reqs = [
            VcRequest {
                packet: 1,
                class: 0,
                since: 5,
            },
            VcRequest {
                packet: 2,
                class: 3,
                since: 9,
            },
            VcRequest {
                packet: 3,
                class: 3,
                since: 7,
            },
        ];
        reqs.sort_by_key(|r| p.request_key(r));
        let order: Vec<u32> = reqs.iter().map(|r| r.packet).collect();
        assert_eq!(order, vec![3, 2, 1]);
    }

    #[test]
    fn classic_order_is_pure_fcfs() {
        let p = Policy::ClassicFifo;
        let mut reqs = [
            VcRequest {
                packet: 1,
                class: 0,
                since: 5,
            },
            VcRequest {
                packet: 2,
                class: 9,
                since: 9,
            },
            VcRequest {
                packet: 3,
                class: 1,
                since: 7,
            },
        ];
        reqs.sort_by_key(|r| p.request_key(r));
        let order: Vec<u32> = reqs.iter().map(|r| r.packet).collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn preemptive_winner_is_highest_class() {
        let p = Policy::PreemptivePriority;
        assert_eq!(p.pick_winner(&[(0, 0), (2, 2), (1, 1)], 0), Some(2));
        assert_eq!(p.pick_winner(&[], 0), None);
    }

    /// Every ordering of `items` (Heap's algorithm).
    fn permutations(items: &[(usize, u32)]) -> Vec<Vec<(usize, u32)>> {
        fn go(k: usize, a: &mut Vec<(usize, u32)>, out: &mut Vec<Vec<(usize, u32)>>) {
            if k <= 1 {
                out.push(a.clone());
                return;
            }
            for i in 0..k {
                go(k - 1, a, out);
                a.swap(if k.is_multiple_of(2) { i } else { 0 }, k - 1);
            }
        }
        let mut out = Vec::new();
        go(items.len(), &mut items.to_vec(), &mut out);
        out
    }

    #[test]
    fn winner_is_the_fold_of_prefers_in_any_order() {
        // Distinct VCs, classes with ties (the shared pool's case).
        let ready = [(0usize, 2u32), (1, 0), (2, 2), (4, 1), (5, 0)];
        for p in [
            Policy::PreemptivePriority,
            Policy::LiPriorityVc,
            Policy::ClassicFifo,
            Policy::SharedPoolPriority,
        ] {
            for rr in 0..7 {
                // The winner is the one VC no rival is preferred to.
                let champion = ready
                    .iter()
                    .find(|&&a| ready.iter().all(|&b| a == b || p.prefers(a, b, rr)))
                    .map(|&(vc, _)| vc);
                assert!(champion.is_some(), "{p:?} rr={rr}: order is not total");
                for perm in permutations(&ready) {
                    assert_eq!(p.pick_winner(&perm, rr), champion, "{p:?} rr={rr} {perm:?}");
                }
            }
            assert!(
                !p.prefers(ready[0], ready[0], 0),
                "{p:?}: prefers is strict"
            );
        }
    }

    #[test]
    fn li_winner_round_robins() {
        let p = Policy::LiPriorityVc;
        let ready = [(0usize, 0u32), (1, 1), (3, 3)];
        assert_eq!(p.pick_winner(&ready, 0), Some(1));
        assert_eq!(p.pick_winner(&ready, 1), Some(3));
        assert_eq!(p.pick_winner(&ready, 3), Some(0));
    }
}
