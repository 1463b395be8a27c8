//! Trace analysis: reconstruct per-packet timing from an event trace
//! and check simulator invariants that are awkward to assert from
//! aggregate statistics.
//!
//! Enable tracing with `SimConfig::with_trace()`; then feed
//! `Simulator::trace()` to [`PacketTimeline::from_trace`] or
//! [`check_trace_invariants`].

use crate::trace::Event;
use crate::worm::PacketId;
use std::collections::HashMap;
use wormnet_topology::LinkId;

/// The reconstructed lifecycle of one packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PacketTimeline {
    /// The packet.
    pub packet: PacketId,
    /// Cycle the source released it.
    pub released: u64,
    /// Per hop: (channel, VC index, grant cycle), in acquisition order.
    pub grants: Vec<(LinkId, usize, u64)>,
    /// Per channel: cycles at which flits crossed it, ascending.
    pub crossings: HashMap<LinkId, Vec<u64>>,
    /// Completion cycle, if the tail arrived.
    pub completed: Option<u64>,
}

impl PacketTimeline {
    /// Builds timelines for every packet appearing in `trace`.
    pub fn from_trace(trace: &[Event]) -> Vec<PacketTimeline> {
        let mut by_packet: HashMap<PacketId, PacketTimeline> = HashMap::new();
        for e in trace {
            let entry = by_packet
                .entry(e.packet())
                .or_insert_with(|| PacketTimeline {
                    packet: e.packet(),
                    released: 0,
                    grants: Vec::new(),
                    crossings: HashMap::new(),
                    completed: None,
                });
            match *e {
                Event::Released { time, .. } => entry.released = time,
                Event::VcGranted { time, link, vc, .. } => entry.grants.push((link, vc, time)),
                Event::FlitCrossed { time, link, .. } => {
                    entry.crossings.entry(link).or_default().push(time)
                }
                Event::Completed { time, .. } => entry.completed = Some(time),
            }
        }
        let mut out: Vec<PacketTimeline> = by_packet.into_values().collect();
        out.sort_by_key(|t| t.packet);
        out
    }

    /// Cycles between the release *event* (the first cycle the packet
    /// participates in) and its first VC grant — source-side blocking.
    /// Zero means the head was admitted the moment it arrived.
    pub fn admission_delay(&self) -> Option<u64> {
        self.grants.first().map(|&(_, _, t)| t - self.released)
    }

    /// Total flits this packet moved (all channels).
    pub fn total_crossings(&self) -> usize {
        self.crossings.values().map(Vec::len).sum()
    }

    /// Stall cycles on a channel: gaps between consecutive crossings
    /// beyond the 1-flit-per-cycle pipeline ideal.
    pub fn stall_cycles(&self, link: LinkId) -> u64 {
        match self.crossings.get(&link) {
            Some(times) if times.len() >= 2 => times.windows(2).map(|w| w[1] - w[0] - 1).sum(),
            _ => 0,
        }
    }
}

/// A violated trace invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceViolation {
    /// A channel carried more than one flit in one cycle.
    ChannelOverdriven {
        /// The channel.
        link: LinkId,
        /// The cycle.
        time: u64,
    },
    /// A packet's flits crossed a channel before its VC was granted.
    CrossedBeforeGrant {
        /// The packet.
        packet: PacketId,
        /// The channel.
        link: LinkId,
    },
    /// A completed packet moved a number of flits inconsistent with
    /// `length * hops`.
    WrongFlitCount {
        /// The packet.
        packet: PacketId,
        /// Flits observed in the trace.
        got: usize,
        /// Flits expected.
        expected: usize,
    },
}

/// Checks physical-consistency invariants over a trace. `expected_flits`
/// maps each *completed* packet to `length * hops` (pass an empty map to
/// skip the count check).
pub fn check_trace_invariants(
    trace: &[Event],
    expected_flits: &HashMap<PacketId, usize>,
) -> Vec<TraceViolation> {
    let mut violations = Vec::new();

    // One flit per channel per cycle.
    let mut per_link_cycle: HashMap<(LinkId, u64), u32> = HashMap::new();
    for e in trace {
        if let Event::FlitCrossed { time, link, .. } = *e {
            let c = per_link_cycle.entry((link, time)).or_insert(0);
            *c += 1;
            if *c == 2 {
                violations.push(TraceViolation::ChannelOverdriven { link, time });
            }
        }
    }

    for t in PacketTimeline::from_trace(trace) {
        // Crossings only after the grant of that channel.
        for (link, times) in &t.crossings {
            let grant = t.grants.iter().find(|&&(l, _, _)| l == *link);
            match grant {
                Some(&(_, _, gt)) => {
                    if times.first().is_some_and(|&ft| ft < gt) {
                        violations.push(TraceViolation::CrossedBeforeGrant {
                            packet: t.packet,
                            link: *link,
                        });
                    }
                }
                None => violations.push(TraceViolation::CrossedBeforeGrant {
                    packet: t.packet,
                    link: *link,
                }),
            }
        }
        // Completed packets moved exactly length * hops flits.
        if t.completed.is_some() {
            if let Some(&expected) = expected_flits.get(&t.packet) {
                let got = t.total_crossings();
                if got != expected {
                    violations.push(TraceViolation::WrongFlitCount {
                        packet: t.packet,
                        got,
                        expected,
                    });
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Simulator;
    use rtwc_core::{StreamSet, StreamSpec};
    use wormnet_topology::{Mesh, Topology, XyRouting};

    fn traced_run() -> (StreamSet, Vec<Event>, HashMap<PacketId, usize>) {
        let m = Mesh::mesh2d(8, 8);
        let specs = vec![
            StreamSpec::new(
                m.node_at(&[0, 0]).unwrap(),
                m.node_at(&[5, 0]).unwrap(),
                2,
                50,
                4,
                50,
            ),
            StreamSpec::new(
                m.node_at(&[1, 0]).unwrap(),
                m.node_at(&[6, 0]).unwrap(),
                1,
                70,
                6,
                70,
            ),
        ];
        let set = StreamSet::resolve(&m, &XyRouting, &specs).unwrap();
        let cfg = SimConfig::paper(2).with_cycles(500, 0).with_trace();
        let mut sim = Simulator::new(m.num_links(), &set, cfg).unwrap();
        sim.run();
        let trace = sim.trace().to_vec();
        let expected: HashMap<PacketId, usize> = PacketTimeline::from_trace(&trace)
            .iter()
            .filter(|t| t.completed.is_some())
            .map(|t| {
                let stream = set.get(sim.stats().records[t.packet.index()].stream);
                (
                    t.packet,
                    (stream.max_length() * stream.path.hops() as u64) as usize,
                )
            })
            .collect();
        (set, trace, expected)
    }

    #[test]
    fn timelines_reconstruct() {
        let (set, trace, _) = traced_run();
        let timelines = PacketTimeline::from_trace(&trace);
        assert!(!timelines.is_empty());
        for t in &timelines {
            if t.completed.is_none() {
                continue;
            }
            // Grants happen in route order with nondecreasing times.
            assert!(t.grants.windows(2).all(|w| w[0].2 <= w[1].2));
            // Crossings per channel are strictly increasing.
            for times in t.crossings.values() {
                assert!(times.windows(2).all(|w| w[0] < w[1]));
            }
        }
        let _ = set;
    }

    #[test]
    fn real_trace_has_no_violations() {
        let (_, trace, expected) = traced_run();
        let violations = check_trace_invariants(&trace, &expected);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn unblocked_head_admits_immediately() {
        let (_, trace, _) = traced_run();
        let timelines = PacketTimeline::from_trace(&trace);
        // The top-priority stream's first packet admits the same cycle
        // it starts participating.
        let t0 = &timelines[0];
        assert_eq!(t0.admission_delay(), Some(0));
        assert_eq!(t0.stall_cycles(t0.grants[0].0), 0);
    }

    #[test]
    fn detects_fabricated_violations() {
        let fake = vec![
            Event::Released {
                time: 1,
                packet: PacketId(0),
            },
            // Crossing with no grant.
            Event::FlitCrossed {
                time: 2,
                packet: PacketId(0),
                link: LinkId(5),
            },
            // Double crossing in one cycle on one channel.
            Event::FlitCrossed {
                time: 3,
                packet: PacketId(1),
                link: LinkId(9),
            },
            Event::FlitCrossed {
                time: 3,
                packet: PacketId(2),
                link: LinkId(9),
            },
            Event::Completed {
                time: 4,
                packet: PacketId(0),
            },
        ];
        let mut expected = HashMap::new();
        expected.insert(PacketId(0), 7);
        let violations = check_trace_invariants(&fake, &expected);
        assert!(violations
            .iter()
            .any(|v| matches!(v, TraceViolation::ChannelOverdriven { .. })));
        assert!(violations
            .iter()
            .any(|v| matches!(v, TraceViolation::CrossedBeforeGrant { .. })));
        assert!(violations.iter().any(|v| matches!(
            v,
            TraceViolation::WrongFlitCount {
                got: 1,
                expected: 7,
                ..
            }
        )));
    }
}
