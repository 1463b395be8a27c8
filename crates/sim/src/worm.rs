//! In-flight wormhole packets ("worms") and their per-link progress.

use rtwc_core::StreamId;
use wormnet_topology::LinkId;

/// Dense simulator index of a packet (one message instance).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PacketId(pub u32);

impl PacketId {
    /// The id as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A worm's progress over one channel of its route.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Hop {
    /// Flits that have crossed the channel.
    pub crossed: u64,
    /// The VC held on the channel, as an index into the simulator's
    /// table of all VCs of all channels (meaningful once acquired).
    pub slot: u32,
}

/// One message instance worming through the network.
///
/// Rather than materializing individual flits, a worm tracks how many
/// flits have crossed each channel of its route; buffer occupancies and
/// flit positions are all derivable from those counters:
///
/// * flits resident in the VC buffer at the downstream end of channel
///   `i` = `hops[i].crossed - hops[i + 1].crossed`;
/// * the head has reached channel `i`'s downstream router iff
///   `hops[i].crossed > 0`.
///
/// The counters never decrease along the route, so the channels the
/// whole message has crossed (`crossed == length`) are a prefix of it.
/// The worm holds a VC on exactly the channels `tail..acquired`: the
/// engine releases a channel's VC in the cycle its tail flit crosses,
/// which is when `tail` moves past it.
///
/// A cycle's decisions all read the worm before any of them is applied
/// ([`Worm::apply_cross`] runs after the last), so they see its
/// cycle-start state and a flit advances at most one hop per cycle.
#[derive(Clone, Debug)]
pub struct Worm<'a> {
    /// Simulator packet index.
    pub id: PacketId,
    /// The stream this message belongs to.
    pub stream: StreamId,
    /// Priority class (0-based, larger = more urgent).
    pub class: u32,
    /// Message length in flits (`C_i` of the stream).
    pub length: u64,
    /// The deterministic route: the channels of the stream's path.
    pub route: &'a [LinkId],
    /// Channels `route[..tail]` have carried the whole message and
    /// their VCs are released.
    pub tail: usize,
    /// Channels `route[tail..acquired]` hold a VC owned by this worm.
    pub acquired: usize,
    /// Progress per channel of the route.
    pub hops: Vec<Hop>,
    /// When the worm started waiting for its next VC (FCFS tie-break).
    pub requesting_since: Option<u64>,
}

impl<'a> Worm<'a> {
    /// A freshly released message: nothing acquired, nothing crossed.
    /// `hops` is any buffer to reuse for the per-channel progress.
    pub fn new(
        id: PacketId,
        stream: StreamId,
        class: u32,
        length: u64,
        route: &'a [LinkId],
        mut hops: Vec<Hop>,
    ) -> Self {
        assert!(!route.is_empty(), "worm route must cross a channel");
        assert!(length > 0, "worm must carry at least one flit");
        hops.clear();
        hops.resize(route.len(), Hop::default());
        Worm {
            id,
            stream,
            class,
            length,
            route,
            tail: 0,
            acquired: 0,
            hops,
            requesting_since: None,
        }
    }

    /// The next channel whose VC the head must acquire, if any.
    pub fn next_link(&self) -> Option<LinkId> {
        self.route.get(self.acquired).copied()
    }

    /// True when the head flit is positioned to request the VC of
    /// `route[self.acquired]`: either the worm has not entered the
    /// network yet (source injection) or the head sits in the buffer at
    /// the downstream end of the previously acquired channel.
    pub fn head_ready(&self) -> bool {
        match self.acquired {
            0 => true,
            i => self.hops[i - 1].crossed > 0,
        }
    }

    /// Records the grant of the VC `slot` on the next channel of the
    /// route.
    pub fn grant(&mut self, slot: u32) {
        self.hops[self.acquired].slot = slot;
        self.acquired += 1;
        self.requesting_since = None;
    }

    /// The channels this worm wants (and is internally able) to cross a
    /// flit over this cycle, as `(index in the route, progress)`: those
    /// whose VC is held and that have a flit upstream (uninjected for
    /// channel 0, otherwise resident in the previous channel's buffer).
    /// The engine additionally checks downstream buffer credit (which
    /// is per-VC state shared with previous owners, so it lives in the
    /// engine, not here).
    pub fn ready_hops(&self) -> impl Iterator<Item = (usize, &Hop)> {
        // Everything before `tail` has carried the whole message, so
        // `length` flits are (or were) upstream of the first held hop.
        let mut upstream = self.length;
        let held = self.tail..self.acquired;
        held.clone().zip(&self.hops[held]).filter(move |(_, hop)| {
            let ready = upstream > hop.crossed;
            upstream = hop.crossed;
            ready
        })
    }

    /// True when crossing channel `i` deposits the flit into the VC
    /// buffer at the channel's downstream end (false at the final hop,
    /// where the destination ejects immediately).
    pub fn enters_buffer(&self, i: usize) -> bool {
        i + 1 != self.route.len()
    }

    /// Records a flit crossing channel `i` (applied after all decisions).
    pub fn apply_cross(&mut self, i: usize) {
        debug_assert!(self.hops[i].crossed < self.length);
        self.hops[i].crossed += 1;
    }

    /// Moves `tail` past the channel it points at if that channel's VC
    /// can be released, returning the channel's index: the tail flit
    /// has been transmitted across it. (Residual flits still draining
    /// from the downstream buffer are accounted by the engine's per-VC
    /// occupancy counters, exactly like credit-based flow control in a
    /// real VC router — a successor packet may own the VC while the
    /// predecessor's tail is still buffered, it just cannot overfill
    /// the buffer.)
    pub fn advance_tail(&mut self) -> Option<usize> {
        let i = self.tail;
        (i < self.acquired && self.hops[i].crossed == self.length).then(|| {
            self.tail += 1;
            i
        })
    }

    /// True when the tail has crossed the final channel and `tail` has
    /// caught up with it.
    pub fn is_done(&self) -> bool {
        self.tail == self.route.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROUTE: [LinkId; 3] = [LinkId(0), LinkId(1), LinkId(2)];

    fn worm(hops: usize, len: u64) -> Worm<'static> {
        Worm::new(PacketId(0), StreamId(0), 1, len, &ROUTE[..hops], Vec::new())
    }

    fn set_crossed(w: &mut Worm<'_>, crossed: &[u64]) {
        for (hop, &c) in w.hops.iter_mut().zip(crossed) {
            hop.crossed = c;
        }
    }

    fn ready(w: &Worm<'_>) -> Vec<usize> {
        w.ready_hops().map(|(i, _)| i).collect()
    }

    #[test]
    fn fresh_worm_requests_first_link() {
        let w = worm(3, 4);
        assert_eq!(w.next_link(), Some(LinkId(0)));
        assert!(w.head_ready());
        assert!(!w.is_done());
    }

    #[test]
    fn cannot_cross_unacquired_link() {
        let w = worm(3, 4);
        assert!(ready(&w).is_empty(), "no VC held yet");
    }

    #[test]
    fn reused_buffer_starts_clean() {
        let stale = vec![
            Hop {
                crossed: 9,
                slot: 3
            };
            5
        ];
        let w = Worm::new(PacketId(0), StreamId(0), 1, 4, &ROUTE[..2], stale);
        assert_eq!(w.hops, vec![Hop::default(); 2]);
    }

    #[test]
    fn pipeline_counters() {
        let mut w = worm(3, 4);
        w.grant(0);
        w.grant(0);
        // 3 flits crossed link 0, 1 crossed link 1.
        set_crossed(&mut w, &[3, 1, 0]);
        assert_eq!(ready(&w), vec![0, 1], "link 2 not acquired");
        // The buffer between links 0 and 1 drains: nothing upstream of
        // link 1, one flit still to inject over link 0.
        set_crossed(&mut w, &[3, 3, 0]);
        assert_eq!(ready(&w), vec![0]);
        w.grant(0);
        assert_eq!(ready(&w), vec![0, 2]);
        assert!(w.enters_buffer(0));
        assert!(w.enters_buffer(1));
        assert!(!w.enters_buffer(2), "final hop ejects");
    }

    #[test]
    fn head_ready_after_crossing_previous() {
        let mut w = worm(3, 4);
        w.grant(0);
        assert_eq!(w.next_link(), Some(LinkId(1)));
        assert!(!w.head_ready(), "head not yet across link 0");
        w.apply_cross(0);
        assert!(w.head_ready());
    }

    #[test]
    fn release_and_completion() {
        let mut w = worm(2, 3);
        w.grant(0);
        w.grant(0);
        set_crossed(&mut w, &[2, 1]);
        assert_eq!(w.advance_tail(), None, "tail not yet across link 0");
        set_crossed(&mut w, &[3, 2]);
        assert_eq!(w.advance_tail(), Some(0), "tail transmitted across link 0");
        assert_eq!(w.advance_tail(), None);
        assert_eq!(ready(&w), vec![1], "a released link carries nothing more");
        assert!(!w.is_done());
        set_crossed(&mut w, &[3, 3]);
        assert_eq!(w.advance_tail(), Some(1), "tail ejected at destination");
        assert!(w.is_done());
        assert!(ready(&w).is_empty());
        assert_eq!(w.next_link(), None);
    }

    #[test]
    fn tail_stops_at_the_last_acquired_link() {
        let mut w = worm(2, 1);
        w.grant(0);
        w.apply_cross(0);
        assert_eq!(w.advance_tail(), Some(0));
        assert_eq!(w.advance_tail(), None, "link 1 not acquired yet");
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_length_rejected() {
        worm(2, 0);
    }
}
