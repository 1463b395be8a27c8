//! Periodic traffic sources: one per message stream.

use rtwc_core::{MessageStream, StreamId};

/// Release schedule of one stream: messages at `phase + k * T` for
/// `k = 0, 1, 2, ...` (the paper's periodic model; `T` is the *minimum*
/// inter-generation time and the evaluation releases exactly at it).
#[derive(Clone, Debug)]
pub struct Source {
    /// The stream this source feeds.
    pub stream: StreamId,
    period: u64,
    /// Release time of the next message.
    next: u64,
    /// Messages released so far.
    released: u64,
}

impl Source {
    /// Builds the source of `stream` with the given phase offset.
    pub fn new(stream: &MessageStream, phase: u64) -> Self {
        Source {
            stream: stream.id,
            period: stream.period(),
            next: phase,
            released: 0,
        }
    }

    /// The release time of the next message.
    pub fn next_release(&self) -> u64 {
        self.next
    }

    /// Pops every release time `<= now`, in order, as the iterator is
    /// advanced (nothing is collected, so a cycle without a release
    /// costs one comparison).
    pub fn releases_through(&mut self, now: u64) -> impl Iterator<Item = u64> + '_ {
        std::iter::from_fn(move || {
            let release = self.next;
            (release <= now).then(|| {
                self.next += self.period;
                self.released += 1;
                release
            })
        })
    }

    /// Messages released so far.
    pub fn released_count(&self) -> u64 {
        self.released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtwc_core::{StreamSet, StreamSpec};
    use wormnet_topology::{Mesh, Topology, XyRouting};

    fn one_stream(period: u64) -> StreamSet {
        let m = Mesh::mesh2d(4, 4);
        StreamSet::resolve(
            &m,
            &XyRouting,
            &[StreamSpec::new(
                m.node_at(&[0, 0]).unwrap(),
                m.node_at(&[3, 0]).unwrap(),
                1,
                period,
                2,
                period,
            )],
        )
        .unwrap()
    }

    #[test]
    fn releases_at_multiples_of_period() {
        let set = one_stream(10);
        let mut src = Source::new(set.get(StreamId(0)), 0);
        assert_eq!(src.next_release(), 0);
        assert_eq!(src.releases_through(25).collect::<Vec<_>>(), [0, 10, 20]);
        assert_eq!(src.next_release(), 30);
        assert_eq!(src.released_count(), 3);
    }

    #[test]
    fn phase_shifts_schedule() {
        let set = one_stream(10);
        let mut src = Source::new(set.get(StreamId(0)), 7);
        assert_eq!(src.releases_through(25).collect::<Vec<_>>(), [7, 17]);
    }

    #[test]
    fn no_releases_before_phase() {
        let set = one_stream(10);
        let mut src = Source::new(set.get(StreamId(0)), 50);
        assert_eq!(src.releases_through(49).count(), 0);
        assert_eq!(src.releases_through(50).collect::<Vec<_>>(), [50]);
    }
}
