//! The interference index: a materialized, word-packed form of the
//! *directly-affects* relation that every stage of the analysis keys
//! off.
//!
//! The paper's `Generate_HP` discovers blockers by re-testing
//! channel overlap per stream pair, which costs O(n² · L) per target
//! and O(n³ · L) for a whole set. This index computes the relation
//! once — a per-link occupancy table built in one O(total path length)
//! pass, then one bit per ordered pair set while walking each link's
//! (typically short) occupant list — and answers every downstream
//! query with word-parallel bit operations:
//!
//! * HP-set construction ([`InterferenceIndex::hp_set`]) runs the
//!   backward BFS as row unions and extracts intermediate sets as row
//!   intersections, bit-identical to the legacy
//!   [`crate::hpset::generate_hp_oracle`];
//! * blocking-dependency graphs read edges straight off the adjacency
//!   rows ([`crate::bdg::BlockingDependencyGraph::build_indexed`]);
//! * the admission controller maintains the index *incrementally*
//!   ([`InterferenceIndex::insert_last`], [`InterferenceIndex::remove`],
//!   [`InterferenceIndex::remove_last`]), so one ADMIT touches only the
//!   candidate's interference neighborhood instead of rebuilding the
//!   relation from scratch.
//!
//! Layout: two flat `u64` matrices with a shared row stride, one for
//! each direction of the relation (`affects`: row *i* holds everyone
//! *i* can directly block; `affected_by`: row *j* holds everyone that
//! can directly block *j*). Both are kept because the HP BFS walks
//! edges backwards while intermediate-set extraction and the admission
//! controller's damage analysis walk them forwards, and transposing a
//! packed matrix on the fly would cost the O(n²) the index exists to
//! avoid.

use crate::hpset::{BlockingMode, HpElement, HpSet};
use crate::stream::{MessageStream, Priority, StreamId, StreamSet};
use wormnet_topology::LinkId;

/// Materialized directly-affects relation over one stream set. See the
/// module docs for layout and complexity.
#[derive(Clone, Debug, Default)]
pub struct InterferenceIndex {
    /// Number of streams indexed (rows in both matrices).
    n: usize,
    /// Row stride in `u64` words; at least `ceil(n / 64)`, grown
    /// geometrically so incremental inserts re-stride rarely.
    stride: usize,
    /// Cached priorities, indexed by stream id.
    priorities: Vec<Priority>,
    /// Each stream's channel set in increasing link-id order.
    stream_links: Vec<Vec<LinkId>>,
    /// LinkId -> streams whose path uses that channel, in increasing
    /// id order (ids are appended in order, which keeps it sorted).
    link_streams: Vec<Vec<StreamId>>,
    /// `affects[i * stride ..][j]` == 1 iff stream `i` directly affects
    /// stream `j` (higher-or-equal priority and a shared channel).
    affects: Vec<u64>,
    /// The transpose: `affected_by[j * stride ..][i]` == 1 iff `i`
    /// directly affects `j`.
    affected_by: Vec<u64>,
}

/// Iterates the set bits of `row` in increasing position order, calling
/// `f` with each bit index.
#[inline]
fn for_each_set_bit(row: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &w) in row.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            let b = w.trailing_zeros() as usize;
            f(wi * 64 + b);
            w &= w - 1;
        }
    }
}

impl InterferenceIndex {
    /// An empty index (the admission controller's starting state).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the index over a whole set: one occupancy pass, then one
    /// insert per stream in id order — identical to what the admission
    /// controller's incremental maintenance would have produced.
    pub fn build(set: &StreamSet) -> Self {
        let mut index = Self::new();
        for s in set.iter() {
            index.insert_last(s);
        }
        index
    }

    /// Number of streams indexed.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when nothing is indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The adjacency row of `a`: everyone `a` directly affects, packed
    /// 64 streams per word.
    #[inline]
    pub fn affects_row(&self, a: StreamId) -> &[u64] {
        let s = a.index() * self.stride;
        &self.affects[s..s + self.stride]
    }

    /// The transposed row of `b`: everyone that directly affects `b`.
    #[inline]
    pub fn affected_by_row(&self, b: StreamId) -> &[u64] {
        let s = b.index() * self.stride;
        &self.affected_by[s..s + self.stride]
    }

    /// True when `a` directly affects `b` — one bit test.
    #[inline]
    pub fn directly_affects(&self, a: StreamId, b: StreamId) -> bool {
        self.affects_row(a)[b.index() >> 6] >> (b.index() & 63) & 1 == 1
    }

    /// Resident heap footprint in bytes: both bit matrices plus the
    /// occupancy tables, counted by *capacity* (what the allocator
    /// actually holds), not length. This is the gauge the sharded
    /// admission plane reports per shard.
    pub fn memory_bytes(&self) -> usize {
        let word = std::mem::size_of::<u64>();
        let matrices = (self.affects.capacity() + self.affected_by.capacity()) * word;
        let occupancy = self.link_streams.capacity() * std::mem::size_of::<Vec<StreamId>>()
            + self
                .link_streams
                .iter()
                .map(|v| v.capacity() * std::mem::size_of::<StreamId>())
                .sum::<usize>();
        let links = self.stream_links.capacity() * std::mem::size_of::<Vec<LinkId>>()
            + self
                .stream_links
                .iter()
                .map(|v| v.capacity() * std::mem::size_of::<LinkId>())
                .sum::<usize>();
        matrices + occupancy + links + self.priorities.capacity() * std::mem::size_of::<Priority>()
    }

    /// Matrix bytes a stride compaction could release right now: the
    /// difference between what the two matrices hold and the minimal
    /// `n * ceil(n/64)`-word layout. Removals shrink the stride with
    /// hysteresis (see [`InterferenceIndex::remove`]), so this stays a
    /// bounded slack rather than a ratchet; it is surfaced in STATS so
    /// long-lived serve processes can watch it.
    pub fn reclaimable_bytes(&self) -> usize {
        let word = std::mem::size_of::<u64>();
        let held = (self.affects.capacity() + self.affected_by.capacity()) * word;
        let minimal = 2 * self.n * self.n.div_ceil(64) * word;
        held.saturating_sub(minimal)
    }

    /// Streams whose path uses channel `l`, in increasing id order.
    /// Channels beyond every indexed path are empty.
    pub fn link_streams(&self, l: LinkId) -> &[StreamId] {
        self.link_streams
            .get(l.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The connected component of the symmetric *shares-a-channel*
    /// relation reachable from `seed_links`: every indexed stream whose
    /// path transitively shares a channel with a stream occupying one of
    /// the seed channels, in increasing id order.
    ///
    /// Because directly-affects edges only ever connect link-sharing
    /// streams, this component is closed under both HP-set construction
    /// (backward closure) and downstream damage analysis (forward
    /// closure): an admission restricted to the candidate's component
    /// computes bit-identical bounds to one run over the full set. The
    /// sharded plane's neighborhood scan keys on this.
    pub fn link_component(&self, seed_links: &[LinkId]) -> Vec<StreamId> {
        let mut member = vec![false; self.n];
        let mut link_seen = vec![false; self.link_streams.len()];
        let mut frontier: Vec<LinkId> = Vec::new();
        for &l in seed_links {
            if l.index() < link_seen.len() && !link_seen[l.index()] {
                link_seen[l.index()] = true;
                frontier.push(l);
            }
        }
        let mut out: Vec<StreamId> = Vec::new();
        while let Some(l) = frontier.pop() {
            for &s in &self.link_streams[l.index()] {
                if member[s.index()] {
                    continue;
                }
                member[s.index()] = true;
                out.push(s);
                for &l2 in &self.stream_links[s.index()] {
                    if !link_seen[l2.index()] {
                        link_seen[l2.index()] = true;
                        frontier.push(l2);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Appends the stream with the next dense id (`stream.id` must equal
    /// [`InterferenceIndex::len`]): pushes its channels into the
    /// occupancy table and sets its adjacency row and column by walking
    /// only its channels' occupant lists — O(interference neighborhood),
    /// not O(n).
    pub fn insert_last(&mut self, stream: &MessageStream) {
        let id = self.n;
        assert_eq!(stream.id.index(), id, "insert_last requires the next id");
        let needed = (id + 1).div_ceil(64);
        if needed > self.stride {
            self.restride(needed.max(self.stride * 2));
        }
        self.n += 1;
        self.priorities.push(stream.priority());
        self.affects.resize(self.n * self.stride, 0);
        self.affected_by.resize(self.n * self.stride, 0);

        let p_new = stream.priority();
        let links = stream.path.sorted_links().to_vec();
        for &l in &links {
            if l.index() >= self.link_streams.len() {
                self.link_streams.resize_with(l.index() + 1, Vec::new);
            }
            // Occupants all have smaller ids; bit-sets are idempotent,
            // so streams met on several shared channels cost no extra.
            for k in 0..self.link_streams[l.index()].len() {
                let o = self.link_streams[l.index()][k];
                let p_old = self.priorities[o.index()];
                if p_new >= p_old {
                    self.set_edge(StreamId(id as u32), o);
                }
                if p_old >= p_new {
                    self.set_edge(o, StreamId(id as u32));
                }
            }
            self.link_streams[l.index()].push(StreamId(id as u32));
        }
        self.stream_links.push(links);
    }

    /// Undoes the most recent [`InterferenceIndex::insert_last`] — the
    /// admission controller's rollback after a rejected trial. Touches
    /// only the rolled-back stream's neighborhood.
    pub fn remove_last(&mut self) {
        assert!(self.n > 0, "remove_last on an empty index");
        let id = StreamId(self.n as u32 - 1);
        // Clear the column bits in every neighbor's rows. The neighbors
        // are exactly the set bits of the removed stream's two rows.
        let (wi, mask) = (id.index() >> 6, !(1u64 << (id.index() & 63)));
        let mut clear_col = Vec::new();
        for_each_set_bit(self.affects_row(id), |b| clear_col.push(b));
        for b in clear_col.drain(..) {
            self.affected_by[b * self.stride + wi] &= mask;
        }
        for_each_set_bit(self.affected_by_row(id), |b| clear_col.push(b));
        for b in clear_col {
            self.affects[b * self.stride + wi] &= mask;
        }
        for &l in &self.stream_links[id.index()] {
            let popped = self.link_streams[l.index()].pop();
            debug_assert_eq!(popped, Some(id), "last id tops every occupant list");
        }
        self.stream_links.pop();
        self.priorities.pop();
        self.n -= 1;
        self.affects.truncate(self.n * self.stride);
        self.affected_by.truncate(self.n * self.stride);
        self.maybe_shrink();
    }

    /// Removes stream `id`, shifting every id above it down by one —
    /// the mirror of `StreamSet`'s dense-id compaction on removal.
    /// Costs O(total occupancy + n · stride): each remaining row has
    /// one bit deleted by word-level shifts.
    pub fn remove(&mut self, id: StreamId) {
        assert!(id.index() < self.n, "unknown stream {id}");
        if id.index() == self.n - 1 {
            return self.remove_last();
        }
        let i = id.index();
        self.priorities.remove(i);
        self.stream_links.remove(i);
        for occupants in &mut self.link_streams {
            occupants.retain(|&s| s != id);
            for s in occupants.iter_mut() {
                if s.index() > i {
                    *s = StreamId(s.0 - 1);
                }
            }
        }
        let stride = self.stride;
        for matrix in [&mut self.affects, &mut self.affected_by] {
            matrix.drain(i * stride..(i + 1) * stride);
            for row in matrix.chunks_exact_mut(stride) {
                delete_bit(row, i);
            }
        }
        self.n -= 1;
        self.maybe_shrink();
    }

    /// Builds the HP set of `target` off the adjacency rows: backward
    /// BFS by row unions, then direct/indirect classification and
    /// intermediate extraction by row intersection. Bit-identical to
    /// [`crate::hpset::generate_hp_oracle`] (enforced by the randomized
    /// equivalence suite).
    pub fn hp_set(&self, set: &StreamSet, target: StreamId) -> HpSet {
        debug_assert_eq!(set.len(), self.n, "index and set out of sync");
        let stride = self.stride.max(1);
        let target_row = self.affected_by_row(target);
        // member := transitive closure of affected-by from the target.
        // The target is never a member (mirroring the oracle, which
        // skips it during expansion), so its bit is masked out of every
        // union round.
        let (twi, tmask) = (target.index() >> 6, !(1u64 << (target.index() & 63)));
        let mut member = target_row.to_vec();
        member[twi] &= tmask;
        let mut frontier = member.clone();
        let mut next = vec![0u64; stride];
        loop {
            next.fill(0);
            for_each_set_bit(&frontier, |x| {
                for (acc, &w) in next
                    .iter_mut()
                    .zip(self.affected_by_row(StreamId(x as u32)))
                {
                    *acc |= w;
                }
            });
            next[twi] &= tmask;
            let mut grew = false;
            for (f, (m, &nw)) in frontier.iter_mut().zip(member.iter_mut().zip(next.iter())) {
                *f = nw & !*m;
                *m |= nw;
                grew |= *f != 0;
            }
            if !grew {
                break;
            }
        }

        let mut elements = Vec::new();
        for_each_set_bit(&member, |k| {
            let k_id = StreamId(k as u32);
            let direct = target_row[k >> 6] >> (k & 63) & 1 == 1;
            let (mode, intermediates) = if direct {
                (BlockingMode::Direct, Vec::new())
            } else {
                // Successors one chain-step closer to the target:
                // everyone k affects that is itself a member. Bit order
                // is id order, which is the oracle's sort order.
                let mut inter = Vec::new();
                let row = self.affects_row(k_id);
                for (wi, (&a, &m)) in row.iter().zip(member.iter()).enumerate() {
                    let mut w = a & m;
                    while w != 0 {
                        inter.push(StreamId((wi * 64 + w.trailing_zeros() as usize) as u32));
                        w &= w - 1;
                    }
                }
                (BlockingMode::Indirect, inter)
            };
            elements.push(HpElement {
                stream: k_id,
                mode,
                intermediates,
            });
        });
        elements.sort_by(|a, b| {
            self.priorities[b.stream.index()]
                .cmp(&self.priorities[a.stream.index()])
                .then(a.stream.cmp(&b.stream))
        });
        HpSet::from_elements(target, elements)
    }

    /// HP sets for every stream, indexed by stream id — the indexed
    /// form of the paper's outer `Generate_HP` loop.
    pub fn hp_sets(&self, set: &StreamSet) -> Vec<HpSet> {
        set.ids().map(|id| self.hp_set(set, id)).collect()
    }

    /// Streams whose delay bound can change when `changed` is admitted
    /// or removed: `changed` itself plus its transitive closure under
    /// forward directly-affects edges, in increasing id order.
    pub fn downstream(&self, changed: StreamId) -> Vec<StreamId> {
        let stride = self.stride.max(1);
        let mut member = vec![0u64; stride];
        member[changed.index() >> 6] |= 1u64 << (changed.index() & 63);
        let mut frontier = member.clone();
        let mut next = vec![0u64; stride];
        loop {
            next.fill(0);
            for_each_set_bit(&frontier, |x| {
                for (acc, &w) in next.iter_mut().zip(self.affects_row(StreamId(x as u32))) {
                    *acc |= w;
                }
            });
            let mut grew = false;
            for (f, (m, &nw)) in frontier.iter_mut().zip(member.iter_mut().zip(next.iter())) {
                *f = nw & !*m;
                *m |= nw;
                grew |= *f != 0;
            }
            if !grew {
                break;
            }
        }
        let mut out = Vec::new();
        for_each_set_bit(&member, |b| out.push(StreamId(b as u32)));
        out
    }

    #[inline]
    fn set_edge(&mut self, a: StreamId, b: StreamId) {
        self.affects[a.index() * self.stride + (b.index() >> 6)] |= 1u64 << (b.index() & 63);
        self.affected_by[b.index() * self.stride + (a.index() >> 6)] |= 1u64 << (a.index() & 63);
    }

    /// Re-lays both matrices out with a different row stride. Growing
    /// copies old words and zero-fills the rest (amortized: called every
    /// 64th, and with geometric growth ever rarer, insert). Shrinking
    /// copies the still-populated prefix of each row — callers only
    /// shrink below the high-water mark of set bits, which
    /// [`InterferenceIndex::maybe_shrink`] guarantees by never going
    /// under `ceil(n / 64)` words. The fresh allocation also releases
    /// capacity slack left behind by `truncate`/`drain`.
    fn restride(&mut self, new_stride: usize) {
        let old = self.stride;
        if new_stride == old {
            return;
        }
        let copy = old.min(new_stride);
        for matrix in [&mut self.affects, &mut self.affected_by] {
            debug_assert!(
                matrix
                    .chunks_exact(old.max(1))
                    .all(|row| row[copy..].iter().all(|&w| w == 0)),
                "shrink would drop set bits"
            );
            let mut fresh = vec![0u64; self.n * new_stride];
            if copy > 0 {
                for (r, row) in matrix.chunks_exact(old).enumerate() {
                    fresh[r * new_stride..r * new_stride + copy].copy_from_slice(&row[..copy]);
                }
            }
            *matrix = fresh;
        }
        self.stride = new_stride;
    }

    /// Releases matrix memory after removals. `delete_bit` compacts ids
    /// within rows but never narrows them, so without this a serve
    /// process that churned up to n streams and back down would hold
    /// O(n²) bits forever. Policy, with hysteresis so the admit path's
    /// trial-insert/rollback never thrashes:
    ///
    /// * empty index → reset to the pristine zero-capacity state;
    /// * stride ≥ 4 × `ceil(n / 64)` → restride down to 2 ×, mirroring
    ///   the doubling growth (grow again only after n doubles, shrink
    ///   again only after it halves);
    /// * otherwise, if the vectors hold ≥ 4 × their length in capacity
    ///   (truncate/drain never release), give the slack back.
    fn maybe_shrink(&mut self) {
        if self.n == 0 {
            *self = Self::default();
            return;
        }
        let needed = self.n.div_ceil(64);
        if self.stride >= needed * 4 {
            self.restride(needed * 2);
        } else if self.affects.capacity() >= 4 * self.n * self.stride {
            self.affects.shrink_to_fit();
            self.affected_by.shrink_to_fit();
        }
    }

    /// Matrix capacity alone (the part removals used to ratchet).
    #[cfg(test)]
    fn matrix_bytes(&self) -> usize {
        (self.affects.capacity() + self.affected_by.capacity()) * std::mem::size_of::<u64>()
    }
}

/// Logical equality: same relation over the same streams, regardless of
/// stride slack or occupancy-table capacity. This is what the
/// incremental-vs-fresh property tests compare.
impl PartialEq for InterferenceIndex {
    fn eq(&self, other: &Self) -> bool {
        if self.n != other.n
            || self.priorities != other.priorities
            || self.stream_links != other.stream_links
        {
            return false;
        }
        let max_links = self.link_streams.len().max(other.link_streams.len());
        for l in 0..max_links {
            if self.link_streams(LinkId(l as u32)) != other.link_streams(LinkId(l as u32)) {
                return false;
            }
        }
        let words = self.n.div_ceil(64);
        (0..self.n).all(|i| {
            let id = StreamId(i as u32);
            self.affects_row(id)[..words] == other.affects_row(id)[..words]
                && self.affected_by_row(id)[..words] == other.affected_by_row(id)[..words]
        })
    }
}

impl Eq for InterferenceIndex {}

/// Deletes bit `bit` from a packed row, shifting every higher bit down
/// by one (the id compaction of [`InterferenceIndex::remove`]).
fn delete_bit(row: &mut [u64], bit: usize) {
    let (w, b) = (bit >> 6, bit & 63);
    let low = (1u64 << b) - 1;
    row[w] = (row[w] & low) | ((row[w] >> 1) & !low);
    for i in w + 1..row.len() {
        row[i - 1] |= (row[i] & 1) << 63;
        row[i] >>= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpset::{generate_hp_oracle, generate_hp_sets_oracle};
    use crate::stream::StreamSpec;
    use wormnet_topology::{Mesh, Topology, XyRouting};

    fn build_set(specs: &[([u32; 2], [u32; 2], u32)]) -> StreamSet {
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

    fn chain() -> StreamSet {
        build_set(&[
            ([0, 0], [2, 0], 1), // T
            ([1, 0], [4, 0], 2), // Y direct
            ([3, 0], [6, 0], 3), // X indirect via Y
            ([5, 0], [8, 0], 4), // W indirect via X
        ])
    }

    #[test]
    fn relation_matches_pairwise_tests() {
        let set = chain();
        let index = InterferenceIndex::build(&set);
        for a in set.ids() {
            for b in set.ids() {
                assert_eq!(
                    index.directly_affects(a, b),
                    set.get(a).directly_affects(set.get(b)),
                    "{a} -> {b}"
                );
            }
        }
    }

    #[test]
    fn hp_sets_match_oracle() {
        let set = chain();
        let index = InterferenceIndex::build(&set);
        assert_eq!(index.hp_sets(&set), generate_hp_sets_oracle(&set));
    }

    #[test]
    fn occupancy_lists_are_sorted_and_complete() {
        let set = chain();
        let index = InterferenceIndex::build(&set);
        for s in set.iter() {
            for &l in s.path.links() {
                let occ = index.link_streams(l);
                assert!(occ.windows(2).all(|w| w[0] < w[1]), "sorted {l:?}");
                assert!(occ.contains(&s.id), "{l:?} lists {}", s.id);
            }
        }
        assert!(index.link_streams(LinkId(9999)).is_empty());
    }

    #[test]
    fn downstream_includes_self_and_blockees() {
        let set = chain();
        let index = InterferenceIndex::build(&set);
        // W (id 3, top priority) transitively blocks everyone below.
        assert_eq!(
            index.downstream(StreamId(3)),
            vec![StreamId(0), StreamId(1), StreamId(2), StreamId(3)]
        );
        // T (id 0, bottom) blocks nobody.
        assert_eq!(index.downstream(StreamId(0)), vec![StreamId(0)]);
    }

    #[test]
    fn insert_then_remove_last_restores_the_index() {
        let set = chain();
        let mut index = InterferenceIndex::new();
        for s in set.iter().take(3) {
            index.insert_last(s);
        }
        let before = index.clone();
        index.insert_last(set.get(StreamId(3)));
        assert_eq!(index.len(), 4);
        index.remove_last();
        assert_eq!(index, before);
    }

    #[test]
    fn remove_matches_fresh_build_of_the_smaller_set() {
        let set = build_set(&[
            ([0, 0], [4, 0], 1),
            ([2, 0], [6, 0], 2),
            ([3, 0], [7, 0], 2),
            ([5, 0], [9, 0], 3),
            ([0, 2], [5, 2], 1),
        ]);
        for victim in set.ids() {
            let mut index = InterferenceIndex::build(&set);
            index.remove(victim);
            let parts: Vec<_> = set
                .iter()
                .filter(|s| s.id != victim)
                .map(|s| (s.spec.clone(), s.path.clone()))
                .collect();
            let smaller = StreamSet::from_parts(parts).unwrap();
            assert_eq!(index, InterferenceIndex::build(&smaller), "victim {victim}");
            assert_eq!(index.hp_sets(&smaller), generate_hp_sets_oracle(&smaller));
        }
    }

    #[test]
    fn stride_growth_across_word_boundary() {
        // 70 disjoint streams on a big mesh cross the 64-bit boundary.
        let m = Mesh::mesh2d(12, 12);
        let mut specs = Vec::new();
        for i in 0..70u32 {
            let (x, y) = (i % 11, i % 12);
            specs.push(StreamSpec::new(
                m.node_at(&[x, y]).unwrap(),
                m.node_at(&[x + 1, y]).unwrap(),
                1 + i % 5,
                100,
                2,
                100,
            ));
        }
        let set = StreamSet::resolve(&m, &XyRouting, &specs).unwrap();
        let index = InterferenceIndex::build(&set);
        for id in set.ids() {
            assert_eq!(index.hp_set(&set, id), generate_hp_oracle(&set, id), "{id}");
        }
        // Removing a low id exercises cross-word bit deletion.
        let mut pruned = index.clone();
        pruned.remove(StreamId(3));
        let parts: Vec<_> = set
            .iter()
            .filter(|s| s.id != StreamId(3))
            .map(|s| (s.spec.clone(), s.path.clone()))
            .collect();
        let smaller = StreamSet::from_parts(parts).unwrap();
        assert_eq!(pruned, InterferenceIndex::build(&smaller));
    }

    /// 300+ pairwise-disjoint single-hop streams on a 20x20 mesh: each
    /// occupies one distinct horizontal channel, so inserts/removals in
    /// bulk exercise stride growth past several word boundaries.
    fn disjoint_set() -> StreamSet {
        let m = Mesh::mesh2d(20, 20);
        let mut specs = Vec::new();
        for y in 0..16u32 {
            for x in 0..19u32 {
                specs.push(StreamSpec::new(
                    m.node_at(&[x, y]).unwrap(),
                    m.node_at(&[x + 1, y]).unwrap(),
                    1 + (x + y) % 5,
                    100,
                    2,
                    100,
                ));
            }
        }
        StreamSet::resolve(&m, &XyRouting, &specs).unwrap()
    }

    #[test]
    fn removal_shrinks_matrix_memory() {
        let set = disjoint_set();
        let mut index = InterferenceIndex::build(&set);
        let full = index.matrix_bytes();
        let full_total = index.memory_bytes();
        // Remove from the front (worst case: every removal shifts bits)
        // until 10 streams remain. The stride needed drops from 5 words
        // to 1; the shrink hysteresis must have fired along the way.
        while index.len() > 10 {
            index.remove(StreamId(0));
        }
        let small = index.matrix_bytes();
        assert!(
            small * 4 < full,
            "matrix memory did not shrink: {full} -> {small} bytes"
        );
        assert!(
            index.memory_bytes() < full_total,
            "total footprint must drop too"
        );
        // Remaining slack is bounded (stride headroom + allocator
        // capacity headroom, each at most one doubling) — before the
        // shrink this was tens of kilobytes.
        assert!(
            index.reclaimable_bytes() < 1024,
            "reclaimable slack ratcheted: {} bytes over {} streams",
            index.reclaimable_bytes(),
            index.len()
        );
        // Shrinking preserved the relation: identical to a fresh build.
        let parts: Vec<_> = set
            .iter()
            .skip(set.len() - 10)
            .map(|s| (s.spec.clone(), s.path.clone()))
            .collect();
        let survivors = StreamSet::from_parts(parts).unwrap();
        assert_eq!(index, InterferenceIndex::build(&survivors));
        assert_eq!(
            index.hp_sets(&survivors),
            generate_hp_sets_oracle(&survivors)
        );
    }

    #[test]
    fn draining_to_empty_releases_everything() {
        let set = disjoint_set();
        let mut index = InterferenceIndex::build(&set);
        assert!(index.memory_bytes() > 0);
        for _ in 0..set.len() {
            index.remove_last();
        }
        assert!(index.is_empty());
        assert_eq!(index.memory_bytes(), 0, "empty index must hold no heap");
        assert_eq!(index.reclaimable_bytes(), 0);
    }

    #[test]
    fn rollback_churn_does_not_thrash_or_leak() {
        // The admit path's trial insert + rollback at a word boundary
        // must neither restride up-and-down per cycle nor accumulate
        // capacity. 64 resident streams, churn the 65th.
        let set = disjoint_set();
        let mut index = InterferenceIndex::new();
        for s in set.iter().take(64) {
            index.insert_last(s);
        }
        let churn = set.get(StreamId(64));
        index.insert_last(churn);
        index.remove_last();
        let settled = index.memory_bytes();
        for _ in 0..100 {
            index.insert_last(churn);
            index.remove_last();
        }
        assert_eq!(index.memory_bytes(), settled, "churn ratcheted memory");
    }

    #[test]
    fn delete_bit_shifts_across_words() {
        let mut row = vec![0u64; 2];
        row[0] = 1 << 10 | 1 << 63;
        row[1] = 1 << 0 | 1 << 5;
        // Delete bit 10: 63 -> 62, 64 -> 63, 69 -> 68.
        delete_bit(&mut row, 10);
        assert_eq!(row[0], 1 << 62 | 1 << 63);
        assert_eq!(row[1], 1 << 4);
    }
}
