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
//!   ([`InterferenceIndex::insert_last`], [`InterferenceIndex::remove`]),
//!   so one ADMIT or REMOVE touches only that stream's interference
//!   neighborhood instead of rebuilding the relation from scratch.
//!
//! Layout: two flat `u64` matrices with a shared row stride, one for
//! each direction of the relation (`affects`: row *i* holds everyone
//! *i* can directly block; `affected_by`: row *j* holds everyone that
//! can directly block *j*). Both are kept because the HP BFS walks
//! edges backwards while intermediate-set extraction and the admission
//! controller's damage analysis walk them forwards, and transposing a
//! packed matrix on the fly would cost the O(n²) the index exists to
//! avoid.
//!
//! Rows, columns and every per-stream table are keyed by *slot*, not by
//! stream id. Dense ids shift down when a stream leaves; slots do not:
//! the hole is filled by the last slot alone, so a removal rewrites one
//! stream's neighborhood instead of every row. Two `u32` arrays
//! (`slot_of[id]`, `id_of[slot]`) are the only state that bears ids, and
//! every public function takes and returns dense ids, translating at
//! its edges. After [`InterferenceIndex::build`] the mapping is the
//! identity.

use crate::hpset::{BlockingMode, HpElement, HpSet};
use crate::stream::{MessageStream, Priority, StreamId, StreamSet};
use wormnet_topology::LinkId;

/// Materialized directly-affects relation over one stream set. See the
/// module docs for layout and complexity.
#[derive(Clone, Debug, Default)]
pub struct InterferenceIndex {
    /// Number of streams indexed: ids and slots are both `0..n`.
    n: usize,
    /// Row stride in `u64` words; at least `ceil(n / 64)`, grown by a
    /// quarter at a time so incremental inserts re-stride rarely while
    /// every row union and the resident matrices carry at most 25% of
    /// slack words.
    stride: usize,
    /// Dense stream id -> slot.
    slot_of: Vec<u32>,
    /// Slot -> dense stream id (the inverse permutation).
    id_of: Vec<u32>,
    /// Cached priorities, indexed by slot.
    priorities: Vec<Priority>,
    /// Each slot's channel set in increasing link-id order.
    stream_links: Vec<Vec<LinkId>>,
    /// LinkId -> slots whose path uses that channel, in no particular
    /// order.
    link_streams: Vec<Vec<u32>>,
    /// `affects[i * stride ..][j]` == 1 iff the stream in slot `i`
    /// directly affects the one in slot `j` (higher-or-equal priority
    /// and a shared channel).
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

    #[inline]
    fn slot(&self, id: StreamId) -> usize {
        self.slot_of[id.index()] as usize
    }

    /// The adjacency row of slot `a`: every slot `a` directly affects,
    /// packed 64 per word.
    #[inline]
    fn affects_row(&self, a: usize) -> &[u64] {
        &self.affects[a * self.stride..(a + 1) * self.stride]
    }

    /// The transposed row of slot `b`: every slot that directly affects
    /// `b`.
    #[inline]
    fn affected_by_row(&self, b: usize) -> &[u64] {
        &self.affected_by[b * self.stride..(b + 1) * self.stride]
    }

    /// True when `a` directly affects `b` — one bit test.
    #[inline]
    pub fn directly_affects(&self, a: StreamId, b: StreamId) -> bool {
        let b = self.slot(b);
        self.affects_row(self.slot(a))[b >> 6] >> (b & 63) & 1 == 1
    }

    /// Resident heap footprint in bytes: both bit matrices, the
    /// occupancy tables and the per-stream arrays, counted by *capacity*
    /// (what the allocator actually holds), not length.
    pub fn memory_bytes(&self) -> usize {
        let word = std::mem::size_of::<u64>();
        let matrices = (self.affects.capacity() + self.affected_by.capacity()) * word;
        let occupancy = self.link_streams.capacity() * std::mem::size_of::<Vec<u32>>()
            + self
                .link_streams
                .iter()
                .map(|v| v.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>();
        let links = self.stream_links.capacity() * std::mem::size_of::<Vec<LinkId>>()
            + self
                .stream_links
                .iter()
                .map(|v| v.capacity() * std::mem::size_of::<LinkId>())
                .sum::<usize>();
        let per_stream = (self.slot_of.capacity() + self.id_of.capacity())
            * std::mem::size_of::<u32>()
            + self.priorities.capacity() * std::mem::size_of::<Priority>();
        matrices + occupancy + links + per_stream
    }

    /// Matrix bytes a stride compaction could release right now: the
    /// difference between what the two matrices hold and the minimal
    /// `n * ceil(n/64)`-word layout. Removals shrink the stride with
    /// hysteresis (see [`InterferenceIndex::remove`]), so this stays a
    /// bounded slack rather than a ratchet.
    pub fn reclaimable_bytes(&self) -> usize {
        let word = std::mem::size_of::<u64>();
        let held = (self.affects.capacity() + self.affected_by.capacity()) * word;
        let minimal = 2 * self.n * self.n.div_ceil(64) * word;
        held.saturating_sub(minimal)
    }

    /// Streams whose path uses channel `l`, in no particular order.
    /// Channels beyond every indexed path are empty.
    pub fn link_streams(&self, l: LinkId) -> impl Iterator<Item = StreamId> + '_ {
        let occupants = self.link_streams.get(l.index());
        (occupants.into_iter().flatten()).map(|&s| StreamId(self.id_of[s as usize]))
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
    /// computes bit-identical bounds to one run over the full set.
    /// [`crate::ShardedController`]'s neighborhood scan keys on this.
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
                let s = s as usize;
                if member[s] {
                    continue;
                }
                member[s] = true;
                out.push(StreamId(self.id_of[s]));
                for &l2 in &self.stream_links[s] {
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
    /// [`InterferenceIndex::len`]) in the next slot: pushes its channels
    /// into the occupancy table and sets its adjacency row and column by
    /// walking only its channels' occupant lists — O(interference
    /// neighborhood), not O(n).
    pub fn insert_last(&mut self, stream: &MessageStream) {
        let slot = self.n;
        assert_eq!(stream.id.index(), slot, "insert_last requires the next id");
        let needed = (slot + 1).div_ceil(64);
        if needed > self.stride {
            self.restride(needed.max(self.stride + self.stride / 4));
        }
        self.n += 1;
        self.slot_of.push(slot as u32);
        self.id_of.push(slot as u32);
        self.priorities.push(stream.priority());
        self.affects.resize(self.n * self.stride, 0);
        self.affected_by.resize(self.n * self.stride, 0);

        let p_new = stream.priority();
        let links = stream.path.sorted_links().to_vec();
        for &l in &links {
            if l.index() >= self.link_streams.len() {
                self.link_streams.resize_with(l.index() + 1, Vec::new);
            }
            // Bit-sets are idempotent, so streams met on several shared
            // channels cost no extra.
            for k in 0..self.link_streams[l.index()].len() {
                let o = self.link_streams[l.index()][k] as usize;
                let p_old = self.priorities[o];
                if p_new >= p_old {
                    self.set_edge(slot, o);
                }
                if p_old >= p_new {
                    self.set_edge(o, slot);
                }
            }
            self.link_streams[l.index()].push(slot as u32);
        }
        self.stream_links.push(links);
    }

    /// Undoes the most recent [`InterferenceIndex::insert_last`] — the
    /// admission controller's rollback after a rejected trial.
    pub fn remove_last(&mut self) {
        assert!(self.n > 0, "remove_last on an empty index");
        self.remove(StreamId(self.n as u32 - 1));
    }

    /// Removes stream `id`, shifting every id above it down by one —
    /// the mirror of `StreamSet`'s dense-id compaction on removal.
    /// Slots stay put: the leaving slot's column is cleared in its
    /// neighbors' rows, the last slot moves into the hole, and only the
    /// two translation arrays are renumbered. O(the two neighborhoods)
    /// plus one O(n) pass over `u32`s.
    pub fn remove(&mut self, id: StreamId) {
        assert!(id.index() < self.n, "unknown stream {id}");
        let (hole, last) = (self.slot_of.remove(id.index()) as usize, self.n - 1);
        for i in &mut self.id_of {
            *i -= u32::from(*i > id.0);
        }
        self.move_column(hole, None);
        for l in self.stream_links.swap_remove(hole) {
            let occupants = &mut self.link_streams[l.index()];
            let at = occupants.iter().position(|&s| s as usize == hole);
            occupants.swap_remove(at.expect("a stream occupies its own channels"));
        }
        self.priorities.swap_remove(hole);
        self.id_of.swap_remove(hole);
        if hole != last {
            // The swap_removes above moved the last slot's entries into
            // the hole; its column, occupancies and rows follow.
            self.slot_of[self.id_of[hole] as usize] = hole as u32;
            self.move_column(last, Some(hole));
            for &l in &self.stream_links[hole] {
                let occupants = &mut self.link_streams[l.index()];
                let at = occupants.iter().position(|&s| s as usize == last);
                occupants[at.expect("a stream occupies its own channels")] = hole as u32;
            }
            let stride = self.stride;
            for matrix in [&mut self.affects, &mut self.affected_by] {
                matrix.copy_within(last * stride..(last + 1) * stride, hole * stride);
            }
        }
        self.n -= 1;
        self.affects.truncate(self.n * self.stride);
        self.affected_by.truncate(self.n * self.stride);
        self.maybe_shrink();
    }

    /// Clears column `from` — and, given `Some(to)`, sets column `to` in
    /// its place — in every row that can hold it: the neighbors named by
    /// slot `from`'s own two rows.
    fn move_column(&mut self, from: usize, to: Option<usize>) {
        let stride = self.stride;
        let own = from * stride..(from + 1) * stride;
        let rewrite = |named_by: &[u64], matrix: &mut [u64]| {
            for_each_set_bit(named_by, |b| {
                let row = &mut matrix[b * stride..(b + 1) * stride];
                row[from >> 6] &= !(1u64 << (from & 63));
                if let Some(to) = to {
                    row[to >> 6] |= 1u64 << (to & 63);
                }
            });
        };
        rewrite(&self.affects[own.clone()], &mut self.affected_by);
        rewrite(&self.affected_by[own], &mut self.affects);
    }

    /// Builds the HP set of `target` off the adjacency rows: backward
    /// BFS by row unions, then direct/indirect classification and
    /// intermediate extraction by row intersection. Bit-identical to
    /// [`crate::hpset::generate_hp_oracle`] (enforced by the randomized
    /// equivalence suite).
    pub fn hp_set(&self, set: &StreamSet, target: StreamId) -> HpSet {
        debug_assert_eq!(set.len(), self.n, "index and set out of sync");
        let stride = self.stride.max(1);
        let t = self.slot(target);
        let target_row = self.affected_by_row(t);
        // member := transitive closure of affected-by from the target,
        // in slot space. The target is never a member (mirroring the
        // oracle, which skips it during expansion), so its bit is
        // masked out of every union round.
        let (twi, tmask) = (t >> 6, !(1u64 << (t & 63)));
        let mut member = target_row.to_vec();
        member[twi] &= tmask;
        let mut frontier = member.clone();
        let mut next = vec![0u64; stride];
        loop {
            next.fill(0);
            for_each_set_bit(&frontier, |x| {
                for (acc, &w) in next.iter_mut().zip(self.affected_by_row(x)) {
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
            let direct = target_row[k >> 6] >> (k & 63) & 1 == 1;
            let (mode, intermediates) = if direct {
                (BlockingMode::Direct, Vec::new())
            } else {
                // Successors one chain-step closer to the target:
                // everyone k affects that is itself a member. Bit order
                // is slot order; the oracle lists them in id order.
                let mut inter = Vec::new();
                let row = self.affects_row(k);
                for (wi, (&a, &m)) in row.iter().zip(member.iter()).enumerate() {
                    let mut w = a & m;
                    while w != 0 {
                        inter.push(StreamId(self.id_of[wi * 64 + w.trailing_zeros() as usize]));
                        w &= w - 1;
                    }
                }
                inter.sort_unstable();
                (BlockingMode::Indirect, inter)
            };
            elements.push(HpElement {
                stream: StreamId(self.id_of[k]),
                mode,
                intermediates,
            });
        });
        elements.sort_by(|a, b| {
            self.priorities[self.slot(b.stream)]
                .cmp(&self.priorities[self.slot(a.stream)])
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
        let c = self.slot(changed);
        let mut member = vec![0u64; stride];
        member[c >> 6] |= 1u64 << (c & 63);
        let mut frontier = member.clone();
        let mut next = vec![0u64; stride];
        loop {
            next.fill(0);
            for_each_set_bit(&frontier, |x| {
                for (acc, &w) in next.iter_mut().zip(self.affects_row(x)) {
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
        for_each_set_bit(&member, |s| out.push(StreamId(self.id_of[s])));
        out.sort_unstable();
        out
    }

    /// Records that the stream in slot `a` directly affects slot `b`.
    #[inline]
    fn set_edge(&mut self, a: usize, b: usize) {
        self.affects[a * self.stride + (b >> 6)] |= 1u64 << (b & 63);
        self.affected_by[b * self.stride + (a >> 6)] |= 1u64 << (a & 63);
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

    /// Releases matrix memory after removals. Filling holes keeps the
    /// slots dense but never narrows a row, so without this a serve
    /// process that churned up to n streams and back down would hold
    /// O(n²) bits forever. Policy, with hysteresis so the admit path's
    /// trial-insert/rollback never thrashes:
    ///
    /// * empty index → reset to the pristine zero-capacity state;
    /// * stride ≥ 4 × `ceil(n / 64)` → restride down to 2 × (grow again
    ///   only after n doubles, shrink again only after it halves);
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

/// Logical equality: same relation over the same streams by dense id,
/// regardless of slot assignment, stride slack or occupancy-table
/// capacity. This is what the incremental-vs-fresh property tests
/// compare.
impl PartialEq for InterferenceIndex {
    fn eq(&self, other: &Self) -> bool {
        if self.n != other.n {
            return false;
        }
        let sorted = |mut ids: Vec<u32>| {
            ids.sort_unstable();
            ids
        };
        let neighbors = |ix: &Self, row: &[u64]| {
            let mut ids = Vec::new();
            for_each_set_bit(row, |s| ids.push(ix.id_of[s]));
            sorted(ids)
        };
        let occupants =
            |ix: &Self, l: usize| sorted(ix.link_streams(LinkId(l as u32)).map(|s| s.0).collect());
        let max_links = self.link_streams.len().max(other.link_streams.len());
        (0..self.n).all(|i| {
            let (a, b) = (self.slot_of[i] as usize, other.slot_of[i] as usize);
            self.priorities[a] == other.priorities[b]
                && self.stream_links[a] == other.stream_links[b]
                && neighbors(self, self.affects_row(a)) == neighbors(other, other.affects_row(b))
                && neighbors(self, self.affected_by_row(a))
                    == neighbors(other, other.affected_by_row(b))
        }) && (0..max_links).all(|l| occupants(self, l) == occupants(other, l))
    }
}

impl Eq for InterferenceIndex {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpset::{generate_hp_oracle, generate_hp_sets_oracle};
    use crate::stream::StreamSpec;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use wormnet_topology::{Mesh, Path, Topology, XyRouting};

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

    /// `n` seeded pseudo-random streams on the 10x10 mesh: long X-Y
    /// routes and five priority levels, so most streams have neighbors
    /// in both directions of the relation.
    fn random_parts(n: usize, seed: u64) -> Vec<(StreamSpec, Path)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut node = || [rng.gen_range(0..10u32), rng.gen_range(0..10u32)];
        let ends: Vec<_> = (0..n).map(|_| (node(), node())).collect();
        let specs: Vec<_> = (ends.into_iter())
            .map(|(s, d)| {
                let d = if s == d { [(s[0] + 1) % 10, s[1]] } else { d };
                (s, d, rng.gen_range(1..=5u32))
            })
            .collect();
        let set = build_set(&specs);
        set.iter()
            .map(|s| (s.spec.clone(), s.path.clone()))
            .collect()
    }

    /// Every channel's occupant list names exactly the streams routed
    /// over it, by dense id.
    fn assert_occupants_complete(index: &InterferenceIndex, set: &StreamSet) {
        let links = set.iter().flat_map(|s| s.path.links()).max().unwrap();
        for l in (0..=links.0 + 1).map(LinkId) {
            let mut listed: Vec<StreamId> = index.link_streams(l).collect();
            listed.sort_unstable();
            let routed: Vec<StreamId> = set
                .iter()
                .filter(|s| s.path.links().contains(&l))
                .map(|s| s.id)
                .collect();
            assert_eq!(listed, routed, "{l:?}");
        }
    }

    /// Everything the index hands out is in dense-id order whatever the
    /// slot order: `downstream` is the ascending forward closure of the
    /// pairwise relation, `link_component` ascends, and HP sets (whose
    /// intermediates the oracle lists by id) match the oracle exactly.
    fn assert_output_in_id_order(index: &InterferenceIndex, set: &StreamSet) {
        for id in set.ids() {
            let mut closure = vec![id];
            let mut k = 0;
            while k < closure.len() {
                let from = set.get(closure[k]);
                for s in set.iter() {
                    if from.directly_affects(s) && !closure.contains(&s.id) {
                        closure.push(s.id);
                    }
                }
                k += 1;
            }
            closure.sort_unstable();
            assert_eq!(index.downstream(id), closure, "downstream of {id}");
            let component = index.link_component(set.get(id).path.links());
            assert!(component.windows(2).all(|w| w[0] < w[1]), "{component:?}");
            assert!(component.contains(&id));
            assert_eq!(index.hp_set(set, id), generate_hp_oracle(set, id), "{id}");
        }
    }

    /// The index beside the plain list of streams it must describe;
    /// every step is checked against a fresh build and the oracles.
    struct Model {
        index: InterferenceIndex,
        parts: Vec<(StreamSpec, Path)>,
    }

    impl Model {
        fn new(parts: Vec<(StreamSpec, Path)>) -> Self {
            let index = InterferenceIndex::build(&StreamSet::from_parts(parts.clone()).unwrap());
            Model { index, parts }
        }

        fn remove(&mut self, id: usize) {
            self.index.remove(StreamId(id as u32));
            self.parts.remove(id);
            self.check();
        }

        fn admit(&mut self, part: (StreamSpec, Path)) {
            self.parts.push(part);
            let set = StreamSet::from_parts(self.parts.clone()).unwrap();
            self.index.insert_last(set.iter().last().unwrap());
            self.check();
        }

        fn check(&self) {
            if self.parts.is_empty() {
                assert!(self.index.is_empty());
                assert_eq!(self.index.memory_bytes(), 0, "empty index holds no heap");
                return;
            }
            let set = StreamSet::from_parts(self.parts.clone()).unwrap();
            assert_eq!(self.index, InterferenceIndex::build(&set));
            assert_occupants_complete(&self.index, &set);
            assert_output_in_id_order(&self.index, &set);
        }
    }

    #[test]
    fn occupant_lists_stay_complete_when_slots_and_ids_diverge() {
        let set = chain();
        let mut index = InterferenceIndex::build(&set);
        assert_occupants_complete(&index, &set);
        assert_eq!(index.link_streams(LinkId(9999)).count(), 0);
        // Removing id 0 moves the last slot into slot 0: ids 0, 1, 2 now
        // live in slots 1, 2, 0.
        index.remove(StreamId(0));
        let parts = set.iter().skip(1).map(|s| (s.spec.clone(), s.path.clone()));
        let smaller = StreamSet::from_parts(parts.collect()).unwrap();
        assert_occupants_complete(&index, &smaller);
    }

    #[test]
    fn translated_output_is_in_id_order_when_slots_and_ids_diverge() {
        let mut model = Model::new(random_parts(40, 7));
        // Low ids leave first, so high slots keep dropping into low ones
        // and slot order drifts ever further from id order.
        for victim in [0, 3, 0, 11, 5, 0, 20, 1] {
            model.remove(victim);
        }
        let set = StreamSet::from_parts(model.parts.clone()).unwrap();
        assert_ne!(model.index.id_of, (0..32).collect::<Vec<u32>>());
        assert_output_in_id_order(&model.index, &set);
    }

    #[test]
    fn remove_first_middle_last_and_down_to_empty() {
        for order in [
            [0usize, 0, 0, 0, 0, 0],
            [5, 4, 3, 2, 1, 0],
            [2, 3, 0, 1, 1, 0],
        ] {
            let mut model = Model::new(random_parts(6, 11));
            for victim in order {
                model.remove(victim);
            }
            assert!(model.index.is_empty());
        }
    }

    #[test]
    fn admit_after_remove_reuses_the_hole() {
        let mut pool = random_parts(16, 3);
        let late = pool.split_off(12);
        let mut model = Model::new(pool);
        let full = model.index.matrix_bytes();
        for (victim, part) in [5, 0, 10, 11].into_iter().zip(late) {
            model.remove(victim);
            // The newcomer takes the last id and the last slot; the hole
            // was already filled by what used to be the last slot.
            model.admit(part);
            assert_eq!(model.index.len(), 12);
            assert_eq!(model.index.id_of.len(), 12);
        }
        assert_eq!(model.index.matrix_bytes(), full, "no row was added");
    }

    #[test]
    fn churn_at_constant_size_does_not_grow_memory() {
        let set = StreamSet::from_parts(random_parts(120, 42)).unwrap();
        let mut index = InterferenceIndex::build(&set);
        let settled = index.memory_bytes();
        let mut streams: Vec<MessageStream> = set.iter().cloned().collect();
        let mut rng = StdRng::seed_from_u64(1998);
        for step in 0..10_000 {
            // The leaver comes straight back as the newest stream.
            let victim = rng.gen_range(0..streams.len());
            let mut stream = streams.remove(victim);
            index.remove(StreamId(victim as u32));
            stream.id = StreamId(streams.len() as u32);
            index.insert_last(&stream);
            streams.push(stream);
            assert_eq!(index.memory_bytes(), settled, "step {step}");
        }
        let parts = streams.into_iter().map(|s| (s.spec, s.path)).collect();
        let set = StreamSet::from_parts(parts).unwrap();
        assert_eq!(index, InterferenceIndex::build(&set));
        assert_eq!(index.hp_sets(&set), generate_hp_sets_oracle(&set));
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
}
