//! Region-sharded admission: link-disjoint region shards composed
//! single-threadedly by [`ShardedController`].
//!
//! The admission server does not use this module; it runs every write
//! through one serial [`AdmissionController`]. The module exists for
//! two readers: the benchmark's ladder, which times
//! [`ShardedController`] at one and four shards against the serial
//! controller, and the `shard_equivalence` proptest, which pins it to
//! that controller bit for bit.
//!
//! The paper's blocking structure is local — two streams can only ever
//! interfere, directly or transitively, when their link sets are
//! connected under the *shares-a-channel* relation
//! ([`InterferenceIndex::link_component`]). The mesh is partitioned
//! into rectangular **regions**, every directed channel is owned by
//! exactly one region (by its source router's coordinates), and each
//! region gets its own [`AdmissionController`] + interference index — a
//! **shard**. A stream is *replicated into every shard its route
//! touches*, with its **full** path indexed in each, which yields the
//! connectivity invariant everything below rests on:
//!
//! > Any two streams sharing a channel `l` are both members of
//! > `shard(l)` — so the union of per-shard link components, iterated
//! > to a fixpoint, equals the global link-sharing component.
//!
//! Admission therefore collects the candidate's **neighborhood** from
//! the shards its links touch (growing the shard set only when a
//! neighbor's path escapes them), analyzes a miniature stream set
//! ([`AdmissionController::admit`]'s analysis restricted to the
//! neighborhood), and commits by writing the pre-computed bounds into
//! the owning shards.
//!
//! Members are keyed by a monotonically increasing `u64` **key**. Keys
//! make shard membership immune to the dense-id shifts that removals
//! cause inside each controller, and because every shard keeps its
//! members sorted by key, each shard's dense order is an
//! order-preserving subsequence of the global admission order — the
//! property that makes the mini-set analysis, and every id-ordered
//! diagnostic derived from it, bit-identical to a monolithic
//! controller.

use crate::admission::{AdmissionController, AdmissionError};
use crate::calu::DelayBound;
use crate::diagram::AnalysisScratch;
use crate::interference::InterferenceIndex;
use crate::stream::{StreamId, StreamSet, StreamSpec};
use std::collections::{BTreeMap, BTreeSet};
use wormnet_topology::{LinkId, NodeId, Path, Topology};

/// Identifies one region shard. Shard ids are dense indices in
/// `0..ShardMap::len()`, ordered row-major over the region grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl ShardId {
    /// The shard id as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Precomputed channel → shard assignment over a topology.
///
/// Regions tile the first two mesh dimensions with a `gx x gy` grid as
/// close to the requested shard count (and the mesh's aspect ratio) as
/// the extents allow; a directed channel belongs to the region of its
/// **source** router. The actual shard count is [`ShardMap::len`] —
/// it can fall short of the request on tiny meshes.
#[derive(Clone, Debug)]
pub struct ShardMap {
    grid: (u32, u32),
    link_shard: Vec<u32>,
}

/// Near-square factorization of `requested` fitting inside `w x h`,
/// preferring the divisor pair whose aspect matches the mesh's.
fn grid_for(requested: u32, w: u32, h: u32) -> (u32, u32) {
    let mut best: Option<((u32, u32), i64)> = None;
    for gx in 1..=requested {
        if !requested.is_multiple_of(gx) {
            continue;
        }
        let gy = requested / gx;
        if gx > w || gy > h {
            continue;
        }
        let score = (i64::from(gx) * i64::from(h) - i64::from(gy) * i64::from(w)).abs();
        if best.is_none_or(|(_, s)| score < s) {
            best = Some(((gx, gy), score));
        }
    }
    // No divisor pair fits the extents (e.g. 7 shards on a 4x4 mesh):
    // degrade to a column split capped by the mesh width.
    best.map_or((requested.min(w).max(1), 1), |(g, _)| g)
}

impl ShardMap {
    /// Builds a map with (as close as the mesh extents allow) the
    /// requested number of region shards. `regions(topo, 1)` is the
    /// monolithic control: every channel in one shard.
    pub fn regions(topo: &impl Topology, requested: usize) -> ShardMap {
        let dims = topo.dims();
        let w = dims[0];
        let h = if dims.len() > 1 { dims[1] } else { 1 };
        let (gx, gy) = grid_for(u32::try_from(requested.max(1)).unwrap_or(u32::MAX), w, h);
        let mut link_shard = vec![0u32; topo.num_links()];
        for (id, link) in topo.links().iter() {
            let c = topo.coord(link.from);
            let x = c.get(0);
            let y = if c.dims() > 1 { c.get(1) } else { 0 };
            let rx = (u64::from(x) * u64::from(gx) / u64::from(w)) as u32;
            let ry = (u64::from(y) * u64::from(gy) / u64::from(h)) as u32;
            link_shard[id.index()] = ry * gx + rx;
        }
        ShardMap {
            grid: (gx, gy),
            link_shard,
        }
    }

    /// Number of shards (always ≥ 1).
    pub fn len(&self) -> usize {
        (self.grid.0 * self.grid.1) as usize
    }

    /// A map always has at least one shard.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The region grid `(gx, gy)` tiling the first two dimensions.
    pub fn grid(&self) -> (u32, u32) {
        self.grid
    }

    /// The shard owning channel `l`.
    #[inline]
    pub fn shard_of(&self, l: LinkId) -> ShardId {
        ShardId(self.link_shard[l.index()])
    }

    /// The distinct shards owning the given channels, ascending.
    pub fn shards_of(&self, links: impl IntoIterator<Item = LinkId>) -> Vec<ShardId> {
        let mut out: Vec<ShardId> = links.into_iter().map(|l| self.shard_of(l)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// One region shard: an [`AdmissionController`] over the streams whose
/// routes touch the region, keyed by the caller's stable member keys
/// (kept sorted, so shard-dense order ⊂ global admission order).
#[derive(Clone, Debug, Default)]
pub struct RegionShard {
    ctl: AdmissionController,
    /// Member keys, ascending, parallel to the controller's dense ids.
    keys: Vec<u64>,
}

impl RegionShard {
    /// Number of resident members.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no stream touches this region.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Member keys in ascending (= shard-dense) order.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// A member's parts and cached bound, if resident.
    pub fn member(&self, key: u64) -> Option<(&StreamSpec, &Path, DelayBound)> {
        let pos = self.keys.binary_search(&key).ok()?;
        let (spec, path) = &self.ctl.parts()[pos];
        Some((spec, path, self.ctl.bound(StreamId(pos as u32))))
    }

    /// Inserts an analyzed member. Keys must arrive in increasing
    /// order (the controller allocates them monotonically).
    ///
    /// # Panics
    /// Panics when `key` is not greater than every resident key.
    fn insert_member(&mut self, key: u64, spec: StreamSpec, path: Path, bound: DelayBound) {
        assert!(
            self.keys.last().is_none_or(|&last| last < key),
            "member keys must be inserted in increasing order"
        );
        self.ctl.insert_with_bound(spec, path, bound);
        self.keys.push(key);
    }

    /// Removes a member without recomputing anyone's bound (the
    /// controller recomputes globally and writes back via
    /// [`RegionShard::set_member_bound`]).
    ///
    /// # Panics
    /// Panics when `key` is not resident.
    fn remove_member(&mut self, key: u64) {
        let pos = self.keys.binary_search(&key).expect("member is resident");
        self.ctl.detach(StreamId(pos as u32));
        self.keys.remove(pos);
    }

    /// Overwrites a resident member's cached bound with one the
    /// controller recomputed globally.
    ///
    /// # Panics
    /// Panics when `key` is not resident.
    fn set_member_bound(&mut self, key: u64, bound: DelayBound) {
        let pos = self.keys.binary_search(&key).expect("member is resident");
        self.ctl.set_bound(StreamId(pos as u32), bound);
    }

    /// The members transitively link-connected to `seed` *within this
    /// shard's view*: `(key, spec, path)` in ascending key order.
    fn component(&self, seed: &[LinkId]) -> Vec<(u64, &StreamSpec, &Path)> {
        self.ctl
            .index()
            .link_component(seed)
            .into_iter()
            .map(|id| {
                let (spec, path) = &self.ctl.parts()[id.index()];
                (self.keys[id.index()], spec, path)
            })
            .collect()
    }
}

/// One member of a candidate's link-sharing neighborhood, in owned form
/// so the shard borrows end before planning/committing.
#[derive(Clone, Debug)]
struct NeighborMember {
    /// The member's stable key.
    key: u64,
    /// The member's spec.
    spec: StreamSpec,
    /// The member's route.
    path: Path,
}

/// Result of [`scan_neighborhood`].
#[derive(Clone, Debug)]
struct Neighborhood {
    /// The link-sharing closure reached from the seed links, ascending
    /// by key (= global admission order). Complete only when `missing`
    /// is empty.
    members: Vec<NeighborMember>,
    /// Shards (beyond those visited) that the closure's links touch.
    /// The caller must widen the visited set and rescan.
    missing: Vec<ShardId>,
}

/// Collects the link-sharing closure of `seed_links` across the held
/// (visited) shards, iterating until no held shard contributes a new member.
/// Returns the closure plus any shards the closure escapes into; when
/// `missing` is empty the member list equals the *global* link-sharing
/// component (by the replication invariant: both endpoints of every
/// shared channel are members of that channel's shard).
fn scan_neighborhood(
    map: &ShardMap,
    held: &[(ShardId, &RegionShard)],
    seed_links: &[LinkId],
) -> Neighborhood {
    let mut links: BTreeSet<LinkId> = seed_links.iter().copied().collect();
    let mut members: BTreeMap<u64, NeighborMember> = BTreeMap::new();
    let mut changed = true;
    while changed {
        changed = false;
        let frontier: Vec<LinkId> = links.iter().copied().collect();
        for &(_, shard) in held {
            for (key, spec, path) in shard.component(&frontier) {
                if let std::collections::btree_map::Entry::Vacant(e) = members.entry(key) {
                    links.extend(path.links().iter().copied());
                    e.insert(NeighborMember {
                        key,
                        spec: spec.clone(),
                        path: path.clone(),
                    });
                    changed = true;
                }
            }
        }
    }
    let missing = map
        .shards_of(links.iter().copied())
        .into_iter()
        .filter(|s| !held.iter().any(|&(h, _)| h == *s))
        .collect();
    Neighborhood {
        members: members.into_values().collect(),
        missing,
    }
}

/// A rejection from [`plan_admit`], with blockers/victims identified by
/// their stable keys ([`ShardedController`] translates them to dense ids
/// for parity with [`AdmissionError`]).
#[derive(Clone, Debug, PartialEq, Eq)]
enum KeyedRejection {
    /// The candidate itself cannot meet its deadline.
    CandidateInfeasible {
        /// The candidate's bound within its deadline horizon.
        bound: DelayBound,
        /// The candidate's source node.
        source: NodeId,
        /// The candidate's destination node.
        dest: NodeId,
        /// Keys of the members that directly block the candidate.
        blocked_by: Vec<u64>,
    },
    /// Admitting the candidate would break already-admitted members.
    BreaksExisting {
        /// The candidate's source node.
        source: NodeId,
        /// The candidate's destination node.
        dest: NodeId,
        /// Keys of the members that would miss their deadlines.
        victims: Vec<u64>,
    },
    /// The stream spec is invalid.
    Invalid(String),
}

/// An accepted admission plan: the candidate's bound plus the refreshed
/// bounds of every affected neighborhood member, ready to commit into
/// the owning shards.
#[derive(Clone, Debug)]
struct AdmitPlan {
    /// The candidate's accepted delay bound.
    candidate_bound: u64,
    /// Refreshed bounds for affected members, by key, in global
    /// admission order.
    updates: Vec<(u64, DelayBound)>,
}

/// Plans admitting `(spec, path)` against a **complete** neighborhood
/// (`members` must be [`scan_neighborhood`]'s fixpoint with no missing
/// shards, ascending by key).
///
/// This is [`AdmissionController::admit`]'s analysis restricted to the
/// neighborhood, with keys in place of dense ids: structural guards
/// first, then the downstream recomputation over the mini stream set
/// `members + candidate`. Because the neighborhood equals the global link-sharing
/// component and preserves global admission order, the verdict, every
/// bound, and every diagnostic are bit-identical to what a monolithic
/// [`AdmissionController::admit`] would produce.
fn plan_admit(
    members: &[NeighborMember],
    spec: &StreamSpec,
    path: &Path,
) -> Result<AdmitPlan, KeyedRejection> {
    if spec.max_length > spec.period {
        return Err(KeyedRejection::Invalid(format!(
            "length C = {} exceeds period T = {} (the stream oversubscribes its own channel)",
            spec.max_length, spec.period
        )));
    }
    let latency = crate::latency::network_latency(path.hops(), spec.max_length);
    if spec.deadline < latency {
        return Err(KeyedRejection::CandidateInfeasible {
            bound: DelayBound::Bounded(latency),
            source: spec.source,
            dest: spec.dest,
            blocked_by: Vec::new(),
        });
    }

    let mut mini_parts: Vec<(StreamSpec, Path)> = members
        .iter()
        .map(|m| (m.spec.clone(), m.path.clone()))
        .collect();
    mini_parts.push((spec.clone(), path.clone()));
    let mini_set =
        StreamSet::from_parts(mini_parts).map_err(|e| KeyedRejection::Invalid(e.to_string()))?;
    let mini_index = InterferenceIndex::build(&mini_set);
    let new_id = StreamId(members.len() as u32);

    let mut scratch = AnalysisScratch::new();
    let mut victims = Vec::new();
    let mut candidate_bound = DelayBound::Exceeded;
    let mut blocked_by = Vec::new();
    let mut updates = Vec::new();
    let mut accepted = None;
    for id in mini_index.downstream(new_id) {
        let hp = mini_index.hp_set(&mini_set, id);
        if id == new_id {
            blocked_by = hp
                .elements()
                .iter()
                .filter(|e| e.is_direct())
                .map(|e| members[e.stream.index()].key)
                .collect();
        }
        let bound = scratch.delay_bound(&mini_set, &hp, mini_set.get(id).deadline());
        let meets = bound.meets(mini_set.get(id).deadline());
        if id == new_id {
            if meets {
                accepted = bound.value();
            } else {
                candidate_bound = bound;
            }
        } else {
            if !meets {
                victims.push(members[id.index()].key);
            }
            updates.push((members[id.index()].key, bound));
        }
    }
    if !victims.is_empty() {
        return Err(KeyedRejection::BreaksExisting {
            source: spec.source,
            dest: spec.dest,
            victims,
        });
    }
    let Some(candidate_bound) = accepted else {
        return Err(KeyedRejection::CandidateInfeasible {
            bound: candidate_bound,
            source: spec.source,
            dest: spec.dest,
            blocked_by,
        });
    };
    Ok(AdmitPlan {
        candidate_bound,
        updates,
    })
}

/// Plans removing the member `victim` against its complete neighborhood
/// (seeded from the victim's links): the refreshed bounds of every
/// member the victim could block, by key, in global admission order.
/// Mirrors [`AdmissionController::remove`]: the affected set is the
/// victim's downstream closure computed *before* removal, and each
/// affected member's bound is recomputed over the post-removal mini
/// set.
fn plan_remove(members: &[NeighborMember], victim: u64) -> Vec<(u64, DelayBound)> {
    let vpos = members
        .iter()
        .position(|m| m.key == victim)
        .expect("victim is in its own neighborhood");
    let pre_parts: Vec<(StreamSpec, Path)> = members
        .iter()
        .map(|m| (m.spec.clone(), m.path.clone()))
        .collect();
    let pre_set = StreamSet::from_parts(pre_parts).expect("admitted parts stay resolvable");
    let pre_index = InterferenceIndex::build(&pre_set);
    let vid = StreamId(vpos as u32);
    let affected: Vec<usize> = pre_index
        .downstream(vid)
        .into_iter()
        .filter(|&x| x != vid)
        .map(StreamId::index)
        .collect();
    if affected.is_empty() {
        return Vec::new();
    }
    let post_parts: Vec<(StreamSpec, Path)> = members
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != vpos)
        .map(|(_, m)| (m.spec.clone(), m.path.clone()))
        .collect();
    let post_set = StreamSet::from_parts(post_parts).expect("admitted parts stay resolvable");
    let post_index = InterferenceIndex::build(&post_set);
    let mut scratch = AnalysisScratch::new();
    let mut updates = Vec::new();
    for old in affected {
        let new_pos = if old > vpos { old - 1 } else { old };
        let nid = StreamId(new_pos as u32);
        let hp = post_index.hp_set(&post_set, nid);
        let bound = scratch.delay_bound(&post_set, &hp, post_set.get(nid).deadline());
        updates.push((members[old].key, bound));
    }
    updates
}

/// Outcome of a successful [`ShardedController::admit_detailed`].
#[derive(Clone, Copy, Debug)]
pub struct ShardedAdmit {
    /// The stream's dense id in global admission order.
    pub id: StreamId,
    /// The accepted delay bound.
    pub bound: u64,
    /// True when the route crossed shard boundaries (two-phase path).
    pub cross: bool,
    /// How many shards the analysis had to visit (≥ the shards the
    /// route touches; grows when the neighborhood escapes them).
    pub shards_visited: usize,
}

/// Single-threaded composition of the region shards.
///
/// Presents the same dense-id surface as [`AdmissionController`]
/// (admission-ordered ids, shifting down on removal) so the
/// equivalence suite can diff the two directly.
#[derive(Clone, Debug)]
pub struct ShardedController {
    map: ShardMap,
    shards: Vec<RegionShard>,
    /// Keys of live streams in admission order (ascending — keys are
    /// allocated monotonically). `live[dense id] == key`.
    live: Vec<u64>,
    next_key: u64,
    cross_admits: u64,
    cross_aborts: u64,
}

impl ShardedController {
    /// An empty plane over the given channel → shard map.
    pub fn new(map: ShardMap) -> Self {
        let shards = (0..map.len()).map(|_| RegionShard::default()).collect();
        ShardedController {
            map,
            shards,
            live: Vec::new(),
            next_key: 0,
            cross_admits: 0,
            cross_aborts: 0,
        }
    }

    /// Number of admitted streams.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when nothing is admitted.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// The channel → shard map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The region shards, by shard id.
    pub fn shards(&self) -> &[RegionShard] {
        &self.shards
    }

    /// Cross-shard (two-phase) admissions committed.
    pub fn cross_admits(&self) -> u64 {
        self.cross_admits
    }

    /// Cross-shard admissions rejected by the analysis (rolled back).
    pub fn cross_aborts(&self) -> u64 {
        self.cross_aborts
    }

    /// The cached bound of an admitted stream.
    pub fn bound(&self, id: StreamId) -> DelayBound {
        let key = self.live[id.index()];
        self.shards
            .iter()
            .find_map(|s| s.member(key))
            .expect("live key is resident somewhere")
            .2
    }

    /// Every cached bound in global admission order — directly
    /// comparable to [`AdmissionController::bounds`].
    pub fn bounds(&self) -> Vec<DelayBound> {
        self.live
            .iter()
            .map(|&key| {
                self.shards
                    .iter()
                    .find_map(|s| s.member(key))
                    .expect("live key is resident somewhere")
                    .2
            })
            .collect()
    }

    /// Every admitted `(spec, path)` in global admission order —
    /// directly comparable to [`AdmissionController::parts`].
    pub fn parts(&self) -> Vec<(StreamSpec, Path)> {
        self.live
            .iter()
            .map(|&key| {
                let (spec, path, _) = self
                    .shards
                    .iter()
                    .find_map(|s| s.member(key))
                    .expect("live key is resident somewhere");
                (spec.clone(), path.clone())
            })
            .collect()
    }

    fn dense_of(&self, key: u64) -> StreamId {
        StreamId(self.live.binary_search(&key).expect("member is live") as u32)
    }

    fn keyed_to_global(&self, e: KeyedRejection) -> AdmissionError {
        match e {
            KeyedRejection::CandidateInfeasible {
                bound,
                source,
                dest,
                blocked_by,
            } => AdmissionError::CandidateInfeasible {
                bound,
                source,
                dest,
                blocked_by: blocked_by.into_iter().map(|k| self.dense_of(k)).collect(),
            },
            KeyedRejection::BreaksExisting {
                source,
                dest,
                victims,
            } => AdmissionError::BreaksExisting {
                source,
                dest,
                victims: victims.into_iter().map(|k| self.dense_of(k)).collect(),
            },
            KeyedRejection::Invalid(msg) => AdmissionError::Invalid(msg),
        }
    }

    /// Scans to the neighborhood fixpoint, widening the visited shard
    /// set as the closure escapes it. Returns the complete neighborhood
    /// and the shards visited.
    fn converged_neighborhood(
        &self,
        seed: &[LinkId],
        start: Vec<ShardId>,
    ) -> (Neighborhood, Vec<ShardId>) {
        let mut touched = start;
        loop {
            let held: Vec<(ShardId, &RegionShard)> = touched
                .iter()
                .map(|&s| (s, &self.shards[s.index()]))
                .collect();
            let nb = scan_neighborhood(&self.map, &held, seed);
            if nb.missing.is_empty() {
                return (nb, touched);
            }
            touched.extend(nb.missing.iter().copied());
            touched.sort_unstable();
            touched.dedup();
        }
    }

    /// Tries to admit `(spec, path)`. Same contract and bit-identical
    /// verdicts/diagnostics as [`AdmissionController::admit`].
    pub fn admit(&mut self, spec: StreamSpec, path: Path) -> Result<StreamId, AdmissionError> {
        self.admit_detailed(spec, path).map(|a| a.id)
    }

    /// [`ShardedController::admit`] plus shard telemetry.
    pub fn admit_detailed(
        &mut self,
        spec: StreamSpec,
        path: Path,
    ) -> Result<ShardedAdmit, AdmissionError> {
        let seed = path.sorted_links().to_vec();
        let insert_shards = self.map.shards_of(seed.iter().copied());
        let cross = insert_shards.len() > 1;
        let (nb, visited) = self.converged_neighborhood(&seed, insert_shards.clone());
        match plan_admit(&nb.members, &spec, &path) {
            Err(e) => {
                if cross {
                    self.cross_aborts += 1;
                }
                Err(self.keyed_to_global(e))
            }
            Ok(plan) => {
                let key = self.next_key;
                self.next_key += 1;
                for &sid in &insert_shards {
                    self.shards[sid.index()].insert_member(
                        key,
                        spec.clone(),
                        path.clone(),
                        DelayBound::Bounded(plan.candidate_bound),
                    );
                }
                for (k, b) in &plan.updates {
                    let m = nb
                        .members
                        .iter()
                        .find(|m| m.key == *k)
                        .expect("update targets a neighborhood member");
                    for sid in self.map.shards_of(m.path.links().iter().copied()) {
                        self.shards[sid.index()].set_member_bound(*k, *b);
                    }
                }
                self.live.push(key);
                if cross {
                    self.cross_admits += 1;
                }
                Ok(ShardedAdmit {
                    id: StreamId((self.live.len() - 1) as u32),
                    bound: plan.candidate_bound,
                    cross,
                    shards_visited: visited.len(),
                })
            }
        }
    }

    /// Removes an admitted stream; ids above shift down by one, exactly
    /// as in [`AdmissionController::remove`].
    pub fn remove(&mut self, id: StreamId) {
        assert!(id.index() < self.live.len(), "unknown stream {id}");
        let key = self.live[id.index()];
        let path = self
            .shards
            .iter()
            .find_map(|s| s.member(key))
            .expect("live key is resident somewhere")
            .1
            .clone();
        let seed = path.sorted_links().to_vec();
        let owners = self.map.shards_of(seed.iter().copied());
        let (nb, _) = self.converged_neighborhood(&seed, owners.clone());
        let updates = plan_remove(&nb.members, key);
        for &sid in &owners {
            self.shards[sid.index()].remove_member(key);
        }
        for (k, b) in &updates {
            let m = nb
                .members
                .iter()
                .find(|m| m.key == *k)
                .expect("update targets a neighborhood member");
            for sid in self.map.shards_of(m.path.links().iter().copied()) {
                self.shards[sid.index()].set_member_bound(*k, *b);
            }
        }
        self.live.remove(id.index());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormnet_topology::{Mesh, Routing, XyRouting};

    fn routed(
        m: &Mesh,
        s: [u32; 2],
        d: [u32; 2],
        p: u32,
        t: u64,
        c: u64,
        dl: u64,
    ) -> (StreamSpec, Path) {
        let src = m.node_at(&s).unwrap();
        let dst = m.node_at(&d).unwrap();
        let path = XyRouting.route(m, src, dst).unwrap();
        (StreamSpec::new(src, dst, p, t, c, dl), path)
    }

    #[test]
    fn map_partitions_every_link_into_requested_regions() {
        let m = Mesh::mesh2d(8, 8);
        let map = ShardMap::regions(&m, 4);
        assert_eq!(map.len(), 4);
        assert_eq!(map.grid(), (2, 2));
        let mut seen = vec![0usize; map.len()];
        for (id, link) in m.links().iter() {
            let s = map.shard_of(id);
            assert!(s.index() < map.len());
            seen[s.index()] += 1;
            // Ownership follows the source router's quadrant.
            let c = m.coord(link.from);
            let expect = (c.get(1) / 4) * 2 + c.get(0) / 4;
            assert_eq!(s.0, expect, "link {id:?} from {:?}", c.as_slice());
        }
        assert!(seen.iter().all(|&n| n > 0), "every region owns channels");
    }

    #[test]
    fn map_degrades_gracefully_on_small_meshes() {
        let m = Mesh::mesh2d(4, 4);
        // 7 has no divisor pair fitting 4x4: falls back to a column split.
        assert_eq!(ShardMap::regions(&m, 7).len(), 4);
    }

    /// The plane must be bit-identical to a monolithic controller on a
    /// deterministic mixed workload: local + cross-shard admits,
    /// rejections of every flavor, and removals (the randomized version
    /// lives in `tests/shard_equivalence.rs`).
    #[test]
    fn sharded_matches_monolithic_on_mixed_workload() {
        let m = Mesh::mesh2d(8, 8);
        for shards in [1usize, 4] {
            let mut mono = AdmissionController::new();
            let mut plane = ShardedController::new(ShardMap::regions(&m, shards));
            let mut admitted: Vec<StreamId> = Vec::new();
            let workload: Vec<(StreamSpec, Path)> = vec![
                routed(&m, [0, 0], [3, 0], 2, 50, 4, 50),   // local, NW
                routed(&m, [4, 4], [7, 4], 2, 50, 4, 50),   // local, SE
                routed(&m, [0, 0], [7, 0], 3, 60, 4, 60),   // crosses NW->NE
                routed(&m, [1, 0], [6, 0], 1, 300, 4, 300), // rides the same row
                routed(&m, [0, 1], [7, 7], 1, 400, 4, 400), // crosses 3 regions
                routed(&m, [2, 0], [5, 0], 1, 100, 8, 12),  // infeasible deadline
                routed(&m, [0, 0], [5, 0], 1, 10, 20, 10),  // oversubscribed
                routed(&m, [3, 4], [3, 7], 2, 80, 4, 80),   // local, SW
            ];
            for (spec, path) in workload {
                let a = mono.admit(spec.clone(), path.clone());
                let b = plane.admit(spec, path);
                assert_eq!(a, b, "verdicts diverged at {shards} shards");
                if let Ok(id) = a {
                    admitted.push(id);
                }
                assert_eq!(mono.bounds(), plane.bounds(), "{shards} shards");
            }
            assert!(admitted.len() >= 5, "workload admits a healthy number");
            // Tight high-priority newcomer breaks an existing stream
            // identically in both planes.
            let (hp, hp_p) = routed(&m, [1, 0], [6, 0], 4, 30, 25, 30);
            let a = mono.admit(hp.clone(), hp_p.clone()).unwrap_err();
            let b = plane.admit(hp, hp_p).unwrap_err();
            assert_eq!(a, b, "BreaksExisting diagnostics diverged");
            assert!(matches!(a, AdmissionError::BreaksExisting { .. }));
            // Removals keep the planes in lockstep (including id shifts).
            while !mono.is_empty() {
                let victim = StreamId((mono.len() / 2) as u32);
                mono.remove(victim);
                plane.remove(victim);
                assert_eq!(mono.bounds(), plane.bounds());
                assert_eq!(mono.parts(), plane.parts());
            }
            assert!(plane.is_empty());
            assert!(plane.shards().iter().all(RegionShard::is_empty));
        }
    }

    #[test]
    fn cross_shard_admits_and_aborts_are_counted() {
        let m = Mesh::mesh2d(8, 8);
        let mut plane = ShardedController::new(ShardMap::regions(&m, 4));
        let (local, local_p) = routed(&m, [0, 0], [3, 0], 2, 50, 4, 50);
        let a = plane.admit_detailed(local, local_p).unwrap();
        assert!(!a.cross);
        assert_eq!(a.shards_visited, 1);
        assert_eq!(plane.cross_admits(), 0);
        let (span, span_p) = routed(&m, [0, 0], [7, 0], 3, 60, 4, 60);
        let b = plane.admit_detailed(span, span_p).unwrap();
        assert!(b.cross);
        assert_eq!(plane.cross_admits(), 1);
        // A spanning stream with an impossible deadline aborts two-phase.
        let (bad, bad_p) = routed(&m, [1, 0], [6, 0], 1, 100, 8, 12);
        plane.admit_detailed(bad, bad_p).unwrap_err();
        assert_eq!(plane.cross_aborts(), 1);
    }

    /// A neighborhood can escape the shards the candidate touches: the
    /// scan must widen to the fixpoint and still match the monolithic
    /// verdict. Chain: candidate in NW shares with a spanner, which
    /// shares with a NE-local stream the candidate never touches.
    #[test]
    fn neighborhood_escapes_candidate_shards() {
        let m = Mesh::mesh2d(8, 8);
        let mut mono = AdmissionController::new();
        let mut plane = ShardedController::new(ShardMap::regions(&m, 4));
        for (spec, path) in [
            routed(&m, [4, 0], [7, 0], 2, 40, 6, 40), // NE-local
            routed(&m, [2, 0], [6, 0], 3, 50, 6, 50), // spans NW->NE
        ] {
            mono.admit(spec.clone(), path.clone()).unwrap();
            plane.admit(spec, path).unwrap();
        }
        // Candidate touches only NW links but its closure includes both.
        let (cand, cand_p) = routed(&m, [0, 0], [3, 0], 1, 500, 4, 500);
        let a = mono.admit(cand.clone(), cand_p.clone());
        let b = plane.admit_detailed(cand, cand_p);
        let b = b.map(|d| {
            assert!(d.shards_visited >= 2, "scan must widen past the seed shard");
            d.id
        });
        assert_eq!(a, b);
        assert_eq!(mono.bounds(), plane.bounds());
    }
}
