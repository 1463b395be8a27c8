//! Incremental admission control — the host processor's run-time use of
//! the feasibility test.
//!
//! The paper's host processor re-runs `Determine-Feasibility` whenever a
//! job asks for a new real-time channel. A naive re-run recomputes every
//! `U_i`; but admitting a stream of priority `p` can only change the
//! bounds of streams it can (transitively) block — its *downstream* in
//! the directly-affects graph — so the controller recomputes exactly
//! those and keeps every other cached bound.
//!
//! The controller maintains an [`InterferenceIndex`] incrementally:
//! every trial admit extends the live stream set and index in place
//! (O(interference neighborhood), not O(n) path comparisons), a
//! rejection rolls back exactly what the trial added, and a removal
//! rewrites only the leaver's neighborhood. The downstream
//! closure, every HP set, and every BDG of the recomputation are read
//! off the index as word-parallel bit operations.

use crate::calu::DelayBound;
use crate::diagram::AnalysisScratch;
use crate::interference::InterferenceIndex;
use crate::stream::{StreamId, StreamSet, StreamSpec};
use wormnet_topology::{NodeId, Path};

/// Why a stream was refused admission.
///
/// Rejections carry the candidate's endpoints and the ids of the
/// admitted streams involved (the blockers that push the candidate past
/// its deadline, or the victims it would push past theirs), so a
/// caller serving admission decisions can report *why* an admit failed
/// instead of just that it did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The candidate itself cannot meet its deadline.
    CandidateInfeasible {
        /// The candidate's bound within its deadline horizon.
        bound: DelayBound,
        /// The candidate's source node.
        source: NodeId,
        /// The candidate's destination node.
        dest: NodeId,
        /// Admitted streams (by current id) that directly block the
        /// candidate. Empty when the candidate fails alone (its
        /// deadline is below its contention-free network latency).
        blocked_by: Vec<StreamId>,
    },
    /// Admitting the candidate would break already-admitted streams.
    BreaksExisting {
        /// The candidate's source node.
        source: NodeId,
        /// The candidate's destination node.
        dest: NodeId,
        /// The admitted streams (by their current ids) that would miss
        /// their deadlines.
        victims: Vec<StreamId>,
    },
    /// The stream spec is invalid (zero period, self delivery, ...).
    Invalid(String),
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::CandidateInfeasible {
                bound,
                source,
                dest,
                blocked_by,
            } => {
                write!(
                    f,
                    "candidate {source} -> {dest} cannot meet its deadline (U = {bound})"
                )?;
                if !blocked_by.is_empty() {
                    let ids: Vec<String> = blocked_by.iter().map(|s| s.to_string()).collect();
                    write!(f, ", blocked by {}", ids.join(", "))?;
                }
                Ok(())
            }
            AdmissionError::BreaksExisting {
                source,
                dest,
                victims,
            } => {
                let ids: Vec<String> = victims.iter().map(|s| s.to_string()).collect();
                write!(
                    f,
                    "admitting {source} -> {dest} would break {} existing stream(s): {}",
                    victims.len(),
                    ids.join(", ")
                )
            }
            AdmissionError::Invalid(e) => write!(f, "invalid stream: {e}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// An incremental feasibility-preserving admission controller.
///
/// Invariant: after every successful [`AdmissionController::admit`] (and
/// after construction), every admitted stream's cached bound satisfies
/// `U_i <= D_i`.
///
/// # Examples
///
/// ```
/// use rtwc_core::{AdmissionController, StreamSpec};
/// use wormnet_topology::{Mesh, Routing, Topology, XyRouting};
///
/// let mesh = Mesh::mesh2d(10, 10);
/// let node = |x, y| mesh.node_at(&[x, y]).unwrap();
/// let mut ctl = AdmissionController::new();
///
/// let (src, dst) = (node(0, 0), node(5, 0));
/// let path = XyRouting.route(&mesh, src, dst).unwrap();
/// let id = ctl
///     .admit(StreamSpec::new(src, dst, 2, 50, 4, 50), path)
///     .expect("lone stream is always admissible");
/// assert!(ctl.bound(id).meets(50));
/// ```
#[derive(Clone, Debug, Default)]
pub struct AdmissionController {
    parts: Vec<(StreamSpec, Path)>,
    set: Option<StreamSet>,
    /// Incrementally maintained interference index over `set`. Always
    /// equal to `InterferenceIndex::build` of the admitted set (the
    /// equivalence property tests enforce this).
    index: InterferenceIndex,
    bounds: Vec<DelayBound>,
    /// Bound recomputations performed over the controller's lifetime
    /// (instrumentation: shows the saving vs full re-analysis).
    recomputations: u64,
    /// `Cal_U` arena, reused by every admit and remove.
    scratch: AnalysisScratch,
}

impl AdmissionController {
    /// An empty controller.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admitted streams as a stream set (`None` when empty).
    pub fn set(&self) -> Option<&StreamSet> {
        self.set.as_ref()
    }

    /// Number of admitted streams.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when nothing is admitted.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The cached bound of an admitted stream.
    pub fn bound(&self, id: StreamId) -> DelayBound {
        self.bounds[id.index()]
    }

    /// Total `Cal_U` invocations so far (instrumentation).
    pub fn recomputations(&self) -> u64 {
        self.recomputations
    }

    /// The admitted `(spec, path)` parts, in dense-id order. Together
    /// with [`AdmissionController::bounds`] this is a complete snapshot
    /// of the controller's state, sufficient to rebuild the stream set
    /// offline (`StreamSet::from_parts`) and audit every cached bound.
    pub fn parts(&self) -> &[(StreamSpec, Path)] {
        &self.parts
    }

    /// Every cached bound, indexed by dense id (parallel to
    /// [`AdmissionController::parts`]).
    pub fn bounds(&self) -> &[DelayBound] {
        &self.bounds
    }

    /// Iterates over the admitted streams: `(id, spec, path, bound)`.
    pub fn snapshot(&self) -> impl Iterator<Item = (StreamId, &StreamSpec, &Path, DelayBound)> {
        self.parts
            .iter()
            .zip(&self.bounds)
            .enumerate()
            .map(|(i, ((spec, path), &bound))| (StreamId(i as u32), spec, path, bound))
    }

    /// Lifetime statistics: `(admitted_now, recomputations)`.
    pub fn stats(&self) -> (usize, u64) {
        (self.parts.len(), self.recomputations)
    }

    /// The incrementally maintained interference index over the
    /// admitted set (exposed for auditing and equivalence testing; it
    /// always equals a from-scratch `InterferenceIndex::build`).
    pub fn index(&self) -> &InterferenceIndex {
        &self.index
    }

    /// Tries to admit `(spec, path)`; on success the stream gets the
    /// next dense id and its bound is cached. On failure the controller
    /// is unchanged.
    pub fn admit(&mut self, spec: StreamSpec, path: Path) -> Result<StreamId, AdmissionError> {
        // Structural guard, mirroring the verifier's spec lints W005 /
        // W007: a stream that oversubscribes its own period, or whose
        // deadline is below its contention-free network latency, can
        // never be admitted — refuse before building the trial set so
        // the caller gets a precise reason instead of a generic
        // infeasibility verdict.
        if spec.max_length > spec.period {
            return Err(AdmissionError::Invalid(format!(
                "length C = {} exceeds period T = {} (the stream oversubscribes its own channel)",
                spec.max_length, spec.period
            )));
        }
        let latency = crate::latency::network_latency(path.hops(), spec.max_length);
        if spec.deadline < latency {
            return Err(AdmissionError::CandidateInfeasible {
                bound: DelayBound::Bounded(latency),
                source: spec.source,
                dest: spec.dest,
                blocked_by: Vec::new(),
            });
        }

        let (cand_source, cand_dest) = (spec.source, spec.dest);
        // Mutate-then-rollback trial: extend the live stream set and
        // index in place (no cloning the admitted state), and undo
        // exactly the trial's additions on rejection.
        let created = self.set.is_none();
        let new_id = match self.set.as_mut() {
            Some(set) => set
                .push(spec.clone(), path.clone())
                .map_err(|e| AdmissionError::Invalid(e.to_string()))?,
            None => {
                self.set = Some(
                    StreamSet::from_parts(vec![(spec.clone(), path.clone())])
                        .map_err(|e| AdmissionError::Invalid(e.to_string()))?,
                );
                StreamId(0)
            }
        };
        let set = self.set.as_ref().expect("trial set just populated");
        self.index.insert_last(set.get(new_id));
        self.parts.push((spec, path));
        self.bounds.push(DelayBound::Exceeded);

        // Recompute only the candidate's downstream closure, saving the
        // overwritten bounds so a rejection can restore them.
        let mut saved: Vec<(usize, DelayBound)> = Vec::new();
        let mut victims = Vec::new();
        let mut candidate_bound = DelayBound::Exceeded;
        // The candidate's direct blockers, kept for the rejection
        // diagnostic (their ids in the trial set equal their current
        // admitted ids, since the candidate takes the last id).
        let mut blocked_by = Vec::new();
        for id in self.index.downstream(new_id) {
            let hp = self.index.hp_set(set, id);
            if id == new_id {
                blocked_by = hp
                    .elements()
                    .iter()
                    .filter(|e| e.is_direct())
                    .map(|e| e.stream)
                    .collect();
            }
            let bound = self.scratch.delay_bound(set, &hp, set.get(id).deadline());
            self.recomputations += 1;
            if id != new_id {
                saved.push((id.index(), self.bounds[id.index()]));
            }
            self.bounds[id.index()] = bound;
            if !bound.meets(set.get(id).deadline()) {
                if id == new_id {
                    candidate_bound = bound;
                } else {
                    victims.push(id);
                }
            }
        }
        let rejection = if !victims.is_empty() {
            Some(AdmissionError::BreaksExisting {
                source: cand_source,
                dest: cand_dest,
                victims,
            })
        } else if !self.bounds[new_id.index()].meets(set.get(new_id).deadline()) {
            Some(AdmissionError::CandidateInfeasible {
                bound: candidate_bound,
                source: cand_source,
                dest: cand_dest,
                blocked_by,
            })
        } else {
            None
        };
        if let Some(err) = rejection {
            for (i, b) in saved {
                self.bounds[i] = b;
            }
            self.bounds.pop();
            self.parts.pop();
            self.index.remove_last();
            if created {
                self.set = None;
            } else {
                self.set.as_mut().expect("trial set present").pop();
            }
            return Err(err);
        }
        Ok(new_id)
    }

    /// Removes an admitted stream. Remaining streams keep their cached
    /// bounds except those the removed stream could block, which are
    /// refreshed (they can only improve). Ids above `id` shift down by
    /// one, mirroring `StreamSet`'s dense ids.
    pub fn remove(&mut self, id: StreamId) {
        assert!(id.index() < self.parts.len(), "unknown stream {id}");
        // Compute the affected set while the stream is still indexed.
        let affected_old: Vec<StreamId> = self
            .index
            .downstream(id)
            .into_iter()
            .filter(|&x| x != id)
            .collect();

        self.parts.remove(id.index());
        self.bounds.remove(id.index());
        self.index.remove(id);
        if self.parts.is_empty() {
            self.set = None;
            return;
        }
        self.set
            .as_mut()
            .expect("non-empty controller has a set")
            .remove(id);
        let set = self.set.as_ref().expect("set stays populated");
        // Map old ids to new ids (everything above `id` shifts down).
        let remap = |old: StreamId| -> StreamId {
            if old.index() > id.index() {
                StreamId(old.0 - 1)
            } else {
                old
            }
        };
        for old in affected_old {
            let new_id = remap(old);
            let hp = self.index.hp_set(set, new_id);
            let bound = self
                .scratch
                .delay_bound(set, &hp, set.get(new_id).deadline());
            self.recomputations += 1;
            self.bounds[new_id.index()] = bound;
        }
    }

    // ------------------------------------------------------------------
    // Region-shard primitives (crate::shard). `ShardedController`
    // computes true *global* bounds over a link-sharing neighborhood and
    // replicates each member into every shard its route touches; these
    // entry points let it place pre-analyzed streams without re-running
    // (or rolling back) the serial analysis above. They preserve the
    // structural invariants (set == parts, index == build(set), bounds
    // parallel) but NOT the feasibility invariant — the caller is
    // responsible for only storing bounds produced by a real analysis.
    // ------------------------------------------------------------------

    /// Appends an already-analyzed stream with the next dense id and the
    /// caller-supplied bound. No feasibility analysis runs.
    pub(crate) fn insert_with_bound(
        &mut self,
        spec: StreamSpec,
        path: Path,
        bound: DelayBound,
    ) -> StreamId {
        let new_id = match self.set.as_mut() {
            Some(set) => set
                .push(spec.clone(), path.clone())
                .expect("plane-validated spec"),
            None => {
                self.set = Some(
                    StreamSet::from_parts(vec![(spec.clone(), path.clone())])
                        .expect("plane-validated spec"),
                );
                StreamId(0)
            }
        };
        let set = self.set.as_ref().expect("set just populated");
        self.index.insert_last(set.get(new_id));
        self.parts.push((spec, path));
        self.bounds.push(bound);
        new_id
    }

    /// Overwrites the cached bound of an admitted stream with one the
    /// plane recomputed globally.
    pub(crate) fn set_bound(&mut self, id: StreamId, bound: DelayBound) {
        self.bounds[id.index()] = bound;
    }

    /// Removes a stream *without* refreshing anyone's bound — the plane
    /// recomputes affected members globally and writes them back via
    /// [`AdmissionController::set_bound`]. Ids above `id` shift down by
    /// one, exactly as in [`AdmissionController::remove`].
    pub(crate) fn detach(&mut self, id: StreamId) {
        assert!(id.index() < self.parts.len(), "unknown stream {id}");
        self.parts.remove(id.index());
        self.bounds.remove(id.index());
        self.index.remove(id);
        if self.parts.is_empty() {
            self.set = None;
        } else {
            self.set
                .as_mut()
                .expect("non-empty controller has a set")
                .remove(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::determine_feasibility;
    use wormnet_topology::{Mesh, Routing, Topology, XyRouting};

    fn mesh() -> Mesh {
        Mesh::mesh2d(10, 10)
    }

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
    fn admits_feasible_streams() {
        let m = mesh();
        let mut ctl = AdmissionController::new();
        let (s0, p0) = routed(&m, [0, 0], [5, 0], 2, 50, 4, 50);
        let (s1, p1) = routed(&m, [1, 0], [6, 0], 1, 80, 4, 80);
        let id0 = ctl.admit(s0, p0).unwrap();
        let id1 = ctl.admit(s1, p1).unwrap();
        assert_eq!(ctl.len(), 2);
        assert!(ctl.bound(id0).is_bounded());
        assert!(ctl.bound(id1).is_bounded());
    }

    #[test]
    fn rejects_candidate_that_cannot_meet_deadline() {
        let m = mesh();
        let mut ctl = AdmissionController::new();
        let (s0, p0) = routed(&m, [0, 0], [5, 0], 2, 20, 10, 20);
        ctl.admit(s0, p0).unwrap();
        // Candidate shares the row, low priority, impossible deadline.
        let (s1, p1) = routed(&m, [1, 0], [6, 0], 1, 100, 8, 12);
        let err = ctl.admit(s1, p1).unwrap_err();
        assert!(matches!(err, AdmissionError::CandidateInfeasible { .. }));
        assert_eq!(ctl.len(), 1, "controller unchanged on rejection");
    }

    #[test]
    fn rejects_candidate_that_breaks_existing() {
        let m = mesh();
        let mut ctl = AdmissionController::new();
        // Existing low-priority stream with a tight-ish deadline.
        let (s0, p0) = routed(&m, [0, 0], [5, 0], 1, 100, 8, 14);
        let id0 = ctl.admit(s0, p0).unwrap();
        assert!(ctl.bound(id0).meets(14));
        // High-priority heavyweight newcomer on the same row.
        let (s1, p1) = routed(&m, [1, 0], [6, 0], 2, 30, 20, 30);
        let err = ctl.admit(s1, p1).unwrap_err();
        match err {
            AdmissionError::BreaksExisting { victims, .. } => assert_eq!(victims, vec![id0]),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn cached_bounds_match_full_analysis() {
        let m = mesh();
        let mut ctl = AdmissionController::new();
        let streams = [
            ([0u32, 0u32], [5u32, 0u32], 3u32, 60u64, 4u64),
            ([1, 0], [6, 0], 2, 90, 6),
            ([0, 2], [7, 2], 3, 70, 8),
            ([2, 0], [2, 5], 1, 120, 10),
            ([1, 2], [6, 2], 1, 150, 6),
        ];
        for (s, d, p, t, c) in streams {
            let (spec, path) = routed(&m, s, d, p, t, c, t);
            ctl.admit(spec, path).unwrap();
        }
        let set = ctl.set().unwrap();
        let full = determine_feasibility(set);
        for id in set.ids() {
            assert_eq!(ctl.bound(id), full.bound(id), "{id:?}");
        }
    }

    #[test]
    fn admission_skips_unaffected_recomputation() {
        let m = mesh();
        let mut ctl = AdmissionController::new();
        // Two streams in disjoint corners.
        let (s0, p0) = routed(&m, [0, 0], [3, 0], 1, 50, 4, 50);
        ctl.admit(s0, p0).unwrap();
        let before = ctl.recomputations();
        // A new stream nowhere near stream 0: only itself is recomputed.
        let (s1, p1) = routed(&m, [6, 6], [9, 6], 1, 50, 4, 50);
        ctl.admit(s1, p1).unwrap();
        assert_eq!(ctl.recomputations() - before, 1);
    }

    #[test]
    fn rejection_rolls_back_every_structure() {
        let m = mesh();
        let mut ctl = AdmissionController::new();
        let (s0, p0) = routed(&m, [0, 0], [5, 0], 2, 20, 10, 20);
        let (s1, p1) = routed(&m, [0, 2], [7, 2], 3, 70, 8, 70);
        ctl.admit(s0, p0).unwrap();
        ctl.admit(s1, p1).unwrap();
        let before_bounds = ctl.bounds().to_vec();
        let before_index = ctl.index().clone();
        let before_set_len = ctl.set().unwrap().len();
        // Same impossible candidate as rejects_candidate_that_cannot_meet_deadline.
        let (bad, bad_p) = routed(&m, [1, 0], [6, 0], 1, 100, 8, 12);
        ctl.admit(bad, bad_p).unwrap_err();
        assert_eq!(ctl.bounds(), before_bounds.as_slice());
        assert_eq!(ctl.index(), &before_index);
        assert_eq!(ctl.set().unwrap().len(), before_set_len);
        // And the rolled-back index still equals a fresh build.
        assert_eq!(ctl.index(), &InterferenceIndex::build(ctl.set().unwrap()));
    }

    #[test]
    fn removal_refreshes_victims() {
        let m = mesh();
        let mut ctl = AdmissionController::new();
        let (hi, hi_p) = routed(&m, [0, 0], [5, 0], 2, 40, 10, 40);
        let (lo, lo_p) = routed(&m, [1, 0], [6, 0], 1, 100, 4, 100);
        let hi_id = ctl.admit(hi, hi_p).unwrap();
        let lo_id = ctl.admit(lo, lo_p).unwrap();
        let blocked = ctl.bound(lo_id).value().unwrap();
        let l = ctl.set().unwrap().get(lo_id).latency;
        assert!(blocked > l);
        ctl.remove(hi_id);
        // lo shifted down to id 0 and is now unblocked.
        let new_lo = StreamId(0);
        assert_eq!(ctl.len(), 1);
        assert_eq!(ctl.bound(new_lo).value().unwrap(), l);
    }

    #[test]
    fn structural_guard_rejects_oversubscribed_candidate() {
        let m = mesh();
        let mut ctl = AdmissionController::new();
        // C = 20 > T = 10: refused outright, no analysis run.
        let (s, p) = routed(&m, [0, 0], [5, 0], 1, 10, 20, 10);
        let err = ctl.admit(s, p).unwrap_err();
        assert!(matches!(err, AdmissionError::Invalid(_)), "{err:?}");
        assert!(err.to_string().contains("oversubscribes"));
        assert_eq!(ctl.recomputations(), 0);
    }

    #[test]
    fn structural_guard_rejects_deadline_below_latency() {
        let m = mesh();
        let mut ctl = AdmissionController::new();
        // 5 hops, C = 4 -> L = 8, but D = 5: unreachable even alone.
        let (s, p) = routed(&m, [0, 0], [5, 0], 1, 100, 4, 5);
        let err = ctl.admit(s, p).unwrap_err();
        match err {
            AdmissionError::CandidateInfeasible {
                bound, blocked_by, ..
            } => {
                assert_eq!(bound, DelayBound::Bounded(8));
                assert!(blocked_by.is_empty(), "fails alone, no blockers");
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(ctl.recomputations(), 0);
    }

    #[test]
    fn remove_to_empty() {
        let m = mesh();
        let mut ctl = AdmissionController::new();
        let (s0, p0) = routed(&m, [0, 0], [3, 0], 1, 50, 4, 50);
        let id = ctl.admit(s0, p0).unwrap();
        ctl.remove(id);
        assert!(ctl.is_empty());
        assert!(ctl.set().is_none());
    }
}
