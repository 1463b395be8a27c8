//! Timing diagrams: the worst-case schedule of higher-priority traffic
//! from which the delay upper bound is read off (paper §4.2-4.3,
//! `Generate_Init_Diagram`).
//!
//! # The worst-case model
//!
//! The diagram abstracts the whole network, from the analyzed stream's
//! point of view, as **one shared timeline**: while any HP-set member
//! transmits anywhere on (or upstream of) the target's path, the target
//! makes no progress; every column in which no member transmits
//! contributes one flit time of progress, and the target completes once
//! it has accumulated `L = hops + C - 1` such columns. The worst case
//! is constructed, critical-instant style, by releasing an instance of
//! every HP element at the start of each of its period windows and
//! letting strictly-higher rows preempt lower ones — exactly what
//! flit-level preemptive switching does on a single contended channel.
//!
//! This is *pessimistic* in two ways (interference on disjoint channels
//! is serialized even when it could overlap the target's pipeline, and
//! every instance is assumed maximal and maximally aligned) and
//! *optimistic* in none that we could exhibit: across 200 random
//! workloads and an exhaustive small-scale phase search, no simulated
//! latency ever exceeded the bound (EXPERIMENTS.md, "End-to-end
//! soundness" and "Tightness search"). The one modelling precondition
//! is that the router sustains one flit per cycle per channel — with
//! credit-based VC buffers this requires depth >= 2 (see the
//! sensitivity study; at depth 1 the bound is genuinely violated
//! because `L` itself is wrong).
//!
//! Within one row, same-priority instances serialize FIFO; rows are
//! sorted by decreasing priority so a `Busy` mark only ever flows
//! downward. `Waiting` marks record preemption and matter to
//! `Modify_Diagram`: an indirect element's instance whose active span
//! sees no intermediate-stream activity cannot reach the target and is
//! discounted.
//!
//! # Representation
//!
//! Since the bitset-kernel rewrite the diagram is *stored* as packed
//! bit words — one allocation mask per row plus the busy-column union —
//! and the four-valued cell matrix the paper draws is a **lazily
//! materialized view** (built on the first [`TimingDiagram::slot`]
//! call, e.g. by the renderer). All analysis queries
//! (`accumulate_free`, `row_active_in`, `free_for_target`) run on the
//! words directly; see [`occupancy`] for the kernel and the equivalence
//! argument, and [`legacy`] for the retained reference implementation
//! behind [`TimingDiagram::generate_legacy`].

mod bits;
mod legacy;
mod occupancy;

pub use occupancy::AnalysisScratch;

use crate::hpset::HpSet;
use crate::stream::{StreamId, StreamSet};
use std::sync::OnceLock;

/// State of one (row, time-slot) cell, exactly the paper's four values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// Usable by lower-priority traffic (and ultimately the target).
    Free,
    /// A higher-priority row transmits here; unusable.
    Busy,
    /// This row's message is preempted here (it wants the slot but a
    /// higher-priority row holds it).
    Waiting,
    /// This row's message transmits here.
    Allocated,
}

/// Selects which `Generate_Init_Diagram` implementation runs — the
/// packed-bitset kernel or the original cell-matrix walk kept as its
/// oracle (used by the kernel-equivalence suite and the
/// `diagram_kernel` benchmark).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DiagramKernel {
    /// Word-parallel kernel over packed bit rows (the default).
    #[default]
    Bitset,
    /// The reference cell-matrix transcription of the paper's
    /// pseudocode.
    Legacy,
}

/// One periodic instance of an HP element inside the diagram horizon.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instance {
    /// Zero-based instance number `k` (release at `k * T`).
    pub index: usize,
    /// First slot of the period window (1-based, inclusive).
    pub window_start: u64,
    /// Last slot of the period window (inclusive, clipped to horizon).
    pub window_end: u64,
    /// Slots this instance transmits in, ascending.
    pub slots: Vec<u64>,
    /// True when the instance obtained all `C` slots inside its window.
    /// `false` means the window (or horizon) ended first — the network
    /// is overloaded at this priority and the bound is reported
    /// infeasible by the caller.
    pub complete: bool,
    /// True when `Modify_Diagram` removed this instance (its indirect
    /// blocking cannot propagate to the target).
    pub removed: bool,
}

impl Instance {
    /// Last slot at which this instance is present in the network
    /// (transmitting or preempted). The greedy allocation marks every
    /// slot from the window start up to the completion slot as either
    /// `Allocated` or `Waiting`, so the instance's *active span* is
    /// `[window_start, active_end()]`; an incomplete instance stays
    /// active through its whole window.
    pub fn active_end(&self) -> u64 {
        if self.complete {
            *self.slots.last().expect("complete instance has slots")
        } else {
            self.window_end
        }
    }
}

/// One row of the diagram: an HP element and its instances.
#[derive(Clone, Debug)]
pub struct Row {
    /// The HP element occupying this row.
    pub stream: StreamId,
    /// Instances in window order.
    pub instances: Vec<Instance>,
}

/// Instances deleted by `Modify_Diagram`, keyed by (stream, instance
/// number) and kept sorted, so a lookup is a binary search.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RemovedInstances(Vec<(StreamId, usize)>);

impl RemovedInstances {
    /// No removals (the initial diagram).
    pub fn none() -> Self {
        RemovedInstances(Vec::new())
    }

    /// Wraps entries that are already sorted and free of duplicates.
    pub(crate) fn from_sorted(entries: Vec<(StreamId, usize)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0] < w[1]));
        RemovedInstances(entries)
    }

    /// Marks instance `index` of `stream` as removed.
    pub fn insert(&mut self, stream: StreamId, index: usize) {
        if let Err(at) = self.0.binary_search(&(stream, index)) {
            self.0.insert(at, (stream, index));
        }
    }

    /// True when instance `index` of `stream` is removed.
    pub fn contains(&self, stream: StreamId, index: usize) -> bool {
        self.0.binary_search(&(stream, index)).is_ok()
    }

    /// Number of removed instances.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when nothing was removed.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Drops all removals, keeping the allocation.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// All removed (stream, instance) pairs, sorted.
    pub fn entries(&self) -> Vec<(StreamId, usize)> {
        self.0.clone()
    }
}

/// The worst-case timing diagram of one target stream's HP set over
/// slots `1..=horizon`.
///
/// Rows are the HP elements in decreasing-priority order; the target's
/// own row is implicit (a slot is usable by the target iff no HP row is
/// `Allocated` in it). Storage is one packed allocation bit row per HP
/// element plus the busy-column union; the cell matrix is a lazy view.
#[derive(Clone, Debug)]
pub struct TimingDiagram {
    target: StreamId,
    horizon: u64,
    /// Words per bit row.
    words: usize,
    rows: Vec<Row>,
    /// Row-major allocation masks, `rows.len() * words` words: bit
    /// `t-1` set iff the row transmits in slot `t`.
    alloc: Vec<u64>,
    /// Per-column busy bits: the OR of all rows' allocation masks.
    column_taken: Vec<u64>,
    /// Lazily materialized `rows.len() * horizon` cell matrix.
    cells: OnceLock<Vec<Slot>>,
}

impl TimingDiagram {
    /// Runs `Generate_Init_Diagram`: greedily schedules every HP
    /// element's periodic instances over `1..=horizon`, honoring
    /// `removed` (pass [`RemovedInstances::none`] for the initial
    /// diagram).
    ///
    /// Every instance of an element with period `T` and length `C`
    /// claims the first `C` free slots in its window
    /// `[kT+1, (k+1)T]`; slots already taken by higher rows are marked
    /// [`Slot::Waiting`] (the element is preempted there) until the
    /// instance completes, and claimed slots mark every lower row
    /// [`Slot::Busy`].
    ///
    /// # Panics
    /// Panics if `horizon == 0`.
    pub fn generate(set: &StreamSet, hp: &HpSet, horizon: u64, removed: &RemovedInstances) -> Self {
        assert!(horizon > 0, "diagram horizon must be positive");
        let occ = occupancy::generate(set, hp, horizon, removed);
        let d = TimingDiagram {
            target: hp.target,
            horizon,
            words: occ.words,
            rows: occ.rows,
            alloc: occ.alloc,
            column_taken: occ.taken,
            cells: OnceLock::new(),
        };
        #[cfg(debug_assertions)]
        if let Err(e) = d.check_invariants(set) {
            panic!("bitset kernel invariant violated: {e}");
        }
        d
    }

    /// [`TimingDiagram::generate`] through the original cell-matrix
    /// kernel. Semantically identical — the randomized equivalence
    /// suite compares the two bit for bit — and kept as the oracle and
    /// the benchmark baseline.
    pub fn generate_legacy(
        set: &StreamSet,
        hp: &HpSet,
        horizon: u64,
        removed: &RemovedInstances,
    ) -> Self {
        let d = legacy::generate(set, hp, horizon, removed);
        #[cfg(debug_assertions)]
        if let Err(e) = d.check_invariants(set) {
            panic!("legacy kernel invariant violated: {e}");
        }
        d
    }

    /// [`TimingDiagram::generate`] with an explicit kernel choice.
    pub fn generate_with(
        set: &StreamSet,
        hp: &HpSet,
        horizon: u64,
        removed: &RemovedInstances,
        kernel: DiagramKernel,
    ) -> Self {
        match kernel {
            DiagramKernel::Bitset => Self::generate(set, hp, horizon, removed),
            DiagramKernel::Legacy => Self::generate_legacy(set, hp, horizon, removed),
        }
    }

    /// Assembles a diagram from a fully-walked cell matrix (the legacy
    /// kernel's output), deriving the bit rows and storing the matrix
    /// as the already-materialized view.
    fn from_cells(
        target: StreamId,
        horizon: u64,
        rows: Vec<Row>,
        cells: Vec<Slot>,
        column_taken_bools: Vec<bool>,
    ) -> Self {
        let words = bits::word_count(horizon);
        let h = horizon as usize;
        let mut alloc = vec![0u64; rows.len() * words];
        for r in 0..rows.len() {
            for t in 1..=horizon {
                if cells[r * h + (t as usize - 1)] == Slot::Allocated {
                    let (wi, m) = bits::slot_bit(t);
                    alloc[r * words + wi] |= m;
                }
            }
        }
        let mut column_taken = vec![0u64; words];
        for (t0, &b) in column_taken_bools.iter().enumerate() {
            if b {
                let (wi, m) = bits::slot_bit(t0 as u64 + 1);
                column_taken[wi] |= m;
            }
        }
        let lock = OnceLock::new();
        lock.set(cells).expect("fresh lock");
        TimingDiagram {
            target,
            horizon,
            words,
            rows,
            alloc,
            column_taken,
            cells: lock,
        }
    }

    /// The analyzed stream.
    pub fn target(&self) -> StreamId {
        self.target
    }

    /// Number of time slots.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// The rows in decreasing-priority order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The materialized cell matrix, built on first use.
    fn cells(&self) -> &[Slot] {
        self.cells.get_or_init(|| {
            let h = self.horizon as usize;
            let mut cells = vec![Slot::Free; self.rows.len() * h];
            let mut above = vec![0u64; self.words];
            for (r, row) in self.rows.iter().enumerate() {
                let base = r * h;
                let row_alloc = &self.alloc[r * self.words..(r + 1) * self.words];
                // Busy wherever some higher row transmits...
                for t in 1..=self.horizon {
                    let (wi, m) = bits::slot_bit(t);
                    if above[wi] & m != 0 {
                        cells[base + t as usize - 1] = Slot::Busy;
                    }
                }
                // ...overwritten inside each instance's active span,
                // where the greedy allocator leaves no cell Free or
                // Busy: Allocated on the row's own slots, Waiting on
                // the preempted remainder.
                for inst in &row.instances {
                    if inst.removed {
                        continue;
                    }
                    for t in inst.window_start..=inst.active_end() {
                        let (wi, m) = bits::slot_bit(t);
                        cells[base + t as usize - 1] = if row_alloc[wi] & m != 0 {
                            Slot::Allocated
                        } else {
                            Slot::Waiting
                        };
                    }
                }
                for (a, w) in above.iter_mut().zip(row_alloc) {
                    *a |= *w;
                }
            }
            cells
        })
    }

    /// Cell state of `row` at 1-based slot `t`.
    ///
    /// Materializes the cell-matrix view on first call; the analysis
    /// queries ([`Self::accumulate_free`], [`Self::row_active_in`],
    /// [`Self::transmits_in`]) never need it.
    pub fn slot(&self, row: usize, t: u64) -> Slot {
        assert!(t >= 1 && t <= self.horizon, "slot {t} out of range");
        self.cells()[row * self.horizon as usize + (t as usize - 1)]
    }

    /// True when `row` transmits in slot `t` — an O(1) bit probe,
    /// equivalent to `slot(row, t) == Slot::Allocated` without
    /// materializing the cell view.
    pub fn transmits_in(&self, row: usize, t: u64) -> bool {
        assert!(t >= 1 && t <= self.horizon, "slot {t} out of range");
        let (wi, m) = bits::slot_bit(t);
        self.alloc[row * self.words + wi] & m != 0
    }

    /// Number of slots `row` transmits in within `1..=limit` (clipped
    /// to the horizon) — a per-word popcount over the row's allocation
    /// mask.
    pub fn allocated_through(&self, row: usize, limit: u64) -> u64 {
        let limit = limit.min(self.horizon);
        if limit == 0 {
            return 0;
        }
        let row_alloc = &self.alloc[row * self.words..(row + 1) * self.words];
        let last = ((limit - 1) >> 6) as usize;
        let mut n = 0u64;
        for (wi, &w) in row_alloc.iter().enumerate().take(last + 1) {
            let masked = if wi == last {
                w & bits::mask_through(((limit - 1) & 63) as u32)
            } else {
                w
            };
            n += u64::from(masked.count_ones());
        }
        n
    }

    /// True when slot `t` is usable by the target (no HP row transmits).
    pub fn free_for_target(&self, t: u64) -> bool {
        assert!(t >= 1 && t <= self.horizon, "slot {t} out of range");
        let (wi, m) = bits::slot_bit(t);
        self.column_taken[wi] & m == 0
    }

    /// True when `row`'s message is present (transmitting or preempted)
    /// anywhere in slots `from..=to` — the `Modify_Diagram` activity
    /// test for intermediate streams. Runs on the instances' active
    /// spans (the greedy allocation keeps every span slot `Allocated`
    /// or `Waiting` and every slot outside all spans `Free` or `Busy`),
    /// so no cell walk is needed.
    pub fn row_active_in(&self, row: usize, from: u64, to: u64) -> bool {
        assert!(
            from >= 1 && from <= self.horizon,
            "slot {from} out of range"
        );
        let to = to.min(self.horizon);
        self.rows[row]
            .instances
            .iter()
            .any(|i| !i.removed && i.window_start <= to && i.active_end() >= from)
    }

    /// Slots usable by the target, ascending.
    pub fn free_slots(&self) -> impl Iterator<Item = u64> + '_ {
        (1..=self.horizon).filter(move |&t| self.free_for_target(t))
    }

    /// The time at which the target has accumulated `needed` free slots,
    /// or `None` if the horizon is exhausted first. This is the delay
    /// upper bound when `needed` is the target's network latency.
    /// Word-parallel: one popcount per 64 slots plus a single bit
    /// select in the final word.
    pub fn accumulate_free(&self, needed: u64) -> Option<u64> {
        bits::accumulate_free(&self.column_taken, self.horizon, needed)
    }

    /// True when some non-removed instance failed to complete within its
    /// window — the schedule is saturated at this priority level and
    /// bounds read from the diagram would be unsound.
    pub fn saturated(&self) -> bool {
        self.rows
            .iter()
            .any(|r| r.instances.iter().any(|i| !i.removed && !i.complete))
    }

    /// Row index of `stream`, if it is an HP element.
    pub fn row_of(&self, stream: StreamId) -> Option<usize> {
        self.rows.iter().position(|r| r.stream == stream)
    }

    /// Verifies the diagram's structural invariants against the stream
    /// set it was generated from, returning a description of the first
    /// violation found.
    ///
    /// The checked invariants are exactly the ones the packed-bitset
    /// kernel must preserve for `Cal_U` to be sound:
    ///
    /// 1. **alloc ⊆ taken** — every row's allocation mask is a subset
    ///    of the busy-column union;
    /// 2. **exclusivity / popcount conservation** — no slot is
    ///    allocated by two rows, and the union of the row masks equals
    ///    `column_taken` bit for bit (so popcounts are conserved across
    ///    `Modify_Diagram` removals: removed instances contribute
    ///    nothing, surviving ones exactly their slot counts);
    /// 3. **period windows** — instance `k` of a row with period `T`
    ///    spans `[kT+1, min((k+1)T, horizon)]`, windows tile the
    ///    horizon, and every transmitted slot lies inside its window;
    /// 4. **slot accounting** — a complete instance holds exactly `C`
    ///    ascending slots, a removed one holds none, and the per-row
    ///    slot lists agree with the row's allocation mask popcount.
    ///
    /// The same checks run as `debug_assert!`s inside the kernels; this
    /// method is the release-mode entry point used by the `verifier`
    /// crate's self-check mode.
    pub fn check_invariants(&self, set: &StreamSet) -> Result<(), String> {
        let mut union = vec![0u64; self.words];
        for (r, row) in self.rows.iter().enumerate() {
            let row_alloc = &self.alloc[r * self.words..(r + 1) * self.words];
            let mut mask_pop = 0u64;
            for (wi, &w) in row_alloc.iter().enumerate() {
                if w & !self.column_taken[wi] != 0 {
                    return Err(format!(
                        "row {r} ({}): allocation mask escapes the taken accumulator in word {wi}",
                        row.stream
                    ));
                }
                if union[wi] & w != 0 {
                    return Err(format!(
                        "row {r} ({}): allocation overlaps another row's in word {wi}",
                        row.stream
                    ));
                }
                union[wi] |= w;
                mask_pop += u64::from(w.count_ones());
            }

            let stream = set.get(row.stream);
            let (period, length) = (stream.period(), stream.max_length());
            let mut listed = 0u64;
            for (k, inst) in row.instances.iter().enumerate() {
                if inst.index != k {
                    return Err(format!(
                        "row {r} ({}): instance {k} is numbered {}",
                        row.stream, inst.index
                    ));
                }
                let want_start = k as u64 * period + 1;
                let want_end = ((k as u64 + 1) * period).min(self.horizon);
                if inst.window_start != want_start || inst.window_end != want_end {
                    return Err(format!(
                        "row {r} ({}): instance {k} window [{}, {}] violates period {period} \
                         (expected [{want_start}, {want_end}])",
                        row.stream, inst.window_start, inst.window_end
                    ));
                }
                if inst.removed {
                    if !inst.slots.is_empty() {
                        return Err(format!(
                            "row {r} ({}): removed instance {k} still transmits",
                            row.stream
                        ));
                    }
                    continue;
                }
                if inst.complete && inst.slots.len() as u64 != length {
                    return Err(format!(
                        "row {r} ({}): complete instance {k} holds {} slots, C = {length}",
                        row.stream,
                        inst.slots.len()
                    ));
                }
                let mut prev = 0u64;
                for &t in &inst.slots {
                    if t <= prev {
                        return Err(format!(
                            "row {r} ({}): instance {k} slots not strictly ascending",
                            row.stream
                        ));
                    }
                    if t < inst.window_start || t > inst.window_end {
                        return Err(format!(
                            "row {r} ({}): instance {k} transmits at {t} outside its window \
                             [{}, {}]",
                            row.stream, inst.window_start, inst.window_end
                        ));
                    }
                    let (wi, m) = bits::slot_bit(t);
                    if row_alloc[wi] & m == 0 {
                        return Err(format!(
                            "row {r} ({}): instance {k} lists slot {t} absent from the \
                             allocation mask",
                            row.stream
                        ));
                    }
                    prev = t;
                }
                listed += inst.slots.len() as u64;
            }
            if listed != mask_pop {
                return Err(format!(
                    "row {r} ({}): instance slot lists total {listed} but the allocation mask \
                     holds {mask_pop} bits",
                    row.stream
                ));
            }
        }
        for (wi, (&u, &t)) in union.iter().zip(&self.column_taken).enumerate() {
            if u != t {
                return Err(format!(
                    "busy-column union diverges from the rows' masks in word {wi}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpset::generate_hp;
    use crate::stream::{StreamSet, StreamSpec};
    use wormnet_topology::{Mesh, Topology, XyRouting};

    /// Figure 4's abstract streams, realized on one mesh row so that all
    /// HP elements are direct: M1 (T=10, C=2), M2 (T=15, C=3),
    /// M3 (T=13, C=4), target M4.
    fn figure4() -> StreamSet {
        let m = Mesh::mesh2d(20, 2);
        let mk = |x0: u32, x1: u32, p: u32, t: u64, c: u64| {
            StreamSpec::new(
                m.node_at(&[x0, 0]).unwrap(),
                m.node_at(&[x1, 0]).unwrap(),
                p,
                t,
                c,
                200,
            )
        };
        StreamSet::resolve(
            &m,
            &XyRouting,
            &[
                mk(0, 6, 4, 10, 2), // M1
                mk(1, 7, 3, 15, 3), // M2
                mk(2, 8, 2, 13, 4), // M3
                mk(3, 9, 1, 50, 6), // M4 (target)
            ],
        )
        .unwrap()
    }

    #[test]
    fn figure4_initial_diagram() {
        // Reproduces the shape of paper Figure 4: with M1, M2, M3 all
        // direct, the free slots accumulate so that a network latency of
        // 6 is reached at slot 26.
        let set = figure4();
        let hp = generate_hp(&set, StreamId(3));
        assert_eq!(hp.len(), 3);
        assert!(!hp.has_indirect());
        let d = TimingDiagram::generate(&set, &hp, 50, &RemovedInstances::none());

        // M1 (row 0): slots 1-2, 11-12, 21-22, 31-32, 41-42.
        assert_eq!(d.rows()[0].instances[0].slots, vec![1, 2]);
        assert_eq!(d.rows()[0].instances[1].slots, vec![11, 12]);
        // M2 (row 1): first instance blocked at 1-2, takes 3-5.
        assert_eq!(d.rows()[1].instances[0].slots, vec![3, 4, 5]);
        assert_eq!(d.slot(1, 1), Slot::Waiting);
        assert_eq!(d.slot(1, 2), Slot::Waiting);
        // M3 (row 2): blocked 1-5, takes 6-9.
        assert_eq!(d.rows()[2].instances[0].slots, vec![6, 7, 8, 9]);

        // Paper: "if the network latency of M4 is 6, then time 26 is the
        // delay upper bound of M4".
        assert_eq!(d.accumulate_free(6), Some(26));
    }

    #[test]
    fn columns_taken_match_allocations() {
        let set = figure4();
        let hp = generate_hp(&set, StreamId(3));
        let d = TimingDiagram::generate(&set, &hp, 50, &RemovedInstances::none());
        for t in 1..=50u64 {
            let any_alloc = (0..3).any(|r| d.slot(r, t) == Slot::Allocated);
            assert_eq!(!d.free_for_target(t), any_alloc, "slot {t}");
        }
    }

    #[test]
    fn removal_leaves_window_free() {
        let set = figure4();
        let hp = generate_hp(&set, StreamId(3));
        let mut removed = RemovedInstances::none();
        removed.insert(StreamId(0), 1); // drop M1's second instance
        let d = TimingDiagram::generate(&set, &hp, 50, &removed);
        let inst = &d.rows()[0].instances[1];
        assert!(inst.removed);
        assert!(inst.slots.is_empty());
        // M2's second instance may now start at 16 instead of 18... M2's
        // window [16,30] was previously cut by M1 at 21-22; verify M1's
        // slots 11-12 are gone and the column is reusable.
        assert_eq!(d.slot(0, 11), Slot::Free);
        assert!(
            d.free_for_target(11)
                || d.slot(1, 11) == Slot::Allocated
                || d.slot(2, 11) == Slot::Allocated
        );
    }

    #[test]
    fn saturation_detected() {
        // A stream whose window cannot hold its own length after
        // interference: M-high takes 8 of every 10 slots, M-low needs 5
        // of every 10 -> incomplete.
        let m = Mesh::mesh2d(10, 2);
        let mk = |x0: u32, x1: u32, p: u32, t: u64, c: u64| {
            StreamSpec::new(
                m.node_at(&[x0, 0]).unwrap(),
                m.node_at(&[x1, 0]).unwrap(),
                p,
                t,
                c,
                100,
            )
        };
        let set = StreamSet::resolve(
            &m,
            &XyRouting,
            &[
                mk(0, 6, 3, 10, 8),
                mk(1, 7, 2, 10, 5),
                mk(2, 8, 1, 100, 2), // target
            ],
        )
        .unwrap();
        let hp = generate_hp(&set, StreamId(2));
        let d = TimingDiagram::generate(&set, &hp, 100, &RemovedInstances::none());
        assert!(d.saturated());
        assert_eq!(d.accumulate_free(2), None);
    }

    #[test]
    fn window_clipped_to_horizon() {
        let set = figure4();
        let hp = generate_hp(&set, StreamId(3));
        let d = TimingDiagram::generate(&set, &hp, 25, &RemovedInstances::none());
        // M1 period 10: instances [1,10], [11,20], [21,25] (clipped).
        let insts = &d.rows()[0].instances;
        assert_eq!(insts.len(), 3);
        assert_eq!(insts[2].window_start, 21);
        assert_eq!(insts[2].window_end, 25);
    }

    #[test]
    fn accumulate_zero_is_immediate() {
        let set = figure4();
        let hp = generate_hp(&set, StreamId(3));
        let d = TimingDiagram::generate(&set, &hp, 10, &RemovedInstances::none());
        assert_eq!(d.accumulate_free(0), Some(0));
    }

    #[test]
    fn row_active_covers_waiting() {
        let set = figure4();
        let hp = generate_hp(&set, StreamId(3));
        let d = TimingDiagram::generate(&set, &hp, 50, &RemovedInstances::none());
        // M2 waits at 1-2 and transmits 3-5: active through [1,5].
        assert!(d.row_active_in(1, 1, 2));
        assert!(d.row_active_in(1, 3, 5));
        // M2's first instance is done by 5; inactive in [6,10].
        assert!(!d.row_active_in(1, 6, 10));
    }

    #[test]
    fn bitset_matches_legacy_on_figure4() {
        let set = figure4();
        let hp = generate_hp(&set, StreamId(3));
        let fast = TimingDiagram::generate(&set, &hp, 50, &RemovedInstances::none());
        let slow = TimingDiagram::generate_legacy(&set, &hp, 50, &RemovedInstances::none());
        for r in 0..hp.len() {
            assert_eq!(
                fast.rows()[r].instances,
                slow.rows()[r].instances,
                "row {r}"
            );
            for t in 1..=50 {
                assert_eq!(fast.slot(r, t), slow.slot(r, t), "row {r} slot {t}");
                assert_eq!(fast.transmits_in(r, t), slow.transmits_in(r, t));
            }
        }
        for need in 0..=12 {
            assert_eq!(fast.accumulate_free(need), slow.accumulate_free(need));
        }
    }

    #[test]
    fn transmit_queries_agree_with_cells() {
        let set = figure4();
        let hp = generate_hp(&set, StreamId(3));
        let d = TimingDiagram::generate(&set, &hp, 50, &RemovedInstances::none());
        for r in 0..hp.len() {
            let mut count = 0;
            for t in 1..=50 {
                assert_eq!(d.transmits_in(r, t), d.slot(r, t) == Slot::Allocated);
                if d.transmits_in(r, t) {
                    count += 1;
                }
                assert_eq!(d.allocated_through(r, t), count, "row {r} through {t}");
            }
        }
    }

    #[test]
    fn kernel_selector_dispatches() {
        let set = figure4();
        let hp = generate_hp(&set, StreamId(3));
        let none = RemovedInstances::none();
        for kernel in [DiagramKernel::Bitset, DiagramKernel::Legacy] {
            let d = TimingDiagram::generate_with(&set, &hp, 50, &none, kernel);
            assert_eq!(d.accumulate_free(6), Some(26), "{kernel:?}");
        }
    }
}
