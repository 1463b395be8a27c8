//! The packed-bitset `Generate_Init_Diagram` kernel and
//! [`AnalysisScratch`], the arena that runs every `Cal_U`.
//!
//! # Why bit words
//!
//! The reference kernel (see [`super::legacy`]) materializes the full
//! `rows x horizon` cell matrix and, on every allocated slot, walks all
//! lower rows to stamp `Busy` — `O(rows^2 * horizon)` work and
//! `O(rows * horizon)` bytes per diagram. But the diagram's semantics
//! only ever need three per-row bit vectors:
//!
//! * which slots a row *transmits* in (its allocation mask), and
//! * which slots are taken by any strictly-higher row (a single running
//!   accumulator, because rows are processed in decreasing priority).
//!
//! `Busy`/`Waiting` are derivable: a cell is `Busy` iff a higher row's
//! allocation covers it, and `Waiting` iff that happens inside the
//! row's own active span (the greedy allocator keeps every instance
//! either transmitting or preempted from its window start to the slot
//! its tail moves, so spans are contiguous). Instance slots are found
//! with word scans — `!taken & window_mask`, then `trailing_zeros` per
//! claimed slot — touching `horizon / 64` words instead of `horizon`
//! cells per row.
//!
//! # One `Modify_Diagram` loop
//!
//! `Modify_Diagram` needs even less: one `taken` accumulator plus each
//! instance's `[window_start, active_end]` span and removal flag.
//! [`AnalysisScratch`] keeps exactly that, in buffers reused across
//! streams, and is the only implementation of the loop: the bound-only
//! callers read `U` off its accumulator, and the detailed path
//! (`cal_u_with_hp`, `modify_diagram_with`) takes its removal set and
//! runs [`generate`] once on it. Both removal rules go through it:
//! `InstanceSpan` probes the intermediates up to an instance's
//! `active_end`, `InstanceWindow` up to its `window_end`.
//!
//! The loop builds no blocking dependency graph and hashes nothing.
//! The processing order is read off the HP set's `IN` fields
//! ([`HpSet::order_rows`]), intermediates are found through a stream ->
//! row table, and removals only flag instances. Re-compaction is lazy
//! and partial: a removal in row `r` leaves rows above `r` untouched,
//! so the rows from `r` down are re-claimed from a checkpoint of
//! `taken` taken in front of `r`, and only once an element (or the
//! final bound) reads one of them.

use super::bits;
use super::{Instance, RemovedInstances, Row};
use crate::calu::DelayBound;
use crate::hpset::HpSet;
use crate::modify::RemovalStrategy;
use crate::stream::{StreamId, StreamSet};

/// Raw output of the bitset kernel, consumed by
/// [`super::TimingDiagram`]'s constructor.
pub(super) struct Occupancy {
    /// Words per bit row (`horizon.div_ceil(64)`).
    pub words: usize,
    /// Diagram rows with fully-populated instance slot lists.
    pub rows: Vec<Row>,
    /// Row-major allocation masks, `rows.len() * words` words.
    pub alloc: Vec<u64>,
    /// OR of all rows' allocation masks (the busy columns).
    pub taken: Vec<u64>,
}

/// Runs `Generate_Init_Diagram` over bit words. Produces exactly the
/// allocations of the legacy cell walk: rows in decreasing priority
/// each greedily claim the first `C` slots of every period window that
/// no higher row holds.
pub(super) fn generate(
    set: &StreamSet,
    hp: &HpSet,
    horizon: u64,
    removed: &RemovedInstances,
) -> Occupancy {
    let words = bits::word_count(horizon);
    let n_rows = hp.len();
    let mut taken = vec![0u64; words];
    let mut alloc = vec![0u64; n_rows * words];
    let mut rows = Vec::with_capacity(n_rows);

    for (r, elem) in hp.elements().iter().enumerate() {
        let stream = set.get(elem.stream);
        let period = stream.period();
        let length = stream.max_length();
        let n_instances = horizon.div_ceil(period) as usize;
        let mut instances = Vec::with_capacity(n_instances);
        let row_alloc = &mut alloc[r * words..(r + 1) * words];

        for k in 0..n_instances {
            let window_start = k as u64 * period + 1;
            let window_end = ((k as u64 + 1) * period).min(horizon);
            if removed.contains(elem.stream, k) {
                instances.push(Instance {
                    index: k,
                    window_start,
                    window_end,
                    slots: Vec::new(),
                    complete: false,
                    removed: true,
                });
                continue;
            }
            let mut slots = Vec::with_capacity(length as usize);
            let first = ((window_start - 1) >> 6) as usize;
            let last = ((window_end - 1) >> 6) as usize;
            'scan: for wi in first..=last {
                let mask = bits::range_mask(wi, window_start, window_end);
                let mut avail = !taken[wi] & mask;
                // Claim whole runs of consecutive free bits at a time:
                // under light contention a window is one run, so slots
                // extend by ranges instead of bit-by-bit selects.
                while avail != 0 {
                    let b = avail.trailing_zeros();
                    let run = u64::from((avail >> b).trailing_ones());
                    let need = length - slots.len() as u64;
                    let take = run.min(need);
                    let start_slot = (wi as u64) * 64 + u64::from(b) + 1;
                    slots.extend(start_slot..start_slot + take);
                    let run_mask = if take == 64 {
                        !0u64
                    } else {
                        ((1u64 << take) - 1) << b
                    };
                    row_alloc[wi] |= run_mask;
                    if take == need {
                        break 'scan;
                    }
                    avail &= !run_mask;
                }
            }
            instances.push(Instance {
                index: k,
                window_start,
                window_end,
                complete: slots.len() as u64 == length,
                slots,
                removed: false,
            });
        }

        // Windows within a row are disjoint, so merging after the whole
        // row is equivalent to merging per allocation — and rows below
        // see every slot this row holds.
        debug_assert!(
            row_alloc.iter().zip(taken.iter()).all(|(a, t)| a & t == 0),
            "bitset kernel: row {r} claims slots already in the taken accumulator"
        );
        for (t, a) in taken.iter_mut().zip(row_alloc.iter()) {
            *t |= *a;
        }
        rows.push(Row {
            stream: elem.stream,
            instances,
        });
    }

    Occupancy {
        words,
        rows,
        alloc,
        taken,
    }
}

/// One instance in the arena: its window, its active span, and its
/// removal flag. No slot list.
#[derive(Clone, Copy, Debug)]
struct SpanInstance {
    window_start: u64,
    window_end: u64,
    /// Last slot of the active span (an incomplete instance is active
    /// through its whole window); meaningless when `removed`.
    active_end: u64,
    /// Set by `Modify_Diagram`; a removed instance claims nothing.
    removed: bool,
}

/// One diagram row in the arena.
#[derive(Clone, Debug)]
struct SpanRow {
    stream: StreamId,
    period: u64,
    length: u64,
    /// True for the rows `Modify_Diagram` may remove instances from
    /// (indirect elements'): only they need a checkpoint of `taken`.
    checkpointed: bool,
    instances: Vec<SpanInstance>,
}

/// `row_of` entry of a stream outside the current HP set.
const NO_ROW: u32 = u32::MAX;

/// Looks `stream` up in a stream -> row table.
fn row_in(row_of: &[u32], stream: StreamId) -> Option<usize> {
    match row_of.get(stream.index()) {
        Some(&r) if r != NO_ROW => Some(r as usize),
        _ => None,
    }
}

/// The reusable arena that runs `Generate_Init_Diagram`,
/// `Modify_Diagram` and the free-slot accumulation of `Cal_U` — the
/// crate's only `Modify_Diagram` loop.
///
/// [`crate::feasibility::determine_feasibility`] and the admission
/// controller call it once per stream through
/// [`AnalysisScratch::delay_bound`]; the detailed path
/// ([`crate::calu::cal_u_with_hp`], [`crate::modify::modify_diagram_with`])
/// runs the same loop, reads the removal set off
/// [`AnalysisScratch::removed`], and builds one full
/// [`super::TimingDiagram`] from it.
///
/// Per run the arena keeps, in buffers reused across streams: one
/// `taken` bit accumulator, per-row instance spans with their removal
/// flags, a stream -> row table, and a checkpoint of `taken` in front
/// of every indirect row. Removing instances of a row invalidates only
/// that row and the rows below it, so re-compaction is lazy: it waits
/// until an element reads a stale row (or the bound is read) and then
/// restarts from the first stale row's checkpoint. A steady-state run
/// allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct AnalysisScratch {
    /// Words per bit row in the current run.
    words: usize,
    /// Busy-column accumulator, `taken[..words]` live.
    taken: Vec<u64>,
    /// `checkpoints[r * words..(r + 1) * words]`: `taken` before row
    /// `r` claimed its slots; written for indirect rows only.
    checkpoints: Vec<u64>,
    /// Row pool; `rows[..n_rows]` are live in the current run.
    rows: Vec<SpanRow>,
    /// Live row count of the current run.
    n_rows: usize,
    /// Stream index -> row of the current HP set, [`NO_ROW`] elsewhere.
    row_of: Vec<u32>,
    /// First row whose claims and spans are out of date; `n_rows` when
    /// none is.
    stale_from: usize,
    /// Indirect rows in processing order.
    order: Vec<usize>,
    /// Work buffers of [`HpSet::order_rows`].
    dist: Vec<u32>,
    done: Vec<bool>,
}

impl AnalysisScratch {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the delay upper bound of `hp.target` over slots
    /// `1..=horizon` — `Generate_Init_Diagram`, `Modify_Diagram` with
    /// the default instance-span strategy, then free-slot accumulation
    /// until the target's network latency is covered.
    ///
    /// # Panics
    /// Panics if `horizon == 0`.
    pub fn delay_bound(&mut self, set: &StreamSet, hp: &HpSet, horizon: u64) -> DelayBound {
        self.delay_bound_with(set, hp, horizon, RemovalStrategy::InstanceSpan)
    }

    /// [`AnalysisScratch::delay_bound`] under an explicit removal
    /// strategy. Afterwards [`AnalysisScratch::removed`] holds the
    /// instances this run's `Modify_Diagram` removed.
    ///
    /// # Panics
    /// Panics if `horizon == 0`.
    pub fn delay_bound_with(
        &mut self,
        set: &StreamSet,
        hp: &HpSet,
        horizon: u64,
        strategy: RemovalStrategy,
    ) -> DelayBound {
        assert!(horizon > 0, "diagram horizon must be positive");
        let modify = strategy != RemovalStrategy::Disabled && hp.has_indirect();
        self.load(set, hp, horizon, modify);
        self.compact();
        if modify {
            self.modify(hp, strategy);
        }
        let needed = set.get(hp.target).latency;
        match bits::accumulate_free(&self.taken[..self.words], horizon, needed) {
            Some(u) => DelayBound::Bounded(u),
            None => DelayBound::Exceeded,
        }
    }

    /// The instances the last run's `Modify_Diagram` removed.
    pub fn removed(&self) -> RemovedInstances {
        let mut entries: Vec<(StreamId, usize)> = self.rows[..self.n_rows]
            .iter()
            .flat_map(|row| {
                row.instances
                    .iter()
                    .enumerate()
                    .filter(|(_, i)| i.removed)
                    .map(move |(k, _)| (row.stream, k))
            })
            .collect();
        entries.sort_unstable();
        entries.dedup();
        RemovedInstances::from_sorted(entries)
    }

    /// Sets up the rows, their instance windows and the stream -> row
    /// table for `hp`, with nothing removed and every row stale.
    fn load(&mut self, set: &StreamSet, hp: &HpSet, horizon: u64, modify: bool) {
        for row in &self.rows[..self.n_rows] {
            if let Some(r) = self.row_of.get_mut(row.stream.index()) {
                *r = NO_ROW;
            }
        }
        if self.row_of.len() < set.len() {
            self.row_of.resize(set.len(), NO_ROW);
        }
        self.words = bits::word_count(horizon);
        if self.taken.len() < self.words {
            self.taken.resize(self.words, 0);
        }
        self.n_rows = hp.len();
        if modify && self.checkpoints.len() < self.n_rows * self.words {
            self.checkpoints.resize(self.n_rows * self.words, 0);
        }
        if self.rows.len() < self.n_rows {
            self.rows.resize_with(self.n_rows, || SpanRow {
                stream: StreamId(0),
                period: 1,
                length: 0,
                checkpointed: false,
                instances: Vec::new(),
            });
        }
        for (r, elem) in hp.elements().iter().enumerate() {
            let stream = set.get(elem.stream);
            let row = &mut self.rows[r];
            row.stream = elem.stream;
            row.period = stream.period();
            row.length = stream.max_length();
            row.checkpointed = false;
            row.instances.clear();
            let period = row.period;
            row.instances
                .extend((0..horizon.div_ceil(period)).map(|k| SpanInstance {
                    window_start: k * period + 1,
                    window_end: ((k + 1) * period).min(horizon),
                    active_end: 0,
                    removed: false,
                }));
            // A stream listed twice keeps its first row, as a lookup by
            // stream finds it.
            if let Some(slot) = self.row_of.get_mut(elem.stream.index()) {
                if *slot == NO_ROW {
                    *slot = r as u32;
                }
            }
        }
        if modify {
            for elem in hp.elements().iter().filter(|e| !e.is_direct()) {
                if let Some(r) = self.row(elem.stream) {
                    self.rows[r].checkpointed = true;
                }
            }
        }
        self.stale_from = 0;
    }

    /// Row of `stream` in the current run.
    fn row(&self, stream: StreamId) -> Option<usize> {
        row_in(&self.row_of, stream)
    }

    /// `Modify_Diagram` over the indirect rows in processing order.
    /// Each element's instances are all tested against the diagram as
    /// it stood when the element's turn came; their removals make that
    /// row and every row below it stale.
    fn modify(&mut self, hp: &HpSet, strategy: RemovalStrategy) {
        let Self {
            row_of,
            order,
            dist,
            done,
            ..
        } = self;
        hp.order_rows(|s| row_in(row_of, s), dist, done, order);
        for i in 0..self.order.len() {
            let r = self.order[i];
            let elem = &hp.elements()[r];
            if self.stale_from < self.n_rows
                && (r >= self.stale_from
                    || elem
                        .intermediates
                        .iter()
                        .any(|&im| self.row(im).is_some_and(|x| x >= self.stale_from)))
            {
                self.compact();
            }
            for k in 0..self.rows[r].instances.len() {
                let inst = self.rows[r].instances[k];
                if inst.removed {
                    continue;
                }
                let probe_end = match strategy {
                    RemovalStrategy::InstanceSpan => inst.active_end,
                    RemovalStrategy::InstanceWindow => inst.window_end,
                    RemovalStrategy::Disabled => unreachable!("nothing to modify"),
                };
                let chain_alive = elem.intermediates.iter().any(|&im| {
                    self.row(im)
                        .is_some_and(|x| self.row_active_in(x, inst.window_start, probe_end))
                });
                if !chain_alive {
                    self.rows[r].instances[k].removed = true;
                    self.stale_from = self.stale_from.min(r);
                }
            }
        }
        if self.stale_from < self.n_rows {
            self.compact();
        }
    }

    /// Bound-only `Generate_Init_Diagram` from the first stale row
    /// down, honoring the removal flags: restores `taken` from that
    /// row's checkpoint, then re-claims every later row's slots and
    /// re-derives its spans. Rows above keep their claims.
    fn compact(&mut self) {
        let (from, words) = (self.stale_from, self.words);
        let taken = &mut self.taken[..words];
        if from == 0 {
            taken.fill(0);
        } else {
            taken.copy_from_slice(&self.checkpoints[from * words..(from + 1) * words]);
        }
        // Popcount conservation: every bit set in `taken` is claimed by
        // exactly one surviving instance (allocations only ever OR in
        // bits that were clear), so the bits restored plus the slots
        // claimed below must equal the accumulator's popcount.
        #[cfg(debug_assertions)]
        let mut claimed: u64 = taken.iter().map(|w| u64::from(w.count_ones())).sum();

        for r in from..self.n_rows {
            let row = &mut self.rows[r];
            if row.checkpointed {
                self.checkpoints[r * words..(r + 1) * words].copy_from_slice(taken);
            }
            for inst in row.instances.iter_mut().filter(|i| !i.removed) {
                let (window_start, window_end) = (inst.window_start, inst.window_end);
                // Claim the first `length` free slots word by word.
                // Unlike the full kernel, whole words are taken with a
                // popcount and only the final partial word needs a
                // select; allocations go straight into `taken` (same-row
                // windows are disjoint, so later instances never see
                // them inside their own masks).
                let mut remaining = row.length;
                let mut last_slot = 0u64;
                let first = ((window_start - 1) >> 6) as usize;
                let last = ((window_end - 1) >> 6) as usize;
                for (wi, word) in taken.iter_mut().enumerate().take(last + 1).skip(first) {
                    let mask = bits::range_mask(wi, window_start, window_end);
                    let avail = !*word & mask;
                    let cnt = u64::from(avail.count_ones());
                    if cnt == 0 {
                        continue;
                    }
                    if cnt < remaining {
                        *word |= avail;
                        remaining -= cnt;
                        last_slot = (wi as u64) * 64 + 64 - u64::from(avail.leading_zeros());
                        #[cfg(debug_assertions)]
                        {
                            claimed += cnt;
                        }
                    } else {
                        let b = bits::select_nth_set(avail, (remaining - 1) as u32);
                        *word |= avail & bits::mask_through(b);
                        #[cfg(debug_assertions)]
                        {
                            claimed += remaining;
                        }
                        remaining = 0;
                        last_slot = (wi as u64) * 64 + u64::from(b) + 1;
                        break;
                    }
                }
                inst.active_end = if remaining == 0 {
                    last_slot
                } else {
                    window_end
                };
            }
        }
        #[cfg(debug_assertions)]
        {
            let pop: u64 = taken.iter().map(|w| u64::from(w.count_ones())).sum();
            assert_eq!(
                claimed, pop,
                "scratch kernel: claimed slots diverge from the taken accumulator's popcount"
            );
        }
        self.stale_from = self.n_rows;
    }

    /// The span-based `Modify_Diagram` activity test: is the row's
    /// message present (transmitting or preempted) in `from..=to`?
    /// Spans lie inside their windows, so only the instances whose
    /// windows meet `from..=to` are looked at.
    fn row_active_in(&self, row: usize, from: u64, to: u64) -> bool {
        let row = &self.rows[row];
        let first = ((from - 1) / row.period) as usize;
        let last = (((to - 1) / row.period) as usize).min(row.instances.len() - 1);
        row.instances.get(first..=last).is_some_and(|span| {
            span.iter()
                .any(|i| !i.removed && i.window_start <= to && i.active_end >= from)
        })
    }
}
