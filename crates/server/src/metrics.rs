//! Per-request service metrics: counters and log-linear latency
//! histograms, dumped by the `STATS` request.
//!
//! The service that records them is owned by one thread, so every
//! counter is a plain [`Cell`]: recording is a load and a store, and a
//! snapshot is exact. Each histogram splits every
//! power of two into eight equal sub-buckets (values below 8 ns get a
//! bucket each), so a reported percentile, the upper edge of its
//! bucket clamped to the observed maximum, is at most 12.5% above the
//! exact one. The load generator computes exact client-side
//! percentiles separately.
//!
//! Three histograms are kept: **total** latency (the `latency_us` block
//! of `STATS`), **queue wait** (from the reactor's line splitter
//! cutting a request line to the reactor dispatching it), and **service
//! time** (the handler itself). Queue wait is only recorded on the
//! queued path; a direct [`Metrics::observe`] counts its full duration
//! as service time.

use std::cell::Cell;

/// Request kinds, in counter order (see [`Metrics::counts`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// `ADMIT`.
    Admit = 0,
    /// `REMOVE`.
    Remove = 1,
    /// `QUERY`.
    Query = 2,
    /// `SNAPSHOT`.
    Snapshot = 3,
    /// `STATS`.
    Stats = 4,
    /// `SHUTDOWN`.
    Shutdown = 5,
    /// `PROMOTE` (follower -> leader).
    Promote = 6,
    /// Unparseable input.
    Malformed = 7,
}

/// Number of [`RequestKind`]s.
pub const KINDS: usize = 8;

/// Sub-buckets per power of two, as a bit count (2^3 = 8).
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// One bucket per value below [`SUB`], then [`SUB`] per power of two
/// from `2^SUB_BITS` up to `2^63`.
const BUCKETS: usize = SUB * (64 - SUB_BITS as usize + 1);

/// The bucket holding `ns`.
fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let log = ns.ilog2();
    let sub = (ns >> (log - SUB_BITS)) as usize & (SUB - 1);
    (log - SUB_BITS + 1) as usize * SUB + sub
}

/// The largest value bucket `i` holds. A bucket `1 << shift` wide
/// starts at `(SUB + sub) << shift`, at least [`SUB`] widths up, so its
/// upper edge exceeds any value in it by less than `1 / SUB`.
fn upper_edge(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let shift = (i / SUB - 1) as u32;
    (((SUB + i % SUB) as u64) << shift) + ((1u64 << shift) - 1)
}

/// Adds one to a counter.
fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

/// A log-linear latency histogram (see the module docs).
#[derive(Debug)]
struct LatencyHistogram {
    buckets: [Cell<u64>; BUCKETS],
    max_ns: Cell<u64>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| Cell::new(0)),
            max_ns: Cell::new(0),
        }
    }
}

impl LatencyHistogram {
    fn observe(&self, ns: u64) {
        bump(&self.buckets[bucket_of(ns)]);
        self.max_ns.set(self.max_ns.get().max(ns));
    }

    /// Upper edge (in ns) of the bucket where the cumulative count
    /// reaches `pct` percent of all observations; 0 when empty.
    fn percentile_ns(&self, pct: f64) -> u64 {
        let counts: Vec<u64> = self.buckets.iter().map(Cell::get).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        // Rank math in f64: populations stay far below 2^52 and the
        // ceil of a non-negative product cannot go negative.
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let rank = ((pct / 100.0) * total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank.max(1) {
                // Clamped to the true maximum so the tail percentile
                // never exceeds it.
                return upper_edge(i).min(self.max_ns.get());
            }
        }
        self.max_ns.get()
    }

    fn count(&self) -> u64 {
        self.buckets.iter().map(Cell::get).sum()
    }
}

/// Service-side metrics, recorded by the thread that owns the service.
#[derive(Debug, Default)]
pub struct Metrics {
    counts: [Cell<u64>; KINDS],
    admitted: Cell<u64>,
    rejected: Cell<u64>,
    removed: Cell<u64>,
    replayed: Cell<u64>,
    errors: Cell<u64>,
    shed: Cell<u64>,
    hist: LatencyHistogram,
    queue_hist: LatencyHistogram,
    service_hist: LatencyHistogram,
}

/// A point-in-time copy of every counter, plus latency percentiles in
/// microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests by kind (see [`RequestKind`] for the order).
    pub counts: [u64; KINDS],
    /// Successful admissions.
    pub admitted: u64,
    /// Refused admissions.
    pub rejected: u64,
    /// Successful removals.
    pub removed: u64,
    /// Duplicate request ids answered from the idempotency window
    /// (never counted as fresh admissions or removals).
    pub replayed: u64,
    /// Error responses.
    pub errors: u64,
    /// Connections shed with `busy` at the connection cap.
    pub shed: u64,
    /// Latency observations.
    pub latency_count: u64,
    /// Median, microseconds (the upper edge of its bucket).
    pub p50_us: u64,
    /// 90th percentile, microseconds.
    pub p90_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// Maximum, microseconds.
    pub max_us: u64,
    /// Queue-wait observations (requests served via the queued path).
    pub queue_count: u64,
    /// Median queue wait, microseconds.
    pub queue_p50_us: u64,
    /// 90th-percentile queue wait, microseconds.
    pub queue_p90_us: u64,
    /// 99th-percentile queue wait, microseconds.
    pub queue_p99_us: u64,
    /// Worst queue wait, microseconds.
    pub queue_max_us: u64,
    /// Median service time, microseconds.
    pub service_p50_us: u64,
    /// 90th-percentile service time, microseconds.
    pub service_p90_us: u64,
    /// 99th-percentile service time, microseconds.
    pub service_p99_us: u64,
    /// Worst service time, microseconds.
    pub service_max_us: u64,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one request of `kind` served directly (no queue): its
    /// full duration is service time.
    pub fn observe(&self, kind: RequestKind, ns: u64) {
        bump(&self.counts[kind as usize]);
        self.hist.observe(ns);
        self.service_hist.observe(ns);
    }

    /// Counts one request of `kind` served off a queue, splitting its
    /// latency into queue wait and service time. The total histogram
    /// (what clients experience) records the sum.
    pub fn observe_queued(&self, kind: RequestKind, queue_ns: u64, service_ns: u64) {
        bump(&self.counts[kind as usize]);
        self.hist.observe(queue_ns.saturating_add(service_ns));
        self.queue_hist.observe(queue_ns);
        self.service_hist.observe(service_ns);
    }

    /// Counts a successful admission.
    pub fn count_admitted(&self) {
        bump(&self.admitted);
    }

    /// Counts a refused admission.
    pub fn count_rejected(&self) {
        bump(&self.rejected);
    }

    /// Counts a successful removal.
    pub fn count_removed(&self) {
        bump(&self.removed);
    }

    /// Counts a duplicate request id replayed from the dedup window.
    pub fn count_replayed(&self) {
        bump(&self.replayed);
    }

    /// Counts an error response.
    pub fn count_error(&self) {
        bump(&self.errors);
    }

    /// Counts a connection shed with `busy` at the connection cap.
    pub fn count_shed(&self) {
        bump(&self.shed);
    }

    /// Copies every counter and summarizes the histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counts: std::array::from_fn(|k| self.counts[k].get()),
            admitted: self.admitted.get(),
            rejected: self.rejected.get(),
            removed: self.removed.get(),
            replayed: self.replayed.get(),
            errors: self.errors.get(),
            shed: self.shed.get(),
            latency_count: self.hist.count(),
            p50_us: self.hist.percentile_ns(50.0) / 1_000,
            p90_us: self.hist.percentile_ns(90.0) / 1_000,
            p99_us: self.hist.percentile_ns(99.0) / 1_000,
            max_us: self.hist.max_ns.get() / 1_000,
            queue_count: self.queue_hist.count(),
            queue_p50_us: self.queue_hist.percentile_ns(50.0) / 1_000,
            queue_p90_us: self.queue_hist.percentile_ns(90.0) / 1_000,
            queue_p99_us: self.queue_hist.percentile_ns(99.0) / 1_000,
            queue_max_us: self.queue_hist.max_ns.get() / 1_000,
            service_p50_us: self.service_hist.percentile_ns(50.0) / 1_000,
            service_p90_us: self.service_hist.percentile_ns(90.0) / 1_000,
            service_p99_us: self.service_hist.percentile_ns(99.0) / 1_000,
            service_max_us: self.service_hist.max_ns.get() / 1_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_metrics_snapshot_is_zero() {
        let m = Metrics::new();
        let s = m.snapshot();
        assert_eq!(s, MetricsSnapshot::default());
    }

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.observe(RequestKind::Admit, 1_000);
        m.observe(RequestKind::Admit, 2_000);
        m.observe(RequestKind::Query, 500);
        m.count_admitted();
        m.count_rejected();
        let s = m.snapshot();
        assert_eq!(s.counts[RequestKind::Admit as usize], 2);
        assert_eq!(s.counts[RequestKind::Query as usize], 1);
        assert_eq!(s.admitted, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.latency_count, 3);
    }

    #[test]
    fn percentiles_bracket_the_observations() {
        let m = Metrics::new();
        // 99 fast observations (~1us) and one slow outlier (~1ms).
        for _ in 0..99 {
            m.observe(RequestKind::Query, 1_024);
        }
        m.observe(RequestKind::Query, 1_048_576);
        let s = m.snapshot();
        assert_eq!(s.latency_count, 100);
        // p50 falls in the 1024..2047ns bucket -> 1 or 2 us after
        // integer division.
        assert!(s.p50_us <= 2, "{s:?}");
        // p99 must not be dragged to the outlier; p100 (max) must be it.
        assert!(s.p99_us <= 2, "{s:?}");
        assert_eq!(s.max_us, 1_048); // 1_048_576 ns / 1000
    }

    #[test]
    fn queued_observations_split_queue_and_service_time() {
        let m = Metrics::new();
        m.observe(RequestKind::Query, 2_000); // direct: all service time
        m.observe_queued(RequestKind::Admit, 1_000_000, 4_000);
        let s = m.snapshot();
        assert_eq!(s.latency_count, 2);
        assert_eq!(s.queue_count, 1, "direct path must not record queue wait");
        assert_eq!(s.queue_max_us, 1_000);
        assert_eq!(s.service_max_us, 4);
        // The total histogram sees queue + service.
        assert_eq!(s.max_us, 1_004);
    }

    #[test]
    fn histogram_totals_match_op_counts() {
        // Every histogram population equals the number of operations
        // recorded into it: nothing lost, nothing double-counted.
        const DIRECT: u64 = if cfg!(miri) { 24 } else { 2000 };
        const QUEUED: u64 = if cfg!(miri) { 16 } else { 1200 };
        let m = Metrics::new();
        for i in 0..DIRECT {
            m.observe(RequestKind::Query, 1 + (i * 7919) % 4096);
            m.count_admitted();
        }
        for i in 0..QUEUED {
            m.observe_queued(RequestKind::Admit, 1 + (i % 1024), 1 + i % 2048);
        }
        let s = m.snapshot();
        assert_eq!(s.counts[RequestKind::Query as usize], DIRECT);
        assert_eq!(s.counts[RequestKind::Admit as usize], QUEUED);
        assert_eq!(s.admitted, DIRECT);
        // Total latency histogram: one entry per recorded operation.
        assert_eq!(s.latency_count, DIRECT + QUEUED);
        // Queue-wait histogram: exactly the queued operations.
        assert_eq!(s.queue_count, QUEUED);
    }

    #[test]
    #[allow(clippy::cast_sign_loss)]
    fn percentiles_are_within_an_eighth_of_exact() {
        // A seeded log-uniform sample over 100 ns .. 10 ms.
        let mut state = 0x5eed_u64;
        let mut sample: Vec<u64> = (0..20_000)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                let u = ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64;
                (100.0 * 1e5f64.powf(u)) as u64
            })
            .collect();
        let h = LatencyHistogram::default();
        for &ns in &sample {
            h.observe(ns);
        }
        sample.sort_unstable();
        for pct in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            let rank = ((pct / 100.0) * sample.len() as f64).ceil() as usize;
            let exact = sample[rank.max(1) - 1];
            let got = h.percentile_ns(pct);
            assert!(
                got >= exact && got as f64 <= exact as f64 * 1.125,
                "p{pct}: {got} ns against exact {exact} ns"
            );
        }
    }

    #[test]
    fn percentile_is_clamped_to_observed_max() {
        let m = Metrics::new();
        m.observe(RequestKind::Stats, 700);
        let s = m.snapshot();
        // A single 700ns observation: every percentile reports <= max.
        assert!(s.p50_us <= s.max_us.max(1), "{s:?}");
        assert_eq!(s.max_us, 0); // 700ns < 1us
    }
}
