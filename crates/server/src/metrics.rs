//! Per-request service metrics: lock-free counters and log-linear
//! latency histograms, dumped by the `STATS` request.
//!
//! Everything here is plain atomics so the hot read path (`QUERY`)
//! never takes a lock to record itself. Each histogram splits every
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
//!
//! # Memory ordering
//!
//! Every atomic here is `Relaxed`, deliberately. Each counter and
//! bucket is an independent monotonic statistic: no other memory is
//! published through it, so no acquire/release edge is needed — the
//! only guarantee required is that each individual `fetch_add` lands
//! exactly once, which relaxed RMWs give. The price is that a
//! [`Metrics::snapshot`] taken while writers are running may *tear*
//! across counters (e.g. a request counted in `counts` whose latency
//! has not reached the histogram yet); `STATS` is a health endpoint
//! and tolerates that. Once writers are quiescent — thread join, or
//! any other happens-before edge to the reader — every recorded
//! operation is visible and the cross-counter invariants hold exactly:
//! the total histogram's population equals the sum of `counts`, and
//! the queued population splits into matching queue-wait and
//! service-time entries (asserted by
//! `histogram_totals_match_op_counts_under_concurrent_recording`).

use std::sync::atomic::{AtomicU64, Ordering};

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

/// A log-linear latency histogram (see the module docs).
#[derive(Debug)]
struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    fn observe(&self, ns: u64) {
        let b = bucket_of(ns);
        // Relaxed: each bucket is its own monotonic counter and
        // max_ns its own high-water mark; nothing is published
        // through either, and relaxed RMWs still never lose an
        // increment (or a larger max).
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Upper edge (in ns) of the bucket where the cumulative count
    /// reaches `pct` percent of all observations; 0 when empty.
    fn percentile_ns(&self, pct: f64) -> u64 {
        // Relaxed loads: the snapshot is racy by design — buckets are
        // copied one at a time while writers may still be recording,
        // so a percentile can be off by the handful of in-flight
        // observations. Stronger orderings would not fix that (it is
        // a multi-word tear, not a reordering), only a lock would.
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
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
                return upper_edge(i).min(self.max_ns.load(Ordering::Relaxed));
            }
        }
        self.max_ns.load(Ordering::Relaxed)
    }

    fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

/// Service-side metrics shared by every thread that serves requests.
#[derive(Debug, Default)]
pub struct Metrics {
    counts: [AtomicU64; KINDS],
    admitted: AtomicU64,
    rejected: AtomicU64,
    removed: AtomicU64,
    replayed: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
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
        // Relaxed (here and in every counter below): each statistic
        // stands alone — see the module doc's "Memory ordering"
        // section for why no acquire/release pairing is needed.
        self.counts[kind as usize].fetch_add(1, Ordering::Relaxed);
        self.hist.observe(ns);
        self.service_hist.observe(ns);
    }

    /// Counts one request of `kind` served off a queue, splitting its
    /// latency into queue wait and service time. The total histogram
    /// (what clients experience) records the sum.
    pub fn observe_queued(&self, kind: RequestKind, queue_ns: u64, service_ns: u64) {
        self.counts[kind as usize].fetch_add(1, Ordering::Relaxed);
        self.hist.observe(queue_ns.saturating_add(service_ns));
        self.queue_hist.observe(queue_ns);
        self.service_hist.observe(service_ns);
    }

    /// Counts a successful admission.
    pub fn count_admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a refused admission.
    pub fn count_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a successful removal.
    pub fn count_removed(&self) {
        self.removed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a duplicate request id replayed from the dedup window.
    pub fn count_replayed(&self) {
        self.replayed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an error response.
    pub fn count_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a connection shed with `busy` at the connection cap.
    pub fn count_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies every counter and summarizes the histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counts = [0u64; KINDS];
        for (o, c) in counts.iter_mut().zip(&self.counts) {
            *o = c.load(Ordering::Relaxed);
        }
        MetricsSnapshot {
            counts,
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            removed: self.removed.load(Ordering::Relaxed),
            replayed: self.replayed.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            latency_count: self.hist.count(),
            p50_us: self.hist.percentile_ns(50.0) / 1_000,
            p90_us: self.hist.percentile_ns(90.0) / 1_000,
            p99_us: self.hist.percentile_ns(99.0) / 1_000,
            max_us: self.hist.max_ns.load(Ordering::Relaxed) / 1_000,
            queue_count: self.queue_hist.count(),
            queue_p50_us: self.queue_hist.percentile_ns(50.0) / 1_000,
            queue_p90_us: self.queue_hist.percentile_ns(90.0) / 1_000,
            queue_p99_us: self.queue_hist.percentile_ns(99.0) / 1_000,
            queue_max_us: self.queue_hist.max_ns.load(Ordering::Relaxed) / 1_000,
            service_p50_us: self.service_hist.percentile_ns(50.0) / 1_000,
            service_p90_us: self.service_hist.percentile_ns(90.0) / 1_000,
            service_p99_us: self.service_hist.percentile_ns(99.0) / 1_000,
            service_max_us: self.service_hist.max_ns.load(Ordering::Relaxed) / 1_000,
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
    fn histogram_totals_match_op_counts_under_concurrent_recording() {
        // The cross-counter invariant behind the Relaxed orderings:
        // once writers have joined (a happens-before edge to this
        // thread), every histogram population must equal the number
        // of operations recorded into it — nothing lost, nothing
        // double-counted, on any interleaving.
        use std::sync::Arc;

        // Scaled down under Miri (the CI job runs this test for data
        // races in the relaxed recording paths; the interpreter is
        // ~1000x slower than native).
        const THREADS: usize = if cfg!(miri) { 2 } else { 4 };
        const DIRECT_PER_THREAD: u64 = if cfg!(miri) { 24 } else { 500 };
        const QUEUED_PER_THREAD: u64 = if cfg!(miri) { 16 } else { 300 };

        let m = Arc::new(Metrics::new());
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..DIRECT_PER_THREAD {
                        m.observe(RequestKind::Query, 1 + (t as u64 * 7919 + i) % 4096);
                        m.count_admitted();
                    }
                    for i in 0..QUEUED_PER_THREAD {
                        m.observe_queued(
                            RequestKind::Admit,
                            1 + (i % 1024),
                            1 + (t as u64 + i) % 2048,
                        );
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }

        let s = m.snapshot();
        let direct = THREADS as u64 * DIRECT_PER_THREAD;
        let queued = THREADS as u64 * QUEUED_PER_THREAD;
        assert_eq!(s.counts[RequestKind::Query as usize], direct);
        assert_eq!(s.counts[RequestKind::Admit as usize], queued);
        assert_eq!(s.admitted, direct);
        // Total latency histogram: one entry per recorded operation.
        assert_eq!(s.latency_count, direct + queued);
        // Queue-wait histogram: exactly the queued operations.
        assert_eq!(s.queue_count, queued);
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
