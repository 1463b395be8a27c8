//! The load generator: this process, one thread and one TCP connection
//! per core, talking to `rtwc serve` in another process.
//!
//! Two kinds of phase. A **closed loop** sends a burst of
//! [`WINDOW`](crate::catalog::WINDOW) pipelined requests and sends the
//! next burst when the last reply of the previous one has arrived: its
//! result is a throughput. An **open loop** sends on a fixed schedule
//! whatever the server does, and times every request from the instant
//! it was *due*, so a stall is charged to every request that had to
//! wait behind it; how late the generator itself ran is reported next
//! to the latencies.

use crate::gen::{Op, OpGen, Verb};
use crate::stats;
use crate::trace::Spans;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A reply is waited for this long before the connection counts as
/// dead and everything outstanding on it as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One connection to the server.
pub struct Conn {
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream),
            line: String::new(),
        })
    }

    pub fn send(&mut self, bytes: &str) -> io::Result<()> {
        self.reader.get_mut().write_all(bytes.as_bytes())
    }

    /// The next reply line, without its newline.
    pub fn recv(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }

    /// One request, one reply.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.send(&format!("{line}\n"))?;
        self.recv().map(str::to_string)
    }
}

/// What a reply means to the generator. `Rejected` is a decision of the
/// admission test, not a failure; everything the server could not or
/// would not serve (`error`, `busy`, `sealed`, anything unrecognised) is
/// `Failed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reply {
    Admitted(u64),
    Rejected,
    Removed,
    Ok,
    Failed,
}

/// Reads the leading `"status"` member (and the `"id"` after
/// `admitted`) of a reply line without parsing the rest.
pub fn classify(line: &str) -> Reply {
    let Some(rest) = line.strip_prefix("{\"status\":\"") else {
        return Reply::Failed;
    };
    let Some((status, rest)) = rest.split_once('"') else {
        return Reply::Failed;
    };
    match status {
        "admitted" => rest
            .strip_prefix(",\"id\":")
            .map(|r| r.split(|c: char| !c.is_ascii_digit()).next().unwrap_or(""))
            .and_then(|digits| digits.parse().ok())
            .map_or(Reply::Failed, Reply::Admitted),
        "rejected" => Reply::Rejected,
        "removed" => Reply::Removed,
        "ok" => Reply::Ok,
        _ => Reply::Failed,
    }
}

/// One timed request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    pub verb: Verb,
    /// When the request was due (open loop) or sent (closed loop),
    /// nanoseconds since the phase began.
    pub at_ns: u64,
    pub latency_ns: u64,
    /// How long after its due instant the generator sent it.
    pub late_ns: u64,
}

impl Sample {
    /// An open-loop sample: the clock starts when the request was due,
    /// not when the generator got round to sending it.
    pub fn open(verb: Verb, due_ns: u64, sent_ns: u64, done_ns: u64) -> Sample {
        Sample {
            verb,
            at_ns: due_ns,
            latency_ns: done_ns.saturating_sub(due_ns),
            late_ns: sent_ns.saturating_sub(due_ns),
        }
    }
}

/// One closed-loop burst.
#[derive(Clone, Copy, Debug)]
pub struct Burst {
    pub start_ns: u64,
    pub end_ns: u64,
    pub ops: u64,
}

/// Everything one connection saw in one phase.
#[derive(Debug, Default)]
pub struct PhaseLog {
    pub samples: Vec<Sample>,
    pub bursts: Vec<Burst>,
    pub attempted: u64,
    pub failed: u64,
    pub rejected: u64,
    /// The I/O error that ended the phase early, if one did.
    pub broken: Option<String>,
}

impl PhaseLog {
    /// Books one answered request and tells the generator what became
    /// of an admit.
    pub fn count(&mut self, verb: Verb, reply: Reply, gen: &mut OpGen) {
        let reply = self.checked(verb, reply);
        match reply {
            Reply::Admitted(id) => gen.admitted(id),
            Reply::Rejected => self.rejected += 1,
            Reply::Failed => self.failed += 1,
            Reply::Removed | Reply::Ok => {}
        }
        if verb == Verb::Admit && !matches!(reply, Reply::Admitted(_)) {
            gen.refused();
        }
    }

    /// A reply of the wrong kind (an id answered to a `QUERY`, say)
    /// means replies no longer line up with requests: it counts as a
    /// failure and is remembered.
    fn checked(&mut self, verb: Verb, reply: Reply) -> Reply {
        let fits = matches!(
            (verb, reply),
            (Verb::Admit, Reply::Admitted(_) | Reply::Rejected)
                | (Verb::Query, Reply::Ok)
                | (Verb::Remove, Reply::Removed)
                | (_, Reply::Failed)
        );
        if fits {
            return reply;
        }
        self.broken
            .get_or_insert_with(|| format!("a {} was answered with {reply:?}", verb.name()));
        Reply::Failed
    }

    pub fn merge(logs: Vec<PhaseLog>) -> PhaseLog {
        let mut all = PhaseLog::default();
        for log in logs {
            all.samples.extend(log.samples);
            all.bursts.extend(log.bursts);
            all.attempted += log.attempted;
            all.failed += log.failed;
            all.rejected += log.rejected;
            all.broken = all.broken.or(log.broken);
        }
        all
    }
}

fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs bursts of `window` requests back to back until `until`. With
/// `spans`, every reply is stamped as it arrives and recorded as a
/// client-side span under its burst's span.
pub fn closed_loop(
    conn: &mut Conn,
    gen: &mut OpGen,
    window: usize,
    epoch: Instant,
    until: Instant,
    mut spans: Option<&mut Spans>,
) -> PhaseLog {
    let mut log = PhaseLog::default();
    let mut buf = String::new();
    let mut verbs = Vec::with_capacity(window);
    while Instant::now() < until {
        buf.clear();
        verbs.clear();
        for _ in 0..window {
            let op = gen.next_op();
            verbs.push(op.verb());
            op.write_line(&mut buf);
        }
        log.attempted += window as u64;
        let start_ns = ns_since(epoch);
        if let Err(e) = conn.send(&buf) {
            log.failed += window as u64;
            log.broken = Some(format!("send: {e}"));
            break;
        }
        let burst_span = spans
            .as_deref_mut()
            .map(|s| s.open("loadgen", "burst", None));
        let mut answered = 0;
        for &verb in &verbs {
            let reply = match conn.recv() {
                Ok(line) => classify(line),
                Err(e) => {
                    log.broken = Some(format!("recv: {e}"));
                    break;
                }
            };
            answered += 1;
            log.count(verb, reply, gen);
            if let Some(s) = spans.as_deref_mut() {
                let done_ns = ns_since(epoch);
                s.push("server.server", verb.name(), start_ns, done_ns, burst_span);
                log.samples.push(Sample {
                    verb,
                    at_ns: start_ns,
                    latency_ns: done_ns - start_ns,
                    late_ns: 0,
                });
            }
        }
        let end_ns = ns_since(epoch);
        if let (Some(s), Some(id)) = (spans.as_deref_mut(), burst_span) {
            s.close(id, start_ns, end_ns);
        }
        log.bursts.push(Burst {
            start_ns,
            end_ns,
            ops: answered,
        });
        if log.broken.is_some() {
            log.failed += window as u64 - answered;
            break;
        }
    }
    log
}

/// Time as the open-loop sender sees it; a fake in the tests.
pub trait Clock {
    /// Nanoseconds since the phase began.
    fn now_ns(&self) -> u64;
    /// Blocks until about `t_ns`; may return late.
    fn sleep_until_ns(&self, t_ns: u64);
}

pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        ns_since(self.0)
    }

    fn sleep_until_ns(&self, t_ns: u64) {
        let now = self.now_ns();
        if t_ns > now {
            std::thread::sleep(Duration::from_nanos(t_ns - now));
        }
    }
}

/// The fixed arrival schedule of one connection: request `k` is due at
/// `k * interval`, whatever happened to the requests before it.
#[derive(Clone, Debug)]
pub struct Pacer {
    interval_ns: f64,
    end_ns: u64,
    next: u64,
}

impl Pacer {
    pub fn new(rate_per_s: f64, duration: Duration) -> Pacer {
        Pacer {
            interval_ns: 1e9 / rate_per_s,
            end_ns: u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX),
            next: 0,
        }
    }

    /// When the next request is due, or `None` once the phase is over.
    pub fn due_ns(&self) -> Option<u64> {
        // Arrival counts stay far below 2^52 and the product is
        // non-negative.
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let due = (self.next as f64 * self.interval_ns) as u64;
        (due < self.end_ns).then_some(due)
    }

    /// Takes the next request if it is due at or before `now_ns`.
    pub fn take(&mut self, now_ns: u64) -> Option<u64> {
        let due = self.due_ns().filter(|&d| d <= now_ns)?;
        self.next += 1;
        Some(due)
    }
}

/// Most requests one connection has unanswered in the open loop. The
/// schedule never waits for the server below this; above it the sender
/// holds back (and the wait is charged to the held requests, which are
/// timed from their due instants all the same). Without a limit, a
/// stall of the host leaves `rtwc serve` with a backlog it clears more
/// slowly the longer it is, and never at `svc_frontend`'s rate.
pub const MAX_IN_FLIGHT: u64 = 2048;

/// The open-loop sender: sleeps until the next request is due, then
/// writes every request that has come due (one after an on-time wake,
/// several after a late one). `on_send(verb, due_ns, sent_ns)` runs
/// before the bytes leave; `refresh` feeds admitted ids back into the
/// generator and returns how many requests are unanswered.
pub fn pace<C: Clock, W: Write>(
    clock: &C,
    pacer: &mut Pacer,
    gen: &mut OpGen,
    out: &mut W,
    mut refresh: impl FnMut(&mut OpGen) -> u64,
    mut on_send: impl FnMut(Verb, u64, u64),
) -> io::Result<()> {
    let mut buf = String::new();
    while let Some(due) = pacer.due_ns() {
        clock.sleep_until_ns(due);
        let mut room = MAX_IN_FLIGHT.saturating_sub(refresh(gen));
        while room == 0 {
            clock.sleep_until_ns(clock.now_ns() + 100_000);
            room = MAX_IN_FLIGHT.saturating_sub(refresh(gen));
        }
        let now = clock.now_ns();
        buf.clear();
        while room > 0 {
            let Some(due) = pacer.take(now) else { break };
            room -= 1;
            let op: Op = gen.next_op();
            op.write_line(&mut buf);
            on_send(op.verb(), due, now);
        }
        out.write_all(buf.as_bytes())?;
    }
    Ok(())
}

/// Hands the generator the outcomes of admits the reader has seen.
fn feed(gen: &mut OpGen, outcomes: &mpsc::Receiver<Option<u64>>) {
    while let Ok(outcome) = outcomes.try_recv() {
        match outcome {
            Some(id) => gen.admitted(id),
            None => gen.refused(),
        }
    }
}

/// Runs one connection's open loop for `duration` at `rate_per_s`. The
/// calling thread sends; a second thread reads replies and matches them
/// to requests in order, so the schedule never waits for the server.
pub fn open_loop(
    conn: &mut Conn,
    gen: &mut OpGen,
    start: Instant,
    duration: Duration,
    rate_per_s: f64,
) -> PhaseLog {
    let mut writer = match conn.reader.get_ref().try_clone() {
        Ok(w) => w,
        Err(e) => {
            return PhaseLog {
                broken: Some(format!("clone: {e}")),
                ..PhaseLog::default()
            }
        }
    };
    let (sent_tx, sent_rx) = mpsc::channel::<(Verb, u64, u64)>();
    // What became of each admit: its id, or `None` when refused.
    let (id_tx, id_rx) = mpsc::channel::<Option<u64>>();
    let clock = WallClock(start);
    let mut pacer = Pacer::new(rate_per_s, duration);
    // Replies the reader has consumed; the sender counts what it sent.
    let answered = AtomicU64::new(0);
    let answered = &answered;
    let sent_count = std::cell::Cell::new(0u64);
    std::thread::scope(|scope| {
        // The receiver and the id sender move into the reader thread;
        // the connection's read half is only borrowed.
        let reader = scope.spawn(move || {
            let mut log = PhaseLog::default();
            // A server that has fallen hopelessly behind would otherwise
            // be waited for reply by reply.
            let give_up = u64::try_from((duration * 2 + IO_TIMEOUT).as_nanos()).unwrap_or(u64::MAX);
            while let Ok((verb, due_ns, sent_ns)) = sent_rx.recv() {
                log.attempted += 1;
                if log.broken.is_none() && ns_since(start) > give_up {
                    log.broken = Some("replies are more than a phase behind".to_string());
                }
                // Read by the sender's throttle only, so `Relaxed`. What a
                // dead connection will never answer is counted too, or
                // the throttle would hold the sender for ever.
                if log.broken.is_some() {
                    log.failed += 1;
                    answered.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let reply = conn.recv();
                answered.fetch_add(1, Ordering::Relaxed);
                match reply {
                    Ok(line) => {
                        let reply = classify(line);
                        let done_ns = ns_since(start);
                        let reply = log.checked(verb, reply);
                        match reply {
                            Reply::Rejected => log.rejected += 1,
                            Reply::Failed => log.failed += 1,
                            Reply::Admitted(_) | Reply::Removed | Reply::Ok => {}
                        }
                        if verb == Verb::Admit {
                            // The sender may already be gone.
                            let _ = id_tx.send(match reply {
                                Reply::Admitted(id) => Some(id),
                                _ => None,
                            });
                        }
                        log.samples
                            .push(Sample::open(verb, due_ns, sent_ns, done_ns));
                    }
                    Err(e) => {
                        log.failed += 1;
                        log.broken = Some(format!("recv: {e}"));
                    }
                }
            }
            log
        });
        let sent = pace(
            &clock,
            &mut pacer,
            gen,
            &mut writer,
            |gen| {
                feed(gen, &id_rx);
                sent_count.get() - answered.load(Ordering::Relaxed)
            },
            // The reader outlives the sender; a closed channel means it
            // panicked, which the join below reports.
            |verb, due, now| {
                sent_count.set(sent_count.get() + 1);
                let _ = sent_tx.send((verb, due, now));
            },
        );
        drop(sent_tx);
        let mut log = reader.join().expect("open-loop reader thread");
        // Ids admitted after the last send still belong to the pool.
        feed(gen, &id_rx);
        if let Err(e) = sent {
            log.broken.get_or_insert(format!("send: {e}"));
        }
        log
    })
}

/// Cuts `[0, phase_ns)` into `slices` equal slices and returns the
/// per-slice nearest-rank percentile `q` of the values in each slice
/// that holds at least `min` of them.
pub fn sliced_percentiles(
    samples: impl Iterator<Item = (u64, f64)>,
    phase_ns: u64,
    slices: usize,
    min: usize,
    q: f64,
) -> Vec<f64> {
    let mut bins: Vec<Vec<f64>> = vec![Vec::new(); slices];
    let width = (phase_ns / slices as u64).max(1);
    for (at_ns, value) in samples {
        let i = usize::try_from(at_ns / width).unwrap_or(usize::MAX);
        if let Some(bin) = bins.get_mut(i) {
            bin.push(value);
        }
    }
    bins.iter_mut()
        .filter(|b| b.len() >= min.max(1))
        .map(|b| stats::quantile(b, q))
        .collect()
}

/// Events per second in each of `slices` equal slices of `[0, phase_ns)`,
/// given when each happened.
pub fn sliced_counts(at_ns: impl Iterator<Item = u64>, phase_ns: u64, slices: usize) -> Vec<f64> {
    let width = (phase_ns / slices as u64).max(1);
    let mut counts = vec![0u64; slices];
    for at in at_ns {
        if let Some(slot) = counts.get_mut(usize::try_from(at / width).unwrap_or(usize::MAX)) {
            *slot += 1;
        }
    }
    // Counts are far below 2^52.
    #[allow(clippy::cast_precision_loss)]
    counts
        .iter()
        .map(|&n| n as f64 / (width as f64 / 1e9))
        .collect()
}

/// Completed operations per second in each of `slices` equal slices of
/// `[from_ns, from_ns + phase_ns)`. A burst's operations are spread
/// evenly over the time it was in flight, so a slice boundary inside a
/// burst splits it in proportion.
pub fn sliced_rates(bursts: &[Burst], from_ns: u64, phase_ns: u64, slices: usize) -> Vec<f64> {
    let width = (phase_ns / slices as u64).max(1);
    let mut ops = vec![0.0f64; slices];
    for b in bursts {
        let span = (b.end_ns - b.start_ns).max(1);
        for (i, slot) in ops.iter_mut().enumerate() {
            let lo = from_ns + i as u64 * width;
            let overlap = b.end_ns.min(lo + width).saturating_sub(b.start_ns.max(lo));
            // Burst sizes and overlaps are far below 2^52.
            #[allow(clippy::cast_precision_loss)]
            {
                *slot += b.ops as f64 * overlap as f64 / span as f64;
            }
        }
    }
    #[allow(clippy::cast_precision_loss)]
    ops.iter().map(|n| n / (width as f64 / 1e9)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Mix, OpShape};
    use std::cell::{Cell, RefCell};

    #[test]
    fn classifies_replies() {
        assert_eq!(
            classify(r#"{"status":"admitted","id":42,"bound":7,"deadline":9,"slack":2}"#),
            Reply::Admitted(42)
        );
        assert_eq!(
            classify(r#"{"status":"rejected","reason":"x"}"#),
            Reply::Rejected
        );
        assert_eq!(classify(r#"{"status":"removed","id":1}"#), Reply::Removed);
        assert_eq!(classify(r#"{"status":"ok","id":1,"bound":3}"#), Reply::Ok);
        for bad in [
            r#"{"status":"error","code":"sealed","message":"m"}"#,
            r#"{"status":"busy","retry_after_ms":25}"#,
            r#"{"status":"shutting-down"}"#,
            r#"{"status":"admitted"}"#,
            "",
        ] {
            assert_eq!(classify(bad), Reply::Failed, "{bad}");
        }
    }

    /// A clock that only moves when told to sleep, and oversleeps by a
    /// scripted amount.
    struct FakeClock {
        now: Cell<u64>,
        oversleep: RefCell<Vec<u64>>,
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.now.get()
        }

        fn sleep_until_ns(&self, t_ns: u64) {
            let extra = self.oversleep.borrow_mut().pop().unwrap_or(0);
            self.now.set(self.now.get().max(t_ns) + extra);
        }
    }

    #[test]
    fn open_loop_times_from_the_due_instant() {
        let shape = OpShape {
            width: 8,
            height: 8,
            locality: 2,
            mix: Mix {
                query: 50,
                admit: 25,
            },
            share: 4,
            req_ids: false,
        };
        let mut gen = OpGen::new(1, 0, shape);
        // 1000 requests a second for 10 ms: due at 0, 1, ..., 9 ms. The
        // third wake-up (popped last-in first-out) comes 4.5 ms late.
        let mut pacer = Pacer::new(1000.0, Duration::from_millis(10));
        let clock = FakeClock {
            now: Cell::new(0),
            oversleep: RefCell::new(vec![0, 0, 0, 4_500_000, 0, 0]),
        };
        let mut wire = Vec::new();
        let mut sent = Vec::new();
        pace(
            &clock,
            &mut pacer,
            &mut gen,
            &mut wire,
            |_| 0,
            |_, due, now| sent.push((due, now)),
        )
        .unwrap();
        let ms = 1_000_000;
        assert_eq!(
            sent,
            [
                (0, 0),
                (ms, ms),
                // Requests 2..=6 all leave at 6.5 ms but keep their own
                // due instants.
                (2 * ms, 6_500_000),
                (3 * ms, 6_500_000),
                (4 * ms, 6_500_000),
                (5 * ms, 6_500_000),
                (6 * ms, 6_500_000),
                (7 * ms, 7 * ms),
                (8 * ms, 8 * ms),
                (9 * ms, 9 * ms),
            ]
        );
        assert_eq!(wire.iter().filter(|&&b| b == b'\n').count(), 10);
        // A reply at 7 ms to the request due at 2 ms took 5 ms, not the
        // 0.5 ms since it was sent.
        let s = Sample::open(Verb::Query, 2 * ms, 6_500_000, 7 * ms);
        assert_eq!(
            (s.latency_ns, s.late_ns, s.at_ns),
            (5 * ms, 4_500_000, 2 * ms)
        );
    }

    #[test]
    fn slices_split_bursts_in_proportion() {
        // 100 ops over [0, 2 s) and 30 over [1.5 s, 2.5 s); two 1-s
        // slices from 0: 50 | 50 + 15.
        let bursts = [
            Burst {
                start_ns: 0,
                end_ns: 2_000_000_000,
                ops: 100,
            },
            Burst {
                start_ns: 1_500_000_000,
                end_ns: 2_500_000_000,
                ops: 30,
            },
        ];
        let rates = sliced_rates(&bursts, 0, 2_000_000_000, 2);
        assert!((rates[0] - 50.0).abs() < 1e-9 && (rates[1] - 65.0).abs() < 1e-9);
        let per_slice = sliced_percentiles(
            [(0, 1.0), (10, 3.0), (20, 2.0), (100, 9.0)].into_iter(),
            200,
            2,
            2,
            0.5,
        );
        // The second slice holds one sample, under the minimum of two.
        assert_eq!(per_slice, [2.0]);
    }
}
