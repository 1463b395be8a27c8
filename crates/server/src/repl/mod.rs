//! Replication: WAL shipping to warm-standby followers, snapshot
//! catch-up, and leader failover.
//!
//! ## Shape
//!
//! The subsystem is a layer *over* the durability stack, not inside
//! it: the group-commit path is untouched, and the shipper simply
//! tails the WAL file with [`crate::wal::FrameIter`] up to the safe
//! frontier reported by [`crate::group_commit::GroupWal::frontiers`]
//! (`synced` under `--fsync always` — a flushed-but-unsynced batch can
//! still be rolled back whole; `flushed` otherwise, where nothing
//! published is ever rolled back).
//!
//! - [`proto`] — the length-prefixed TCP message set.
//! - [`ship`] — the leader side: one non-blocking session per
//!   follower on the server's reactor, streaming frames and serving
//!   snapshot chunks.
//! - [`catchup`] — the follower's resumable chunked snapshot
//!   transfer (offset manifest on disk; completed chunks are never
//!   re-fetched).
//! - [`follower`] — the follower side: the link to the leader (dial,
//!   apply, ack, reconnect), promotion on leader loss after a grace
//!   period, and fence delivery, all driven by the reactor.
//!
//! ## Roles and promotion
//!
//! A node is either **leader** (serves writes, ships its WAL) or
//! **follower** (applies replicated frames, serves reads, rejects
//! writes with a `not_leader` redirect). `PROMOTE` — or leader-loss
//! past the configured grace — flips a follower to leader under a
//! bumped *epoch*; the epoch travels in every handshake so a deposed
//! leader's stream is refused rather than applied. Promotion runs the
//! recovery audit (A107–A109 via the existing recover path when the
//! state is reloaded; A107/A108 via [`crate::audit`] when promoting
//! live), so a new leader never starts from an unchecked state.
//!
//! ## Ownership
//!
//! The hub is plain data owned by the service, and the service is owned
//! by the server's reactor thread: ship sessions, the follower link and
//! client requests all read and update it from that one thread, in
//! sequence. No field needs a lock or an atomic.

pub mod catchup;
pub mod follower;
pub mod proto;
pub mod ship;

use crate::protocol::{FollowerLag, ReplReport};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Replication state: role, epoch, and progress gauges. One hub is
/// attached to the [`crate::service::AdmissionService`] of every node
/// that participates in replication (leader or follower).
#[derive(Debug)]
pub struct ReplHub {
    /// This node is a follower (applies frames, redirects writes).
    follower: bool,
    /// The promotion epoch the role was taken under.
    epoch: u64,
    /// Highest replicated sequence applied locally (followers).
    applied: u64,
    /// The leader's sync frontier as last heard (followers).
    source_synced: u64,
    /// Write lease (zero = no lease configured).
    lease: Duration,
    /// When the last follower ack was heard (leader side); `None`
    /// until the first ack, so a leader that never had a follower
    /// never seals (nobody exists who could promote against it).
    last_ack: Option<Instant>,
    /// True while the lease has lapsed: writes shed with `sealed`.
    sealed: bool,
    /// True once a higher epoch was learned: permanently demoted.
    fenced: bool,
    /// How many fence events this node has processed.
    fence_events: u64,
    /// Operations audited as divergent at the last fence.
    divergence: u64,
    /// Where writes should go (the `not_leader` redirect target while
    /// a follower; informational once promoted).
    leader_addr: String,
    /// Peer address -> progress, for connected followers (leader side).
    followers: HashMap<String, Progress>,
}

/// A connected follower's progress as the leader sees it.
#[derive(Clone, Copy, Debug, Default)]
struct Progress {
    /// Highest sequence the follower acknowledged.
    acked: u64,
    /// Bytes queued for it that its socket has not taken yet.
    unsent: u64,
}

impl ReplHub {
    fn new(follower: bool, leader_addr: String) -> ReplHub {
        ReplHub {
            follower,
            epoch: 1,
            applied: 0,
            source_synced: 0,
            lease: Duration::ZERO,
            last_ack: None,
            sealed: false,
            fenced: false,
            fence_events: 0,
            divergence: 0,
            leader_addr,
            followers: HashMap::new(),
        }
    }

    /// A hub for a node born leader (epoch 1).
    pub fn leader() -> ReplHub {
        ReplHub::new(false, String::new())
    }

    /// A hub for a follower of `leader_addr` (epoch 1 until promoted).
    pub fn follower(leader_addr: &str) -> ReplHub {
        ReplHub::new(true, leader_addr.to_string())
    }

    /// Is this node currently a follower?
    pub fn is_follower(&self) -> bool {
        self.follower
    }

    /// The current promotion epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Adopts a higher epoch heard over the wire without changing the
    /// role (a follower tracking its leader's promotions).
    pub fn observe_epoch(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
    }

    /// Where writes should be sent (the redirect target).
    pub fn leader_addr(&self) -> &str {
        &self.leader_addr
    }

    /// Highest replicated sequence applied locally.
    pub fn applied_seq(&self) -> u64 {
        self.applied
    }

    /// Records replicated progress (monotonic).
    pub fn set_applied(&mut self, seq: u64) {
        self.applied = self.applied.max(seq);
    }

    /// Records the leader's sync frontier as heard over the wire.
    pub fn note_source_synced(&mut self, seq: u64) {
        self.source_synced = self.source_synced.max(seq);
    }

    /// The leader's sync frontier as last heard.
    pub fn source_synced(&self) -> u64 {
        self.source_synced
    }

    /// Leader side: records a connected follower's progress (from a
    /// `Hello`; does NOT feed the lease — see [`Self::note_follower_ack`]).
    pub fn note_follower(&mut self, peer: &str, acked_seq: u64) {
        let p = self.followers.entry(peer.to_string()).or_default();
        p.acked = p.acked.max(acked_seq);
    }

    /// Leader side: records an `Ack` — progress plus the lease clock.
    /// An ack is a *response*, so it proves the follower heard leader
    /// traffic moments ago; that round-trip evidence is what makes
    /// `lease < grace` a no-dual-ack guarantee. (A `Hello` only proves
    /// the follower-to-leader direction works, which is not enough
    /// under a one-way blackhole.)
    pub fn note_follower_ack(&mut self, peer: &str, acked_seq: u64) {
        self.note_follower(peer, acked_seq);
        self.last_ack = Some(Instant::now());
    }

    /// Leader side: the bytes queued for `peer` that its socket has not
    /// taken yet (the `STATS` gauge of a slow follower).
    pub fn note_unsent(&mut self, peer: &str, bytes: usize) {
        if let Some(p) = self.followers.get_mut(peer) {
            p.unsent = bytes as u64;
        }
    }

    /// Leader side: forgets a disconnected follower.
    pub fn drop_follower(&mut self, peer: &str) {
        self.followers.remove(peer);
    }

    /// Flips this node to leader under a fresh epoch; returns the
    /// (possibly unchanged) epoch. Promoting an existing leader is a
    /// no-op.
    pub fn promote(&mut self) -> u64 {
        if self.follower {
            self.follower = false;
            self.epoch += 1;
        }
        self.epoch
    }

    /// Arms the write lease: a leader sheds writes with `sealed` once
    /// this long passes without hearing a follower ack.
    pub fn set_lease(&mut self, lease: Duration) {
        self.lease = lease;
    }

    /// The configured lease in milliseconds (0 = none).
    pub fn lease_ms(&self) -> u64 {
        u64::try_from(self.lease.as_millis()).unwrap_or(u64::MAX)
    }

    /// The seal decision at `now`, split out so the state machine is
    /// unit-testable without waiting out a real lease. Seals when the
    /// armed lease has lapsed; un-seals when contact returns (a healed
    /// partition whose follower never promoted).
    fn seal_check(&mut self, now: Instant) -> bool {
        if self.fenced {
            return true;
        }
        if self.lease.is_zero() || self.follower {
            return false;
        }
        let Some(last) = self.last_ack else {
            return false;
        };
        self.sealed = now.saturating_duration_since(last) > self.lease;
        self.sealed
    }

    /// Should the write path shed with `sealed` right now? Evaluated
    /// lazily on every write, so the seal takes effect at the first
    /// write after the lease lapses.
    pub fn write_sealed(&mut self) -> bool {
        self.seal_check(Instant::now())
    }

    /// Is the node currently sealed (gauge; updated by the write
    /// path's lease checks)?
    pub fn is_sealed(&self) -> bool {
        self.sealed || self.fenced
    }

    /// Has this node been permanently demoted by a higher epoch?
    pub fn is_fenced(&self) -> bool {
        self.fenced
    }

    /// Fence events processed (gauge).
    pub fn fence_events(&self) -> u64 {
        self.fence_events
    }

    /// Operations audited as divergent at the last fence (gauge).
    pub fn divergence_ops(&self) -> u64 {
        self.divergence
    }

    /// Permanently demotes this node under `epoch` (a higher epoch
    /// was learned from a promoted peer). The role flips to follower,
    /// the epoch adopts the fence's, and the node can never promote
    /// or unseal again. `new_leader` (when non-empty) becomes the
    /// redirect target; `divergence` is the audited count of acked
    /// operations the new leader never saw. Returns `false` when the
    /// fence is stale (its epoch does not exceed ours).
    pub fn fence(&mut self, epoch: u64, new_leader: &str, divergence: u64) -> bool {
        if epoch <= self.epoch {
            return false;
        }
        self.epoch = epoch;
        self.follower = true;
        self.fenced = true;
        self.sealed = true;
        self.fence_events += 1;
        self.divergence = divergence;
        if !new_leader.is_empty() {
            self.leader_addr = new_leader.to_string();
        }
        true
    }

    /// Builds the STATS gauge block. `wal_synced` is the local WAL
    /// sync frontier ([`crate::group_commit::GroupWal::frontiers`]),
    /// or the applied sequence for a node without local durability.
    /// `ship_frontier` is what the shipper measures follower lag
    /// against (leader only; pass `wal_synced` when in doubt).
    pub fn report(&mut self, wal_synced: u64, ship_frontier: u64) -> ReplReport {
        if self.follower {
            return ReplReport {
                role: "follower",
                epoch: self.epoch,
                wal_last_synced_seq: wal_synced,
                applied_seq: Some(self.applied),
                replication_lag_frames: self.source_synced.saturating_sub(self.applied),
                followers: Vec::new(),
                sealed: self.is_sealed(),
                lease_ms: self.lease_ms(),
                fence_events: self.fence_events,
                divergence_ops: self.divergence,
            };
        }
        let mut followers: Vec<FollowerLag> = self
            .followers
            .iter()
            .map(|(peer, p)| FollowerLag {
                peer: peer.clone(),
                acked_seq: p.acked,
                lag_frames: ship_frontier.saturating_sub(p.acked),
                unsent_bytes: p.unsent,
            })
            .collect();
        followers.sort_by(|a, b| a.peer.cmp(&b.peer));
        let max_lag = followers.iter().map(|f| f.lag_frames).max().unwrap_or(0);
        ReplReport {
            role: "leader",
            epoch: self.epoch,
            wal_last_synced_seq: wal_synced,
            applied_seq: None,
            replication_lag_frames: max_lag,
            followers,
            sealed: self.write_sealed(),
            lease_ms: self.lease_ms(),
            fence_events: self.fence_events,
            divergence_ops: self.divergence,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn later(n: u64) -> Instant {
        Instant::now() + ms(n)
    }

    #[test]
    fn promotion_flips_role_and_bumps_epoch() {
        let mut hub = ReplHub::follower("127.0.0.1:7000");
        assert!(hub.is_follower());
        assert_eq!(hub.epoch(), 1);
        assert_eq!(hub.leader_addr(), "127.0.0.1:7000");
        assert_eq!(hub.promote(), 2);
        assert!(!hub.is_follower());
        assert_eq!(hub.epoch(), 2);
    }

    #[test]
    fn promoting_a_leader_is_a_true_no_op() {
        let mut hub = ReplHub::leader();
        assert_eq!(hub.epoch(), 1);
        assert_eq!(hub.promote(), 1, "a leader's epoch must not bump");
        assert_eq!(hub.epoch(), 1);
        assert!(!hub.is_follower());
        // A real promotion still bumps exactly once.
        let mut hub = ReplHub::follower("x");
        assert_eq!(hub.promote(), 2);
        assert_eq!(hub.promote(), 2, "second promote is a no-op");
    }

    #[test]
    fn lease_seal_state_machine() {
        let mut hub = ReplHub::leader();
        // No lease configured: never seals.
        assert!(!hub.seal_check(later(10_000)));
        hub.set_lease(ms(100));
        // Lease armed only by the first ack.
        assert!(!hub.seal_check(later(10_000)), "unarmed lease never seals");
        hub.note_follower_ack("f:1", 3);
        let t0 = hub.last_ack.unwrap();
        assert!(!hub.seal_check(t0 + ms(100)), "within the lease");
        assert!(hub.seal_check(t0 + ms(101)), "past the lease");
        assert!(hub.is_sealed());
        // Contact returning (healed partition, no promotion) un-seals.
        hub.note_follower_ack("f:1", 4);
        let t1 = hub.last_ack.unwrap();
        assert!(!hub.seal_check(t1 + ms(1)));
        assert!(!hub.is_sealed());
    }

    #[test]
    fn followers_and_unleased_leaders_never_seal() {
        let mut hub = ReplHub::follower("x");
        hub.set_lease(ms(1));
        hub.note_follower_ack("f:1", 1);
        assert!(!hub.seal_check(later(1_000_000)), "followers have no lease");
    }

    #[test]
    fn fencing_is_permanent_and_epoch_guarded() {
        let mut hub = ReplHub::leader();
        hub.set_lease(ms(50));
        // A stale fence (epoch not above ours) is refused.
        assert!(!hub.fence(1, "new:1", 0));
        assert!(!hub.is_fenced());
        // A real fence demotes, adopts the epoch, and redirects.
        assert!(hub.fence(3, "new:1", 7));
        assert!(hub.is_fenced());
        assert!(hub.is_follower());
        assert_eq!(hub.epoch(), 3);
        assert_eq!(hub.leader_addr(), "new:1");
        assert_eq!(hub.fence_events(), 1);
        assert_eq!(hub.divergence_ops(), 7);
        // Fenced wins over fresh contact: no un-seal, no promotion.
        hub.note_follower_ack("f:1", 9);
        assert!(hub.is_sealed());
        assert!(hub.seal_check(Instant::now()));
        // Duplicate fence at the same epoch is ignored.
        assert!(!hub.fence(3, "other:2", 1));
        assert_eq!(hub.fence_events(), 1);
        assert_eq!(hub.leader_addr(), "new:1");
    }

    #[test]
    fn observe_epoch_tracks_without_role_change() {
        let mut hub = ReplHub::follower("x");
        hub.observe_epoch(5);
        assert_eq!(hub.epoch(), 5);
        assert!(hub.is_follower());
        hub.observe_epoch(4); // stale: ignored
        assert_eq!(hub.epoch(), 5);
    }

    #[test]
    fn progress_gauges_are_monotonic() {
        let mut hub = ReplHub::follower("x");
        hub.set_applied(5);
        hub.set_applied(3); // stale write must not regress
        assert_eq!(hub.applied_seq(), 5);
        hub.note_source_synced(9);
        hub.note_source_synced(7);
        assert_eq!(hub.source_synced(), 9);
        let r = hub.report(5, 5);
        assert_eq!(r.role, "follower");
        assert_eq!(r.applied_seq, Some(5));
        assert_eq!(r.replication_lag_frames, 4);
    }

    #[test]
    fn leader_report_takes_max_follower_lag() {
        let mut hub = ReplHub::leader();
        hub.note_follower("a:1", 10);
        hub.note_follower("b:2", 7);
        hub.note_follower("a:1", 9); // stale ack must not regress
        let r = hub.report(12, 12);
        assert_eq!(r.role, "leader");
        assert_eq!(r.replication_lag_frames, 5);
        assert_eq!(r.followers.len(), 2);
        assert_eq!(r.followers[0].peer, "a:1");
        assert_eq!(r.followers[0].lag_frames, 2);
        hub.note_unsent("a:1", 300);
        hub.note_unsent("gone:3", 9); // not connected: ignored
        let r = hub.report(12, 12);
        assert_eq!(r.followers.len(), 2);
        assert_eq!(r.followers[0].unsent_bytes, 300);
        hub.drop_follower("b:2");
        assert_eq!(hub.report(12, 12).replication_lag_frames, 2);
    }
}
