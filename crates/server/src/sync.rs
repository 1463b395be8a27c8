//! Swappable concurrency primitives: `std::sync`/`std::thread`/`std::time`
//! in real builds, [`loom`] model-checked equivalents under `--cfg loom`.
//!
//! Every lock, condvar, atomic, and thread spawn on the one structure
//! two threads share — the group-commit WAL (`group_commit`), which the
//! reactor appends to and the interval flusher syncs — goes through this
//! module instead of `std` directly, as does the clock of the
//! single-threaded paths (`service`, `dispatch`). In a normal build the re-exports
//! are zero-cost aliases of the `std` types — nothing changes. Under
//! `RUSTFLAGS="--cfg loom"` the same code compiles against the `loom`
//! model checker, whose scheduler exhaustively explores thread
//! interleavings at every synchronization point (see
//! `crates/server/tests/loom_models.rs` for the models and DESIGN.md
//! "Concurrency verification" for the inventory).
//!
//! [`Instant`] is shimmed too: loom executions must be deterministic, so
//! the loom variant is a unit type whose `elapsed()` is always zero.
//! Time-based behavior (the `interval` fsync cadence, latency metrics)
//! is therefore invisible to the models — they exercise the `always` and
//! `never` policies, where correctness does not hinge on the clock.

#[cfg(loom)]
pub use loom::thread;
#[cfg(not(loom))]
pub use std::thread;

#[cfg(loom)]
pub use loom::sync::{atomic, Arc, Condvar, LockResult, Mutex, MutexGuard};
#[cfg(not(loom))]
pub use std::sync::{atomic, Arc, Condvar, LockResult, Mutex, MutexGuard};

#[cfg(not(loom))]
pub use std::time::Instant;

/// Deterministic stand-in for [`std::time::Instant`] under the model
/// checker: `now()` is a constant and `elapsed()` is always zero, so no
/// model branch ever depends on wall-clock time.
#[cfg(loom)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Instant;

#[cfg(loom)]
impl Instant {
    /// The (only) model instant.
    pub fn now() -> Instant {
        Instant
    }

    /// Always zero: model time does not pass.
    pub fn elapsed(&self) -> std::time::Duration {
        std::time::Duration::ZERO
    }
}
