//! Swappable concurrency primitives: `std::sync`/`std::thread` in real
//! builds, [`loom`] model-checked equivalents under `--cfg loom`.
//!
//! The one thing two threads share is the WAL's hand-off between the
//! reactor, which writes records, and the `--fsync interval` flusher,
//! which syncs them: a few atomics in an `Arc` (`group_commit`). Those
//! atomics go through this module instead of `std` directly. In a
//! normal build the re-exports are zero-cost aliases of the `std` types.
//! Under `RUSTFLAGS="--cfg loom"` the same code compiles against the
//! `loom` model checker, whose scheduler explores thread interleavings
//! at every atomic operation (see `crates/server/tests/loom_models.rs`
//! for the model and DESIGN.md "Concurrency verification").

#[cfg(loom)]
pub use loom::sync::{atomic, Arc};
#[cfg(loom)]
pub use loom::thread;

#[cfg(not(loom))]
pub use std::sync::{atomic, Arc};
#[cfg(not(loom))]
pub use std::thread;
