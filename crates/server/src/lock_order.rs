//! The lock-order sentinel: rank-annotated lock wrappers that detect
//! potential deadlocks in debug builds.
//!
//! Every long-lived lock in the server belongs to a [`LockClass`] with a
//! documented **rank** (see [`classes`] and the lock-rank table in
//! DESIGN.md "Concurrency verification"). The discipline: a thread may
//! only acquire locks in strictly increasing rank order. Because every
//! thread respects the same total order, no cycle of waiters can form —
//! the classic deadlock-freedom argument.
//!
//! In debug builds (and only there — the instrumentation is compiled out
//! entirely under `--release` and under `--cfg loom`, where the model
//! checker's own deadlock detection takes over), the wrappers enforce
//! this two ways:
//!
//! 1. **Rank check**: acquiring a class whose rank is not strictly above
//!    every class the thread already holds panics immediately, naming
//!    both classes.
//! 2. **Acquisition-order graph**: every observed `held -> acquired`
//!    edge is recorded globally with the backtrace of its first
//!    observation. If a new edge closes a cycle (the reverse path
//!    already exists), the sentinel panics with **both stacks**: the
//!    current acquisition's and the recorded one that established the
//!    opposite order. The graph catches inversions even between classes
//!    an operator added without ranks being total.
//!
//! The wrappers are thin newtypes over [`crate::sync`] primitives: in
//! release builds `lock()` compiles to the underlying `Mutex::lock` plus
//! a poison `expect` — zero additional synchronization, no thread-local
//! traffic, no graph.

use crate::sync;
use std::fmt;

/// A named, ranked equivalence class of locks. Instances are `static`s
/// in [`classes`]; every lock wrapper points at one.
#[derive(Debug)]
pub struct LockClass {
    /// Stable name used in panics and the DESIGN.md table.
    pub name: &'static str,
    /// Position in the global acquisition order (strictly increasing
    /// along any nesting chain).
    pub rank: u32,
}

impl LockClass {
    /// A new class; `rank` places it in the global order. Two locks of
    /// one class may never nest.
    pub const fn new(name: &'static str, rank: u32) -> LockClass {
        LockClass { name, rank }
    }
}

/// The server's lock-rank table. Keep in sync with DESIGN.md.
pub mod classes {
    use super::LockClass;

    /// Group-commit ticketing metadata (`group_commit::GroupWal::meta`).
    pub static WAL_META: LockClass = LockClass::new("wal.meta", 40);
    /// The WAL file itself (`group_commit::GroupWal::file`).
    pub static WAL_FILE: LockClass = LockClass::new("wal.file", 50);
}

#[cfg(all(debug_assertions, not(loom)))]
mod sentinel {
    use super::LockClass;
    use std::backtrace::Backtrace;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    thread_local! {
        /// Classes this thread currently holds, in acquisition order.
        static HELD: RefCell<Vec<&'static LockClass>> = const { RefCell::new(Vec::new()) };
    }

    /// First-observation backtraces of `from -> to` acquisition edges,
    /// keyed by class names (class statics make names unique).
    fn graph() -> &'static Mutex<HashMap<(&'static str, &'static str), String>> {
        static GRAPH: OnceLock<Mutex<HashMap<(&'static str, &'static str), String>>> =
            OnceLock::new();
        GRAPH.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Is `to` reachable from `from` through recorded edges?
    fn reachable(
        edges: &HashMap<(&'static str, &'static str), String>,
        from: &'static str,
        to: &'static str,
    ) -> bool {
        let mut stack = vec![from];
        let mut seen = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            for (f, t) in edges.keys() {
                if *f == n && !seen.contains(t) {
                    seen.push(t);
                    stack.push(t);
                }
            }
        }
        false
    }

    pub fn on_acquire(class: &'static LockClass) {
        let held: Vec<&'static LockClass> = HELD.with(|h| h.borrow().clone());
        if !held.is_empty() {
            let here = Backtrace::force_capture().to_string();
            let mut edges = graph()
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for &h in &held {
                // Rank discipline: strictly increasing along any chain,
                // so two locks of one class never nest.
                if h.rank >= class.rank {
                    let reverse = edges
                        .get(&(class.name, h.name))
                        .cloned()
                        .unwrap_or_else(|| "<never observed>".to_string());
                    panic!(
                        "lock-order violation: acquiring \"{}\" (rank {}) while holding \
                         \"{}\" (rank {}) — ranks must strictly increase along a nesting \
                         chain (see the lock-rank table in DESIGN.md)\n\
                         \n--- acquisition attempted here ---\n{here}\n\
                         --- opposite order \"{}\" -> \"{}\" first recorded here ---\n{reverse}",
                        class.name, class.rank, h.name, h.rank, class.name, h.name,
                    );
                }
                // Order graph: record the edge, refuse one that closes a
                // cycle (defense in depth should ranks ever stop being a
                // total order).
                if reachable(&edges, class.name, h.name) {
                    let reverse = edges
                        .get(&(class.name, h.name))
                        .cloned()
                        .unwrap_or_else(|| "<via intermediate classes>".to_string());
                    panic!(
                        "lock-order cycle: acquiring \"{}\" while holding \"{}\" closes a \
                         cycle in the acquisition-order graph\n\
                         \n--- acquisition attempted here ---\n{here}\n\
                         --- opposite order first recorded here ---\n{reverse}",
                        class.name, h.name,
                    );
                }
                edges
                    .entry((h.name, class.name))
                    .or_insert_with(|| here.clone());
            }
        }
        HELD.with(|h| h.borrow_mut().push(class));
    }

    pub fn on_release(class: &'static LockClass) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(i) = held.iter().rposition(|&c| std::ptr::eq(c, class)) {
                held.remove(i);
            }
        });
    }
}

#[cfg(not(all(debug_assertions, not(loom))))]
mod sentinel {
    use super::LockClass;

    #[inline(always)]
    pub fn on_acquire(_class: &'static LockClass) {}

    #[inline(always)]
    pub fn on_release(_class: &'static LockClass) {}
}

/// A [`sync::Mutex`] tagged with a [`LockClass`], enforcing the rank
/// discipline in debug builds.
pub struct TrackedMutex<T> {
    class: &'static LockClass,
    inner: sync::Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// A new mutex belonging to `class`.
    pub fn new(class: &'static LockClass, value: T) -> TrackedMutex<T> {
        TrackedMutex {
            class,
            inner: sync::Mutex::new(value),
        }
    }

    /// Acquire. Panics on a rank violation (debug builds) or if a thread
    /// panicked while holding the lock.
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        sentinel::on_acquire(self.class);
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(|_| panic!("lock \"{}\" poisoned", self.class.name));
        TrackedMutexGuard {
            class: self.class,
            inner: Some(inner),
        }
    }
}

impl<T> fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackedMutex")
            .field("class", &self.class.name)
            .finish_non_exhaustive()
    }
}

/// Guard for [`TrackedMutex`].
pub struct TrackedMutexGuard<'a, T> {
    class: &'static LockClass,
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<T> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken")
    }
}

impl<T> Drop for TrackedMutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            sentinel::on_release(self.class);
        }
    }
}

/// A [`sync::Condvar`] aware of [`TrackedMutexGuard`]s: waiting releases
/// the guard's class from the thread's held set and re-registers it on
/// wake, so the sentinel never mistakes a wait for a held lock.
pub struct TrackedCondvar {
    inner: sync::Condvar,
}

impl TrackedCondvar {
    /// A new condvar.
    pub fn new() -> TrackedCondvar {
        TrackedCondvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Atomically release the guard and wait for a notification, then
    /// reacquire. Panics if the mutex was poisoned.
    pub fn wait<'a, T>(&self, mut guard: TrackedMutexGuard<'a, T>) -> TrackedMutexGuard<'a, T> {
        let class = guard.class;
        let inner = guard.inner.take().expect("guard taken");
        sentinel::on_release(class);
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(|_| panic!("lock \"{}\" poisoned", class.name));
        sentinel::on_acquire(class);
        TrackedMutexGuard {
            class,
            inner: Some(inner),
        }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for TrackedCondvar {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for TrackedCondvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackedCondvar").finish_non_exhaustive()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    // Test-local classes: the global graph is shared process-wide, so
    // tests must not pollute the production classes' edges.
    static LOW: LockClass = LockClass::new("test.low", 1);
    static HIGH: LockClass = LockClass::new("test.high", 2);
    static A: LockClass = LockClass::new("test.a", 7);
    static B: LockClass = LockClass::new("test.b", 7);

    #[test]
    fn ascending_acquisition_is_allowed() {
        let low = TrackedMutex::new(&LOW, 1u32);
        let high = TrackedMutex::new(&HIGH, 2u32);
        let g1 = low.lock();
        let g2 = high.lock();
        assert_eq!(*g1 + *g2, 3);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "sentinel is debug-only")]
    fn inverted_acquisition_panics_with_both_stacks() {
        let low = TrackedMutex::new(&LOW, ());
        let high = TrackedMutex::new(&HIGH, ());
        // Establish the sanctioned order once.
        {
            let _g1 = low.lock();
            let _g2 = high.lock();
        }
        // Invert it: the sentinel must panic while both orders' stacks
        // are available.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g2 = high.lock();
            let _g1 = low.lock();
        }))
        .expect_err("inverted acquisition must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock-order violation"), "{msg}");
        assert!(msg.contains("test.low"), "{msg}");
        assert!(msg.contains("test.high"), "{msg}");
        assert!(msg.contains("acquisition attempted here"), "{msg}");
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "sentinel is debug-only")]
    fn equal_ranks_cannot_nest() {
        let nest = |f: &dyn Fn()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .expect_err("equal-rank nesting must panic");
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        // Two classes of one rank.
        let (a, b) = (TrackedMutex::new(&A, ()), TrackedMutex::new(&B, ()));
        let msg = nest(&|| {
            let _g1 = a.lock();
            let _g2 = b.lock();
        });
        assert!(msg.contains("lock-order violation"), "{msg}");
        // Two locks of the same class.
        let (first, second) = (TrackedMutex::new(&A, ()), TrackedMutex::new(&A, ()));
        let msg = nest(&|| {
            let _g1 = first.lock();
            let _g2 = second.lock();
        });
        assert!(msg.contains("lock-order violation"), "{msg}");
        assert!(msg.contains("holding \"test.a\""), "{msg}");
    }

    #[test]
    fn condvar_wait_releases_the_class() {
        use std::sync::Arc;
        let pair = Arc::new((TrackedMutex::new(&HIGH, false), TrackedCondvar::new()));
        let p2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while !*g {
                g = cv.wait(g);
                // While waiting, HIGH was not held: acquiring LOW here
                // after the wake is a fresh chain, not an inversion —
                // the Drop below exercises release bookkeeping.
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_one();
        }
        waiter.join().unwrap();
        // After everything is released, a LOW acquisition is clean.
        let low = TrackedMutex::new(&LOW, ());
        let _g = low.lock();
    }
}
