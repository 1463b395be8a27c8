//! The simulator's cycle must not allocate in steady state: worms reuse
//! the progress buffers of completed ones and every per-cycle list is
//! owned by the simulator, so past warm-up the heap is touched only when
//! `records` (one entry per message, kept for the statistics) doubles or
//! the traffic reaches a new high-water mark.
//!
//! This file is its own test binary because it installs a counting
//! global allocator; it holds a single test so nothing else allocates
//! on another thread while the count is read.

use rtwc_workload::{generate, PaperWorkloadConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use wormnet_sim::{SimConfig, Simulator};
use wormnet_topology::Topology;

/// Forwards to the system allocator, counting allocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic.
// (`realloc` and `alloc_zeroed` keep their default bodies, which call
// these two, so growth of a `Vec` counts as an allocation.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_thousand_steady_cycles_allocate_next_to_nothing() {
    // The shape the benchmark simulates: Table 5, 60 streams x 15
    // levels on 10x10, buffer depth 16.
    let w = generate(PaperWorkloadConfig {
        num_streams: 60,
        priority_levels: 15,
        horizon_cap: 20_000,
        seed: 1998,
        ..PaperWorkloadConfig::default()
    });
    let cfg = SimConfig::paper(15).with_buffer_depth(16);
    let mut sim = Simulator::new(w.mesh.num_links(), &w.set, cfg).unwrap();
    for _ in 0..1_000 {
        sim.step();
    }
    let released = sim.stats().total_released();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        sim.step();
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let messages = sim.stats().total_released() - released;
    assert!(messages > 400, "the window must carry traffic: {messages}");
    // The link-centric engine this replaced made about 100 a cycle.
    assert!(
        allocations <= 24,
        "{allocations} allocations in 1000 steady-state cycles ({messages} messages released)"
    );
}
