//! NPJ's heap traffic is per worker, not per key: the shared table is one
//! zeroed arena, so a run allocates its table, its per-worker scratch and
//! its result buffers and nothing that scales with the input's distinct
//! keys. Counted with a wrapping `#[global_allocator]` (this file is its own
//! test binary with a single test, so the count has no other contributor) —
//! a deterministic pin on the mechanism, not a wall-clock ratio.

use iawj_common::Window;
use iawj_core::reference::match_count;
use iawj_core::{execute_on, Algorithm, RunConfig};
use iawj_datagen::MicroSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn npj_allocates_per_worker_not_per_key() {
    const N: usize = 100_000;
    const THREADS: usize = 2;
    // 25 000 distinct keys per side, four tuples each.
    let ds = MicroSpec::static_counts(N, N).dupe(4).seed(14).generate();
    let expected = match_count(&ds.r, &ds.s, Window::of_len(u32::MAX));
    assert!(expected >= N as u64, "the workload must produce matches");

    let cfg = RunConfig::with_threads(THREADS);
    let exec = cfg.make_executor();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = execute_on(Algorithm::Npj, &ds, &cfg, &exec);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(result.matches, expected);
    // A table with one heap chain per non-empty bucket makes 25 000+.
    assert!(
        allocations < 100 * THREADS,
        "{allocations} heap allocations for {THREADS} workers"
    );
}
