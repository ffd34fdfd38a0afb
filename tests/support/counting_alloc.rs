//! A counting global allocator for allocation-bound tests, counted per
//! thread.
//!
//! It wraps [`System`] and keeps, for each thread, the number of
//! allocations it made and the bytes it holds live and their peak. A
//! test measures its own thread only, so libtest's other threads (its
//! other tests, its output capture) never show in a bound, and tests in
//! one binary need not run one at a time.
//!
//! Include it as a module of the test binary (`#[path]` from outside
//! this directory); it installs itself as the global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation of the calling thread, then
/// defers to [`System`].
struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    // Signed: a thread may free a block another thread allocated.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    // `try_with` never panics: the cells have no destructor, so they
    // stay readable while a thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE.try_with(|live| {
        let now = live.get().wrapping_add_unsigned(bytes);
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrank(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().wrapping_sub_unsigned(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are
// thread-local cells that neither allocate nor touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as a fresh block beside the old one, as a moving
        // realloc holds both for a moment.
        grew(new_size);
        shrank(layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout)
    }
}

/// Runs `f` and returns its result, the peak of the calling thread's
/// live bytes above their starting level, and the number of allocations
/// (reallocations included) the thread made meanwhile.
pub fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, u64) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let allocations = ALLOCATIONS.with(Cell::get);
    let out = f();
    let peak = PEAK.with(Cell::get) - base;
    let made = ALLOCATIONS.with(Cell::get) - allocations;
    (out, peak.max(0) as usize, made)
}
