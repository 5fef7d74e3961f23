//! A switchable counting allocator.
//!
//! Untraced runs leave counting off, so the end-to-end numbers pay one
//! relaxed load per allocation and nothing else. Traced runs switch it
//! on: every thread counts its own allocation calls (so a span on one
//! thread is never charged for another thread's work), and live/peak
//! heap bytes are tracked process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The global allocator the benchmark installs (see `lib.rs`).
pub struct CountingAlloc;

fn on_alloc(size: usize) {
    if COUNTING.load(Relaxed) {
        // `try_with` fails only while the thread is being torn down.
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn on_dealloc(size: usize) {
    if COUNTING.load(Relaxed) {
        LIVE.fetch_sub(size as i64, Relaxed);
    }
}

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only atomics and a
// const-initialised thread-local `Cell`, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        new_ptr
    }
}

/// Turns counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Allocation calls made by the calling thread while counting was on.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Restarts the peak-heap watermark at the current live heap and returns
/// that baseline in bytes (relative to when counting was first switched
/// on, so only differences are meaningful).
pub fn reset_peak() -> i64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// The peak live heap since the last [`reset_peak`], same origin.
pub fn peak() -> i64 {
    PEAK.load(Relaxed)
}
