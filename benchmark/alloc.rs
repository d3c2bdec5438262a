//! A counting wrapper over the system allocator.
//!
//! It tracks live bytes, their peak, and the number and size of
//! allocation calls, so a scenario's memory cost is read from the
//! allocator rather than from process statistics: the process high-water
//! mark (`VmHWM`) depends on where the system allocator placed its arenas
//! and is not repeatable from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering::Relaxed};

/// The global allocator of the benchmark binary: [`System`] plus counters.
pub struct Counting;

// Counting is on only between `start` and `stop`, so the timed scenarios
// pay one load per call rather than four read-modify-writes. The flag and
// the counters publish no other data: threads that allocate in a counted
// region are spawned after `start` and joined before `stop`, which orders
// their accesses, so relaxed ordering suffices.
static COUNTING: AtomicBool = AtomicBool::new(false);
// Signed: a region may free memory allocated before it started.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn allocated(size: usize) {
    if !COUNTING.load(Relaxed) {
        return;
    }
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as isize, Relaxed) + size as isize;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn freed(size: usize) {
    if COUNTING.load(Relaxed) {
        LIVE.fetch_sub(size as isize, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are only
// updated, never used to decide what memory to hand out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            allocated(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            allocated(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        freed(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            freed(layout.size());
            allocated(new_size);
        }
        moved
    }
}

/// The counters when a counted region started (see [`start`]).
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    live: isize,
    calls: u64,
    bytes: u64,
}

/// What the allocator saw in a counted region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Usage {
    /// Peak live heap above the level at the start, in bytes.
    pub peak_bytes: usize,
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub calls: u64,
    /// Bytes those calls requested (a `realloc` counts its new size).
    pub bytes: u64,
}

/// Starts counting, forgetting the peak reached so far.
pub fn start() -> Mark {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    let mark = Mark {
        live,
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    };
    COUNTING.store(true, Relaxed);
    mark
}

/// Stops counting and returns the usage since `mark`.
pub fn stop(mark: Mark) -> Usage {
    COUNTING.store(false, Relaxed);
    Usage {
        peak_bytes: (PEAK.load(Relaxed) - mark.live).max(0) as usize,
        calls: CALLS.load(Relaxed) - mark.calls,
        bytes: BYTES.load(Relaxed) - mark.bytes,
    }
}

/// Held by the tests that count, which would otherwise start and stop
/// each other's regions when they run on parallel threads.
#[cfg(test)]
pub static REGIONS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    /// Far above what the other tests of this binary hold live at any one
    /// time.
    const BIG: usize = 32 << 20;

    #[test]
    fn a_known_allocation_raises_the_peak_and_a_restart_forgets_it() {
        let _serial = REGIONS.lock().expect("no test panics while counting");
        let mark = start();
        let block = std::hint::black_box(vec![1u8; BIG]);
        drop(block);
        let usage = stop(mark);
        assert!(usage.peak_bytes >= BIG, "{usage:?}");
        assert!(usage.calls >= 1 && usage.bytes >= BIG as u64, "{usage:?}");

        let fresh = stop(start());
        assert!(
            fresh.peak_bytes < BIG,
            "the restart kept the old peak: {fresh:?}"
        );
    }
}
