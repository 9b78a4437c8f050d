//! A counting global allocator: the dynamic twin of the workspace's static
//! lints.
//!
//! The dense engines document a scratch-reuse contract — a run over a warm
//! scratch performs **zero heap allocations** in its hot loop. This crate
//! turns that prose into an enforced invariant: a test binary installs
//! [`CountingAlloc`] as its `#[global_allocator]` and asserts with
//! [`measure`] that the warm path touched the allocator zero times.
//!
//! Counters are **thread-local** so the measurement is immune to the test
//! harness running other tests concurrently on sibling threads; allocations
//! made by other threads (or handed across threads) are invisible to the
//! measuring thread, which is exactly right for the single-threaded
//! scratch-reuse contracts being pinned.
//!
//! The same counters keep a live-byte balance and its high-water mark, so a
//! test can also pin how much memory a section holds at its peak
//! ([`AllocStats::peak_live_bytes`]) without reading `/proc`.
//!
//! This is the one first-party crate allowed to contain `unsafe` code
//! (implementing [`GlobalAlloc`] requires it): its manifest repeats the
//! workspace lints without `unsafe_code = "forbid"`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    static DEALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    static REALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES_ALLOCATED: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread. Signed: a block
    /// allocated on another thread and freed here pushes it down.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE_BYTES` since the current [`measure`] began.
    static PEAK_LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Moves the live-byte balance by `delta` and raises the high-water mark.
fn add_live(delta: i64) {
    let live = LIVE_BYTES.with(|c| {
        c.set(c.get() + delta);
        c.get()
    });
    PEAK_LIVE_BYTES.with(|c| c.set(c.get().max(live)));
}

/// A block size as a balance delta.
fn bytes(size: usize) -> i64 {
    i64::try_from(size).expect("a block size fits in i64")
}

/// Allocator activity observed on the current thread during a [`measure`]
/// call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Calls to `alloc` / `alloc_zeroed`.
    pub allocations: u64,
    /// Calls to `dealloc`.
    pub deallocations: u64,
    /// Calls to `realloc` (a growth or shrink of an existing block).
    pub reallocations: u64,
    /// Total bytes requested by `alloc` / `alloc_zeroed` / `realloc`.
    pub bytes_allocated: u64,
    /// The most bytes the section held at once on this thread, counted
    /// from what was live when it began: the high-water mark of
    /// (bytes allocated − bytes freed), a grown block counted at its new
    /// size. Memory held by other threads is not seen.
    pub peak_live_bytes: u64,
}

impl AllocStats {
    /// `true` if the measured section never touched the allocator: no
    /// allocations, no reallocations and no frees.
    pub fn is_allocation_free(&self) -> bool {
        self.allocations == 0 && self.reallocations == 0 && self.deallocations == 0
    }
}

/// A [`GlobalAlloc`] that delegates to [`System`] and counts every call in
/// thread-local counters.
///
/// Install it in a test binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: hybridcast_testalloc::CountingAlloc = hybridcast_testalloc::CountingAlloc;
/// ```
pub struct CountingAlloc;

// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates are plain thread-local `Cell`
// stores and perform no allocation themselves.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.with(|c| c.set(c.get() + 1));
        BYTES_ALLOCATED.with(|c| c.set(c.get() + layout.size() as u64));
        add_live(bytes(layout.size()));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.with(|c| c.set(c.get() + 1));
        BYTES_ALLOCATED.with(|c| c.set(c.get() + layout.size() as u64));
        add_live(bytes(layout.size()));
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOC_CALLS.with(|c| c.set(c.get() + 1));
        add_live(-bytes(layout.size()));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOC_CALLS.with(|c| c.set(c.get() + 1));
        BYTES_ALLOCATED.with(|c| c.set(c.get() + new_size as u64));
        add_live(bytes(new_size) - bytes(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

fn snapshot() -> AllocStats {
    AllocStats {
        allocations: ALLOC_CALLS.with(Cell::get),
        deallocations: DEALLOC_CALLS.with(Cell::get),
        reallocations: REALLOC_CALLS.with(Cell::get),
        bytes_allocated: BYTES_ALLOCATED.with(Cell::get),
        peak_live_bytes: 0,
    }
}

/// Runs `f` and returns its result together with the allocator activity it
/// caused **on the current thread**.
///
/// Only meaningful in a binary whose `#[global_allocator]` is
/// [`CountingAlloc`]; under any other allocator the stats are always zero.
/// The thread-local counters are touched (and therefore lazily initialized)
/// before `f` runs, so first-use initialization never leaks into the
/// measurement. The live-byte high-water mark restarts at the current
/// balance, so [`AllocStats::peak_live_bytes`] counts only what `f` added
/// on top of it. Measurements do not nest.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocStats) {
    let before = snapshot();
    let live_before = LIVE_BYTES.with(Cell::get);
    PEAK_LIVE_BYTES.with(|c| c.set(live_before));
    let value = f();
    let after = snapshot();
    let peak = PEAK_LIVE_BYTES.with(Cell::get) - live_before;
    (
        value,
        AllocStats {
            allocations: after.allocations - before.allocations,
            deallocations: after.deallocations - before.deallocations,
            reallocations: after.reallocations - before.reallocations,
            bytes_allocated: after.bytes_allocated - before.bytes_allocated,
            peak_live_bytes: u64::try_from(peak).expect("the mark starts at the balance"),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests run under the default System allocator (no
    // `#[global_allocator]` in a lib test binary), so only the plumbing —
    // not the counting — can be exercised here. The real assertions live in
    // the workspace-level `tests/zero_alloc.rs`, which installs the
    // allocator for its whole binary.

    #[test]
    fn measure_returns_the_closure_value() {
        let (v, stats) = measure(|| 41 + 1);
        assert_eq!(v, 42);
        let _ = stats;
    }

    #[test]
    fn zero_stats_are_allocation_free() {
        assert!(AllocStats::default().is_allocation_free());
        let busy = AllocStats {
            allocations: 1,
            ..AllocStats::default()
        };
        assert!(!busy.is_allocation_free());
    }
}
