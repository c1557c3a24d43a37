//! Heap-allocation counting for the benchmark (feature `count-alloc`).
//!
//! [`CountingAlloc`] wraps the system allocator and counts every
//! allocation (and reallocation) through a relaxed atomic. A binary
//! installs it explicitly (`benchmark-traced` does):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: seacma_util::alloc::CountingAlloc = seacma_util::alloc::CountingAlloc;
//! ```
//!
//! and then brackets measured regions with [`alloc_count`] /
//! [`alloc_bytes`]. For a deterministic single-threaded program the call
//! count is exact and reproducible — which is what lets `verify.sh` gate
//! allocation regressions the same way it gates exactness. The module
//! only exists under the `count-alloc` feature so ordinary builds pay
//! nothing, not even the atomic increment.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] that counts calls and bytes, then defers to
/// [`System`]. Install with `#[global_allocator]` in the binary that
/// wants counting; the counters stay at zero otherwise.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

// SAFETY: defers every operation to `System`, which upholds the
// GlobalAlloc contract; the counters don't affect allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Total allocation calls (alloc + realloc) since process start. Bracket
/// a region with two reads and subtract.
pub fn alloc_count() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Total bytes requested (alloc sizes + realloc growth) since process
/// start.
pub fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install CountingAlloc, so counters only
    // move if some other binary-level harness installed it; either way
    // the API must be monotone and non-panicking.
    #[test]
    fn counters_are_monotone() {
        let c0 = alloc_count();
        let b0 = alloc_bytes();
        let v: Vec<u8> = vec![0; 4096];
        std::hint::black_box(&v);
        assert!(alloc_count() >= c0);
        assert!(alloc_bytes() >= b0);
    }
}
