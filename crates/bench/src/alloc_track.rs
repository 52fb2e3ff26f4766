//! Counting global allocator: real host heap numbers for the bench crate.
//!
//! PR 6's device-memory gate reads *simulated* peaks from the GPU model;
//! the bagged-memory gate needs the opposite — the **actual host heap**
//! peak of a run, so that a regression that quietly materialises an
//! `O(n)`-sized structure per bag (or keeps every bag's subsample alive at
//! once) fails on measurement, not on bookkeeping. This module wraps the
//! system allocator with relaxed atomic live/peak counters; the bench crate
//! installs it as its `#[global_allocator]`, so every binary and test in
//! `kcv-bench` is measured.
//!
//! Accuracy notes:
//!
//! * `current_bytes`/`peak_bytes` count *requested* layout sizes, not
//!   allocator-internal slack — a lower bound on RSS growth but exactly the
//!   quantity the footprint formula in
//!   `kcv_core::select::bagged::bag_footprint_bound_bytes` bounds.
//! * The counters are process-global. Peak deltas are only meaningful when
//!   nothing else allocates concurrently — true in the single-threaded
//!   `perf_gate`/`scaling` mains (the measured run's rayon workers are the
//!   only other allocating threads, and they are *part of* the measured
//!   run), but not under a multi-threaded test harness. Tests therefore
//!   assert presence and plausibility of the fields, never tight bounds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// System-allocator wrapper keeping live/peak byte counters.
pub struct CountingAllocator;

impl CountingAllocator {
    #[inline]
    fn on_alloc(size: usize) {
        let live = CURRENT.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    #[inline]
    fn on_dealloc(size: usize) {
        CURRENT.fetch_sub(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: defers every allocation to `System` unchanged; the counters are
// pure bookkeeping on the side.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            Self::on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            Self::on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            Self::on_dealloc(layout.size());
            Self::on_alloc(new_size);
        }
        new_ptr
    }
}

/// Bytes currently live (allocated and not yet freed) process-wide.
pub fn current_bytes() -> u64 {
    CURRENT.load(Ordering::Relaxed)
}

/// High-water mark of [`current_bytes`] since process start or the last
/// [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the current live count, so the next
/// [`peak_bytes`] read reports the peak of *subsequent* activity only.
/// Call immediately before the region to measure; subtract the
/// [`current_bytes`] baseline taken at the same point to get the region's
/// own transient peak.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_a_large_allocation() {
        // Other tests allocate and free concurrently, so exact deltas are
        // racy: a free on another thread between two reads shifts them. The
        // block is zeroed (its pages are never touched) and far larger than
        // any other test's heap, so the counters must move by it to within
        // half its size whatever the other tests do meanwhile.
        const BLOCK: u64 = 1 << 26;
        reset_peak();
        let before = current_bytes();
        let block: Vec<u8> = vec![0u8; BLOCK as usize];
        let during = current_bytes();
        assert!(during >= before + BLOCK / 2, "live {before} -> {during}");
        assert!(peak_bytes() >= during);
        drop(block);
        let after = current_bytes();
        assert!(after + BLOCK / 2 <= during, "live {during} -> {after} after the free");
    }

    #[test]
    fn reset_peak_rebases_to_live() {
        let block: Vec<u8> = vec![0u8; 1 << 18];
        reset_peak();
        // The high-water mark after a reset can never sit below the live
        // count at reset time minus what has since been freed by others.
        assert!(peak_bytes() >= current_bytes().saturating_sub(1 << 10) || peak_bytes() > 0);
        drop(block);
    }
}
