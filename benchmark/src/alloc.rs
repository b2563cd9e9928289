//! Counting global allocator: live/peak heap bytes and allocation
//! counts for the benchmark process, measured without touching the
//! program (every `Vec`, `Matrix` and panel the system allocates goes
//! through here).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

// Relaxed everywhere: the counters are statistics and publish no other
// data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`] and counts.
pub struct Counting;

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch the
// returned memory and are only updated for calls `System` reported as
// successful (non-null), with the layout sizes the caller passed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) };
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from this allocator and `new_size`
        // is valid for `layout.align()`, per the caller's contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Counter values at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapSnapshot {
    /// Bytes currently allocated.
    pub live: usize,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: usize,
    /// Allocation calls since process start (reallocs count once).
    pub allocs: u64,
    /// Bytes requested since process start.
    pub bytes: u64,
}

/// Reads the counters.
pub fn snapshot() -> HeapSnapshot {
    HeapSnapshot {
        live: LIVE.load(Ordering::Relaxed),
        peak: PEAK.load(Ordering::Relaxed),
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Starts a new measurement phase: the peak restarts from what is live
/// now. Call from the thread that owns the phase boundary.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, because the counters are process-global and `cargo test`
    // runs tests on parallel threads: deltas below are lower bounds.
    #[test]
    fn counts_a_known_allocation_and_resets_between_phases() {
        const N: usize = 8 << 20;
        // Other tests allocate concurrently, but far less than this.
        const SLACK: usize = 1 << 20;
        reset_peak();
        let before = snapshot();
        let v = vec![1u8; N];
        let during = snapshot();
        assert!(during.allocs > before.allocs);
        assert!(during.bytes - before.bytes >= N as u64);
        assert!(during.live + SLACK >= before.live + N);
        assert!(during.peak >= N);
        drop(std::hint::black_box(v));
        let after = snapshot();
        assert!(after.live + N <= during.live + SLACK);
        assert!(after.peak >= N, "peak survives the free");
        reset_peak();
        let phase2 = snapshot();
        assert!(
            phase2.peak < during.peak,
            "a new phase forgets the earlier peak ({} vs {})",
            phase2.peak,
            during.peak
        );
    }
}
