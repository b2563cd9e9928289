//! Live/peak memory footprint accounting.

use crate::DataCategory;
use eta_telemetry::{keys, Telemetry};
#[allow(
    clippy::disallowed_types,
    reason = "SYNC: telemetry plumbing only, see the handle below"
)]
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Tracks live and peak bytes per [`DataCategory`].
///
/// The training framework calls [`MemoryTracker::alloc`] when a tensor is
/// materialized into simulated DRAM and [`MemoryTracker::free`] when it is
/// released; the tracker maintains the running total per category and the
/// peak of the *sum* (matching how the paper reports "memory footprint":
/// the high-water mark of GPU memory, Fig. 5).
///
/// # Example
///
/// ```
/// use eta_memsim::{DataCategory, MemoryTracker};
///
/// let mut t = MemoryTracker::new();
/// t.alloc(DataCategory::Activations, 100);
/// t.alloc(DataCategory::Intermediates, 300);
/// t.free(DataCategory::Activations, 100);
/// assert_eq!(t.peak_total(), 400);
/// assert_eq!(t.live(DataCategory::Intermediates), 300);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryTracker {
    live: [u64; 3],
    peak: [u64; 3],
    peak_total: u64,
}

/// Selects one category's slot out of a `[u64; 3]` by destructuring
/// instead of indexing, so the access is infallible by construction.
fn slot(cells: &mut [u64; 3], category: DataCategory) -> &mut u64 {
    let [weights, activations, intermediates] = cells;
    match category {
        DataCategory::Weights => weights,
        DataCategory::Activations => activations,
        DataCategory::Intermediates => intermediates,
    }
}

fn slot_ref(cells: &[u64; 3], category: DataCategory) -> u64 {
    let [weights, activations, intermediates] = cells;
    match category {
        DataCategory::Weights => *weights,
        DataCategory::Activations => *activations,
        DataCategory::Intermediates => *intermediates,
    }
}

impl MemoryTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an allocation of `bytes` in `category`.
    pub fn alloc(&mut self, category: DataCategory, bytes: u64) {
        let live = slot(&mut self.live, category);
        *live += bytes;
        let live = *live;
        let peak = slot(&mut self.peak, category);
        *peak = (*peak).max(live);
        self.peak_total = self.peak_total.max(self.live_total());
    }

    /// Records a release of `bytes` in `category`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if more bytes are freed than are live
    /// (an accounting bug in the caller); saturates in release builds.
    pub fn free(&mut self, category: DataCategory, bytes: u64) {
        let live = slot(&mut self.live, category);
        debug_assert!(
            *live >= bytes,
            "freeing {bytes} bytes from {category} with only {live} live"
        );
        *live = live.saturating_sub(bytes);
    }

    /// Currently-live bytes in one category.
    pub fn live(&self, category: DataCategory) -> u64 {
        slot_ref(&self.live, category)
    }

    /// Currently-live bytes across all categories.
    pub fn live_total(&self) -> u64 {
        self.live.iter().sum()
    }

    /// Peak live bytes ever seen in one category (each category's own
    /// high-water mark; these need not have occurred simultaneously).
    pub fn peak(&self, category: DataCategory) -> u64 {
        slot_ref(&self.peak, category)
    }

    /// Peak of the *total* live bytes — the footprint number the paper's
    /// Fig. 5 reports.
    pub fn peak_total(&self) -> u64 {
        self.peak_total
    }

    /// Resets live counts to zero but keeps peaks.
    pub fn release_all(&mut self) {
        self.live = [0; 3];
    }

    /// Resets everything to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Cumulative alloc/free byte totals per category, plus the high-water
/// mark of what has already been published to telemetry (so repeated
/// publishes emit counter *deltas*, not re-counts).
#[derive(Debug, Default)]
struct TrackerMirror {
    allocated: [u64; 3],
    freed: [u64; 3],
    published_alloc: [u64; 3],
    published_free: [u64; 3],
}

/// A cheaply-clonable, thread-safe handle to a [`MemoryTracker`], for
/// instrumentation shared between a model's layers.
///
/// With a [`Telemetry`] handle attached ([`SharedTracker::with_telemetry`])
/// alloc/free totals are mirrored into the metric registry as
/// `memsim_alloc_bytes_total{category}` / `memsim_free_bytes_total{category}`
/// counters plus the `memsim_live_bytes{category}` and
/// `memsim_peak_total_bytes` gauges. The hot path only accumulates;
/// registry writes happen at [`SharedTracker::publish`] — which
/// [`SharedTracker::snapshot`] calls — keeping the per-event cost to one
/// uncontended add (see the `telemetry_overhead` benchmark guard).
#[derive(Debug, Clone, Default)]
#[allow(
    clippy::disallowed_types,
    reason = "SYNC: the locks guard accounting that feeds dashboards, never numeric state"
)]
pub struct SharedTracker {
    // SYNC: telemetry plumbing only — allocation accounting feeds
    // dashboards, never numeric state, so lock acquisition order is
    // unobservable to the training math.
    tracker: Arc<Mutex<MemoryTracker>>,
    telemetry: Option<Telemetry>,
    mirror: Arc<Mutex<TrackerMirror>>, // SYNC: telemetry mirror (see above)
}

impl SharedTracker {
    /// Creates a handle around an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a handle that mirrors alloc/free totals into `telemetry`
    /// on every [`SharedTracker::publish`]/[`SharedTracker::snapshot`].
    pub fn with_telemetry(telemetry: Telemetry) -> Self {
        SharedTracker {
            tracker: Arc::default(),
            telemetry: Some(telemetry),
            mirror: Arc::default(),
        }
    }

    /// Records an allocation. See [`MemoryTracker::alloc`].
    pub fn alloc(&self, category: DataCategory, bytes: u64) {
        self.tracker.lock().alloc(category, bytes);
        if self.telemetry.is_some() {
            *slot(&mut self.mirror.lock().allocated, category) += bytes;
        }
    }

    /// Records a release. See [`MemoryTracker::free`].
    pub fn free(&self, category: DataCategory, bytes: u64) {
        self.tracker.lock().free(category, bytes);
        if self.telemetry.is_some() {
            *slot(&mut self.mirror.lock().freed, category) += bytes;
        }
    }

    /// Pushes the accumulated totals into the attached telemetry (a
    /// no-op without one): counter deltas since the last publish plus
    /// the current live/peak gauges.
    pub fn publish(&self) {
        let Some(t) = &self.telemetry else {
            return;
        };
        let deltas: Vec<(DataCategory, u64, u64)> = {
            let mut m = self.mirror.lock();
            DataCategory::ALL
                .into_iter()
                .map(|c| {
                    let total_alloc = slot_ref(&m.allocated, c);
                    let total_free = slot_ref(&m.freed, c);
                    let alloc = total_alloc - slot_ref(&m.published_alloc, c);
                    let free = total_free - slot_ref(&m.published_free, c);
                    *slot(&mut m.published_alloc, c) = total_alloc;
                    *slot(&mut m.published_free, c) = total_free;
                    (c, alloc, free)
                })
                .collect()
        };
        let snap = self.tracker.lock().clone();
        for (category, alloc, free) in deltas {
            if alloc > 0 {
                t.incr_with(
                    keys::MEMSIM_ALLOC_BYTES_TOTAL,
                    category_labels(category),
                    alloc,
                );
            }
            if free > 0 {
                t.incr_with(
                    keys::MEMSIM_FREE_BYTES_TOTAL,
                    category_labels(category),
                    free,
                );
            }
            t.gauge_with(
                keys::MEMSIM_LIVE_BYTES,
                category_labels(category),
                snap.live(category) as f64,
            );
        }
        t.gauge(keys::MEMSIM_PEAK_TOTAL_BYTES, snap.peak_total() as f64);
    }

    /// Snapshot of the current tracker state; also publishes the
    /// telemetry mirror (snapshots are the natural aggregation points).
    pub fn snapshot(&self) -> MemoryTracker {
        self.publish();
        self.tracker.lock().clone()
    }

    /// Resets everything to zero (and the publish marks with it).
    pub fn reset(&self) {
        self.tracker.lock().reset();
        *self.mirror.lock() = TrackerMirror::default();
    }
}

fn category_labels(category: DataCategory) -> eta_telemetry::Labels {
    eta_telemetry::labels!(category = category)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_total_tracks_concurrent_maximum() {
        let mut t = MemoryTracker::new();
        t.alloc(DataCategory::Weights, 10);
        t.alloc(DataCategory::Activations, 20);
        t.free(DataCategory::Weights, 10);
        t.alloc(DataCategory::Intermediates, 5);
        // peak was 30 (10+20), now live is 25
        assert_eq!(t.peak_total(), 30);
        assert_eq!(t.live_total(), 25);
    }

    #[test]
    fn per_category_peaks_are_independent() {
        let mut t = MemoryTracker::new();
        t.alloc(DataCategory::Weights, 10);
        t.free(DataCategory::Weights, 10);
        t.alloc(DataCategory::Activations, 7);
        assert_eq!(t.peak(DataCategory::Weights), 10);
        assert_eq!(t.peak(DataCategory::Activations), 7);
        assert_eq!(t.peak(DataCategory::Intermediates), 0);
    }

    #[test]
    fn release_all_keeps_peaks() {
        let mut t = MemoryTracker::new();
        t.alloc(DataCategory::Intermediates, 100);
        t.release_all();
        assert_eq!(t.live_total(), 0);
        assert_eq!(t.peak_total(), 100);
        t.reset();
        assert_eq!(t.peak_total(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "freeing")]
    fn over_free_panics_in_debug() {
        let mut t = MemoryTracker::new();
        t.free(DataCategory::Weights, 1);
    }

    #[test]
    fn shared_tracker_aggregates_across_clones() {
        let s = SharedTracker::new();
        let s2 = s.clone();
        s.alloc(DataCategory::Weights, 5);
        s2.alloc(DataCategory::Weights, 5);
        assert_eq!(s.snapshot().live(DataCategory::Weights), 10);
    }

    #[test]
    fn shared_tracker_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedTracker>();
    }
}
