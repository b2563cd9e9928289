//! DRAM data-movement accounting.

use crate::DataCategory;
use eta_telemetry::{keys, Telemetry};
#[allow(
    clippy::disallowed_types,
    reason = "SYNC: telemetry plumbing only, see the handle below"
)]
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Counts bytes moved between on-chip memory and DRAM, split by
/// [`DataCategory`] and direction.
///
/// The paper's Fig. 4 reports "data movement" — total GB transferred to
/// and from DRAM per training iteration — and Fig. 17 reports the
/// reduction the memory-saving optimizations achieve per category. The
/// training framework's simulated-DRAM boundary calls
/// [`TrafficCounter::read`]/[`TrafficCounter::write`] whenever a tensor
/// crosses it.
///
/// # Example
///
/// ```
/// use eta_memsim::{DataCategory, TrafficCounter};
///
/// let mut t = TrafficCounter::new();
/// t.write(DataCategory::Intermediates, 100);
/// t.read(DataCategory::Intermediates, 250);
/// assert_eq!(t.total(DataCategory::Intermediates), 350);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficCounter {
    reads: [u64; 3],
    writes: [u64; 3],
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

impl TrafficCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` read from DRAM.
    pub fn read(&mut self, category: DataCategory, bytes: u64) {
        *slot(&mut self.reads, category) += bytes;
    }

    /// Records `bytes` written to DRAM.
    pub fn write(&mut self, category: DataCategory, bytes: u64) {
        *slot(&mut self.writes, category) += bytes;
    }

    /// Bytes read from DRAM for one category.
    pub(crate) fn reads(&self, category: DataCategory) -> u64 {
        slot_ref(&self.reads, category)
    }

    /// Bytes written to DRAM for one category.
    pub(crate) fn writes(&self, category: DataCategory) -> u64 {
        slot_ref(&self.writes, category)
    }

    /// Reads + writes for one category.
    pub fn total(&self, category: DataCategory) -> u64 {
        self.reads(category) + self.writes(category)
    }

    /// Reads + writes across all categories.
    #[cfg(test)]
    fn grand_total(&self) -> u64 {
        self.reads.iter().sum::<u64>() + self.writes.iter().sum::<u64>()
    }
}

/// Read/write byte totals already published to telemetry, so repeated
/// publishes emit counter deltas.
#[derive(Debug, Default)]
struct TrafficMirror {
    published_reads: [u64; 3],
    published_writes: [u64; 3],
}

/// Thread-safe shared handle to a [`TrafficCounter`].
///
/// With a [`Telemetry`] handle attached ([`SharedTraffic::with_telemetry`])
/// transfer totals are mirrored as the `dram_read_bytes_total{category}` /
/// `dram_write_bytes_total{category}` counters. The hot path only
/// accumulates into the [`TrafficCounter`]; registry writes happen at
/// `SharedTraffic::publish` — which [`SharedTraffic::snapshot`] calls.
#[derive(Debug, Clone, Default)]
#[allow(
    clippy::disallowed_types,
    reason = "SYNC: the locks guard accounting that feeds dashboards, never numeric state"
)]
pub struct SharedTraffic {
    // SYNC: telemetry plumbing only — byte counters feed dashboards,
    // never numeric state, so lock acquisition order is unobservable
    // to the training math.
    counter: Arc<Mutex<TrafficCounter>>,
    telemetry: Option<Telemetry>,
    mirror: Arc<Mutex<TrafficMirror>>, // SYNC: telemetry mirror (see above)
}

impl SharedTraffic {
    /// Creates a handle that mirrors transfer totals into `telemetry`
    /// on every `SharedTraffic::publish`/[`SharedTraffic::snapshot`].
    pub fn with_telemetry(telemetry: Telemetry) -> Self {
        SharedTraffic {
            counter: Arc::default(),
            telemetry: Some(telemetry),
            mirror: Arc::default(),
        }
    }

    /// Records a DRAM read. See [`TrafficCounter::read`].
    pub fn read(&self, category: DataCategory, bytes: u64) {
        self.counter.lock().read(category, bytes);
    }

    /// Records a DRAM write. See [`TrafficCounter::write`].
    pub fn write(&self, category: DataCategory, bytes: u64) {
        self.counter.lock().write(category, bytes);
    }

    /// Pushes the accumulated totals into the attached telemetry as
    /// counter deltas since the last publish (a no-op without one).
    pub(crate) fn publish(&self) {
        let Some(t) = &self.telemetry else {
            return;
        };
        let snap = self.counter.lock().clone();
        let mut m = self.mirror.lock();
        for category in DataCategory::ALL {
            let reads = snap.reads(category) - slot_ref(&m.published_reads, category);
            let writes = snap.writes(category) - slot_ref(&m.published_writes, category);
            *slot(&mut m.published_reads, category) = snap.reads(category);
            *slot(&mut m.published_writes, category) = snap.writes(category);
            if reads > 0 {
                t.incr_with(
                    keys::DRAM_READ_BYTES_TOTAL,
                    eta_telemetry::labels!(category = category),
                    reads,
                );
            }
            if writes > 0 {
                t.incr_with(
                    keys::DRAM_WRITE_BYTES_TOTAL,
                    eta_telemetry::labels!(category = category),
                    writes,
                );
            }
        }
    }

    /// Snapshot of the current counters; also publishes the telemetry
    /// mirror (snapshots are the natural aggregation points).
    pub fn snapshot(&self) -> TrafficCounter {
        self.publish();
        self.counter.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_reads_and_writes() {
        let mut t = TrafficCounter::new();
        t.read(DataCategory::Weights, 10);
        t.write(DataCategory::Weights, 3);
        t.read(DataCategory::Activations, 5);
        assert_eq!(t.total(DataCategory::Weights), 13);
        assert_eq!(t.grand_total(), 18);
    }

    #[test]
    fn shared_traffic_aggregates() {
        let s = SharedTraffic::default();
        s.clone().write(DataCategory::Activations, 6);
        s.read(DataCategory::Activations, 1);
        assert_eq!(s.snapshot().total(DataCategory::Activations), 7);
    }
}
