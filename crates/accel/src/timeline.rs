//! Event-level execution timeline of dependent cell kernels — the
//! detailed view behind the paper's Fig. 10: under a static allocation
//! the EW group idles while MatMul runs (and vice versa), because the
//! cell's kernels are data-dependent and the unrolled cells are
//! sequential; the R2A swing design keeps every PE on whichever kernel
//! is ready.

use serde::{Deserialize, Serialize};

/// Resource allocation policy for the trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Alloc {
    /// Fixed MatMul/EW split; the off-duty group idles.
    Static {
        /// Fraction of PEs in the EW group.
        ew_fraction: f64,
    },
    /// R2A dynamic allocation with swing PEs.
    Dynamic,
}

/// Operation counts of one cell's two dependent kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellKernels {
    /// FW/BP MatMul MACs.
    pub mm_ops: u64,
    /// Element-wise operations.
    pub ew_ops: u64,
}

/// Which kernel a segment ran.
///
/// Formats as `MatMul` / `EW` (honoring padding) and compares equal to
/// those strings, so display code and tests can keep treating it as a
/// label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SegmentKind {
    /// The MatMul kernel group.
    MatMul,
    /// The element-wise kernel group.
    Ew,
}

impl SegmentKind {
    /// The paper's label for this kernel group.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            SegmentKind::MatMul => "MatMul",
            SegmentKind::Ew => "EW",
        }
    }
}

impl std::fmt::Display for SegmentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.as_str())
    }
}

impl PartialEq<&str> for SegmentKind {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<SegmentKind> for &str {
    fn eq(&self, other: &SegmentKind) -> bool {
        other == self
    }
}

/// One contiguous interval of the trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Start cycle.
    pub(crate) start: f64,
    /// End cycle.
    pub(crate) end: f64,
    /// Which kernel ran.
    pub kind: SegmentKind,
    /// Fraction of PEs busy during the interval.
    pub busy_fraction: f64,
}

impl Segment {
    /// Interval length in cycles.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A full trace over a cell sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// Chronological segments.
    pub segments: Vec<Segment>,
    /// Total cycles.
    pub makespan: f64,
    /// Overall PE utilization in `[0, 1]`.
    pub utilization: f64,
}

/// Relative swing-switch overhead per kernel under dynamic allocation
/// (matches [`crate::scheduler::SWING_OVERHEAD`]).
const DYN_OVERHEAD: f64 = crate::scheduler::SWING_OVERHEAD;

/// Traces `cells` executing in sequence (context dependency) on a
/// machine with `ops_per_cycle` total PE throughput.
///
/// # Panics
///
/// Panics if `ops_per_cycle <= 0` or a static `ew_fraction` is outside
/// `(0, 1)`.
pub fn trace(cells: &[CellKernels], ops_per_cycle: f64, alloc: Alloc) -> Timeline {
    assert!(ops_per_cycle > 0.0, "machine must have PE throughput");
    if let Alloc::Static { ew_fraction } = alloc {
        assert!(
            ew_fraction > 0.0 && ew_fraction < 1.0,
            "static split must leave both groups capacity"
        );
    }
    let mut segments = Vec::with_capacity(cells.len() * 2);
    let mut now = 0.0f64;
    let mut busy_ops = 0.0f64;
    for cell in cells {
        match alloc {
            Alloc::Static { ew_fraction } => {
                let mm_cap = ops_per_cycle * (1.0 - ew_fraction);
                let ew_cap = ops_per_cycle * ew_fraction;
                let mm_dur = cell.mm_ops as f64 / mm_cap;
                segments.push(Segment {
                    start: now,
                    end: now + mm_dur,
                    kind: SegmentKind::MatMul,
                    busy_fraction: 1.0 - ew_fraction,
                });
                now += mm_dur;
                if cell.ew_ops > 0 {
                    let ew_dur = cell.ew_ops as f64 / ew_cap;
                    segments.push(Segment {
                        start: now,
                        end: now + ew_dur,
                        kind: SegmentKind::Ew,
                        busy_fraction: ew_fraction,
                    });
                    now += ew_dur;
                }
            }
            Alloc::Dynamic => {
                let mm_dur = cell.mm_ops as f64 / ops_per_cycle * (1.0 + DYN_OVERHEAD);
                segments.push(Segment {
                    start: now,
                    end: now + mm_dur,
                    kind: SegmentKind::MatMul,
                    busy_fraction: 1.0 / (1.0 + DYN_OVERHEAD),
                });
                now += mm_dur;
                if cell.ew_ops > 0 {
                    let ew_dur = cell.ew_ops as f64 / ops_per_cycle * (1.0 + DYN_OVERHEAD);
                    segments.push(Segment {
                        start: now,
                        end: now + ew_dur,
                        kind: SegmentKind::Ew,
                        busy_fraction: 1.0 / (1.0 + DYN_OVERHEAD),
                    });
                    now += ew_dur;
                }
            }
        }
        busy_ops += (cell.mm_ops + cell.ew_ops) as f64;
    }
    Timeline {
        segments,
        makespan: now,
        utilization: if now > 0.0 {
            (busy_ops / (now * ops_per_cycle)).min(1.0)
        } else {
            0.0
        },
    }
}

/// [`trace`] plus metric recording.
///
/// Every segment's busy fraction is observed into the
/// `accel_pe_busy_fraction{kind}` histogram (buckets
/// `crate::arch::OCCUPANCY_BUCKETS`), and under [`Alloc::Dynamic`]
/// each kernel-kind boundary — the moment the swing PEs hand off between
/// the MatMul and EW groups — increments `accel_swing_handoffs_total`.
pub fn trace_instrumented(
    cells: &[CellKernels],
    ops_per_cycle: f64,
    alloc: Alloc,
    telemetry: Option<&eta_telemetry::Telemetry>,
) -> Timeline {
    let tl = trace(cells, ops_per_cycle, alloc);
    let Some(t) = telemetry else {
        return tl;
    };
    for seg in &tl.segments {
        t.observe_in(
            eta_telemetry::keys::ACCEL_PE_BUSY_FRACTION,
            eta_telemetry::labels!(kind = seg.kind),
            crate::arch::OCCUPANCY_BUCKETS,
            seg.busy_fraction,
        );
    }
    if alloc == Alloc::Dynamic {
        let handoffs = tl
            .segments
            .windows(2)
            .filter(|w| matches!(w, [a, b] if a.kind != b.kind))
            .count() as u64;
        t.incr(eta_telemetry::keys::ACCEL_SWING_HANDOFFS_TOTAL, handoffs);
    }
    t.gauge(
        eta_telemetry::keys::ACCEL_TIMELINE_UTILIZATION,
        tl.utilization,
    );
    tl
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(n: usize) -> Vec<CellKernels> {
        vec![
            CellKernels {
                mm_ops: 96_000,
                ew_ops: 4_000,
            };
            n
        ]
    }

    #[test]
    fn segments_are_contiguous_and_ordered() {
        let t = trace(&cells(4), 1000.0, Alloc::Dynamic);
        assert_eq!(t.segments.len(), 8);
        for w in t.segments.windows(2) {
            assert!((w[0].end - w[1].start).abs() < 1e-9);
        }
        assert!((t.segments.last().unwrap().end - t.makespan).abs() < 1e-9);
    }

    #[test]
    fn dynamic_utilization_near_one() {
        let t = trace(&cells(10), 1000.0, Alloc::Dynamic);
        assert!(
            t.utilization > 0.95,
            "dynamic utilization {}",
            t.utilization
        );
    }

    #[test]
    fn static_idles_the_off_duty_group() {
        let t = trace(&cells(10), 1000.0, Alloc::Static { ew_fraction: 0.4 });
        // MatMul segments leave 40 % of the PEs idle.
        let mm = t.segments.iter().find(|s| s.kind == "MatMul").unwrap();
        assert!((mm.busy_fraction - 0.6).abs() < 1e-9);
        // MatMul dominates the ops, so utilization ≈ 0.6.
        assert!(
            (0.55..0.70).contains(&t.utilization),
            "static utilization {}",
            t.utilization
        );
    }

    #[test]
    fn timeline_round_trips_through_serde() {
        let t = trace(&cells(3), 1000.0, Alloc::Static { ew_fraction: 0.4 });
        let text = serde_json::to_string(&t).expect("serialize timeline");
        let back: Timeline = serde_json::from_str(&text).expect("deserialize timeline");
        assert_eq!(back, t);
        assert_eq!(back.segments[0].kind, SegmentKind::MatMul);
        assert_eq!(back.segments[1].kind, "EW");
    }

    #[test]
    fn dynamic_beats_static_makespan() {
        let d = trace(&cells(10), 1000.0, Alloc::Dynamic);
        let s = trace(&cells(10), 1000.0, Alloc::Static { ew_fraction: 0.4 });
        assert!(
            s.makespan > d.makespan * 1.3,
            "static {} vs dynamic {}",
            s.makespan,
            d.makespan
        );
    }

    #[test]
    fn timeline_agrees_with_aggregate_scheduler() {
        // The aggregate scheduler's static makespan (max of the two
        // groups) lower-bounds the dependency-serialized timeline, and
        // the dynamic paths must agree exactly.
        use crate::scheduler::{simulate_dynamic, Workload};
        let cs = cells(6);
        let total = Workload {
            matmul_macs: cs.iter().map(|c| c.mm_ops).sum(),
            ew_ops: cs.iter().map(|c| c.ew_ops).sum(),
            act_ops: 0,
        };
        let d_tl = trace(&cs, 1000.0, Alloc::Dynamic);
        let d_agg = simulate_dynamic(&total, 1000.0);
        assert!((d_tl.makespan - d_agg.cycles).abs() / d_agg.cycles < 1e-9);
    }

    #[test]
    fn empty_trace_is_zeroed() {
        let t = trace(&[], 100.0, Alloc::Dynamic);
        assert_eq!(t.makespan, 0.0);
        assert_eq!(t.utilization, 0.0);
        assert!(t.segments.is_empty());
    }

    #[test]
    #[should_panic(expected = "both groups")]
    fn degenerate_static_split_rejected() {
        let _ = trace(&cells(1), 100.0, Alloc::Static { ew_fraction: 1.0 });
    }
}
