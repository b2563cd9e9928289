//! The Runtime Resource Allocation (R2A) scheduler and its static
//! competitor (paper Sec. V-C, Fig. 10).
//!
//! Processing elements execute either MatMul or EW work. A **static**
//! allocation fixes the split at design time; when the phase's actual
//! operation mix differs — which the memory-saving optimizations
//! guarantee, since MS1 moves EW work into the forward pass and MS2/MS1
//! shrink BP MatMul work at runtime — one group finishes early and
//! idles (the paper's Fig. 10 "idle time of EW"). The **R2A** scheduler
//! instead reassigns idle PEs to whichever operation has ready inputs
//! (*swing* PEs/channels), approaching full utilization at the cost of
//! a small mode-switch overhead.
//!
//! Static designs size the EW group for the *peak* EW demand of the
//! fused cell pipeline (the inference-accelerator practice, cf. ESE),
//! not the average — `STATIC_EW_FRACTION`.

use serde::{Deserialize, Serialize};

/// Fraction of PEs a static design dedicates to EW/auxiliary work,
/// sized for the reordered forward pipeline's burst EW demand
/// (calibrated against the paper's TREC10-based static distribution).
pub(crate) const STATIC_EW_FRACTION: f64 = 0.40;

/// Relative makespan overhead of R2A's swing-mode switches.
pub(crate) const SWING_OVERHEAD: f64 = 0.03;

/// Operation counts of one execution phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Workload {
    /// Multiply-accumulate operations (MatMul, outer products).
    pub(crate) matmul_macs: u64,
    /// Element-wise operations.
    pub(crate) ew_ops: u64,
    /// Activation-function evaluations.
    pub(crate) act_ops: u64,
}

impl Workload {
    /// Total PE operations (MatMul + EW; activations run on the
    /// dedicated activation modules).
    pub(crate) fn pe_ops(&self) -> u64 {
        self.matmul_macs + self.ew_ops
    }
}

/// Timing result of scheduling one phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Makespan in cycles.
    pub cycles: f64,
    /// PE-cycles actually doing work.
    pub(crate) busy_pe_cycles: f64,
    /// PE-cycles available (`cycles × PE throughput`).
    pub(crate) capacity_pe_cycles: f64,
}

impl PhaseTiming {
    /// PE utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.capacity_pe_cycles == 0.0 {
            0.0
        } else {
            (self.busy_pe_cycles / self.capacity_pe_cycles).min(1.0)
        }
    }

    /// Sequential composition of two phases.
    pub(crate) fn then(&self, other: &PhaseTiming) -> PhaseTiming {
        PhaseTiming {
            cycles: self.cycles + other.cycles,
            busy_pe_cycles: self.busy_pe_cycles + other.busy_pe_cycles,
            capacity_pe_cycles: self.capacity_pe_cycles + other.capacity_pe_cycles,
        }
    }
}

/// Schedules one phase under a static MatMul/EW partition.
///
/// `ops_per_cycle` is the machine's total PE throughput (operations per
/// cycle). The makespan is set by the slower group; the faster group
/// idles.
pub fn simulate_static(w: &Workload, ops_per_cycle: f64, ew_fraction: f64) -> PhaseTiming {
    assert!(
        (0.0..1.0).contains(&ew_fraction),
        "EW fraction must leave MatMul capacity"
    );
    let mm_cap = ops_per_cycle * (1.0 - ew_fraction);
    let ew_cap = ops_per_cycle * ew_fraction;
    let mm_cycles = w.matmul_macs as f64 / mm_cap.max(1e-9);
    let ew_cycles = if w.ew_ops == 0 {
        0.0
    } else {
        w.ew_ops as f64 / ew_cap.max(1e-9)
    };
    let cycles = mm_cycles.max(ew_cycles);
    PhaseTiming {
        cycles,
        busy_pe_cycles: w.pe_ops() as f64,
        capacity_pe_cycles: cycles * ops_per_cycle,
    }
}

/// Schedules one phase under R2A dynamic allocation with swing
/// PEs/channels: all PEs contribute to whichever operation is ready,
/// with `SWING_OVERHEAD` lost to mode switches.
pub fn simulate_dynamic(w: &Workload, ops_per_cycle: f64) -> PhaseTiming {
    let cycles = w.pe_ops() as f64 / ops_per_cycle.max(1e-9) * (1.0 + SWING_OVERHEAD);
    PhaseTiming {
        cycles,
        busy_pe_cycles: w.pe_ops() as f64,
        capacity_pe_cycles: cycles * ops_per_cycle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balanced() -> Workload {
        Workload {
            matmul_macs: 750_000,
            ew_ops: 250_000,
            act_ops: 10_000,
        }
    }

    fn mm_heavy() -> Workload {
        Workload {
            matmul_macs: 990_000,
            ew_ops: 10_000,
            act_ops: 1_000,
        }
    }

    #[test]
    fn static_matches_dynamic_when_mix_matches_partition() {
        // 75/25 workload on a 75/25 partition: both groups finish
        // together, utilization near 1.
        let s = simulate_static(&balanced(), 1000.0, 0.25);
        assert!((s.utilization() - 1.0).abs() < 1e-9);
        let d = simulate_dynamic(&balanced(), 1000.0);
        assert!(s.cycles < d.cycles * 1.01, "static is optimal when matched");
    }

    #[test]
    fn static_loses_badly_on_mismatched_mix() {
        // MatMul-heavy phase on a 75/25 partition: the EW group idles.
        let s = simulate_static(&mm_heavy(), 1000.0, 0.25);
        let d = simulate_dynamic(&mm_heavy(), 1000.0);
        assert!(
            s.cycles > d.cycles * 1.2,
            "static {s:?} should trail dynamic {d:?} on a mismatched mix"
        );
        assert!(s.utilization() < 0.85);
        assert!(d.utilization() > 0.95);
    }

    #[test]
    fn dynamic_overhead_is_small_and_fixed() {
        let d = simulate_dynamic(&mm_heavy(), 1000.0);
        let ideal = mm_heavy().pe_ops() as f64 / 1000.0;
        assert!((d.cycles / ideal - 1.0 - SWING_OVERHEAD).abs() < 1e-9);
    }

    #[test]
    fn phase_composition_adds() {
        let a = simulate_dynamic(&balanced(), 1000.0);
        let both = a.then(&a);
        assert!((both.cycles - 2.0 * a.cycles).abs() < 1e-9);
        assert!((both.utilization() - a.utilization()).abs() < 1e-9);
    }

    #[test]
    fn zero_ew_phase_has_no_ew_cycles() {
        let w = Workload {
            matmul_macs: 1000,
            ew_ops: 0,
            act_ops: 0,
        };
        let s = simulate_static(&w, 100.0, 0.25);
        // Makespan set entirely by MatMul on 75 % of the PEs.
        assert!((s.cycles - 1000.0 / 75.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "MatMul capacity")]
    fn full_ew_fraction_rejected() {
        let _ = simulate_static(&balanced(), 100.0, 1.0);
    }
}
