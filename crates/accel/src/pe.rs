//! The Omni-PE (paper Sec. V-B, Fig. 12): one multiplier, one pipelined
//! adder, four MUXes and a partial-output queue, dynamically configured
//! to execute every operation class LSTM training needs.
//!
//! | Mode | Multiplier | Adder | Output path |
//! |------|-----------|-------|-------------|
//! | matrix-vector (`·`) | active | streaming accumulator | partial-output queue |
//! | element-wise `⊙` / outer `⊗` | active | bypassed | direct |
//! | element-wise `+` | bypassed | active | partial-output queue |
//!
//! The functional methods actually compute (used by the channel-level
//! verification tests); the cycle counts come from the streaming model:
//! one operand pair per cycle, plus pipeline fill and the accumulator
//! drain measured by the cycle-accurate
//! [`crate::accumulator::AccumulatorSim`].

use crate::accumulator::AccumulatorSim;
use serde::{Deserialize, Serialize};

/// Multiplier pipeline latency, cycles (Xilinx FP32 multiplier at
/// 500 MHz).
pub(crate) const MULT_LATENCY: u32 = 4;

/// Operation/cycle counters from one PE-level execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub(crate) struct PeStats {
    /// Cycles occupied.
    pub(crate) cycles: u64,
    /// Multiplier operations issued.
    pub(crate) mult_ops: u64,
    /// Adder operations issued.
    pub(crate) add_ops: u64,
}

/// One Omni-PE.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct OmniPe {
    accumulator: AccumulatorSim,
}

impl OmniPe {
    /// Inner product of two equal-length streams (MatVec mode):
    /// multiplier feeds the streaming accumulator.
    ///
    /// # Panics
    ///
    /// Panics if the operand lengths differ.
    pub(crate) fn mac_stream(&self, a: &[f32], b: &[f32]) -> (f32, PeStats) {
        assert_eq!(a.len(), b.len(), "mac_stream operand length mismatch");
        let products: Vec<f32> = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).collect();
        let run = self.accumulator.run(&products);
        let stats = PeStats {
            cycles: MULT_LATENCY as u64 + run.cycles,
            mult_ops: a.len() as u64,
            add_ops: a.len().saturating_sub(1) as u64,
        };
        (run.sum, stats)
    }

    /// Element-wise product (EwMul mode): adder bypassed, one result per
    /// cycle after pipeline fill.
    ///
    /// # Panics
    ///
    /// Panics if the operand lengths differ.
    pub(crate) fn ew_mul(&self, a: &[f32], b: &[f32]) -> (Vec<f32>, PeStats) {
        assert_eq!(a.len(), b.len(), "ew_mul operand length mismatch");
        let out: Vec<f32> = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).collect();
        let stats = PeStats {
            cycles: MULT_LATENCY as u64 + a.len() as u64,
            mult_ops: a.len() as u64,
            add_ops: 0,
        };
        (out, stats)
    }

    /// Element-wise sum (EwAdd mode): multiplier bypassed.
    ///
    /// # Panics
    ///
    /// Panics if the operand lengths differ.
    pub(crate) fn ew_add(&self, a: &[f32], b: &[f32]) -> (Vec<f32>, PeStats) {
        assert_eq!(a.len(), b.len(), "ew_add operand length mismatch");
        let out: Vec<f32> = a.iter().zip(b.iter()).map(|(&x, &y)| x + y).collect();
        let stats = PeStats {
            cycles: self.accumulator.add_latency as u64 + a.len() as u64,
            mult_ops: 0,
            add_ops: a.len() as u64,
        };
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_stream_computes_dot_product() {
        let pe = OmniPe::default();
        let (sum, stats) = pe.mac_stream(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]);
        assert_eq!(sum, 32.0);
        assert_eq!(stats.mult_ops, 3);
        assert_eq!(stats.add_ops, 2);
        assert!(stats.cycles > 3);
    }

    #[test]
    fn ew_modes_compute_elementwise() {
        let pe = OmniPe::default();
        let (m, sm) = pe.ew_mul(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(m, vec![3.0, 8.0]);
        assert_eq!(sm.add_ops, 0);
        let (a, sa) = pe.ew_add(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(a, vec![4.0, 6.0]);
        assert_eq!(sa.mult_ops, 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_operands_panic() {
        let pe = OmniPe::default();
        let _ = pe.mac_stream(&[1.0], &[1.0, 2.0]);
    }
}
