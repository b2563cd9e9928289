//! The channel architecture (paper Sec. V-D, Fig. 13b): 32 Omni-PEs
//! under one channel controller with a broadcast queue and an
//! activation module holding a single sigmoid and a single tanh
//! lookup-table unit for the whole channel.

use crate::pe::{OmniPe, PeStats};
use eta_tensor::activation::{ActivationLut, LutKind};
use eta_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// PEs per channel (paper: 32).
pub const PES_PER_CHANNEL: usize = 32;

/// Entries in each activation lookup table.
pub const ACT_LUT_ENTRIES: usize = 2048;

/// Input range covered by the activation lookup tables.
pub const ACT_LUT_RANGE: f32 = 8.0;

/// Cycle/op counters from one channel-level kernel execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ChannelStats {
    /// Makespan cycles of the kernel on this channel.
    pub cycles: u64,
    /// Busy PE-cycles (for utilization accounting).
    pub busy_pe_cycles: u64,
    /// Multiplier ops across all PEs.
    pub mult_ops: u64,
    /// Adder ops across all PEs.
    pub add_ops: u64,
    /// Activation-unit evaluations.
    pub act_ops: u64,
    /// Words pushed through the broadcast queue.
    pub broadcast_words: u64,
}

impl ChannelStats {
    /// Sequentially composes another kernel's stats after this one.
    pub fn merge(&mut self, other: &ChannelStats) {
        self.cycles += other.cycles;
        self.busy_pe_cycles += other.busy_pe_cycles;
        self.mult_ops += other.mult_ops;
        self.add_ops += other.add_ops;
        self.act_ops += other.act_ops;
        self.broadcast_words += other.broadcast_words;
    }
}

/// One channel of 32 Omni-PEs.
#[derive(Debug, Clone)]
pub struct Channel {
    pe: OmniPe,
    sigmoid: ActivationLut,
    tanh: ActivationLut,
}

impl Default for Channel {
    fn default() -> Self {
        Channel {
            pe: OmniPe::default(),
            sigmoid: ActivationLut::new(LutKind::Sigmoid, ACT_LUT_RANGE, ACT_LUT_ENTRIES),
            tanh: ActivationLut::new(LutKind::Tanh, ACT_LUT_RANGE, ACT_LUT_ENTRIES),
        }
    }
}

impl Channel {
    /// Creates a channel with default LUT precision and PE latencies.
    pub fn new() -> Self {
        Self::default()
    }

    /// Matrix-vector product `w · x` with output rows distributed across
    /// the 32 PEs in waves.
    ///
    /// # Panics
    ///
    /// Panics if `w.cols() != x.len()`.
    pub fn matvec(&self, w: &Matrix, x: &[f32]) -> (Vec<f32>, ChannelStats) {
        assert_eq!(w.cols(), x.len(), "matvec dimension mismatch");
        let rows = w.rows();
        let mut out = Vec::with_capacity(rows);
        let mut per_pe = PeStats::default();
        for r in 0..rows {
            let (v, s) = self.pe.mac_stream(w.row(r), x);
            out.push(v);
            if r == 0 {
                per_pe = s;
            }
        }
        let waves = rows.div_ceil(PES_PER_CHANNEL);
        let cycles = waves as u64 * per_pe.cycles.max(1);
        let stats = ChannelStats {
            cycles,
            busy_pe_cycles: rows as u64 * per_pe.cycles.max(1),
            mult_ops: (rows * x.len()) as u64,
            add_ops: (rows * x.len().saturating_sub(1)) as u64,
            act_ops: 0,
            // The x vector is broadcast once per wave to all PEs.
            broadcast_words: (waves * x.len()) as u64,
        };
        (out, stats)
    }

    /// Element-wise product of two vectors spread across the PEs.
    ///
    /// # Panics
    ///
    /// Panics if the operand lengths differ.
    pub fn ew_mul(&self, a: &[f32], b: &[f32]) -> (Vec<f32>, ChannelStats) {
        let (out, pe_stats) = self.pe.ew_mul(a, b);
        let stats = Self::ew_stats(a.len(), pe_stats.mult_ops, 0);
        (out, stats)
    }

    /// Element-wise sum of two vectors spread across the PEs.
    ///
    /// # Panics
    ///
    /// Panics if the operand lengths differ.
    pub fn ew_add(&self, a: &[f32], b: &[f32]) -> (Vec<f32>, ChannelStats) {
        let (out, pe_stats) = self.pe.ew_add(a, b);
        let stats = Self::ew_stats(a.len(), 0, pe_stats.add_ops);
        (out, stats)
    }

    fn ew_stats(n: usize, mult_ops: u64, add_ops: u64) -> ChannelStats {
        let lanes = PES_PER_CHANNEL as u64;
        let cycles = (n as u64).div_ceil(lanes).max(1) + 4;
        ChannelStats {
            cycles,
            busy_pe_cycles: n as u64,
            mult_ops,
            add_ops,
            act_ops: 0,
            broadcast_words: 0,
        }
    }

    /// Runs the channel's single sigmoid unit over a vector (one
    /// evaluation per cycle — the activation module is deliberately
    /// narrow because activation work is small relative to MatMul).
    pub fn sigmoid(&self, v: &[f32]) -> (Vec<f32>, ChannelStats) {
        let out = v.iter().map(|&x| self.sigmoid.eval(x)).collect();
        (out, Self::act_stats(v.len()))
    }

    /// Runs the channel's single tanh unit over a vector.
    pub fn tanh(&self, v: &[f32]) -> (Vec<f32>, ChannelStats) {
        let out = v.iter().map(|&x| self.tanh.eval(x)).collect();
        (out, Self::act_stats(v.len()))
    }

    fn act_stats(n: usize) -> ChannelStats {
        ChannelStats {
            cycles: n as u64,
            busy_pe_cycles: 0,
            mult_ops: 0,
            add_ops: 0,
            act_ops: n as u64,
            broadcast_words: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eta_tensor::init;

    #[test]
    fn matvec_matches_reference() {
        let ch = Channel::new();
        let w = init::uniform(48, 16, -1.0, 1.0, 3);
        let x: Vec<f32> = (0..16).map(|i| (i as f32 - 8.0) / 4.0).collect();
        let (out, stats) = ch.matvec(&w, &x);
        let xm = Matrix::from_vec(16, 1, x.clone()).unwrap();
        let reference = w.matmul_nn(&xm).unwrap();
        for (o, r) in out.iter().zip(reference.as_slice().iter()) {
            assert!((o - r).abs() < 1e-4, "{o} vs {r}");
        }
        // 48 rows over 32 PEs = 2 waves.
        assert_eq!(stats.mult_ops, 48 * 16);
        assert!(stats.cycles >= 2 * 16);
    }

    #[test]
    fn matvec_wave_count_scales_cycles() {
        let ch = Channel::new();
        let x = vec![1.0f32; 64];
        let w32 = Matrix::filled(32, 64, 0.5);
        let w64 = Matrix::filled(64, 64, 0.5);
        let (_, s32) = ch.matvec(&w32, &x);
        let (_, s64) = ch.matvec(&w64, &x);
        assert_eq!(s64.cycles, 2 * s32.cycles, "two waves take twice as long");
    }

    #[test]
    fn ew_ops_distribute_over_pes() {
        let ch = Channel::new();
        let a = vec![2.0f32; 320];
        let b = vec![3.0f32; 320];
        let (m, sm) = ch.ew_mul(&a, &b);
        assert!(m.iter().all(|&v| v == 6.0));
        // 320 elements over 32 PEs = 10 cycles + pipeline fill.
        assert_eq!(sm.cycles, 14);
        let (s, ss) = ch.ew_add(&a, &b);
        assert!(s.iter().all(|&v| v == 5.0));
        assert_eq!(ss.add_ops, 320);
    }

    #[test]
    fn activation_units_are_serial_and_accurate() {
        let ch = Channel::new();
        let v: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) / 10.0).collect();
        let (sig, stats) = ch.sigmoid(&v);
        assert_eq!(stats.cycles, 100, "one evaluation per cycle");
        for (&x, &y) in v.iter().zip(sig.iter()) {
            assert!((y - eta_tensor::activation::sigmoid(x)).abs() < 2e-3);
        }
        let (th, _) = ch.tanh(&v);
        for (&x, &y) in v.iter().zip(th.iter()) {
            assert!((y - x.tanh()).abs() < 2e-3);
        }
    }

    #[test]
    fn stats_merge_composes_sequentially() {
        let mut a = ChannelStats {
            cycles: 5,
            busy_pe_cycles: 100,
            mult_ops: 10,
            add_ops: 5,
            act_ops: 1,
            broadcast_words: 7,
        };
        a.merge(&a.clone());
        assert_eq!(a.cycles, 10);
        assert_eq!(a.broadcast_words, 14);
    }
}
