//! Executes a complete LSTM cell on the simulated channel datapath:
//! MatVec on the Omni-PEs, gate nonlinearities through the channel's
//! LUT activation module, the state/output element-wise chain, and —
//! under the η-LSTM flow — the reordered BP-EW-P1 products pushed
//! through the DMA compression module.
//!
//! This is the functional-fidelity anchor of the simulator: the
//! workspace integration tests check that this datapath produces the
//! same numbers as the software training framework's
//! `eta_lstm_core::cell::forward` (within LUT quantization tolerance),
//! so the performance/energy numbers the simulator reports correspond
//! to a datapath that demonstrably computes LSTM training correctly.

use crate::channel::{Channel, ChannelStats};
use crate::dma::{DmaModule, WritePacket};
use eta_tensor::Matrix;

/// Weights of one cell as the channel engine consumes them.
#[derive(Debug, Clone)]
pub struct CellWeights {
    /// Input projection `[4H, in]`, gate order `[i|f|c|o]`.
    pub w: Matrix,
    /// Recurrent projection `[4H, H]`.
    pub u: Matrix,
    /// Bias, length `4H`.
    pub b: Vec<f32>,
}

impl CellWeights {
    /// Hidden width `H`.
    pub(crate) fn hidden(&self) -> usize {
        self.u.cols()
    }
}

/// Outputs of one channel-executed cell for one batch sample.
#[derive(Debug, Clone)]
pub struct CellOutputs {
    /// Input gate.
    pub i: Vec<f32>,
    /// Forget gate.
    pub f: Vec<f32>,
    /// Cell gate.
    pub c: Vec<f32>,
    /// Output gate.
    pub o: Vec<f32>,
    /// Cell state.
    pub s: Vec<f32>,
    /// `tanh(s)`.
    pub tanh_s: Vec<f32>,
    /// Context output.
    pub h: Vec<f32>,
}

/// Result of executing a cell, with timing and (optionally) the
/// compressed P1 bytes the DMA emitted.
#[derive(Debug, Clone)]
pub struct CellExecution {
    /// Functional outputs.
    pub outputs: CellOutputs,
    /// Accumulated channel statistics (sequential composition of the
    /// cell's kernels).
    pub stats: ChannelStats,
    /// Compressed BP-EW-P1 bytes written by the DMA (0 without MS1).
    pub p1_compressed_bytes: u64,
}

/// A channel plus DMA executing single-sample LSTM cells.
#[derive(Debug, Clone)]
pub struct ChannelCellEngine {
    channel: Channel,
    dma: DmaModule,
    ms1_threshold: Option<f32>,
}

impl ChannelCellEngine {
    /// Engine for the baseline flow (dense intermediates, no DMA
    /// compression).
    pub fn baseline() -> Self {
        ChannelCellEngine {
            channel: Channel::new(),
            dma: DmaModule::new(0.0),
            ms1_threshold: None,
        }
    }

    /// Engine for the η-LSTM flow: BP-EW-P1 computed in the forward
    /// pass and compressed at `threshold`.
    pub fn with_ms1(threshold: f32) -> Self {
        ChannelCellEngine {
            channel: Channel::new(),
            dma: DmaModule::new(threshold),
            ms1_threshold: Some(threshold),
        }
    }

    /// DMA compression statistics accumulated so far.
    pub fn dma_stats(&self) -> &eta_tensor::CompressionStats {
        self.dma.stats()
    }

    /// Executes one cell for one sample: `x` is the input vector,
    /// `h_prev`/`s_prev` the previous context and state.
    ///
    /// # Panics
    ///
    /// Panics if operand lengths do not match the weight shapes.
    pub fn execute(
        &mut self,
        weights: &CellWeights,
        x: &[f32],
        h_prev: &[f32],
        s_prev: &[f32],
    ) -> CellExecution {
        let h = weights.hidden();
        assert_eq!(x.len(), weights.w.cols(), "input width mismatch");
        assert_eq!(h_prev.len(), h, "context width mismatch");
        assert_eq!(s_prev.len(), h, "state width mismatch");

        let mut stats = ChannelStats::default();

        // FW-MatMul: preact = W·x + U·h_prev + b.
        let (wx, s1) = self.channel.matvec(&weights.w, x);
        stats.merge(&s1);
        let (uh, s2) = self.channel.matvec(&weights.u, h_prev);
        stats.merge(&s2);
        let (wxuh, s3) = self.channel.ew_add(&wx, &uh);
        stats.merge(&s3);
        let (preact, s4) = self.channel.ew_add(&wxuh, &weights.b);
        stats.merge(&s4);
        debug_assert_eq!(preact.len(), 4 * h);

        // Gate activations through the channel's LUT units.
        let (i, si) = self.channel.sigmoid(&preact[..h]);
        let (f, sf) = self.channel.sigmoid(&preact[h..2 * h]);
        let (c, sc) = self.channel.tanh(&preact[2 * h..3 * h]);
        let (o, so) = self.channel.sigmoid(&preact[3 * h..4 * h]);
        for s in [&si, &sf, &sc, &so] {
            stats.merge(s);
        }

        // FW-EW: s = f ⊙ s_prev + i ⊙ c ; h = o ⊙ tanh(s).
        let (fs, s5) = self.channel.ew_mul(&f, s_prev);
        stats.merge(&s5);
        let (ic, s6) = self.channel.ew_mul(&i, &c);
        stats.merge(&s6);
        let (s, s7) = self.channel.ew_add(&fs, &ic);
        stats.merge(&s7);
        let (tanh_s, s8) = self.channel.tanh(&s);
        stats.merge(&s8);
        let (h_out, s9) = self.channel.ew_mul(&o, &tanh_s);
        stats.merge(&s9);

        // MS1 execution reordering: BP-EW-P1 on the channel, compressed
        // by the DMA on its way out.
        let mut p1_compressed_bytes = 0u64;
        if let Some(_threshold) = self.ms1_threshold {
            let one_minus = |v: &[f32]| -> Vec<f32> { v.iter().map(|&a| 1.0 - a).collect() };
            let streams: Vec<Vec<f32>> = {
                let (i1, t1) = self.channel.ew_mul(&i, &one_minus(&i));
                stats.merge(&t1);
                let (p_i, t2) = self.channel.ew_mul(&c, &i1);
                stats.merge(&t2);
                let (f1, t3) = self.channel.ew_mul(&f, &one_minus(&f));
                stats.merge(&t3);
                let (p_f, t4) = self.channel.ew_mul(s_prev, &f1);
                stats.merge(&t4);
                let c2: Vec<f32> = c.iter().map(|&v| 1.0 - v * v).collect();
                let (p_c, t5) = self.channel.ew_mul(&i, &c2);
                stats.merge(&t5);
                let (o1, t6) = self.channel.ew_mul(&o, &one_minus(&o));
                stats.merge(&t6);
                let (p_o, t7) = self.channel.ew_mul(&tanh_s, &o1);
                stats.merge(&t7);
                let th2: Vec<f32> = tanh_s.iter().map(|&v| 1.0 - v * v).collect();
                let (p_h, t8) = self.channel.ew_mul(&o, &th2);
                stats.merge(&t8);
                vec![p_i, p_f, p_c, p_o, p_h, f.clone()]
            };
            for stream in &streams {
                match self.dma.write(stream, true) {
                    WritePacket::Compressed { bytes, .. } => p1_compressed_bytes += bytes,
                    WritePacket::Dense { bytes } => p1_compressed_bytes += bytes,
                }
            }
        }

        CellExecution {
            outputs: CellOutputs {
                i,
                f,
                c,
                o,
                s,
                tanh_s,
                h: h_out,
            },
            stats,
            p1_compressed_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eta_tensor::init;

    fn weights(input: usize, hidden: usize, seed: u64) -> CellWeights {
        CellWeights {
            w: init::xavier_uniform(4 * hidden, input, seed),
            u: init::xavier_uniform(4 * hidden, hidden, seed + 1),
            b: vec![0.0; 4 * hidden],
        }
    }

    #[test]
    fn gates_respect_activation_ranges() {
        let w = weights(8, 8, 3);
        let mut engine = ChannelCellEngine::baseline();
        let x: Vec<f32> = (0..8).map(|i| (i as f32 - 4.0) / 2.0).collect();
        let exec = engine.execute(&w, &x, &[0.1; 8], &[-0.2; 8]);
        let out = &exec.outputs;
        assert!(out.i.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(out.f.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(out.o.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(out.c.iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn state_identity_holds_on_the_datapath() {
        let w = weights(6, 4, 7);
        let mut engine = ChannelCellEngine::baseline();
        let x = vec![0.5f32, -0.5, 0.25, 0.0, 1.0, -1.0];
        let s_prev = vec![0.3f32, -0.3, 0.0, 0.7];
        let exec = engine.execute(&w, &x, &[0.0; 4], &s_prev);
        let out = &exec.outputs;
        for (k, &s_p) in s_prev.iter().enumerate() {
            let expect = out.f[k] * s_p + out.i[k] * out.c[k];
            assert!((out.s[k] - expect).abs() < 1e-5);
            assert!((out.h[k] - out.o[k] * out.tanh_s[k]).abs() < 2e-3);
        }
    }

    #[test]
    fn ms1_engine_emits_compressed_p1() {
        let w = weights(8, 8, 11);
        let mut engine = ChannelCellEngine::with_ms1(0.1);
        let x: Vec<f32> = (0..8).map(|i| ((i * 7 % 5) as f32 - 2.0) / 2.0).collect();
        let exec = engine.execute(&w, &x, &[0.1; 8], &[0.2; 8]);
        assert!(exec.p1_compressed_bytes > 0);
        // Six streams of 8 dense f32 would be 192 bytes; pruning at 0.1
        // must beat that.
        assert!(exec.p1_compressed_bytes < 192);
        assert!(engine.dma_stats().total == 48);
    }

    #[test]
    fn baseline_engine_emits_no_p1() {
        let w = weights(4, 4, 13);
        let mut engine = ChannelCellEngine::baseline();
        let exec = engine.execute(&w, &[0.1, 0.2, 0.3, 0.4], &[0.0; 4], &[0.0; 4]);
        assert_eq!(exec.p1_compressed_bytes, 0);
    }

    #[test]
    fn stats_accumulate_mac_counts() {
        let w = weights(6, 4, 19);
        let mut engine = ChannelCellEngine::baseline();
        let exec = engine.execute(&w, &[0.0; 6], &[0.0; 4], &[0.0; 4]);
        // Two matvecs: 16x6 and 16x4 → 96 + 64 = 160 mults, plus EW.
        assert!(exec.stats.mult_ops >= 160);
        assert!(exec.stats.act_ops >= 4 * 4 + 4);
    }
}
