//! **MS1 — cell-level intermediate-variable reduction** (paper Sec. IV-A).
//!
//! The baseline flow stores the five dense forward intermediates
//! (`i, f, c, o, s`) of every cell until backpropagation reaches it.
//! The paper's key observation (Fig. 6) is that those raw values are
//! poorly compressible (only ≈25 % below 0.1 in magnitude), but the
//! **BP-EW-P1 products** — which depend only on those same forward
//! intermediates — are highly compressible (≈65 % below 0.1), because
//! they multiply several sub-unit factors together.
//!
//! MS1 therefore *reorders execution*: BP-EW-P1 runs inside the forward
//! pass, immediately consuming the dense intermediates, and only the
//! near-zero-pruned sparse P1 products travel to backpropagation
//! ([`P1Packet`]). The pruned (zeroed) positions also let BP-EW-P2 and
//! BP-MatMul skip the corresponding work (sparse operands), which the
//! accelerator's DMA decoder exploits.
//!
//! At threshold 0 the packet round-trips exactly and MS1 training is
//! bit-identical to the baseline — a property the test suite checks.

use crate::cell::P1Dense;
use eta_tensor::{CompressionStats, Matrix, SparseVec};
use serde::{Deserialize, Serialize};

/// Default near-zero pruning threshold: the paper reports that pruning
/// around 0.1 gives large memory savings with negligible accuracy loss
/// (Sec. IV-A, Sec. VI-B4).
pub(crate) const DEFAULT_P1_THRESHOLD: f32 = 0.1;

/// MS1 configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ms1Config {
    /// Prune P1 elements with `|v| < threshold`.
    pub threshold: f32,
}

impl Default for Ms1Config {
    fn default() -> Self {
        Ms1Config {
            threshold: DEFAULT_P1_THRESHOLD,
        }
    }
}

/// The compressed BP-EW-P1 products of one cell — what MS1 stores in
/// place of the five dense intermediates.
#[derive(Debug, Clone, PartialEq)]
pub struct P1Packet {
    batch: usize,
    hidden: usize,
    streams: [SparseVec; 6],
}

impl P1Packet {
    /// Compresses the dense P1 products at the given threshold.
    pub fn compress(p1: &P1Dense, threshold: f32) -> Self {
        Self::compress_streams(p1.streams(), threshold)
    }

    /// Compresses six borrowed P1 streams (order
    /// `p_i, p_f, p_c, p_o, p_h, p_s`) at the given threshold — the
    /// zero-alloc MS1 path hands in workspace buffers plus the
    /// tape-owned forget gate instead of materializing a [`P1Dense`].
    pub(crate) fn compress_streams(streams: [&eta_tensor::Matrix; 6], threshold: f32) -> Self {
        let compressed = streams.map(|m| SparseVec::compress_matrix(m, threshold));
        P1Packet {
            batch: streams[0].rows(),
            hidden: streams[0].cols(),
            streams: compressed,
        }
    }

    /// Decodes back to dense P1 products with pruned positions zeroed —
    /// the form [`crate::cell::backward`] consumes.
    pub fn decode(&self) -> P1Dense {
        let [si, sf, sc, so, sh, ss] = &self.streams;
        let d = |s: &SparseVec| s.decode_matrix(self.batch, self.hidden);
        P1Dense {
            p_i: d(si),
            p_f: d(sf),
            p_c: d(sc),
            p_o: d(so),
            p_h: d(sh),
            p_s: d(ss),
        }
    }

    /// Decodes into reused workspace buffers — the zero-alloc
    /// counterpart of [`decode`](Self::decode) the per-timestep
    /// backward path uses. `buf` holds the five computed products and
    /// `p_s` the sixth (pruned forget-gate) stream; both are resized
    /// only when the batch/hidden shape changes.
    pub(crate) fn decode_into(&self, buf: &mut crate::workspace::P1Buffers, p_s: &mut Matrix) {
        buf.ensure(self.batch, self.hidden);
        crate::workspace::ensure_shape(p_s, self.batch, self.hidden);
        for (stream, dst) in self.streams.iter().zip([
            &mut buf.p_i,
            &mut buf.p_f,
            &mut buf.p_c,
            &mut buf.p_o,
            &mut buf.p_h,
            p_s,
        ]) {
            stream.decode_into(dst.as_mut_slice());
        }
    }

    /// Batch dimension of the packed products.
    #[cfg(test)]
    pub(crate) fn batch(&self) -> usize {
        self.batch
    }

    /// Hidden dimension of the packed products.
    #[cfg(test)]
    pub(crate) fn hidden(&self) -> usize {
        self.hidden
    }

    /// Compressed bytes across the six streams, using the cheaper of the
    /// pair and bitmap index encodings per stream (what the paper's DMA
    /// compression module emits).
    pub fn compressed_bytes(&self) -> u64 {
        self.streams.iter().map(|s| s.best_bytes()).sum()
    }

    /// Bytes of the five baseline dense intermediates the packet
    /// displaces (`i, f, c, o, s`).
    #[cfg(test)]
    pub(crate) fn displaced_baseline_bytes(&self) -> u64 {
        (5 * self.batch * self.hidden * 4) as u64
    }

    /// Surviving-element density across the six streams, in `[0, 1]`.
    pub fn density(&self) -> f64 {
        let total: usize = self.streams.iter().map(|s| s.dense_len()).sum();
        if total == 0 {
            return 0.0;
        }
        let nnz: usize = self.streams.iter().map(|s| s.nnz()).sum();
        nnz as f64 / total as f64
    }

    /// Aggregate compression statistics of the six streams.
    pub fn stats(&self) -> CompressionStats {
        let mut acc = CompressionStats::default();
        for s in &self.streams {
            acc.merge(&s.stats());
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{self, CellParams};
    use eta_tensor::init;

    fn sample_p1(batch: usize, hidden: usize) -> P1Dense {
        let params = CellParams::new(hidden, hidden, 3);
        let x = init::uniform(batch, hidden, -1.0, 1.0, 5);
        let h0 = init::uniform(batch, hidden, -0.5, 0.5, 6);
        let s0 = init::uniform(batch, hidden, -0.5, 0.5, 7);
        let fw = cell::forward(&params, &x, &h0, &s0).unwrap();
        P1Dense::compute(&fw, &s0).unwrap()
    }

    #[test]
    fn zero_threshold_round_trips_exactly() {
        let p1 = sample_p1(3, 8);
        let packet = P1Packet::compress(&p1, 0.0);
        assert_eq!(packet.decode(), p1);
    }

    #[test]
    fn pruning_zeroes_small_values_only() {
        let p1 = sample_p1(2, 16);
        let packet = P1Packet::compress(&p1, 0.1);
        let decoded = packet.decode();
        for (orig, dec) in p1.streams().iter().zip(decoded.streams().iter()) {
            for (&a, &b) in orig.as_slice().iter().zip(dec.as_slice().iter()) {
                if a.abs() >= 0.1 {
                    assert_eq!(a, b);
                } else {
                    assert_eq!(b, 0.0);
                }
            }
        }
    }

    #[test]
    fn p1_products_compress_better_than_raw_intermediates() {
        // The paper's core Fig. 6 claim: at threshold 0.1, a much larger
        // fraction of P1 products than of raw gates prune away.
        let params = CellParams::new(32, 32, 9);
        let x = init::uniform(16, 32, -1.0, 1.0, 21);
        let h0 = init::uniform(16, 32, -0.5, 0.5, 22);
        let s0 = init::uniform(16, 32, -0.5, 0.5, 23);
        let fw = cell::forward(&params, &x, &h0, &s0).unwrap();
        let p1 = P1Dense::compute(&fw, &s0).unwrap();

        let raw_total = 5 * fw.i.len();
        let raw_below: usize = [&fw.i, &fw.f, &fw.c, &fw.o, &fw.s]
            .iter()
            .map(|m| m.count_below(0.1))
            .sum();
        let p1_total = 6 * fw.i.len();
        let p1_below: usize = p1.streams().iter().map(|m| m.count_below(0.1)).sum();

        let raw_frac = raw_below as f64 / raw_total as f64;
        let p1_frac = p1_below as f64 / p1_total as f64;
        assert!(
            p1_frac > raw_frac + 0.15,
            "P1 prunable fraction {p1_frac:.2} should clearly exceed raw {raw_frac:.2}"
        );
    }

    #[test]
    fn compressed_bytes_shrink_under_pruning() {
        let p1 = sample_p1(8, 32);
        let loose = P1Packet::compress(&p1, 0.0);
        let tight = P1Packet::compress(&p1, 0.1);
        assert!(tight.compressed_bytes() < loose.compressed_bytes());
        assert!(tight.compressed_bytes() < tight.displaced_baseline_bytes());
    }

    #[test]
    fn density_and_stats_agree() {
        let p1 = sample_p1(4, 16);
        let packet = P1Packet::compress(&p1, 0.1);
        let stats = packet.stats();
        let expect = stats.kept as f64 / stats.total as f64;
        assert!((packet.density() - expect).abs() < 1e-12);
        assert_eq!(stats.total, 6 * 4 * 16);
    }

    #[test]
    fn default_threshold_is_paper_value() {
        assert_eq!(Ms1Config::default().threshold, 0.1);
    }

    #[test]
    fn compress_streams_matches_dense_compress() {
        let p1 = sample_p1(3, 8);
        let via_dense = P1Packet::compress(&p1, 0.1);
        let via_streams = P1Packet::compress_streams(p1.streams(), 0.1);
        assert_eq!(via_streams, via_dense);
        assert_eq!(via_streams.batch(), 3);
        assert_eq!(via_streams.hidden(), 8);
    }
}
