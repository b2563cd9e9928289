//! Threshold-pruned sparse storage — the compressed value+index format
//! shared by the MS1 software optimization (paper Sec. IV-A) and the
//! accelerator's DMA compression module (paper Sec. V-D, Fig. 14).
//!
//! MS1 reorders BP-EW-P1 into the forward pass; its outputs are heavily
//! concentrated near zero (≈65 % of magnitudes below 0.1, paper Fig. 6),
//! so pruning `|v| < θ` and storing only the surviving `(index, value)`
//! pairs shrinks the footprint that the forward intermediates would
//! otherwise occupy. The zeroed positions also mark computation that
//! BP-EW-P2 and BP-MatMul can skip.

use crate::Matrix;
use serde::{Deserialize, Serialize};

/// A sparse vector produced by near-zero threshold pruning.
///
/// Stores `(index, value)` pairs for the elements whose magnitude met the
/// threshold, plus the original dense length so it can be decoded.
///
/// # Example
///
/// ```
/// use eta_tensor::SparseVec;
///
/// let dense = [0.01, 0.5, -0.02, -0.9];
/// let sv = SparseVec::compress(&dense, 0.1);
/// assert_eq!(sv.nnz(), 2);
/// let back = sv.decode();
/// assert_eq!(back, vec![0.0, 0.5, 0.0, -0.9]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseVec {
    dense_len: usize,
    indices: Vec<u32>,
    values: Vec<f32>,
}

/// Aggregate statistics from a compression pass, used for the footprint
/// and data-movement accounting in the harness.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CompressionStats {
    /// Elements examined.
    pub total: u64,
    /// Elements kept (above threshold).
    pub kept: u64,
    /// Dense size in bytes (4 bytes/element).
    pub dense_bytes: u64,
    /// Compressed size in bytes (8 bytes/kept element: value + index).
    pub compressed_bytes: u64,
}

impl CompressionStats {
    /// Fraction of elements pruned, in `[0, 1]`; 0 for empty input.
    pub fn prune_ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            1.0 - self.kept as f64 / self.total as f64
        }
    }

    /// Compressed size over dense size; 0 for empty input.
    pub fn compression_ratio(&self) -> f64 {
        if self.dense_bytes == 0 {
            0.0
        } else {
            self.compressed_bytes as f64 / self.dense_bytes as f64
        }
    }

    /// Merges another pass's statistics into this one.
    pub fn merge(&mut self, other: &CompressionStats) {
        self.total += other.total;
        self.kept += other.kept;
        self.dense_bytes += other.dense_bytes;
        self.compressed_bytes += other.compressed_bytes;
    }
}

impl SparseVec {
    /// Compresses a dense slice, keeping elements with `|v| >= threshold`.
    pub fn compress(dense: &[f32], threshold: f32) -> Self {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, &v) in dense.iter().enumerate() {
            if v.abs() >= threshold {
                indices.push(i as u32);
                values.push(v);
            }
        }
        SparseVec {
            dense_len: dense.len(),
            indices,
            values,
        }
    }

    /// Compresses a whole matrix (row-major flattened).
    pub fn compress_matrix(m: &Matrix, threshold: f32) -> Self {
        Self::compress(m.as_slice(), threshold)
    }

    /// An empty sparse vector of the given dense length.
    pub fn empty(dense_len: usize) -> Self {
        SparseVec {
            dense_len,
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Original dense length.
    pub fn dense_len(&self) -> usize {
        self.dense_len
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Stored indices (ascending).
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Stored values, parallel to [`SparseVec::indices`].
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Density `nnz / dense_len`, 0 for an empty vector.
    pub fn density(&self) -> f64 {
        if self.dense_len == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.dense_len as f64
        }
    }

    /// Compressed size in bytes: 4 bytes value + 4 bytes index per nnz
    /// (the paper's WT data + WT index queue format with explicit `u32`
    /// indices).
    pub fn size_bytes(&self) -> u64 {
        (self.nnz() * 8) as u64
    }

    /// Compressed size in bytes using a bitmap index: one presence bit per
    /// dense position plus 4 bytes per kept value. This is the denser
    /// index encoding the accelerator's DMA compression module uses when
    /// the stream's positions are dense enough that explicit `u32` indices
    /// would waste space.
    pub fn bitmap_bytes(&self) -> u64 {
        (self.dense_len as u64).div_ceil(8) + (self.nnz() * 4) as u64
    }

    /// The smaller of the two index encodings — what the DMA compression
    /// module actually emits.
    pub fn best_bytes(&self) -> u64 {
        self.size_bytes().min(self.bitmap_bytes())
    }

    /// Decodes back to a dense vector with pruned positions set to zero.
    pub fn decode(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.dense_len];
        self.decode_into(&mut out);
        out
    }

    /// Decodes into a caller-owned buffer, zeroing pruned positions —
    /// the zero-alloc counterpart of [`decode`] the per-timestep
    /// backward path uses with reused workspace storage.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dense_len`.
    pub fn decode_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.dense_len, "decode_into length mismatch");
        out.fill(0.0);
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            out[i as usize] = v;
        }
    }

    /// Decodes into a matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols != dense_len`.
    pub fn decode_matrix(&self, rows: usize, cols: usize) -> Matrix {
        assert_eq!(rows * cols, self.dense_len, "decode shape mismatch");
        let mut out = Matrix::zeros(rows, cols);
        self.decode_into(out.as_mut_slice());
        out
    }

    /// Element-wise product against a dense slice, visiting only stored
    /// positions — the BP-EW-P2 step `grad ⊙ p1` where `p1` is sparse.
    /// Returns a dense result (zeros at pruned positions).
    ///
    /// # Panics
    ///
    /// Panics if `dense.len() != dense_len`.
    pub fn mul_dense(&self, dense: &[f32]) -> Vec<f32> {
        assert_eq!(dense.len(), self.dense_len, "mul_dense length mismatch");
        let mut out = vec![0.0; self.dense_len];
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            out[i as usize] = v * dense[i as usize];
        }
        out
    }

    /// Serializes to the explicit-index wire format the DMA's WT
    /// data/index queues carry: a little-endian header
    /// `[dense_len: u32][nnz: u32]` followed by `nnz` `u32` indices and
    /// `nnz` `f32` values.
    pub fn encode_pairs(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.nnz() * 8);
        out.extend_from_slice(&(self.dense_len as u32).to_le_bytes());
        out.extend_from_slice(&(self.nnz() as u32).to_le_bytes());
        for &i in &self.indices {
            out.extend_from_slice(&i.to_le_bytes());
        }
        for &v in &self.values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Parses the [`SparseVec::encode_pairs`] wire format.
    ///
    /// Returns `None` on a malformed buffer (truncated, inconsistent
    /// counts, or out-of-range indices).
    pub fn decode_pairs(bytes: &[u8]) -> Option<SparseVec> {
        if bytes.len() < 8 {
            return None;
        }
        let dense_len = u32::from_le_bytes(bytes[0..4].try_into().ok()?) as usize;
        let nnz = u32::from_le_bytes(bytes[4..8].try_into().ok()?) as usize;
        if bytes.len() != 8 + nnz * 8 {
            return None;
        }
        let mut indices = Vec::with_capacity(nnz);
        for k in 0..nnz {
            let off = 8 + k * 4;
            let i = u32::from_le_bytes(bytes[off..off + 4].try_into().ok()?);
            if i as usize >= dense_len {
                return None;
            }
            indices.push(i);
        }
        let mut values = Vec::with_capacity(nnz);
        for k in 0..nnz {
            let off = 8 + nnz * 4 + k * 4;
            values.push(f32::from_le_bytes(bytes[off..off + 4].try_into().ok()?));
        }
        Some(SparseVec {
            dense_len,
            indices,
            values,
        })
    }

    /// Serializes to the bitmap wire format: `[dense_len: u32]`
    /// followed by `ceil(dense_len/8)` presence-bit bytes (LSB-first),
    /// then the kept `f32` values in index order.
    pub fn encode_bitmap(&self) -> Vec<u8> {
        let bitmap_len = self.dense_len.div_ceil(8);
        let mut out = Vec::with_capacity(4 + bitmap_len + self.nnz() * 4);
        out.extend_from_slice(&(self.dense_len as u32).to_le_bytes());
        let mut bitmap = vec![0u8; bitmap_len];
        for &i in &self.indices {
            bitmap[i as usize / 8] |= 1 << (i % 8);
        }
        out.extend_from_slice(&bitmap);
        for &v in &self.values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Parses the [`SparseVec::encode_bitmap`] wire format.
    ///
    /// Returns `None` on a malformed buffer.
    pub fn decode_bitmap(bytes: &[u8]) -> Option<SparseVec> {
        if bytes.len() < 4 {
            return None;
        }
        let dense_len = u32::from_le_bytes(bytes[0..4].try_into().ok()?) as usize;
        let bitmap_len = dense_len.div_ceil(8);
        if bytes.len() < 4 + bitmap_len {
            return None;
        }
        let bitmap = &bytes[4..4 + bitmap_len];
        let mut indices = Vec::new();
        for i in 0..dense_len {
            if bitmap[i / 8] & (1 << (i % 8)) != 0 {
                indices.push(i as u32);
            }
        }
        if bytes.len() != 4 + bitmap_len + indices.len() * 4 {
            return None;
        }
        let mut values = Vec::with_capacity(indices.len());
        for k in 0..indices.len() {
            let off = 4 + bitmap_len + k * 4;
            values.push(f32::from_le_bytes(bytes[off..off + 4].try_into().ok()?));
        }
        Some(SparseVec {
            dense_len,
            indices,
            values,
        })
    }

    /// Compression statistics this vector represents.
    pub fn stats(&self) -> CompressionStats {
        CompressionStats {
            total: self.dense_len as u64,
            kept: self.nnz() as u64,
            dense_bytes: (self.dense_len * 4) as u64,
            compressed_bytes: self.size_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compress_keeps_only_above_threshold() {
        let sv = SparseVec::compress(&[0.05, -0.2, 0.0, 0.1, -0.09], 0.1);
        assert_eq!(sv.indices(), &[1, 3]);
        assert_eq!(sv.values(), &[-0.2, 0.1]);
        assert_eq!(sv.dense_len(), 5);
    }

    #[test]
    fn decode_restores_kept_positions() {
        let dense = [0.5f32, 0.01, -0.7, 0.02];
        let sv = SparseVec::compress(&dense, 0.1);
        assert_eq!(sv.decode(), vec![0.5, 0.0, -0.7, 0.0]);
    }

    #[test]
    fn decode_matrix_round_trips_shape() {
        let m = Matrix::from_fn(3, 4, |r, c| if (r + c) % 2 == 0 { 0.9 } else { 0.001 });
        let sv = SparseVec::compress_matrix(&m, 0.1);
        let back = sv.decode_matrix(3, 4);
        assert_eq!(back.rows(), 3);
        assert_eq!(back.get(0, 0), 0.9);
        assert_eq!(back.get(0, 1), 0.0);
    }

    #[test]
    fn mul_dense_only_touches_kept() {
        let sv = SparseVec::compress(&[1.0, 0.0, 2.0], 0.5);
        let out = sv.mul_dense(&[10.0, 10.0, 10.0]);
        assert_eq!(out, vec![10.0, 0.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mul_dense_rejects_wrong_length() {
        let sv = SparseVec::compress(&[1.0, 2.0], 0.5);
        let _ = sv.mul_dense(&[1.0]);
    }

    #[test]
    fn stats_reflect_compression() {
        let sv = SparseVec::compress(&[0.5, 0.01, 0.01, 0.01], 0.1);
        let s = sv.stats();
        assert_eq!(s.total, 4);
        assert_eq!(s.kept, 1);
        assert_eq!(s.dense_bytes, 16);
        assert_eq!(s.compressed_bytes, 8);
        assert!((s.prune_ratio() - 0.75).abs() < 1e-12);
        assert!((s.compression_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = SparseVec::compress(&[0.5, 0.01], 0.1).stats();
        let b = SparseVec::compress(&[0.5, 0.7], 0.1).stats();
        a.merge(&b);
        assert_eq!(a.total, 4);
        assert_eq!(a.kept, 3);
    }

    #[test]
    fn empty_vector_behaves() {
        let sv = SparseVec::empty(3);
        assert_eq!(sv.nnz(), 0);
        assert_eq!(sv.decode(), vec![0.0; 3]);
        assert_eq!(sv.density(), 0.0);
        assert_eq!(SparseVec::empty(0).density(), 0.0);
    }

    #[test]
    fn pair_wire_format_round_trips() {
        let sv = SparseVec::compress(&[0.5, 0.01, -0.7, 0.02, 0.9], 0.1);
        let bytes = sv.encode_pairs();
        assert_eq!(bytes.len() as u64, 8 + sv.size_bytes());
        assert_eq!(SparseVec::decode_pairs(&bytes), Some(sv));
    }

    #[test]
    fn bitmap_wire_format_round_trips() {
        let dense: Vec<f32> = (0..37)
            .map(|i| {
                if i % 3 == 0 {
                    0.5 + i as f32 / 100.0
                } else {
                    0.0
                }
            })
            .collect();
        let sv = SparseVec::compress(&dense, 0.1);
        let bytes = sv.encode_bitmap();
        assert_eq!(SparseVec::decode_bitmap(&bytes), Some(sv.clone()));
        // Bitmap size accounting matches the actual encoding (minus the
        // 4-byte length header the accounting omits).
        assert_eq!(bytes.len() as u64, 4 + sv.bitmap_bytes());
    }

    #[test]
    fn malformed_wire_buffers_are_rejected() {
        assert_eq!(SparseVec::decode_pairs(&[]), None);
        assert_eq!(SparseVec::decode_pairs(&[1, 2, 3]), None);
        let mut good = SparseVec::compress(&[0.5, 0.6], 0.1).encode_pairs();
        good.pop();
        assert_eq!(SparseVec::decode_pairs(&good), None);
        // Out-of-range index.
        let mut bad = SparseVec::compress(&[0.5], 0.1).encode_pairs();
        bad[8] = 200;
        assert_eq!(SparseVec::decode_pairs(&bad), None);
        assert_eq!(SparseVec::decode_bitmap(&[0, 0]), None);
    }

    #[test]
    fn empty_vector_wire_round_trips() {
        let sv = SparseVec::empty(10);
        assert_eq!(
            SparseVec::decode_pairs(&sv.encode_pairs()),
            Some(sv.clone())
        );
        assert_eq!(SparseVec::decode_bitmap(&sv.encode_bitmap()), Some(sv));
    }

    #[test]
    fn bitmap_encoding_beats_pairs_when_dense() {
        // 100 elements, 50 kept: pairs = 400 B, bitmap = 13 + 200 = 213 B.
        let dense: Vec<f32> = (0..100)
            .map(|i| if i % 2 == 0 { 0.5 } else { 0.0 })
            .collect();
        let sv = SparseVec::compress(&dense, 0.1);
        assert_eq!(sv.size_bytes(), 400);
        assert_eq!(sv.bitmap_bytes(), 13 + 200);
        assert_eq!(sv.best_bytes(), 213);
    }

    #[test]
    fn pair_encoding_beats_bitmap_when_very_sparse() {
        // 1000 elements, 1 kept: pairs = 8 B, bitmap = 125 + 4 = 129 B.
        let mut dense = vec![0.0f32; 1000];
        dense[7] = 0.9;
        let sv = SparseVec::compress(&dense, 0.1);
        assert_eq!(sv.best_bytes(), 8);
    }

    #[test]
    fn zero_threshold_keeps_everything_nonzero() {
        // |v| >= 0 keeps all elements including zeros.
        let sv = SparseVec::compress(&[0.0, 1.0, -1.0], 0.0);
        assert_eq!(sv.nnz(), 3);
    }
}
