//! Panel packing for the register-blocked GEMM kernels.
//!
//! The microkernels in [`crate::kernels`] consume the B operand as
//! `NR`-wide column panels laid out k-major: panel `j0` holds, for each
//! reduction index `p` in ascending order, the `NR` values
//! `B'[p][j0..j0 + NR]` contiguously, where `B'` is the *logical*
//! `[k, n]` right operand of the product. A GEMM then streams one panel
//! linearly per output-column block instead of striding through the
//! row-major buffer, and an LSTM can pack its weights **once per
//! optimizer step** and reuse the panels at every timestep (see
//! `eta_lstm_core::workspace`).
//!
//! The edge panel (when `n % NR != 0`) is zero-padded; kernels compute
//! all `NR` lanes but store only the valid ones, so the padding never
//! reaches an output buffer.

use crate::{Matrix, ParallelConfig};

/// Lane width of a packed panel — the register-tile width of the
/// microkernels (`NR` accumulator columns).
pub const NR: usize = 8;

/// The right-hand operand of a GEMM, re-laid-out as `NR`-wide k-major
/// column panels.
///
/// One `PackedB` serves both logical orientations:
///
/// - [`PackedB::from_nn`] packs a `[k, n]` matrix used as the rhs of
///   `matmul_nn` / `matmul_tn` (both consume `B[p][j]`);
/// - [`PackedB::from_nt`] packs a `[n, k]` matrix used as the rhs of
///   `matmul_nt` (which consumes `B[j][p]`) — packing performs the
///   transpose, so the kernels are orientation-agnostic afterwards.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedB {
    /// Logical reduction depth `k`: the rows packed so far.
    k: usize,
    /// Logical output-column count `n`.
    n: usize,
    /// Rows each panel has room for (`>= k`; equal to it everywhere
    /// but in a weight-gradient accumulator between flushes).
    depth: usize,
    /// Panel-major buffer: `ceil(n / NR)` panels of `depth * NR` values.
    data: Vec<f32>,
}

/// Fills one k-major panel from a `[k, n]` source (`nn` layout). The
/// panel write is a pure function of `(src, k, n, panel_idx)`, which is
/// what lets [`PackedB::from_nn_par`] hand disjoint panel ranges to
/// workers without changing a single stored bit.
#[inline]
fn fill_nn_panel(chunk: &mut [f32], src: &[f32], k: usize, n: usize, panel_idx: usize) {
    debug_assert_eq!(chunk.len(), k * NR);
    debug_assert_eq!(src.len(), k * n);
    debug_assert!(panel_idx * NR < n);
    let j0 = panel_idx * NR;
    let width = NR.min(n - j0);
    for p in 0..k {
        let row = &src[p * n + j0..p * n + j0 + width];
        chunk[p * NR..p * NR + width].copy_from_slice(row);
    }
}

/// Fills one k-major panel from a `[n, k]` source (`nt` layout),
/// transposing as it copies. Pure per-panel, like [`fill_nn_panel`].
#[inline]
fn fill_nt_panel(chunk: &mut [f32], src: &[f32], k: usize, n: usize, panel_idx: usize) {
    debug_assert_eq!(chunk.len(), k * NR);
    debug_assert_eq!(src.len(), n * k);
    debug_assert!(panel_idx * NR < n);
    let j0 = panel_idx * NR;
    let width = NR.min(n - j0);
    for jj in 0..width {
        let b_row = &src[(j0 + jj) * k..(j0 + jj + 1) * k];
        for (p, &v) in b_row.iter().enumerate() {
            chunk[p * NR + jj] = v;
        }
    }
}

impl PackedB {
    /// Packs a `[k, n]` matrix (the rhs of an `nn` or `tn` product).
    pub fn from_nn(b: &Matrix) -> Self {
        Self::from_nn_par(b, &ParallelConfig::serial())
    }

    /// Packs a `[n, k]` matrix (the rhs of an `nt` product), performing
    /// the transpose during packing.
    pub fn from_nt(b: &Matrix) -> Self {
        Self::from_nt_par(b, &ParallelConfig::serial())
    }

    /// [`PackedB::from_nn`] with worker threads filling disjoint panel
    /// ranges when `cfg` and the shape warrant it. Each panel is a pure
    /// function of the source, so the result is **bit-identical** to
    /// the serial pack at any thread count — packing parallelism, like
    /// kernel parallelism, is a latency knob only.
    pub fn from_nn_par(b: &Matrix, cfg: &ParallelConfig) -> Self {
        let mut pb = PackedB::default();
        pb.reserve(b.rows(), b.cols());
        pb.append_nn(b, cfg);
        pb
    }

    /// Empties the buffer and gives every panel room for `depth` rows of
    /// `n` columns. The fills never touch the edge panel's padding
    /// lanes, so the buffer is re-zeroed only when the shape changes.
    pub(crate) fn reserve(&mut self, depth: usize, n: usize) {
        if (self.depth, self.n) != (depth, n) {
            self.data.clear();
            self.data.resize(n.div_ceil(NR) * depth * NR, 0.0);
            (self.depth, self.n) = (depth, n);
        }
        self.k = 0;
    }

    /// Appends the rows of `b` (`[r, n]`, the next `r` reduction steps
    /// of an `nn`/`tn` rhs) below the rows already packed. The caller
    /// has checked `b.cols() == self.n()` and that `r` more rows fit the
    /// reserved depth.
    pub(crate) fn append_nn(&mut self, b: &Matrix, cfg: &ParallelConfig) {
        self.pack_par(b.rows(), b.as_slice(), cfg, fill_nn_panel);
    }

    /// [`PackedB::from_nt`] with parallel panel filling (transposed
    /// source); bit-identical to the serial pack.
    pub fn from_nt_par(b: &Matrix, cfg: &ParallelConfig) -> Self {
        let mut pb = PackedB::default();
        pb.reserve(b.cols(), b.rows());
        pb.pack_par(b.cols(), b.as_slice(), cfg, fill_nt_panel);
        pb
    }

    /// The one packing body: fills rows `[k, k + r)` of every panel from
    /// `src`, one contiguous chunk of whole panels per worker. Falls
    /// back to the serial loop when the config says serial, the panel
    /// count cannot feed every worker, or the copy volume (`r * n`
    /// values) is below the kernel-flops threshold — a pack moves one
    /// byte per value, so small packs lose more to spawn latency than
    /// they gain.
    fn pack_par(
        &mut self,
        r: usize,
        src: &[f32],
        cfg: &ParallelConfig,
        fill: fn(&mut [f32], &[f32], usize, usize, usize),
    ) {
        let (n, k0) = (self.n, self.k);
        debug_assert!(k0 + r <= self.depth);
        self.k = k0 + r;
        let panels = n.div_ceil(NR);
        let data = &mut self.data;
        if r > 0 {
            let stride = self.depth * NR;
            let rows = k0 * NR..(k0 + r) * NR;
            if cfg.threads > 1 && panels >= cfg.threads && r * n >= cfg.min_kernel_flops {
                crate::stats::record_panel_pack_parallel();
                // Asked of the OS only on this branch: the query costs
                // microseconds, which a serial pack of a small panel
                // set (every unpacked `matmul_*` call) cannot afford.
                let workers = cfg
                    .threads
                    .min(rayon::current_num_threads())
                    .min(panels)
                    .max(1);
                let per = panels.div_ceil(workers);
                rayon::scope(|s| {
                    for (w, slab) in data.chunks_mut(per * stride).enumerate() {
                        let rows = rows.clone();
                        s.spawn(move |_| {
                            for (off, chunk) in slab.chunks_exact_mut(stride).enumerate() {
                                fill(&mut chunk[rows.clone()], src, r, n, w * per + off);
                            }
                        });
                    }
                });
            } else {
                for (panel, chunk) in data.chunks_exact_mut(stride).enumerate() {
                    fill(&mut chunk[rows.clone()], src, r, n, panel);
                }
            }
        }
    }

    /// Logical reduction depth `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Logical output-column count `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of `NR`-wide panels.
    pub fn panels(&self) -> usize {
        self.n.div_ceil(NR)
    }

    /// The k-major buffer of panel `idx` (`k * NR` values).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.panels()`.
    #[inline]
    pub fn panel(&self, idx: usize) -> &[f32] {
        assert!(idx < self.panels(), "panel index out of bounds");
        let stride = self.depth * NR;
        debug_assert_eq!(self.data.len(), self.panels() * stride);
        &self.data[idx * stride..idx * stride + self.k * NR]
    }

    /// Size of the packed buffer in bytes.
    pub fn size_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    #[test]
    fn nn_pack_lays_out_k_major_panels() {
        // [k=2, n=3]: rows (1 2 3) / (4 5 6).
        let b = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let pb = PackedB::from_nn(&b);
        assert_eq!(pb.panels(), 1);
        assert_eq!(pb.k(), 2);
        assert_eq!(pb.n(), 3);
        let panel = pb.panel(0);
        // p = 0 lanes then p = 1 lanes, zero-padded to NR.
        assert_eq!(&panel[..3], &[1.0, 2.0, 3.0]);
        assert!(panel[3..NR].iter().all(|&v| v == 0.0));
        assert_eq!(&panel[NR..NR + 3], &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn nt_pack_equals_nn_pack_of_transpose() {
        let b = init::uniform(13, 7, -1.0, 1.0, 3);
        assert_eq!(PackedB::from_nt(&b), PackedB::from_nn(&b.transpose()));
    }

    #[test]
    fn multi_panel_shapes_round_trip_via_panel_reads() {
        let b = init::uniform(5, 19, -1.0, 1.0, 9);
        let pb = PackedB::from_nn(&b);
        assert_eq!(pb.panels(), 3);
        for j in 0..19 {
            let (panel, lane) = (j / NR, j % NR);
            for p in 0..5 {
                assert_eq!(pb.panel(panel)[p * NR + lane], b.get(p, j));
            }
        }
    }

    #[test]
    fn parallel_pack_is_bit_identical_to_serial() {
        let b = init::uniform(96, 200, -1.0, 1.0, 11);
        let mut cfg = ParallelConfig::with_threads(4);
        cfg.min_kernel_flops = 1; // force the parallel branch
        assert_eq!(PackedB::from_nn_par(&b, &cfg), PackedB::from_nn(&b));
        assert_eq!(PackedB::from_nt_par(&b, &cfg), PackedB::from_nt(&b));
        // A serial config must route through the plain loop and agree.
        let serial = ParallelConfig::serial();
        assert_eq!(PackedB::from_nn_par(&b, &serial), PackedB::from_nn(&b));
        assert_eq!(PackedB::from_nt_par(&b, &serial), PackedB::from_nt(&b));
    }

    #[test]
    fn parallel_pack_records_the_telemetry_counter() {
        let b = init::uniform(64, 64, -1.0, 1.0, 12);
        let mut cfg = ParallelConfig::with_threads(2);
        cfg.min_kernel_flops = 1;
        let before = crate::stats::dispatch_snapshot();
        let _ = PackedB::from_nn_par(&b, &cfg);
        let d = crate::stats::dispatch_snapshot().since(&before);
        assert!(d.pack_parallel >= 1);
    }

    #[test]
    fn empty_k_packs_to_empty_panels() {
        let b = Matrix::zeros(0, 5);
        let pb = PackedB::from_nn(&b);
        assert_eq!(pb.panels(), 1);
        assert_eq!(pb.panel(0).len(), 0);
    }
}
