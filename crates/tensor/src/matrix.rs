//! Row-major dense `f32` matrix and the linear-algebra kernels LSTM
//! training needs.
//!
//! Batched activations are stored as `[batch, features]` matrices; weight
//! matrices as `[out, in]`. The three GEMM orientations used by LSTM
//! training map to:
//!
//! - forward `W x`: [`Matrix::matmul_nt`] (`x` is `[batch, in]`, result
//!   `[batch, out]` via `x · Wᵀ`)
//! - input gradient `Wᵀ δ`: [`Matrix::matmul_nn`] (`δ · W`)
//! - weight gradient `δ ⊗ x`: [`Matrix::matmul_tn`] (`δᵀ · x`)

use crate::kernels::{self, Store};
use crate::pack::PackedB;
use crate::parallel::ParallelConfig;
use crate::{Result, TensorError};
use serde::{Deserialize, Serialize};

/// Below this many fused multiply-adds (`m * k * n`) the `matmul_*`
/// entry points run the naive reference loops instead of packing B for
/// the register-blocked kernels: packing costs `O(k · n)` writes, which
/// only amortizes once the product is large enough. Results are
/// bit-identical on both sides, so the threshold is purely a latency
/// knob.
pub const PACK_MIN_FLOPS: usize = 32 * 32 * 32;

/// Per-row body of the naive `nn` loop: `out_row += a_row · B` with a
/// zero-skip on the A element.
#[inline]
fn nn_row(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
    debug_assert_eq!(b.len(), a_row.len() * n);
    for (p, &a) in a_row.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        let b_row = &b[p * n..(p + 1) * n];
        for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
            *o += a * bv;
        }
    }
}

/// Per-row body of the naive `nt` loop: `out_row[j] = a_row · b_row_j`.
#[inline]
fn nt_row(a_row: &[f32], b: &[f32], k: usize, out_row: &mut [f32]) {
    debug_assert_eq!(b.len(), out_row.len() * k);
    for (j, o) in out_row.iter_mut().enumerate() {
        let b_row = &b[j * k..(j + 1) * k];
        let mut acc = 0.0f32;
        for (&x, &y) in a_row.iter().zip(b_row.iter()) {
            acc += x * y;
        }
        *o = acc;
    }
}

/// Rows `[row0, row0 + rows)` of a row-major buffer of `k`-wide rows —
/// the A slice a row-block worker consumes.
#[inline]
fn row_block(a: &[f32], k: usize, row0: usize, rows: usize) -> &[f32] {
    debug_assert!((row0 + rows) * k <= a.len());
    &a[row0 * k..(row0 + rows) * k]
}

/// Elements of one product row block of
/// [`Matrix::matmul_tn_acc_abs_into`]: 128 KiB of `f32`, so a block,
/// the `out` rows it is added to and the packed panels share L2.
const TILE_ELEMS: usize = 32 * 1024;

/// Row blocks are whole register tiles of both tiers (6 rows SIMD, 4
/// scalar), so only the last block of a product sees 1-row edge tiles.
const TILE_ROW_STEP: usize = 12;

/// The naive `tn` loop: `out += aᵀ · b` for row-major `a` (`[k, m]`),
/// `b` (`[k, n]`) and `out` (`[m, n]`, zeroed by the caller for a plain
/// product) — `p`-outer, a zero-skip on the A element, every output
/// element accumulated in ascending `p`.
fn tn_naive_acc(a: &[f32], m: usize, b: &[f32], n: usize, out: &mut [f32]) {
    if m * n == 0 {
        return;
    }
    for (a_row, b_row) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// Rows `[row0, row0 + rows)` of `a · B` assigned to `dst`, `a` being
/// row-major `[_, k]` and `B` packed `nn` panels — the row-block body of
/// every `nn` and `tn` product.
fn nn_rows(
    simd: bool,
    a: &[f32],
    k: usize,
    pb: &PackedB,
    row0: usize,
    rows: usize,
    dst: &mut [f32],
) {
    let a_rows = row_block(a, k, row0, rows);
    if simd {
        crate::simd::gemm_rows_nn(a_rows, rows, k, pb, dst, Store::Assign);
    } else {
        kernels::gemm_nn_rows(a_rows, rows, k, pb, dst, Store::Assign);
    }
}

/// The weight-gradient accumulator: the software form of the paper's
/// streaming outer-product adder. [`TnScratch::push`] appends a cell's
/// `δgates` rows (`A`, shared by every product of the chunk) and its
/// activations (one `rhs` per product) in the layout the `tn` kernel
/// reads — `A` transposed, each `rhs` as packed `nn` panels — and
/// [`TnScratch::flush`] adds `Aᵀ · rhs_j` over everything pushed to
/// `outs[j]`, so a chunk of cells costs one GEMM per weight matrix at
/// the chunk's full reduction depth. A chunk whose every product stays
/// below [`PACK_MIN_FLOPS`] even at the reserved depth is kept as the
/// rows came and multiplied by the naive loop instead: the same bits as
/// the scalar kernel, at 0.6 of its time on the hidden-24 cell. Buffers
/// size themselves from the first push after a [`TnScratch::reset`] and
/// are reused while the shapes repeat.
#[derive(Debug, Clone, Default)]
pub struct TnScratch {
    /// Reduction steps a chunk has room for: the row stride of `at`.
    depth: usize,
    /// Reduction steps pushed since the last flush.
    pending: usize,
    /// Output rows `m` of the pending chunk.
    m: usize,
    /// The pushed A rows, transposed: `[m, depth]`, columns
    /// `..pending` written.
    at: Vec<f32>,
    /// One packed rhs per product, `pending` rows deep.
    pbs: Vec<PackedB>,
    /// A naive-tier chunk instead of `at` and the panels of `pbs`: the
    /// pushed rows as they came, one `[depth, width]` row-major block
    /// per operand — `a`, then each rhs.
    rows: Vec<f32>,
    /// Whether the pending chunk is a naive-tier one.
    naive: bool,
    /// One product row block per worker.
    tile: Vec<f32>,
    /// `Σ|product|` of each output row.
    row_abs: Vec<f64>,
}

impl TnScratch {
    /// Bytes currently held.
    pub fn size_bytes(&self) -> u64 {
        let f32s = self.at.len() + self.rows.len() + self.tile.len();
        (f32s * std::mem::size_of::<f32>() + self.row_abs.len() * std::mem::size_of::<f64>()) as u64
            + self.pbs.iter().map(PackedB::size_bytes).sum::<u64>()
    }

    /// Drops whatever is pending (a caller that bailed out between push
    /// and flush leaves rows behind) and gives the chunks that follow
    /// room for `depth` reduction steps.
    pub fn reset(&mut self, depth: usize) {
        (self.depth, self.pending) = (depth, 0);
    }

    /// Reduction steps pushed and not yet flushed.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Appends `a` (`[r, m]`) and one `[r, n_j]` matrix per product as
    /// the next `r` reduction steps of the pending chunk. The first push
    /// of a chunk fixes `m` and every `n_j`, and always fits: the room
    /// grows to `r` if less was reserved.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] — and appends nothing — if
    /// `a` does not have the pending chunk's `m` columns, if `r` more
    /// steps exceed the room [`TnScratch::reset`] reserved (the caller
    /// flushes first), or if `rhs` differs in count, rows or columns
    /// from `a` and what is pending.
    pub fn push(&mut self, a: &Matrix, rhs: &[&Matrix]) -> Result<()> {
        if self.pending == 0 {
            self.m = a.cols;
            self.depth = self.depth.max(a.rows);
            let work = self.m * self.depth;
            self.naive = rhs.iter().all(|b| work * b.cols < PACK_MIN_FLOPS);
            let (depth, stacked) = if self.naive {
                let widths = self.m + rhs.iter().map(|b| b.cols).sum::<usize>();
                (0, self.depth * widths)
            } else {
                (self.depth, 0)
            };
            self.rows.resize(stacked, 0.0);
            self.at.resize(self.m * depth, 0.0);
            self.pbs.resize_with(rhs.len(), PackedB::default);
            for (pb, b) in self.pbs.iter_mut().zip(rhs) {
                pb.reserve(depth, b.cols);
            }
        }
        let room = self.depth - self.pending;
        let odd = rhs
            .iter()
            .zip(&self.pbs)
            .find(|(b, pb)| b.rows != a.rows || b.cols != pb.n());
        if a.cols != self.m || a.rows > room || rhs.len() != self.pbs.len() || odd.is_some() {
            return Err(TensorError::ShapeMismatch {
                op: "TnScratch::push",
                lhs: (a.rows, a.cols),
                rhs: odd.map_or((room, self.m), |(b, _)| (b.rows, b.cols)),
            });
        }
        if self.naive {
            let mut block0 = 0;
            for operand in std::iter::once(&a).chain(rhs) {
                let row0 = block0 + self.pending * operand.cols;
                self.rows[row0..row0 + operand.data.len()].copy_from_slice(&operand.data);
                block0 += self.depth * operand.cols;
            }
        } else {
            a.transpose_into(&mut self.at, self.depth, self.pending);
            for (pb, b) in self.pbs.iter_mut().zip(rhs) {
                pb.append_nn(b, &ParallelConfig::serial());
            }
        }
        self.pending += a.rows;
        Ok(())
    }

    /// `outs[j] += Aᵀ · rhs_j` over everything pushed since the last
    /// flush — one product per output, formed one cache-sized row block
    /// at a time and added while the block is still cached — and empties
    /// the accumulator. Returns `Σ_j Σ|Aᵀ · rhs_j|`; with nothing
    /// pending it touches nothing and returns `0`.
    ///
    /// A block holds the **complete** product — every reduction chunk —
    /// before it is added, so `outs[j]` is bit-identical to
    /// [`Matrix::matmul_tn`] of the stacked operands followed by
    /// [`Matrix::add_assign`], however the rows were cut into pushes.
    /// The returned sum takes `|v|` into eight `f64` lanes per output
    /// row (lane `j % 8`), folds the lanes pairwise and adds the rows in
    /// ascending order, then the products in `outs` order: a function of
    /// the operands only, whatever `cfg`'s thread count. It agrees with
    /// [`Matrix::abs_sum`] of the products to rounding (the association
    /// differs), not bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] — leaving the chunk
    /// pending — unless `outs` holds one `[m, n_j]` matrix per product.
    pub fn flush(&mut self, outs: &mut [&mut Matrix], cfg: &ParallelConfig) -> Result<f64> {
        let (k, m, depth) = (self.pending, self.m, self.depth);
        if k == 0 {
            return Ok(0.0);
        }
        let fits = |(out, pb): (&&mut Matrix, &PackedB)| out.rows == m && out.cols == pb.n();
        if outs.len() != self.pbs.len() || !outs.iter().zip(&self.pbs).all(fits) {
            return Err(TensorError::ShapeMismatch {
                op: "TnScratch::flush",
                lhs: (k, m),
                rhs: outs.first().map_or((0, 0), |o| (o.rows, o.cols)),
            });
        }
        // A short chunk closes its rows up to the stride the kernel
        // reads, `k`.
        if k < depth && !self.naive {
            for i in 1..m {
                self.at.copy_within(i * depth..i * depth + k, i * k);
            }
        }
        self.pending = 0;
        let TnScratch {
            at,
            pbs,
            rows,
            naive,
            tile,
            row_abs,
            ..
        } = self;
        row_abs.resize(m, 0.0);
        let mut total = 0.0;
        // Where product j's rhs block starts in `rows`.
        let mut block0 = depth * m;
        for (pb, out) in pbs.iter().zip(outs.iter_mut()) {
            let n = pb.n();
            if m * n == 0 {
                continue;
            }
            if *naive {
                tile.clear();
                tile.resize(m * n, 0.0);
                tn_naive_acc(&rows[..k * m], m, &rows[block0..block0 + k * n], n, tile);
                kernels::add_abs_rows(&mut out.data, tile, n, row_abs);
                block0 += depth * n;
            } else {
                let at = &at[..m * k];
                let rows_per = Matrix::rows_per_worker((m, k, n), cfg);
                let tile_rows = (TILE_ELEMS / n / TILE_ROW_STEP).max(1) * TILE_ROW_STEP;
                let tile_rows = tile_rows.min(rows_per);
                tile.resize(m.div_ceil(rows_per) * tile_rows * n, 0.0);
                let sides = tile
                    .chunks_mut(tile_rows * n)
                    .zip(row_abs.chunks_mut(rows_per));
                Matrix::dispatch_rows_with(
                    &mut out.data,
                    (m, k, n),
                    cfg,
                    sides,
                    |simd, row0, _, chunk, (tile, abs)| {
                        let blocks = chunk
                            .chunks_mut(tile_rows * n)
                            .zip(abs.chunks_mut(tile_rows));
                        for (b, (out_rows, abs)) in blocks.enumerate() {
                            let tile = &mut tile[..out_rows.len()];
                            nn_rows(simd, at, k, pb, row0 + b * tile_rows, abs.len(), tile);
                            kernels::add_abs_rows(out_rows, tile, n, abs);
                        }
                    },
                );
            }
            total += row_abs.iter().sum::<f64>();
        }
        Ok(total)
    }
}

/// A dense row-major `f32` matrix.
///
/// # Example
///
/// ```
/// use eta_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
/// assert_eq!(m.get(0, 0), 1.0);
/// assert_eq!(m.get(0, 1), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix with every element `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the backing buffer in bytes (4 bytes per `f32`).
    pub fn size_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows` or `col >= cols`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows` or `col >= cols`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// The whole backing buffer in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow of row `r` as a slice of length `cols`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut data = vec![0.0; self.data.len()];
        self.transpose_into(&mut data, self.rows, 0);
        Matrix {
            rows: self.cols,
            cols: self.rows,
            data,
        }
    }

    /// Writes the transpose into columns `[col0, col0 + rows)` of `out`,
    /// a row-major buffer of `stride`-wide rows. Cache-blocked (32×32
    /// tiles so both the source rows and destination rows of a tile fit
    /// in L1 together): the `tn` product transposes A so the streaming
    /// row kernel can read it contiguously instead of striding down
    /// columns — O(r·c) copies next to the O(r·c·n) GEMM that follows.
    fn transpose_into(&self, out: &mut [f32], stride: usize, col0: usize) {
        const TB: usize = 32;
        let (r, c) = (self.rows, self.cols);
        for i0 in (0..r).step_by(TB) {
            let ih = TB.min(r - i0);
            for j0 in (0..c).step_by(TB) {
                let jw = TB.min(c - j0);
                for i in i0..i0 + ih {
                    for j in j0..j0 + jw {
                        out[j * stride + col0 + i] = self.data[i * c + j];
                    }
                }
            }
        }
    }

    /// `self · rhs` with both operands untransposed:
    /// `[m, k] · [k, n] -> [m, n]`.
    ///
    /// Above [`PACK_MIN_FLOPS`] the product packs `rhs` and runs the
    /// register-blocked kernel (bit-identical to
    /// [`Matrix::matmul_nn_naive`] on the scalar tier, ULP-bounded
    /// under SIMD); below it, the naive loop.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols != rhs.rows`.
    pub fn matmul_nn(&self, rhs: &Matrix) -> Result<Matrix> {
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        if self.cols == rhs.rows && m * k * n >= PACK_MIN_FLOPS {
            return self.par_matmul_nn_packed(&PackedB::from_nn(rhs), &ParallelConfig::serial());
        }
        self.matmul_nn_naive(rhs)
    }

    /// Naive reference `self · rhs`: one row-loop per output row with a
    /// zero-skip on the A element. The packed kernels are defined (and
    /// proptested) to be bit-identical to this loop.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols != rhs.rows`.
    pub fn matmul_nn_naive(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_nn",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            nn_row(a_row, &rhs.data, n, &mut out.data[i * n..(i + 1) * n]);
        }
        Ok(out)
    }

    /// `self · rhsᵀ`: `[m, k] · [n, k]ᵀ -> [m, n]`.
    ///
    /// This is the forward-propagation orientation: activations
    /// `[batch, in] · W[out, in]ᵀ -> [batch, out]`. Above
    /// [`PACK_MIN_FLOPS`] the product packs `rhs` and runs the
    /// register-blocked kernel (bit-identical to
    /// [`Matrix::matmul_nt_naive`] on the scalar tier, ULP-bounded
    /// under SIMD); below it, the naive loop.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols != rhs.cols`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Result<Matrix> {
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        if self.cols == rhs.cols && m * k * n >= PACK_MIN_FLOPS {
            let mut out = Matrix::zeros(m, n);
            let serial = ParallelConfig::serial();
            self.matmul_nt_packed_into(&PackedB::from_nt(rhs), &mut out, Store::Assign, &serial)?;
            return Ok(out);
        }
        self.matmul_nt_naive(rhs)
    }

    /// Naive reference `self · rhsᵀ`: one dot-product accumulator per
    /// output element, no zero-skip. The packed kernels are defined
    /// (and proptested) to be bit-identical to this loop.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols != rhs.cols`.
    pub fn matmul_nt_naive(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_nt",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            nt_row(a_row, &rhs.data, k, &mut out.data[i * n..(i + 1) * n]);
        }
        Ok(out)
    }

    /// In-place `out (+)= self · Bᵀ` against an already-packed B, with
    /// [`Store::Assign`] overwriting and [`Store::Add`] accumulating.
    /// The accumulating form still computes each product tile from zero
    /// and adds it once, so it is bit-identical to building the product
    /// separately and [`Matrix::add_assign`]-ing it. Row panels run in
    /// parallel when `cfg` allows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the operand widths or
    /// `out`'s shape do not match.
    pub fn matmul_nt_packed_into(
        &self,
        pb: &PackedB,
        out: &mut Matrix,
        store: Store,
        cfg: &ParallelConfig,
    ) -> Result<()> {
        let (m, k, n) = (self.rows, self.cols, pb.n());
        if self.cols != pb.k() || out.rows != m || out.cols != n {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_nt_packed_into",
                lhs: (self.rows, self.cols),
                rhs: (pb.n(), pb.k()),
            });
        }
        let a = &self.data;
        Self::dispatch_rows(&mut out.data, (m, k, n), cfg, |simd, row0, rows, chunk| {
            let a_rows = row_block(a, k, row0, rows);
            if simd {
                crate::simd::gemm_rows_nt(a_rows, rows, k, pb, chunk, store);
            } else {
                kernels::gemm_nt_rows(a_rows, rows, k, pb, chunk, store);
            }
        });
        Ok(())
    }

    /// In-place `out[i][j] = f(j, out[i][j] + (self · Bᵀ)[i][j])`
    /// against an already-packed B — the fused-epilogue hook the LSTM
    /// cell uses to fold bias addition and gate activation into the
    /// preactivation GEMM's store pass. Row panels run in parallel when
    /// `cfg` allows; `f` must be pure for that to be deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the operand widths or
    /// `out`'s shape do not match.
    pub fn matmul_nt_packed_epilogue<F: Fn(usize, f32) -> f32 + Sync>(
        &self,
        pb: &PackedB,
        out: &mut Matrix,
        cfg: &ParallelConfig,
        f: F,
    ) -> Result<()> {
        let (m, k, n) = (self.rows, self.cols, pb.n());
        if self.cols != pb.k() || out.rows != m || out.cols != n {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_nt_packed_epilogue",
                lhs: (self.rows, self.cols),
                rhs: (pb.n(), pb.k()),
            });
        }
        let a = &self.data;
        let f = &f;
        Self::dispatch_rows(&mut out.data, (m, k, n), cfg, |simd, row0, rows, chunk| {
            let a_rows = row_block(a, k, row0, rows);
            if simd {
                crate::simd::gemm_rows_nt_epilogue(a_rows, rows, k, pb, chunk, f);
            } else {
                kernels::gemm_nt_rows_epilogue(a_rows, rows, k, pb, chunk, f);
            }
        });
        Ok(())
    }

    /// `selfᵀ · rhs`: `[k, m]ᵀ · [k, n] -> [m, n]`.
    ///
    /// This is the weight-gradient orientation: gate gradients
    /// `[batch, out]ᵀ · x [batch, in] -> [out, in]` (the paper's outer
    /// product summed over the batch, Eq. 3). Above [`PACK_MIN_FLOPS`]
    /// the product lays the operands out as [`TnScratch::push`] does
    /// and runs the register-blocked kernel (bit-identical to
    /// [`Matrix::matmul_tn_naive`] on the scalar tier — the tiled
    /// kernel accumulates each output element over the same ascending
    /// batch order `p = 0..k` — and ULP-bounded under SIMD); below it,
    /// the naive loop.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.rows != rhs.rows`.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Result<Matrix> {
        let (k, m, n) = (self.rows, self.cols, rhs.cols);
        if self.rows == rhs.rows && m * k * n >= PACK_MIN_FLOPS {
            let mut acc = TnScratch::default();
            acc.reset(k);
            acc.push(self, &[rhs])?;
            let mut out = Matrix::zeros(m, n);
            let simd = crate::simd::use_simd(m, k, n);
            nn_rows(simd, &acc.at, k, &acc.pbs[0], 0, m, &mut out.data);
            return Ok(out);
        }
        self.matmul_tn_naive(rhs)
    }

    /// Naive reference `selfᵀ · rhs`: `p`-outer sweep with a zero-skip
    /// on the A element, accumulating each output element in ascending
    /// `p`. The packed kernels are defined (and proptested) to be
    /// bit-identical to this loop.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.rows != rhs.rows`.
    pub fn matmul_tn_naive(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_tn",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        tn_naive_acc(&self.data, self.cols, &rhs.data, rhs.cols, &mut out.data);
        Ok(out)
    }

    /// In-place accumulating `out += selfᵀ · rhs`:
    /// [`Matrix::matmul_tn_acc_abs_into`] with a scratch of its own and
    /// the magnitude dropped, so it is bit-identical to `matmul_tn`
    /// followed by [`Matrix::add_assign`]. A caller that runs it per
    /// timestep should hold a [`TnScratch`] and call the fused entry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.rows != rhs.rows`
    /// or `out` is not `[self.cols, rhs.cols]`.
    pub fn matmul_tn_acc_into(
        &self,
        rhs: &Matrix,
        out: &mut Matrix,
        cfg: &ParallelConfig,
    ) -> Result<()> {
        self.matmul_tn_acc_abs_into(rhs, out, &mut TnScratch::default(), cfg)
            .map(drop)
    }

    /// In-place `out += selfᵀ · rhs` that also returns `Σ|selfᵀ · rhs|`
    /// — the weight gradient of one BPTT cell (`δW += δgatesᵀ · x`,
    /// Eq. 3) and that cell's Fig. 8 magnitude, from one pass over
    /// `out`: one [`TnScratch::push`] and one [`TnScratch::flush`] on
    /// `scratch`, which is reset first (rows another caller left pending
    /// in it are dropped). See `flush` for the association rules.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.rows != rhs.rows`
    /// or `out` is not `[self.cols, rhs.cols]`.
    pub fn matmul_tn_acc_abs_into(
        &self,
        rhs: &Matrix,
        out: &mut Matrix,
        scratch: &mut TnScratch,
        cfg: &ParallelConfig,
    ) -> Result<f64> {
        scratch.reset(self.rows);
        scratch.push(self, &[rhs])?;
        scratch.flush(&mut [out], cfg)
    }

    /// Rows each worker of [`Matrix::dispatch_rows`] takes: all `m` when
    /// the product runs serially under `cfg`, otherwise an even cut —
    /// clamping the worker count to the machine keeps the shim's
    /// thread-per-spawn model honest.
    fn rows_per_worker((m, k, n): (usize, usize, usize), cfg: &ParallelConfig) -> usize {
        if !cfg.should_parallelize(m, k, n, m) {
            return m;
        }
        let threads = cfg.threads.min(rayon::current_num_threads()).max(1);
        let rows_per = m.div_ceil(threads).max(1);
        debug_assert!(rows_per.saturating_mul(threads) >= m);
        rows_per
    }

    /// [`Matrix::dispatch_rows_with`] for a kernel that needs no
    /// per-worker scratch.
    fn dispatch_rows<K>(
        out: &mut [f32],
        shape: (usize, usize, usize),
        cfg: &ParallelConfig,
        kernel: K,
    ) where
        K: Fn(bool, usize, usize, &mut [f32]) + Sync,
    {
        let sides = std::iter::repeat(());
        Self::dispatch_rows_with(out, shape, cfg, sides, |simd, row0, rows, chunk, ()| {
            kernel(simd, row0, rows, chunk)
        });
    }

    /// The one GEMM dispatch sequence. The kernel family is fixed from
    /// the FULL logical `[m, k] · [k, n]` shape before any row
    /// partitioning, so every worker (and the serial sweep) lands on
    /// the same family; then `kernel(simd, row0, rows, out_rows, side)`
    /// runs once over the whole `[m, n]` output, or — when `cfg` allows
    /// — on one disjoint block of [`Matrix::rows_per_worker`] rows per
    /// worker in a scoped thread. `sides` yields each block's private
    /// scratch, in block order. Blocks are a deterministic function of
    /// `(m, threads)` and each is produced by the same serial kernel
    /// sweep it would see single-threaded, so the partitioning never
    /// changes results.
    fn dispatch_rows_with<S, K>(
        out: &mut [f32],
        (m, k, n): (usize, usize, usize),
        cfg: &ParallelConfig,
        mut sides: impl Iterator<Item = S> + Send,
        kernel: K,
    ) where
        S: Send,
        K: Fn(bool, usize, usize, &mut [f32], S) + Sync,
    {
        let simd = crate::simd::use_simd(m, k, n);
        let rows_per = Self::rows_per_worker((m, k, n), cfg);
        if rows_per >= m {
            if let Some(side) = sides.next() {
                kernel(simd, 0, m, out, side);
            }
            return;
        }
        let kernel = &kernel;
        rayon::scope(|scope| {
            for (chunk_idx, (chunk, side)) in out.chunks_mut(rows_per * n).zip(sides).enumerate() {
                let row0 = chunk_idx * rows_per;
                scope.spawn(move |_| {
                    let rows = chunk.len() / n.max(1);
                    kernel(simd, row0, rows, chunk, side);
                });
            }
        });
    }

    /// `self · B` against an already-packed B (`[k, n]` packed with
    /// [`PackedB::from_nn`]) — the register-blocked `nn` kernel with no
    /// packing cost, over row blocks when `cfg` allows. Callers holding
    /// a panel cache (LSTM weights) skip both the size dispatch and the
    /// packing.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols != pb.k()`.
    pub fn par_matmul_nn_packed(&self, pb: &PackedB, cfg: &ParallelConfig) -> Result<Matrix> {
        if self.cols != pb.k() {
            return Err(TensorError::ShapeMismatch {
                op: "par_matmul_nn_packed",
                lhs: (self.rows, self.cols),
                rhs: (pb.k(), pb.n()),
            });
        }
        let (m, k, n) = (self.rows, self.cols, pb.n());
        let a = &self.data;
        let mut out = Matrix::zeros(m, n);
        Self::dispatch_rows(&mut out.data, (m, k, n), cfg, |simd, row0, rows, chunk| {
            nn_rows(simd, a, k, pb, row0, rows, chunk);
        });
        Ok(out)
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on differing shapes.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_map(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on differing shapes.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_map(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product `self ⊙ rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on differing shapes.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_map(rhs, "hadamard", |a, b| a * b)
    }

    /// In-place element-wise accumulation `self += rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on differing shapes.
    pub fn add_assign(&mut self, rhs: &Matrix) -> Result<()> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                op: "add_assign",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// In-place scaled accumulation `self += alpha * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on differing shapes.
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) -> Result<()> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Scales every element in place.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Adds a broadcast row vector to every row (bias addition).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `bias.len() != cols`.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) -> Result<()> {
        if bias.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: (self.rows, self.cols),
                rhs: (1, bias.len()),
            });
        }
        for r in 0..self.rows {
            for (v, &b) in self.data[r * self.cols..(r + 1) * self.cols]
                .iter_mut()
                .zip(bias.iter())
            {
                *v += b;
            }
        }
        Ok(())
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise combination of two equally-shaped matrices.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on differing shapes.
    pub fn zip_map<F: Fn(f32, f32) -> f32>(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: F,
    ) -> Result<Matrix> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Sum of the absolute values of all elements (the "magnitude" measure
    /// used by the paper's Fig. 8 gradient analysis).
    pub fn abs_sum(&self) -> f64 {
        self.data.iter().map(|v| v.abs() as f64).sum()
    }

    /// Sum of squares of all elements.
    pub fn sq_sum(&self) -> f64 {
        self.data.iter().map(|&v| (v as f64) * (v as f64)).sum()
    }

    /// Largest absolute element, or 0 for an empty matrix.
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Number of elements with `|v| < threshold` — the near-zero
    /// population that MS1's compression exploits.
    pub fn count_below(&self, threshold: f32) -> usize {
        self.data.iter().filter(|v| v.abs() < threshold).count()
    }

    /// Outer product of two vectors given as slices:
    /// `lhs ⊗ rhs -> [lhs.len(), rhs.len()]`.
    pub fn outer(lhs: &[f32], rhs: &[f32]) -> Matrix {
        let mut out = Matrix::zeros(lhs.len(), rhs.len());
        for (i, &a) in lhs.iter().enumerate() {
            for (j, &b) in rhs.iter().enumerate() {
                out.data[i * rhs.len() + j] = a * b;
            }
        }
        out
    }

    /// Horizontal concatenation `[self | rhs]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if row counts differ.
    pub fn hcat(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "hcat",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + rhs.cols);
        for r in 0..self.rows {
            let (left, right) = out.row_mut(r).split_at_mut(self.cols);
            left.copy_from_slice(self.row(r));
            right.copy_from_slice(rhs.row(r));
        }
        Ok(out)
    }

    /// Returns rows `[start, start + count)` as a new matrix — the
    /// microbatch-sharding primitive (batch rows are independent
    /// through the whole LSTM, so a row slice trains bit-identically
    /// to the same rows inside a larger batch).
    ///
    /// # Panics
    ///
    /// Panics if `start + count > rows`.
    pub fn rows_slice(&self, start: usize, count: usize) -> Matrix {
        assert!(
            start <= self.rows && count <= self.rows - start,
            "row slice out of bounds"
        );
        Matrix {
            rows: count,
            cols: self.cols,
            data: self.data[start * self.cols..(start + count) * self.cols].to_vec(),
        }
    }

    /// Returns columns `[start, start + width)` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `start + width > cols`.
    pub fn col_slice(&self, start: usize, width: usize) -> Matrix {
        assert!(
            start <= self.cols && width <= self.cols - start,
            "column slice out of bounds"
        );
        let mut out = Matrix::zeros(self.rows, width);
        for r in 0..self.rows {
            let row = self.row(r);
            debug_assert_eq!(row.len(), self.cols);
            out.row_mut(r).copy_from_slice(&row[start..start + width]);
        }
        out
    }

    /// Frobenius-norm relative difference between two matrices, used by
    /// gradient checking. Returns `‖a−b‖ / max(‖a‖, ‖b‖, ε)`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn rel_diff(&self, rhs: &Matrix) -> f64 {
        assert_eq!(self.rows, rhs.rows, "rel_diff shape mismatch");
        assert_eq!(self.cols, rhs.cols, "rel_diff shape mismatch");
        let mut num = 0.0f64;
        for (&a, &b) in self.data.iter().zip(rhs.data.iter()) {
            num += ((a - b) as f64).powi(2);
        }
        let denom = self.sq_sum().sqrt().max(rhs.sq_sum().sqrt()).max(1e-12);
        num.sqrt() / denom
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn zeros_has_expected_shape() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 4);
        assert_eq!(z.len(), 12);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        let err = Matrix::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn matmul_nn_matches_hand_computation() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul_nn(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = m(2, 3, &[1.0, -2.0, 0.5, 3.0, 4.0, -1.0]);
        let b = m(
            4,
            3,
            &[1.0, 0.0, 2.0, -1.0, 1.0, 0.0, 0.5, 0.5, 0.5, 2.0, -2.0, 1.0],
        );
        let fast = a.matmul_nt(&b).unwrap();
        let slow = a.matmul_nn(&b.transpose()).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = m(3, 2, &[1.0, -2.0, 0.5, 3.0, 4.0, -1.0]);
        let b = m(
            3,
            4,
            &[1.0, 0.0, 2.0, -1.0, 1.0, 0.0, 0.5, 0.5, 0.5, 2.0, -2.0, 1.0],
        );
        let fast = a.matmul_tn(&b).unwrap();
        let slow = a.transpose().matmul_nn(&b).unwrap();
        assert_eq!(fast, slow);
    }

    /// `a · bᵀ` through the packed in-place entry under `cfg`.
    fn nt_into(a: &Matrix, b: &Matrix, cfg: &ParallelConfig) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        a.matmul_nt_packed_into(&PackedB::from_nt(b), &mut out, Store::Assign, cfg)
            .unwrap();
        out
    }

    /// `aᵀ · b` through the accumulating entry onto zeros under `cfg`.
    fn tn_into(a: &Matrix, b: &Matrix, cfg: &ParallelConfig) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        a.matmul_tn_acc_into(b, &mut out, cfg).unwrap();
        out
    }

    /// The determinism contract of the η-parallel kernels: above the
    /// fallback threshold, every orientation is **bit-identical** to
    /// its serial kernel at every thread count (not merely close).
    #[test]
    fn parallel_kernels_are_bit_identical_to_serial() {
        use crate::init;
        // Force the parallel path on modest shapes.
        let mut cfg = ParallelConfig::with_threads(2);
        cfg.min_kernel_flops = 1;
        let a = init::uniform(64, 48, -1.0, 1.0, 21);
        let b_nn = init::uniform(48, 40, -1.0, 1.0, 22);
        let b_nt = init::uniform(40, 48, -1.0, 1.0, 23);
        let b_tn = init::uniform(64, 40, -1.0, 1.0, 24);
        for threads in [2usize, 3, 5, 8] {
            cfg.threads = threads;
            assert_eq!(
                a.par_matmul_nn_packed(&PackedB::from_nn(&b_nn), &cfg)
                    .unwrap(),
                a.matmul_nn(&b_nn).unwrap(),
                "nn threads={threads}"
            );
            assert_eq!(
                nt_into(&a, &b_nt, &cfg),
                a.matmul_nt(&b_nt).unwrap(),
                "nt threads={threads}"
            );
            assert_eq!(
                tn_into(&a, &b_tn, &cfg),
                a.matmul_tn(&b_tn).unwrap(),
                "tn threads={threads}"
            );
        }
        // Above the default parallel threshold, unforced.
        let a = init::uniform(256, 160, -1.0, 1.0, 11);
        let b = init::uniform(200, 160, -1.0, 1.0, 12);
        let serial = a.matmul_nt(&b).unwrap();
        for threads in [1usize, 2, 4, 7] {
            let cfg = ParallelConfig::with_threads(threads);
            assert_eq!(nt_into(&a, &b, &cfg), serial, "threads={threads}");
        }
        // Below it (serial fallback inside the parallel entry).
        let small = init::uniform(8, 8, -1.0, 1.0, 13);
        assert_eq!(
            nt_into(&small, &small, &ParallelConfig::with_threads(4)),
            small.matmul_nt(&small).unwrap()
        );
    }

    #[test]
    fn rows_slice_extracts_contiguous_rows() {
        let a = m(4, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let mid = a.rows_slice(1, 2);
        assert_eq!(mid.rows(), 2);
        assert_eq!(mid.as_slice(), &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.rows_slice(0, 4), a);
        assert_eq!(a.rows_slice(4, 0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "row slice out of bounds")]
    fn rows_slice_rejects_out_of_bounds() {
        Matrix::zeros(2, 2).rows_slice(1, 2);
    }

    /// SIMD-vs-scalar closeness: ULP-close, or within the
    /// condition-scaled floor `2k·ε·Σ|a·b|` (cancellation-heavy
    /// elements have no meaningful relative bound).
    fn assert_gemm_close(got: &Matrix, reference: &Matrix, absref: &Matrix, k: usize) {
        let tol = 2.0 * k as f32 * f32::EPSILON;
        for ((idx, (&g, &r)), &ab) in got
            .as_slice()
            .iter()
            .zip(reference.as_slice())
            .enumerate()
            .zip(absref.as_slice())
        {
            let ulp_ok = g == r
                || (g.signum() == r.signum() && g.abs().to_bits().abs_diff(r.abs().to_bits()) <= 8);
            assert!(
                ulp_ok || (g - r).abs() <= tol * ab,
                "elem {idx}: {g} vs {r} (abs bound {})",
                tol * ab
            );
        }
    }

    #[test]
    fn packed_dispatch_is_bit_identical_to_naive() {
        use crate::init;
        // Above PACK_MIN_FLOPS: the implicit entry points take the
        // packed kernels. With SIMD disabled (or unsupported) the
        // scalar packed kernels must equal the naive loops bitwise;
        // with SIMD enabled the result is FMA-contracted, so the
        // contract weakens to the documented ULP/condition budget —
        // while the dispatch entry must still agree **bitwise** with
        // the explicit packed entry (same shape ⇒ same path).
        let a = init::uniform(65, 70, -2.0, 2.0, 5);
        let b_nn = init::uniform(70, 66, -2.0, 2.0, 6);
        let b_nt = init::uniform(66, 70, -2.0, 2.0, 7);
        let a_tn = init::uniform(70, 65, -2.0, 2.0, 8);
        let nn = a.matmul_nn(&b_nn).unwrap();
        let nt = a.matmul_nt(&b_nt).unwrap();
        let tn = a_tn.matmul_tn(&b_nn).unwrap();
        if crate::simd::enabled() {
            let k = 70;
            let abs_nn = a
                .map(f32::abs)
                .matmul_nn_naive(&b_nn.map(f32::abs))
                .unwrap();
            let abs_nt = a
                .map(f32::abs)
                .matmul_nt_naive(&b_nt.map(f32::abs))
                .unwrap();
            let abs_tn = a_tn
                .map(f32::abs)
                .matmul_tn_naive(&b_nn.map(f32::abs))
                .unwrap();
            assert_gemm_close(&nn, &a.matmul_nn_naive(&b_nn).unwrap(), &abs_nn, k);
            assert_gemm_close(&nt, &a.matmul_nt_naive(&b_nt).unwrap(), &abs_nt, k);
            assert_gemm_close(&tn, &a_tn.matmul_tn_naive(&b_nn).unwrap(), &abs_tn, k);
            let serial = ParallelConfig::serial();
            assert_eq!(
                nn,
                a.par_matmul_nn_packed(&PackedB::from_nn(&b_nn), &serial)
                    .unwrap()
            );
            assert_eq!(nt, nt_into(&a, &b_nt, &serial));
            assert_eq!(tn, tn_into(&a_tn, &b_nn, &serial));
        } else {
            assert_eq!(nn, a.matmul_nn_naive(&b_nn).unwrap());
            assert_eq!(nt, a.matmul_nt_naive(&b_nt).unwrap());
            assert_eq!(tn, a_tn.matmul_tn_naive(&b_nn).unwrap());
        }
    }

    #[test]
    fn transpose_moves_every_element_across_tile_edges() {
        use crate::init;
        // Tile edges in both dimensions, plus degenerate shapes.
        for (r, c) in [(1usize, 1usize), (31, 33), (32, 32), (65, 100), (3, 200)] {
            let a = init::uniform(r, c, -2.0, 2.0, (r * 1000 + c) as u64);
            let expected = Matrix::from_fn(c, r, |i, j| a.get(j, i));
            assert_eq!(a.transpose(), expected, "{r}x{c}");
        }
    }

    #[test]
    fn into_and_epilogue_forms_agree_with_dispatch_above_threshold() {
        use crate::init;
        // The reference cell (dispatch entries) and the production
        // cell (packed entries) must stay bitwise interchangeable above
        // the SIMD threshold — the dispatch decision is a function of the
        // full logical shape only.
        let cfg = ParallelConfig::serial();
        let x = init::uniform(48, 40, -1.0, 1.0, 51);
        let w = init::uniform(64, 40, -1.0, 1.0, 52);
        let pb = PackedB::from_nt(&w);
        let dispatch = x.matmul_nt(&w).unwrap();
        let mut into = Matrix::zeros(48, 64);
        x.matmul_nt_packed_into(&pb, &mut into, Store::Assign, &cfg)
            .unwrap();
        assert_eq!(dispatch, into);
        // Epilogue with identity transform equals Add onto zeros.
        let mut epi = Matrix::zeros(48, 64);
        x.matmul_nt_packed_epilogue(&pb, &mut epi, &cfg, |_, v| v)
            .unwrap();
        assert_eq!(dispatch, epi);
    }

    #[test]
    fn packed_apis_match_dispatch_and_reject_mismatches() {
        use crate::init;
        let cfg = ParallelConfig::with_threads(2);
        let a = init::uniform(9, 12, -1.0, 1.0, 14);
        let b_nn = init::uniform(12, 10, -1.0, 1.0, 15);
        let b_nt = init::uniform(10, 12, -1.0, 1.0, 16);
        let pb_nn = PackedB::from_nn(&b_nn);
        let pb_nt = PackedB::from_nt(&b_nt);
        // Explicit packed APIs always run the tiled kernel and still
        // agree with the naive loops bitwise, even below the dispatch
        // threshold.
        assert_eq!(
            a.par_matmul_nn_packed(&pb_nn, &cfg).unwrap(),
            a.matmul_nn_naive(&b_nn).unwrap()
        );
        assert_eq!(nt_into(&a, &b_nt, &cfg), a.matmul_nt_naive(&b_nt).unwrap());
        // The into/accumulate forms match product-then-add_assign.
        let base = init::uniform(9, 10, -1.0, 1.0, 17);
        let mut acc = base.clone();
        a.matmul_nt_packed_into(&pb_nt, &mut acc, Store::Add, &cfg)
            .unwrap();
        let mut reference = base.clone();
        reference
            .add_assign(&a.matmul_nt_naive(&b_nt).unwrap())
            .unwrap();
        assert_eq!(acc, reference);

        let rhs_tn = init::uniform(9, 11, -1.0, 1.0, 18);
        let mut dw = init::uniform(12, 11, -1.0, 1.0, 19);
        let mut dw_ref = dw.clone();
        a.matmul_tn_acc_into(&rhs_tn, &mut dw, &cfg).unwrap();
        dw_ref
            .add_assign(&a.matmul_tn_naive(&rhs_tn).unwrap())
            .unwrap();
        assert_eq!(dw, dw_ref);

        // Shape mismatches are rejected on every packed entry point.
        assert!(a
            .par_matmul_nn_packed(&PackedB::from_nn(&Matrix::zeros(5, 4)), &cfg)
            .is_err());
        assert!(a
            .matmul_nt_packed_epilogue(&pb_nt, &mut Matrix::zeros(9, 3), &cfg, |_, v| v)
            .is_err());
        assert!(a
            .matmul_nt_packed_into(&pb_nt, &mut Matrix::zeros(9, 3), Store::Assign, &cfg)
            .is_err());
        assert!(a
            .matmul_tn_acc_into(&rhs_tn, &mut Matrix::zeros(3, 3), &cfg)
            .is_err());
    }

    #[test]
    fn fused_epilogue_matches_separate_passes() {
        use crate::init;
        let cfg = ParallelConfig::with_threads(3);
        let x = init::uniform(11, 6, -1.0, 1.0, 25);
        let w = init::uniform(8, 6, -1.0, 1.0, 26);
        let pb = PackedB::from_nt(&w);
        let bias = [0.5f32, -1.0, 0.0, 0.25, 2.0, -0.5, 1.5, 0.75];

        let mut fused = Matrix::zeros(11, 8);
        x.matmul_nt_packed_epilogue(&pb, &mut fused, &cfg, |j, v| (v + bias[j]).tanh())
            .unwrap();

        let mut reference = x.matmul_nt_naive(&w).unwrap();
        reference.add_row_broadcast(&bias).unwrap();
        reference.map_inplace(f32::tanh);
        assert_eq!(fused, reference);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul_nn(&b).is_err());
        assert!(a.matmul_nt(&Matrix::zeros(4, 5)).is_err());
        assert!(a.matmul_tn(&Matrix::zeros(5, 2)).is_err());
    }

    #[test]
    fn transpose_round_trips() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn hadamard_and_add_work() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[4.0, 5.0, 6.0]);
        assert_eq!(a.hadamard(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn axpy_accumulates_scaled() {
        let mut a = m(1, 2, &[1.0, 1.0]);
        let b = m(1, 2, &[2.0, -4.0]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2.0, -1.0]);
    }

    #[test]
    fn broadcast_bias_adds_to_every_row() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_broadcast(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(a.row(1), &[1.0, 2.0, 3.0]);
        assert!(a.add_row_broadcast(&[1.0]).is_err());
    }

    #[test]
    fn outer_product_matches_matmul_tn() {
        let u = [1.0f32, 2.0, 3.0];
        let v = [4.0f32, 5.0];
        let o = Matrix::outer(&u, &v);
        assert_eq!(o.rows(), 3);
        assert_eq!(o.cols(), 2);
        assert_eq!(o.get(2, 1), 15.0);
        let um = m(1, 3, &u);
        let vm = m(1, 2, &v);
        assert_eq!(o, um.matmul_tn(&vm).unwrap());
    }

    #[test]
    fn hcat_and_col_slice_invert() {
        let a = m(2, 2, &[1.0, 2.0, 5.0, 6.0]);
        let b = m(2, 1, &[3.0, 7.0]);
        let c = a.hcat(&b).unwrap();
        assert_eq!(c.cols(), 3);
        assert_eq!(c.col_slice(0, 2), a);
        assert_eq!(c.col_slice(2, 1), b);
    }

    #[test]
    fn statistics_are_correct() {
        let a = m(1, 4, &[-1.0, 0.05, 2.0, -0.01]);
        assert!((a.abs_sum() - 3.06).abs() < 1e-6);
        assert_eq!(a.abs_max(), 2.0);
        assert_eq!(a.count_below(0.1), 2);
    }

    #[test]
    fn rel_diff_zero_for_identical() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.rel_diff(&a), 0.0);
        let b = m(2, 2, &[1.0, 2.0, 3.0, 4.5]);
        assert!(a.rel_diff(&b) > 0.0);
    }

    #[test]
    fn map_and_scale() {
        let mut a = m(1, 3, &[1.0, -2.0, 3.0]);
        let b = a.map(f32::abs);
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[2.0, -4.0, 6.0]);
    }

    #[test]
    fn size_bytes_counts_f32() {
        assert_eq!(Matrix::zeros(4, 4).size_bytes(), 64);
    }
}
