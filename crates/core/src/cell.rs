//! One LSTM cell: the forward pass (paper Eq. 1 and the state/output
//! updates of Fig. 2a) and the backward pass (Eq. 2–3, Fig. 2b).
//!
//! The backward pass is deliberately factored through the **BP-EW-P1
//! products** (see [`P1Dense`]): the parts of the gate-gradient
//! element-wise computation that depend *only* on forward intermediates.
//! The baseline flow computes them on the fly from the stored dense
//! intermediates; the MS1 flow (module [`crate::ms1`]) computes them
//! during the forward pass, prunes and compresses them, and feeds the
//! decoded sparse versions through the *same* [`backward`] routine —
//! which makes MS1 bit-exact at threshold 0, a property the test suite
//! checks.
//!
//! Gate layout throughout: the `4H`-wide dimension is ordered
//! `[input | forget | cell | output]`.

use crate::workspace::{BwdBuffers, LayerPanels, P1Buffers};
use crate::{LstmError, Result};
use eta_tensor::{activation, init, Matrix, ParallelConfig, Store};
use serde::{Deserialize, Serialize};

/// Parameters of one LSTM layer's cell: `W [4H × in]`, `U [4H × H]`,
/// bias `[4H]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellParams {
    /// Input projection, `[4H, in]`.
    pub w: Matrix,
    /// Recurrent projection, `[4H, H]`.
    pub u: Matrix,
    /// Gate biases, length `4H`. Initialized with the forget-gate block
    /// at +1 (the standard trick to keep early state gradients alive).
    pub b: Vec<f32>,
}

impl CellParams {
    /// Xavier-initialized parameters for the given widths.
    pub fn new(input: usize, hidden: usize, seed: u64) -> Self {
        let mut b = vec![0.0; 4 * hidden];
        // Forget-gate bias block = +1.
        for v in &mut b[hidden..2 * hidden] {
            *v = 1.0;
        }
        CellParams {
            w: init::xavier_uniform(4 * hidden, input, seed),
            u: init::xavier_uniform(4 * hidden, hidden, seed.wrapping_add(1)),
            b,
        }
    }

    /// Hidden width `H`.
    pub fn hidden(&self) -> usize {
        self.u.cols()
    }

    /// Input width.
    pub fn input(&self) -> usize {
        self.w.cols()
    }

    /// Total parameter bytes (`W`, `U`, `b`).
    pub fn size_bytes(&self) -> u64 {
        self.w.size_bytes() + self.u.size_bytes() + (self.b.len() * 4) as u64
    }
}

/// Forward intermediates of one cell at one timestep — exactly the
/// variables the paper identifies as the storage problem
/// (`i_t, f_t, c_t, o_t, s_t`, Sec. III-B), plus `tanh(s_t)` which the
/// backward pass reuses.
#[derive(Debug, Clone, PartialEq)]
pub struct CellForward {
    /// Input gate `i_t`, `[batch, H]`.
    pub i: Matrix,
    /// Forget gate `f_t`.
    pub f: Matrix,
    /// Cell gate `c_t` (candidate values, tanh-activated).
    pub c: Matrix,
    /// Output gate `o_t`.
    pub o: Matrix,
    /// Cell state `s_t`.
    pub s: Matrix,
    /// `tanh(s_t)` — cached because both `h_t` and the backward pass
    /// need it.
    pub tanh_s: Matrix,
    /// Context output `h_t = o_t ⊙ tanh(s_t)`.
    pub h: Matrix,
}

impl CellForward {
    /// Bytes of the intermediates the baseline flow must keep for BP:
    /// the five paper-named tensors (`i,f,c,o,s`).
    pub fn stored_bytes(&self) -> u64 {
        self.i.size_bytes() * 5
    }

    /// An empty (0×0) record to hand to [`forward_ws`] — the first fill
    /// sizes every field; later fills reuse the buffers.
    pub fn empty() -> Self {
        CellForward {
            i: Matrix::zeros(0, 0),
            f: Matrix::zeros(0, 0),
            c: Matrix::zeros(0, 0),
            o: Matrix::zeros(0, 0),
            s: Matrix::zeros(0, 0),
            tanh_s: Matrix::zeros(0, 0),
            h: Matrix::zeros(0, 0),
        }
    }
}

/// The BP-EW-P1 products: every factor of the gate-gradient element-wise
/// math that depends only on forward intermediates (paper Sec. IV-A).
///
/// With `δS'` the accumulated state gradient and `δH'` the summed
/// context/output gradient, the backward element-wise stage is:
///
/// ```text
/// δô      = δH' ⊙ p_o        p_o = tanh(s_t) ⊙ o(1−o)
/// δS'     = δS  + δH' ⊙ p_h   p_h = o ⊙ (1−tanh²(s_t))
/// δî      = δS' ⊙ p_i        p_i = c ⊙ i(1−i)
/// δĉ      = δS' ⊙ p_c        p_c = i ⊙ (1−c²)
/// δf̂      = δS' ⊙ p_f        p_f = s_{t−1} ⊙ f(1−f)
/// δS_{t−1} = δS' ⊙ p_s        p_s = f
/// ```
///
/// All six products lie in `[−1, 1]` by construction, which is what
/// makes them prunable (paper Fig. 6).
#[derive(Debug, Clone, PartialEq)]
pub struct P1Dense {
    /// `c ⊙ i(1−i)`.
    pub p_i: Matrix,
    /// `s_{t−1} ⊙ f(1−f)`.
    pub p_f: Matrix,
    /// `i ⊙ (1−c²)`.
    pub p_c: Matrix,
    /// `tanh(s_t) ⊙ o(1−o)`.
    pub p_o: Matrix,
    /// `o ⊙ (1−tanh²(s_t))`.
    pub p_h: Matrix,
    /// `f` (the state-chain pass-through).
    pub p_s: Matrix,
}

impl P1Dense {
    /// Computes the P1 products from a cell's forward intermediates and
    /// its incoming state `s_{t−1}`.
    ///
    /// # Errors
    ///
    /// Returns a tensor shape error if `s_prev` does not match the cell's
    /// `[batch, H]` shape.
    pub fn compute(fw: &CellForward, s_prev: &Matrix) -> Result<Self> {
        let one_minus = |m: &Matrix| m.map(|v| 1.0 - v);
        let p_i = fw.c.hadamard(&fw.i.hadamard(&one_minus(&fw.i))?)?;
        let p_f = s_prev.hadamard(&fw.f.hadamard(&one_minus(&fw.f))?)?;
        let p_c = fw.i.hadamard(&fw.c.map(|v| 1.0 - v * v))?;
        let p_o = fw.tanh_s.hadamard(&fw.o.hadamard(&one_minus(&fw.o))?)?;
        let p_h = fw.o.hadamard(&fw.tanh_s.map(|v| 1.0 - v * v))?;
        let p_s = fw.f.clone();
        Ok(P1Dense {
            p_i,
            p_f,
            p_c,
            p_o,
            p_h,
            p_s,
        })
    }

    /// The six product matrices in a fixed order
    /// (`p_i, p_f, p_c, p_o, p_h, p_s`).
    pub fn streams(&self) -> [&Matrix; 6] {
        [
            &self.p_i, &self.p_f, &self.p_c, &self.p_o, &self.p_h, &self.p_s,
        ]
    }

    /// A borrowed view of the six products, for handing to
    /// [`backward_ws`] without cloning.
    pub fn as_ref(&self) -> P1Ref<'_> {
        P1Ref {
            p_i: &self.p_i,
            p_f: &self.p_f,
            p_c: &self.p_c,
            p_o: &self.p_o,
            p_h: &self.p_h,
            p_s: &self.p_s,
        }
    }

    /// Total dense bytes of the six streams.
    pub fn dense_bytes(&self) -> u64 {
        self.streams().iter().map(|m| m.size_bytes()).sum()
    }
}

/// Accumulated weight gradients for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct CellGrads {
    /// `δW`, `[4H, in]`.
    pub dw: Matrix,
    /// `δU`, `[4H, H]`.
    pub du: Matrix,
    /// `δb`, length `4H`.
    pub db: Vec<f32>,
}

impl CellGrads {
    /// Zeroed gradients matching `params`.
    pub fn zeros_like(params: &CellParams) -> Self {
        CellGrads {
            dw: Matrix::zeros(params.w.rows(), params.w.cols()),
            du: Matrix::zeros(params.u.rows(), params.u.cols()),
            db: vec![0.0; params.b.len()],
        }
    }

    /// Sum of absolute values across `δW` and `δU` — the per-cell
    /// "gradients magnitude" measure of paper Fig. 8.
    pub fn magnitude(&self) -> f64 {
        self.dw.abs_sum() + self.du.abs_sum()
    }

    /// Scales all gradients in place (the MS2 convergence-aware
    /// compensation factor).
    pub fn scale(&mut self, factor: f32) {
        self.dw.scale(factor);
        self.du.scale(factor);
        for v in &mut self.db {
            *v *= factor;
        }
    }

    /// Accumulates another gradient set into this one.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the gradient shapes differ.
    pub fn accumulate(&mut self, other: &CellGrads) -> Result<()> {
        self.dw.add_assign(&other.dw)?;
        self.du.add_assign(&other.du)?;
        for (a, &b) in self.db.iter_mut().zip(other.db.iter()) {
            *a += b;
        }
        Ok(())
    }
}

/// Gradients flowing out of one BP cell toward its producers.
#[derive(Debug, Clone, PartialEq)]
pub struct CellBackwardOut {
    /// `δX_t` toward the same timestep in the previous layer.
    pub dx: Matrix,
    /// `δH_{t−1}` toward the previous timestep in the same layer.
    pub dh_prev: Matrix,
    /// `δS_{t−1}` toward the previous timestep's cell state.
    pub ds_prev: Matrix,
}

/// Reference forward pass of one cell (paper Eq. 1 + state/output
/// updates): the unfused pipeline over the unpacked GEMM dispatchers,
/// serial. Production code runs [`forward_ws`]; this is the oracle the
/// tests compare it against.
///
/// `x` is `[batch, in]`, `h_prev` and `s_prev` are `[batch, H]`.
///
/// # Errors
///
/// Returns a tensor shape error if the operand shapes are inconsistent
/// with `params`.
pub fn forward(
    params: &CellParams,
    x: &Matrix,
    h_prev: &Matrix,
    s_prev: &Matrix,
) -> Result<CellForward> {
    let h = params.hidden();
    // preact = x·Wᵀ + h_prev·Uᵀ + b : [batch, 4H]
    let mut preact = x.matmul_nt(&params.w)?;
    preact.add_assign(&h_prev.matmul_nt(&params.u)?)?;
    preact.add_row_broadcast(&params.b)?;

    let i = preact.col_slice(0, h).map(activation::sigmoid);
    let f = preact.col_slice(h, h).map(activation::sigmoid);
    let c = preact.col_slice(2 * h, h).map(activation::tanh);
    let o = preact.col_slice(3 * h, h).map(activation::sigmoid);

    let s = f.hadamard(s_prev)?.add(&i.hadamard(&c)?)?;
    let tanh_s = s.map(activation::tanh);
    let h_out = o.hadamard(&tanh_s)?;

    Ok(CellForward {
        i,
        f,
        c,
        o,
        s,
        tanh_s,
        h: h_out,
    })
}

/// Reference backward pass of one cell expressed over the P1 products
/// (unfused, serial — the oracle for [`backward_ws`]).
///
/// `dh_total` is `δY_t + δH_t` (output gradient from the layer above plus
/// context gradient from the next timestep); `ds` is the incoming state
/// gradient `δS_t`. Weight gradients accumulate into `grads`.
///
/// # Errors
///
/// Returns a tensor shape error on inconsistent operand shapes.
pub fn backward(
    params: &CellParams,
    p1: &P1Dense,
    x: &Matrix,
    h_prev: &Matrix,
    dh_total: &Matrix,
    ds: &Matrix,
    grads: &mut CellGrads,
) -> Result<CellBackwardOut> {
    // BP-EW-P2: combine incoming gradients with the P1 products.
    let do_hat = dh_total.hadamard(&p1.p_o)?;
    let mut ds_acc = ds.clone();
    ds_acc.add_assign(&dh_total.hadamard(&p1.p_h)?)?;
    let di_hat = ds_acc.hadamard(&p1.p_i)?;
    let dc_hat = ds_acc.hadamard(&p1.p_c)?;
    let df_hat = ds_acc.hadamard(&p1.p_f)?;
    let ds_prev = ds_acc.hadamard(&p1.p_s)?;

    // δgates: [batch, 4H] in the fixed [i|f|c|o] order.
    let dgates = di_hat.hcat(&df_hat)?.hcat(&dc_hat)?.hcat(&do_hat)?;

    // BP-MatMul (Eq. 2): input and context gradients.
    let dx = dgates.matmul_nn(&params.w)?;
    let dh_prev = dgates.matmul_nn(&params.u)?;

    // BP-MatMul (Eq. 3): weight gradients (outer products summed over
    // the batch). Each of δW, δU, δb is formed for this cell and then
    // added to `grads` once.
    grads.dw.add_assign(&dgates.matmul_tn(x)?)?;
    grads.du.add_assign(&dgates.matmul_tn(h_prev)?)?;
    let mut db = vec![0.0f32; grads.db.len()];
    for r in 0..dgates.rows() {
        for (acc, &g) in db.iter_mut().zip(dgates.row(r).iter()) {
            *acc += g;
        }
    }
    for (acc, &g) in grads.db.iter_mut().zip(db.iter()) {
        *acc += g;
    }

    Ok(CellBackwardOut {
        dx,
        dh_prev,
        ds_prev,
    })
}

/// Borrowed view of the six BP-EW-P1 products. The workspace backward
/// path uses this so `p_s` can alias the forget gate already stored in
/// the tape (it is definitionally `f`) and the other five can live in a
/// reused [`P1Buffers`] arena — nothing is cloned per timestep.
#[derive(Debug, Clone, Copy)]
pub struct P1Ref<'a> {
    /// `c ⊙ i(1−i)`.
    pub p_i: &'a Matrix,
    /// `s_{t−1} ⊙ f(1−f)`.
    pub p_f: &'a Matrix,
    /// `i ⊙ (1−c²)`.
    pub p_c: &'a Matrix,
    /// `tanh(s_t) ⊙ o(1−o)`.
    pub p_o: &'a Matrix,
    /// `o ⊙ (1−tanh²(s_t))`.
    pub p_h: &'a Matrix,
    /// `f` (the state-chain pass-through).
    pub p_s: &'a Matrix,
}

/// [`P1Dense::compute`] into reused buffers: fills `buf` with the five
/// *computed* P1 products (`p_s` needs no buffer — it is `fw.f`).
/// Each fused loop performs the exact multiply sequence of the
/// hadamard pipeline in [`P1Dense::compute`], so the results are
/// bit-identical.
///
/// # Errors
///
/// Returns [`LstmError::BatchShape`] if `s_prev` does not match the
/// cell's `[batch, H]` shape.
pub fn compute_p1_into(buf: &mut P1Buffers, fw: &CellForward, s_prev: &Matrix) -> Result<()> {
    let (batch, h) = (fw.i.rows(), fw.i.cols());
    if s_prev.rows() != batch || s_prev.cols() != h {
        return Err(LstmError::BatchShape {
            detail: format!(
                "compute_p1_into: s_prev is {}x{}, cell is {batch}x{h}",
                s_prev.rows(),
                s_prev.cols()
            ),
        });
    }
    buf.ensure(batch, h);
    for ((dst, &iv), &cv) in buf
        .p_i
        .as_mut_slice()
        .iter_mut()
        .zip(fw.i.as_slice())
        .zip(fw.c.as_slice())
    {
        *dst = cv * (iv * (1.0 - iv));
    }
    for ((dst, &fv), &sp) in buf
        .p_f
        .as_mut_slice()
        .iter_mut()
        .zip(fw.f.as_slice())
        .zip(s_prev.as_slice())
    {
        *dst = sp * (fv * (1.0 - fv));
    }
    for ((dst, &iv), &cv) in buf
        .p_c
        .as_mut_slice()
        .iter_mut()
        .zip(fw.i.as_slice())
        .zip(fw.c.as_slice())
    {
        *dst = iv * (1.0 - cv * cv);
    }
    for ((dst, &ov), &ts) in buf
        .p_o
        .as_mut_slice()
        .iter_mut()
        .zip(fw.o.as_slice())
        .zip(fw.tanh_s.as_slice())
    {
        *dst = ts * (ov * (1.0 - ov));
    }
    for ((dst, &ov), &ts) in buf
        .p_h
        .as_mut_slice()
        .iter_mut()
        .zip(fw.o.as_slice())
        .zip(fw.tanh_s.as_slice())
    {
        *dst = ov * (1.0 - ts * ts);
    }
    Ok(())
}

/// Trace label for a GEMM span: the `_simd` variant when the logical
/// shape will route to the AVX2 microkernels, so a profile shows the
/// dispatch decision without re-deriving the gate.
fn gemm_label(
    simd_name: &'static str,
    scalar_name: &'static str,
    m: usize,
    k: usize,
    n: usize,
) -> &'static str {
    if eta_tensor::simd::use_simd(m, k, n) {
        simd_name
    } else {
        scalar_name
    }
}

/// Forward pass of one cell against pre-packed weight panels, written
/// into a caller-owned [`CellForward`]: the preactivation GEMM writes
/// into `preact`, and the recurrent GEMM's store pass fuses
/// `+ h_prev·Uᵀ + b` and the gate activation into its epilogue. `out`'s
/// fields are sized on first fill and reused afterwards, so the
/// sequence loop hands in a fresh record the tape will own while the
/// MS3 recompute refills its segment cache allocation-free. Takes the
/// bare preactivation buffer rather than the whole workspace because
/// that recompute borrows the workspace's `preact` and segment cache
/// as disjoint fields. Bit-identical to [`forward`] on the scalar tier
/// — same packed kernels, same `(x·Wᵀ + h·Uᵀ) + b` association, same
/// elementwise state update order.
///
/// # Errors
///
/// Returns a shape error if the operand shapes are inconsistent with
/// `params`/`panels`.
#[allow(clippy::too_many_arguments)]
pub fn forward_ws(
    params: &CellParams,
    panels: &LayerPanels,
    x: &Matrix,
    h_prev: &Matrix,
    s_prev: &Matrix,
    kernel: &ParallelConfig,
    preact: &mut Matrix,
    instruments: &crate::layer::Instruments,
    out: &mut CellForward,
) -> Result<()> {
    let h = params.hidden();
    let batch = x.rows();
    if s_prev.rows() != batch || s_prev.cols() != h {
        return Err(LstmError::BatchShape {
            detail: format!(
                "forward_ws: s_prev is {}x{}, expected {batch}x{h}",
                s_prev.rows(),
                s_prev.cols()
            ),
        });
    }
    crate::workspace::ensure_shape(preact, batch, 4 * h);

    {
        let _g = instruments.scope(gemm_label(
            "gemm_simd",
            "gemm",
            batch,
            x.cols(),
            panels.w_fwd.n(),
        ));
        x.matmul_nt_packed_into(&panels.w_fwd, preact, Store::Assign, kernel)?;
    }
    let b = &params.b;
    let tanh_cols = 2 * h..3 * h;
    {
        let _g = instruments.scope(gemm_label(
            "gemm_epilogue_simd",
            "gemm_epilogue",
            batch,
            h_prev.cols(),
            panels.u_fwd.n(),
        ));
        h_prev.matmul_nt_packed_epilogue(&panels.u_fwd, preact, kernel, |j, v| {
            debug_assert!(j < b.len());
            let z = v + b[j];
            if tanh_cols.contains(&j) {
                activation::tanh(z)
            } else {
                activation::sigmoid(z)
            }
        })?;
    }

    for m in [
        &mut out.i,
        &mut out.f,
        &mut out.c,
        &mut out.o,
        &mut out.s,
        &mut out.tanh_s,
        &mut out.h,
    ] {
        crate::workspace::ensure_shape(m, batch, h);
    }

    // Gate matrices are plain column copies out of the fused
    // preactivation buffer (exact, like `col_slice`).
    for r in 0..batch {
        let row = preact.row(r);
        debug_assert_eq!(row.len(), 4 * h);
        out.i.row_mut(r).copy_from_slice(&row[0..h]);
        out.f.row_mut(r).copy_from_slice(&row[h..2 * h]);
        out.c.row_mut(r).copy_from_slice(&row[2 * h..3 * h]);
        out.o.row_mut(r).copy_from_slice(&row[3 * h..4 * h]);
    }

    // s = f ⊙ s_prev + i ⊙ c, fused (two muls + one add per element —
    // the same scalar sequence as the hadamard/add pipeline).
    for ((dst, (&fv, &sp)), (&iv, &cv)) in out
        .s
        .as_mut_slice()
        .iter_mut()
        .zip(out.f.as_slice().iter().zip(s_prev.as_slice()))
        .zip(out.i.as_slice().iter().zip(out.c.as_slice()))
    {
        *dst = fv * sp + iv * cv;
    }
    for (dst, &sv) in out.tanh_s.as_mut_slice().iter_mut().zip(out.s.as_slice()) {
        *dst = activation::tanh(sv);
    }
    for ((dst, &ov), &ts) in out
        .h
        .as_mut_slice()
        .iter_mut()
        .zip(out.o.as_slice())
        .zip(out.tanh_s.as_slice())
    {
        *dst = ov * ts;
    }
    Ok(())
}

/// Backward pass of one cell against pre-packed weight panels and
/// reused [`BwdBuffers`]: the accumulated state gradient and the
/// `[batch, 4H]` gate-gradient block are written in place (no `clone`,
/// no `hcat`), the cell's `δb` is summed and added to `db` (the
/// layer's), and its `δW`/`δU` operands are pushed onto the
/// weight-gradient accumulator `bwd.tn` — they reach the layer's
/// gradient when the caller runs [`flush_weight_grads`], after this
/// cell or after a chunk of them (the caller sizes the chunk with
/// [`eta_tensor::TnScratch::reset`]). With `need_dx` off the `δX_t`
/// GEMM is skipped and `dx` comes back empty (`0 × 0`): nothing reads
/// the input gradient of the bottom layer. The only allocations left
/// are the returned matrices. Flushed after every cell, the gradient is
/// bit-identical to [`backward`]'s on the scalar tier.
///
/// # Errors
///
/// Returns a shape error on inconsistent operand shapes.
#[allow(clippy::too_many_arguments)]
pub fn backward_ws(
    panels: &LayerPanels,
    p1: &P1Ref<'_>,
    x: &Matrix,
    h_prev: &Matrix,
    dh_total: &Matrix,
    ds: &Matrix,
    db: &mut [f32],
    need_dx: bool,
    kernel: &ParallelConfig,
    bwd: &mut BwdBuffers,
    instruments: &crate::layer::Instruments,
) -> Result<CellBackwardOut> {
    let (batch, h) = (dh_total.rows(), dh_total.cols());
    for m in [p1.p_i, p1.p_f, p1.p_c, p1.p_o, p1.p_h, p1.p_s, ds] {
        if m.rows() != batch || m.cols() != h {
            return Err(LstmError::BatchShape {
                detail: format!(
                    "backward_ws: operand is {}x{}, cell is {batch}x{h}",
                    m.rows(),
                    m.cols()
                ),
            });
        }
    }
    bwd.ensure(batch, h);
    let BwdBuffers {
        ds_acc,
        dgates,
        db: cell_db,
        tn,
    } = bwd;

    let ew_scope = instruments.scope("bp_ew");
    // BP-EW-P2: δS' = δS + δH' ⊙ p_h, fused in place.
    for (((dst, &dsv), &dhv), &ph) in ds_acc
        .as_mut_slice()
        .iter_mut()
        .zip(ds.as_slice())
        .zip(dh_total.as_slice())
        .zip(p1.p_h.as_slice())
    {
        *dst = dsv + dhv * ph;
    }

    // δgates written block-row-wise straight into the fused
    // [batch, 4H] buffer in the fixed [i|f|c|o] order (replaces the
    // four hadamard allocations and three hcats).
    let dsa = ds_acc.as_slice();
    let dht = dh_total.as_slice();
    let (pi, pf, pc, po) = (
        p1.p_i.as_slice(),
        p1.p_f.as_slice(),
        p1.p_c.as_slice(),
        p1.p_o.as_slice(),
    );
    let dg = dgates.as_mut_slice();
    for r in 0..batch {
        let lo = r * h;
        let hi = lo + h;
        let dsr = &dsa[lo..hi];
        let dhr = &dht[lo..hi];
        let pir = &pi[lo..hi];
        let pfr = &pf[lo..hi];
        let pcr = &pc[lo..hi];
        let por = &po[lo..hi];
        let row = &mut dg[r * (4 * h)..(r + 1) * (4 * h)];
        let (di, rest) = row.split_at_mut(h);
        let (df, rest) = rest.split_at_mut(h);
        let (dc, do_) = rest.split_at_mut(h);
        for j in 0..h {
            di[j] = dsr[j] * pir[j];
            df[j] = dsr[j] * pfr[j];
            dc[j] = dsr[j] * pcr[j];
            do_[j] = dhr[j] * por[j];
        }
    }

    let ds_prev = ds_acc.hadamard(p1.p_s)?;
    drop(ew_scope);

    let gemm_scope = instruments.scope(gemm_label(
        "bp_gemm_simd",
        "bp_gemm",
        dgates.rows(),
        dgates.cols(),
        panels.u_bwd.n(),
    ));
    // BP-MatMul (Eq. 2) over the cached backward panels.
    let dx = if need_dx {
        dgates.par_matmul_nn_packed(&panels.w_bwd, kernel)?
    } else {
        Matrix::zeros(0, 0)
    };
    let dh_prev = dgates.par_matmul_nn_packed(&panels.u_bwd, kernel)?;

    // BP-MatMul (Eq. 3): the operands join the pending chunk; δb is
    // summed for this cell, then added.
    tn.push(dgates, &[x, h_prev])?;
    cell_db.clear();
    cell_db.resize(4 * h, 0.0);
    for row in dgates.as_slice().chunks_exact(4 * h) {
        for (acc, &g) in cell_db.iter_mut().zip(row.iter()) {
            *acc += g;
        }
    }
    for (acc, &g) in db.iter_mut().zip(cell_db.iter()) {
        *acc += g;
    }
    drop(gemm_scope);

    Ok(CellBackwardOut {
        dx,
        dh_prev,
        ds_prev,
    })
}

/// Adds the `δW`/`δU` of every cell [`backward_ws`] pushed since the
/// last flush to `grads` — one fused `tn` GEMM per weight matrix, as
/// deep as the chunk — and returns their magnitude `Σ|δW| + Σ|δU|`
/// (paper Fig. 8; one cell's when flushed after every cell, matching
/// [`CellGrads::magnitude`] of a per-cell gradient to rounding). A
/// no-op returning `0` with nothing pending.
///
/// # Errors
///
/// Returns a shape error if `grads` does not match the pushed cells.
pub fn flush_weight_grads(
    bwd: &mut BwdBuffers,
    grads: &mut CellGrads,
    kernel: &ParallelConfig,
    instruments: &crate::layer::Instruments,
) -> Result<f64> {
    let _scope = instruments.scope(gemm_label(
        "bp_wgrad_simd",
        "bp_wgrad",
        grads.dw.rows(),
        bwd.tn.pending(),
        grads.dw.cols(),
    ));
    Ok(bwd.tn.flush(&mut [&mut grads.dw, &mut grads.du], kernel)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;

    fn setup(batch: usize, input: usize, hidden: usize) -> (CellParams, Matrix, Matrix, Matrix) {
        let params = CellParams::new(input, hidden, 7);
        let x = init::uniform(batch, input, -1.0, 1.0, 11);
        let h_prev = init::uniform(batch, hidden, -0.5, 0.5, 13);
        let s_prev = init::uniform(batch, hidden, -0.5, 0.5, 17);
        (params, x, h_prev, s_prev)
    }

    #[test]
    fn forward_shapes_are_consistent() {
        let (p, x, h0, s0) = setup(3, 5, 4);
        let fw = forward(&p, &x, &h0, &s0).unwrap();
        for m in [&fw.i, &fw.f, &fw.c, &fw.o, &fw.s, &fw.tanh_s, &fw.h] {
            assert_eq!(m.rows(), 3);
            assert_eq!(m.cols(), 4);
        }
    }

    #[test]
    fn gates_lie_in_their_activation_ranges() {
        let (p, x, h0, s0) = setup(4, 6, 8);
        let fw = forward(&p, &x, &h0, &s0).unwrap();
        assert!(fw.i.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(fw.f.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(fw.o.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(fw.c.as_slice().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn state_update_matches_definition() {
        let (p, x, h0, s0) = setup(2, 3, 3);
        let fw = forward(&p, &x, &h0, &s0).unwrap();
        for r in 0..2 {
            for c in 0..3 {
                let expect = fw.f.get(r, c) * s0.get(r, c) + fw.i.get(r, c) * fw.c.get(r, c);
                assert!((fw.s.get(r, c) - expect).abs() < 1e-6);
                let h_expect = fw.o.get(r, c) * fw.s.get(r, c).tanh();
                assert!((fw.h.get(r, c) - h_expect).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn forget_bias_defaults_to_one() {
        let p = CellParams::new(3, 4, 0);
        assert!(p.b[..4].iter().all(|&v| v == 0.0));
        assert!(p.b[4..8].iter().all(|&v| v == 1.0));
        assert!(p.b[8..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn p1_products_bounded_by_one() {
        let (p, x, h0, s0) = setup(4, 6, 8);
        // s_prev within (−1, 1) keeps every P1 product in [−1, 1].
        let fw = forward(&p, &x, &h0, &s0).unwrap();
        let p1 = P1Dense::compute(&fw, &s0).unwrap();
        for m in p1.streams() {
            assert!(m.abs_max() <= 1.0 + 1e-6);
        }
    }

    /// Finite-difference gradient check: the analytic backward pass must
    /// match numerical differentiation of a scalar loss through the cell.
    #[test]
    fn backward_matches_finite_differences() {
        let batch = 2;
        let (input, hidden) = (3, 4);
        let (params, x, h_prev, s_prev) = setup(batch, input, hidden);

        // Scalar loss: sum(h) + 0.5 * sum(s).
        let loss = |p: &CellParams, x: &Matrix, h0: &Matrix, s0: &Matrix| -> f64 {
            let fw = forward(p, x, h0, s0).unwrap();
            fw.h.as_slice().iter().map(|&v| v as f64).sum::<f64>()
                + 0.5 * fw.s.as_slice().iter().map(|&v| v as f64).sum::<f64>()
        };

        // Analytic gradients: dL/dh = 1, dL/ds = 0.5 everywhere.
        let fw = forward(&params, &x, &h_prev, &s_prev).unwrap();
        let p1 = P1Dense::compute(&fw, &s_prev).unwrap();
        let dh = Matrix::filled(batch, hidden, 1.0);
        let ds = Matrix::filled(batch, hidden, 0.5);
        let mut grads = CellGrads::zeros_like(&params);
        let out = backward(&params, &p1, &x, &h_prev, &dh, &ds, &mut grads).unwrap();

        let eps = 1e-3f32;
        // Check dW on a sample of entries.
        for &(r, c) in &[(0usize, 0usize), (3, 2), (7, 1), (12, 0), (15, 2)] {
            let mut p_plus = params.clone();
            p_plus.w.set(r, c, params.w.get(r, c) + eps);
            let mut p_minus = params.clone();
            p_minus.w.set(r, c, params.w.get(r, c) - eps);
            let num = (loss(&p_plus, &x, &h_prev, &s_prev) - loss(&p_minus, &x, &h_prev, &s_prev))
                / (2.0 * eps as f64);
            let ana = grads.dw.get(r, c) as f64;
            assert!(
                (num - ana).abs() < 1e-2 * num.abs().max(1.0),
                "dW[{r},{c}] numeric {num} vs analytic {ana}"
            );
        }
        // Check dx.
        for &(r, c) in &[(0usize, 0usize), (1, 2)] {
            let mut x_plus = x.clone();
            x_plus.set(r, c, x.get(r, c) + eps);
            let mut x_minus = x.clone();
            x_minus.set(r, c, x.get(r, c) - eps);
            let num = (loss(&params, &x_plus, &h_prev, &s_prev)
                - loss(&params, &x_minus, &h_prev, &s_prev))
                / (2.0 * eps as f64);
            let ana = out.dx.get(r, c) as f64;
            assert!(
                (num - ana).abs() < 1e-2 * num.abs().max(1.0),
                "dx[{r},{c}] numeric {num} vs analytic {ana}"
            );
        }
        // Check ds_prev.
        for &(r, c) in &[(0usize, 1usize), (1, 3)] {
            let mut s_plus = s_prev.clone();
            s_plus.set(r, c, s_prev.get(r, c) + eps);
            let mut s_minus = s_prev.clone();
            s_minus.set(r, c, s_prev.get(r, c) - eps);
            let num = (loss(&params, &x, &h_prev, &s_plus) - loss(&params, &x, &h_prev, &s_minus))
                / (2.0 * eps as f64);
            let ana = out.ds_prev.get(r, c) as f64;
            assert!(
                (num - ana).abs() < 1e-2 * num.abs().max(1.0),
                "ds_prev[{r},{c}] numeric {num} vs analytic {ana}"
            );
        }
        // Check dh_prev.
        for &(r, c) in &[(0usize, 0usize), (1, 1)] {
            let mut h_plus = h_prev.clone();
            h_plus.set(r, c, h_prev.get(r, c) + eps);
            let mut h_minus = h_prev.clone();
            h_minus.set(r, c, h_prev.get(r, c) - eps);
            let num = (loss(&params, &x, &h_plus, &s_prev) - loss(&params, &x, &h_minus, &s_prev))
                / (2.0 * eps as f64);
            let ana = out.dh_prev.get(r, c) as f64;
            assert!(
                (num - ana).abs() < 1e-2 * num.abs().max(1.0),
                "dh_prev[{r},{c}] numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn grads_scale_and_accumulate() {
        let p = CellParams::new(2, 2, 1);
        let mut g = CellGrads::zeros_like(&p);
        g.dw.set(0, 0, 2.0);
        g.db[0] = 4.0;
        let snapshot = g.clone();
        g.accumulate(&snapshot).unwrap();
        assert_eq!(g.dw.get(0, 0), 4.0);
        assert_eq!(g.db[0], 8.0);
        g.scale(0.5);
        assert_eq!(g.dw.get(0, 0), 2.0);
        assert_eq!(g.db[0], 4.0);
        assert!(g.magnitude() > 0.0);
    }

    #[test]
    fn stored_bytes_counts_five_streams() {
        let (p, x, h0, s0) = setup(2, 3, 4);
        let fw = forward(&p, &x, &h0, &s0).unwrap();
        assert_eq!(fw.stored_bytes(), 5 * (2 * 4 * 4) as u64);
    }

    /// [`forward_ws`] into a fresh record (what the sequence loop does).
    fn fused_forward(
        params: &CellParams,
        panels: &LayerPanels,
        (x, h_prev, s_prev): (&Matrix, &Matrix, &Matrix),
        kernel: &ParallelConfig,
        ws: &mut Workspace,
    ) -> Result<CellForward> {
        let inst = crate::layer::Instruments::new();
        let mut out = CellForward::empty();
        forward_ws(
            params,
            panels,
            x,
            h_prev,
            s_prev,
            kernel,
            &mut ws.preact,
            &inst,
            &mut out,
        )?;
        Ok(out)
    }

    /// The PR 5 zero-alloc contract: the workspace/panel cell paths are
    /// **bit-identical** to the reference implementations, including
    /// when the workspace buffers are reused across calls and when the
    /// parallel row-block kernel path is forced on.
    #[test]
    fn workspace_paths_bit_identical_to_reference() {
        for (batch, input, hidden, force_par) in
            [(1, 3, 4, false), (3, 5, 8, false), (4, 20, 40, true)]
        {
            let (params, x, h_prev, s_prev) = setup(batch, input, hidden);
            let mut kernel = ParallelConfig::with_threads(2);
            if force_par {
                kernel.min_kernel_flops = 1;
            }
            let panels = LayerPanels::pack_with(&params, &kernel);
            let mut ws = Workspace::new();

            let reference = forward(&params, &x, &h_prev, &s_prev).unwrap();
            let ops = (&x, &h_prev, &s_prev);
            let fused = fused_forward(&params, &panels, ops, &kernel, &mut ws).unwrap();
            assert_eq!(fused, reference);
            // Reuse: the second call overwrites stale buffer contents.
            let again = fused_forward(&params, &panels, ops, &kernel, &mut ws).unwrap();
            assert_eq!(again, reference);

            let p1 = P1Dense::compute(&reference, &s_prev).unwrap();
            compute_p1_into(&mut ws.p1, &reference, &s_prev).unwrap();
            assert_eq!(ws.p1.p_i, p1.p_i);
            assert_eq!(ws.p1.p_f, p1.p_f);
            assert_eq!(ws.p1.p_c, p1.p_c);
            assert_eq!(ws.p1.p_o, p1.p_o);
            assert_eq!(ws.p1.p_h, p1.p_h);

            let dh = init::uniform(batch, hidden, -1.0, 1.0, 23);
            let ds = init::uniform(batch, hidden, -1.0, 1.0, 29);
            let mut g_ref = CellGrads::zeros_like(&params);
            let out_ref = backward(&params, &p1, &x, &h_prev, &dh, &ds, &mut g_ref).unwrap();

            let inst = crate::layer::Instruments::new();
            let mut g_ws = CellGrads::zeros_like(&params);
            let p1_view = P1Ref {
                p_i: &ws.p1.p_i,
                p_f: &ws.p1.p_f,
                p_c: &ws.p1.p_c,
                p_o: &ws.p1.p_o,
                p_h: &ws.p1.p_h,
                p_s: &reference.f,
            };
            let out_ws = backward_ws(
                &panels,
                &p1_view,
                &x,
                &h_prev,
                &dh,
                &ds,
                &mut g_ws.db,
                true,
                &kernel,
                &mut ws.bwd,
                &inst,
            )
            .unwrap();
            let magnitude = flush_weight_grads(&mut ws.bwd, &mut g_ws, &kernel, &inst).unwrap();
            assert_eq!(out_ws, out_ref);
            assert_eq!(g_ws, g_ref);
            // Onto zeros the accumulator *is* the cell's gradient.
            let reference = g_ref.magnitude();
            assert!((magnitude - reference).abs() <= 1e-12 * reference);

            // Same through the P1Dense::as_ref adaptor, with reused
            // backward buffers and pre-seeded gradient accumulators.
            let out_ws2 = backward_ws(
                &panels,
                &p1.as_ref(),
                &x,
                &h_prev,
                &dh,
                &ds,
                &mut g_ws.db,
                true,
                &kernel,
                &mut ws.bwd,
                &inst,
            )
            .unwrap();
            let magnitude2 = flush_weight_grads(&mut ws.bwd, &mut g_ws, &kernel, &inst).unwrap();
            assert_eq!(magnitude2.to_bits(), magnitude.to_bits());
            let mut g_ref2 = g_ref.clone();
            let out_ref2 = backward(&params, &p1, &x, &h_prev, &dh, &ds, &mut g_ref2).unwrap();
            assert_eq!(out_ws2, out_ref2);
            assert_eq!(g_ws, g_ref2);
        }
    }

    /// A caller-owned record refilled over stale contents of a
    /// *different* shape (what the MS3 segment cache does) resizes and
    /// stays exact.
    #[test]
    fn forward_ws_refills_a_reused_record_exactly() {
        let (batch, input, hidden) = (3, 5, 8);
        let kernel = ParallelConfig::serial();
        let inst = crate::layer::Instruments::new();
        let mut ws = Workspace::new();
        let mut out = CellForward::empty();
        for rows in [batch, batch + 1, batch] {
            let (params, x, h_prev, s_prev) = setup(rows, input, hidden);
            let panels = LayerPanels::pack_with(&params, &kernel);
            forward_ws(
                &params,
                &panels,
                &x,
                &h_prev,
                &s_prev,
                &kernel,
                &mut ws.preact,
                &inst,
                &mut out,
            )
            .unwrap();
            assert_eq!(out, forward(&params, &x, &h_prev, &s_prev).unwrap());
        }
    }

    #[test]
    fn workspace_paths_reject_mismatched_shapes() {
        let (params, x, h_prev, s_prev) = setup(2, 3, 4);
        let kernel = ParallelConfig::serial();
        let panels = LayerPanels::pack_with(&params, &kernel);
        let fw = forward(&params, &x, &h_prev, &s_prev).unwrap();
        let p1 = P1Dense::compute(&fw, &s_prev).unwrap();
        let dh = Matrix::zeros(2, 4);
        let bad_ds = Matrix::zeros(3, 4);
        let mut grads = CellGrads::zeros_like(&params);
        let mut bwd = BwdBuffers::default();
        let inst = crate::layer::Instruments::new();
        let err = backward_ws(
            &panels,
            &p1.as_ref(),
            &x,
            &h_prev,
            &dh,
            &bad_ds,
            &mut grads.db,
            true,
            &kernel,
            &mut bwd,
            &inst,
        );
        assert!(err.is_err());
        let bad_s = Matrix::zeros(3, 4);
        let mut ws = Workspace::new();
        assert!(fused_forward(&params, &panels, (&x, &h_prev, &bad_s), &kernel, &mut ws).is_err());
        assert!(compute_p1_into(&mut ws.p1, &fw, &bad_s).is_err());
    }
}
