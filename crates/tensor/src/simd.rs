//! AVX2+FMA microkernel layer with runtime dispatch and cache blocking.
//!
//! The scalar microkernels in [`crate::kernels`] are the always-compiled
//! reference: bit-identical to the naive loops, no FMA contraction, one
//! accumulator per output element in ascending reduction order. This
//! module adds an explicit `std::arch` AVX2+FMA path over the same
//! [`PackedB`] panels, selected at runtime by
//! `is_x86_feature_detected!` and gated by the `ETA_SIMD` environment
//! variable (plumbed like `ETA_THREADS`: decided once per process, not
//! re-probed in the hot loop).
//!
//! # Numerical contract
//!
//! The SIMD path is **not** bit-identical to the scalar path: FMA fuses
//! `acc + a·b` into one rounding, and the `nn`/`tn` orientations drop
//! the scalar kernels' zero-skip on the A element (a vector lane costs
//! the same either way), so signed zeros may differ. The divergence is
//! ULP-bounded — each output element is still a single accumulator
//! summed in ascending reduction order, so the error versus the scalar
//! kernel is at most one rounding per multiply-add step plus the KC
//! re-association below; `tests/simd_equivalence.rs` pins the budget
//! per orientation (see `DESIGN.md`).
//!
//! The SIMD path **is** bitwise deterministic per dispatch path: every
//! output element is owned by one `(row, lane)` accumulator whose
//! fused-multiply-add sequence depends only on `(k, KC)` — never on the
//! register-tile height covering the row, the MC block it lands in, or
//! the row partition a parallel caller chose — so same input → same
//! bits at any thread count, exactly like the scalar path.
//!
//! # Cache blocking
//!
//! The driver tiles `KC × MC` around the panels (BLIS-style, without
//! the NC loop — at the bench shapes the B slab re-streamed per MC
//! block is under 2% of the compute time on one core):
//!
//! - `KC = 256`: one panel's reduction slice (`KC × NR × 4 B = 8 KiB`)
//!   stays L1-resident while it is re-read for every row tile;
//! - `MC = 128`: the A block (`MC × KC × 4 B = 128 KiB`) stays
//!   L2-resident while every panel streams over it.
//!
//! Reduction depths beyond `KC` spill the partial tile into the output
//! and continue (`Assign` on the first chunk, `Add` after), which
//! re-associates the sum at chunk boundaries; the boundaries are a pure
//! function of `(k, KC)`, so the path stays deterministic.
//!
//! The register tile is 6×16 (two adjacent panels, 12 accumulator
//! vectors + 2 panel vectors + 1 broadcast = 15 of 16 ymm registers),
//! with 6×8 for the odd last panel and 1-row edge tiles.

use crate::kernels::{self, Store};
use crate::pack::{PackedB, NR};

/// Environment variable disabling the SIMD path (`off`/`0`/`false`);
/// any other value — or the variable being unset — leaves it enabled.
/// Read once per process, like `ETA_THREADS`.
pub(crate) const SIMD_ENV: &str = "ETA_SIMD";

/// Reduction-depth block: one panel slice (`KC × NR` f32 = 8 KiB)
/// stays L1-resident across the row tiles of an MC block.
pub const KC: usize = 256;

/// Row block: the A slice (`MC × KC` f32 = 128 KiB) stays L2-resident
/// across the panel sweep.
pub(crate) const MC: usize = 128;

/// Whether `ETA_SIMD` permits the SIMD path (cached after first read).
fn env_allows() -> bool {
    static CACHE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| match std::env::var(SIMD_ENV) {
        Ok(v) => {
            let v = v.trim();
            !(v.eq_ignore_ascii_case("off") || v == "0" || v.eq_ignore_ascii_case("false"))
        }
        Err(_) => true,
    })
}

/// Whether the automatic dispatch may use the SIMD kernels at all:
/// hardware support and the `ETA_SIMD` override, but no shape logic.
pub fn enabled() -> bool {
    env_allows() && supported()
}

/// The dispatch predicate used by every `matmul_*` entry point: SIMD
/// engages only when the **full logical product** is at least
/// [`crate::matrix::PACK_MIN_FLOPS`]. The gate must be a function of
/// the whole shape — never of a worker's row count — so the serial
/// sweep and every parallel partition of the same product take the
/// same path, and small products keep the scalar kernels' bit-identity
/// with the naive loops.
pub fn use_simd(m: usize, k: usize, n: usize) -> bool {
    m * k * n >= crate::matrix::PACK_MIN_FLOPS && enabled()
}

pub use arch::{gemm_rows_nn, gemm_rows_nt, gemm_rows_nt_epilogue, supported};

#[cfg(target_arch = "x86_64")]
mod arch {
    use super::*;

    use core::arch::x86_64::*;

    /// Whether this CPU reports AVX2 and FMA at runtime.
    pub fn supported() -> bool {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    // --- one-intrinsic helpers --------------------------------------
    //
    // Safe `#[target_feature]` functions: calls between same-feature
    // functions are safe, so the kernels below read as plain code and
    // the only `unsafe` left in this module is the two raw-pointer
    // memory intrinsics here and the feature-guarded entry calls in
    // the dispatch wrappers.

    /// All-zero vector.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    fn zero8() -> __m256 {
        // SAFETY: register-only intrinsic, no memory access; the
        // enclosing target_feature context proves AVX2 availability.
        _mm256_setzero_ps()
    }

    /// Unaligned 8-lane load from an exactly-8-long chunk.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    fn ld8(s: &[f32]) -> __m256 {
        debug_assert_eq!(s.len(), NR);
        // SAFETY: the contract above guarantees 8 readable f32s at
        // `s.as_ptr()` (callers pass `chunks_exact(NR)` items);
        // `loadu` has no alignment requirement.
        unsafe { _mm256_loadu_ps(s.as_ptr()) }
    }

    /// Broadcast one f32 across all 8 lanes.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    fn splat8(v: f32) -> __m256 {
        // SAFETY: register-only broadcast, no memory access; AVX2 is
        // enabled in this target_feature context.
        _mm256_set1_ps(v)
    }

    /// Fused multiply-add `a * b + c` (one rounding per lane).
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    fn fma8(a: __m256, b: __m256, c: __m256) -> __m256 {
        // SAFETY: register-only FMA, no memory access; FMA is enabled
        // in this target_feature context.
        _mm256_fmadd_ps(a, b, c)
    }

    /// Unaligned 8-lane store into a fixed-size row.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    fn st8(v: __m256, out: &mut [f32; NR]) {
        // SAFETY: `out` is exactly 8 writable f32s by its type;
        // `storeu` has no alignment requirement.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr(), v) }
    }

    // --- register tiles ---------------------------------------------

    /// 6-row × 2-panel (16-lane) register tile: 12 accumulator
    /// vectors, each owning one `(row, lane)` output block and summing
    /// its products in ascending reduction order with one FMA per step
    /// — the sequence every determinism claim in this module rests on.
    /// Row slices `r0..r5` are the rows' reduction windows (length
    /// `pc`), `b0s`/`b1s` the matching panel windows (`pc * NR`); the
    /// zip truncates to the shortest, so lengths are a correctness
    /// contract of the callers, not a safety one.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    fn tile6x16(
        r0: &[f32],
        r1: &[f32],
        r2: &[f32],
        r3: &[f32],
        r4: &[f32],
        r5: &[f32],
        b0s: &[f32],
        b1s: &[f32],
        t0: &mut [[f32; NR]; 6],
        t1: &mut [[f32; NR]; 6],
    ) {
        let (mut c00, mut c01) = (zero8(), zero8());
        let (mut c10, mut c11) = (zero8(), zero8());
        let (mut c20, mut c21) = (zero8(), zero8());
        let (mut c30, mut c31) = (zero8(), zero8());
        let (mut c40, mut c41) = (zero8(), zero8());
        let (mut c50, mut c51) = (zero8(), zero8());
        for (((((((b0c, b1c), &a0), &a1), &a2), &a3), &a4), &a5) in b0s
            .chunks_exact(NR)
            .zip(b1s.chunks_exact(NR))
            .zip(r0)
            .zip(r1)
            .zip(r2)
            .zip(r3)
            .zip(r4)
            .zip(r5)
        {
            let b0 = ld8(b0c);
            let b1 = ld8(b1c);
            let v = splat8(a0);
            c00 = fma8(v, b0, c00);
            c01 = fma8(v, b1, c01);
            let v = splat8(a1);
            c10 = fma8(v, b0, c10);
            c11 = fma8(v, b1, c11);
            let v = splat8(a2);
            c20 = fma8(v, b0, c20);
            c21 = fma8(v, b1, c21);
            let v = splat8(a3);
            c30 = fma8(v, b0, c30);
            c31 = fma8(v, b1, c31);
            let v = splat8(a4);
            c40 = fma8(v, b0, c40);
            c41 = fma8(v, b1, c41);
            let v = splat8(a5);
            c50 = fma8(v, b0, c50);
            c51 = fma8(v, b1, c51);
        }
        for (slot, acc) in t0.iter_mut().zip([c00, c10, c20, c30, c40, c50]) {
            st8(acc, slot);
        }
        for (slot, acc) in t1.iter_mut().zip([c01, c11, c21, c31, c41, c51]) {
            st8(acc, slot);
        }
    }

    /// 1-row × 2-panel edge tile (row remainder of an MC block).
    #[target_feature(enable = "avx2", enable = "fma")]
    fn tile1x16(r0: &[f32], b0s: &[f32], b1s: &[f32], t0: &mut [f32; NR], t1: &mut [f32; NR]) {
        let mut c0 = zero8();
        let mut c1 = zero8();
        for ((b0c, b1c), &a0) in b0s.chunks_exact(NR).zip(b1s.chunks_exact(NR)).zip(r0) {
            let v = splat8(a0);
            c0 = fma8(v, ld8(b0c), c0);
            c1 = fma8(v, ld8(b1c), c1);
        }
        st8(c0, t0);
        st8(c1, t1);
    }

    /// 6-row × 1-panel tile (odd last panel).
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    fn tile6x8(
        r0: &[f32],
        r1: &[f32],
        r2: &[f32],
        r3: &[f32],
        r4: &[f32],
        r5: &[f32],
        b0s: &[f32],
        t0: &mut [[f32; NR]; 6],
    ) {
        let mut c0 = zero8();
        let mut c1 = zero8();
        let mut c2 = zero8();
        let mut c3 = zero8();
        let mut c4 = zero8();
        let mut c5 = zero8();
        for ((((((b0c, &a0), &a1), &a2), &a3), &a4), &a5) in b0s
            .chunks_exact(NR)
            .zip(r0)
            .zip(r1)
            .zip(r2)
            .zip(r3)
            .zip(r4)
            .zip(r5)
        {
            let b0 = ld8(b0c);
            c0 = fma8(splat8(a0), b0, c0);
            c1 = fma8(splat8(a1), b0, c1);
            c2 = fma8(splat8(a2), b0, c2);
            c3 = fma8(splat8(a3), b0, c3);
            c4 = fma8(splat8(a4), b0, c4);
            c5 = fma8(splat8(a5), b0, c5);
        }
        for (slot, acc) in t0.iter_mut().zip([c0, c1, c2, c3, c4, c5]) {
            st8(acc, slot);
        }
    }

    /// 1-row × 1-panel edge tile.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn tile1x8(r0: &[f32], b0s: &[f32], t0: &mut [f32; NR]) {
        let mut c0 = zero8();
        for (b0c, &a0) in b0s.chunks_exact(NR).zip(r0) {
            c0 = fma8(splat8(a0), ld8(b0c), c0);
        }
        st8(c0, t0);
    }

    // --- blocked drivers --------------------------------------------

    /// How one KC chunk's tiles land: accumulate with `store`, or
    /// accumulate-and-transform through the fused epilogue.
    enum Land<'a, F: Fn(usize, f32) -> f32> {
        Plain(Store),
        Epilogue(&'a F),
    }

    impl<F: Fn(usize, f32) -> f32> Clone for Land<'_, F> {
        fn clone(&self) -> Self {
            *self
        }
    }
    impl<F: Fn(usize, f32) -> f32> Copy for Land<'_, F> {}

    /// Row sweep of one `(KC chunk, MC block)` over all panels. Panel
    /// pairs feed the 16-lane tiles; an odd last panel takes the
    /// 8-lane tiles; rows left over from the 6-row tiling take the
    /// 1-row tiles. Tile shapes never influence accumulation order —
    /// each output element's FMA sequence is fixed by `(k, KC)` alone.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    fn sweep_block<F: Fn(usize, f32) -> f32>(
        a: &[f32],
        rows: usize,
        k: usize,
        pb: &PackedB,
        out: &mut [f32],
        i0: usize,
        mc: usize,
        p0: usize,
        pc: usize,
        land: Land<'_, F>,
    ) {
        let n = pb.n();
        debug_assert_eq!(a.len(), rows * k);
        debug_assert!(i0 + mc <= rows);
        debug_assert!(mc <= rows - i0);
        debug_assert!(p0 + pc <= k);
        debug_assert!(pc <= k - p0);
        let panels = pb.panels();
        let mut pj = 0usize;
        while pj + 2 <= panels {
            let j0 = pj * NR;
            let w1 = NR.min(n - (j0 + NR));
            let panel0 = pb.panel(pj);
            let panel1 = pb.panel(pj + 1);
            debug_assert_eq!(panel0.len(), k * NR);
            debug_assert_eq!(panel1.len(), k * NR);
            let b0s = &panel0[p0 * NR..(p0 + pc) * NR];
            let b1s = &panel1[p0 * NR..(p0 + pc) * NR];
            let mut i = i0;
            while i + 6 <= i0 + mc {
                let mut t0 = [[0.0f32; NR]; 6];
                let mut t1 = [[0.0f32; NR]; 6];
                tile6x16(
                    &a[i * k + p0..i * k + p0 + pc],
                    &a[(i + 1) * k + p0..(i + 1) * k + p0 + pc],
                    &a[(i + 2) * k + p0..(i + 2) * k + p0 + pc],
                    &a[(i + 3) * k + p0..(i + 3) * k + p0 + pc],
                    &a[(i + 4) * k + p0..(i + 4) * k + p0 + pc],
                    &a[(i + 5) * k + p0..(i + 5) * k + p0 + pc],
                    b0s,
                    b1s,
                    &mut t0,
                    &mut t1,
                );
                match land {
                    Land::Plain(store) => {
                        kernels::store_tile(&t0, out, n, i, j0, NR, store);
                        kernels::store_tile(&t1, out, n, i, j0 + NR, w1, store);
                    }
                    Land::Epilogue(f) => {
                        kernels::store_tile_epilogue(&t0, out, n, i, j0, NR, f);
                        kernels::store_tile_epilogue(&t1, out, n, i, j0 + NR, w1, f);
                    }
                }
                i += 6;
            }
            while i < i0 + mc {
                let mut t0 = [[0.0f32; NR]; 1];
                let mut t1 = [[0.0f32; NR]; 1];
                {
                    let [t0r] = &mut t0;
                    let [t1r] = &mut t1;
                    tile1x16(&a[i * k + p0..i * k + p0 + pc], b0s, b1s, t0r, t1r);
                }
                match land {
                    Land::Plain(store) => {
                        kernels::store_tile(&t0, out, n, i, j0, NR, store);
                        kernels::store_tile(&t1, out, n, i, j0 + NR, w1, store);
                    }
                    Land::Epilogue(f) => {
                        kernels::store_tile_epilogue(&t0, out, n, i, j0, NR, f);
                        kernels::store_tile_epilogue(&t1, out, n, i, j0 + NR, w1, f);
                    }
                }
                i += 1;
            }
            pj += 2;
        }
        if pj < panels {
            let j0 = pj * NR;
            let w = NR.min(n - j0);
            let panel0 = pb.panel(pj);
            debug_assert_eq!(panel0.len(), k * NR);
            let b0s = &panel0[p0 * NR..(p0 + pc) * NR];
            let mut i = i0;
            while i + 6 <= i0 + mc {
                let mut t0 = [[0.0f32; NR]; 6];
                tile6x8(
                    &a[i * k + p0..i * k + p0 + pc],
                    &a[(i + 1) * k + p0..(i + 1) * k + p0 + pc],
                    &a[(i + 2) * k + p0..(i + 2) * k + p0 + pc],
                    &a[(i + 3) * k + p0..(i + 3) * k + p0 + pc],
                    &a[(i + 4) * k + p0..(i + 4) * k + p0 + pc],
                    &a[(i + 5) * k + p0..(i + 5) * k + p0 + pc],
                    b0s,
                    &mut t0,
                );
                match land {
                    Land::Plain(store) => kernels::store_tile(&t0, out, n, i, j0, w, store),
                    Land::Epilogue(f) => kernels::store_tile_epilogue(&t0, out, n, i, j0, w, f),
                }
                i += 6;
            }
            while i < i0 + mc {
                let mut t0 = [[0.0f32; NR]; 1];
                {
                    let [t0r] = &mut t0;
                    tile1x8(&a[i * k + p0..i * k + p0 + pc], b0s, t0r);
                }
                match land {
                    Land::Plain(store) => kernels::store_tile(&t0, out, n, i, j0, w, store),
                    Land::Epilogue(f) => kernels::store_tile_epilogue(&t0, out, n, i, j0, w, f),
                }
                i += 1;
            }
        }
    }

    /// KC × MC blocked GEMM over packed panels:
    /// `out_rows (+)= a_rows · panels`. Reduction depths beyond `KC`
    /// spill the partial tiles into the output and continue (`store`
    /// on the first chunk, `Add` after) — the chunk boundaries are a
    /// pure function of `(k, KC)`, so the path stays deterministic.
    /// When `epilogue` is set, the **final** chunk lands through
    /// `out[i][j] = f(j, out[i][j] + acc)` and all chunks accumulate
    /// onto the existing buffer.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn gemm_rows_avx2<F: Fn(usize, f32) -> f32>(
        a_rows: &[f32],
        rows: usize,
        k: usize,
        pb: &PackedB,
        out_rows: &mut [f32],
        store: Store,
        epilogue: Option<&F>,
    ) {
        debug_assert_eq!(pb.k(), k);
        debug_assert_eq!(a_rows.len(), rows * k);
        debug_assert_eq!(out_rows.len(), rows * pb.n());
        debug_assert!(k > 0, "k == 0 is handled by the dispatch wrappers");
        let mut p0 = 0usize;
        while p0 < k {
            let pc = KC.min(k - p0);
            let first = p0 == 0;
            let last = p0 + pc >= k;
            let mut i0 = 0usize;
            while i0 < rows {
                let mc = MC.min(rows - i0);
                let land = match epilogue {
                    Some(f) if last => Land::Epilogue(f),
                    Some(_) => Land::Plain(Store::Add),
                    None if first => Land::Plain(store),
                    None => Land::Plain(Store::Add),
                };
                sweep_block(a_rows, rows, k, pb, out_rows, i0, mc, p0, pc, land);
                i0 += mc;
            }
            p0 += pc;
        }
    }

    /// The identity epilogue type used when dispatching the plain
    /// (non-fused) kernels — never called, only names `F`.
    type NoEpilogue = fn(usize, f32) -> f32;

    // --- dispatch wrappers ------------------------------------------

    /// `out_rows (+)= a_rows · panels` with the `nt` orientation's
    /// scalar fallback ([`kernels::gemm_nt_rows`], no zero-skip).
    /// Runtime feature detection routes to the AVX2+FMA kernel.
    /// Callers slicing rows for parallel workers may call this per
    /// block — the result is bitwise independent of the partition.
    pub fn gemm_rows_nt(
        a_rows: &[f32],
        rows: usize,
        k: usize,
        pb: &PackedB,
        out_rows: &mut [f32],
        store: Store,
    ) {
        if k == 0 {
            // The blocked driver's chunk loop cannot represent an
            // empty reduction; the scalar kernel stores exact zeros.
            return kernels::gemm_nt_rows(a_rows, rows, k, pb, out_rows, store);
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            crate::stats::record_gemm(rows, k, pb.n());
            crate::stats::record_simd_dispatch();
            // SAFETY: the feature guard above proves AVX2 and FMA are
            // available on this CPU.
            unsafe { gemm_rows_avx2::<NoEpilogue>(a_rows, rows, k, pb, out_rows, store, None) }
        } else {
            kernels::gemm_nt_rows(a_rows, rows, k, pb, out_rows, store)
        }
    }

    /// [`gemm_rows_nt`] with the `nn`/`tn` scalar fallback
    /// ([`kernels::gemm_nn_rows`], which keeps the zero-skip). The
    /// SIMD path is identical for both orientations — the packed
    /// panels already erased the layout difference.
    pub fn gemm_rows_nn(
        a_rows: &[f32],
        rows: usize,
        k: usize,
        pb: &PackedB,
        out_rows: &mut [f32],
        store: Store,
    ) {
        if k == 0 {
            return kernels::gemm_nn_rows(a_rows, rows, k, pb, out_rows, store);
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            crate::stats::record_gemm(rows, k, pb.n());
            crate::stats::record_simd_dispatch();
            // SAFETY: the feature guard above proves AVX2 and FMA are
            // available on this CPU.
            unsafe { gemm_rows_avx2::<NoEpilogue>(a_rows, rows, k, pb, out_rows, store, None) }
        } else {
            kernels::gemm_nn_rows(a_rows, rows, k, pb, out_rows, store)
        }
    }

    /// Fused-epilogue dispatch: `out[i][j] = f(j, out[i][j] + acc)`,
    /// the hook the LSTM cell uses to fold bias addition and gate
    /// activation into the preactivation GEMM's store pass.
    pub fn gemm_rows_nt_epilogue<F: Fn(usize, f32) -> f32>(
        a_rows: &[f32],
        rows: usize,
        k: usize,
        pb: &PackedB,
        out_rows: &mut [f32],
        f: &F,
    ) {
        if k == 0 {
            return kernels::gemm_nt_rows_epilogue(a_rows, rows, k, pb, out_rows, f);
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            crate::stats::record_gemm(rows, k, pb.n());
            crate::stats::record_simd_dispatch();
            // SAFETY: the feature guard above proves AVX2 and FMA are
            // available on this CPU.
            unsafe { gemm_rows_avx2(a_rows, rows, k, pb, out_rows, Store::Add, Some(f)) }
        } else {
            kernels::gemm_nt_rows_epilogue(a_rows, rows, k, pb, out_rows, f)
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod arch {
    //! Portable fallback: the dispatch wrappers delegate straight to
    //! the scalar microkernels and `supported()` reports `false`, so
    //! the automatic dispatch never routes here in the first place.

    use super::*;

    /// No AVX2 on this architecture.
    pub fn supported() -> bool {
        false
    }

    /// Scalar delegate (the `nt` kernel).
    pub fn gemm_rows_nt(
        a_rows: &[f32],
        rows: usize,
        k: usize,
        pb: &PackedB,
        out_rows: &mut [f32],
        store: Store,
    ) {
        kernels::gemm_nt_rows(a_rows, rows, k, pb, out_rows, store)
    }

    /// Scalar delegate (the `nn` kernel).
    pub fn gemm_rows_nn(
        a_rows: &[f32],
        rows: usize,
        k: usize,
        pb: &PackedB,
        out_rows: &mut [f32],
        store: Store,
    ) {
        kernels::gemm_nn_rows(a_rows, rows, k, pb, out_rows, store)
    }

    /// Scalar delegate (the fused-epilogue kernel).
    pub fn gemm_rows_nt_epilogue<F: Fn(usize, f32) -> f32>(
        a_rows: &[f32],
        rows: usize,
        k: usize,
        pb: &PackedB,
        out_rows: &mut [f32],
        f: &F,
    ) {
        kernels::gemm_nt_rows_epilogue(a_rows, rows, k, pb, out_rows, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, Matrix};

    /// |x − y| within `steps` representable f32s (±0 identified).
    fn ulp_close(x: f32, y: f32, steps: u32) -> bool {
        if x == y {
            return true; // covers +0 vs −0
        }
        if x.is_nan() || y.is_nan() || x.signum() != y.signum() {
            return false;
        }
        let (a, b) = (x.abs().to_bits(), y.abs().to_bits());
        a.abs_diff(b) <= steps
    }

    /// SIMD-vs-scalar element check: ULP-close, or within the
    /// condition-scaled absolute floor `2k·ε·Σ|a·b|` that covers
    /// cancellation-heavy elements.
    fn assert_simd_close(simd: &Matrix, scalar: &Matrix, absref: &Matrix, k: usize) {
        let tol = 2.0 * k as f32 * f32::EPSILON;
        for ((i, (&s, &r)), &ab) in simd
            .as_slice()
            .iter()
            .zip(scalar.as_slice())
            .enumerate()
            .zip(absref.as_slice())
        {
            assert!(
                ulp_close(s, r, 8) || (s - r).abs() <= tol * ab,
                "elem {i}: simd {s} vs scalar {r} (abs bound {})",
                tol * ab
            );
        }
    }

    fn abs_product(a: &Matrix, b_nn: &Matrix) -> Matrix {
        a.map(f32::abs)
            .matmul_nn_naive(&b_nn.map(f32::abs))
            .unwrap()
    }

    #[test]
    fn env_gate_parses_disabling_values() {
        // The cache makes the live value process-global; this test
        // only pins the predicate used to build it.
        for off in ["off", "OFF", "0", "false", " off "] {
            let v = off.trim();
            assert!(
                v.eq_ignore_ascii_case("off") || v == "0" || v.eq_ignore_ascii_case("false"),
                "{off:?} should disable"
            );
        }
    }

    #[test]
    fn use_simd_respects_the_pack_threshold() {
        // Below PACK_MIN_FLOPS the gate must refuse regardless of
        // hardware, keeping small shapes on the bit-exact scalar path.
        assert!(!use_simd(8, 8, 8));
        assert_eq!(use_simd(64, 64, 64), enabled());
    }

    #[test]
    fn simd_rows_match_scalar_within_ulp_budget() {
        if !supported() {
            return;
        }
        // Spans the 6-row tiling edge, odd panel counts, and a
        // KC-crossing reduction depth.
        for (m, k, n) in [(13usize, 40usize, 19usize), (64, 300, 24), (6, 257, 8)] {
            let a = init::uniform(m, k, -1.0, 1.0, 71);
            let b = init::uniform(k, n, -1.0, 1.0, 72);
            let pb = PackedB::from_nn(&b);
            let mut simd_out = Matrix::zeros(m, n);
            gemm_rows_nn(
                a.as_slice(),
                m,
                k,
                &pb,
                simd_out.as_mut_slice(),
                Store::Assign,
            );
            let scalar = a.matmul_nn_naive(&b).unwrap();
            assert_simd_close(&simd_out, &scalar, &abs_product(&a, &b), k);
        }
    }

    #[test]
    fn simd_result_is_invariant_to_row_partition() {
        if !supported() {
            return;
        }
        // Same product computed whole and as disjoint row blocks —
        // the bitwise determinism contract parallel callers rely on.
        let (m, k, n) = (31usize, 300usize, 40usize);
        let a = init::uniform(m, k, -1.0, 1.0, 73);
        let b = init::uniform(k, n, -1.0, 1.0, 74);
        let pb = PackedB::from_nn(&b);
        let mut whole = Matrix::zeros(m, n);
        gemm_rows_nn(a.as_slice(), m, k, &pb, whole.as_mut_slice(), Store::Assign);
        for blocks in [2usize, 3, 8] {
            let mut split = Matrix::zeros(m, n);
            let rows_per = m.div_ceil(blocks);
            let mut row0 = 0;
            while row0 < m {
                let rows = rows_per.min(m - row0);
                gemm_rows_nn(
                    &a.as_slice()[row0 * k..(row0 + rows) * k],
                    rows,
                    k,
                    &pb,
                    &mut split.as_mut_slice()[row0 * n..(row0 + rows) * n],
                    Store::Assign,
                );
                row0 += rows;
            }
            let same_bits = whole
                .as_slice()
                .iter()
                .zip(split.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same_bits, "{blocks} blocks diverged bitwise");
        }
    }

    #[test]
    fn epilogue_matches_plain_kernel_plus_transform_for_short_k() {
        if !supported() {
            return;
        }
        // Within one KC chunk the epilogue path must agree bitwise
        // with add-then-transform — the association the cell's
        // forward paths compare across.
        let (m, k, n) = (9usize, 48usize, 16usize);
        let a = init::uniform(m, k, -1.0, 1.0, 75);
        let b = init::uniform(k, n, -1.0, 1.0, 76);
        let pb = PackedB::from_nn(&b);
        let base = init::uniform(m, n, -1.0, 1.0, 77);

        let mut fused = base.clone();
        gemm_rows_nt_epilogue(a.as_slice(), m, k, &pb, fused.as_mut_slice(), &|j, v| {
            v + j as f32
        });

        let mut reference = base.clone();
        gemm_rows_nn(
            a.as_slice(),
            m,
            k,
            &pb,
            reference.as_mut_slice(),
            Store::Add,
        );
        for i in 0..m {
            for j in 0..n {
                reference.set(i, j, reference.get(i, j) + j as f32);
            }
        }
        assert_eq!(fused, reference);
    }

    #[test]
    fn add_store_accumulates_onto_existing_buffer() {
        if !supported() {
            return;
        }
        let (m, k, n) = (7usize, 600usize, 11usize);
        let a = init::uniform(m, k, -1.0, 1.0, 78);
        let b = init::uniform(k, n, -1.0, 1.0, 79);
        let pb = PackedB::from_nn(&b);
        let base = init::uniform(m, n, -1.0, 1.0, 80);

        let mut acc = base.clone();
        gemm_rows_nn(a.as_slice(), m, k, &pb, acc.as_mut_slice(), Store::Add);

        let mut product = Matrix::zeros(m, n);
        gemm_rows_nn(
            a.as_slice(),
            m,
            k,
            &pb,
            product.as_mut_slice(),
            Store::Assign,
        );
        let mut reference = base.clone();
        reference.add_assign(&product).unwrap();
        // Multi-chunk Add spills into the live buffer instead of
        // summing chunks privately, so allow the re-association.
        assert_simd_close(&acc, &reference, &abs_product(&a, &b), k);
    }

    #[test]
    fn empty_k_delegates_to_the_scalar_zero_store() {
        let a = Matrix::zeros(3, 0);
        let pb = PackedB::from_nn(&Matrix::zeros(0, 5));
        let mut out = Matrix::filled(3, 5, 7.0);
        gemm_rows_nn(a.as_slice(), 3, 0, &pb, out.as_mut_slice(), Store::Assign);
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }
}
