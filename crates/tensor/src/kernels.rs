//! Register-blocked GEMM microkernels over packed panels.
//!
//! Each kernel computes `MR × NR` output tiles: `MR` rows of `NR`
//! accumulators held in registers while the packed B panel streams
//! through linearly (see [`crate::pack`]). The design constraint that
//! shapes everything here is **bit-identity** with the naive reference
//! kernels in [`crate::matrix`]:
//!
//! - every output element is owned by exactly one accumulator, which
//!   sums its products in ascending reduction order `p = 0..k` — the
//!   same f32 operation sequence as the naive per-element loop;
//! - the `nn`/`tn` orientations keep the naive kernels' zero-skip on
//!   the A element (`a == 0.0` contributes nothing, preserving signed
//!   zeros), and `nt` performs no skip, exactly like its reference;
//! - multiplications are never fused into FMAs (Rust does not contract
//!   float expressions), so `acc + a * b` rounds twice in both paths;
//! - accumulating stores ([`Store::Add`]) still build the tile from
//!   zero and add it to the destination once, which matches computing
//!   the full product separately and `add_assign`-ing it.
//!
//! The edge panel is zero-padded to `NR` lanes; kernels compute all
//! lanes but store only the valid ones.

use crate::pack::{PackedB, NR};

/// Row height of the register tile.
pub const MR: usize = 4;

/// How a computed tile lands in the output buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Store {
    /// `out = acc` — a fresh product.
    Assign,
    /// `out += acc` — accumulate a separately-computed product into an
    /// existing buffer.
    Add,
}

/// 4-row multiply-accumulate without zero-skip (the `nt` semantics).
#[inline(always)]
fn tile4(r0: &[f32], r1: &[f32], r2: &[f32], r3: &[f32], panel: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for ((((b, &a0), &a1), &a2), &a3) in panel
        .chunks_exact(NR)
        .zip(r0.iter())
        .zip(r1.iter())
        .zip(r2.iter())
        .zip(r3.iter())
    {
        for jj in 0..NR {
            acc[0][jj] += a0 * b[jj];
            acc[1][jj] += a1 * b[jj];
            acc[2][jj] += a2 * b[jj];
            acc[3][jj] += a3 * b[jj];
        }
    }
    acc
}

/// 4-row multiply-accumulate with the naive `nn`/`tn` zero-skip.
#[inline(always)]
fn tile4_skip(r0: &[f32], r1: &[f32], r2: &[f32], r3: &[f32], panel: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for ((((b, &a0), &a1), &a2), &a3) in panel
        .chunks_exact(NR)
        .zip(r0.iter())
        .zip(r1.iter())
        .zip(r2.iter())
        .zip(r3.iter())
    {
        if a0 != 0.0 {
            for jj in 0..NR {
                acc[0][jj] += a0 * b[jj];
            }
        }
        if a1 != 0.0 {
            for jj in 0..NR {
                acc[1][jj] += a1 * b[jj];
            }
        }
        if a2 != 0.0 {
            for jj in 0..NR {
                acc[2][jj] += a2 * b[jj];
            }
        }
        if a3 != 0.0 {
            for jj in 0..NR {
                acc[3][jj] += a3 * b[jj];
            }
        }
    }
    acc
}

/// 1-row edge tile without zero-skip.
#[inline(always)]
fn tile1(r0: &[f32], panel: &[f32]) -> [[f32; NR]; 1] {
    let mut acc = [[0.0f32; NR]; 1];
    for (b, &a0) in panel.chunks_exact(NR).zip(r0.iter()) {
        for jj in 0..NR {
            acc[0][jj] += a0 * b[jj];
        }
    }
    acc
}

/// 1-row edge tile with zero-skip.
#[inline(always)]
fn tile1_skip(r0: &[f32], panel: &[f32]) -> [[f32; NR]; 1] {
    let mut acc = [[0.0f32; NR]; 1];
    for (b, &a0) in panel.chunks_exact(NR).zip(r0.iter()) {
        if a0 != 0.0 {
            for jj in 0..NR {
                acc[0][jj] += a0 * b[jj];
            }
        }
    }
    acc
}

/// Lands a tile's valid lanes in the output buffer. Shared with the
/// SIMD microkernels in [`crate::simd`], which spill their vector
/// accumulators to the same `[[f32; NR]; R]` stack tiles.
#[inline(always)]
pub(crate) fn store_tile<const R: usize>(
    acc: &[[f32; NR]; R],
    out: &mut [f32],
    n: usize,
    i0: usize,
    j0: usize,
    width: usize,
    store: Store,
) {
    debug_assert_eq!(acc.len(), R);
    debug_assert!(j0 + width <= n && (i0 + R) * n <= out.len());
    for (ii, lanes) in acc.iter().enumerate() {
        let base = (i0 + ii) * n + j0;
        let row = &mut out[base..base + width];
        match store {
            Store::Assign => {
                for (o, &v) in row.iter_mut().zip(lanes.iter()) {
                    *o = v;
                }
            }
            Store::Add => {
                for (o, &v) in row.iter_mut().zip(lanes.iter()) {
                    *o += v;
                }
            }
        }
    }
}

/// Lands a tile through a column-indexed epilogue:
/// `out[i][j] = f(j, out[i][j] + acc)`. Shared with [`crate::simd`].
#[inline(always)]
pub(crate) fn store_tile_epilogue<const R: usize, F: Fn(usize, f32) -> f32>(
    acc: &[[f32; NR]; R],
    out: &mut [f32],
    n: usize,
    i0: usize,
    j0: usize,
    width: usize,
    f: &F,
) {
    debug_assert_eq!(acc.len(), R);
    debug_assert!(j0 + width <= n && (i0 + R) * n <= out.len());
    for (ii, lanes) in acc.iter().enumerate() {
        let base = (i0 + ii) * n + j0;
        let row = &mut out[base..base + width];
        for (jj, (o, &v)) in row.iter_mut().zip(lanes.iter()).enumerate() {
            *o = f(j0 + jj, *o + v);
        }
    }
}

/// `out += tile` over `[rows, n]` blocks while `row_abs[i]` takes
/// `Σ|tile[i]|` — the landing sweep of the fused weight-gradient GEMM.
/// A row keeps `NR` `f64` lanes, column `j` adds into lane `j % NR` in
/// ascending `j`, and the lanes fold pairwise, so each row sum is one
/// fixed `f64` expression of that row's values.
pub(crate) fn add_abs_rows(out: &mut [f32], tile: &[f32], n: usize, row_abs: &mut [f64]) {
    debug_assert_eq!(out.len(), tile.len());
    debug_assert_eq!(out.len(), row_abs.len() * n);
    for ((out_row, tile_row), abs) in out
        .chunks_exact_mut(n)
        .zip(tile.chunks_exact(n))
        .zip(row_abs)
    {
        let mut lanes = [0.0f64; NR];
        let mut o8 = out_row.chunks_exact_mut(NR);
        let mut t8 = tile_row.chunks_exact(NR);
        for (o, t) in o8.by_ref().zip(t8.by_ref()) {
            for l in 0..NR {
                o[l] += t[l];
                lanes[l] += f64::from(t[l].abs());
            }
        }
        for ((o, &v), lane) in o8
            .into_remainder()
            .iter_mut()
            .zip(t8.remainder())
            .zip(&mut lanes)
        {
            *o += v;
            *lane += f64::from(v.abs());
        }
        let [a, b, c, d, e, f, g, h] = lanes;
        *abs = ((a + e) + (b + f)) + ((c + g) + (d + h));
    }
}

/// `out_rows ⟵ a_rows · Bᵀ` over packed panels (the `nt` orientation,
/// no zero-skip). `a_rows` holds `rows` contiguous `[k]`-wide A rows
/// and `out_rows` the matching `[pb.n()]`-wide output rows, so the
/// parallel path can hand each worker a disjoint row panel.
pub fn gemm_nt_rows(
    a_rows: &[f32],
    rows: usize,
    k: usize,
    pb: &PackedB,
    out_rows: &mut [f32],
    store: Store,
) {
    debug_assert_eq!(pb.k(), k);
    debug_assert_eq!(a_rows.len(), rows * k);
    let n = pb.n();
    debug_assert_eq!(out_rows.len(), rows * n);
    crate::stats::record_gemm(rows, k, n);
    crate::stats::record_scalar_fallback();
    for panel_idx in 0..pb.panels() {
        let panel = pb.panel(panel_idx);
        let j0 = panel_idx * NR;
        let width = NR.min(n - j0);
        let mut i0 = 0;
        while i0 + MR <= rows {
            let acc = tile4(
                &a_rows[i0 * k..(i0 + 1) * k],
                &a_rows[(i0 + 1) * k..(i0 + 2) * k],
                &a_rows[(i0 + 2) * k..(i0 + 3) * k],
                &a_rows[(i0 + 3) * k..(i0 + 4) * k],
                panel,
            );
            store_tile(&acc, out_rows, n, i0, j0, width, store);
            i0 += MR;
        }
        while i0 < rows {
            let acc = tile1(&a_rows[i0 * k..(i0 + 1) * k], panel);
            store_tile(&acc, out_rows, n, i0, j0, width, store);
            i0 += 1;
        }
    }
}

/// [`gemm_nt_rows`] with an accumulate-and-transform epilogue:
/// `out[i][j] = f(j, out[i][j] + (a · Bᵀ)[i][j])`. This is the hook the
/// LSTM cell uses to fuse bias addition and gate activation into the
/// recurrent GEMM's store pass.
pub fn gemm_nt_rows_epilogue<F: Fn(usize, f32) -> f32>(
    a_rows: &[f32],
    rows: usize,
    k: usize,
    pb: &PackedB,
    out_rows: &mut [f32],
    f: &F,
) {
    debug_assert_eq!(pb.k(), k);
    debug_assert_eq!(a_rows.len(), rows * k);
    let n = pb.n();
    debug_assert_eq!(out_rows.len(), rows * n);
    crate::stats::record_gemm(rows, k, n);
    crate::stats::record_scalar_fallback();
    for panel_idx in 0..pb.panels() {
        let panel = pb.panel(panel_idx);
        let j0 = panel_idx * NR;
        let width = NR.min(n - j0);
        let mut i0 = 0;
        while i0 + MR <= rows {
            let acc = tile4(
                &a_rows[i0 * k..(i0 + 1) * k],
                &a_rows[(i0 + 1) * k..(i0 + 2) * k],
                &a_rows[(i0 + 2) * k..(i0 + 3) * k],
                &a_rows[(i0 + 3) * k..(i0 + 4) * k],
                panel,
            );
            store_tile_epilogue(&acc, out_rows, n, i0, j0, width, f);
            i0 += MR;
        }
        while i0 < rows {
            let acc = tile1(&a_rows[i0 * k..(i0 + 1) * k], panel);
            store_tile_epilogue(&acc, out_rows, n, i0, j0, width, f);
            i0 += 1;
        }
    }
}

/// `out_rows ⟵ a_rows · B` over packed panels (the `nn` orientation,
/// with the naive kernel's zero-skip on the A element).
pub fn gemm_nn_rows(
    a_rows: &[f32],
    rows: usize,
    k: usize,
    pb: &PackedB,
    out_rows: &mut [f32],
    store: Store,
) {
    debug_assert_eq!(pb.k(), k);
    debug_assert_eq!(a_rows.len(), rows * k);
    let n = pb.n();
    debug_assert_eq!(out_rows.len(), rows * n);
    crate::stats::record_gemm(rows, k, n);
    crate::stats::record_scalar_fallback();
    for panel_idx in 0..pb.panels() {
        let panel = pb.panel(panel_idx);
        let j0 = panel_idx * NR;
        let width = NR.min(n - j0);
        let mut i0 = 0;
        while i0 + MR <= rows {
            let acc = tile4_skip(
                &a_rows[i0 * k..(i0 + 1) * k],
                &a_rows[(i0 + 1) * k..(i0 + 2) * k],
                &a_rows[(i0 + 2) * k..(i0 + 3) * k],
                &a_rows[(i0 + 3) * k..(i0 + 4) * k],
                panel,
            );
            store_tile(&acc, out_rows, n, i0, j0, width, store);
            i0 += MR;
        }
        while i0 < rows {
            let acc = tile1_skip(&a_rows[i0 * k..(i0 + 1) * k], panel);
            store_tile(&acc, out_rows, n, i0, j0, width, store);
            i0 += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, Matrix};

    #[test]
    fn nt_tile_kernel_is_bit_identical_to_naive() {
        for (m, k, n) in [(4usize, 8usize, 8usize), (7, 5, 11), (1, 9, 3), (6, 1, 1)] {
            let a = init::uniform(m, k, -2.0, 2.0, 31);
            let b = init::uniform(n, k, -2.0, 2.0, 32);
            let pb = PackedB::from_nt(&b);
            let mut out = Matrix::zeros(m, n);
            gemm_nt_rows(a.as_slice(), m, k, &pb, out.as_mut_slice(), Store::Assign);
            assert_eq!(out, a.matmul_nt_naive(&b).unwrap(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn nn_tile_kernel_is_bit_identical_to_naive_with_zeros() {
        let mut a = init::uniform(9, 6, -2.0, 2.0, 33);
        // Plant exact zeros to exercise the skip branch.
        a.set(0, 0, 0.0);
        a.set(5, 3, 0.0);
        let b = init::uniform(6, 13, -2.0, 2.0, 34);
        let pb = PackedB::from_nn(&b);
        let mut out = Matrix::zeros(9, 13);
        gemm_nn_rows(a.as_slice(), 9, 6, &pb, out.as_mut_slice(), Store::Assign);
        assert_eq!(out, a.matmul_nn_naive(&b).unwrap());
    }

    #[test]
    fn add_store_matches_separate_product_plus_add_assign() {
        let a = init::uniform(6, 7, -1.0, 1.0, 37);
        let b = init::uniform(7, 10, -1.0, 1.0, 38);
        let base = init::uniform(6, 10, -1.0, 1.0, 39);
        let pb = PackedB::from_nn(&b);

        let mut tiled = base.clone();
        gemm_nn_rows(a.as_slice(), 6, 7, &pb, tiled.as_mut_slice(), Store::Add);

        let mut reference = base.clone();
        reference
            .add_assign(&a.matmul_nn_naive(&b).unwrap())
            .unwrap();
        assert_eq!(tiled, reference);
    }

    #[test]
    fn epilogue_sees_accumulated_value_and_column() {
        let a = init::uniform(3, 4, -1.0, 1.0, 40);
        let b = init::uniform(5, 4, -1.0, 1.0, 41);
        let pb = PackedB::from_nt(&b);
        let base = init::uniform(3, 5, -1.0, 1.0, 42);

        let mut out = base.clone();
        let bias = [0.5f32, -0.25, 0.0, 1.0, 2.0];
        gemm_nt_rows_epilogue(a.as_slice(), 3, 4, &pb, out.as_mut_slice(), &|j, v| {
            v + bias[j]
        });

        let mut reference = base.clone();
        reference
            .add_assign(&a.matmul_nt_naive(&b).unwrap())
            .unwrap();
        reference.add_row_broadcast(&bias).unwrap();
        assert_eq!(out, reference);
    }

    #[test]
    fn empty_k_stores_exact_zeros() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(5, 0);
        let pb = PackedB::from_nt(&b);
        let mut out = Matrix::filled(3, 5, 7.0);
        gemm_nt_rows(a.as_slice(), 3, 0, &pb, out.as_mut_slice(), Store::Assign);
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }
}
