//! Property-based tests for the tensor substrate.

use eta_tensor::{
    activation, kernels, simd, Matrix, PackedB, ParallelConfig, SparseVec, Store, TnScratch,
};
use proptest::prelude::*;

/// `a · b` through the packed `nn` entry (always the tiled kernel).
fn nn_packed(a: &Matrix, b: &Matrix, cfg: &ParallelConfig) -> Matrix {
    a.par_matmul_nn_packed(&PackedB::from_nn_par(b, cfg), cfg)
        .unwrap()
}

/// `a · bᵀ` through the packed in-place `nt` entry (always the tiled
/// kernel).
fn nt_packed(a: &Matrix, b: &Matrix, cfg: &ParallelConfig) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    a.matmul_nt_packed_into(&PackedB::from_nt_par(b, cfg), &mut out, Store::Assign, cfg)
        .unwrap();
    out
}

/// `aᵀ · b` through the tiled scalar kernel the way the weight-gradient
/// accumulator runs it — `a` transposed, `b` as `nn` panels — produced
/// as two row blocks the way a two-worker partition would (the `Matrix`
/// entries only reach this kernel above `PACK_MIN_FLOPS`).
fn tn_tiled(a: &Matrix, b: &Matrix) -> Matrix {
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    let pb = PackedB::from_nn(b);
    let at = a.transpose();
    let mut out = Matrix::zeros(m, n);
    let (top, bottom) = out.as_mut_slice().split_at_mut((m / 2) * n);
    let (at_top, at_bottom) = at.as_slice().split_at((m / 2) * k);
    kernels::gemm_nn_rows(at_top, m / 2, k, &pb, top, Store::Assign);
    kernels::gemm_nn_rows(at_bottom, m - m / 2, k, &pb, bottom, Store::Assign);
    out
}

/// Zero-seasoned random matrix: exact zeros are planted so the packed
/// kernels' zero-skip branches get exercised alongside the dense path.
fn seasoned(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = eta_tensor::init::uniform(rows, cols, -2.0, 2.0, seed);
    if !m.is_empty() {
        let n = m.len();
        for idx in 0..n / 5 {
            let flat = (idx * 7 + seed as usize) % n;
            m.as_mut_slice()[flat] = 0.0;
        }
    }
    m
}

/// The fused weight-gradient entry at one shape (`a` is `[k, m]`, `b`
/// is `[k, n]`), against product-then-`add_assign`-then-`abs_sum`:
///
/// - `out` is **bitwise** `base + a.matmul_tn(b)` on either tier, and
///   that product is bitwise the naive one on the scalar tier, within
///   the `tests/simd_equivalence.rs` budget (8 ULP, or the `2k·ε·|A|ᵀ|B|`
///   floor for cancelling sums) under SIMD;
/// - the returned sum is within 1e-12 relative of the product's
///   `abs_sum`;
/// - both have the same bits at 1, 2 and 8 forced kernel threads, and
///   with a scratch that last served another shape.
fn check_fused_tn(m: usize, k: usize, n: usize, seed: u64) {
    let a = seasoned(k, m, seed);
    let b = seasoned(k, n, seed.wrapping_add(1));
    let base = seasoned(m, n, seed.wrapping_add(2));
    let label = format!("[{k},{m}]ᵀ·[{k},{n}]");

    let product = a.matmul_tn(&b).unwrap();
    let naive = a.matmul_tn_naive(&b).unwrap();
    if simd::use_simd(m, k, n) {
        let absref = a.map(f32::abs).matmul_tn_naive(&b.map(f32::abs)).unwrap();
        let tol = 2.0 * k as f32 * f32::EPSILON;
        for ((&g, &r), &ab) in product
            .as_slice()
            .iter()
            .zip(naive.as_slice())
            .zip(absref.as_slice())
        {
            let ulp_ok = g == r
                || (g.is_sign_positive() == r.is_sign_positive()
                    && g.to_bits().abs_diff(r.to_bits()) <= 8);
            assert!(
                ulp_ok || (g - r).abs() <= tol * ab,
                "{label}: {g:e} vs {r:e}"
            );
        }
    } else {
        assert_eq!(
            product, naive,
            "{label}: scalar tier is bitwise the naive loop"
        );
    }
    let mut expected = base.clone();
    expected.add_assign(&product).unwrap();
    let expected_sum = product.abs_sum();

    let fused = |threads: usize, scratch: &mut TnScratch| {
        let mut cfg = ParallelConfig::with_threads(threads);
        cfg.min_kernel_flops = 1;
        let mut out = base.clone();
        let sum = a
            .matmul_tn_acc_abs_into(&b, &mut out, scratch, &cfg)
            .unwrap();
        (out, sum)
    };
    let (out, sum) = fused(1, &mut TnScratch::default());
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&out), bits(&expected), "{label}: out");
    assert!(
        (sum - expected_sum).abs() <= 1e-12 * expected_sum,
        "{label}: sum {sum:e} vs abs_sum {expected_sum:e}"
    );

    // A scratch that last served a larger and then a smaller product.
    let mut used = TnScratch::default();
    for (dm, dn) in [(m + 7, n + 9), (m / 2 + 1, n / 2 + 1)] {
        let other = seasoned(k, dm, seed.wrapping_add(3));
        let rhs = seasoned(k, dn, seed.wrapping_add(4));
        other
            .matmul_tn_acc_abs_into(
                &rhs,
                &mut Matrix::zeros(dm, dn),
                &mut used,
                &ParallelConfig::serial(),
            )
            .unwrap();
    }
    for threads in [1usize, 2, 8] {
        for scratch in [&mut TnScratch::default(), &mut used] {
            let (out_t, sum_t) = fused(threads, scratch);
            assert_eq!(
                bits(&out_t),
                bits(&out),
                "{label}: out at {threads} threads"
            );
            assert_eq!(
                sum_t.to_bits(),
                sum.to_bits(),
                "{label}: sum at {threads} threads"
            );
        }
    }
}

/// The weight-gradient accumulator over one chunk cut into pushes of
/// `cuts[i]` rows (`a` is `[Σcuts, m]`, the two products' operands
/// `[Σcuts, n1]` / `[Σcuts, n2]`), with room for `depth` reduction steps:
///
/// - the pushes and one flush leave both `out`s and the returned sum
///   **bitwise** what one `matmul_tn_acc_abs_into` per product on the
///   stacked operands leaves, at 1, 2 and 8 forced kernel threads, on a
///   fresh accumulator and on one that last held another shape;
/// - push + flush per cut is bitwise `matmul_tn` + `add_assign` per cut;
/// - the two differ by no more than the `2k·ε·(|A|ᵀ|B| + |out|)` floor
///   of a reordered sum landing on a non-zero `out`.
fn check_accumulator(m: usize, (n1, n2): (usize, usize), cuts: &[usize], depth: usize, seed: u64) {
    let k: usize = cuts.iter().sum();
    let a = seasoned(k, m, seed);
    let rhs = [
        seasoned(k, n1, seed.wrapping_add(1)),
        seasoned(k, n2, seed.wrapping_add(2)),
    ];
    let base = [
        seasoned(m, n1, seed.wrapping_add(3)),
        seasoned(m, n2, seed.wrapping_add(4)),
    ];
    let label = format!("[{k},{m}]ᵀ·[{k},{n1}|{n2}] cut {cuts:?} in {depth}");
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let forced = |threads: usize| {
        let mut cfg = ParallelConfig::with_threads(threads);
        cfg.min_kernel_flops = 1;
        cfg
    };

    let mut stacked = base.clone();
    let mut stacked_sum = 0.0;
    for (b, out) in rhs.iter().zip(&mut stacked) {
        stacked_sum += a
            .matmul_tn_acc_abs_into(b, out, &mut TnScratch::default(), &forced(1))
            .unwrap();
    }

    let mut used = TnScratch::default();
    used.reset(3);
    let other = seasoned(3, m + 5, seed.wrapping_add(5));
    used.push(&other, &[&seasoned(3, n2 + 9, seed.wrapping_add(6))])
        .unwrap();
    for threads in [1usize, 2, 8] {
        for acc in [&mut TnScratch::default(), &mut used] {
            acc.reset(depth);
            let mut row0 = 0;
            for &r in cuts {
                let piece = |m: &Matrix| m.rows_slice(row0, r);
                acc.push(&piece(&a), &[&piece(&rhs[0]), &piece(&rhs[1])])
                    .unwrap();
                row0 += r;
            }
            assert_eq!(acc.pending(), k);
            let [mut o1, mut o2] = base.clone();
            let sum = acc
                .flush(&mut [&mut o1, &mut o2], &forced(threads))
                .unwrap();
            assert_eq!(acc.pending(), 0);
            assert_eq!(
                bits(&o1),
                bits(&stacked[0]),
                "{label}: out 1, {threads} threads"
            );
            assert_eq!(
                bits(&o2),
                bits(&stacked[1]),
                "{label}: out 2, {threads} threads"
            );
            assert_eq!(sum.to_bits(), stacked_sum.to_bits(), "{label}: sum");
            // Nothing pending: both outputs stay as they are.
            assert_eq!(
                acc.flush(&mut [&mut o1, &mut o2], &forced(threads))
                    .unwrap(),
                0.0
            );
            assert_eq!(bits(&o1), bits(&stacked[0]), "{label}: empty flush");
        }
    }

    let mut per_cut = base.clone();
    let mut reference = base.clone();
    let mut acc = TnScratch::default();
    let mut row0 = 0;
    for &r in cuts {
        let piece = |m: &Matrix| m.rows_slice(row0, r);
        acc.reset(r);
        acc.push(&piece(&a), &[&piece(&rhs[0]), &piece(&rhs[1])])
            .unwrap();
        let [o1, o2] = &mut per_cut;
        acc.flush(&mut [o1, o2], &forced(2)).unwrap();
        for (b, out) in rhs.iter().zip(&mut reference) {
            out.add_assign(&piece(&a).matmul_tn(&piece(b)).unwrap())
                .unwrap();
        }
        row0 += r;
    }
    let tol = 2.0 * k as f32 * f32::EPSILON;
    for j in 0..2 {
        assert_eq!(
            bits(&per_cut[j]),
            bits(&reference[j]),
            "{label}: per cut, out {j}"
        );
        let floor = a
            .map(f32::abs)
            .matmul_tn_naive(&rhs[j].map(f32::abs))
            .unwrap();
        // The landing adds round relative to `out`, hence `|base|`.
        let scale = floor.add(&base[j].map(f32::abs)).unwrap();
        for ((&c, &p), &f) in stacked[j]
            .as_slice()
            .iter()
            .zip(per_cut[j].as_slice())
            .zip(scale.as_slice())
        {
            assert!(
                (c - p).abs() <= tol * f,
                "{label}: chunked {c:e} vs per cut {p:e}"
            );
        }
    }
}

/// Chunks as the backward sweep forms them — eight cells of 32 rows
/// into `KC`, a short last chunk, ragged cuts — at `m` off the 6- and
/// 4-row tiles and `n` off the 16- and 8-lane panels.
#[test]
fn accumulator_pushes_and_one_flush_match_the_stacked_product() {
    check_accumulator(96, (40, 24), &[32; 8], simd::KC, 11);
    check_accumulator(131, (77, 520), &[32, 32, 32], simd::KC, 12);
    check_accumulator(64, (48, 16), &[7, 1, 16, 3, 16], 64, 13);
    check_accumulator(50, (33, 8), &[300, 17], 400, 14);
}

/// What does not fit is refused and leaves the pending chunk as it was.
#[test]
fn accumulator_rejects_mismatched_and_overflowing_pushes() {
    let (a, x) = (seasoned(4, 10, 1), seasoned(4, 6, 2));
    let mut acc = TnScratch::default();
    acc.reset(6);
    acc.push(&a, &[&x]).unwrap();
    for (bad_a, bad_x) in [
        (seasoned(4, 10, 3), seasoned(4, 6, 4)), // 4 + 4 rows > 6
        (seasoned(2, 9, 3), seasoned(2, 6, 4)),  // other m
        (seasoned(2, 10, 3), seasoned(2, 7, 4)), // other n
        (seasoned(2, 10, 3), seasoned(3, 6, 4)), // rows disagree
    ] {
        assert!(acc.push(&bad_a, &[&bad_x]).is_err());
        assert!(acc.push(&bad_a, &[&bad_x, &bad_x]).is_err());
        assert_eq!(acc.pending(), 4);
    }
    let mut wrong = Matrix::zeros(10, 7);
    assert!(acc
        .flush(&mut [&mut wrong], &ParallelConfig::serial())
        .is_err());
    let mut out = Matrix::zeros(10, 6);
    acc.flush(&mut [&mut out], &ParallelConfig::serial())
        .unwrap();
    assert_eq!(out, a.matmul_tn_naive(&x).unwrap());
}

/// Shapes whose product spans several row blocks of the fused entry's
/// scratch, per worker, at a single-chunk and a chunk-crossing depth.
#[test]
fn fused_tn_acc_abs_spans_several_row_blocks() {
    check_fused_tn(200, 24, 600, 5);
    check_fused_tn(131, 300, 520, 6);
}

fn small_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |v| Matrix::from_vec(r, c, v).unwrap())
    })
}

fn pair_same_shape(max_dim: usize) -> impl Strategy<Value = (Matrix, Matrix)> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        let a = proptest::collection::vec(-10.0f32..10.0, r * c);
        let b = proptest::collection::vec(-10.0f32..10.0, r * c);
        (a, b).prop_map(move |(a, b)| {
            (
                Matrix::from_vec(r, c, a).unwrap(),
                Matrix::from_vec(r, c, b).unwrap(),
            )
        })
    })
}

proptest! {
    #[test]
    fn transpose_is_involution(m in small_matrix(8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn add_commutes((a, b) in pair_same_shape(8)) {
        prop_assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap());
    }

    #[test]
    fn hadamard_commutes((a, b) in pair_same_shape(8)) {
        prop_assert_eq!(a.hadamard(&b).unwrap(), b.hadamard(&a).unwrap());
    }

    #[test]
    fn matmul_nt_matches_naive(
        (m, k, n) in (1usize..6, 1usize..6, 1usize..6),
        seed in 0u64..1000
    ) {
        let mk = eta_tensor::init::uniform(m, k, -2.0, 2.0, seed);
        let nk = eta_tensor::init::uniform(n, k, -2.0, 2.0, seed.wrapping_add(1));
        let fast = mk.matmul_nt(&nk).unwrap();
        let slow = mk.matmul_nn(&nk.transpose()).unwrap();
        prop_assert!(fast.rel_diff(&slow) < 1e-5);
    }

    #[test]
    fn matmul_tn_matches_naive(
        (k, m, n) in (1usize..6, 1usize..6, 1usize..6),
        seed in 0u64..1000
    ) {
        let km = eta_tensor::init::uniform(k, m, -2.0, 2.0, seed);
        let kn = eta_tensor::init::uniform(k, n, -2.0, 2.0, seed.wrapping_add(1));
        let fast = km.matmul_tn(&kn).unwrap();
        let slow = km.transpose().matmul_nn(&kn).unwrap();
        prop_assert!(fast.rel_diff(&slow) < 1e-5);
    }

    #[test]
    fn matmul_distributes_over_add(
        (a, (b, c)) in (1usize..5, 1usize..5, 1usize..5).prop_flat_map(|(m, k, n)| {
            let a = proptest::collection::vec(-3.0f32..3.0, m * k)
                .prop_map(move |v| Matrix::from_vec(m, k, v).unwrap());
            let b = proptest::collection::vec(-3.0f32..3.0, k * n)
                .prop_map(move |v| Matrix::from_vec(k, n, v).unwrap());
            let c = proptest::collection::vec(-3.0f32..3.0, k * n)
                .prop_map(move |v| Matrix::from_vec(k, n, v).unwrap());
            (a, (b, c))
        })
    ) {
        let lhs = a.matmul_nn(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul_nn(&b).unwrap().add(&a.matmul_nn(&c).unwrap()).unwrap();
        prop_assert!(lhs.rel_diff(&rhs) < 1e-4);
    }

    /// The PR 5 kernel contract: the packed register-blocked GEMMs are
    /// **bit-identical** to the naive reference loops for every
    /// orientation, across odd shapes — non-multiples of the 4×8 tile,
    /// degenerate 1×N / N×1 edges, and empty-k products (0 is included
    /// in every dimension range).
    #[test]
    fn packed_gemm_bit_identical_to_naive_all_orientations(
        (m, k, n) in (0usize..18, 0usize..18, 0usize..18),
        seed in 0u64..1000
    ) {
        let a_nn = seasoned(m, k, seed);
        let b_nn = seasoned(k, n, seed.wrapping_add(1));
        let serial = ParallelConfig::serial();
        prop_assert_eq!(
            nn_packed(&a_nn, &b_nn, &serial),
            a_nn.matmul_nn_naive(&b_nn).unwrap()
        );

        let b_nt = seasoned(n, k, seed.wrapping_add(2));
        prop_assert_eq!(
            nt_packed(&a_nn, &b_nt, &serial),
            a_nn.matmul_nt_naive(&b_nt).unwrap()
        );

        let a_tn = seasoned(k, m, seed.wrapping_add(3));
        prop_assert_eq!(tn_tiled(&a_tn, &b_nn), a_tn.matmul_tn_naive(&b_nn).unwrap());
    }

    /// The implicit entry points (which dispatch on PACK_MIN_FLOPS) and
    /// the parallel entry points agree bitwise with the naive loops at
    /// any thread count — the dispatch threshold and the row-block
    /// partitioning are latency knobs, never numeric ones.
    #[test]
    fn gemm_dispatch_and_parallel_bit_identical_to_naive(
        (m, k, n) in (1usize..12, 1usize..12, 1usize..12),
        threads in 1usize..5,
        force_parallel in proptest::bool::ANY,
        seed in 1000u64..2000
    ) {
        let mut cfg = ParallelConfig::with_threads(threads);
        if force_parallel {
            cfg.min_kernel_flops = 1;
        }
        let a = seasoned(m, k, seed);
        let b_nn = seasoned(k, n, seed.wrapping_add(1));
        let b_nt = seasoned(n, k, seed.wrapping_add(2));
        let a_tn = seasoned(k, m, seed.wrapping_add(3));

        prop_assert_eq!(a.matmul_nn(&b_nn).unwrap(), a.matmul_nn_naive(&b_nn).unwrap());
        prop_assert_eq!(a.matmul_nt(&b_nt).unwrap(), a.matmul_nt_naive(&b_nt).unwrap());
        prop_assert_eq!(a_tn.matmul_tn(&b_nn).unwrap(), a_tn.matmul_tn_naive(&b_nn).unwrap());

        prop_assert_eq!(nn_packed(&a, &b_nn, &cfg), a.matmul_nn_naive(&b_nn).unwrap());
        prop_assert_eq!(nt_packed(&a, &b_nt, &cfg), a.matmul_nt_naive(&b_nt).unwrap());
        let mut tn = Matrix::zeros(m, n);
        a_tn.matmul_tn_acc_into(&b_nn, &mut tn, &cfg).unwrap();
        prop_assert_eq!(tn, a_tn.matmul_tn_naive(&b_nn).unwrap());
    }

    /// The in-place accumulate/epilogue forms match their composed
    /// reference pipelines bitwise (product, add_assign, bias, map).
    #[test]
    fn packed_into_forms_match_composed_reference(
        (m, k, n) in (1usize..10, 1usize..10, 1usize..10),
        threads in 1usize..4,
        seed in 2000u64..3000
    ) {
        let mut cfg = ParallelConfig::with_threads(threads);
        cfg.min_kernel_flops = 1;
        let a = seasoned(m, k, seed);
        let b_nt = seasoned(n, k, seed.wrapping_add(1));
        let pb = PackedB::from_nt(&b_nt);
        let base = seasoned(m, n, seed.wrapping_add(2));

        let mut acc = base.clone();
        a.matmul_nt_packed_into(&pb, &mut acc, Store::Add, &cfg).unwrap();
        let mut reference = base.clone();
        reference.add_assign(&a.matmul_nt_naive(&b_nt).unwrap()).unwrap();
        prop_assert_eq!(&acc, &reference);

        let bias: Vec<f32> = (0..n).map(|j| (j as f32) * 0.25 - 1.0).collect();
        let mut fused = base.clone();
        a.matmul_nt_packed_epilogue(&pb, &mut fused, &cfg, |j, v| (v + bias[j]).tanh()).unwrap();
        let mut composed = base.clone();
        composed.add_assign(&a.matmul_nt_naive(&b_nt).unwrap()).unwrap();
        composed.add_row_broadcast(&bias).unwrap();
        composed.map_inplace(f32::tanh);
        prop_assert_eq!(&fused, &composed);

        let a_tn = seasoned(k, m, seed.wrapping_add(3));
        let rhs = seasoned(k, n, seed.wrapping_add(4));
        let mut dw = seasoned(m, n, seed.wrapping_add(5));
        let mut dw_ref = dw.clone();
        a_tn.matmul_tn_acc_into(&rhs, &mut dw, &cfg).unwrap();
        dw_ref.add_assign(&a_tn.matmul_tn_naive(&rhs).unwrap()).unwrap();
        prop_assert_eq!(&dw, &dw_ref);
    }

    /// The fused weight-gradient entry over every edge the tiers have:
    /// `m` across the 6- and 4-row register tiles, `n` across the 16-
    /// and 8-lane panels, depths inside one `KC` chunk and crossing it
    /// off a multiple, products below and above `PACK_MIN_FLOPS`, onto
    /// a non-zero `out`.
    #[test]
    fn fused_tn_acc_abs_matches_product_add_abs_sum(
        (m, n) in (1usize..48, 1usize..48),
        (deep, k) in (proptest::bool::ANY, 1usize..48),
        seed in 3000u64..4000
    ) {
        let k = if deep { simd::KC + 1 + 7 * k } else { k };
        check_fused_tn(m, k, n, seed);
    }

    /// The accumulator on small random chunks: both sides of
    /// `PACK_MIN_FLOPS`, ragged cuts, with and without spare room.
    #[test]
    fn accumulator_matches_stacked_product_on_random_chunks(
        (m, n1, n2) in (1usize..40, 1usize..40, 1usize..40),
        cuts in proptest::collection::vec(1usize..12, 1..6),
        spare in 0usize..9,
        seed in 5000u64..6000
    ) {
        let depth = cuts.iter().sum::<usize>() + spare;
        check_accumulator(m, (n1, n2), &cuts, depth, seed);
    }

    #[test]
    fn sparse_roundtrip_preserves_kept_values(
        dense in proptest::collection::vec(-1.0f32..1.0, 0..64),
        threshold in 0.0f32..0.5
    ) {
        let sv = SparseVec::compress(&dense, threshold);
        let decoded = sv.decode();
        prop_assert_eq!(decoded.len(), dense.len());
        for (orig, dec) in dense.iter().zip(decoded.iter()) {
            if orig.abs() >= threshold {
                prop_assert_eq!(orig, dec);
            } else {
                prop_assert_eq!(*dec, 0.0);
            }
        }
    }

    #[test]
    fn sparse_nnz_monotone_in_threshold(
        dense in proptest::collection::vec(-1.0f32..1.0, 1..64),
        t1 in 0.0f32..0.5,
        t2 in 0.0f32..0.5
    ) {
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let a = SparseVec::compress(&dense, lo);
        let b = SparseVec::compress(&dense, hi);
        prop_assert!(a.nnz() >= b.nnz());
    }

    #[test]
    fn sparse_mul_dense_matches_dense_path(
        dense in proptest::collection::vec(-1.0f32..1.0, 1..64),
        seed in 0u64..100
    ) {
        let grad = eta_tensor::init::uniform(1, dense.len(), -2.0, 2.0, seed);
        let sv = SparseVec::compress(&dense, 0.1);
        let sparse_out = sv.mul_dense(grad.as_slice());
        for (i, (&d, &g)) in dense.iter().zip(grad.as_slice().iter()).enumerate() {
            let expect = if d.abs() >= 0.1 { d * g } else { 0.0 };
            prop_assert!((sparse_out[i] - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn sigmoid_output_in_unit_interval(x in -50.0f32..50.0) {
        let y = activation::sigmoid(x);
        prop_assert!((0.0..=1.0).contains(&y));
    }

    #[test]
    fn tanh_output_in_unit_ball(x in -50.0f32..50.0) {
        let y = activation::tanh(x);
        prop_assert!((-1.0..=1.0).contains(&y));
    }

    #[test]
    fn softmax_is_distribution(v in proptest::collection::vec(-5.0f32..5.0, 1..16)) {
        let p = activation::softmax(&v);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&x| x >= 0.0));
    }
}
