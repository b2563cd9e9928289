//! ULP-bounded equivalence contract of the AVX2/FMA microkernel layer
//! (PR tentpole).
//!
//! The SIMD kernels are **not** bit-identical to the scalar
//! microkernels: FMA performs one rounding where scalar mul+add
//! performs two, and reduction depths beyond `KC` re-associate at
//! chunk boundaries. This suite pins down exactly how far the paths
//! may diverge and where they must not diverge at all:
//!
//! 1. **ULP budget per orientation** — for every `nt`/`nn`/`tn` shape,
//!    each SIMD output element is within 8 ULP of the scalar result,
//!    or within `2k·ε · |A|·|B|` (the condition floor for cancelling
//!    sums, where 8-ULP relative comparison is meaningless).
//! 2. **Dispatch boundary** — shapes below `PACK_MIN_FLOPS` stay on
//!    the bit-exact scalar path no matter what the CPU supports.
//! 3. **Bitwise determinism per dispatch path** — at 1, 2, and 8
//!    kernel threads the same input yields the same bits, because the
//!    SIMD gate is a function of the *full* logical shape (fixed
//!    before row partitioning) and each output element's FMA sequence
//!    depends only on `(k, KC)`.
//!
//! Both CI legs run this file: with `ETA_SIMD=off` every comparison
//! degenerates to scalar-vs-scalar (trivially within budget), which is
//! itself part of the contract — the env override must not change any
//! claim here, only which kernel backs it.

use eta_lstm::tensor::{init, kernels, simd, Matrix, PackedB, ParallelConfig, Store};
use proptest::prelude::*;

/// ULP distance two same-sign finite floats may differ by before we
/// call them different numbers.
const ULP_BUDGET: u32 = 8;

/// Element-wise hybrid check: ULP-close, or absolutely close relative
/// to the same product over |A|·|B| (which bounds the achievable
/// accuracy of *any* summation order at depth `k`).
fn assert_ulp_close(label: &str, got: &Matrix, reference: &Matrix, absref: &Matrix, k: usize) {
    let tol = 2.0 * k as f32 * f32::EPSILON;
    for (i, ((&g, &r), &ab)) in got
        .as_slice()
        .iter()
        .zip(reference.as_slice())
        .zip(absref.as_slice())
        .enumerate()
    {
        let ulp_ok = if g == r {
            true // covers +0.0 vs -0.0
        } else if g.is_sign_positive() == r.is_sign_positive() {
            g.to_bits().abs_diff(r.to_bits()) <= ULP_BUDGET
        } else {
            false
        };
        assert!(
            ulp_ok || (g - r).abs() <= tol * ab,
            "{label}: element {i} diverged beyond the budget: simd={g:e} scalar={r:e} \
             (|A||B| floor {:e})",
            tol * ab
        );
    }
}

/// `a · Bᵀ` through the packed in-place entry under `cfg`.
fn nt_packed(a: &Matrix, pb: &PackedB, cfg: &ParallelConfig) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), pb.n());
    a.matmul_nt_packed_into(pb, &mut out, Store::Assign, cfg)
        .expect("shapes agree");
    out
}

fn assert_bits_equal(label: &str, a: &Matrix, b: &Matrix) {
    let same = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(same, "{label}: results are not bit-identical");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// nt orientation: `A [m,k] · (B [n,k])ᵀ`.
    #[test]
    fn nt_simd_matches_scalar_within_ulp_budget(
        m in 1usize..40,
        k in 1usize..300,
        n in 1usize..33,
        seed in 0u64..50,
    ) {
        let a = init::uniform(m, k, -1.0, 1.0, seed);
        let b = init::uniform(n, k, -1.0, 1.0, seed + 1);
        let pb = PackedB::from_nt(&b);
        let mut simd_out = Matrix::zeros(m, n);
        let mut scalar_out = Matrix::zeros(m, n);
        simd::gemm_rows_nt(a.as_slice(), m, k, &pb, simd_out.as_mut_slice(), Store::Assign);
        kernels::gemm_nt_rows(a.as_slice(), m, k, &pb, scalar_out.as_mut_slice(), Store::Assign);
        let absref = a
            .map(f32::abs)
            .matmul_nt_naive(&b.map(f32::abs))
            .expect("shapes agree");
        assert_ulp_close("nt", &simd_out, &scalar_out, &absref, k);
    }

    /// nn orientation: `A [m,k] · B [k,n]`.
    #[test]
    fn nn_simd_matches_scalar_within_ulp_budget(
        m in 1usize..40,
        k in 1usize..300,
        n in 1usize..33,
        seed in 0u64..50,
    ) {
        let a = init::uniform(m, k, -1.0, 1.0, seed);
        let b = init::uniform(k, n, -1.0, 1.0, seed + 1);
        let pb = PackedB::from_nn(&b);
        let mut simd_out = Matrix::zeros(m, n);
        let mut scalar_out = Matrix::zeros(m, n);
        simd::gemm_rows_nn(a.as_slice(), m, k, &pb, simd_out.as_mut_slice(), Store::Assign);
        kernels::gemm_nn_rows(a.as_slice(), m, k, &pb, scalar_out.as_mut_slice(), Store::Assign);
        let absref = a
            .map(f32::abs)
            .matmul_nn_naive(&b.map(f32::abs))
            .expect("shapes agree");
        assert_ulp_close("nn", &simd_out, &scalar_out, &absref, k);
    }

    /// tn orientation through the full dispatch: `(A [k,m])ᵀ · B [k,n]`
    /// — the SIMD route transposes A once and streams the nn kernel,
    /// the scalar route strides columns; both must stay within budget
    /// of the naive reference.
    #[test]
    fn tn_dispatch_matches_naive_within_ulp_budget(
        m in 1usize..40,
        k in 1usize..300,
        n in 1usize..33,
        seed in 0u64..50,
    ) {
        let a = init::uniform(k, m, -1.0, 1.0, seed);
        let b = init::uniform(k, n, -1.0, 1.0, seed + 1);
        let got = a.matmul_tn(&b).expect("shapes agree");
        let reference = a.matmul_tn_naive(&b).expect("shapes agree");
        let absref = a
            .map(f32::abs)
            .matmul_tn_naive(&b.map(f32::abs))
            .expect("shapes agree");
        assert_ulp_close("tn", &got, &reference, &absref, k);
    }

    /// Row-partition invariance: any worker split of the rows produces
    /// the same bits as the unsplit call, for both wrapper kernels.
    #[test]
    fn row_partition_never_changes_bits(
        m in 2usize..40,
        k in 1usize..300,
        n in 1usize..33,
        split in 1usize..8,
        seed in 0u64..50,
    ) {
        let a = init::uniform(m, k, -1.0, 1.0, seed);
        let b = init::uniform(n, k, -1.0, 1.0, seed + 1);
        let pb = PackedB::from_nt(&b);
        let mut whole = Matrix::zeros(m, n);
        simd::gemm_rows_nt(a.as_slice(), m, k, &pb, whole.as_mut_slice(), Store::Assign);
        let mut parts = Matrix::zeros(m, n);
        let cut = split.min(m - 1).max(1);
        simd::gemm_rows_nt(
            &a.as_slice()[..cut * k],
            cut,
            k,
            &pb,
            &mut parts.as_mut_slice()[..cut * n],
            Store::Assign,
        );
        simd::gemm_rows_nt(
            &a.as_slice()[cut * k..],
            m - cut,
            k,
            &pb,
            &mut parts.as_mut_slice()[cut * n..],
            Store::Assign,
        );
        assert_bits_equal("row partition", &whole, &parts);
    }
}

/// Shapes below `PACK_MIN_FLOPS` must take the bit-exact scalar path
/// regardless of CPU features or the env override; at the boundary the
/// gate flips exactly with `simd::enabled()`.
#[test]
fn dispatch_boundary_keeps_small_shapes_bit_exact() {
    // 32·32·32 == PACK_MIN_FLOPS: first shape at or past the gate.
    assert_eq!(simd::use_simd(32, 32, 32), simd::enabled());
    assert!(!simd::use_simd(31, 32, 32));
    assert!(!simd::use_simd(32, 31, 32));
    assert!(!simd::use_simd(32, 32, 31));

    // Below the gate the packed dispatch is bitwise the naive result
    // (the seed contract of the scalar layer), SIMD present or not.
    let a = init::uniform(31, 32, -1.0, 1.0, 7);
    let b = init::uniform(32, 32, -1.0, 1.0, 8);
    let packed = nt_packed(&a, &PackedB::from_nt(&b), &ParallelConfig::serial());
    let naive = a.matmul_nt_naive(&b).expect("shapes agree");
    assert_bits_equal("below-threshold nt", &packed, &naive);
}

/// The epilogue-fused kernel lands the final chunk through
/// `f(j, out + acc)`; for `k ≤ KC` (single chunk) that is bitwise the
/// plain Add-store followed by the transform.
#[test]
fn fused_epilogue_is_bitwise_plain_store_plus_transform_for_single_chunk() {
    let (m, k, n) = (17, 96, 24);
    let a = init::uniform(m, k, -1.0, 1.0, 11);
    let b = init::uniform(n, k, -1.0, 1.0, 12);
    let pb = PackedB::from_nt(&b);
    let bias: Vec<f32> = (0..n).map(|j| 0.25 * j as f32 - 1.0).collect();
    let cfg = ParallelConfig::serial();

    let mut fused = init::uniform(m, n, -1.0, 1.0, 13);
    let mut plain = fused.clone();
    a.matmul_nt_packed_epilogue(&pb, &mut fused, &cfg, |j, v| (v + bias[j]).tanh())
        .expect("shapes agree");
    a.matmul_nt_packed_into(&pb, &mut plain, Store::Add, &cfg)
        .expect("shapes agree");
    let plain = Matrix::from_fn(m, n, |r, c| (plain.get(r, c) + bias[c]).tanh());
    assert_bits_equal("fused epilogue", &fused, &plain);
}

/// Same input → same bits at 1, 2, and 8 kernel threads, whichever
/// dispatch path the session's env/CPU selects, for all three
/// orientations training uses.
#[test]
fn thread_count_never_changes_bits_on_either_dispatch_path() {
    let (m, k, n) = (48, 260, 40); // k > KC: chunked reduction included
    let a_nt = init::uniform(m, k, -1.0, 1.0, 21);
    let b_nt = init::uniform(n, k, -1.0, 1.0, 22);
    let b_nn = init::uniform(k, n, -1.0, 1.0, 23);
    let a_tn = init::uniform(k, m, -1.0, 1.0, 24);
    let pb_nt = PackedB::from_nt(&b_nt);
    let pb_nn = PackedB::from_nn(&b_nn);

    let serial = ParallelConfig::serial();
    let serial_nt = nt_packed(&a_nt, &pb_nt, &serial);
    let serial_nn = a_nt
        .par_matmul_nn_packed(&pb_nn, &serial)
        .expect("shapes agree");
    let serial_tn = a_tn.matmul_tn(&b_nn).expect("shapes agree");

    for threads in [1usize, 2, 8] {
        let mut cfg = ParallelConfig::with_threads(threads);
        cfg.min_kernel_flops = 1; // force the parallel row split
        let par_nt = nt_packed(&a_nt, &pb_nt, &cfg);
        let par_nn = a_nt
            .par_matmul_nn_packed(&pb_nn, &cfg)
            .expect("shapes agree");
        let mut par_tn = Matrix::zeros(m, n);
        a_tn.matmul_tn_acc_into(&b_nn, &mut par_tn, &cfg)
            .expect("shapes agree");
        assert_bits_equal(&format!("nt at {threads} threads"), &serial_nt, &par_nt);
        assert_bits_equal(&format!("nn at {threads} threads"), &serial_nn, &par_nn);
        assert_bits_equal(&format!("tn at {threads} threads"), &serial_tn, &par_tn);
    }
}

/// The dispatch telemetry counters actually move: a large GEMM records
/// either a SIMD dispatch or a scalar fallback, never neither.
#[test]
fn dispatch_counters_classify_every_large_gemm() {
    use eta_lstm::tensor::stats;
    let a = init::uniform(64, 64, -1.0, 1.0, 31);
    let b = init::uniform(64, 64, -1.0, 1.0, 32);
    let pb = PackedB::from_nt(&b);
    let before = stats::dispatch_snapshot();
    let _ = nt_packed(&a, &pb, &ParallelConfig::serial());
    let d = stats::dispatch_snapshot().since(&before);
    if simd::enabled() {
        assert!(d.simd >= 1, "SIMD-enabled session must record a dispatch");
    } else {
        assert!(d.scalar >= 1, "scalar session must record a fallback");
    }
}
