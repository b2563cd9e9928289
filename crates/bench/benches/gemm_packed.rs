//! Packed register-blocked GEMM vs the naive triple loop, plus the
//! per-shape roofline sweep.
//!
//! Three products come out of one run:
//!
//! 1. **Acceptance anchor** — the packed `nt` kernel must stay ≥2×
//!    faster than naive at 256×256×1024 in release, and both packed
//!    orientations must match the naive reference: bit-identical when
//!    the shape stays on the scalar path, ULP-bounded (the contract
//!    from `tests/simd_equivalence.rs`) when the AVX2/FMA kernels
//!    dispatch — FMA rounds once where scalar mul+add rounds twice,
//!    so bitwise equality is the wrong claim on the SIMD path.
//! 2. **Machine roofs** — peak compute GFLOP/s from an in-cache packed
//!    GEMM and memory bandwidth GB/s from a streaming triad, measured
//!    on the machine the sweep runs on rather than assumed.
//! 3. **Per-shape medians** — the three LSTM-cell GEMM orientations at
//!    the paper's batch-128/hidden-2048 cell dimensions
//!    (`eta_prof::roofline::cell_gemm_dims`), written to
//!    `BENCH_gemm.json` (the perf-gate input consumed by
//!    `eta-bench-track`) and folded into `results/roofline.json`
//!    (achieved vs roof GFLOP/s for every LN5–LN8 Table I shape).

use criterion::{criterion_group, criterion_main, Criterion};
use eta_prof::roofline::{self, KernelMeasurement, MachineRoofs};
use eta_tensor::{init, Matrix, PackedB, ParallelConfig, Store};
use serde_json::Value;
use std::hint::black_box;
use std::time::Instant;

/// The in-tree serde shim has no `json!` macro; build the report as an
/// explicit [`Value`] tree (insertion order is preserved, so the
/// checked-in artifact diffs stably).
fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `a · Bᵀ` through the training step's packed `nt` entry, serial (this
/// bench times kernels, not row partitioning), into a fresh output.
fn nt_packed(a: &Matrix, pb: &PackedB) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), pb.n());
    a.matmul_nt_packed_into(pb, &mut out, Store::Assign, &ParallelConfig::serial())
        .unwrap();
    out
}

/// `a · B` through the training step's packed `nn` entry, serial.
fn nn_packed(a: &Matrix, pb: &PackedB) -> Matrix {
    a.par_matmul_nn_packed(pb, &ParallelConfig::serial())
        .unwrap()
}

/// Acceptance-anchor shape (the original PR gate).
const M: usize = 256;
const K: usize = 256;
const N: usize = 1024;

/// Samples per kernel in the interleaved sweeps: the naive reference
/// is sampled less (it is the slow side and only normalizes speedup);
/// medians discard stray slow runs either way.
const NAIVE_SAMPLES: usize = 3;
const PACKED_SAMPLES: usize = 5;

/// Maximum ULP distance tolerated on the SIMD dispatch path (mirrors
/// `tests/simd_equivalence.rs`); scalar-path shapes must be bitwise.
const ULP_BUDGET: u32 = 8;

/// Pre-flight equivalence gate, dispatch-aware: when the shape stays
/// on the scalar path the packed result must be bit-identical to
/// naive; when `simd::use_simd` says the AVX2/FMA kernels engage, each
/// element must be within [`ULP_BUDGET`] of naive or within the
/// `2k·ε·|A||B|` condition floor (`absref` is naive over `|A|`,`|B|`).
fn assert_gemm_matches(naive: &Matrix, packed: &Matrix, absref: &Matrix, k: usize, what: &str) {
    assert_eq!(naive.rows(), packed.rows(), "{what}: row mismatch");
    assert_eq!(naive.cols(), packed.cols(), "{what}: col mismatch");
    let simd = eta_tensor::simd::use_simd(naive.rows(), k, naive.cols());
    let tol = 2.0 * k as f32 * f32::EPSILON;
    for (i, ((&r, &g), &ab)) in naive
        .as_slice()
        .iter()
        .zip(packed.as_slice())
        .zip(absref.as_slice())
        .enumerate()
    {
        if !simd {
            assert_eq!(
                r.to_bits(),
                g.to_bits(),
                "{what}: element {i} diverged on the scalar path: {r} vs {g}"
            );
            continue;
        }
        let ulp_ok = g == r
            || (g.is_sign_positive() == r.is_sign_positive()
                && g.to_bits().abs_diff(r.to_bits()) <= ULP_BUDGET);
        assert!(
            ulp_ok || (g - r).abs() <= tol * ab,
            "{what}: element {i} beyond the SIMD ULP budget: packed={g:e} naive={r:e}"
        );
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Peak compute roof: an in-cache packed `nt` GEMM (128³ — ~200 KB of
/// operands, resident in L2) timed in batches; the best batch
/// approximates the kernel's compute ceiling.
fn measure_peak_gflops() -> f64 {
    const D: usize = 128;
    const CALLS_PER_BATCH: usize = 8;
    let a = init::uniform(D, D, -1.0, 1.0, 21);
    let b = init::uniform(D, D, -1.0, 1.0, 22);
    let pb = PackedB::from_nt(&b);
    // Warm the caches and the branch predictors.
    black_box(nt_packed(&a, &pb));
    let flops = (2 * D * D * D * CALLS_PER_BATCH) as f64;
    let mut best = f64::INFINITY;
    for _ in 0..10 {
        let t0 = Instant::now();
        for _ in 0..CALLS_PER_BATCH {
            black_box(nt_packed(&a, &pb));
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    flops / best / 1e9
}

/// Memory-bandwidth roof: a streaming triad `a[i] = b[i] + s·c[i]`
/// over arrays far larger than last-level cache. Bytes are counted
/// STREAM-style (two reads + one write per element, no write-allocate
/// credit), so the roof is conservative.
fn measure_mem_bw_gbps() -> f64 {
    const LEN: usize = 1 << 24; // 16.7M f32 per array, 64 MB each
    let b = vec![1.5f32; LEN];
    let c = vec![2.5f32; LEN];
    let mut a = vec![0.0f32; LEN];
    let bytes = (3 * LEN * 4) as f64;
    let mut best = f64::INFINITY;
    for pass in 0..5 {
        let s = 1.0 + pass as f32; // defeat pass-to-pass folding
        let t0 = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = *bi + s * *ci;
        }
        black_box(&mut a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    bytes / best / 1e9
}

/// One cell-dimension orientation, measured interleaved (each rep
/// times naive then packed back to back so drift hits both sides).
fn measure_orientation(orientation: &str, m: usize, k: usize, n: usize) -> KernelMeasurement {
    let mut naive = Vec::new();
    let mut packed = Vec::new();
    match orientation {
        "nt" => {
            let a = init::uniform(m, k, -1.0, 1.0, 31);
            let b = init::uniform(n, k, -1.0, 1.0, 32);
            let pb = PackedB::from_nt(&b);
            for rep in 0..PACKED_SAMPLES {
                if rep < NAIVE_SAMPLES {
                    let t0 = Instant::now();
                    black_box(a.matmul_nt_naive(&b).unwrap());
                    naive.push(t0.elapsed().as_secs_f64());
                }
                let t1 = Instant::now();
                black_box(nt_packed(&a, &pb));
                packed.push(t1.elapsed().as_secs_f64());
            }
        }
        "nn" => {
            let a = init::uniform(m, k, -1.0, 1.0, 33);
            let b = init::uniform(k, n, -1.0, 1.0, 34);
            let pb = PackedB::from_nn(&b);
            for rep in 0..PACKED_SAMPLES {
                if rep < NAIVE_SAMPLES {
                    let t0 = Instant::now();
                    black_box(a.matmul_nn_naive(&b).unwrap());
                    naive.push(t0.elapsed().as_secs_f64());
                }
                let t1 = Instant::now();
                black_box(nn_packed(&a, &pb));
                packed.push(t1.elapsed().as_secs_f64());
            }
        }
        "tn" => {
            // `selfᵀ · rhs`: self is [k, m], rhs is [k, n].
            let a = init::uniform(k, m, -1.0, 1.0, 35);
            let b = init::uniform(k, n, -1.0, 1.0, 36);
            // The step packs this rhs fresh every timestep (it is an
            // activation), so the dispatcher's pack is part of the cost.
            for rep in 0..PACKED_SAMPLES {
                if rep < NAIVE_SAMPLES {
                    let t0 = Instant::now();
                    black_box(a.matmul_tn_naive(&b).unwrap());
                    naive.push(t0.elapsed().as_secs_f64());
                }
                let t1 = Instant::now();
                black_box(a.matmul_tn(&b).unwrap());
                packed.push(t1.elapsed().as_secs_f64());
            }
        }
        other => panic!("unknown orientation {other}"),
    }
    KernelMeasurement {
        orientation: orientation.to_string(),
        m,
        k,
        n,
        naive_seconds: median(&mut naive),
        packed_seconds: median(&mut packed),
    }
}

fn shape_entry(label: &str, km: &KernelMeasurement) -> Value {
    let gflops = if km.packed_seconds > 0.0 {
        km.flops() as f64 / km.packed_seconds / 1e9
    } else {
        0.0
    };
    let speedup = if km.packed_seconds > 0.0 {
        km.naive_seconds / km.packed_seconds
    } else {
        0.0
    };
    map(vec![
        ("label", Value::Str(label.into())),
        ("orientation", Value::Str(km.orientation.clone())),
        ("m", Value::UInt(km.m as u64)),
        ("k", Value::UInt(km.k as u64)),
        ("n", Value::UInt(km.n as u64)),
        ("naive_seconds", Value::Float(km.naive_seconds)),
        ("packed_seconds", Value::Float(km.packed_seconds)),
        ("gflops", Value::Float(gflops)),
        ("speedup", Value::Float(speedup)),
    ])
}

fn bench_gemm_packed_vs_naive(c: &mut Criterion) {
    let a = init::uniform(M, K, -1.0, 1.0, 11);
    let b_nt = init::uniform(N, K, -1.0, 1.0, 12);
    let b_nn = init::uniform(K, N, -1.0, 1.0, 13);
    let pb_nt = PackedB::from_nt(&b_nt);
    let pb_nn = PackedB::from_nn(&b_nn);

    // Re-prove the numerical contract on the acceptance shape before
    // timing: bitwise on the scalar path, ULP-bounded under SIMD.
    assert_gemm_matches(
        &a.matmul_nt_naive(&b_nt).unwrap(),
        &nt_packed(&a, &pb_nt),
        &a.map(f32::abs)
            .matmul_nt_naive(&b_nt.map(f32::abs))
            .unwrap(),
        K,
        "nt",
    );
    assert_gemm_matches(
        &a.matmul_nn_naive(&b_nn).unwrap(),
        &nn_packed(&a, &pb_nn),
        &a.map(f32::abs)
            .matmul_nn_naive(&b_nn.map(f32::abs))
            .unwrap(),
        K,
        "nn",
    );

    let mut group = c.benchmark_group("gemm_256x256x1024");
    group.sample_size(10);
    group.bench_function("nt_naive", |bench| {
        bench.iter(|| black_box(a.matmul_nt_naive(&b_nt).unwrap()));
    });
    group.bench_function("nt_packed", |bench| {
        bench.iter(|| black_box(nt_packed(&a, &pb_nt)));
    });
    group.bench_function("nt_packed_including_pack", |bench| {
        // What an uncached caller pays: pack the panels every call.
        bench.iter(|| black_box(a.matmul_nt(&b_nt).unwrap()));
    });
    group.bench_function("nn_naive", |bench| {
        bench.iter(|| black_box(a.matmul_nn_naive(&b_nn).unwrap()));
    });
    group.bench_function("nn_packed", |bench| {
        bench.iter(|| black_box(nn_packed(&a, &pb_nn)));
    });
    group.finish();

    // Machine roofs first — they bound every roofline entry below.
    let machine = MachineRoofs {
        peak_gflops: measure_peak_gflops(),
        mem_bw_gbps: measure_mem_bw_gbps(),
    };
    println!(
        "machine roofs: peak {:.2} GFLOP/s, bandwidth {:.2} GB/s",
        machine.peak_gflops, machine.mem_bw_gbps
    );

    // Acceptance anchor, interleaved medians.
    let anchor = measure_orientation("nt", M, K, N);
    let speedup = anchor.naive_seconds / anchor.packed_seconds;
    println!(
        "gemm nt {M}x{K}x{N}: naive {:.2} GFLOP/s, packed {:.2} GFLOP/s, speedup {speedup:.2}x",
        anchor.flops() as f64 / anchor.naive_seconds / 1e9,
        anchor.flops() as f64 / anchor.packed_seconds / 1e9,
    );

    // Cell-dimension sweep: the three GEMM orientations one LSTM cell
    // executes at the paper's batch/hidden. These dims depend only on
    // batch and hidden width, so the measurements are shared by every
    // LN5–LN8 shape entry in the roofline report.
    let cell_kernels: Vec<KernelMeasurement> =
        roofline::cell_gemm_dims(roofline::LN_BATCH, roofline::LN_HIDDEN)
            .into_iter()
            .map(|(orient, m, k, n)| {
                let km = measure_orientation(orient, m, k, n);
                println!(
                    "cell gemm {orient} {m}x{k}x{n}: naive {:.4}s, packed {:.4}s ({:.2} GFLOP/s)",
                    km.naive_seconds,
                    km.packed_seconds,
                    km.flops() as f64 / km.packed_seconds / 1e9
                );
                km
            })
            .collect();

    // BENCH_gemm.json — the perf-gate input. One entry per tracked
    // shape (anchor + the three cell orientations); `eta-bench-track`
    // keys baselines off `label`.
    let mut shapes = vec![shape_entry(&format!("anchor nt m{M} k{K} n{N}"), &anchor)];
    for km in &cell_kernels {
        shapes.push(shape_entry(
            &format!("{} m{} k{} n{}", km.orientation, km.m, km.k, km.n),
            km,
        ));
    }
    let report = map(vec![
        ("bench", Value::Str("gemm_packed".into())),
        (
            "machine",
            map(vec![
                ("peak_gflops", Value::Float(machine.peak_gflops)),
                ("mem_bw_gbps", Value::Float(machine.mem_bw_gbps)),
            ]),
        ),
        (
            "samples",
            map(vec![
                ("naive", Value::UInt(NAIVE_SAMPLES as u64)),
                ("packed", Value::UInt(PACKED_SAMPLES as u64)),
            ]),
        ),
        ("shapes", Value::Seq(shapes)),
    ]);
    let bench_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gemm.json");
    std::fs::write(bench_path, serde_json::to_string_pretty(&report).unwrap()).unwrap();
    println!("wrote {bench_path}");

    // results/roofline.json — achieved vs roof for the cell kernels
    // and every LN5–LN8 training-step shape.
    let roofline_report = roofline::build_report(machine, &cell_kernels);
    print!("\n{}", roofline_report.render());
    let results_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(results_dir).unwrap();
    let roofline_path = format!("{results_dir}/roofline.json");
    std::fs::write(
        &roofline_path,
        serde_json::to_string_pretty(&roofline_report).unwrap(),
    )
    .unwrap();
    println!("wrote {roofline_path}");

    assert!(
        speedup >= 2.0,
        "packed nt GEMM below the 2x acceptance target at {M}x{K}x{N}: {speedup:.2}x"
    );

    // The tn orientation (BPTT weight gradients) used to crawl at 1.3×
    // over naive because it reused the nn panel scheme against a
    // column-strided A; the blocked-transpose + SIMD route must hold
    // ≥3× or the fix has regressed.
    let tn = cell_kernels
        .iter()
        .find(|km| km.orientation == "tn")
        .expect("cell sweep includes tn");
    let tn_speedup = tn.naive_seconds / tn.packed_seconds;
    assert!(
        tn_speedup >= 3.0,
        "packed tn GEMM below the 3x target at {}x{}x{}: {tn_speedup:.2}x",
        tn.m,
        tn.k,
        tn.n
    );
}

criterion_group!(benches, bench_gemm_packed_vs_naive);
criterion_main!(benches);
