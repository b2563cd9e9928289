//! Kernel-level micro-benchmarks of the tensor substrate: the GEMM
//! orientations LSTM training uses, element-wise kernels, and the MS1
//! sparse compress/decode path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eta_tensor::{init, Matrix, SparseVec};
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(10);
    for &n in &[32usize, 64, 128] {
        let a = init::uniform(n, n, -1.0, 1.0, 1);
        let b = init::uniform(n, n, -1.0, 1.0, 2);
        group.bench_with_input(BenchmarkId::new("nn", n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul_nn(&b).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("nt", n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul_nt(&b).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("tn", n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul_tn(&b).unwrap()));
        });
    }
    group.finish();
}

fn bench_elementwise(c: &mut Criterion) {
    let mut group = c.benchmark_group("elementwise");
    group.sample_size(20);
    let a = init::uniform(128, 1024, -1.0, 1.0, 3);
    let b = init::uniform(128, 1024, -1.0, 1.0, 4);
    group.bench_function("hadamard_128x1024", |bench| {
        bench.iter(|| black_box(a.hadamard(&b).unwrap()));
    });
    group.bench_function("sigmoid_map_128x1024", |bench| {
        bench.iter(|| black_box(a.map(eta_tensor::activation::sigmoid)));
    });
    group.finish();
}

fn bench_sparse(c: &mut Criterion) {
    let mut group = c.benchmark_group("ms1_sparse");
    group.sample_size(20);
    let dense: Vec<f32> = (0..131_072)
        .map(|i| if i % 3 == 0 { 0.5 } else { 0.01 })
        .collect();
    group.bench_function("compress_128k_at_0.1", |bench| {
        bench.iter(|| black_box(SparseVec::compress(&dense, 0.1)));
    });
    let sv = SparseVec::compress(&dense, 0.1);
    group.bench_function("decode_128k", |bench| {
        bench.iter(|| black_box(sv.decode()));
    });
    let grad = init::uniform(1, dense.len(), -1.0, 1.0, 5);
    group.bench_function("sparse_mul_dense_128k", |bench| {
        bench.iter(|| black_box(sv.mul_dense(grad.as_slice())));
    });
    group.finish();
}

fn bench_outer(c: &mut Criterion) {
    let mut group = c.benchmark_group("outer_product");
    group.sample_size(20);
    let u: Vec<f32> = (0..512).map(|i| i as f32 / 512.0).collect();
    let v: Vec<f32> = (0..512).map(|i| 1.0 - i as f32 / 512.0).collect();
    group.bench_function("outer_512x512", |bench| {
        bench.iter(|| black_box(Matrix::outer(&u, &v)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_elementwise,
    bench_sparse,
    bench_outer
);
criterion_main!(benches);
