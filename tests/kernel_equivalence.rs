//! Bit-identity contract of the packed kernel layer (PR satellite):
//! routing training through the register-blocked packed GEMMs, the
//! cached weight panels, and the reusable zero-alloc workspace must not
//! change a single bit of the loss trajectory. The packed microkernel
//! keeps one accumulator per output element and ascending-k order, so
//! it is bitwise equal to the naive triple loop; the panel cache only
//! changes *when* weights are packed, never the arithmetic; and the
//! workspace only recycles buffers that are fully overwritten.

use eta_lstm::core::parallel::Parallelism;
use eta_lstm::core::{LstmConfig, Trainer, TrainingStrategy};
use eta_lstm::tensor::ParallelConfig;
use eta_lstm::workloads::SyntheticTask;

fn config() -> LstmConfig {
    LstmConfig::builder()
        .input_size(12)
        .hidden_size(16)
        .layers(2)
        .seq_len(12)
        .batch_size(8)
        .output_size(4)
        .build()
        .expect("valid config")
}

fn task() -> SyntheticTask {
    SyntheticTask::classification(12, 4, 12, 3).with_batch_size(8)
}

/// Runs four epochs with the kernel layer forced into a given regime
/// and returns the per-epoch mean losses plus the final loss.
fn run_with_kernel(strategy: TrainingStrategy, kernel: ParallelConfig) -> Vec<f64> {
    let mut par = Parallelism::serial();
    par.kernel = kernel;
    let mut trainer = Trainer::new(config(), strategy, 42)
        .expect("trainer")
        .with_parallelism(par);
    let report = trainer.run(&task(), 4).expect("training");
    let mut losses: Vec<f64> = report.epochs.iter().map(|e| e.mean_loss).collect();
    losses.push(report.final_loss());
    losses
}

#[test]
fn packed_kernels_are_bit_identical_across_thread_counts_and_dispatch() {
    for strategy in [TrainingStrategy::Baseline, TrainingStrategy::CombinedMs] {
        // Serial dispatch: small shapes take the naive path, large ones
        // the packed path — the seed trajectory of this workspace.
        let reference = run_with_kernel(strategy, ParallelConfig::serial());
        assert!(reference.iter().all(|l| l.is_finite()));

        // Force EVERY matmul through the packed register-blocked
        // kernels, at one and at four kernel threads.
        for threads in [1usize, 4] {
            let mut kernel = ParallelConfig::with_threads(threads);
            kernel.min_kernel_flops = 1;
            let losses = run_with_kernel(strategy, kernel);
            assert_eq!(reference.len(), losses.len());
            for (epoch, (a, b)) in reference.iter().zip(losses.iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{strategy}: epoch {epoch} loss {a} (naive-eligible) vs {b} \
                     (all-packed, {threads} kernel threads)"
                );
            }
        }
    }
}

#[test]
fn panel_cache_and_workspace_reuse_are_deterministic_across_runs() {
    // Two independent trainers (fresh panel cache + workspace pool each)
    // must reproduce each other exactly; buffer recycling inside one run
    // must not leak state between batches or epochs.
    let a = run_with_kernel(
        TrainingStrategy::CombinedMs,
        ParallelConfig::with_threads(2),
    );
    let b = run_with_kernel(
        TrainingStrategy::CombinedMs,
        ParallelConfig::with_threads(2),
    );
    for (epoch, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "epoch {epoch}: rerun diverged");
    }
}

/// The reference cell (`cell::forward` / `cell::backward`: unfused,
/// serial, over the unpacked GEMM dispatchers) is only an oracle now,
/// so it must be exercised where the production cell runs the packed
/// and SIMD kernels — H = 64, B = 16 puts every cell GEMM at 8× the
/// `PACK_MIN_FLOPS` gate — not only at hidden 24. Two-tier contract:
/// bitwise when the scalar kernels back both sides (`ETA_SIMD=off` or
/// no AVX2), otherwise within 8 ULP or the `2k·ε` condition floor
/// (scaled by the tensor's largest magnitude: a six-step composite has
/// no single `|A||B|`).
#[test]
fn reference_cell_matches_production_cell_above_the_packing_threshold() {
    use eta_lstm::core::cell::{self, CellGrads, P1Dense};
    use eta_lstm::core::layer::{Instruments, LstmLayer, StorageMode, TapeEntry};
    use eta_lstm::core::{LayerPanels, Workspace};
    use eta_lstm::tensor::{init, simd, Matrix, PACK_MIN_FLOPS};

    const ULP_BUDGET: u32 = 8;
    let (seq, batch, input, h) = (6usize, 16usize, 64usize, 64usize);
    assert!(batch * input * 4 * h >= 8 * PACK_MIN_FLOPS);

    let assert_two_tier = |label: &str, got: &Matrix, reference: &Matrix| {
        let floor = 2.0 * (4 * h) as f32 * f32::EPSILON * reference.abs_max().max(1.0);
        for (i, (&g, &r)) in got.as_slice().iter().zip(reference.as_slice()).enumerate() {
            if !simd::enabled() {
                assert_eq!(g.to_bits(), r.to_bits(), "{label}[{i}]: {g} vs {r}");
                continue;
            }
            let ulp_ok = g == r
                || (g.is_sign_positive() == r.is_sign_positive()
                    && g.to_bits().abs_diff(r.to_bits()) <= ULP_BUDGET);
            assert!(ulp_ok || (g - r).abs() <= floor, "{label}[{i}]: {g} vs {r}");
        }
    };

    let layer = LstmLayer::new(input, h, 12);
    let xs: Vec<Matrix> = (0..seq)
        .map(|t| init::uniform(batch, input, -1.0, 1.0, 100 + t as u64))
        .collect();
    let mut dys: Vec<Matrix> = (0..seq).map(|_| Matrix::zeros(batch, h)).collect();
    dys[seq - 1] = init::uniform(batch, h, -1.0, 1.0, 77);
    let zero_h = Matrix::zeros(batch, h);

    // Reference: the unfused cell, forward then reversed backward.
    let mut ref_fws: Vec<cell::CellForward> = Vec::new();
    for x in &xs {
        let (h_prev, s_prev) = ref_fws
            .last()
            .map_or((&zero_h, &zero_h), |prev| (&prev.h, &prev.s));
        let fw = cell::forward(&layer.params, x, h_prev, s_prev).expect("reference forward");
        ref_fws.push(fw);
    }
    let mut ref_grads = CellGrads::zeros_like(&layer.params);
    let mut ref_dxs = vec![Matrix::zeros(0, 0); seq];
    let (mut dh_next, mut ds_next) = (zero_h.clone(), zero_h.clone());
    for t in (0..seq).rev() {
        let (h_prev, s_prev) = match t.checked_sub(1) {
            Some(p) => (&ref_fws[p].h, &ref_fws[p].s),
            None => (&zero_h, &zero_h),
        };
        let p1 = P1Dense::compute(&ref_fws[t], s_prev).expect("p1");
        let dh_total = dys[t].add(&dh_next).expect("shapes");
        let mut cg = CellGrads::zeros_like(&layer.params);
        let out = cell::backward(
            &layer.params,
            &p1,
            &xs[t],
            h_prev,
            &dh_total,
            &ds_next,
            &mut cg,
        )
        .expect("reference backward");
        ref_grads.accumulate(&cg).expect("shapes");
        ref_dxs[t] = out.dx;
        dh_next = out.dh_prev;
        ds_next = out.ds_prev;
    }

    // Production: cached panels, one workspace reused across both sweeps.
    // The oracle adds one product per cell, so the sweep is asked for
    // that association (per-cell magnitudes); summed a chunk of cells at
    // a time, δW/δU agree only to the reordering floor
    // (`layer::tests::sequence_paths_*_mid_scale` pins that side).
    let kernel = ParallelConfig::serial();
    let mut inst = Instruments::new();
    inst.per_cell_magnitudes = true;
    let panels = LayerPanels::pack_with(&layer.params, &kernel);
    let mut ws = Workspace::new();
    let tape = layer
        .forward_sequence_ws(
            &xs,
            StorageMode::Dense,
            &[],
            None,
            &kernel,
            &inst,
            Some(&panels),
            &mut ws,
        )
        .expect("production forward");
    for (t, (entry, fw)) in tape.entries.iter().zip(&ref_fws).enumerate() {
        let TapeEntry::Dense(got) = entry else {
            panic!("expected a dense entry at t={t}, got {entry:?}")
        };
        for (name, g, r) in [
            ("i", &got.i, &fw.i),
            ("f", &got.f, &fw.f),
            ("c", &got.c, &fw.c),
            ("o", &got.o, &fw.o),
            ("s", &got.s, &fw.s),
            ("h", &got.h, &fw.h),
        ] {
            assert_two_tier(&format!("forward {name} t={t}"), g, r);
        }
    }
    let back = layer
        .backward_sequence_ws(
            &xs,
            &tape,
            &dys,
            1.0,
            None,
            &kernel,
            &inst,
            Some(&panels),
            &mut ws,
        )
        .expect("production backward");
    for (t, (g, r)) in back.dxs.iter().zip(&ref_dxs).enumerate() {
        assert_two_tier(&format!("dx t={t}"), g, r);
    }
    assert_two_tier("dW", &back.grads.dw, &ref_grads.dw);
    assert_two_tier("dU", &back.grads.du, &ref_grads.du);
    let db = |v: &[f32]| Matrix::from_vec(1, v.len(), v.to_vec()).expect("row");
    assert_two_tier("db", &db(&back.grads.db), &db(&ref_grads.db));
}
