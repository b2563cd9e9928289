//! The weight-gradient accumulator at a shape where the backward sweep
//! runs it in chunks: hidden 64 / batch 16 puts every cell GEMM on the
//! packed tier, so a dense f32 tape flushes `δW`/`δU` every
//! `KC / batch = 16` cells instead of after each one (DESIGN §10.7).

use eta_lstm::core::gradcheck::check_step_with;
use eta_lstm::core::layer::{Instruments, LayerBackward, LstmLayer, StorageMode};
use eta_lstm::core::model::{LstmModel, StepPlan};
use eta_lstm::core::ms2::GradPredictor;
use eta_lstm::core::parallel::{train_step_sharded_ws, Parallelism};
use eta_lstm::core::{LstmConfig, Targets, Trainer, TrainingStrategy, Workspace, WorkspacePool};
use eta_lstm::tensor::{init, Matrix, ParallelConfig};
use eta_lstm::workloads::SyntheticTask;

const SEQ: usize = 20;
const BATCH: usize = 16;
const INPUT: usize = 48;
const HIDDEN: usize = 64;

fn config() -> LstmConfig {
    LstmConfig::builder()
        .input_size(INPUT)
        .hidden_size(HIDDEN)
        .layers(2)
        .seq_len(SEQ)
        .batch_size(BATCH)
        .output_size(4)
        .build()
        .expect("valid config")
}

fn inputs() -> Vec<Matrix> {
    (0..SEQ)
        .map(|t| init::uniform(BATCH, INPUT, -1.0, 1.0, 100 + t as u64))
        .collect()
}

fn classes() -> Targets {
    Targets::Classes((0..BATCH).map(|r| r % 4).collect())
}

/// A sweep that returns `Err` mid-layer leaves rows pending in the
/// workspace's accumulator; the next sweep on that workspace must not
/// see them.
#[test]
fn failed_sweep_does_not_leak_into_the_next_one() {
    let layer = LstmLayer::new(INPUT, HIDDEN, 3);
    let xs = inputs();
    let dys: Vec<Matrix> = (0..SEQ)
        .map(|t| init::uniform(BATCH, HIDDEN, -0.1, 0.1, 70 + t as u64))
        .collect();
    let mut bad_dys = dys.clone();
    bad_dys[SEQ / 2] = Matrix::zeros(BATCH, HIDDEN + 1);
    let kernel = ParallelConfig::serial();
    let inst = Instruments::new();
    let sweep = |dys: &[Matrix], ws: &mut Workspace| -> eta_lstm::core::Result<LayerBackward> {
        let tape = layer.forward_sequence_ws(
            &xs,
            StorageMode::Dense,
            &[],
            None,
            &kernel,
            &inst,
            None,
            ws,
        )?;
        layer.backward_sequence_ws(&xs, &tape, dys, 1.0, None, &kernel, &inst, None, ws)
    };

    let mut used = Workspace::new();
    assert!(sweep(&bad_dys, &mut used).is_err());
    let after_failure = sweep(&dys, &mut used).expect("good sweep on the used workspace");
    let fresh = sweep(&dys, &mut Workspace::new()).expect("good sweep on a fresh workspace");
    assert!(fresh.magnitudes.is_empty(), "the shape runs in chunks");
    assert_eq!(after_failure.grads, fresh.grads);
    assert_eq!(after_failure.dxs, fresh.dxs);
}

#[test]
fn gradcheck_passes_on_the_chunked_path() {
    let model = LstmModel::new(&config(), 41);
    for par in [Parallelism::serial(), Parallelism::with_threads(2)] {
        let check = check_step_with(
            &model,
            &inputs(),
            &classes(),
            &StepPlan::baseline(),
            &par,
            16,
            5e-3,
            9,
        )
        .expect("gradcheck runs");
        assert!(
            check.passes(0.05),
            "{} shard(s): max rel error {}",
            par.shards,
            check.max_rel_error
        );
    }
}

#[test]
fn sharded_chunked_step_is_bitwise_across_thread_counts() {
    let model = LstmModel::new(&config(), 41);
    let step = |threads: usize| {
        let mut par = Parallelism::with_threads(threads);
        par.shards = 4;
        train_step_sharded_ws(
            &model,
            &inputs(),
            &classes(),
            &StepPlan::baseline(),
            &Instruments::new(),
            &par,
            None,
            &mut WorkspacePool::new(),
        )
        .expect("sharded step")
    };
    let reference = step(1);
    assert_eq!(reference.shards, 4);
    assert!(reference.magnitudes.iter().all(Vec::is_empty));
    for threads in [2, 4] {
        let r = step(threads);
        assert_eq!(
            r.loss.to_bits(),
            reference.loss.to_bits(),
            "{threads} threads"
        );
        assert_eq!(r.grads.cells, reference.grads.cells, "{threads} threads");
    }
}

/// The trainer asks for per-cell magnitudes exactly when Eq. 4 needs
/// them: under MS2 epoch 0 fills every row and α is fitted to it; under
/// Baseline the packed-tier layers run in chunks and report none.
#[test]
fn trainer_measures_first_epoch_magnitudes_only_for_ms2() {
    let task = SyntheticTask::classification(INPUT, 4, SEQ, 3)
        .with_batch_size(BATCH)
        .with_batches_per_epoch(2);
    let run = |strategy| {
        let mut trainer = Trainer::new(config(), strategy, 42).expect("trainer");
        trainer.run(&task, 1).expect("training")
    };

    let ms2 = run(TrainingStrategy::Ms2);
    assert_eq!(ms2.first_epoch_magnitudes.len(), 2);
    for row in &ms2.first_epoch_magnitudes {
        assert_eq!(row.len(), SEQ);
        assert!(row.iter().all(|&m| m > 0.0 && m.is_finite()));
    }
    let beta = GradPredictor::beta_for(eta_lstm::core::LossKind::SingleLoss);
    let fitted =
        GradPredictor::calibrate(&ms2.first_epoch_magnitudes, ms2.epochs[0].mean_loss, beta);
    assert!(fitted.alpha.is_finite() && fitted.alpha > 0.0);
    assert_ne!(fitted.alpha, 1.0, "1.0 is the nothing-measured fallback");

    let baseline = run(TrainingStrategy::Baseline);
    assert_eq!(baseline.first_epoch_magnitudes.len(), 2);
    assert!(baseline.first_epoch_magnitudes.iter().all(Vec::is_empty));
}
