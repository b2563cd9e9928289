//! The user-facing forwards run the same cell as the training step:
//! `forward_inference` (every cell inference-style, nothing taped) and
//! `StreamingSession` (one timestep at a time against panels packed at
//! open) must reproduce, bit for bit, what a taped Dense forward
//! computes — at the hidden-24 scale every `results/` experiment
//! trains at, and at a shape whose cell GEMMs clear `PACK_MIN_FLOPS`
//! so the packed (and, when enabled, SIMD) kernels are the ones
//! compared.

use eta_lstm::core::inference::StreamingSession;
use eta_lstm::core::layer::{Instruments, StorageMode};
use eta_lstm::core::model::{LstmModel, StepPlan};
use eta_lstm::core::{LstmConfig, Targets, Workspace};
use eta_lstm::tensor::{init, Matrix, ParallelConfig, PACK_MIN_FLOPS};

/// `(input, hidden, batch)`: the toy scale, and one past the packing
/// threshold.
const SHAPES: [(usize, usize, usize); 2] = [(12, 24, 4), (32, 64, 16)];
const SEQ_LEN: usize = 6;
const CLASSES: usize = 5;

fn model(input: usize, hidden: usize, batch: usize) -> LstmModel {
    let cfg = LstmConfig::builder()
        .input_size(input)
        .hidden_size(hidden)
        .layers(2)
        .seq_len(SEQ_LEN)
        .batch_size(batch)
        .output_size(CLASSES)
        .build()
        .expect("valid config");
    LstmModel::new(&cfg, 17)
}

fn inputs(input: usize, batch: usize) -> Vec<Matrix> {
    (0..SEQ_LEN)
        .map(|t| init::uniform(batch, input, -1.0, 1.0, 300 + t as u64))
        .collect()
}

fn assert_bits_equal(label: &str, a: &Matrix, b: &Matrix) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{label}: shape");
    let same = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(same, "{label}: not bit-identical");
}

/// The no-tape forward equals the taped forward: logits from
/// `forward_inference` are the head over the top-layer `hs` of a Dense
/// `forward_sequence_ws`, and so `evaluate` reports exactly the loss
/// the training step computes, for last-step and per-step targets.
#[test]
fn forward_inference_is_bitwise_the_taped_dense_forward() {
    // The shapes straddle the packing threshold as the module doc says.
    let [(i0, h0, b0), (i1, h1, b1)] = SHAPES;
    assert!(b0 * i0.max(h0) * 4 * h0 < PACK_MIN_FLOPS);
    assert!(b1 * i1.min(h1) * 4 * h1 >= PACK_MIN_FLOPS);
    for (input, hidden, batch) in SHAPES {
        let model = model(input, hidden, batch);
        let xs = inputs(input, batch);
        let kernel = ParallelConfig::serial();
        let inst = Instruments::new();
        let mut ws = Workspace::new();

        let mut hs = xs.clone();
        for layer in model.layers() {
            hs = layer
                .forward_sequence_ws(
                    &hs,
                    StorageMode::Dense,
                    &[],
                    None,
                    &kernel,
                    &inst,
                    None,
                    &mut ws,
                )
                .expect("taped forward")
                .hs;
        }
        let logits = model.forward_inference(&xs).expect("inference");
        assert_eq!(logits.len(), SEQ_LEN);
        for (t, (got, h)) in logits.iter().zip(&hs).enumerate() {
            let taped = model.head().forward(h).expect("head");
            assert_bits_equal(&format!("hidden {hidden} logits t={t}"), got, &taped);
        }

        let labels: Vec<usize> = (0..batch).map(|r| r % CLASSES).collect();
        for targets in [
            Targets::Classes(labels.clone()),
            Targets::StepClasses(vec![labels.clone(); SEQ_LEN]),
        ] {
            let step = model
                .train_step_ws(&xs, &targets, &StepPlan::baseline(), &inst, None, &mut ws)
                .expect("step");
            let (loss, _) = model.evaluate(&xs, &targets).expect("evaluate");
            assert_eq!(
                loss.to_bits(),
                step.loss.to_bits(),
                "hidden {hidden}: evaluate loss vs step loss"
            );
        }
    }
}

#[test]
fn streaming_session_is_bitwise_forward_inference() {
    for (input, hidden, batch) in SHAPES {
        let model = model(input, hidden, batch);
        let xs = inputs(input, batch);
        let batch_out = model.forward_inference(&xs).expect("inference");
        let mut session = StreamingSession::new(&model, batch);
        for (t, x) in xs.iter().enumerate() {
            let logits = session.step(x).expect("step");
            assert_bits_equal(
                &format!("hidden {hidden} streaming t={t}"),
                &logits,
                &batch_out[t],
            );
        }
    }
}
