//! Checkpoint a trained model to JSON and serve it with the streaming
//! inference API — the deployment loop (train → persist → restore →
//! step one timestep at a time).
//!
//! Run with: `cargo run --release --example checkpoint_and_stream`

use eta_lstm::core::inference::StreamingSession;
use eta_lstm::core::{persist, LstmConfig, Task, Trainer, TrainingStrategy};
use eta_lstm::workloads::SyntheticTask;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = LstmConfig::builder()
        .input_size(16)
        .hidden_size(24)
        .layers(2)
        .seq_len(12)
        .batch_size(8)
        .output_size(4)
        .build()?;
    let task = SyntheticTask::classification(16, 4, 12, 5)
        .with_batch_size(8)
        .with_batches_per_epoch(8);

    // Train with the full eta-LSTM software stack.
    let mut trainer = Trainer::new(config, TrainingStrategy::CombinedMs, 42)?;
    let report = trainer.run(&task, 10)?;
    println!("trained: final loss {:.4}", report.final_loss());

    // Persist and restore.
    let json = persist::to_json(trainer.model())?;
    println!("checkpoint size: {} bytes of JSON", json.len());
    let restored = persist::from_json(&json)?;

    // Serve: one timestep at a time with carried state.
    let batch = task.batch(999, 0);
    let mut session = StreamingSession::new(&restored, 8);
    let mut last = None;
    for x in &batch.inputs {
        last = Some(session.step(x)?);
    }
    let logits = last.expect("nonempty sequence");

    // The streamed prediction must match the batch path.
    let batch_out = restored.forward_inference(&batch.inputs)?;
    let diff = logits.rel_diff(batch_out.last().expect("sequence"));
    println!("stream-vs-batch relative difference: {diff:.2e}");

    if let eta_lstm::core::Targets::Classes(classes) = &batch.targets {
        let mut correct = 0;
        for (row, &cls) in classes.iter().enumerate() {
            let argmax = (0..4)
                .max_by(|&a, &b| {
                    logits
                        .get(row, a)
                        .partial_cmp(&logits.get(row, b))
                        .expect("finite")
                })
                .expect("classes");
            if argmax == cls {
                correct += 1;
            }
        }
        println!("held-out accuracy through the restored model: {correct}/8");
    }
    Ok(())
}
