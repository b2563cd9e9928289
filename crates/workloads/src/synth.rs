//! Deterministic synthetic sequence tasks standing in for the paper's
//! datasets (see crate docs for the substitution rationale).
//!
//! Every task is learnable by a small LSTM (the Table II analogue needs
//! real convergence) and deterministic in `(epoch, batch index)` so
//! experiments are reproducible run-to-run.

use eta_lstm_core::{Batch, LossKind, Targets, Task};
use eta_tensor::{init, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// What the synthetic task asks the model to learn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum SynthKind {
    /// Single-loss classification: the class plants a persistent signal
    /// in a class-specific input slot (IMDB/TREC/bAbI analogue).
    Classification,
    /// Per-timestep classification: each step carries a token one-hot
    /// and the target is a fixed permutation of it (PTB/WMT analogue —
    /// a learnable token mapping).
    PerStepClassification,
}

/// A deterministic synthetic sequence task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticTask {
    kind: SynthKind,
    input_size: usize,
    output_size: usize,
    seq_len: usize,
    batch_size: usize,
    batches_per_epoch: usize,
    seed: u64,
}

impl SyntheticTask {
    /// Single-loss classification over `classes` categories.
    /// Defaults: batch 4, 4 batches per epoch.
    pub fn classification(input_size: usize, classes: usize, seq_len: usize, seed: u64) -> Self {
        SyntheticTask {
            kind: SynthKind::Classification,
            input_size,
            output_size: classes,
            seq_len,
            batch_size: 4,
            batches_per_epoch: 4,
            seed,
        }
    }

    /// Per-timestep classification over `vocab` tokens
    /// (requires `vocab <= input_size` so tokens embed one-hot).
    ///
    /// # Panics
    ///
    /// Panics if `vocab > input_size`.
    pub fn per_step_classification(
        input_size: usize,
        vocab: usize,
        seq_len: usize,
        seed: u64,
    ) -> Self {
        assert!(vocab <= input_size, "vocab must fit the input width");
        SyntheticTask {
            kind: SynthKind::PerStepClassification,
            input_size,
            output_size: vocab,
            seq_len,
            batch_size: 4,
            batches_per_epoch: 4,
            seed,
        }
    }

    /// Overrides the batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Overrides the batches per epoch.
    pub fn with_batches_per_epoch(mut self, n: usize) -> Self {
        self.batches_per_epoch = n;
        self
    }

    fn rng_for(&self, epoch: usize, index: usize) -> StdRng {
        StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((epoch * 7919 + index) as u64),
        )
    }
}

impl Task for SyntheticTask {
    fn batch(&self, epoch: usize, index: usize) -> Batch {
        let mut rng = self.rng_for(epoch, index);
        let noise_seed: u64 = rng.gen();
        match self.kind {
            SynthKind::Classification => {
                let classes: Vec<usize> = (0..self.batch_size)
                    .map(|_| rng.gen_range(0..self.output_size))
                    .collect();
                let inputs: Vec<Matrix> = (0..self.seq_len)
                    .map(|t| {
                        let mut x = init::uniform(
                            self.batch_size,
                            self.input_size,
                            -0.2,
                            0.2,
                            noise_seed.wrapping_add(t as u64),
                        );
                        for (row, &cls) in classes.iter().enumerate() {
                            x.set(row, cls % self.input_size, 1.0);
                        }
                        x
                    })
                    .collect();
                Batch {
                    inputs,
                    targets: Targets::Classes(classes),
                }
            }
            SynthKind::PerStepClassification => {
                // Tokens per step; target token = (token + 1) mod vocab.
                let tokens: Vec<Vec<usize>> = (0..self.seq_len)
                    .map(|_| {
                        (0..self.batch_size)
                            .map(|_| rng.gen_range(0..self.output_size))
                            .collect()
                    })
                    .collect();
                let inputs: Vec<Matrix> = tokens
                    .iter()
                    .enumerate()
                    .map(|(t, step)| {
                        let mut x = init::uniform(
                            self.batch_size,
                            self.input_size,
                            -0.05,
                            0.05,
                            noise_seed.wrapping_add(t as u64),
                        );
                        for (row, &tok) in step.iter().enumerate() {
                            x.set(row, tok, 1.0);
                        }
                        x
                    })
                    .collect();
                let targets = tokens
                    .iter()
                    .map(|step| step.iter().map(|&t| (t + 1) % self.output_size).collect())
                    .collect();
                Batch {
                    inputs,
                    targets: Targets::StepClasses(targets),
                }
            }
        }
    }

    fn batches_per_epoch(&self) -> usize {
        self.batches_per_epoch
    }

    fn loss_kind(&self) -> LossKind {
        match self.kind {
            SynthKind::Classification => LossKind::SingleLoss,
            SynthKind::PerStepClassification => LossKind::PerTimestamp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_deterministic() {
        let t = SyntheticTask::classification(8, 3, 5, 7);
        let a = t.batch(2, 1);
        let b = t.batch(2, 1);
        assert_eq!(a.inputs, b.inputs);
        let c = t.batch(2, 2);
        assert_ne!(a.inputs, c.inputs);
    }

    #[test]
    fn classification_batch_shapes() {
        let t = SyntheticTask::classification(8, 3, 5, 7).with_batch_size(6);
        let b = t.batch(0, 0);
        assert_eq!(b.inputs.len(), 5);
        assert_eq!(b.inputs[0].rows(), 6);
        assert_eq!(b.inputs[0].cols(), 8);
        match b.targets {
            Targets::Classes(c) => {
                assert_eq!(c.len(), 6);
                assert!(c.iter().all(|&v| v < 3));
            }
            other => panic!("expected classes, got {other:?}"),
        }
    }

    #[test]
    fn per_step_targets_follow_shift_rule() {
        let t = SyntheticTask::per_step_classification(16, 8, 4, 3);
        let b = t.batch(0, 0);
        if let Targets::StepClasses(steps) = &b.targets {
            assert_eq!(steps.len(), 4);
            for (t_idx, step) in steps.iter().enumerate() {
                for (row, &target) in step.iter().enumerate() {
                    // Input token is the argmax slot; target = token + 1.
                    let x = &b.inputs[t_idx];
                    let token = (0..16)
                        .max_by(|&a, &c| x.get(row, a).partial_cmp(&x.get(row, c)).unwrap())
                        .unwrap();
                    assert_eq!(target, (token + 1) % 8);
                }
            }
        } else {
            panic!("expected per-step classes");
        }
    }

    #[test]
    fn loss_kinds_match_task_structure() {
        assert_eq!(
            SyntheticTask::classification(4, 2, 3, 0).loss_kind(),
            LossKind::SingleLoss
        );
        assert_eq!(
            SyntheticTask::per_step_classification(4, 2, 3, 0).loss_kind(),
            LossKind::PerTimestamp
        );
    }

    #[test]
    #[should_panic(expected = "vocab")]
    fn oversized_vocab_rejected() {
        let _ = SyntheticTask::per_step_classification(4, 8, 3, 0);
    }
}
