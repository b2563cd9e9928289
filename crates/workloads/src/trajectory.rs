//! Object-tracking trajectory task — the WAYMO autonomous-driving
//! analogue: objects move with constant 2-D velocity, observations are
//! noisy positions, and the model must predict the *next true position*
//! from the observed track. The Bayes-optimal predictor is a linear
//! filter over the history, so a trained LSTM's MAE should approach the
//! observation-noise floor — a checkable optimum, like the Markov
//! task's entropy floor.

use eta_lstm_core::{Batch, LossKind, Targets, Task};
use eta_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Constant-velocity 2-D tracking with Gaussian observation noise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryTask {
    input_size: usize,
    seq_len: usize,
    batch_size: usize,
    batches_per_epoch: usize,
    noise_std: f32,
    seed: u64,
}

impl TrajectoryTask {
    /// Builds the task. Inputs carry the noisy `(x, y)` observation in
    /// the first two features and zeros elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `input_size < 2` or `seq_len < 2`.
    pub fn new(input_size: usize, seq_len: usize, noise_std: f32, seed: u64) -> Self {
        assert!(input_size >= 2, "inputs must fit the 2-D observation");
        assert!(seq_len >= 2, "tracking needs at least two observations");
        TrajectoryTask {
            input_size,
            seq_len,
            batch_size: 8,
            batches_per_epoch: 8,
            noise_std,
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

    fn gaussian(rng: &mut StdRng, std: f32) -> f32 {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }
}

impl Task for TrajectoryTask {
    fn batch(&self, epoch: usize, index: usize) -> Batch {
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0xD1B5_4A32_D192_ED03)
                .wrapping_add((epoch * 6007 + index) as u64),
        );
        // Per object: initial position in [-0.5, 0.5]², constant
        // velocity in [-0.04, 0.04]² per step.
        let objects: Vec<([f32; 2], [f32; 2])> = (0..self.batch_size)
            .map(|_| {
                (
                    [rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)],
                    [rng.gen_range(-0.04..0.04), rng.gen_range(-0.04..0.04)],
                )
            })
            .collect();
        let true_pos = |row: usize, t: usize| -> [f32; 2] {
            let (p0, v) = objects[row];
            [p0[0] + v[0] * t as f32, p0[1] + v[1] * t as f32]
        };
        let inputs: Vec<Matrix> = (0..self.seq_len)
            .map(|t| {
                let mut noise = Vec::new();
                for _ in 0..self.batch_size {
                    noise.push([
                        Self::gaussian(&mut rng, self.noise_std),
                        Self::gaussian(&mut rng, self.noise_std),
                    ]);
                }
                Matrix::from_fn(self.batch_size, self.input_size, |row, col| match col {
                    0 => true_pos(row, t)[0] + noise[row][0],
                    1 => true_pos(row, t)[1] + noise[row][1],
                    _ => 0.0,
                })
            })
            .collect();
        // Target: the true position one step beyond the last observation.
        let target = Matrix::from_fn(self.batch_size, 2, |row, col| {
            true_pos(row, self.seq_len)[col]
        });
        Batch {
            inputs,
            targets: Targets::Regression(target),
        }
    }

    fn batches_per_epoch(&self) -> usize {
        self.batches_per_epoch
    }

    fn loss_kind(&self) -> LossKind {
        LossKind::SingleLoss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eta_lstm_core::Task;

    #[test]
    fn batches_are_deterministic_and_shaped() {
        let task = TrajectoryTask::new(8, 10, 0.05, 3).with_batch_size(4);
        let a = task.batch(1, 0);
        let b = task.batch(1, 0);
        assert_eq!(a.inputs, b.inputs);
        assert_eq!(a.inputs.len(), 10);
        assert_eq!(a.inputs[0].rows(), 4);
        if let Targets::Regression(t) = &a.targets {
            assert_eq!((t.rows(), t.cols()), (4, 2));
        } else {
            panic!("expected regression targets");
        }
    }

    #[test]
    fn observations_track_a_straight_line() {
        // With zero noise, consecutive observation deltas are constant
        // (constant velocity) and the target extrapolates one step.
        let task = TrajectoryTask::new(4, 6, 0.0, 7).with_batch_size(2);
        let batch = task.batch(0, 0);
        for row in 0..2 {
            let dx1 = batch.inputs[1].get(row, 0) - batch.inputs[0].get(row, 0);
            let dx4 = batch.inputs[5].get(row, 0) - batch.inputs[4].get(row, 0);
            assert!((dx1 - dx4).abs() < 1e-5, "velocity must be constant");
            if let Targets::Regression(t) = &batch.targets {
                let extrapolated = batch.inputs[5].get(row, 0) + dx1;
                assert!((t.get(row, 0) - extrapolated).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn noise_perturbs_observations_but_not_targets() {
        let clean = TrajectoryTask::new(4, 5, 0.0, 11).with_batch_size(2);
        let noisy = TrajectoryTask::new(4, 5, 0.2, 11).with_batch_size(2);
        let a = clean.batch(0, 0);
        let b = noisy.batch(0, 0);
        // Same dynamics seed → same targets…
        if let (Targets::Regression(ta), Targets::Regression(tb)) = (&a.targets, &b.targets) {
            assert!(ta.rel_diff(tb) < 1e-6);
        }
        // …but different observations.
        assert_ne!(a.inputs[0], b.inputs[0]);
    }

    #[test]
    fn loss_kind_is_single() {
        let task = TrajectoryTask::new(4, 5, 0.1, 0);
        assert_eq!(task.loss_kind(), LossKind::SingleLoss);
    }

    #[test]
    #[should_panic(expected = "2-D observation")]
    fn too_narrow_input_rejected() {
        let _ = TrajectoryTask::new(1, 5, 0.1, 0);
    }
}
