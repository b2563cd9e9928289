//! A Markov-chain language-modeling task: sequences drawn from a
//! seeded low-entropy token transition matrix, with next-token targets.
//!
//! This is the structured analogue of the PTB/WMT benchmarks: unlike
//! the purely synthetic shift-map of [`crate::synth`], the LSTM here
//! must learn a *distribution* (the transition matrix), so its loss
//! floors at the chain's conditional entropy rather than zero — the
//! behavior of real language modeling, with a checkable optimum.

use eta_lstm_core::{Batch, LossKind, Targets, Task};
use eta_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A first-order Markov chain over `vocab` tokens with concentrated
/// transitions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarkovChain {
    vocab: usize,
    /// `transition[i][j]` = P(next = j | current = i), rows sum to 1.
    transition: Vec<Vec<f64>>,
}

impl MarkovChain {
    /// Builds a chain where each token has a preferred successor with
    /// probability `peak` and spreads the rest uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `vocab < 2` or `peak` is not in `(0, 1]`.
    pub fn peaked(vocab: usize, peak: f64, seed: u64) -> Self {
        assert!(vocab >= 2, "need at least two tokens");
        assert!(peak > 0.0 && peak <= 1.0, "peak must be a probability");
        let mut rng = StdRng::seed_from_u64(seed);
        let rest = (1.0 - peak) / (vocab - 1) as f64;
        let transition = (0..vocab)
            .map(|_| {
                let favorite = rng.gen_range(0..vocab);
                (0..vocab)
                    .map(|j| if j == favorite { peak } else { rest })
                    .collect()
            })
            .collect();
        MarkovChain { vocab, transition }
    }

    /// Token count.
    pub(crate) fn vocab(&self) -> usize {
        self.vocab
    }

    /// Transition probability `P(next | current)`.
    #[cfg(test)]
    pub(crate) fn prob(&self, current: usize, next: usize) -> f64 {
        self.transition[current][next]
    }

    /// Samples the successor of `current`.
    pub(crate) fn sample_next(&self, current: usize, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (j, &p) in self.transition[current].iter().enumerate() {
            acc += p;
            if u < acc {
                return j;
            }
        }
        self.vocab - 1
    }

    /// Samples a sequence of `len` tokens starting from a random state.
    pub(crate) fn sample_sequence(&self, len: usize, rng: &mut StdRng) -> Vec<usize> {
        let mut seq = Vec::with_capacity(len);
        let mut current = rng.gen_range(0..self.vocab);
        for _ in 0..len {
            seq.push(current);
            current = self.sample_next(current, rng);
        }
        seq
    }

    /// Conditional entropy `H(next | current)` in nats, assuming the
    /// uniform stationary distribution of the peaked construction —
    /// the Bayes-optimal per-token loss of any predictor.
    pub fn conditional_entropy(&self) -> f64 {
        let mut h = 0.0;
        for row in &self.transition {
            let row_h: f64 = row.iter().filter(|&&p| p > 0.0).map(|&p| -p * p.ln()).sum();
            h += row_h / self.vocab as f64;
        }
        h
    }
}

/// A language-modeling task over a Markov corpus: inputs are one-hot
/// token embeddings (plus noise-free zero padding up to `input_size`),
/// targets are the next tokens at every timestep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarkovLmTask {
    chain: MarkovChain,
    input_size: usize,
    seq_len: usize,
    batch_size: usize,
    batches_per_epoch: usize,
    seed: u64,
}

impl MarkovLmTask {
    /// Builds the task.
    ///
    /// # Panics
    ///
    /// Panics if `input_size < chain.vocab()`.
    pub fn new(chain: MarkovChain, input_size: usize, seq_len: usize, seed: u64) -> Self {
        assert!(
            input_size >= chain.vocab(),
            "tokens must embed one-hot into the input width"
        );
        MarkovLmTask {
            chain,
            input_size,
            seq_len,
            batch_size: 8,
            batches_per_epoch: 8,
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
}

impl Task for MarkovLmTask {
    fn batch(&self, epoch: usize, index: usize) -> Batch {
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x51_7C_C1_B7_27_22_0A_95)
                .wrapping_add((epoch * 8191 + index) as u64),
        );
        // Sample seq_len + 1 tokens: positions [0, seq) are inputs,
        // positions [1, seq] are targets.
        let sequences: Vec<Vec<usize>> = (0..self.batch_size)
            .map(|_| self.chain.sample_sequence(self.seq_len + 1, &mut rng))
            .collect();
        let inputs: Vec<Matrix> = (0..self.seq_len)
            .map(|t| {
                Matrix::from_fn(self.batch_size, self.input_size, |row, col| {
                    if col == sequences[row][t] {
                        1.0
                    } else {
                        0.0
                    }
                })
            })
            .collect();
        let targets = (0..self.seq_len)
            .map(|t| sequences.iter().map(|s| s[t + 1]).collect())
            .collect();
        Batch {
            inputs,
            targets: Targets::StepClasses(targets),
        }
    }

    fn batches_per_epoch(&self) -> usize {
        self.batches_per_epoch
    }

    fn loss_kind(&self) -> LossKind {
        LossKind::PerTimestamp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_rows_are_distributions() {
        let c = MarkovChain::peaked(8, 0.7, 3);
        for i in 0..8 {
            let sum: f64 = (0..8).map(|j| c.prob(i, j)).sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sampling_respects_the_peak() {
        let c = MarkovChain::peaked(6, 0.9, 5);
        let mut rng = StdRng::seed_from_u64(1);
        // The most frequent successor of token 0 must be its favorite.
        let mut counts = vec![0usize; 6];
        for _ in 0..2000 {
            counts[c.sample_next(0, &mut rng)] += 1;
        }
        let argmax = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .map(|(i, _)| i)
            .unwrap();
        assert!(c.prob(0, argmax) > 0.8);
        assert!(counts[argmax] > 1600, "peak under-sampled: {counts:?}");
    }

    #[test]
    fn conditional_entropy_bounds() {
        // Near-deterministic chain: entropy near 0.
        let tight = MarkovChain::peaked(8, 0.99, 1);
        assert!(tight.conditional_entropy() < 0.1);
        // Uniform chain: entropy = ln(vocab).
        let loose = MarkovChain::peaked(8, 1.0 / 8.0 + 1e-9, 1);
        assert!((loose.conditional_entropy() - (8f64).ln()).abs() < 0.01);
    }

    #[test]
    fn batches_are_deterministic_and_shaped() {
        let task = MarkovLmTask::new(MarkovChain::peaked(8, 0.8, 2), 12, 10, 7).with_batch_size(4);
        let a = eta_lstm_core::Task::batch(&task, 1, 2);
        let b = eta_lstm_core::Task::batch(&task, 1, 2);
        assert_eq!(a.inputs, b.inputs);
        assert_eq!(a.inputs.len(), 10);
        assert_eq!(a.inputs[0].rows(), 4);
        assert_eq!(a.inputs[0].cols(), 12);
        if let Targets::StepClasses(steps) = &a.targets {
            assert_eq!(steps.len(), 10);
            assert!(steps.iter().all(|s| s.iter().all(|&t| t < 8)));
        } else {
            panic!("expected per-step classes");
        }
    }

    #[test]
    fn targets_follow_the_sampled_chain() {
        // Input one-hot at t must equal target at t−1 (next-token setup).
        let task = MarkovLmTask::new(MarkovChain::peaked(6, 0.8, 9), 6, 5, 11).with_batch_size(3);
        let batch = eta_lstm_core::Task::batch(&task, 0, 0);
        if let Targets::StepClasses(steps) = &batch.targets {
            for t in 1..5 {
                for (row, &prev_token) in steps[t - 1].iter().enumerate().take(3) {
                    let token_at_t = (0..6)
                        .find(|&c| batch.inputs[t].get(row, c) == 1.0)
                        .expect("one-hot input");
                    assert_eq!(token_at_t, prev_token);
                }
            }
        }
    }
}
