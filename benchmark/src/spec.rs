//! The four workloads: what each trains, on which engine, and why it is
//! in the benchmark. Closed loop, one client: the trainer asks for the
//! next batch only after the previous step completed.

use eta_lstm_core::{LstmConfig, Parallelism, Task, Trainer, TrainingStrategy};
use eta_workloads::{MarkovChain, MarkovLmTask, SyntheticTask};

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` at which the
/// epoch counts below apply and the loss checks are enforced. Other
/// values scale the timed epochs (never the shapes), so a run is a
/// prefix of the nominal one.
pub const NOMINAL_SECONDS: u64 = 20;

/// Seeds the corpus and the model initialisation of every workload.
pub const WORKLOAD_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// `MarkovLmTask` over a peaked (0.8) chain of `output` tokens,
    /// loss at every timestep (PTB-shaped).
    MarkovLm,
    /// `SyntheticTask::classification`, one loss per sequence
    /// (IMDB-shaped).
    Classification,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub input: usize,
    pub hidden: usize,
    pub layers: usize,
    pub seq_len: usize,
    pub batch: usize,
    pub output: usize,
    pub task: TaskKind,
    pub strategy: TrainingStrategy,
    /// `None` = `Parallelism::serial()`; `Some(n)` =
    /// `Parallelism::with_threads(n)` (4 shards).
    pub threads: Option<usize>,
    /// Epochs after the warm-up epoch 0.
    pub timed_epochs: usize,
    pub batches_per_epoch: usize,
    /// Timed epochs the traced run replays from outside; at most two
    /// under MS2, whose plan only the trainer can make from epoch 3 on.
    pub traced_epochs: usize,
    /// Held-out batches evaluated after training.
    pub eval_batches: usize,
    /// Loss `time_to_target_s` waits for: between two consecutive epoch
    /// losses of the seed commit at 60-80 % of the run, placed in
    /// the gap that eight batch seeds left open, so neither ULP-level
    /// drift nor the seed moves the crossing epoch (on the toy, whose
    /// epochs are 0.14 s, by at most one).
    pub target_loss: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "lm-large-serial",
        why: "Hub: PTB-shaped, every cell GEMM clears PACK_MIN_FLOPS, weights+panels overflow L2; tensor GEMM does most of the work, MS code and the shard engine none.",
        input: 512,
        hidden: 512,
        layers: 2,
        seq_len: 35,
        batch: 32,
        output: 64,
        task: TaskKind::MarkovLm,
        strategy: TrainingStrategy::Baseline,
        threads: None,
        timed_epochs: 5,
        batches_per_epoch: 4,
        traced_epochs: 1,
        eval_batches: 6,
        target_loss: 4.008,
    },
    Workload {
        name: "lm-large-sharded",
        why: "Same layers as the hub, differs only in engine (2 threads, 4 shards of 8 rows): isolates core::parallel shard slicing, small-M GEMMs and the tree reduce.",
        input: 512,
        hidden: 512,
        layers: 2,
        seq_len: 35,
        batch: 32,
        output: 64,
        task: TaskKind::MarkovLm,
        strategy: TrainingStrategy::Baseline,
        threads: Some(2),
        timed_epochs: 5,
        batches_per_epoch: 4,
        traced_epochs: 1,
        eval_batches: 6,
        target_loss: 4.008,
    },
    Workload {
        name: "cls-long-combined",
        why: "IMDB-shaped long layer under CombinedAll: MS1 compress/decode, MS2 skipping (from epoch 3), MS3 bf16 + recompute do real work; the memory metric is the headline.",
        input: 256,
        hidden: 256,
        layers: 2,
        seq_len: 100,
        batch: 32,
        output: 10,
        task: TaskKind::Classification,
        strategy: TrainingStrategy::CombinedAll,
        threads: None,
        timed_epochs: 7,
        batches_per_epoch: 2,
        traced_epochs: 2,
        eval_batches: 6,
        target_loss: 1.84,
    },
    Workload {
        name: "toy-scaled-imdb",
        why: "The hidden-24 shape every results/ experiment trains: below PACK_MIN_FLOPS, scalar dispatch, per-step fixed cost dominates. Kernel work must show no change here; overhead fixes show only here.",
        input: 24,
        hidden: 24,
        layers: 3,
        seq_len: 24,
        batch: 4,
        output: 2,
        task: TaskKind::Classification,
        strategy: TrainingStrategy::Baseline,
        threads: None,
        timed_epochs: 80,
        batches_per_epoch: 80,
        traced_epochs: 10,
        eval_batches: 800,
        target_loss: 1.815e-4,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The workload cut (or stretched) to `seconds`: timed epochs and
    /// held-out batches scale, shapes and batches per epoch do not.
    pub fn scaled(&self, seconds: u64) -> Workload {
        let scale = |n: usize| {
            let scaled = (n as u64 * seconds + NOMINAL_SECONDS / 2) / NOMINAL_SECONDS;
            usize::try_from(scaled).unwrap_or(usize::MAX).max(1)
        };
        Workload {
            timed_epochs: scale(self.timed_epochs),
            eval_batches: scale(self.eval_batches),
            ..*self
        }
    }

    pub fn config(&self) -> Result<LstmConfig, String> {
        LstmConfig::builder()
            .input_size(self.input)
            .hidden_size(self.hidden)
            .layers(self.layers)
            .seq_len(self.seq_len)
            .batch_size(self.batch)
            .output_size(self.output)
            .build()
            .map_err(|e| format!("{}: config: {e}", self.name))
    }

    /// The batch source; `seed` fixes every batch it will ever produce.
    /// The corpus (the Markov chain) and the model initialisation are
    /// part of the workload, not of the seed: learning speed depends on
    /// them so strongly (final loss and crossing epoch moved by 30 % from
    /// seed to seed when they followed it) that no loss metric could
    /// hold a bound across seeds otherwise.
    pub fn task(&self, seed: u64) -> Box<dyn Task> {
        match self.task {
            TaskKind::MarkovLm => Box::new(
                MarkovLmTask::new(
                    MarkovChain::peaked(self.output, 0.8, WORKLOAD_SEED),
                    self.input,
                    self.seq_len,
                    seed,
                )
                .with_batch_size(self.batch)
                .with_batches_per_epoch(self.batches_per_epoch),
            ),
            TaskKind::Classification => Box::new(
                SyntheticTask::classification(self.input, self.output, self.seq_len, seed)
                    .with_batch_size(self.batch)
                    .with_batches_per_epoch(self.batches_per_epoch),
            ),
        }
    }

    /// Engines are chosen here and nowhere else (never from the
    /// environment).
    pub fn parallelism(&self) -> Parallelism {
        match self.threads {
            None => Parallelism::serial(),
            Some(n) => Parallelism::with_threads(n),
        }
    }

    pub fn trainer(&self) -> Result<Trainer, String> {
        Ok(Trainer::new(self.config()?, self.strategy, WORKLOAD_SEED)
            .map_err(|e| format!("{}: trainer: {e}", self.name))?
            .with_parallelism(self.parallelism()))
    }

    pub fn tokens_per_step(&self) -> usize {
        self.batch * self.seq_len
    }

    /// Input width of each layer, bottom up.
    fn layer_inputs(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.layers).map(|l| if l == 0 { self.input } else { self.hidden })
    }

    /// Trainable f32 parameters of the LSTM layers (the head is small
    /// next to them).
    fn layer_params(&self) -> usize {
        self.layer_inputs()
            .map(|input| 4 * self.hidden * (input + self.hidden + 1))
            .sum()
    }

    /// Bytes a step keeps coming back to: weights, the four packed
    /// panel orientations (2x the weights) and the gradients. Computed,
    /// not measured.
    pub fn working_set_bytes(&self) -> u64 {
        4 * 4 * self.layer_params() as u64
    }

    /// Multiply-adds x2 a Baseline step needs: per cell one forward and
    /// two backward GEMM pairs, plus the head at every position that
    /// carries a loss. Recomputed cells (MS3) are not useful work and
    /// are not counted.
    pub fn useful_flops_per_step(&self) -> f64 {
        let cells: usize = self
            .layer_inputs()
            .map(|input| 3 * 2 * self.batch * 4 * self.hidden * (input + self.hidden))
            .sum::<usize>()
            * self.seq_len;
        let loss_positions = match self.task {
            TaskKind::MarkovLm => self.seq_len,
            TaskKind::Classification => 1,
        };
        let head = 3 * 2 * self.batch * self.hidden * self.output * loss_positions;
        (cells + head) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_changes_epochs_not_shapes() {
        let w = &WORKLOADS[0];
        let same = w.scaled(NOMINAL_SECONDS);
        assert_eq!(same.timed_epochs, w.timed_epochs);
        assert_eq!(same.eval_batches, w.eval_batches);
        let quick = w.scaled(1);
        assert_eq!(quick.timed_epochs, 1);
        assert_eq!(quick.eval_batches, 1);
        assert_eq!(quick.batches_per_epoch, w.batches_per_epoch);
        assert_eq!(quick.hidden, w.hidden);
    }

    #[test]
    fn every_workload_builds_a_valid_config() {
        for w in &WORKLOADS {
            w.config().unwrap();
            assert!(w.useful_flops_per_step() > 0.0);
        }
    }
}
