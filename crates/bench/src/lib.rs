//! # eta-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! η-LSTM paper's evaluation (see DESIGN.md §4 for the experiment
//! index). One binary per figure/table lives in `src/bin/`.
//!
//! The harness pipeline (mirroring the paper's methodology on our
//! simulated substrate):
//!
//! 1. **Measure** the software optimizations' effects at executable
//!    scale: small instrumented training runs give the MS1 P1-stream
//!    density; the MS2 skip fraction is computed exactly from the Eq. 4
//!    predictor on the *paper-scale* graph (the keep/skip decision is
//!    scale-invariant in α and the loss).
//! 2. **Scale** to Table I shapes through the `eta-memsim` closed
//!    forms and the `eta-gpu` / `eta-accel` machine models.
//! 3. **Print** paper-vs-measured rows for every figure/table.

#![forbid(unsafe_code)]

use eta_gpu::{GpuModel, GpuSpec};
use eta_lstm_core::ms2::{self, GradPredictor, Ms2Config};
use eta_lstm_core::{Batch, LossKind, Task};
use eta_lstm_core::{LstmConfig, Parallelism, Trainer, TrainingStrategy};
use eta_memsim::model::OptEffects;
use eta_workloads::{Benchmark, MarkovChain, MarkovLmTask, SyntheticTask, TrajectoryTask};

pub mod table;

pub use table::Table;

/// Environment variable naming the worker-thread count
/// (`run_all --threads N` exports it for every child binary).
pub use eta_tensor::parallel::THREADS_ENV;

/// Default training seed for every harness run (reproducibility).
pub const SEED: u64 = 42;

/// The execution policy harness binaries train under: thread count from
/// [`THREADS_ENV`] when set, otherwise the hardware's available
/// parallelism. The microbatch shard count is fixed (see
/// `eta_lstm_core::parallel::DEFAULT_SHARDS`) independent of the thread
/// count, so every figure/table prints identical numbers at any
/// `--threads N` — threads only change wall-clock time.
pub fn engine_from_env() -> Parallelism {
    Parallelism::from_env()
}

/// Environment variable naming the directory where harness binaries
/// write their JSONL telemetry streams (`run_all --telemetry <dir>`
/// sets it for every child).
pub const TELEMETRY_DIR_ENV: &str = "ETA_TELEMETRY_DIR";

/// Opens `binary`'s JSONL telemetry stream at `<dir>/<binary>.jsonl`.
///
/// Returns `None` (telemetry stays off) if the directory cannot be
/// created or the file cannot be opened — the harness output is the
/// product; observability must never fail a run.
pub fn telemetry_to(dir: &std::path::Path, binary: &str) -> Option<eta_telemetry::Telemetry> {
    std::fs::create_dir_all(dir).ok()?;
    let manifest =
        eta_telemetry::RunManifest::capture(binary, eta_telemetry::config_hash(&SEED), SEED);
    eta_telemetry::Telemetry::with_jsonl(manifest, dir.join(format!("{binary}.jsonl"))).ok()
}

/// Builds this binary's telemetry handle when [`TELEMETRY_DIR_ENV`] is
/// set; `None` (every hook a no-op) otherwise.
pub fn telemetry_from_env(binary: &str) -> Option<eta_telemetry::Telemetry> {
    let dir = std::env::var(TELEMETRY_DIR_ENV).ok()?;
    telemetry_to(std::path::Path::new(&dir), binary)
}

/// Environment variable naming the directory where harness binaries
/// write Chrome-trace + flamegraph exports (`run_all --trace <dir>`
/// sets it for every child).
pub const TRACE_DIR_ENV: &str = "ETA_TRACE_DIR";

/// Attaches a span tracer to `telemetry`, exporting to
/// `<dir>/<binary>.trace.json` (Chrome/Perfetto) and
/// `<dir>/<binary>.folded.txt` (flamegraph) when the returned session
/// is finished or dropped.
///
/// Returns `None` when `telemetry` is off — spans have nowhere to come
/// from without a telemetry handle, and the harness output is the
/// product; observability must never fail a run.
pub fn trace_to(
    dir: &std::path::Path,
    binary: &str,
    telemetry: Option<&eta_telemetry::Telemetry>,
) -> Option<eta_prof::TraceSession> {
    let telemetry = telemetry?;
    Some(eta_prof::TraceSession::start(
        telemetry.clone(),
        dir,
        binary,
    ))
}

/// Starts a trace session when [`TRACE_DIR_ENV`] is set; `None` (no
/// tracer attached, spans cost one atomic load) otherwise.
pub fn trace_from_env(
    binary: &str,
    telemetry: Option<&eta_telemetry::Telemetry>,
) -> Option<eta_prof::TraceSession> {
    let dir = std::env::var(TRACE_DIR_ENV).ok()?;
    trace_to(std::path::Path::new(&dir), binary, telemetry)
}

/// The full observability bundle from the environment: a telemetry
/// handle when [`TELEMETRY_DIR_ENV`] is set, a trace session when
/// [`TRACE_DIR_ENV`] is set. `--trace` alone still traces — spans need
/// a telemetry handle, so an in-memory one (no JSONL stream) is
/// constructed for the tracer to ride on.
///
/// Keep the returned session alive for the whole run; its drop/finish
/// writes the trace artifacts.
pub fn instrumentation_from_env(
    binary: &str,
) -> (
    Option<eta_telemetry::Telemetry>,
    Option<eta_prof::TraceSession>,
) {
    let mut telemetry = telemetry_from_env(binary);
    if telemetry.is_none() && std::env::var(TRACE_DIR_ENV).is_ok() {
        let manifest =
            eta_telemetry::RunManifest::capture(binary, eta_telemetry::config_hash(&SEED), SEED);
        telemetry = Some(eta_telemetry::Telemetry::new(manifest));
    }
    let trace = trace_from_env(binary, telemetry.as_ref());
    (telemetry, trace)
}

/// Measured/derived optimization effects for one benchmark.
#[derive(Debug, Clone, Copy)]
pub struct BenchEffects {
    /// MS1 post-pruning P1 density, measured from a scaled training
    /// run.
    pub p1_density: f64,
    /// MS2 skip fraction, computed exactly on the paper-scale graph.
    pub skip_fraction: f64,
    /// MS3 checkpoint interval `k` (tape keeps every k-th cell record).
    pub ms3_k: usize,
    /// MS3 storage width in bytes per element (2 = bf16/f16).
    pub ms3_bytes_per_element: u64,
}

impl BenchEffects {
    /// The [`OptEffects`] for a given strategy.
    pub fn for_strategy(&self, strategy: TrainingStrategy) -> OptEffects {
        match strategy {
            TrainingStrategy::Baseline => OptEffects::baseline(),
            TrainingStrategy::Ms1 => OptEffects::ms1(self.p1_density),
            TrainingStrategy::Ms2 => OptEffects::ms2(self.skip_fraction),
            TrainingStrategy::CombinedMs => {
                OptEffects::combined(self.p1_density, self.skip_fraction)
            }
            TrainingStrategy::Ms3 => OptEffects::ms3(self.ms3_k, self.ms3_bytes_per_element),
            TrainingStrategy::CombinedAll => {
                OptEffects::combined(self.p1_density, self.skip_fraction)
                    .with_ms3(self.ms3_k, self.ms3_bytes_per_element)
            }
        }
    }
}

/// A scaled-down but structurally faithful training configuration for a
/// benchmark: the paper's layer count and loss structure with reduced
/// hidden size and sequence length so real training runs on a CPU.
pub fn scaled_config(benchmark: Benchmark) -> LstmConfig {
    let spec = benchmark.spec();
    LstmConfig::builder()
        .input_size(24)
        .hidden_size(24)
        .layers(spec.layers.min(3))
        .seq_len(spec.seq_len.min(24))
        .batch_size(4)
        .output_size(scaled_output(benchmark))
        .build()
        .expect("scaled config is valid")
}

fn scaled_output(benchmark: Benchmark) -> usize {
    use eta_workloads::TaskCategory::*;
    match benchmark.spec().category {
        QuestionClassification => 10,
        LanguageModeling | MachineTranslation => 12,
        SentimentAnalysis => 2,
        AutonomousDriving => 2,
        QuestionAnswering => 8,
    }
}

/// A scaled stand-in task for one benchmark: synthetic classification
/// for the classification benchmarks, a Markov-chain LM (with a real
/// entropy floor) for the language benchmarks, and constant-velocity
/// tracking for the driving benchmark.
#[derive(Debug, Clone)]
pub enum ScaledTask {
    /// Classification benchmarks (TREC-10, IMDB, bAbI).
    Synthetic(SyntheticTask),
    /// Language benchmarks (PTB, WMT).
    Markov(MarkovLmTask),
    /// The WAYMO tracking benchmark.
    Trajectory(TrajectoryTask),
}

impl ScaledTask {
    /// Overrides the batch size.
    pub fn with_batch_size(self, b: usize) -> Self {
        match self {
            ScaledTask::Synthetic(t) => ScaledTask::Synthetic(t.with_batch_size(b)),
            ScaledTask::Markov(t) => ScaledTask::Markov(t.with_batch_size(b)),
            ScaledTask::Trajectory(t) => ScaledTask::Trajectory(t.with_batch_size(b)),
        }
    }

    /// Overrides the batches per epoch.
    pub fn with_batches_per_epoch(self, n: usize) -> Self {
        match self {
            ScaledTask::Synthetic(t) => ScaledTask::Synthetic(t.with_batches_per_epoch(n)),
            ScaledTask::Markov(t) => ScaledTask::Markov(t.with_batches_per_epoch(n)),
            ScaledTask::Trajectory(t) => ScaledTask::Trajectory(t.with_batches_per_epoch(n)),
        }
    }
}

impl Task for ScaledTask {
    fn batch(&self, epoch: usize, index: usize) -> Batch {
        match self {
            ScaledTask::Synthetic(t) => t.batch(epoch, index),
            ScaledTask::Markov(t) => t.batch(epoch, index),
            ScaledTask::Trajectory(t) => t.batch(epoch, index),
        }
    }

    fn batches_per_epoch(&self) -> usize {
        match self {
            ScaledTask::Synthetic(t) => t.batches_per_epoch(),
            ScaledTask::Markov(t) => t.batches_per_epoch(),
            ScaledTask::Trajectory(t) => t.batches_per_epoch(),
        }
    }

    fn loss_kind(&self) -> LossKind {
        match self {
            ScaledTask::Synthetic(t) => t.loss_kind(),
            ScaledTask::Markov(t) => t.loss_kind(),
            ScaledTask::Trajectory(t) => t.loss_kind(),
        }
    }
}

/// Observation-noise level of the scaled tracking task.
pub const TRAJECTORY_NOISE: f32 = 0.15;

/// The structured task standing in for a benchmark at the scaled config.
pub fn scaled_task(benchmark: Benchmark) -> ScaledTask {
    let cfg = scaled_config(benchmark);
    use eta_workloads::TaskCategory::*;
    let task = match benchmark.spec().category {
        QuestionClassification | SentimentAnalysis | QuestionAnswering => ScaledTask::Synthetic(
            SyntheticTask::classification(cfg.input_size, cfg.output_size, cfg.seq_len, SEED),
        ),
        LanguageModeling | MachineTranslation => ScaledTask::Markov(MarkovLmTask::new(
            MarkovChain::peaked(cfg.output_size, 0.8, SEED),
            cfg.input_size,
            cfg.seq_len,
            SEED,
        )),
        AutonomousDriving => ScaledTask::Trajectory(TrajectoryTask::new(
            cfg.input_size,
            cfg.seq_len,
            TRAJECTORY_NOISE,
            SEED,
        )),
    };
    task.with_batch_size(cfg.batch_size)
        .with_batches_per_epoch(4)
}

/// Measures the MS1 P1 density of a benchmark by running a short,
/// scaled, instrumented MS1 training run.
pub fn measure_p1_density(benchmark: Benchmark) -> f64 {
    let cfg = scaled_config(benchmark);
    let task = scaled_task(benchmark);
    let mut trainer = Trainer::new(cfg, TrainingStrategy::Ms1, SEED)
        .expect("valid scaled config")
        .with_parallelism(engine_from_env());
    let report = trainer.run(&task, 2).expect("scaled training runs");
    report.mean_p1_density()
}

/// Computes the MS2 skip fraction of a benchmark on its *paper-scale*
/// graph. The keep/skip decision of Eq. 4 under a relative threshold is
/// independent of α and the loss value, so no training is needed.
pub fn skip_fraction(benchmark: Benchmark) -> f64 {
    let spec = benchmark.spec();
    let beta = GradPredictor::beta_for(spec.loss_kind);
    let predictor = GradPredictor { alpha: 1.0, beta };
    let plan = ms2::plan_skips(
        &predictor,
        1.0,
        spec.layers,
        spec.seq_len,
        &Ms2Config::default(),
    );
    plan.skip_fraction()
}

/// Measures/derives the software optimizations' effects for a
/// benchmark. MS1/MS2 effects are measured; the MS3 knobs come from the
/// repo-default [`StrategyParams`](eta_lstm_core::strategy::StrategyParams)
/// (k = 4, bf16 storage).
pub fn bench_effects(benchmark: Benchmark) -> BenchEffects {
    let ms3 = eta_lstm_core::strategy::StrategyParams::default().ms3;
    BenchEffects {
        p1_density: measure_p1_density(benchmark),
        skip_fraction: skip_fraction(benchmark),
        ms3_k: ms3.k,
        ms3_bytes_per_element: ms3.precision.bytes_per_element(),
    }
}

/// The baseline GPU (the paper compares against the V100).
pub fn baseline_gpu() -> GpuModel {
    GpuModel::new(GpuSpec::v100())
}

/// Geometric mean of a slice (the conventional average for speedups).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_configs_are_valid_and_small() {
        for b in Benchmark::ALL {
            let cfg = scaled_config(b);
            assert!(cfg.hidden_size <= 64);
            assert!(cfg.seq_len <= 32);
            assert!(cfg.layers >= 2);
        }
    }

    #[test]
    fn skip_fractions_reflect_loss_structure() {
        // Single-loss benchmarks with long layers skip up to the
        // convergence-guard cap (gradient vanishing truncates early
        // timesteps)…
        let imdb = skip_fraction(Benchmark::Imdb);
        assert!(
            (imdb - eta_lstm_core::ms2::MAX_SKIP_FRACTION).abs() < 1e-9,
            "IMDB skip fraction {imdb} should hit the cap"
        );
        // …while per-timestamp models only shed their tail.
        let wmt = skip_fraction(Benchmark::Wmt);
        assert!(wmt < 0.3, "WMT skip fraction {wmt}");
        // Short single-loss layers skip moderately.
        let trec = skip_fraction(Benchmark::Trec10);
        assert!((0.1..0.7).contains(&trec), "TREC skip fraction {trec}");
    }

    #[test]
    fn measured_p1_density_shows_compression_opportunity() {
        let d = measure_p1_density(Benchmark::Trec10);
        assert!(
            (0.05..0.75).contains(&d),
            "P1 density {d} out of the Fig. 6 neighbourhood (~0.35)"
        );
    }

    #[test]
    fn effects_map_to_strategies() {
        let e = BenchEffects {
            p1_density: 0.3,
            skip_fraction: 0.5,
            ms3_k: 4,
            ms3_bytes_per_element: 2,
        };
        assert!(!e.for_strategy(TrainingStrategy::Baseline).ms1);
        assert!(e.for_strategy(TrainingStrategy::Ms1).ms1);
        let c = e.for_strategy(TrainingStrategy::CombinedMs);
        assert!(c.ms1 && c.ms2);
        assert_eq!(c.p1_density, 0.3);
        assert_eq!(c.skip_fraction, 0.5);
        assert!(!c.ms3);
        let m = e.for_strategy(TrainingStrategy::Ms3);
        assert!(m.ms3 && !m.ms1 && !m.ms2);
        assert_eq!(m.ms3_k, 4);
        let all = e.for_strategy(TrainingStrategy::CombinedAll);
        assert!(all.ms1 && all.ms2 && all.ms3);
        assert_eq!(all.ms3_bytes_per_element, 2);
    }

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
