//! # eta-workloads
//!
//! The six large-LSTM training benchmarks of the η-LSTM paper
//! (Table I) and their evaluation metrics.
//!
//! The paper's datasets are either public-but-large (TREC-10, PTB,
//! IMDB, WMT, bAbI) or proprietary (the WAYMO object-tracking model);
//! none are shipped here. Per the reproduction policy (DESIGN.md §1)
//! each benchmark is replaced by a **synthetic, learnable sequence
//! task** with the paper's exact model shape (hidden size, layer count,
//! layer length) and — critically for MS2 — the same *loss structure*
//! (single-loss vs per-timestamp). The mechanisms under study key off
//! shape and loss placement, not linguistic content.
//!
//! - [`spec`] — the Table I configurations;
//! - `synth` — deterministic synthetic task generators implementing
//!   [`eta_lstm_core::Task`];
//! - [`metrics`] — accuracy, perplexity, MAE, and BLEU.
//!
//! # Example
//!
//! ```
//! use eta_workloads::{Benchmark, SyntheticTask};
//!
//! let spec = Benchmark::Ptb.spec();
//! assert_eq!(spec.hidden, 1536);
//! assert_eq!(spec.layers, 4);
//! assert_eq!(spec.seq_len, 35);
//!
//! let task = SyntheticTask::classification(16, 4, 8, 42);
//! assert_eq!(eta_lstm_core::Task::batches_per_epoch(&task), 4);
//! ```

#![forbid(unsafe_code)]

pub(crate) mod markov;
pub mod metrics;
pub mod spec;
pub(crate) mod synth;
pub(crate) mod trajectory;

pub use markov::{MarkovChain, MarkovLmTask};
pub use spec::{Benchmark, BenchmarkSpec, TaskCategory};
pub use synth::SyntheticTask;
pub use trajectory::TrajectoryTask;
