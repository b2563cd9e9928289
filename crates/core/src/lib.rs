//! # eta-lstm-core
//!
//! From-scratch LSTM training framework implementing the η-LSTM paper's
//! software stack (ISCA 2021):
//!
//! - the standard LSTM forward/backward equations (paper Sec. II,
//!   Eq. 1–3) with batched `f32` tensors — [`cell`], [`layer`],
//!   [`model`];
//! - **MS1**, cell-level intermediate-variable reduction via execution
//!   reordering (paper Sec. IV-A): the BP-EW-P1 products are computed
//!   during the forward pass, near-zero pruned, and stored compressed in
//!   place of the dense `i, f, c, o, s` intermediates — [`ms1`];
//! - **MS2**, BP layer-length reduction (paper Sec. IV-B): the Eq. 4
//!   gradient-magnitude predictor and Eq. 5 loss predictor identify
//!   insignificant BP cells whose execution (and intermediate storage)
//!   is skipped, with convergence-aware gradient scaling — [`ms2`];
//! - a [`Trainer`] that runs any [`TrainingStrategy`] with full memory
//!   footprint and DRAM-traffic instrumentation via `eta-memsim`.
//!
//! # Example
//!
//! ```
//! use eta_lstm_core::{LstmConfig, LstmModel, TrainingStrategy};
//! use eta_tensor::Matrix;
//!
//! # fn main() -> Result<(), eta_lstm_core::LstmError> {
//! let config = LstmConfig::builder()
//!     .input_size(8)
//!     .hidden_size(16)
//!     .layers(2)
//!     .seq_len(5)
//!     .batch_size(2)
//!     .output_size(4)
//!     .build()?;
//! let mut model = LstmModel::new(&config, 42);
//! let xs: Vec<Matrix> = (0..5).map(|_| Matrix::zeros(2, 8)).collect();
//! let out = model.forward_inference(&xs)?;
//! assert_eq!(out.len(), 5);
//! assert_eq!(out[0].rows(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(unused_assignments)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

pub mod cell;
pub(crate) mod config;
pub mod gradcheck;
pub mod inference;
pub mod layer;
pub(crate) mod loss;
pub mod model;
pub mod ms1;
pub mod ms2;
pub mod ms3;
pub mod optimizer;
pub mod parallel;
pub mod persist;
pub mod strategy;
pub(crate) mod trainer;
pub mod workspace;

mod error;

pub use config::{LstmConfig, LstmConfigBuilder};
pub use error::LstmError;
pub use loss::{LossKind, Targets};
pub use model::LstmModel;
pub use ms3::{LossScaler, Ms3Config};
pub use parallel::Parallelism;
pub use strategy::TrainingStrategy;
pub use trainer::{Batch, EpochReport, Task, Trainer, TrainingReport};
pub use workspace::{LayerPanels, ModelPanels, PanelCache, Workspace, WorkspacePool};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LstmError>;
