//! # eta-tensor
//!
//! Dense and sparse `f32` tensor substrate for the η-LSTM reproduction.
//!
//! The η-LSTM paper's software stack is PyTorch; everything the training
//! framework needs is rebuilt here from scratch: a row-major [`Matrix`]
//! with the linear-algebra kernels LSTM training uses (GEMM in the three
//! orientations required by forward, input-gradient, and weight-gradient
//! computation, element-wise kernels, outer products), the activation
//! functions with their derivatives (including the lookup-table variants
//! the accelerator's activation module uses), Xavier initialization, and
//! the threshold-pruned sparse vector format that the MS1 optimization and
//! the accelerator's DMA compression module share.
//!
//! # Example
//!
//! ```
//! use eta_tensor::{Matrix, activation};
//!
//! let w = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
//! let x = Matrix::from_vec(3, 1, vec![1.0, 0.0, -1.0]).unwrap();
//! let y = w.matmul_nn(&x).unwrap();
//! assert_eq!(y.as_slice(), &[-2.0, -2.0]);
//! let a = activation::sigmoid(0.0);
//! assert_eq!(a, 0.5);
//! ```

#![deny(unsafe_code)]
#![deny(unused_assignments)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

pub mod activation;
pub mod init;
pub mod kernels;
pub mod lowp;
pub mod matrix;
pub mod pack;
pub mod parallel;
// The only `unsafe` in the numeric crates: `std::arch` intrinsics behind
// runtime feature detection (eta-lint A1 checks each block's `// SAFETY:`
// comment, A2 that each entry sits behind `is_x86_feature_detected!`).
#[allow(unsafe_code)]
pub mod simd;
pub mod sparse;
pub mod stats;

mod error;

pub use error::TensorError;
pub use kernels::Store;
pub use lowp::{ConvStats, Precision};
pub use matrix::{Matrix, TnScratch, PACK_MIN_FLOPS};
pub use pack::PackedB;
pub use parallel::ParallelConfig;
pub use sparse::{CompressionStats, SparseVec};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
