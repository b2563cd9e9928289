//! # eta-gpu
//!
//! Analytic performance/energy model of the two GPUs the η-LSTM paper
//! characterizes (Sec. III, Fig. 3): the 32 GB NVIDIA Tesla V100 (Volta)
//! and the 16 GB Quadro RTX 5000 (Turing).
//!
//! The paper's baseline numbers come from PyTorch runs profiled with
//! nvprof; neither the hardware nor the profiler is available here, so
//! this crate substitutes a calibrated roofline model (see DESIGN.md §1):
//! compute time from peak FLOPS scaled by a parallelism-efficiency curve,
//! memory time from the `eta-memsim` traffic model through a
//! footprint-sensitive effective bandwidth, a per-cell kernel-launch
//! term, and an energy model with static, per-FLOP, and per-byte
//! components. The model reproduces the paper's observed *shapes*:
//!
//! - throughput rises with hidden size then saturates (ALU saturation,
//!   Fig. 3a), while energy efficiency peaks and then declines
//!   (growing memory activity);
//! - throughput is nearly flat in layer count but energy efficiency
//!   falls (Fig. 3b), and the 7–8-layer configs exceed the RTX 5000's
//!   16 GB capacity;
//! - throughput and energy efficiency both fall with layer length
//!   (Fig. 3c) as the intermediate-variable working set grows.
//!
//! # Example
//!
//! ```
//! use eta_gpu::{GpuModel, GpuSpec};
//! use eta_memsim::model::{LstmShape, OptEffects};
//!
//! let v100 = GpuModel::new(GpuSpec::v100());
//! let shape = LstmShape::new(1024, 1024, 3, 35, 128);
//! let est = v100.estimate(&shape, &OptEffects::baseline());
//! assert!(est.fits);
//! assert!(est.tflops > 1.0 && est.tflops < 16.0);
//! ```

#![forbid(unsafe_code)]

mod device;
mod perf;

pub use device::{EnergyParams, GpuSpec};
pub use perf::{GpuEstimate, GpuModel};
