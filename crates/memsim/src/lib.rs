//! # eta-memsim
//!
//! Memory footprint and DRAM data-movement accounting for the η-LSTM
//! reproduction.
//!
//! The paper's characterization (Sec. III, Figs. 4–5) splits LSTM training
//! memory into three categories — weight matrices ("Parameter"),
//! activation data, and intermediate variables — and shows the
//! intermediates dominate both footprint (47.18 % average) and DRAM
//! traffic (4.34× the activation traffic on average). This crate provides:
//!
//! - [`DataCategory`] — the three-way classification;
//! - [`MemoryTracker`] — live/peak footprint accounting used by the
//!   training framework's instrumentation;
//! - [`TrafficCounter`] — DRAM read/write byte counters per category;
//! - [`model`] — closed-form footprint/traffic models of baseline LSTM
//!   training and of the MS1/MS2-optimized flows, used by the figure
//!   harnesses that sweep model shapes too large to execute directly.
//!
//! # Example
//!
//! ```
//! use eta_memsim::{DataCategory, MemoryTracker};
//!
//! let mut t = MemoryTracker::new();
//! t.alloc(DataCategory::Intermediates, 1024);
//! t.alloc(DataCategory::Weights, 512);
//! t.free(DataCategory::Intermediates, 1024);
//! assert_eq!(t.live_total(), 512);
//! assert_eq!(t.peak_total(), 1536);
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

pub mod model;

mod category;
mod tracker;
mod traffic;

pub use category::DataCategory;
pub use tracker::{MemoryTracker, SharedTracker};
pub use traffic::{SharedTraffic, TrafficCounter};
