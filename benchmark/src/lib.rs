//! The η-LSTM training benchmark: four workloads driven through
//! `Trainer::run`, timed from outside the program.
//!
//! Everything here names only the user-facing training API; the
//! layer-level calls of the traced run live in `drive.rs`, which only
//! the `eta-e2e-layers` binary compiles.

pub mod alloc;
pub mod cli;
pub mod e2e;
pub mod env;
pub mod report;
pub mod spec;
pub mod stats;
