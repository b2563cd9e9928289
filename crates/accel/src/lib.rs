//! # eta-accel
//!
//! Transaction-level simulator of the η-LSTM accelerator (paper Sec. V)
//! with a cycle-accurate micro-model of its processing element.
//!
//! The hardware hierarchy follows the paper's Fig. 13:
//!
//! - [`accumulator`] — the adder-based streaming accumulator
//!   (Sec. V-B, Fig. 11, Table III), simulated cycle-by-cycle;
//! - [`pe`] — the Omni-PE: one multiplier + one pipelined adder +
//!   muxes, dynamically configured for matrix-vector MAC streams,
//!   element-wise multiply/add, and outer products;
//! - [`channel`] — 32 Omni-PEs sharing a channel controller, a
//!   broadcast queue, and an activation module (one sigmoid + one tanh
//!   lookup-table unit);
//! - [`dma`] — the customized DMA with its compression and decoder
//!   modules and WT/RD data+index queues (Fig. 14);
//! - [`scheduler`] — the Runtime Resource Allocation (R2A) scheduler
//!   with swing PEs/channels (Sec. V-C);
//! - [`energy`] — per-event energy constants and the machine energy
//!   model;
//! - [`arch`] — the full-machine simulation of LSTM training, plus the
//!   paper's comparison architectures (LSTM-Inf, Static-Arch,
//!   Dyn-Arch).
//!
//! The simulator is transaction-level: kernels (MatMul / element-wise /
//! outer-product tiles) are scheduled onto channel groups with cycle
//! costs derived from the PE micro-model, and DMA transfers contend for
//! HBM bandwidth. Fully cycle-accurate per-MAC simulation is reserved
//! for the PE/accumulator level, where the paper's Table III claims are
//! verified directly.
//!
//! # Example
//!
//! ```
//! use eta_accel::arch::{AccelConfig, ArchKind, EtaAccel};
//! use eta_memsim::model::{LstmShape, OptEffects};
//!
//! let accel = EtaAccel::new(AccelConfig::paper_4board(), ArchKind::DynArch);
//! let shape = LstmShape::new(512, 512, 2, 10, 32);
//! let report = accel.simulate(&shape, &OptEffects::baseline());
//! assert!(report.time_s > 0.0);
//! assert!(report.utilization > 0.0 && report.utilization <= 1.0);
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

pub mod accumulator;
pub mod arch;
pub mod cell_exec;
pub mod channel;
pub mod dma;
pub mod energy;
pub mod machine_exec;
pub mod memory;
pub mod pe;
pub mod scheduler;
pub mod timeline;
