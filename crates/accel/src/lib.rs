//! # eta-accel
//!
//! Transaction-level simulator of the η-LSTM accelerator (paper Sec. V)
//! with a cycle-accurate micro-model of its processing element.
//!
//! The hardware hierarchy follows the paper's Fig. 13:
//!
//! - [`accumulator`] — the adder-based streaming accumulator
//!   (Sec. V-B, Fig. 11, Table III), simulated cycle-by-cycle;
//! - `pe` — the Omni-PE: one multiplier + one pipelined adder +
//!   muxes, dynamically configured for matrix-vector MAC streams and
//!   element-wise multiply/add;
//! - [`channel`] — 32 Omni-PEs sharing a channel controller, a
//!   broadcast queue, and an activation module (one sigmoid + one tanh
//!   lookup-table unit);
//! - [`dma`] — the customized DMA's compression module (Fig. 14);
//! - [`scheduler`] — the Runtime Resource Allocation (R2A) scheduler
//!   with swing PEs/channels (Sec. V-C);
//! - `energy` — per-event energy constants and the machine energy
//!   model;
//! - [`arch`] — the full-machine simulation of LSTM training, plus the
//!   paper's comparison architectures (LSTM-Inf, Static-Arch,
//!   Dyn-Arch).
//!
//! The simulator is transaction-level: each phase's MatMul MACs,
//! element-wise ops and activations are scheduled onto channel groups,
//! and DMA transfers contend for HBM bandwidth. The per-cell op counts
//! are hand-typed in [`arch::EtaAccel::forward_workload`] and
//! `arch::EtaAccel::backward_workload` — per hidden element, 9
//! element-wise ops forward (+18 under MS1) and 10 backward (6·ρ under
//! MS1) — not derived from the PE/channel micro-model (`pe` →
//! [`channel`] → [`cell_exec`]). That datapath runs only in the tests
//! that check it against the software cell; ROADMAP.md tracks deriving
//! the counts from it. Fully cycle-accurate simulation is reserved for
//! the accumulator, where the paper's Table III claims are verified
//! directly.
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
pub(crate) mod energy;
pub(crate) mod pe;
pub mod scheduler;
pub mod timeline;
