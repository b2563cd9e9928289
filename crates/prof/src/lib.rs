//! Profiling subsystem layered on eta-telemetry: hierarchical span
//! tracing, per-shape roofline reports, and the perf-trajectory gate.
//!
//! Three pieces, each usable on its own:
//!
//! - [`trace`] — a [`Tracer`] implementing
//!   [`eta_telemetry::SpanObserver`]: attach it to a `Telemetry` handle
//!   and every span open/close anywhere in the process is recorded
//!   with monotonic timestamps and thread ids. A [`TraceSession`]
//!   wraps the attach/export lifecycle and writes both a Chrome
//!   trace-event JSON ([`chrome`], loadable in Perfetto or
//!   `chrome://tracing`) and a collapsed-stack flamegraph text file
//!   ([`flame`], consumable by `inferno`/`flamegraph.pl`).
//! - [`roofline`] — combines measured machine roofs (peak GFLOP/s,
//!   memory bandwidth) with the kernel FLOP/byte accounting from
//!   `eta_tensor::stats` and the analytical DRAM-traffic model from
//!   eta-memsim into a per-shape roofline report covering the paper's
//!   LN5–LN8 configurations.
//! - [`track`] — append-only bench history (`bench_history.jsonl`) and
//!   the `compare` gate that fails when a tracked median regresses
//!   beyond a threshold; the `eta-bench-track` binary fronts it in CI.
//!
//! Wall-clock reads live here by design: eta-prof is on the lint
//! D2/S2 exemption list with telemetry — timing must never feed
//! numerics, only reports.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod flame;
pub mod roofline;
pub mod trace;
pub mod track;

pub use chrome::{validate_chrome_trace, ChromeStats};
pub use roofline::{MachineRoofs, RooflineReport};
pub use trace::{TraceSession, Tracer};
pub use track::{compare, BenchRecord, CompareReport};
