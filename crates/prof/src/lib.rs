//! Profiling subsystem layered on eta-telemetry: hierarchical span
//! tracing with Chrome-trace and flamegraph export.
//!
//! `trace` holds a [`Tracer`] implementing
//! [`eta_telemetry::SpanObserver`]: attach it to a `Telemetry` handle
//! and every span open/close anywhere in the process is recorded
//! with monotonic timestamps and thread ids. A [`TraceSession`]
//! wraps the attach/export lifecycle and writes both a Chrome
//! trace-event JSON (`chrome`, loadable in Perfetto or
//! `chrome://tracing`) and a collapsed-stack flamegraph text file
//! (`flame`, consumable by `inferno`/`flamegraph.pl`).
//!
//! Wall-clock reads live here by design: like telemetry, eta-prof
//! allows clippy's clock and lock bans crate-wide — timing must never
//! feed numerics, only reports.

#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the profiler owns the clocks and the locks that collect its trace"
)]

pub(crate) mod chrome;
pub(crate) mod flame;
pub(crate) mod trace;

pub use chrome::{validate_chrome_trace, ChromeStats};
pub use trace::{TraceSession, Tracer};
