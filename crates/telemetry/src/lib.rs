//! eta-telemetry: unified tracing, metrics, and profiling for the
//! eta-LSTM stack.
//!
//! One [`Telemetry`] handle is threaded through the trainer, memory
//! simulator, and accelerator simulator. It exposes:
//!
//! - a metric registry of counters, gauges, and fixed-bucket
//!   histograms addressed by static name + key-value labels,
//! - hierarchical span timers ([`span!`]) with per-path aggregate
//!   statistics (count/total/min/max),
//! - a [`SpanObserver`] hook notified at every span open/close, the
//!   attachment point for `eta-prof`'s Chrome-trace recorder (the
//!   observer reads its own clock, so this crate stays free of any
//!   trace-format knowledge),
//! - pluggable [`Sink`]s: [`MemorySink`] for tests, [`JsonlSink`] for
//!   offline analysis, and [`render_summary`] for human eyes,
//! - a per-run [`RunManifest`] written at the top of every JSONL
//!   stream.
//!
//! Handles are `Clone + Send`; every operation takes `&self`, so one
//! handle can be shared across the whole stack.

#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "telemetry owns the run's clocks and the locks that collect its observations"
)]

pub mod keys;
mod manifest;
mod metrics;
mod sink;
mod summary;

pub use manifest::{config_hash, RunManifest};
pub use metrics::{
    HistogramSnapshot, Labels, MetricKey, MetricSnapshot, MetricValue, Snapshot, SpanStats,
    DEFAULT_BUCKETS,
};
pub use sink::{Event, JsonlSink, MemoryHandle, MemorySink, Sink};
pub use summary::render_summary;

use metrics::Registry;
use std::cell::RefCell;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

thread_local! {
    /// Names of the spans currently open on this thread, outermost
    /// first; used to build hierarchical paths like `epoch/batch/bp_p1`.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Receives a callback at every span open and close.
///
/// Observers run on the thread that owns the span, so a tracer can read
/// thread ids and its own monotonic clock at both edges. `enter_span`
/// fires after the span's name is pushed onto the thread's stack (so
/// `path` is the full hierarchical path); `exit_span` fires as the
/// guard drops, before the aggregate registry records the close.
pub trait SpanObserver: Send + Sync {
    /// A span opened; `path` is its full hierarchical path.
    fn enter_span(&self, name: &'static str, path: &str);
    /// The span named `name` (the most recent open on this thread)
    /// closed after `seconds` of wall time.
    fn exit_span(&self, name: &'static str, seconds: f64);
}

struct Inner {
    registry: Mutex<Registry>,
    sinks: Mutex<Vec<Box<dyn Sink>>>,
    observer: Mutex<Option<Arc<dyn SpanObserver>>>,
    // Fast-path flag mirroring `observer.is_some()`: trace-only scopes
    // ([`Telemetry::scope`]) cost one relaxed load when no tracer is
    // attached.
    observed: AtomicBool,
    manifest: RunManifest,
}

/// Shared handle to one run's telemetry pipeline.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Telemetry {
    /// Creates a pipeline with no sinks; attach them with
    /// [`Telemetry::attach`].
    pub fn new(manifest: RunManifest) -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                registry: Mutex::new(Registry::default()),
                sinks: Mutex::new(Vec::new()),
                observer: Mutex::new(None),
                observed: AtomicBool::new(false),
                manifest,
            }),
        }
    }

    /// Convenience constructor for tests: pipeline plus a handle onto
    /// everything it records.
    pub fn with_memory(manifest: RunManifest) -> (Self, MemoryHandle) {
        let telemetry = Telemetry::new(manifest);
        let (sink, handle) = MemorySink::new();
        telemetry.attach(Box::new(sink));
        (telemetry, handle)
    }

    /// Convenience constructor for binaries: pipeline writing a JSONL
    /// stream to `path`.
    ///
    /// # Errors
    ///
    /// Returns an error if the stream file cannot be created.
    pub fn with_jsonl(manifest: RunManifest, path: impl AsRef<Path>) -> std::io::Result<Self> {
        let telemetry = Telemetry::new(manifest);
        telemetry.attach(Box::new(JsonlSink::create(path)?));
        Ok(telemetry)
    }

    /// Attaches a sink; it immediately receives the run manifest.
    pub fn attach(&self, mut sink: Box<dyn Sink>) {
        sink.record(&Event::Manifest(self.inner.manifest.clone()));
        self.lock_sinks().push(sink);
    }

    pub fn manifest(&self) -> &RunManifest {
        &self.inner.manifest
    }

    // -- metrics ----------------------------------------------------

    /// Adds `delta` to the counter `name` with no labels.
    pub fn incr(&self, name: &'static str, delta: u64) {
        self.incr_with(name, Vec::new(), delta);
    }

    /// Adds `delta` to the counter `name` under `labels`.
    pub fn incr_with(&self, name: &'static str, labels: Labels, delta: u64) {
        self.lock_registry().incr(MetricKey { name, labels }, delta);
    }

    /// Sets the gauge `name` (no labels) to `value`.
    pub fn gauge(&self, name: &'static str, value: f64) {
        self.gauge_with(name, Vec::new(), value);
    }

    /// Sets the gauge `name` under `labels` to `value`.
    pub fn gauge_with(&self, name: &'static str, labels: Labels, value: f64) {
        self.lock_registry()
            .gauge(MetricKey { name, labels }, value);
    }

    /// Records `value` into the histogram `name` using
    /// [`DEFAULT_BUCKETS`].
    pub fn observe(&self, name: &'static str, value: f64) {
        self.observe_in(name, Vec::new(), DEFAULT_BUCKETS, value);
    }

    /// Records `value` into the histogram `name` under `labels` with
    /// explicit bucket upper bounds (used on first observation; later
    /// calls reuse the registered buckets).
    pub fn observe_in(&self, name: &'static str, labels: Labels, buckets: &[f64], value: f64) {
        self.lock_registry()
            .observe(MetricKey { name, labels }, buckets, value);
    }

    // -- spans ------------------------------------------------------

    /// Opens a span named `name`; it closes (and records its wall
    /// time) when the returned guard drops. Prefer the [`span!`]
    /// macro, which also attaches labels.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_with(name, Vec::new())
    }

    /// Opens a span with labels attached to its close event.
    pub fn span_with(&self, name: &'static str, labels: Labels) -> SpanGuard {
        self.open_span(name, labels, true, None)
    }

    /// Opens a span at the **root of a fresh per-thread stack**: the
    /// current stack is saved and restored when the guard drops, and
    /// nested spans build paths under `name` alone. The data-parallel
    /// engine uses this for its shard scopes, so a shard's span
    /// structure is identical whether the shard ran on a worker thread
    /// (empty stack) or inline on the caller (stack holding
    /// `epoch/batch/step`) — the anchor of the thread-count-invariant
    /// trace-structure contract.
    pub fn span_root(&self, name: &'static str) -> SpanGuard {
        let saved = SPAN_STACK.with(|stack| std::mem::take(&mut *stack.borrow_mut()));
        self.open_span(name, Vec::new(), true, Some(saved))
    }

    /// Opens a **trace-only scope**: `None` (no work at all beyond one
    /// atomic load) unless a [`SpanObserver`] is attached, and the
    /// resulting span feeds only the observer, never the aggregate
    /// registry or sinks. This is the hook for hot-path scopes (per-cell
    /// GEMM/epilogue/BP spans) that would be too numerous for the
    /// registry but are exactly what a trace viewer wants.
    pub fn scope(&self, name: &'static str) -> Option<SpanGuard> {
        if !self.tracing() {
            return None;
        }
        Some(self.open_span(name, Vec::new(), false, None))
    }

    fn open_span(
        &self,
        name: &'static str,
        labels: Labels,
        registry: bool,
        saved_stack: Option<Vec<&'static str>>,
    ) -> SpanGuard {
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name);
            stack.join("/")
        });
        let observed = match self.observer() {
            Some(o) => {
                o.enter_span(name, &path);
                true
            }
            None => false,
        };
        SpanGuard {
            telemetry: self.clone(),
            name,
            path,
            labels,
            start: Instant::now(),
            registry,
            observed,
            saved_stack,
        }
    }

    // -- span observer ----------------------------------------------

    /// Attaches the span observer (replacing any previous one); every
    /// subsequent span open/close on any thread notifies it, and
    /// [`Telemetry::scope`] sites start emitting.
    pub fn set_span_observer(&self, observer: Arc<dyn SpanObserver>) {
        *self.lock_observer() = Some(observer);
        self.inner.observed.store(true, Ordering::Release);
    }

    /// Detaches the span observer; spans already open still notify it
    /// on close.
    pub fn clear_span_observer(&self) {
        self.inner.observed.store(false, Ordering::Release);
        *self.lock_observer() = None;
    }

    /// Whether a span observer is attached (i.e. a tracer is live).
    pub fn tracing(&self) -> bool {
        self.inner.observed.load(Ordering::Relaxed)
    }

    fn observer(&self) -> Option<Arc<dyn SpanObserver>> {
        if !self.tracing() {
            return None;
        }
        self.lock_observer().clone()
    }

    // -- output -----------------------------------------------------

    /// Freezes the registry: every metric and span aggregate at this
    /// instant.
    pub fn snapshot(&self) -> Snapshot {
        self.lock_registry().snapshot()
    }

    /// Emits final metric and span-summary events to every sink, then
    /// flushes them. Call once at the end of a run; safe to call more
    /// than once (sinks see one event per metric per flush).
    pub fn flush(&self) -> Snapshot {
        let snapshot = self.snapshot();
        let mut sinks = self.lock_sinks();
        for sink in sinks.iter_mut() {
            for metric in &snapshot.metrics {
                sink.record(&Event::Metric(metric.clone()));
            }
            for span in &snapshot.spans {
                sink.record(&Event::SpanSummary(span.clone()));
            }
            sink.flush(&snapshot);
        }
        snapshot
    }

    fn lock_registry(&self) -> std::sync::MutexGuard<'_, Registry> {
        self.inner
            .registry
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn lock_sinks(&self) -> std::sync::MutexGuard<'_, Vec<Box<dyn Sink>>> {
        self.inner.sinks.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[allow(clippy::type_complexity)]
    fn lock_observer(&self) -> std::sync::MutexGuard<'_, Option<Arc<dyn SpanObserver>>> {
        self.inner
            .observer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn close_span(&self, path: &str, labels: &Labels, seconds: f64) {
        self.lock_registry().record_span(path, seconds);
        let mut sinks = self.lock_sinks();
        if !sinks.is_empty() {
            let event = Event::Span {
                path: path.to_string(),
                labels: labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
                seconds,
            };
            for sink in sinks.iter_mut() {
                sink.record(&event);
            }
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("manifest", &self.inner.manifest)
            .finish_non_exhaustive()
    }
}

/// RAII guard of an open span; records wall time on drop.
pub struct SpanGuard {
    telemetry: Telemetry,
    name: &'static str,
    path: String,
    labels: Labels,
    start: Instant,
    // Trace-only scopes skip the aggregate registry and sinks.
    registry: bool,
    // Whether the observer saw this span's enter (so an observer
    // attached mid-span never receives an unmatched exit).
    observed: bool,
    // `span_root` saves the stack it displaced and restores it here.
    saved_stack: Option<Vec<&'static str>>,
}

impl SpanGuard {
    /// Full hierarchical path of this span (e.g. `epoch/batch`).
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        match self.saved_stack.take() {
            Some(saved) => SPAN_STACK.with(|stack| *stack.borrow_mut() = saved),
            None => SPAN_STACK.with(|stack| {
                stack.borrow_mut().pop();
            }),
        }
        let seconds = self.start.elapsed().as_secs_f64();
        if self.observed {
            if let Some(o) = self.telemetry.observer() {
                o.exit_span(self.name, seconds);
            }
        }
        if self.registry {
            self.telemetry.close_span(&self.path, &self.labels, seconds);
        }
    }
}

/// Builds a [`Labels`] vector: `labels!(epoch = i, kind = "fw")`.
#[macro_export]
macro_rules! labels {
    () => { ::std::vec::Vec::new() };
    ($($key:ident = $value:expr),+ $(,)?) => {
        ::std::vec![$((stringify!($key), ::std::string::ToString::to_string(&$value))),+]
    };
}

/// Opens a hierarchical span on `telemetry`:
/// `let _s = span!(t, "bp_p1", cell = tstep);`
#[macro_export]
macro_rules! span {
    ($telemetry:expr, $name:expr) => {
        $telemetry.span($name)
    };
    ($telemetry:expr, $name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $telemetry.span_with($name, $crate::labels!($($key = $value),+))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_manifest() -> RunManifest {
        RunManifest::capture("telemetry_unit_test", "deadbeef".into(), 1)
    }

    #[test]
    fn counters_accumulate_per_label_set() {
        let t = Telemetry::new(test_manifest());
        t.incr("batches_total", 2);
        t.incr("batches_total", 3);
        t.incr_with("bytes_total", labels!(category = "weights"), 10);
        t.incr_with("bytes_total", labels!(category = "ew"), 4);
        let snap = t.snapshot();
        assert_eq!(snap.counter_total("batches_total"), 5);
        assert_eq!(snap.counter_total("bytes_total"), 14);
        assert_eq!(
            snap.metrics
                .iter()
                .filter(|m| m.name == "bytes_total")
                .count(),
            2
        );
    }

    #[test]
    fn gauges_keep_last_value() {
        let t = Telemetry::new(test_manifest());
        t.gauge("live_bytes", 100.0);
        t.gauge("live_bytes", 42.0);
        assert_eq!(t.snapshot().gauge("live_bytes"), Some(42.0));
    }

    #[test]
    fn histograms_bucket_and_aggregate() {
        let t = Telemetry::new(test_manifest());
        for v in [0.1, 0.4, 0.9, 0.95] {
            t.observe_in("busy", Vec::new(), &[0.25, 0.5, 1.0], v);
        }
        let snap = t.snapshot();
        let h = snap.histogram("busy").expect("histogram registered");
        assert_eq!(h.counts, vec![1, 1, 2]);
        assert_eq!(h.overflow, 0);
        assert_eq!(h.count, 4);
        assert!((h.mean() - 0.5875).abs() < 1e-12);
        assert_eq!(h.min, 0.1);
        assert_eq!(h.max, 0.95);
    }

    #[test]
    fn spans_nest_into_hierarchical_paths() {
        let t = Telemetry::new(test_manifest());
        for _ in 0..3 {
            let _epoch = span!(t, "epoch");
            for b in 0..2 {
                let _batch = span!(t, "batch", index = b);
            }
        }
        let snap = t.snapshot();
        assert_eq!(snap.span("epoch").unwrap().count, 3);
        let batch = snap.span("epoch/batch").unwrap();
        assert_eq!(batch.count, 6);
        assert!(batch.min_s <= batch.max_s);
        assert!(batch.total_s >= batch.max_s);
    }

    #[test]
    fn memory_sink_sees_manifest_spans_and_flush() {
        let (t, handle) = Telemetry::with_memory(test_manifest());
        {
            let _s = span!(t, "work");
        }
        t.incr("done_total", 1);
        t.flush();
        let events = handle.events();
        assert!(matches!(events[0], Event::Manifest(_)));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Span { path, .. } if path == "work")));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Metric(m) if m.name == "done_total"
                && m.value == MetricValue::Counter { value: 1 })));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::SpanSummary(s) if s.path == "work")));
    }

    #[test]
    fn jsonl_stream_starts_with_manifest_and_parses() {
        let dir = std::env::temp_dir().join(format!("eta_telemetry_unit_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream_unit.jsonl");
        let t = Telemetry::with_jsonl(test_manifest(), &path).unwrap();
        {
            let _s = span!(t, "phase", kind = "fw");
        }
        t.gauge("peak_bytes", 1234.0);
        t.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3);
        let first: serde::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first.field("type").unwrap().as_str(), Some("manifest"));
        for line in &lines {
            let v: serde::Value = serde_json::from_str(line).unwrap();
            assert!(v.field("type").unwrap().as_str().is_some());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[derive(Default)]
    struct RecordingObserver {
        log: Mutex<Vec<String>>,
    }

    impl SpanObserver for RecordingObserver {
        fn enter_span(&self, _name: &'static str, path: &str) {
            self.log.lock().unwrap().push(format!("B {path}"));
        }
        fn exit_span(&self, name: &'static str, _seconds: f64) {
            self.log.lock().unwrap().push(format!("E {name}"));
        }
    }

    #[test]
    fn observer_sees_enter_exit_with_paths() {
        let t = Telemetry::new(test_manifest());
        let obs = Arc::new(RecordingObserver::default());
        t.set_span_observer(obs.clone());
        {
            let _epoch = span!(t, "epoch");
            let _batch = span!(t, "batch");
        }
        let log = obs.log.lock().unwrap().clone();
        assert_eq!(log, vec!["B epoch", "B epoch/batch", "E batch", "E epoch"]);
    }

    #[test]
    fn scope_is_none_without_observer_and_trace_only_with_one() {
        let t = Telemetry::new(test_manifest());
        assert!(t.scope("gemm").is_none());
        let obs = Arc::new(RecordingObserver::default());
        t.set_span_observer(obs.clone());
        {
            let _g = t.scope("gemm");
        }
        let log = obs.log.lock().unwrap().clone();
        assert_eq!(log, vec!["B gemm", "E gemm"]);
        // Trace-only scopes never reach the aggregate registry.
        assert!(t.snapshot().span("gemm").is_none());
        t.clear_span_observer();
        assert!(t.scope("gemm").is_none());
    }

    #[test]
    fn span_root_isolates_and_restores_the_stack() {
        let t = Telemetry::new(test_manifest());
        let _outer = span!(t, "epoch");
        {
            let root = t.span_root("shard");
            assert_eq!(root.path(), "shard");
            let inner = t.span("cell");
            assert_eq!(inner.path(), "shard/cell");
        }
        // The displaced stack is restored: new spans nest under epoch.
        let after = t.span("batch");
        assert_eq!(after.path(), "epoch/batch");
    }

    #[test]
    fn observer_attached_mid_span_gets_no_unmatched_exit() {
        let t = Telemetry::new(test_manifest());
        let obs = Arc::new(RecordingObserver::default());
        let guard = t.span("early");
        t.set_span_observer(obs.clone());
        drop(guard);
        assert!(obs.log.lock().unwrap().is_empty());
    }

    #[test]
    fn handles_share_state_across_clones_and_threads() {
        let t = Telemetry::new(test_manifest());
        let t2 = t.clone();
        std::thread::spawn(move || {
            t2.incr("cross_thread_total", 7);
        })
        .join()
        .unwrap();
        assert_eq!(t.snapshot().counter_total("cross_thread_total"), 7);
    }
}
